"""Command line surface: every subcommand, exit codes, schemas, round trips."""

import json
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from matsplit import cli, splitter
from matsplit.algebra import (
    StructureConstants,
    WitnessProblems,
    build_isomorphism,
    ideal_rank,
    matrix_units_table,
    witness_problems,
)
from matsplit.cli import _exit_code, main
from matsplit.errors import (
    EnumerationBudgetError,
    FactorBudgetError,
    InputError,
    PrecisionError,
    PromiseViolation,
)
from matsplit.exactnum import EISENSTEIN, GAUSS, QQ, ExactMatrix, Field
from matsplit.fixtures import quaternion_table
from matsplit.serialize import (
    algebra_to_json,
    check_schema,
    load_schema,
    matrix_to_json,
    vector_to_json,
    verify_result_json,
)


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args, **kw):
    result = runner.invoke(main, args, catch_exceptions=False, **kw)
    assert result.exit_code == 0, result.output
    return result


class TestConstantsCommand:
    def test_kappa_one(self, runner):
        out = json.loads(run_ok(runner, ["constants", "--kappa", "1"]).output)
        assert out["kappa"]["symbolic"] == "sqrt(2)/2"
        assert abs(out["kappa"]["value"] - 0.7071067811865476) < 1e-12
        assert out["tau"] == 1

    def test_cm_four(self, runner):
        out = json.loads(run_ok(runner, ["constants", "--cm", "4"]).output)
        assert abs(out["c_m"] - 648) < 1e-12

    def test_minfloor(self, runner):
        out = json.loads(run_ok(runner, ["constants", "--minfloor", "8"]).output)
        assert out["min_rank_floor"]["argmin_rank"] == 2

    def test_gammah(self, runner):
        out = json.loads(run_ok(runner, ["constants", "--gammah", "7"]).output)
        assert out["gamma_h_kappa_upper"]["value"] < out["gamma_h_upper"]["value"]

    def test_bad_d_exits_4(self, runner):
        result = runner.invoke(main, ["constants", "--kappa", "12"])
        assert result.exit_code == 4

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--cm", "0"], "dimension must be positive"),
            (["--cm", "-3"], "dimension must be positive"),
            # in float arithmetic c_42 .. c_45 round to inf and c_46 on raise OverflowError
            (["--cm", "42"], "c_42 overflows a float"),
            (["--cm", "46"], "c_46 overflows a float"),
            (["--hermite", "100000000000"], "overflows a float"),
        ],
    )
    def test_constants_out_of_range_exit_4(self, runner, args, message):
        result = runner.invoke(main, ["constants", *args])
        assert result.exit_code == 4
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert message in result.output

    def test_largest_finite_cm(self, runner):
        out = json.loads(run_ok(runner, ["constants", "--cm", "41"]).output)
        assert 1e305 < out["c_m"] < 2e305


class TestPipelines:
    def test_gen_split_verify(self, runner):
        gen = run_ok(runner, ["gen", "--n", "2", "--seed", "42"])
        schema = load_schema("algebra")
        assert check_schema(json.loads(gen.output), schema) == []
        split = run_ok(runner, ["split", "--seed", "42"], input=gen.output)
        payload = json.loads(split.output)
        assert check_schema(payload, load_schema("result")) == []
        assert verify_result_json(payload) == []
        verify = run_ok(runner, ["verify"], input=split.output)
        assert json.loads(verify.output) == {"valid": True}

    def test_fifty_seeds_compose(self, runner):
        for seed in range(1, 51):
            gen = run_ok(runner, ["gen", "--n", "2", "--seed", str(seed)])
            split = run_ok(runner, ["split", "--seed", str(seed)], input=gen.output)
            verify = run_ok(runner, ["verify"], input=split.output)
            assert json.loads(verify.output)["valid"]

    def test_eisenstein_pipeline(self, runner):
        gen = run_ok(runner, ["gen", "--n", "2", "--field", "eisenstein",
                              "--height", "4", "--seed", "7"])
        split = run_ok(runner, ["split", "--seed", "7"], input=gen.output)
        assert verify_result_json(json.loads(split.output)) == []

    def test_human_mode(self, runner):
        gen = run_ok(runner, ["gen", "--n", "2", "--seed", "2"])
        split = run_ok(runner, ["split", "--seed", "2", "--human"], input=gen.output)
        assert "rank-one element" in split.output

    def test_random_tensor_experiment(self, runner):
        result = run_ok(
            runner, ["tensor-experiment", "--random", "--rankmax", "3", "--seed", "4"]
        )
        assert json.loads(result.output)["floor_violations"] == 0

    def test_random_tensor_experiment_at_the_largest_rank(self, runner):
        # every matrix rank up to 8 has an exact gamma_r, so the audit skips none
        result = run_ok(
            runner, ["tensor-experiment", "--random", "--rankmax", "8", "--seed", "1"]
        )
        payload = json.loads(result.output)
        assert payload["floor_violations"] == 0
        assert all(1 <= int(r) <= 8 for r in payload["min_norm_by_rank"])

    def test_non_square_dimension_exit_4(self, runner):
        bad = {
            "field": {"type": "Q"},
            "dim": 2,
            "gamma": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
        }
        result = runner.invoke(main, ["split"], input=json.dumps(bad))
        assert result.exit_code == 4

    @pytest.mark.parametrize("args", [["split", "--seed", "1"], ["order"]])
    def test_non_integral_discriminant_exit_2(self, runner, args):
        # K^4 passes validate, but its discriminant is not integral, which no
        # order of M_2(K) can have; over Q(i) only the K-order shows it, as
        # the restriction's discriminant is 1
        for field, message in [
            (QQ, "order discriminant 1/16 is not an integer"),
            (GAUSS, "order discriminant 1/16 is not integral"),
            (EISENSTEIN, "order discriminant 81/256 is not an integer"),
        ]:
            table, _, _ = _forged("K^4", field)
            result = runner.invoke(main, args, input=json.dumps(algebra_to_json(table)))
            assert result.exit_code == 2, (field, result.output)
            assert message in result.output

    def test_division_quaternions_exit_2(self, runner):
        table = algebra_to_json(quaternion_table(-1, -1))
        result = runner.invoke(main, ["split", "--seed", "1"], input=json.dumps(table))
        assert result.exit_code == 2

    def test_n4_over_Q_splits_and_verifies(self, runner):
        # the minimal-class search splits at n = 4, where the coefficient
        # box of the earlier algorithm holds about 2.6e13 tuples
        gen = run_ok(runner, ["gen", "--n", "4", "--field", "Q", "--seed", "1"])
        start = time.perf_counter()
        split = run_ok(runner, ["split", "--seed", "1"], input=gen.output)
        assert time.perf_counter() - start < 10
        run_ok(runner, ["verify"], input=split.output)

    def test_tampered_result_fails_verification(self, runner):
        gen = run_ok(runner, ["gen", "--n", "2", "--seed", "3"])
        split = run_ok(runner, ["split", "--seed", "3"], input=gen.output)
        payload = json.loads(split.output)
        payload["rank_one_element"] = ["1", "0", "0", "1"]
        result = runner.invoke(main, ["verify"], input=json.dumps(payload))
        assert result.exit_code == 2


class TestOrderCommand:
    def test_order_of_standard_m2(self, runner):
        gen = run_ok(runner, ["gen", "--n", "2", "--height", "0"])
        result = run_ok(runner, ["order"], input=gen.output)
        payload = json.loads(result.output)
        assert check_schema(payload, load_schema("order")) == []
        assert payload["discriminant"] in ("1", "-1")


class TestLatticeCommands:
    LATTICE = {"dim": 2, "basis": [["201", "1"], ["200", "1"]]}

    def test_lll(self, runner):
        result = run_ok(runner, ["lll"], input=json.dumps(self.LATTICE))
        payload = json.loads(result.output)
        assert check_schema(payload, load_schema("lattice")) == []
        assert abs(payload["orthogonality_defect"] - 1.0) < 1e-9

    def test_enumerate(self, runner):
        reduced = {"dim": 2, "basis": [["1", "0"], ["0", "1"]]}
        result = run_ok(runner, ["enumerate", "--bound", "1.5"], input=json.dumps(reduced))
        payload = json.loads(result.output)
        assert payload["count"] == 4  # e1, e2, e1 +- e2 classes

    @pytest.mark.parametrize(
        "lattice",
        [
            {"dim": 2, "basis": [[str(10**40), "1"], ["1", "0"]]},  # a basis of Z^2
            {"dim": 1, "basis": [["1/100000000000000000000"]]},
        ],
    )
    def test_enumerate_keeps_the_split_budget(self, runner, monkeypatch, lattice):
        # each listing is astronomically long; enumerate stops at the split
        # default of 10^6 nodes after seconds, at 10^4 within a fraction of one
        monkeypatch.setattr(splitter, "ENUMERATION_BUDGET", 10**4)
        result = runner.invoke(main, ["enumerate", "--bound", "1.5"], input=json.dumps(lattice))
        assert result.exit_code == 3, result.output
        assert "enumeration budget exceeded" in result.output

    @pytest.mark.parametrize("lattice", ["A2-stretched", "Z2-skewed", "tiny-rank-one"])
    def test_enumerate_refuses_long_listings_at_once(self, runner, lattice):
        # at the default budget of 10^6 nodes; each level's admissible range
        # is counted before it is swept, so the refusal takes no sweep at all
        if lattice == "A2-stretched":
            payload = json.loads(run_ok(runner, ["fixture", "--name", "A2"]).output)
            payload["basis"][0][0] = str(10**40)
        elif lattice == "Z2-skewed":
            payload = {"dim": 2, "basis": [[str(10**40), "1"], ["1", "0"]]}
        else:
            payload = {"dim": 1, "basis": [["1/100000000000000000000"]]}
        start = time.perf_counter()
        result = runner.invoke(main, ["enumerate", "--bound", "1.5"], input=json.dumps(payload))
        elapsed = time.perf_counter() - start
        assert result.exit_code == 3, result.output
        assert "enumeration budget exceeded" in result.output
        assert elapsed < 1.0

    def test_tensor_experiment(self, runner):
        result = run_ok(runner, ["tensor-experiment"])
        payload = json.loads(result.output)
        assert abs(payload["min_norm_by_rank"]["2"] - 2**0.5) < 1e-9
        assert payload["floor_violations"] == 0


class TestFixtures:
    @pytest.mark.parametrize(
        "name",
        ["standard-M2", "standard-M3", "gaussian-lambda", "eisenstein-M2",
         "d5-matrix", "A2", "A2-dual"],
    )
    def test_round_trip_bit_exact(self, runner, name):
        first = run_ok(runner, ["fixture", "--name", name]).output
        second = run_ok(runner, ["fixture", "--name", name]).output
        assert first == second
        # parse and re-serialize identically
        assert json.dumps(json.loads(first), indent=2) + "\n" == first

    def test_unknown_fixture_exit_4(self, runner):
        result = runner.invoke(main, ["fixture", "--name", "nope"])
        assert result.exit_code == 4


class TestMalformedInput:
    """JSON of the wrong shape is rejected at the boundary with exit 4."""

    @staticmethod
    def assert_exit_4(runner, args, payload):
        result = runner.invoke(main, args, input=json.dumps(payload))
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    def test_verify_empty_object(self, runner):
        self.assert_exit_4(runner, ["verify"], {})

    def test_a_long_bad_literal_is_cut_on_stderr(self, tmp_path):
        algebra = algebra_to_json(splitter.generate_instance(2, "gauss", 10, 1).table)
        algebra["gamma"][0][0][0] = {"a": "1" * 5000, "b": "0"}
        path = tmp_path / "a.json"
        path.write_text(json.dumps(algebra))
        out = subprocess.run(
            [sys.executable, "-m", "matsplit", "split", "--input", str(path)], capture_output=True
        )
        assert out.returncode == 4
        assert len(out.stderr) < 300 and b"bad rational literal" in out.stderr
        # the same entry as a bare JSON number: past the int digit limit of
        # Python 3.11 (and 3.10.7 on) the JSON reader itself refuses it
        path.write_text(json.dumps(algebra).replace('{"a": "' + "1" * 5000 + '", "b": "0"}', "1" * 5000))
        out = subprocess.run(
            [sys.executable, "-m", "matsplit", "split", "--input", str(path)], capture_output=True
        )
        assert out.returncode == 4 and len(out.stderr) < 300

    def test_verify_algebra_not_an_object(self, runner):
        self.assert_exit_4(runner, ["verify"], {"algebra": 1})

    def test_lll_basis_not_a_list(self, runner):
        self.assert_exit_4(runner, ["lll"], {"basis": 1})

    def test_enumerate_basis_not_a_list(self, runner):
        self.assert_exit_4(runner, ["enumerate", "--bound", "1"], {"basis": 1})

    @pytest.mark.parametrize("command", ["split", "order"])
    def test_algebra_not_an_object(self, runner, command):
        self.assert_exit_4(runner, [command], [])

    def test_quadratic_field_without_d(self, runner):
        algebra = algebra_to_json(quaternion_table(1, 1))
        algebra["field"] = {"type": "imag_quad"}
        self.assert_exit_4(runner, ["split"], algebra)

    @pytest.mark.parametrize(
        "command,payload",
        [
            (["split"], {"field": {"type": "Q"}, "dim": 1, "gamma": [[]]}),
            (["order"], {"field": {"type": "Q"}, "dim": 4, "gamma": [[["1"]], [], [], []]}),
        ],
        ids=["split_empty_row", "order_short_planes"],
    )
    def test_ragged_gamma(self, runner, command, payload):
        self.assert_exit_4(runner, command, payload)

    @pytest.mark.parametrize("command", ["split", "order"])
    def test_zero_dimensional_algebra(self, runner, command):
        self.assert_exit_4(runner, [command], {"field": {"type": "Q"}, "dim": 0, "gamma": []})

    @pytest.mark.parametrize("bound", ["nan", "inf", "-inf"])
    def test_enumerate_non_finite_bound(self, runner, bound):
        reduced = {"dim": 2, "basis": [["1", "0"], ["0", "1"]]}
        self.assert_exit_4(runner, ["enumerate", "--bound", bound], reduced)

    @pytest.mark.parametrize("bound", ["nan", "inf"])
    def test_tensor_experiment_non_finite_bound(self, runner, bound):
        result = runner.invoke(main, ["tensor-experiment", "--bound", bound])
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "args",
        [
            ["--random", "--rankmax", "9"],
            ["--random", "--rankmax", "100000"],
            ["--random", "--rankmax", "1"],
            ["--random", "--bound", "2"],
            ["--random", "--left", "A2"],
            ["--random", "--right", "A2-dual"],
            ["--rankmax", "3"],
        ],
        ids=[
            "rankmax_without_exact_gamma",
            "rankmax_huge",
            "rankmax_below_two",
            "random_with_bound",
            "random_with_left",
            "random_with_right",
            "rankmax_without_random",
        ],
    )
    def test_tensor_experiment_flags_it_would_ignore(self, runner, args):
        # exits before any lattice is drawn, so a huge rankmax returns at once
        result = runner.invoke(main, ["tensor-experiment", "--seed", "1", *args])
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)

    def test_lll_delta_not_a_rational(self, runner):
        self.assert_exit_4(runner, ["lll", "--delta", "abc"], TestLatticeCommands.LATTICE)

    def test_rational_with_an_exponent(self, runner):
        # 3e-1 lies in (1/4, 1), but "1e10000000" would take seconds to parse
        self.assert_exit_4(runner, ["lll", "--delta", "3e-1"], TestLatticeCommands.LATTICE)

    @pytest.mark.parametrize(
        "args,field",
        [
            (["split", "--precision-bits", "8192"], "Q"),
            (["split", "--dynamic-pruning"], "Q"),
            (["split", "--engine", "box"], "gauss"),
        ],
        ids=["precision_above_max", "pruning_without_box", "box_over_gauss"],
    )
    def test_split_settings_that_cannot_be_honoured(self, runner, args, field):
        gen = run_ok(runner, ["gen", "--n", "2", "--field", field, "--height", "0"])
        self.assert_exit_4(runner, args, json.loads(gen.output))

    @pytest.fixture(scope="class")
    def split_payload(self):
        runner = CliRunner()
        gen = run_ok(runner, ["gen", "--n", "2", "--seed", "11"])
        return json.loads(run_ok(runner, ["split", "--seed", "11"], input=gen.output).output)

    @pytest.mark.parametrize(
        "image",
        [[["1"]], [["1", "0"], ["0"]]],
        ids=["one_by_one", "ragged"],
    )
    def test_verify_image_of_the_wrong_shape(self, runner, split_payload, image):
        payload = json.loads(json.dumps(split_payload))
        payload["witness"]["images"][0] = image
        self.assert_exit_4(runner, ["verify"], payload)

    @pytest.mark.parametrize("dim", ["x", 1.5, True], ids=["string", "float", "bool"])
    def test_verify_algebra_dim_not_an_int(self, runner, split_payload, dim):
        payload = json.loads(json.dumps(split_payload))
        payload["algebra"]["dim"] = dim
        self.assert_exit_4(runner, ["verify"], payload)

    @pytest.fixture(scope="class")
    def gauss_payload(self):
        runner = CliRunner()
        gen = run_ok(runner, ["gen", "--n", "2", "--field", "gauss", "--seed", "2"])
        return json.loads(run_ok(runner, ["split", "--seed", "2"], input=gen.output).output)

    @pytest.mark.parametrize("command", ["verify", "split", "order"])
    @pytest.mark.parametrize("part", [None, True, 1.5, 2], ids=["null", "bool", "float", "int"])
    def test_quadratic_scalar_part_not_a_string(self, runner, gauss_payload, command, part):
        payload = json.loads(json.dumps(gauss_payload))
        payload["algebra"]["gamma"][0][0][0] = {"a": part, "b": "0"}
        self.assert_exit_4(runner, [command], payload if command == "verify" else payload["algebra"])

    @pytest.mark.parametrize("where", ["algebra", "top"])
    @pytest.mark.parametrize("d", [1.5, True, "1", 7, 2**64 + 1], ids=["float", "bool", "string", "seven", "huge"])
    def test_verify_field_d_not_supported(self, runner, gauss_payload, where, d):
        payload = json.loads(json.dumps(gauss_payload))
        (payload["algebra"] if where == "algebra" else payload)["field"]["d"] = d
        self.assert_exit_4(runner, ["verify"], payload)

    @pytest.mark.parametrize("entry", ["x", "1/0", None, 1.5], ids=["word", "zero_den", "null", "float"])
    def test_verify_left_ideal_basis_not_rationals(self, runner, split_payload, entry):
        payload = json.loads(json.dumps(split_payload))
        payload["witness"]["left_ideal_basis"][0][0] = entry
        self.assert_exit_4(runner, ["verify"], payload)

    @pytest.mark.parametrize("n", [1, 3])
    def test_verify_n_differs_from_the_algebra(self, runner, split_payload, n):
        # the witness itself is valid: only the document's n is wrong
        assert verify_result_json(split_payload) == []
        payload = json.loads(json.dumps(split_payload))
        payload["n"] = n
        with pytest.raises(InputError, match="differs from its algebra's n = 2"):
            verify_result_json(payload)
        self.assert_exit_4(runner, ["verify"], payload)

    @pytest.mark.parametrize("shape", ["five_vectors", "one_vector", "short_vector"])
    def test_verify_left_ideal_basis_of_the_wrong_shape(self, runner, split_payload, shape):
        payload = json.loads(json.dumps(split_payload))
        basis = payload["witness"]["left_ideal_basis"]
        assert [len(v) for v in basis] == [4, 4]
        if shape == "five_vectors":
            basis += [basis[0]] * 3
        elif shape == "one_vector":
            del basis[1]
        else:
            basis[0] = basis[0][:1]
        with pytest.raises(InputError, match="2 vectors of length 4"):
            verify_result_json(payload)
        self.assert_exit_4(runner, ["verify"], payload)


def _forged(family: str, field: Field):
    """A non-simple algebra of dimension 4 with a unital multiplicative map to
    M_2(K) that is not injective: (table, images, rank one element)."""
    gamma = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    if family == "K^4":
        # e_i e_j = delta_ij e_i; phi(e_1) = I, the rest to 0
        for i in range(4):
            gamma[i][i][i] = 1
        images = [[[1, 0], [0, 1]], [[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]]
        element = [1, 1, 0, 0]
    elif family == "T2+K":
        # E11, E12, E22 of the upper triangular matrices, then f with f^2 = f
        for i, j, k in [(0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2), (3, 3, 3)]:
            gamma[i][j][k] = 1
        images = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 1]], [[0, 0], [0, 0]]]
        element = [1, 0, 0, 0]
    else:
        # K[x]/(x^4) on 1, x, x^2, x^3; x -> E12
        for i in range(4):
            for j in range(4 - i):
                gamma[i][j][i + j] = 1
        images = [[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]]
        element = [0, 0, 1, 0]
    table = StructureConstants(field, gamma)
    return table, [ExactMatrix(field, M) for M in images], table.element(element)


class TestForgedWitnesses:
    """A unital multiplicative witness from a non-simple algebra must not verify."""

    @pytest.fixture(scope="class")
    def payloads(self):
        runner = CliRunner()
        out = {}
        for name in ("Q", "gauss", "eisenstein"):
            gen = run_ok(runner, ["gen", "--n", "2", "--field", name, "--seed", "1"])
            split = run_ok(runner, ["split", "--seed", "1"], input=gen.output)
            out[name] = json.loads(split.output)
        return out

    @pytest.mark.parametrize("family", ["K^4", "T2+K", "K[x]/(x^4)"])
    @pytest.mark.parametrize(
        "name,field", [("Q", QQ), ("gauss", GAUSS), ("eisenstein", EISENSTEIN)]
    )
    def test_verify_exits_2(self, runner, payloads, family, name, field):
        table, images, element = _forged(family, field)
        found = witness_problems(table, images)
        assert found == WitnessProblems((), False, True)
        assert ideal_rank(element) == 1
        payload = json.loads(json.dumps(payloads[name]))
        payload["algebra"] = algebra_to_json(table)
        payload["witness"]["images"] = [matrix_to_json(M) for M in images]
        payload["rank_one_element"] = vector_to_json(element.coords)
        problems = verify_result_json(payload)
        assert problems == ["the images are linearly dependent, so phi is not injective"]
        result = runner.invoke(main, ["verify"], input=json.dumps(payload))
        assert result.exit_code == 2, result.output
        assert json.loads(result.output) == {"valid": False, "problems": problems}

    @pytest.mark.parametrize("field", [QQ, GAUSS, EISENSTEIN])
    def test_build_isomorphism_rejects_a_non_simple_algebra(self, field):
        table, _, element = _forged("K^4", field)
        with pytest.raises(PromiseViolation, match="not injective"):
            build_isomorphism(table, element)


def _off_by_one_units(n: int, seed: int) -> StructureConstants:
    """M_n(Q) with one or two products E_ab E_cd of off-diagonal units changed by +-1 in one
    coordinate, scrambled by a bounded unimodular base change: the identity sum E_ii stays."""
    rng = random.Random(seed)
    m = n * n
    gamma = [[list(gij) for gij in gi] for gi in matrix_units_table(n).gamma]
    off = [a * n + b for a in range(n) for b in range(n) if a != b]
    for _ in range(rng.randint(1, 2)):
        gamma[rng.choice(off)][rng.choice(off)][rng.randrange(m)] += rng.choice((-1, 1))
    rows = splitter._bounded_unimodular(m, 3, QQ, rng)
    return splitter.instance_from_base_change(StructureConstants(QQ, gamma), rows, QQ).table


class TestSplitGate:
    """split runs validate only when it fails: a returned witness proves the table valid,
    and an invalid table still exits 4 whatever failed first."""

    @pytest.fixture
    def validate_calls(self, monkeypatch):
        calls = []

        def spy(table, real=cli.validate):
            calls.append(table)
            return real(table)

        monkeypatch.setattr(cli, "validate", spy)
        return calls

    def test_a_valid_split_runs_no_validate(self, runner, validate_calls):
        gen = run_ok(runner, ["gen", "--n", "3", "--seed", "1"])
        split = run_ok(runner, ["split", "--seed", "1"], input=gen.output)
        assert validate_calls == []
        assert verify_result_json(json.loads(split.output)) == []

    @pytest.mark.parametrize("n,seed", [(n, seed) for n in (2, 3, 4) for seed in range(4)])
    def test_an_off_by_one_table_exits_4(self, runner, validate_calls, n, seed):
        table = _off_by_one_units(n, seed)
        start = time.perf_counter()
        result = runner.invoke(main, ["split", "--seed", "1"], input=json.dumps(algebra_to_json(table)))
        assert time.perf_counter() - start < 10
        assert result.exit_code == 4, result.output
        assert "invalid structure constants" in result.output
        assert len(validate_calls) == 1

    def test_an_invalid_table_exits_4_when_the_split_raises_a_promise_violation(
            self, runner, monkeypatch):
        algebra = algebra_to_json(splitter.generate_instance(2, "Q", 10, 1).table)
        algebra["gamma"][0][0][0] = str(Fraction(algebra["gamma"][0][0][0]) + 1)

        def refuse(table, config):
            raise PromiseViolation("the algebra is not M_2(Q)")

        monkeypatch.setattr(splitter, "split", refuse)
        result = runner.invoke(main, ["split", "--seed", "1"], input=json.dumps(algebra))
        assert result.exit_code == 4, result.output
        assert "invalid structure constants" in result.output
        assert "not M_2(Q)" not in result.output


class TestUsageErrors:
    """Click's usage errors exit 4 like other bad input, not 2, which
    this CLI reserves for promise violations."""

    @pytest.mark.parametrize(
        "args",
        [
            ["split", "--threads", "4"],
            ["enumerate", "--bound", "2", "--threads", "4"],
            ["split", "--engine", "foo"],
            ["no-such-command"],
        ],
        ids=["split_threads", "enumerate_threads", "bad_engine", "unknown_command"],
    )
    def test_exit_4_with_usage_on_stderr(self, runner, args):
        result = runner.invoke(main, args, input="{}")
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)
        assert "Usage:" in result.stderr
        assert "Traceback" not in result.output


def _readme_command_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        for segment in line.split("|"):
            words = shlex.split(segment.split(">")[0])
            if words and words[0] == "matsplit":
                yield words[1:]


class TestReadmeCommands:
    """Every command and option in the README's command line examples exists."""

    @pytest.mark.parametrize("words", list(_readme_command_lines()), ids=" ".join)
    def test_command_and_options_exist(self, words):
        command = main.commands.get(words[0])
        assert command is not None, f"no command {words[0]!r}"
        known = {opt for param in command.params for opt in param.opts + param.secondary_opts}
        for word in words[1:]:
            if word.startswith("--"):
                assert word.split("=")[0] in known, f"{words[0]} has no option {word}"

    def test_the_block_is_found(self):
        assert len(list(_readme_command_lines())) >= 10


class TestSeedsAndCodes:
    def test_env_seed_override(self, runner):
        a = run_ok(runner, ["gen", "--n", "2"], env={"MATSPLIT_SEED": "5"}).output
        b = run_ok(runner, ["gen", "--n", "2"], env={"MATSPLIT_SEED": "5"}).output
        c = run_ok(runner, ["gen", "--n", "2"], env={"MATSPLIT_SEED": "6"}).output
        assert a == b and a != c

    @pytest.mark.parametrize(
        "args", [["gen", "--n", "2"], ["split"], ["tensor-experiment", "--random"]],
        ids=["gen", "split", "tensor-experiment"],
    )
    def test_malformed_env_seed_is_bad_input(self, runner, args):
        stdin = json.dumps(algebra_to_json(matrix_units_table(2)))
        result = runner.invoke(main, args, input=stdin, env={"MATSPLIT_SEED": "abc"})
        assert result.exit_code == 4, result.output
        assert "MATSPLIT_SEED" in result.output
        assert not isinstance(result.exception, ValueError)

    def test_empty_env_seed_is_seed_zero(self, runner):
        a = run_ok(runner, ["gen", "--n", "2"], env={"MATSPLIT_SEED": ""}).output
        assert a == run_ok(runner, ["gen", "--n", "2", "--seed", "0"]).output

    def test_exit_code_mapping(self):
        assert _exit_code(PromiseViolation("x")) == 2
        assert _exit_code(PrecisionError("x")) == 3
        assert _exit_code(FactorBudgetError("x")) == 3
        assert _exit_code(EnumerationBudgetError("x")) == 3
        assert _exit_code(InputError("x")) == 4

    def test_module_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "matsplit", "constants", "--cm", "1"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["c_m"] == 1.5
