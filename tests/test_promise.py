"""The split promise both ways, against the Hilbert-symbol oracle.

Scrambled quaternion algebras over Q, Q(i) and Q(sqrt(-3)) and two degree-4
tensor products over Q.  A split case must split with the first vector of
the minimal class and verify; a non-split one must raise PromiseViolation
with a message that names what rejected it: the Bergé–Martinet bound or
Kitaoka's theorem over Q, Coulangeon's theorem over Q(i) and Q(sqrt(-3)),
and over Q the real embedding when the algebra ramifies at infinity.
"""

import json
import random

import pytest
from click.testing import CliRunner

from hilbert_oracle import INF, hilbert_symbol, quaternion_splits, ramification, tensor_table
from matsplit.algebra import validate
from matsplit.cli import main
from matsplit.errors import PromiseViolation
from matsplit.exactnum import QQ, Field
from matsplit.fixtures import quaternion_table
from matsplit.serialize import algebra_to_json, result_to_json, verify_result_json
from matsplit.splitter import SplitConfig, _bounded_unimodular, instance_from_base_change, split

FIELDS = {"Q": 0, "gauss": 1, "eisenstein": 3}
# split over Q: (-1, 2), (-2, 3); over Q(i) 6 of 12 and over Q(sqrt(-3)) 8 of 12
PAIRS = [(-1, -1), (-1, 3), (-1, 2), (-2, 3), (-2, -5), (3, 5), (5, 7), (-1, -7), (2, 5),
         (7, -10), (6, 7), (10, -7)]
OVER_Q = "Berge-Martinet bound|Kitaoka's theorem"


def _scrambled(table, seed):
    rows = _bounded_unimodular(table.m, 3, table.field, random.Random(seed))
    return instance_from_base_change(table, rows, table.field).table


def _check(table, splits, refusal):
    if splits:
        res = split(table, SplitConfig(seed=1))
        assert res.stats.nodes_visited == 1
        assert verify_result_json(result_to_json(res, table)) == []
    else:
        with pytest.raises(PromiseViolation, match=refusal):
            split(table, SplitConfig(seed=1))


class TestHilbertOracle:
    def test_known_ramification(self):
        assert ramification(-1, -1) == {2, INF}
        assert ramification(-3, -1) == {3, INF}
        assert ramification(-1, 3) == {2, 3}
        assert ramification(-1, 2) == ramification(1, 7) == set()

    def test_product_formula(self):
        # (a, b)_v = -1 at an even number of places
        for a in range(-30, 31):
            for b in range(-30, 31):
                if a and b:
                    assert len(ramification(a, b)) % 2 == 0, (a, b)

    def test_symbols_are_symmetric_and_square_free(self):
        for p in (2, 3, 5, 7, INF):
            for a, b in [(-2, 5), (6, -7), (3, 12)]:
                assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
                assert hilbert_symbol(a * 4, b * 9, p) == hilbert_symbol(a, b, p)
            assert hilbert_symbol(5, -5, p) == 1  # (a, -a) = 1

    def test_tensor_table_is_an_algebra(self):
        table = tensor_table(quaternion_table(-1, -1), quaternion_table(-3, -1))
        assert table.m == 16
        assert validate(table) == []


class TestQuaternionAlgebras:
    def test_the_slice_holds_both_outcomes(self):
        for d in FIELDS.values():
            outcomes = {quaternion_splits(a, b, d) for a, b in PAIRS}
            assert outcomes == {True, False}

    @pytest.mark.parametrize("a,b", PAIRS)
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_the_promise_follows_the_hilbert_symbols(self, name, a, b):
        d = FIELDS[name]
        field = Field(d) if d else QQ
        table = _scrambled(quaternion_table(a, b, field), abs(a * b) + d)
        if d:
            refusal = "Coulangeon's theorem"
        elif INF in ramification(a, b):
            refusal = "no real eigenvalues"
        else:
            refusal = OVER_Q
        _check(table, quaternion_splits(a, b, d), refusal)


class TestTensorProducts:
    # B (x) B' over Q, promised as M_4(Q): split exactly when B and B' ramify
    # at the same places; each product is split at infinity, as both factors
    # ramify there, so the search decides
    CASES = [((-1, -1), (-3, -1)), ((-1, -1), (-1, -1))]

    @pytest.mark.parametrize("first,second", CASES, ids=["H(x)(-3,-1)", "H(x)H"])
    def test_the_promise_follows_the_ramification(self, first, second):
        table = _scrambled(tensor_table(quaternion_table(*first), quaternion_table(*second)), 1)
        _check(table, ramification(*first) == ramification(*second), OVER_Q)

    def test_the_non_split_product_exits_2_through_the_cli(self):
        table = _scrambled(tensor_table(quaternion_table(-1, -1), quaternion_table(-3, -1)), 1)
        text = json.dumps(algebra_to_json(table))
        result = CliRunner().invoke(main, ["split", "--seed", "1"], input=text)
        assert result.exit_code == 2, result.output
        assert "Kitaoka's theorem" in result.output
