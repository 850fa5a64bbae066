"""Command line front end.

All commands emit machine-readable JSON by default; ``--human`` switches to
a readable summary.  Exit codes: 0 success, 2 promise violation (the input
is not a full matrix algebra), 3 precision or budget exhaustion, 4 bad
input, usage errors included.  MATSPLIT_SEED overrides the default seed.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click
from click.core import ParameterSource

from . import fixtures as fixture_catalog
from . import serialize, splitter
from .algebra import validate
from .errors import (
    BudgetError,
    InputError,
    MatsplitError,
    PrecisionError,
    PromiseViolation,
)
from .lattice import (
    LatticeBasis,
    berge_martinet_upper,
    c_m,
    hermite_gamma,
    lll_reduce,
    min_norm_by_matrix_rank,
    min_rank_floor,
    orthogonality_defect,
    tensor_product,
)
from .orders import maximal_order
from .quadfield import (
    FieldData,
    Surd,
    gamma_h_best_upper,
    gamma_h_kappa_upper,
    gamma_h_upper,
    kappa,
    r_lambda_upper,
    tau,
)


def _default_seed() -> int:
    env = os.environ.get("MATSPLIT_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise InputError(f"MATSPLIT_SEED must be an integer, not {env!r}") from None


def _exit_code(exc: MatsplitError) -> int:
    if isinstance(exc, PromiseViolation):
        return 2
    if isinstance(exc, (PrecisionError, BudgetError)):
        return 3
    return 4


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError, and ints past the digit limit
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _read_checked(path: str, schema: str):
    """Read JSON and reject it unless it matches the shipped schema."""
    obj = _read_json(path)
    problems = serialize.check_schema(obj, serialize.load_schema(schema))
    if problems:
        raise InputError(f"not a valid {schema} document: " + "; ".join(problems[:3]))
    return obj


def _check_valid(table, cause: Exception | None = None):
    problems = validate(table)
    if problems:
        raise InputError("invalid structure constants: " + "; ".join(problems[:3])) from cause


def _write_json(obj, path: str):
    text = json.dumps(obj, indent=2)
    if path == "-":
        click.echo(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _surd_json(s: Surd) -> dict:
    return {"symbolic": str(s), "value": float(s)}


def _random_integral_lattice(rng, rank, entry=5) -> LatticeBasis:
    while True:
        cols = [
            tuple(rng.randint(-entry, entry) for _ in range(rank)) for _ in range(rank)
        ]
        try:
            basis = LatticeBasis(cols)
            basis.integral_gso()
            return basis
        except InputError:
            continue


class _Group(click.Group):
    """Maps every command's errors to the exit codes above.

    Usage errors (unknown flag, bad choice, missing option) exit 4 like any
    other bad input: click's own code for them, 2, means a promise
    violation here.
    """

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = 4
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = 4
            raise
        except MatsplitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(_exit_code(exc))


@click.group(cls=_Group)
def main():
    """Explicit isomorphisms of full matrix algebras."""


@main.command()
@click.option("--n", "size", type=int, required=True, help="Matrix size n.")
@click.option(
    "--field",
    "field_name",
    type=click.Choice(["Q", "gauss", "eisenstein"]),
    default="Q",
    show_default=True,
)
@click.option("--height", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--output", default="-", show_default=True)
def gen(size, field_name, height, seed, output):
    """Generate a scrambled full matrix algebra as structure constants."""
    seed = _default_seed() if seed is None else seed
    inst = splitter.generate_instance(size, field_name, height, seed)
    _write_json(serialize.algebra_to_json(inst.table), output)


@main.command()
@click.option("--input", "path", default="-", show_default=True)
@click.option("--precision-bits", type=int, default=128, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--output", default="-", show_default=True)
@click.option("--human", is_flag=True)
def split(path, precision_bits, seed, output, human):
    """Find a rank-one element and an explicit isomorphism."""
    table = serialize.algebra_from_json(_read_checked(path, "algebra"))
    # a split that returns proves the table valid: its exact witness carries
    # M_n(K)'s product over.  validate runs only to explain a failure
    try:
        seed = _default_seed() if seed is None else seed
        config = splitter.SplitConfig(seed=seed, precision_bits=precision_bits)
        result = splitter.split(table, config)
        if human:
            st = result.stats
            click.echo(f"rank-one element found at Frobenius norm {st.found_norm:.6f}")
            click.echo(f"nodes={st.nodes_visited} precision={st.precision_bits} time={st.wall_time:.2f}s")
            click.echo(f"element: {[str(c) for c in result.rank_one_element.coords]}")
        else:
            _write_json(serialize.result_to_json(result, table), output)
    except Exception as exc:
        _check_valid(table, exc)
        raise


@main.command()
@click.option("--input", "path", default="-", show_default=True)
def verify(path):
    """Re-check a split result in exact arithmetic."""
    problems = serialize.verify_result_json(_read_checked(path, "result"))
    if problems:
        click.echo(json.dumps({"valid": False, "problems": problems}))
        sys.exit(2)
    click.echo(json.dumps({"valid": True}))


@main.command()
@click.option("--input", "path", default="-", show_default=True)
@click.option("--output", default="-", show_default=True)
@click.option("--human", is_flag=True)
def order(path, output, human):
    """Compute a maximal order and print its basis and discriminant."""
    table = serialize.algebra_from_json(_read_checked(path, "algebra"))
    _check_valid(table)  # maximal_order has no witness to prove the table valid
    result = maximal_order(table)
    payload = serialize.order_to_json(result)
    if human:
        click.echo(f"maximal order, discriminant {payload['discriminant']}")
        for j, col in enumerate(payload["basis"]):
            click.echo(f"b_{j}: {col}")
    else:
        _write_json(payload, output)


@main.command()
@click.option("--input", "path", default="-", show_default=True)
@click.option("--delta", default="3/4", show_default=True)
@click.option("--output", default="-", show_default=True)
def lll(path, delta, output):
    """LLL-reduce a rational lattice basis."""
    basis = serialize.lattice_from_json(_read_checked(path, "lattice"))
    reduced = lll_reduce(basis, serialize.rational_from_str(delta))
    payload = serialize.lattice_to_json(reduced)
    payload["orthogonality_defect"] = orthogonality_defect(reduced)
    payload["unimodular_history"] = [list(r) for r in reduced.unimodular_history]
    _write_json(payload, output)


@main.command()
@click.option("--input", "path", default="-", show_default=True)
@click.option("--bound", type=float, required=True, help="Norm bound.")
@click.option("--output", default="-", show_default=True)
def enumerate(path, bound, output):
    """List all short vector classes up to the bound, in norm order."""
    basis = serialize.lattice_from_json(_read_checked(path, "lattice"))
    vecs = basis.short_vectors(bound, budget=splitter.ENUMERATION_BUDGET)
    payload = {
        "count": len(vecs),
        "vectors": [
            {"coefficients": list(c), "norm": math.sqrt(float(nsq))} for c, nsq in vecs
        ],
    }
    _write_json(payload, output)


@main.command()
@click.option("--kappa", "kappa_d", type=int, default=None, help="kappa and tau for this d.")
@click.option("--gammah", type=int, default=None, help="gamma_h bounds for this d.")
@click.option("--cm", "cm_m", type=int, default=None, help="Reducedness constant c_m.")
@click.option("--hermite", type=int, default=None, help="Hermite constant gamma_n.")
@click.option("--minfloor", type=int, default=None, help="Minimal rank floor up to r.")
@click.option("--human", is_flag=True)
def constants(kappa_d, gammah, cm_m, hermite, minfloor, human):
    """Report the named constants, exactly where exact values exist."""
    out = {}
    if kappa_d is not None:
        k = kappa(kappa_d)
        out["kappa"] = _surd_json(k)
        out["tau"] = tau(kappa_d)
        out["discriminant"] = FieldData(kappa_d).discriminant
    if gammah is not None:
        out["gamma_h_upper"] = _surd_json(gamma_h_upper(gammah))
        try:
            out["gamma_h_kappa_upper"] = _surd_json(gamma_h_kappa_upper(gammah))
        except InputError:
            out["gamma_h_kappa_upper"] = None
        out["gamma_h_best_upper"] = _surd_json(gamma_h_best_upper(gammah))
        out["r_lambda_upper"] = float(r_lambda_upper(gammah))
    if cm_m is not None:
        out["c_m"] = c_m(cm_m)
    if hermite is not None:
        value, exact = hermite_gamma(hermite)
        out["hermite_gamma"] = {"value": value, "exact": exact}
        out["berge_martinet_upper"] = berge_martinet_upper(hermite)
    if minfloor is not None:
        value, argmin = min_rank_floor(minfloor)
        out["min_rank_floor"] = {"value": value, "argmin_rank": argmin}
    if not out:
        out["hermite_table"] = {
            str(nn): hermite_gamma(nn)[0] for nn in (1, 2, 3, 4, 5, 6, 7, 8, 24)
        }
    if human:
        for key, val in out.items():
            click.echo(f"{key}: {val}")
    else:
        click.echo(json.dumps(out, indent=2))


@main.command("tensor-experiment")
@click.option("--left", default="A2", show_default=True, help="Left lattice fixture name.")
@click.option("--right", default="A2-dual", show_default=True)
@click.option("--bound", type=float, default=1.5, show_default=True)
@click.option("--random", "randomize", is_flag=True, help="Use a random integral pair instead.")
@click.option("--rankmax", type=int, default=4, show_default=True,
              help="Rank cap for --random lattices, 2 to 8.")
@click.option("--seed", type=int, default=None)
@click.option("--human", is_flag=True)
def tensor_experiment(left, right, bound, randomize, rankmax, seed, human):
    """Minimal tensor norms by matrix rank, with the rank floor audit."""
    ctx = click.get_current_context()
    given = [
        f"--{name}"
        for name in ("left", "right", "bound", "rankmax")
        if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT
    ]
    if randomize:
        import random as random_mod

        clash = [flag for flag in given if flag != "--rankmax"]
        if clash:
            raise InputError(f"--random draws its own lattices and bound; drop {', '.join(clash)}")
        # the floor audit needs the exact gamma_r, known up to r = 8
        if not 2 <= rankmax <= 8:
            raise InputError("rankmax must be between 2 and 8")
        rng = random_mod.Random(_default_seed() if seed is None else seed)
        lat_l = _random_integral_lattice(rng, rng.randint(2, rankmax))
        lat_r = _random_integral_lattice(rng, rng.randint(2, rankmax))
        reduced = lll_reduce(tensor_product(lat_l, lat_r))
        bound = 1.2 * min(
            math.sqrt(float(reduced.norm_sq(j))) for j in range(reduced.rank)
        )
    else:
        if "--rankmax" in given:
            raise InputError("--rankmax needs --random")
        kind_l, lat_l = fixture_catalog.fixture(left)
        kind_r, lat_r = fixture_catalog.fixture(right)
        if kind_l != "lattice" or kind_r != "lattice":
            raise InputError("tensor-experiment needs lattice fixtures")
    report = min_norm_by_matrix_rank(lat_l, lat_r, bound)
    payload = {
        "lambda1": report.lambda1,
        "min_norm_by_rank": {str(r): report.min_norm(r) for r in sorted(report.min_norm_sq_by_rank)},
        "floor_violations": len(report.floor_violations),
        "enumerated": report.enumerated,
    }
    if human:
        click.echo(f"lambda1 = {payload['lambda1']:.9f}")
        for r, v in payload["min_norm_by_rank"].items():
            click.echo(f"min norm at matrix rank {r}: {v:.9f}")
        click.echo(f"floor violations: {payload['floor_violations']}")
    else:
        click.echo(json.dumps(payload, indent=2))


@main.command()
@click.option("--name", required=True)
@click.option("--output", default="-", show_default=True)
def fixture(name, output):
    """Dump a named fixture as JSON."""
    kind, obj = fixture_catalog.fixture(name)
    if kind == "algebra":
        payload = serialize.algebra_to_json(obj)
    elif kind == "order":
        payload = serialize.order_to_json(obj)
    elif kind == "lattice":
        payload = serialize.lattice_to_json(obj)
    elif kind == "matrix":
        payload = {"field": serialize.field_to_json(obj.field), "entries": serialize.matrix_to_json(obj)}
    else:
        raise InputError(f"unknown fixture kind {kind}")
    _write_json(payload, output)


if __name__ == "__main__":
    main()
