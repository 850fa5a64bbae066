"""The four workloads: inputs made from a seed, and one timed solve each.

Every timed solve starts from JSON text, so object-level caches of the
program (identity and left matrices of a table, an order's discriminant)
never carry over from one repetition to the next.  Only public names of
matsplit are called, and always through their module, so a traced run sees
every call.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

from matsplit import algebra, embed, lattice, orders, serialize, splitter

import check

HEIGHT = 10
LATTICE_DENOMINATOR = 2**64
LATTICE_PRECISION_BITS = 128


class BenchFailure(Exception):
    """An output that the program or the benchmark's own check rejects."""


@dataclass(frozen=True)
class Spec:
    """What to generate: the algebra's size, field and generator seed."""

    n: int
    field: str
    seed: int


@dataclass
class Instance:
    spec: Spec
    text: str  # the JSON the program is given
    order_text: str | None = None  # the supplied maximal order, q-given-order only


@dataclass
class Outcome:
    verify_s: float
    output: object  # what the independent check inspects
    counts: dict  # per-layer counts that must repeat for a given seed


def _algebra_text(spec: Spec) -> tuple[str, object]:
    inst = splitter.generate_instance(spec.n, spec.field, HEIGHT, spec.seed)
    return json.dumps(serialize.algebra_to_json(inst.table)), inst


def _hidden_order(inst) -> orders.Order:
    """The image of M_n(Z) under the instance's recorded base change."""
    return orders.Order(inst.table, inst.base_change.inverse())


def _split_counts(stats: dict, result_bytes: int) -> dict:
    """Per-layer counts that repeat exactly for a given input."""
    disc_trace = [int(x) for x in stats["disc_trace"]]
    return {
        "orders.primes_saturated": max(0, len(disc_trace) - 1),
        "orders.disc_bits": disc_trace[0].bit_length() if disc_trace else 0,
        "embed.precision_bits": stats["precision_bits"],
        "splitter.nodes_visited": stats["nodes_visited"],
        "splitter.minimal_class_size": stats["minimal_class_size"] or 0,
        "serialize.result_bytes": result_bytes,
    }


def _digest(output) -> int:
    """A stand-in for an output, so repetitions are compared without keeping
    every output alive (which would inflate peak memory)."""
    return hash(repr(output))


class Workload:
    """A pool of instances whose (n, field) pairs repeat ``cycle`` in order.

    ``warm`` is the small instance solved once during set-up.  A pool that
    is a multiple of four cycles keeps the set-up chunks alike.
    """

    def __init__(self, name: str, pool: int, cycle, warm: Spec):
        self.name = name
        self.pool = pool
        self.cycle = cycle
        self.warm = warm

    def specs(self, seed: int, smoke: bool) -> list[Spec]:
        """Instance seeds are ``1000 * seed + i``; smoke mode keeps one n=2 instance."""
        base = seed * 1000
        if smoke:
            return [Spec(2, self.cycle[0][1], base)]
        return [Spec(*self.cycle[i % len(self.cycle)], base + i) for i in range(self.pool)]


class SplitWorkload(Workload):
    """parse -> validate -> split -> result_to_json, then verify_result_json."""

    def build(self, spec: Spec) -> Instance:
        text, _ = _algebra_text(spec)
        return Instance(spec, text)

    def _split(self, table, inst: Instance):
        problems = algebra.validate(table)
        if problems:
            raise BenchFailure("validate rejected a generated algebra: " + problems[0])
        config = splitter.SplitConfig(seed=inst.spec.seed)
        if table.field.is_rational:
            return splitter.split_over_Q(table, config)
        return splitter.split_imag_quad(table, config)

    def solve(self, inst: Instance) -> Outcome:
        table = serialize.algebra_from_json(json.loads(inst.text))
        result = self._split(table, inst)
        text = json.dumps(serialize.result_to_json(result, table))
        obj = json.loads(text)
        start = time.perf_counter()
        problems = serialize.verify_result_json(obj)
        verify_s = time.perf_counter() - start
        if problems:
            raise BenchFailure("verify_result_json: " + problems[0])
        return Outcome(verify_s, obj, _split_counts(obj["stats"], len(text)))

    def check(self, inst: Instance, out: Outcome) -> list[str]:
        return check.check_split(inst.text, out.output)

    @staticmethod
    def fingerprint(out: Outcome) -> int:
        obj = dict(out.output)
        obj["stats"] = {k: v for k, v in obj["stats"].items() if k != "wall_time"}
        return _digest(obj)


class GivenOrderWorkload(SplitWorkload):
    """The maximal order is supplied, so no validate and no order saturation."""

    def build(self, spec: Spec) -> Instance:
        text, inst = _algebra_text(spec)
        order = _hidden_order(inst)
        problems = order.verify()
        if problems:
            raise BenchFailure("supplied order is not an order: " + problems[0])
        cols = [order.basis_matrix.column(j) for j in range(inst.table.m)]
        order_text = json.dumps({"basis": [serialize.vector_to_json(c) for c in cols]})
        return Instance(spec, text, order_text)

    def _split(self, table, inst: Instance):
        order = serialize.order_from_json(table, json.loads(inst.order_text))
        config = splitter.SplitConfig(seed=inst.spec.seed)
        return splitter.split_over_Q(table, config, order=order)


def first_rung(norms_sq) -> float:
    """The splitter's first enumeration bound at the default 128 bits.

    It is the norm of the shortest reduced basis vector, widened by the
    slack 2^-32, without the embedding's perturbation term.  A fixed bound
    such as berge_martinet_upper(n) is no use here: the embedded lattices
    are not normalized, so the listing up to it is heavy-tailed (one pool
    of 40 rank-9 lattices held one that made a pass take 11.7 s and the
    process 199 MB).
    """
    return math.sqrt(float(min(norms_sq))) * (1 + 2.0**-32)


class LatticeWorkload(Workload):
    """lattice_from_json -> lll_reduce -> short_vectors, then lattice_equal."""

    def build(self, spec: Spec) -> Instance:
        """Embed the hidden maximal order as the splitter does, at 2^64."""
        inst = splitter.generate_instance(spec.n, spec.field, HEIGHT, spec.seed)
        order = _hidden_order(inst)
        emb = embed.split_numeric(inst.table, order, LATTICE_PRECISION_BITS, seed=spec.seed)
        basis = embed.rationalize(embed.embed_order(emb, order), LATTICE_DENOMINATOR)
        return Instance(spec, json.dumps(serialize.lattice_to_json(basis)))

    def solve(self, inst: Instance) -> Outcome:
        basis = serialize.lattice_from_json(json.loads(inst.text))
        reduced = lattice.lll_reduce(basis)
        gram = reduced.gram()
        vecs = lattice.short_vectors(gram, first_rung([gram[i][i] for i in range(len(gram))]))
        start = time.perf_counter()
        same = lattice.lattice_equal(basis, reduced)
        verify_s = time.perf_counter() - start
        if not same:
            raise BenchFailure("lattice_equal: the reduced basis spans another lattice")
        return Outcome(verify_s, (reduced.columns, vecs), {})

    def check(self, inst: Instance, out: Outcome) -> list[str]:
        columns, vecs = out.output
        bound = first_rung([sum(x * x for x in col) for col in columns])
        return check.check_lattice(inst.text, columns, vecs, bound)

    @staticmethod
    def fingerprint(out: Outcome) -> int:
        return _digest(out.output)


WORKLOADS = {
    w.name: w
    for w in (
        SplitWorkload("q-split", 20, [(3, "Q")], Spec(2, "Q", -1)),
        SplitWorkload("quad-split", 24, [(2, "gauss"), (2, "eisenstein")], Spec(2, "gauss", -1)),
        GivenOrderWorkload("q-given-order", 32, [(3, "Q")], Spec(2, "Q", -1)),
        LatticeWorkload("lattice-enum", 40, [(3, "Q")], Spec(2, "Q", -1)),
    )
}
