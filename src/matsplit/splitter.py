"""The split pipeline: one algorithm, one search.

Maximal order, numerical embedding, rational approximation and LLL are
shared by every field, and so is the search: only the minimal-norm class
of the embedded order needs testing (over Q(i) and Q(sqrt(-3)) the order
embeds into R^8).  Floating point steers the search; every accepted answer
is verified in exact arithmetic.
"""

from __future__ import annotations

import math
import operator
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    AlgebraElement,
    IsomorphismWitness,
    StructureConstants,
    _build_isomorphism,
    _combination,
    _int_ideal_rank,
    _omega_times,
    _restricted_gamma,
    matrix_units_table,
)
from .embed import _zbasis_columns, embed_order, rationalize, split_numeric
from .errors import InputError, PrecisionError, PromiseViolation
from .exactnum import ExactMatrix, Field, QQ
from .lattice import _lowest_terms, berge_martinet_upper, lll_reduce
from .orders import Order, maximal_order

MAX_RATIONAL_SIZE = 43
MAX_PRECISION_BITS = 4096  # the numerical stage doubles its precision up to this
ENUMERATION_BUDGET = 10**6  # nodes per short-vector listing


@dataclass
class SplitConfig:
    seed: int = 0
    precision_bits: int = 128

    def __post_init__(self):
        if self.precision_bits < 64:
            raise InputError("precision_bits must be at least 64")
        if self.precision_bits > MAX_PRECISION_BITS:
            raise InputError(f"precision_bits {self.precision_bits} exceeds {MAX_PRECISION_BITS}")


@dataclass
class SplitStats:
    """What a split measured: nodes_visited rank tests in a minimal class of
    minimal_class_size vectors, cut at norm_bound."""

    precision_bits: int
    nodes_visited: int
    found_norm: float
    norm_bound: float
    disc_trace: list
    wall_time: float
    minimal_class_size: int


@dataclass
class SplitResult:
    rank_one_element: AlgebraElement
    witness: IsomorphismWitness
    stats: SplitStats


def split(
    table: StructureConstants,
    config: SplitConfig | None = None,
    order: Order | None = None,
) -> SplitResult:
    """Rank-one element and explicit isomorphism A -> M_n(K).

    K = Q needs n <= 43; K = Q(i) or Q(sqrt(-3)) needs n = 2.  The search
    rank-tests the minimal-norm class for every field.  The numerical stage
    is retried at doubled precision up to MAX_PRECISION_BITS.  ``order``
    skips the maximal order computation (and leaves ``disc_trace`` empty).
    """
    config = config or SplitConfig()
    field = table.field
    n = table.n  # raises InputError for non-square dimension
    if field.is_rational:
        if n > MAX_RATIONAL_SIZE:
            raise InputError(
                f"n = {n} exceeds {MAX_RATIONAL_SIZE}; minimal vectors are "
                "no longer guaranteed to have rank one"
            )
    else:
        if field.d not in (1, 3):
            raise InputError("the quadratic-field pipeline needs d = 1 or d = 3")
        if n != 2:
            raise InputError("the quadratic-field pipeline is for 2x2 algebras")
    table._integral_identity()
    start = time.monotonic()
    disc_trace: list = []
    if order is None:
        order = maximal_order(table, disc_trace=disc_trace)
    precision = config.precision_bits
    while True:
        try:
            emb = split_numeric(table, order, precision, seed=config.seed)
            break
        except PrecisionError:
            if 2 * precision > MAX_PRECISION_BITS:
                raise
            precision *= 2
    embedded = embed_order(emb, order)
    q = 2 ** max(48, precision // 2)  # 1 / q below is int / int: q >= 2^1024 has no float value
    reduced = lll_reduce(rationalize(embedded, q))
    slack = 2.0 ** (-(precision // 4))
    pert = (float(embedded.error_radius) + 1 / q) * reduced.rank
    # lift maps enumeration coefficients over the reduced basis to the
    # (1, omega) coordinates of the element they name times D, as ints: the
    # z-basis is Order._int's columns over D = its den, so the vectors feed
    # _int_ideal_rank and, in lowest terms, _build_isomorphism directly
    Z, D, history = _zbasis_columns(order), order._int[0], reduced.unimodular_history

    def lift(coeffs: Sequence[int]) -> list[int]:
        return _combination([sum(map(operator.mul, h, coeffs)) for h in history], Z)

    v, nsq, nodes, cut, class_size = _search_minimal_class(table, reduced, lift, slack, pert)
    v = max(_unit_multiples(field, v))  # C up to units: the greatest coordinates win
    (v,), D = _lowest_terms([v], D)
    witness = _build_isomorphism(table, v, D)
    return SplitResult(
        rank_one_element=witness.rank_one_element,
        witness=witness,
        stats=SplitStats(
            precision_bits=precision,
            nodes_visited=nodes,
            found_norm=math.sqrt(float(nsq)),
            norm_bound=cut,
            disc_trace=disc_trace,
            wall_time=time.monotonic() - start,
            minimal_class_size=class_size,
        ),
    )


def _unit_multiples(field: Field, v: list) -> list:
    """u v on (1, omega) coordinates for every unit u of O_K: +-1 over Q,
    omega^k over Q(i) (k < 4) and Q(sqrt(-3)) (k < 6)."""
    if field.is_rational:
        return [v, [-x for x in v]]
    out, t = [v], int(field.has_half_integers)  # omega^2 = t omega - 1
    for _ in range(5 if t else 3):
        out.append(_omega_times(out[-1], t))
    return out


def split_over_Q(
    table: StructureConstants,
    config: SplitConfig | None = None,
    order: Order | None = None,
) -> SplitResult:
    """``split`` for an algebra over Q."""
    if not table.field.is_rational:
        raise InputError("split_over_Q needs an algebra over Q")
    return split(table, config, order)


def split_imag_quad(
    table: StructureConstants,
    config: SplitConfig | None = None,
    order: Order | None = None,
) -> SplitResult:
    """``split`` for a 2x2 algebra over Q(i) or Q(sqrt(-3))."""
    if table.field.is_rational:
        raise InputError("split_imag_quad needs d = 1 or d = 3")
    return split(table, config, order)


def _search_minimal_class(table, reduced, lift, slack, pert):
    """The minimal-norm class, rank-tested exactly in norm-then-lex order; the
    first rank-one element wins.

    Reads the reduced basis, whose listing walks the GSO data kept from the
    LLL certificate, and returns the lifted vector of a rank-one element, its
    squared norm, the rank tests made, the class cut and the class size, or
    raises PromiseViolation.

    A splitting phi maps the maximal order Lambda onto End(L) = L (x) L* for
    a lattice L of K^n (O_K has class number one): phi(Lambda) = g M_n(O_K)
    g^-1 with L = g O_K^n, L* = g^-H O_K^n and x (x) y = x y^H.  As
    tr((x y^H)(x' y'^H)^H) = (x'^H x)(y^H y'), phi(Lambda) is isometric to
    L (x) L* under the Frobenius norm.  Its minimal vectors are split, so of
    rank one: all of them over Q for n <= 43 (Kitaoka), some of them for
    n = 2 over Q(i) and all over Q(sqrt(-3)) (Coulangeon).  With min the
    least squared norm, as in Bergé-Martinet, min(phi Lambda) <= min L
    min L* <= gamma'_n^2 <= gamma_n^2, as min L <= gamma_n det(L)^(1/n) and
    det(L) det(L*) = 1.  So the found *norm* is at most gamma'_n <= gamma_n,
    which caps the listing over Q; the cap is on the norm, not its square:
    Q n = 2, seed 2 finds 1.0761 > sqrt(gamma_2) = 1.0746.

    The class cut is in norm units like pert, the rank times the per-entry
    allowance 1/q plus the embedding's error radius of the rationalized
    basis (the listing bound adds it to a norm); the slack covers the float
    rounding.  pert is not a proven bound on how far a listed norm moves:
    it leaves out the unimodular history U and sqrt(dim), and Q n = 2, seed
    25 moves a reduced basis vector by 1991 pert (ROADMAP item 2, Step A, replaces it
    with a bound that holds).  Were pert such a bound, the unperturbed
    minimum mu would be at most sqrt(lam_sq) + pert, lam_sq the first listed
    squared norm, so a vector of norm mu would list at most
    sqrt(lam_sq) + 2 pert, and the cut sqrt(lam_sq) (1 + slack) + 2 pert,
    the reported norm_bound, would keep every listed vector whose
    unperturbed norm may be the minimum.
    """
    n = table.n
    # the listing reaches the shortest basis vector, so only the cap over Q
    # can leave it empty; the bound is raised until its exact square reaches
    # that vector's, as from 256 bits on 1 + slack rounds to 1.0
    shortest = min(map(reduced.norm_sq, range(reduced.rank)))
    bound = math.sqrt(float(shortest)) * (1 + slack) + pert
    while Fraction(bound) ** 2 < shortest:
        bound = math.nextafter(bound, math.inf)
    if table.field.is_rational:
        bound = min(bound, berge_martinet_upper(n) * (1 + slack) + pert)
    vecs = reduced.short_vectors(bound, budget=ENUMERATION_BUDGET)
    if not vecs:
        raise PromiseViolation(
            f"no vector of the embedded maximal order has norm within the Berge-Martinet "
            f"bound gamma'_{n} <= {berge_martinet_upper(n):.6g} (plus the rounding "
            f"allowance); a split algebra has one, so the algebra is not M_{n}(Q)"
        )
    cut = math.sqrt(float(vecs[0][1])) * (1 + slack) + 2 * pert
    # norms, not squares: the first vector's float norm never exceeds the cut
    minimal_class = [cv for cv in vecs if math.sqrt(float(cv[1])) <= cut]
    for nodes, (coeffs, nsq) in enumerate(minimal_class, 1):
        v = lift(coeffs)
        if _int_ideal_rank(table, v, n) == 1:
            return v, nsq, nodes, cut, len(minimal_class)
    theorem = "Kitaoka's theorem" if table.field.is_rational else "Coulangeon's theorem"
    raise PromiseViolation(
        f"none of the {len(minimal_class)} vectors of the minimal class (norm within the "
        f"class cut {cut:.6g}) has rank one; by {theorem} a split algebra has one"
    )


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------


@dataclass
class GeneratedInstance:
    table: StructureConstants
    base_change: ExactMatrix  # columns are a-basis coordinates of the new basis
    field: Field

    def hidden_matrix(self, coords: Sequence) -> ExactMatrix:
        """Image of an element (coords in the generated basis) as an exact
        matrix over the base field, through the recorded base change."""
        acoords = self.base_change.mul_vector(coords)
        n = self.table.n
        rows = [[acoords[i * n + j] for j in range(n)] for i in range(n)]
        return ExactMatrix(self.field, rows)


def _small_field_elements(field: Field):
    if field.is_rational:
        return [Fraction(c) for c in (-2, -1, 1, 2)]
    out = []
    omega = field.omega()
    for u in (-1, 0, 1):
        for v in (-1, 0, 1):
            if u or v:
                out.append(field.coerce(u) + field.coerce(v) * omega)
    return out


def _height(x) -> int:
    from .exactnum import QuadScalar

    if isinstance(x, QuadScalar):
        f = [abs(x.a), abs(x.b), abs(x.a - x.b), abs(2 * x.b)]
        return int(max(math.ceil(v) for v in f))
    return int(math.ceil(abs(Fraction(x))))


def _bounded_unimodular(m: int, height: int, field: Field, rng: random.Random):
    """Random unimodular matrix (rows) with entry heights within the bound."""
    rows = [[field.one() if i == j else field.zero() for j in range(m)] for i in range(m)]
    elems = _small_field_elements(field)
    ops = 0
    attempts = 0
    target_ops = 3 * m
    while ops < target_ops and attempts < 40 * m:
        attempts += 1
        i, j = rng.randrange(m), rng.randrange(m)
        if i == j:
            continue
        c = elems[rng.randrange(len(elems))]
        cand = [rows[i][t] + c * rows[j][t] for t in range(m)]
        if max(_height(x) for x in cand) <= height:
            rows[i] = cand
            ops += 1
    if rng.random() < 0.5:
        i, j = rng.randrange(m), rng.randrange(m)
        if i != j:
            rows[i], rows[j] = rows[j], rows[i]
    return rows


def _scale_element(field: Field, rng: random.Random):
    if field.is_rational:
        return field.coerce(rng.choice([1, 1, 2, 3]))
    if field.d == 1:
        # norm 1 or 2 scalings keep discriminants smooth
        return rng.choice([field.one(), field.coerce(1) + field.omega()])
    omega = field.omega()
    return rng.choice([field.one(), omega + omega - field.one()])  # 1 or sqrt(-3)


def generate_instance(
    n: int,
    field: Field | str = QQ,
    height_bound: int = 10,
    seed: int = 0,
) -> GeneratedInstance:
    """Scrambled full matrix algebra instance with a recorded base change.

    Starts from the matrix-unit table, applies a seeded invertible base
    change built from height-bounded unimodular operations and one small
    scaling (so discriminants stay smooth), and recomputes the structure
    constants exactly.  ``height_bound = 0`` returns the standard table.
    """
    if isinstance(field, str):
        field = {"Q": QQ, "gauss": Field(1), "eisenstein": Field(3)}.get(field) or _bad_field(field)
    if n < 1:
        raise InputError("n must be positive")
    table = matrix_units_table(n, field)
    m = n * n
    if height_bound == 0:
        return GeneratedInstance(
            table=table,
            base_change=ExactMatrix.identity(field, m),
            field=field,
        )
    if height_bound < 0:
        raise InputError("height bound must be nonnegative")
    rng = random.Random(seed)
    rows = _bounded_unimodular(m, max(1, height_bound), field, rng)
    s = _scale_element(field, rng)
    if _height(s) > 1:
        # scale the last row, respecting the height bound
        scaled = [s * x for x in rows[m - 1]]
        if max(_height(x) for x in scaled) <= height_bound:
            rows[m - 1] = scaled
    return instance_from_base_change(table, rows, field)


def _bad_field(name):
    raise InputError(f"unknown field {name!r}; use Q, gauss or eisenstein")


def instance_from_base_change(
    table: StructureConstants, rows: Sequence[Sequence], field: Field
) -> GeneratedInstance:
    """Instance whose basis is b_i = sum_j rows[i][j] a_j over a given table."""
    # columns of M are the a-coordinates of the new basis; Order multiplies
    # any basis on ints, in its own coordinates: N[i][j] / s holds b_i b_j
    # in (1, omega) coordinates on b_1..b_m for i, j < m
    M = ExactMatrix(field, [list(col) for col in zip(*rows)])
    N, s = Order(table, M)._product_numerators()
    m = table.m
    products = [v for row in N[:m] for v in row[:m]]
    # the u parts of the products, then over Q(i) and Q(sqrt(-3)) the v parts
    flat = [x for part in range(0, len(products[0]), m) for v in products for x in v[part:part + m]]
    (flat,), d = _lowest_terms([flat], s)
    new_table = StructureConstants._of_ints(field, _restricted_gamma(field, m, flat), d)
    return GeneratedInstance(table=new_table, base_change=M, field=field)
