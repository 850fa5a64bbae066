"""Rational lattices: LLL, duals, constants, enumeration, tensor products.

All lattice data is exact.  A basis keeps its columns as integers over one
common denominator, in lowest terms, and every kernel works on those
integers and on the integral Gram-Schmidt data (d, lambda) of their Gram
matrix (Cohen, GTM 138, 2.6): LLL runs the classical d/lambda bookkeeping
and certifies its output on the output's own data, which the basis keeps
for its enumeration, and lattice equality is one fraction-free forward
elimination with an exact back substitution.  The kernels that make a basis
(LLL, rationalization, the JSON reader, duals and tensor products) hand
their integers straight to it, so no Fraction is built unless the columns
are read.  The Hermite constant table carries the nine dimensions with
known exact values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .algebra import _integral_rows
from .errors import EnumerationBudgetError, InputError, InternalError
from .exactnum import int_det, int_forward, int_inverse, int_rank

Vec = tuple[Fraction, ...]


def _fracv(v) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in v)


def _lowest_terms(ints: Sequence[Sequence[int]], den: int) -> tuple[list, int]:
    """The int columns and den != 0 divided by their common gcd, sign into den > 0.

    The columns ints[j] / den are then in lowest terms, as LatticeBasis._of_ints takes them.
    """
    g = math.gcd(den, *chain.from_iterable(ints))
    if den < 0:
        g = -g
    if g == 1:
        return ints, den
    return [[x // g for x in col] for col in ints], den // g


class LatticeBasis:
    """Basis of a rational lattice, columns plus the transform that made it.

    The columns are kept as integer tuples ``_ints`` over their one common
    denominator ``_den``, in lowest terms: den > 0 and gcd(all ints, den) = 1,
    so every basis has one such form.  The kernels work on those integers.
    ``columns`` gives the columns as Fraction tuples; a basis made by
    LatticeBasis._of_ints builds them on first read and keeps them.
    """

    __slots__ = (
        "ambient_dim", "rank", "unimodular_history", "_ints", "_den",
        "_columns",  # the Fraction columns, built on first read and kept
        "_gso",  # integral_gso(), computed on first use and kept
    )

    def __init__(self, columns: Sequence[Sequence], unimodular_history=None):
        cols = [_fracv(c) for c in columns]
        if not cols:
            raise InputError("empty basis")
        dim = len(cols[0])
        if any(len(c) != dim for c in cols):
            raise InputError("ragged basis columns")
        ints, den = _integral_rows(cols)
        self._set(ints, den, unimodular_history)
        object.__setattr__(self, "_columns", tuple(cols))

    @classmethod
    def _of_ints(cls, ints: Sequence[Sequence[int]], den: int, unimodular_history=None) -> "LatticeBasis":
        """The basis with columns ints[j] / den, building no Fraction.

        The caller hands the columns over in lowest terms, den > 0 and
        gcd(all ints, den) = 1 (``_lowest_terms`` makes them so), and not
        empty or ragged.
        """
        self = cls.__new__(cls)
        self._set(ints, den, unimodular_history)
        object.__setattr__(self, "_columns", None)
        return self

    def _set(self, ints, den: int, unimodular_history):
        rank = len(ints)
        object.__setattr__(self, "ambient_dim", len(ints[0]))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_ints", tuple(map(tuple, ints)))
        object.__setattr__(self, "_den", den)
        if unimodular_history is None:
            unimodular_history = [[int(i == j) for j in range(rank)] for i in range(rank)]
        object.__setattr__(self, "unimodular_history", tuple(tuple(r) for r in unimodular_history))
        object.__setattr__(self, "_gso", None)

    def __setattr__(self, *args):
        raise AttributeError("LatticeBasis is immutable")

    @property
    def columns(self) -> tuple[Vec, ...]:
        """The columns as Fraction tuples."""
        if self._columns is None:
            den = self._den
            object.__setattr__(self, "_columns", tuple(
                tuple(Fraction(x, den) for x in col) for col in self._ints))
        return self._columns

    def int_gram(self) -> list[list[int]]:
        """Gram matrix of the integer columns: gram() times the denominator squared."""
        cols, k = self._ints, self.rank
        g = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                g[i][j] = g[j][i] = sum(map(operator.mul, cols[i], cols[j]))
        return g

    def integral_gso(self) -> tuple[list[list[int]], list[int]]:
        """integral_gso(int_gram()), computed once; callers must not mutate it."""
        if self._gso is None:
            object.__setattr__(self, "_gso", integral_gso(self.int_gram()))
        return self._gso

    def short_vectors(self, norm_bound, budget: int | None = None):
        """short_vectors(gram(), norm_bound, budget), walked on the kept GSO data."""
        bound_sq = _norm_bound_sq(norm_bound)
        return _walk(*self.integral_gso(), self._den**2, bound_sq, budget)

    def gram(self) -> list[list[Fraction]]:
        den_sq = self._den**2
        return [[Fraction(x, den_sq) for x in row] for row in self.int_gram()]

    def norm_sq(self, j: int) -> Fraction:
        col = self._ints[j]
        return Fraction(sum(map(operator.mul, col, col)), self._den**2)

    def det_sq(self) -> Fraction:
        """Square of the lattice determinant (Gram determinant)."""
        return Fraction(int_det(self.int_gram()), self._den ** (2 * self.rank))

    def vector(self, coeffs: Sequence[int]) -> Vec:
        out = [0] * self.ambient_dim
        for c, col in zip(coeffs, self._ints):
            if c:
                out = [a + c * b for a, b in zip(out, col)]
        return tuple(Fraction(x, self._den) for x in out)

    def __repr__(self):
        return f"LatticeBasis(rank={self.rank}, dim={self.ambient_dim})"


def integral_gso(gram: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Integral Gram-Schmidt data (lam, d) of a positive definite integer Gram.

    d[i] is the Gram determinant of the first i vectors (d[0] = 1) and
    lam[i][j] = d[j+1] mu_ij, all integers (Cohen, GTM 138, 2.6.3); the
    squared star norms are D_i = d[i+1] / d[i].
    """
    k = len(gram)
    lam = [[0] * k for _ in range(k)]
    d = [1] + [0] * k
    for i in range(k):
        _init_row(i, lambda a, b: gram[a][b], lam, d)
        if d[i + 1] <= 0:
            raise InputError("Gram matrix is not positive definite")
    return lam, d


# -- LLL ---------------------------------------------------------------------


def lll_reduce(basis: LatticeBasis, delta: Fraction = Fraction(3, 4)) -> LatticeBasis:
    """LLL-reduced basis of the same lattice, with certified output.

    Runs the integer d/lambda variant on the integer columns, carrying the
    accumulated unimodular transform along, and then verifies size reduction
    and the Lovasz condition exactly before returning.  The output keeps the
    input's denominator: a unimodular transform U keeps the content (the gcd
    of all entries) of the integer basis matrix C, since the content of C
    divides that of C U and the content of C U divides that of C U U^-1 = C,
    so the reduced columns over that denominator are still in lowest terms.
    """
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise InputError("delta must lie strictly between 1/4 and 1")
    n = basis.rank
    scale = basis._den
    cols = [list(col) for col in basis._ints]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def g(i, j):
        return sum(a * b for a, b in zip(cols[i], cols[j]))

    lam = [[0] * n for _ in range(n)]
    d = [0] * (n + 1)
    d[0] = 1

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = _round_ratio(lam[k][l], d[l + 1])
            cols[k] = [a - q * b for a, b in zip(cols[k], cols[l])]
            U[k] = [a - q * b for a, b in zip(U[k], U[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k = 1
    k_max = 0
    _init_row(0, g, lam, d)
    if not d[1]:
        raise InputError("dependent basis vectors")
    while k < n:
        if k > k_max:
            k_max = k
            _init_row(k, g, lam, d)
            if not d[k + 1]:
                raise InputError("dependent basis vectors")
        red(k, k - 1)
        p, q = delta.numerator, delta.denominator
        if q * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < p * d[k] ** 2:
            # swap b_k and b_{k-1}
            cols[k], cols[k - 1] = cols[k - 1], cols[k]
            U[k], U[k - 1] = U[k - 1], U[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            lam_ = lam[k][k - 1]
            b_new = (d[k - 1] * d[k + 1] + lam_ * lam_) // d[k]
            for i in range(k + 1, k_max + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_ * t) // d[k]
                lam[i][k - 1] = (b_new * t + lam_ * lam[i][k]) // d[k + 1]
            d[k] = b_new
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1

    history = _compose_history(basis.unimodular_history, U)
    out = LatticeBasis._of_ints(cols, scale, history)
    _certify_lll(out, delta)
    return out


def _round_ratio(a: int, b: int) -> int:
    """Nearest integer to a/b with b > 0, ties toward even like round()."""
    # q = floor(a/b + 1/2); r == 0 is a tie, where q - 1 and q are the candidates
    q, r = divmod(2 * a + b, 2 * b)
    return q - 1 if r == 0 and q % 2 else q


def _init_row(k, g, lam, d):
    """Row k of the integral GSO data from the Gram entries g(k, j), j <= k."""
    for j in range(k + 1):
        u = g(k, j)
        for i in range(j):
            u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
        if j < k:
            lam[k][j] = u
        else:
            d[k + 1] = u


def _compose_history(prev, U_rows):
    # U is stored by rows of coefficients over the previous basis:
    # new_col_k = sum_j U[k][j] prev_col_j, so as a matrix product the
    # column-transform is U transposed.
    return [[sum(map(operator.mul, row, u)) for u in U_rows] for row in prev]


def _certify_lll(basis: LatticeBasis, delta: Fraction):
    """Size reduction |mu_ij| <= 1/2 and the Lovasz condition with delta = p/q,
    checked exactly on the integral GSO data of the basis's own Gram."""
    lam, d = basis.integral_gso()
    for i in range(basis.rank):
        for j in range(i):
            if 2 * abs(lam[i][j]) > d[j + 1]:
                raise InternalError("LLL output is not size-reduced")
    p, q = delta.numerator, delta.denominator
    for i in range(1, basis.rank):
        if q * (d[i + 1] * d[i - 1] + lam[i][i - 1] ** 2) < p * d[i] ** 2:
            raise InternalError("LLL output violates the Lovasz condition")


def orthogonality_defect(basis: LatticeBasis) -> float:
    """prod ||b_i|| / det(L), the tightest usable coefficient-bound constant."""
    return math.sqrt(float(orthogonality_defect_sq(basis)))


def orthogonality_defect_sq(basis: LatticeBasis) -> Fraction:
    num = math.prod(basis.norm_sq(j) for j in range(basis.rank))
    den = basis.det_sq()
    if den == 0:
        raise InputError("degenerate basis")
    return num / den


def dual_basis(basis: LatticeBasis) -> LatticeBasis:
    """Dual lattice basis (inverse transpose); requires a full-rank square basis."""
    if basis.rank != basis.ambient_dim:
        raise InputError("dual basis requires a full-rank lattice")
    # B = C / den for the integer columns C, and C^-1 = E / d, so B^-1 = den E / d
    E, d = int_inverse(basis._ints)
    den = basis._den
    return LatticeBasis._of_ints(*_lowest_terms([[den * x for x in row] for row in E], d))


def lattice_equal(a: LatticeBasis, b: LatticeBasis) -> bool:
    """True when the two bases span the same lattice.

    With A and B the integer columns of a and b over their common
    denominator and A nonsingular, B = A X for X = A^-1 B.  The columns of
    B lie in the lattice of A exactly when X is integral, and the lattices
    are then equal exactly when X is invertible over Z, |det X| = 1.  A
    singular A spans no full-rank lattice, and gives False.

    int_forward takes [A | B] to [U | R], U upper triangular with nonzero
    diagonal and U X = R.  The back substitution then computes, from the
    last row up, X[i][j] = (R[i][j] - sum_{k > i} U[i][k] X[k][j]) / U[i][i]
    in integers, and returns False at the first division that leaves a
    remainder.  Every division is exact if and only if A^-1 B is integral:
    - If X* = A^-1 B is integral, then by induction from the last row the
      rows below i are X*'s, so the numerator of row i is U[i][i] X*[i][j]
      (because U X* = R), which U[i][i] divides exactly, giving X*[i][j].
    - If every division is exact, the computed X is integral and each
      numerator is U[i][i] X[i][j], so U X = R; U is nonsingular, hence
      X = U^-1 R = A^-1 B, which is then integral.
    So a remainder proves A^-1 B is not integral, and otherwise X = A^-1 B
    is exact, with det X = det B / det A an integer that int_det computes.
    """
    if a.ambient_dim != b.ambient_dim or a.rank != b.rank:
        return False
    if a.rank != a.ambient_dim:
        raise InputError("lattice_equal requires full-rank bases")
    n = a.rank
    den = math.lcm(a._den, b._den)
    fa, fb = den // a._den, den // b._den
    U = int_forward(
        [[fa * c[i] for c in a._ints] + [fb * c[i] for c in b._ints] for i in range(n)]
    )
    if U is None:
        return False
    X = [None] * n
    for i in range(n - 1, -1, -1):
        row, p = U[i], U[i][i]
        xi = []
        for j in range(n):
            q, r = divmod(row[n + j] - sum(row[k] * X[k][j] for k in range(i + 1, n)), p)
            if r:
                return False
            xi.append(q)
        X[i] = xi
    return abs(int_det(X)) == 1


# -- constants ---------------------------------------------------------------

# gamma_n ** n for the dimensions with exactly known Hermite constants
_GAMMA_POW: dict[int, Fraction] = {
    1: Fraction(1),
    2: Fraction(4, 3),
    3: Fraction(2),
    4: Fraction(4),
    5: Fraction(8),
    6: Fraction(64, 3),
    7: Fraction(64),
    8: Fraction(256),
    24: Fraction(4) ** 24,
}


def gamma_pow(n: int) -> Fraction:
    """Exact value of gamma_n ** n for n in the known table."""
    if n not in _GAMMA_POW:
        raise InputError(f"gamma_{n} has no exactly known value")
    return _GAMMA_POW[n]


def hermite_gamma(n: int) -> tuple[float, bool]:
    """(gamma_n, exact flag); a proven upper bound when no exact value is known."""
    if n < 1:
        raise InputError("dimension must be positive")
    if n in _GAMMA_POW:
        return float(_GAMMA_POW[n]) ** (1.0 / n), True
    return hermite_upper(n), False


def hermite_upper(n: int) -> float:
    """Classical bound gamma_n <= (4/3)^((n-1)/2), valid for every n."""
    try:
        return (4.0 / 3.0) ** ((n - 1) / 2.0)
    except OverflowError:
        raise InputError(f"the Hermite bound for n = {n} overflows a float") from None


def berge_martinet_upper(n: int) -> float:
    """Upper bound for the dual-product constant; gamma_n is always admissible."""
    return hermite_gamma(n)[0]


def c_m(m: int) -> float:
    """Reducedness constant gamma_m^(m/2) (3/2)^m 2^(m(m-1)/2).

    Raises InputError for m < 1 and when the value overflows a float (m >= 42).
    """
    if m < 1:
        raise InputError("dimension must be positive")
    try:
        if m in _GAMMA_POW:
            # gamma_m^(m/2) = sqrt(gamma_m^m), taking one exact square root
            head = math.sqrt(float(_GAMMA_POW[m]))
        else:
            head = hermite_upper(m) ** (m / 2.0)
        value = head * 1.5**m * 2.0 ** (m * (m - 1) / 2.0)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise InputError(f"c_{m} overflows a float")
    return value


def rank_norm_floor(r: int) -> float:
    """sqrt(r / gamma_r^2): norm floor for tensors of rank r relative to lambda1."""
    g, _ = hermite_gamma(r)
    return math.sqrt(r / g**2)


def _floor_key_less(r1: int, r2: int) -> bool:
    """Exact comparison r1/gamma_{r1}^2 < r2/gamma_{r2}^2 for table ranks."""
    g1, g2 = gamma_pow(r1), gamma_pow(r2)
    lhs = Fraction(r1) ** (r1 * r2) * g2**(2 * r1)
    rhs = Fraction(r2) ** (r1 * r2) * g1**(2 * r2)
    return lhs < rhs


def min_rank_floor(rmax: int) -> tuple[float, int]:
    """(min floor value, argmin rank) over 2 <= r <= rmax, compared exactly."""
    if rmax < 2:
        raise InputError("rmax must be at least 2")
    best = 2
    for r in range(3, rmax + 1):
        if r not in _GAMMA_POW:
            raise InputError(f"rank {r} outside the exact table")
        if _floor_key_less(r, best):
            best = r
    return rank_norm_floor(best), best


def lenstra_coefficient_bounds(c: float, v_norm: float, basis_norms: Sequence[float]) -> list[int]:
    """Per-coefficient bounds floor(c * ||v|| / ||b_i||): Lenstra's coefficient box."""
    if c <= 0 or v_norm < 0:
        raise InputError("bounds require c > 0 and a nonnegative norm")
    return [int(math.floor(c * v_norm / bn)) for bn in basis_norms]


# -- enumeration -------------------------------------------------------------


def _norm_bound_sq(norm_bound) -> Fraction:
    try:
        b = Fraction(norm_bound)
    except (ValueError, OverflowError):
        # nan and +-inf have no Fraction value
        raise InputError(f"norm bound must be a finite number, not {norm_bound!r}") from None
    if b < 0:
        raise InputError("negative norm bound")
    return b * b


def short_vectors(
    gram: Sequence[Sequence[Fraction]],
    norm_bound,
    budget: int | None = None,
) -> list[tuple[tuple[int, ...], Fraction]]:
    """All +-classes of nonzero vectors with norm <= norm_bound, sorted.

    Returns (coefficients, squared norm) pairs ordered by norm then
    lexicographic coefficients; each class is represented with its first
    nonzero coefficient positive.  Raises EnumerationBudgetError once more
    than ``budget`` nodes, at any level, have been visited, and does so
    before sweeping a level whose admissible range would take it there.
    A LatticeBasis lists the same classes with its own short_vectors.
    """
    bound_sq = _norm_bound_sq(norm_bound)
    G, s = _integral_rows([_fracv(row) for row in gram])
    return _walk(*integral_gso(G), s, bound_sq, budget)


def _walk(lam, d, s: int, bound_sq: Fraction, budget: int | None):
    """short_vectors on the integral GSO data (lam, d) of the integer Gram G = s gram.

    Every admissible range below is decided by an exact integer inequality
    that is homogeneous in s, so any integral scale s lists the same classes.
    """
    k = len(d) - 1
    # Fincke-Pohst: the partial vector v = sum_{l >= i} x_l b_l is admissible
    # at level i when its projection pi_i(v) away from b_0..b_{i-1} has
    # G(pi_i v) <= B = s bound_sq.  e_i = d_i G(pi_i v) is a Gram
    # determinant, hence an integer, and with t = d_{i+1} x_i + sum_{l > i}
    # lam_li x_l it is e_i = (d_i e_{i+1} + t^2) / d_{i+1}.
    bn, bd = (bound_sq * s).as_integer_ratio()
    results: list[tuple[tuple[int, ...], Fraction]] = []
    x = [0] * k
    visited = 0

    def descend(level: int, e_above: int):
        nonlocal visited
        dl, dn = d[level], d[level + 1]
        c = sum(lam[l][level] * x[l] for l in range(level + 1, k))
        # e_level * bd <= bn * dl, that is t^2 <= dl (bn dn - bd e_above) / bd
        t_max = math.isqrt(dl * (bn * dn - bd * e_above) // bd)
        lo, hi = -((t_max + c) // dn), (t_max - c) // dn
        if lo > hi:
            return
        visited += hi - lo + 1
        if budget is not None and visited > budget:
            raise EnumerationBudgetError("short vector enumeration budget exceeded")
        for xi in range(lo, hi + 1):
            x[level] = xi
            t = dn * xi + c
            e = (dl * e_above + t * t) // dn
            if level:
                descend(level - 1, e)
            elif any(x):
                results.append((tuple(x), Fraction(e, s)))
        x[level] = 0

    try:
        if k:
            descend(k - 1, 0)
    finally:
        descend = None  # the closure refers to itself; break the cycle
    # one representative per +-class: the one whose first nonzero coefficient is positive
    canonical = [cv for cv in results if next(c for c in cv[0] if c) > 0]
    return sorted(canonical, key=lambda cv: (cv[1], cv[0]))


# -- tensor products ----------------------------------------------------------


def tensor_product(L: LatticeBasis, M: LatticeBasis) -> LatticeBasis:
    """Kronecker-product basis of L (x) M, columns ordered pairwise (i, j)."""
    cols = [[a * b for a in bi for b in cj] for bi in L._ints for cj in M._ints]
    return LatticeBasis._of_ints(*_lowest_terms(cols, L._den * M._den))


@dataclass
class TensorExperimentReport:
    """Per-matrix-rank minima of tensor norms and the rank floor audit."""

    min_norm_sq_by_rank: dict[int, Fraction]
    lambda1_sq: Fraction
    floor_violations: list = dc_field(default_factory=list)
    enumerated: int = 0

    @property
    def lambda1(self) -> float:
        return math.sqrt(float(self.lambda1_sq))

    def min_norm(self, r: int) -> float:
        return math.sqrt(float(self.min_norm_sq_by_rank[r]))


def min_norm_by_matrix_rank(
    L: LatticeBasis,
    M: LatticeBasis,
    norm_bound,
    budget: int | None = 2_000_000,
) -> TensorExperimentReport:
    """Classify all tensors up to the bound by matrix rank, with floor checks.

    A coefficient matrix alpha reshaped to rank(L) x rank(M) has the same
    rank as the tensor it represents, so the classification is exact integer
    linear algebra.  Every enumerated vector is checked against the rank-r
    norm floor sqrt(r / gamma_r^2) * lambda1 with an exact power comparison;
    any violation would disprove the floor theorem, so the list must come
    back empty.
    """
    T = lll_reduce(tensor_product(L, M))
    vecs = T.short_vectors(norm_bound, budget=budget)
    if not vecs:
        return TensorExperimentReport({}, Fraction(0))
    # coefficients are over the reduced basis; map back to the kron basis
    hist = T.unimodular_history
    by_rank: dict[int, Fraction] = {}
    lambda1_sq = vecs[0][1]
    violations = []
    for coeffs, nsq in vecs:
        kron_coeffs = [sum(map(operator.mul, h, coeffs)) for h in hist]
        rows = [kron_coeffs[i * M.rank : (i + 1) * M.rank] for i in range(L.rank)]
        r = int_rank(rows)
        if r == 0:
            continue
        if r not in by_rank or nsq < by_rank[r]:
            by_rank[r] = nsq
        # exact floor test: ||v||^(2r) * gamma_r^(2... ) vs r^r lambda1^(2r)
        if r in _GAMMA_POW:
            lhs = nsq**r * gamma_pow(r) ** 2
            rhs = Fraction(r) ** r * lambda1_sq**r
            if lhs < rhs:
                violations.append((coeffs, nsq, r))
    return TensorExperimentReport(
        min_norm_sq_by_rank=by_rank,
        lambda1_sq=lambda1_sq,
        floor_violations=violations,
        enumerated=len(vecs),
    )


def trace_product_check(A, B) -> bool:
    """Tr(AB) >= n (det A det B)^(1/n) for SPD matrices, checked exactly.

    Accepts square matrices as nested sequences of rationals.  The comparison
    is done on n-th powers so no roots are taken.
    """
    a = [[Fraction(x) for x in row] for row in A]
    b = [[Fraction(x) for x in row] for row in B]
    n = len(a)
    if any(len(r) != n for r in a) or len(b) != n or any(len(r) != n for r in b):
        raise InputError("trace_product_check needs two square matrices of equal size")
    tr = sum(a[i][k] * b[k][i] for i in range(n) for k in range(n))
    return tr >= 0 and tr**n >= Fraction(n) ** n * _rational_det(a) * _rational_det(b)


def _rational_det(rows: list[list[Fraction]]) -> Fraction:
    """det M = det(D M) / D^n, D the lcm of the denominators of the n x n matrix M."""
    M, D = _integral_rows(rows)
    return Fraction(int_det(M), D ** len(rows))
