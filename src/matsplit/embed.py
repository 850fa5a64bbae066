"""Numerical embedding of a split algebra into M_n(R) or M_2(C).

The embedding is found from a random element with squarefree minimal
polynomial: a simple eigenvalue of its right regular matrix has an
n-dimensional eigenspace, which is a minimal left ideal; representing left
multiplication on it gives the images.  Soundness never rests on these
floats (rank decisions are exact); precision only affects whether the
search sees the short vectors it needs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import mpf_shift, to_int

from .algebra import (
    AlgebraElement,
    StructureConstants,
    _combination,
    _integral,
    _pair_sides,
    _scaled_eye,
)
from .errors import InputError, PrecisionError, PromiseViolation
from .exactnum import ExactMatrix, QuadScalar
from .lattice import LatticeBasis
from .orders import Order

_MIN_PRECISION = 64
_MAX_ATTEMPTS = 60


@dataclass
class Embedding:
    """Numerical images of the algebra basis with a tracked error radius."""

    table: StructureConstants
    n: int
    precision_bits: int
    images: tuple  # tuple of mpmath.matrix, one per basis element
    residual: object  # mpf: measured multiplicativity defect
    error_radius: object  # mpf: per-entry absolute error bound

    @property
    def is_complex(self) -> bool:
        return not self.table.field.is_rational

    def phi(self, coords: Sequence) -> mpmath.matrix:
        """Image of an element given by exact coordinates."""
        out = mpmath.zeros(self.n, self.n)
        for i, c in enumerate(coords):
            s = _scalar_to_mp(c)
            if s != 0:
                out += self.images[i] * s
        return out


def _scalar_to_mp(x):
    if isinstance(x, QuadScalar):
        return mpc(mpf(x.a.numerator) / x.a.denominator,
                   (mpf(x.b.numerator) / x.b.denominator) * mpmath.sqrt(x.d))
    f = Fraction(x)
    return mpf(f.numerator) / f.denominator


def _exact_to_mp_matrix(M: ExactMatrix) -> mpmath.matrix:
    out = mpmath.zeros(M.rows, M.cols)
    for i in range(M.rows):
        for j in range(M.cols):
            out[i, j] = _scalar_to_mp(M.entries[i][j])
    return out


def _min_poly(table: StructureConstants, coords) -> list:
    """Exact monic minimal polynomial coefficients (ascending) of an element."""
    m = table.m
    e = table.find_identity()
    powers = [tuple(e.coords)]
    cur = tuple(e.coords)
    for _ in range(table.n + 1):
        cur = table.multiply(cur, coords)
        cols = [list(p) for p in powers]
        mat = ExactMatrix.from_columns(table.field, cols)
        sol = mat.solve(list(cur))
        if sol is not None:
            return [-s for s in sol] + [table.field.one()]
        powers.append(cur)
    raise PromiseViolation("minimal polynomial degree exceeds the promised n")


def _poly_gcd_is_one(f: list, field) -> bool:
    """Squarefreeness via gcd(f, f') over the base field."""
    def trim(p):
        while len(p) > 1 and _is_zero(p[-1]):
            p.pop()
        return p

    def _is_zero(x):
        return x.is_zero() if isinstance(x, QuadScalar) else x == 0

    def divmod_poly(a, b):
        a = list(a)
        while len(trim(a)) >= len(b) and not all(_is_zero(x) for x in a):
            shift = len(a) - len(b)
            c = a[-1] / b[-1]
            for i in range(len(b)):
                a[shift + i] = a[shift + i] - c * b[i]
            trim(a)
        return a

    fp = [field.coerce(i + 1) * f[i + 1] for i in range(len(f) - 1)]
    a, b = list(f), trim(fp)
    while not all(_is_zero(x) for x in b):
        a, b = b, trim(divmod_poly(a, b))
    return len(trim(a)) == 1


def split_numeric(
    table: StructureConstants,
    order: Order,
    precision_bits: int = 128,
    seed: int = 0,
) -> Embedding:
    """Embedding of the algebra into M_n(R), or M_2(C) over a quadratic field.

    Raises PrecisionError when the working precision cannot separate the
    spectrum, and PromiseViolation when no splitting element exists (over Q
    that means no element has a real simple eigenvalue, which is impossible
    for a genuine full matrix algebra).
    """
    if precision_bits < _MIN_PRECISION:
        raise InputError(f"precision must be at least {_MIN_PRECISION} bits")
    n = table.n
    rng = random.Random(seed)
    if n == 1:
        return embedding_from_images(
            table, [ExactMatrix(table.field, [[table.field.one()]])], precision_bits
        )
    no_split_count = 0
    with workprec(precision_bits + 32):
        gap_floor = mpf(2) ** (-(precision_bits // 4))
        for _ in range(_MAX_ATTEMPTS):
            coords = _random_order_element(order, rng)
            f = _min_poly(table, coords)
            if len(f) - 1 != n or not _poly_gcd_is_one(f, table.field):
                # degenerate draw: no evidence about splitness either way
                continue
            lam, sep = _pick_eigenvalue(f, table, precision_bits)
            if lam is None:
                no_split_count += 1
                continue
            if sep < gap_floor:
                continue
            emb = _embedding_from_eigenvalue(table, coords, lam, n, precision_bits)
            if emb is not None:
                return emb
    if no_split_count >= _MAX_ATTEMPTS // 2:
        raise PromiseViolation(
            "no splitting element found: the algebra has no real eigenvalues, "
            "so it cannot be a full matrix algebra over this field"
        )
    raise PrecisionError("precision insufficient for a stable eigenspace")


def _random_order_element(order: Order, rng: random.Random):
    m = order.table.m
    while True:
        weights = [rng.randint(-3, 3) for _ in range(m)]
        if any(weights):
            break
    coords = [order.table.field.zero()] * m
    for j, w in enumerate(weights):
        if w:
            col = order.basis_matrix.column(j)
            coords = [c + order.table.field.coerce(w) * x for c, x in zip(coords, col)]
    return tuple(coords)


def _pick_eigenvalue(f: list, table: StructureConstants, precision_bits: int):
    """A well-separated eigenvalue usable for the ideal extraction.

    Over Q the eigenvalue must be real; over a quadratic field any simple
    root works.  Returns (root, separation) or (None, 0).
    """
    coeffs = [_scalar_to_mp(c) for c in reversed(f)]
    try:
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=precision_bits)
    except mpmath.libmp.libhyper.NoConvergence:
        return None, mpf(0)
    real_tol = mpf(2) ** (-(precision_bits // 2))
    best = None
    best_sep = mpf(0)
    for r in roots:
        if table.field.is_rational and abs(mpmath.im(r)) > real_tol * (1 + abs(r)):
            continue
        sep = min(
            (abs(r - s) for s in roots if s is not r),
            default=mpf(1),
        )
        if sep > best_sep:
            cand = mpmath.re(r) if table.field.is_rational else r
            best, best_sep = cand, sep
    return best, best_sep


def _embedding_from_eigenvalue(table, coords, lam, n, precision_bits):
    m = table.m
    rz = table.right_regular(coords)
    A = _exact_to_mp_matrix(rz)
    for i in range(m):
        A[i, i] -= lam
    complex_case = not table.field.is_rational or isinstance(lam, mpc)
    if complex_case:
        U, S, V = mpmath.svd_c(A.apply(mpc), full_matrices=True)
    else:
        U, S, V = mpmath.svd_r(A, full_matrices=True)
    # singular values come back in descending order; the eigenspace is the
    # span of the right singular vectors for the n smallest
    if m > n:
        gap_num = S[m - n]
        gap_den = S[m - n - 1]
        if gap_den == 0 or gap_num / gap_den > mpf(2) ** (-(precision_bits // 4)):
            return None
    W = mpmath.zeros(m, n)
    for t in range(n):
        row = m - 1 - t
        for i in range(m):
            W[i, t] = mpmath.conj(V[row, i]) if complex_case else V[row, i]
    images = []
    lefts = table.basis_left_matrices()
    WH = W.transpose_conj() if complex_case else W.transpose()
    for i in range(m):
        Li = _exact_to_mp_matrix(lefts[i])
        images.append(WH * (Li * W))
    residual = _measure_residual(table, images)
    if residual > mpf(2) ** (-(precision_bits // 2)):
        return None
    error_radius = residual + mpf(2) ** (-(precision_bits - 8))
    return Embedding(
        table=table,
        n=n,
        precision_bits=precision_bits,
        images=tuple(images),
        residual=residual,
        error_radius=error_radius,
    )


def _measure_residual(table: StructureConstants, images) -> mpf:
    """Largest Frobenius defect of a_i -> images[i] as a unital homomorphism.

    Every basis pair is checked for phi(a_i) phi(a_j) = sum_k gamma_ijk
    phi(a_k), then phi(1) = I, on Python ints: each image entry is rounded
    once to an int at scale D = 2^F, F the working precision.  Over Q the
    table enters exactly as its integral form (G, d).  Over Q(i) and
    Q(sqrt(-3)) a complex matrix X + iY is written as the real matrix
    [[X, -Y], [Y, X]], which keeps products and doubles squared norms, and
    gamma_ijk = g + ih enters as fixed-point g and h at scale 2^F against the
    images of a_k and of i a_k.  The squared defects are compared exactly and
    one square root is taken at the end.
    """
    F = mp.prec
    D = 1 << F
    n = images[0].rows
    field = table.field
    e = table.find_identity().coords
    if field.is_rational:
        P = [[_fixed(x._mpf_, F) for row in M.tolist() for x in row] for M in images]
        G, d = table._integral_gamma()
        E, de = _integral(field, e)
        size, fold = n, 1
    else:
        parts = [_fixed_parts(M, F) for M in images]
        P = [_realified(X, Y, n) for X, Y in parts]
        P += [_realified([-y for y in Y], X, n) for X, Y in parts]
        G = [[_fixed_complex(gij, F) for gij in gi] for gi in table.gamma]
        d = D
        E, de = _fixed_complex(e, F), D
        size, fold = 2 * n, 2
    pair_sq = max(
        sum((a - b) ** 2 for a, b in zip(lhs, rhs))
        for _, _, lhs, rhs in _pair_sides(P, G, d, D, size)
    )
    eye = _scaled_eye(size, de * D)
    identity_sq = sum((a - b) ** 2 for a, b in zip(_combination(E, P), eye))
    worst = max(
        Fraction(pair_sq, fold * (d * D * D) ** 2),
        Fraction(identity_sq, fold * (de * D) ** 2),
    )
    return mpmath.sqrt(mpf(worst.numerator) / worst.denominator)


def _fixed(x: tuple, F: int) -> int:
    """The mpf value x (as its raw tuple) times 2^F, rounded to the nearest int."""
    return to_int(mpf_shift(x, F), "n")


def _fixed_parts(M: mpmath.matrix, F: int) -> tuple[list, list]:
    """Real and imaginary parts of M at scale 2^F, each flat row-major."""
    X, Y = [], []
    for row in M.tolist():
        for v in row:
            if isinstance(v, mpc):
                re, im = v._mpc_
                X.append(_fixed(re, F))
                Y.append(_fixed(im, F))
            else:
                X.append(_fixed(v._mpf_, F))
                Y.append(0)
    return X, Y


def _realified(X: list, Y: list, n: int) -> list:
    """[[X, -Y], [Y, X]] flat row-major: the real form of X + iY."""
    out = []
    for r in range(n):
        out += X[r * n:(r + 1) * n] + [-y for y in Y[r * n:(r + 1) * n]]
    for r in range(n):
        out += Y[r * n:(r + 1) * n] + X[r * n:(r + 1) * n]
    return out


def _fixed_complex(values, F: int) -> list:
    """Real parts, then imaginary parts, of a + b sqrt(-d) at scale 2^F.

    Each part is rounded toward zero, so the imaginary part b sqrt(d) 2^F
    is exact up to one unit with no floating point.
    """
    return [_fixed_sqrt(x.a, 1, F) for x in values] + [_fixed_sqrt(x.b, x.d, F) for x in values]


def _fixed_sqrt(q: Fraction, d: int, F: int) -> int:
    """q sqrt(d) 2^F rounded toward zero."""
    r = math.isqrt((d * q.numerator * q.numerator << 2 * F) // (q.denominator * q.denominator))
    return -r if q < 0 else r


def embedding_from_images(
    table: StructureConstants,
    exact_images: Sequence[ExactMatrix],
    precision_bits: int = 128,
) -> Embedding:
    """Embedding built from exactly known images (fixtures, oracle tests)."""
    if precision_bits < _MIN_PRECISION:
        raise InputError(f"precision must be at least {_MIN_PRECISION} bits")
    with workprec(precision_bits + 32):
        images = tuple(_exact_to_mp_matrix(M) for M in exact_images)
        residual = _measure_residual(table, images)
        return Embedding(
            table=table,
            n=exact_images[0].rows,
            precision_bits=precision_bits,
            images=images,
            residual=residual,
            error_radius=residual + mpf(2) ** (-(precision_bits - 8)),
        )


@dataclass
class EmbeddedLattice:
    """Real lattice image of an order basis under the embedding.

    Over Q the integral basis is the order basis itself (dimension n^2);
    over a quadratic field it is (b_j, omega b_j) mapped through
    y -> (Re phi(y), Im phi(y)) into R^8.
    """

    dimension: int
    basis_vectors: list  # list of lists of mpf
    error_radius: object
    zbasis_elements: tuple  # exact AlgebraElements matching basis_vectors


def embed_order(embedding: Embedding, order: Order) -> EmbeddedLattice:
    table = order.table
    with workprec(embedding.precision_bits + 32):
        if table.field.is_rational:
            elements = [order.element(j) for j in range(table.m)]
        else:
            omega = table.field.omega()
            elements = []
            for j in range(table.m):
                col = order.basis_matrix.column(j)
                elements.append(AlgebraElement(table, col))
                elements.append(AlgebraElement(table, [omega * x for x in col]))
        vectors = []
        scale = mpf(0)
        for el in elements:
            mat = embedding.phi(el.coords)
            vec = _vectorize(mat, complex_case=embedding.is_complex)
            vectors.append(vec)
            scale = max(scale, sum(abs(c) for c in _coeff_magnitudes(el.coords)))
        dim = len(vectors[0])
        if len(vectors) != dim:
            raise InputError("order lattice is not full rank in the embedding space")
        return EmbeddedLattice(
            dimension=dim,
            basis_vectors=vectors,
            error_radius=embedding.error_radius * (1 + scale),
            zbasis_elements=tuple(elements),
        )


def _coeff_magnitudes(coords):
    out = []
    for c in coords:
        if isinstance(c, QuadScalar):
            out.append(mpf(abs(c.a.numerator)) / c.a.denominator
                       + mpf(abs(c.b.numerator)) / c.b.denominator)
        else:
            f = Fraction(c)
            out.append(mpf(abs(f.numerator)) / f.denominator)
    return out


def _vectorize(mat: mpmath.matrix, complex_case: bool) -> list:
    out = []
    for i in range(mat.rows):
        for j in range(mat.cols):
            v = mat[i, j]
            out.append(v.real if isinstance(v, mpc) else v)
    if complex_case:
        for i in range(mat.rows):
            for j in range(mat.cols):
                v = mat[i, j]
                out.append(v.imag if isinstance(v, mpc) else mpf(0))
    return out


def rationalize(embedded: EmbeddedLattice, target_denominator: int) -> LatticeBasis:
    """Entrywise rational approximation of the embedded basis vectors.

    Each entry moves by at most 1/(2 * target_denominator); the recorded
    perturbation adds the embedding error radius.
    """
    if target_denominator < 1:
        raise InputError("target denominator must be positive")
    q = int(target_denominator)
    cols = []
    for vec in embedded.basis_vectors:
        cols.append(tuple(Fraction(int(mpmath.nint(x * q)), q) for x in vec))
    # int / int, not 1.0 / q: q = 2^1024 and above has no float value
    perturbation = float(embedded.error_radius) + 1 / q
    return LatticeBasis(cols, perturbation=perturbation)
