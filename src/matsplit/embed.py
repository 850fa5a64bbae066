"""Numerical embedding of a split algebra into M_n(R) or M_2(C).

The embedding is found from a random order element z whose minimal
polynomial f is squarefree of degree n; its powers are formed exactly on
the integral table.  For a simple root lam of f, the lam-eigenspace of the
right regular matrix R_z is n-dimensional and a minimal left ideal.  It is
the column space of the spectral projector g(R_z), g = f / (x - lam), up to
the scalar f'(lam).  Pivoted Gram-Schmidt on g(R_z) gives an orthonormal
basis W of it and gates its rank; the images W^H L_i W of left
multiplication are formed on ints from W rounded once to fixed point.
Soundness never rests on these floats (rank decisions are exact);
precision only affects whether the search sees the short vectors it needs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import fzero, mpf_shift, to_int

from .algebra import (
    StructureConstants,
    _combination,
    _integral,
    _omega_times,
    _pair_defects,
    _realified,
    _scaled_eye,
    lift_coords,
)
from .errors import InputError, PrecisionError, PromiseViolation
from .exactnum import ExactMatrix, QuadScalar, int_gauss_jordan
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


def _min_poly(table: StructureConstants, coords) -> tuple[list, list]:
    """Monic minimal polynomial f (ascending, exact) of z, and [(P_t, s_t) for t < deg f].

    On the integral table (G, d) and Z = dz z, z^k = P_k / s_k with P_0 / s_0
    the identity, P_{k+1} = R_Z P_k and s_{k+1} = s_k dz d, R_Z[r][i] =
    sum_j Z[j] G[i][j][r]; over Q(i) and Q(sqrt(-3)) these are (1, omega)
    coordinates on the restriction.  The K-span of the P_t is the Q-span of
    the P_t and omega P_t, so one elimination of P_0, omega P_0, .., P_n,
    omega P_n gives deg f as their rank over K and P_k in the P_t.
    """
    field, n = table.field, table.n
    G, d = table._integral_gamma()
    Z, dz = _integral(field, coords)
    E, de = _integral(field, table.find_identity().coords)
    RZ = list(zip(*(_combination(Z, gi) for gi in G)))
    powers = [(E, de)]
    for _ in range(n):
        P, s = powers[-1]
        powers.append(([sum(a * b for a, b in zip(row, P)) for row in RZ], s * dz * d))
    if field.is_rational:
        w, cols = 1, [P for P, _ in powers]
    else:
        tr = int(field.has_half_integers)
        w, cols = 2, [c for P, _ in powers for c in (P, _omega_times(P, tr))]
    X, pivots = int_gauss_jordan([list(r) for r in zip(*cols)])
    k = len(pivots) // w
    if k > n:
        raise PromiseViolation("minimal polynomial degree exceeds the promised n")
    s_k = powers[k][1]
    # column w k is P_k = sum over pivot rows r of X[r][w k] / X[r][r] times column r
    f = [-lift_coords(field, [Fraction(X[r][w * k], X[r][r]) for r in range(w * t, w * t + w)])[0]
         * Fraction(powers[t][1], s_k) for t in range(k)]
    return f + [field.one()], powers[:k]


def _is_squarefree(f: list) -> bool:
    """gcd(f, f') = 1: the Euclidean remainder sequence ends in a nonzero constant."""
    def trimmed(p):
        while p and not p[-1]:
            p.pop()
        return p

    a, b = list(f), trimmed([(i + 1) * c for i, c in enumerate(f[1:])])
    while b:
        while len(a) >= len(b):
            c, shift = a[-1] / b[-1], len(a) - len(b)
            a = trimmed([x - c * b[i - shift] if i >= shift else x for i, x in enumerate(a)])
        a, b = b, a
    return len(a) == 1


def split_numeric(
    table: StructureConstants,
    order: Order,
    precision_bits: int = 128,
    seed: int = 0,
) -> Embedding:
    """Embedding of the algebra into M_n(R), or M_2(C) over a quadratic field.

    With p = precision_bits, a draw z is used when f is squarefree of degree
    n, a root lam (real over Q) lies 2^(-p/4) or more from the others, the
    rank gate of the Gram-Schmidt on the projector g(R_z) passes at 2^(-p/4)
    and the fixed-point images W^H L_i W have residual at most 2^(-p/2).

    Raises PrecisionError when the working precision cannot separate the
    spectrum, and PromiseViolation when no splitting element exists (over Q
    that means no element has a real simple eigenvalue, which is impossible
    for a genuine full matrix algebra).
    """
    if precision_bits < _MIN_PRECISION:
        raise InputError(f"precision must be at least {_MIN_PRECISION} bits")
    n = table.n
    rng = random.Random(seed)
    no_split_count = 0
    with workprec(precision_bits + 32):
        gap_floor = mpf(2) ** (-(precision_bits // 4))
        for _ in range(_MAX_ATTEMPTS):
            coords = _random_order_element(order, rng)
            f, powers = _min_poly(table, coords)
            if len(f) - 1 != n or not _is_squarefree(f):
                # degenerate draw: no evidence about splitness either way
                continue
            lam, sep = _pick_eigenvalue(f, table, precision_bits)
            if lam is None:
                no_split_count += 1
                continue
            if sep < gap_floor:
                continue
            W = _eigenspace(table, f, powers, lam, precision_bits)
            if W is None:
                continue
            emb = _embedding(table, _images(table, W), precision_bits)
            if emb.residual <= mpf(2) ** (-(precision_bits // 2)):
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


def _eigenspace(table: StructureConstants, f: list, powers: list, lam, precision_bits: int):
    """Orthonormal columns spanning the lam-eigenspace of R_z, or None at the rank gate.

    f is squarefree, so the eigenspace is the column space of g(R_z), g =
    f / (x - lam): c_{n-1} = 1, c_{k-1} = f_k + lam c_k.  With z^k = P_k / s_k,
    g(R_z) = sum_k c_k / (s_k d) R_{P_k}, column j of R_{P_k} being sum_b P_k[b] G[j][b]
    for the K-basis a_j; over Q(i) and Q(sqrt(-3)) its (1, omega) coordinates
    (U, V) give the entries U + omega V.
    """
    n, m = len(f) - 1, table.m
    G, d = table._integral_gamma()
    c = [mpf(1)]
    for k in range(n - 1, 0, -1):
        c.append(_scalar_to_mp(f[k]) + lam * c[-1])
    weights = [ck / (s * d) for ck, (_, s) in zip(reversed(c), powers)]
    omega = None if table.field.is_rational else _scalar_to_mp(table.field.omega())
    cols = []
    for gj in G[:m]:
        R = [_combination(P, gj) for P, _ in powers]
        col = [mpmath.fdot(weights, x) for x in zip(*R)]
        cols.append(col if omega is None else [u + omega * v for u, v in zip(col[:m], col[m:])])
    return _pivoted_gram_schmidt(cols, n, mpf(2) ** (-(precision_bits // 4)))


def _pivoted_gram_schmidt(cols: list, n: int, gate):
    """n steps of column-pivoted modified Gram-Schmidt (conjugate inner products).

    None unless the largest remaining column norm is at most gate times the
    n-th pivot norm; a zero pivot fails too.
    """
    W = []
    for _ in range(n):
        norms = [mpmath.re(mpmath.fdot(v, v, conjugate=True)) for v in cols]
        j = max(range(len(cols)), key=norms.__getitem__)
        pivot = mpmath.sqrt(norms[j])
        if pivot == 0:
            return None
        q = [x / pivot for x in cols.pop(j)]
        cols = [[x - h * y for x, y in zip(v, q)] for v in cols
                for h in [mpmath.fdot(v, q, conjugate=True)]]
        W.append(q)
    rest = max((mpmath.re(mpmath.fdot(v, v, conjugate=True)) for v in cols), default=0)
    if rest > (gate * pivot) ** 2:
        return None
    return W


def _images(table: StructureConstants, W: list) -> list:
    """W^H L_i W, L_i left multiplication by a_i, on ints from W at scale 2^F.

    Over Q column j of L_i is G[i][j] / d.  Over Q(i) and Q(sqrt(-3)) x + iy
    is realified as [x; y], gamma_ij = g + ih at scale 2^F gives the columns
    [g; h] for x_j and [-h; g] for y_j, and i w_s = [-y; x] gives Im rows.
    """
    F = mp.prec
    m, n = table.m, len(W)
    parts = [_fixed_parts(q, F) for q in W]
    if table.field.is_rational:
        lefts, scale = table._integral_gamma()
        cols = tests = [X for X, _ in parts]
    else:
        fixed = [[_fixed_complex(gij, F) for gij in gi] for gi in table.gamma]
        lefts, scale = [g + [[-x for x in v[m:]] + v[:m] for v in g] for g in fixed], 1 << F
        cols = [X + Y for X, Y in parts]
        tests = cols + [[-y for y in Y] + X for X, Y in parts]
    scale <<= 2 * F
    images = []
    for L in lefts:
        T = [_combination(w, L) for w in cols]
        M = [[mpf(sum(a * b for a, b in zip(u, t))) / scale for t in T] for u in tests]
        if len(M) > n:
            M = [[mpc(x, y) for x, y in zip(M[s], M[n + s])] for s in range(n)]
        images.append(mpmath.matrix(M))
    return images


def _embedding(table: StructureConstants, images, precision_bits: int) -> Embedding:
    """The images with their measured residual and the error radius it gives."""
    residual = _measure_residual(table, images)
    radius = residual + mpf(2) ** (-(precision_bits - 8))
    return Embedding(table, images[0].rows, precision_bits, tuple(images), residual, radius)


def _measure_residual(table: StructureConstants, images) -> mpf:
    """Largest Frobenius defect of a_i -> images[i] as a unital homomorphism.

    Every basis pair is checked for phi(a_i) phi(a_j) = sum_k gamma_ijk
    phi(a_k), then phi(1) = I, on Python ints: each image entry is rounded
    once to an int at scale D = 2^F, F the working precision.  Over Q the
    table enters exactly as its integral form (G, d).  Over Q(i) and
    Q(sqrt(-3)) a complex matrix X + iY is written as the real matrix
    [[X, -Y], [Y, X]], which keeps products and doubles squared norms, and
    gamma_ijk = g + ih enters as fixed-point g and h at scale 2^F against the
    images of a_k and of i a_k.  The pairs run through the packed kernel
    algebra._pair_defects, which unpacks only the nonzero defects.  The
    squared defects are compared exactly and one square root is taken at
    the end.
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
        parts = [_fixed_parts((x for row in M.tolist() for x in row), F) for M in images]
        P = [_realified(X + Y, n, 0) for X, Y in parts]
        P += [_realified([-y for y in Y] + X, n, 0) for X, Y in parts]
        G = [[_fixed_complex(gij, F) for gij in gi] for gi in table.gamma]
        d = D
        E, de = _fixed_complex(e, F), D
        size, fold = 2 * n, 2
    row_defects = _pair_defects(P, G, d, D, size)
    pair_sq = max(
        (sum(x * x for x in v) for i in range(len(G)) for _, v in row_defects(i)), default=0
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


def _fixed_parts(values, F: int) -> tuple[list, list]:
    """Real and imaginary parts of mpf or mpc values at scale 2^F, as two lists."""
    parts = [v._mpc_ if isinstance(v, mpc) else (v._mpf_, fzero) for v in values]
    return [_fixed(x, F) for x, _ in parts], [_fixed(y, F) for _, y in parts]


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
        images = [mpmath.matrix([[_scalar_to_mp(x) for x in row] for row in M.entries])
                  for M in exact_images]
        return _embedding(table, images, precision_bits)


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
        # over Q(i) and Q(sqrt(-3)) b_j and omega b_j alternate
        zs, m = order.z_basis(), table.m
        elements = [zs[s * m + j] for j in range(m) for s in range(len(zs) // m)]
        vectors = []
        scale = mpf(0)
        for el in elements:
            mat = embedding.phi(el.coords)
            vec = _vectorize(mat, complex_case=embedding.is_complex)
            vectors.append(vec)
            scale = max(scale, sum(_magnitude(c) for c in el.coords))
        dim = len(vectors[0])
        if len(vectors) != dim:
            raise InputError("order lattice is not full rank in the embedding space")
        return EmbeddedLattice(
            dimension=dim,
            basis_vectors=vectors,
            error_radius=embedding.error_radius * (1 + scale),
            zbasis_elements=tuple(elements),
        )


def _magnitude(c):
    """|a| + |b| for a + b sqrt(-d), |c| for a rational c."""
    parts = (c.a, c.b) if isinstance(c, QuadScalar) else (Fraction(c),)
    return sum(mpf(abs(p.numerator)) / p.denominator for p in parts)


def _vectorize(mat: mpmath.matrix, complex_case: bool) -> list:
    entries = [mat[i, j] for i in range(mat.rows) for j in range(mat.cols)]
    out = [mpmath.re(v) for v in entries]
    return out + [mpmath.im(v) for v in entries] if complex_case else out


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
