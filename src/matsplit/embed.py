"""Numerical embedding of a split algebra into M_n(R) or M_2(C).

The embedding is found from a random order element z whose minimal
polynomial f is squarefree of degree n; its powers are formed exactly on
the integral table.  For a simple root lam of f, the lam-eigenspace of the
right regular matrix R_z is n-dimensional and a minimal left ideal.  It is
the column space of the spectral projector g(R_z), g = f / (x - lam), up to
the scalar f'(lam).  Pivoted Gram-Schmidt on g(R_z) gives an orthonormal
basis W of it and gates its rank, and the images W^H L_i W of left
multiplication follow, all on Python ints at one fixed-point scale 2^F,
F = precision_bits + 32.  The roots of f are refined on ints too, 32 bits
below that scale, from points on the circles of f's Newton polygon.  The
order lattice keeps those ints over one denominator, so its rational
approximation is rounded exactly.  Soundness never rests on these
approximations (rank decisions are exact); precision only affects whether
the search sees the short vectors it needs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    StructureConstants,
    _combination,
    _int_dot,
    _omega_times,
    _pair_defects,
    _realified,
    _scaled_eye,
    lift_coords,
)
from .errors import InputError, PrecisionError, PromiseViolation
from .exactnum import ExactMatrix, QuadScalar, int_gauss_jordan
from .lattice import LatticeBasis, _lowest_terms
from .orders import Order

_MIN_PRECISION = 64
_MAX_ATTEMPTS = 60
_GUARD = 32  # bits the root refinement carries below the working precision
_MAX_SWEEPS = 200


class _NoConvergence(ArithmeticError):
    """_refine_roots gave up on a polynomial."""


@dataclass
class Embedding:
    """Numerical images of the algebra basis with a tracked error radius."""

    table: StructureConstants
    n: int
    precision_bits: int
    # per basis element (X, Y): the real and imaginary parts of its image,
    # flat row-major on ints at scale 2^F, F = precision_bits + 32; Y is None over Q
    fixed: tuple
    residual: Fraction  # measured multiplicativity defect, rounded up
    error_radius: Fraction  # per-entry absolute error bound

    @property
    def is_complex(self) -> bool:
        return not self.table.field.is_rational


def _min_poly(table: StructureConstants, Z: Sequence[int], dz: int) -> tuple[list, list]:
    """Monic minimal polynomial f (ascending, exact) of z, and [(P_t, s_t) for t < deg f].

    On the integral table (G, d) and Z = dz z, dz > 0, z^k = P_k / s_k with
    P_0 / s_0 = E / de the identity, P_{k+1} = R_Z P_k and s_{k+1} = s_k dz d,
    R_Z[r][i] = sum_j Z[j] G[i][j][r]; over Q(i) and Q(sqrt(-3)) these are
    (1, omega) coordinates on the restriction.  The K-span of the P_t is the Q-span of
    the P_t and omega P_t, so one elimination of P_0, omega P_0, .., P_n,
    omega P_n gives deg f as their rank over K and P_k in the P_t.
    """
    field, n = table.field, table.n
    G, d = table._integral_gamma()
    E, de = table._integral_identity()
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
    The residual is an exact rational, so the last gate compares exactly.
    A draw whose roots _refine_roots cannot converge on is skipped, like a
    degenerate one.

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
    F = precision_bits + 32
    gamma = _fixed_gamma(table, F)
    gap_floor_sq = 1 << 2 * (F - precision_bits // 4)  # 2^(-2 (p/4)) at 2^(2F)
    for _ in range(_MAX_ATTEMPTS):
        f, powers = _min_poly(table, *_random_order_element(order, rng))
        if len(f) - 1 != n or not _is_squarefree(f):
            # degenerate draw: no evidence about splitness either way
            continue
        try:
            lam, sep_sq = _pick_eigenvalue(f, table, precision_bits)
        except _NoConvergence:
            # the root finder gave up: no evidence either
            continue
        if lam is None:
            no_split_count += 1
            continue
        if sep_sq < gap_floor_sq:
            continue
        W = _eigenspace(table, f, powers, lam, precision_bits)
        if W is None:
            continue
        emb = _embedding(table, _images(table, W, gamma, F), gamma, precision_bits)
        if emb.residual <= Fraction(1, 1 << precision_bits // 2):
            return emb
    if no_split_count >= _MAX_ATTEMPTS // 2:
        raise PromiseViolation(
            "no splitting element found: the algebra has no real eigenvalues, "
            "so it cannot be a full matrix algebra over this field"
        )
    raise PrecisionError("precision insufficient for a stable eigenspace")


def _random_order_element(order: Order, rng: random.Random) -> tuple[list[int], int]:
    """(Z, dz), the _integral of sum_j w_j b_j for random weights w_j in [-3, 3], not all zero."""
    m = order.table.m
    while True:
        weights = [rng.randint(-3, 3) for _ in range(m)]
        if any(weights):
            break
    den, C, _, _ = order._int
    (Z,), dz = _lowest_terms([_combination(weights, C[:m])], den)
    return Z, dz


def _pick_eigenvalue(f: list, table: StructureConstants, precision_bits: int):
    """A well-separated eigenvalue usable for the ideal extraction.

    Over Q the eigenvalue must be real; over a quadratic field any simple
    root works.  _refine_roots gives the roots as (re, im) int pairs at 2^K,
    K = F + 32, F = p + 32, and every rule compares them exactly, squared
    distances in place of distances.  With tol = 2^(-p/2), a root is real
    over Q when |Im| <= tol (1 + |Re|), and its Im is then taken as 0.  The
    root farthest from the others wins, and ties are broken by an explicit
    rule, so that neither rounding noise nor the order of the roots
    decides: squared separations within 2 tol relative of the largest tie;
    among those roots the least |Im| wins, |Im| values within tol (1 + |Im|)
    tying; among those the least real part wins, real parts within
    tol (1 + |Re|) tying; among those the greatest Im wins, so of a
    conjugate pair the one with positive Im.  Returns (lam, sep_sq): the
    root's (re, im) at 2^F, im 0 over Q, and its squared separation at
    2^(2F); or (None, 0) when no root is usable.  _NoConvergence from
    _refine_roots propagates.
    """
    K = precision_bits + 32 + _GUARD
    h, one, is_rational = precision_bits // 2, 1 << K, table.field.is_rational
    roots = _refine_roots(f, K)
    if is_rational:
        roots = [(x, 0) if abs(y) << h <= one + abs(x) else (x, y) for x, y in roots]
    ranked = [(min(((x - u) ** 2 + (y - v) ** 2 for j, (u, v) in enumerate(roots) if j != i),
                   default=one * one), x, y)
              for i, (x, y) in enumerate(roots) if not (is_rational and y)]
    top = max((s for s, _, _ in ranked), default=0)
    if not top:
        return None, 0
    tied = [(s, x, y) for s, x, y in ranked if s >= top - (top >> (h - 1))]
    low = min(abs(y) for _, _, y in tied)
    tied = [(s, x, y) for s, x, y in tied if (abs(y) - low) << h <= one + abs(y)]
    low = min(x for _, x, _ in tied)
    tied = [(s, x, y) for s, x, y in tied if (x - low) << h <= one + abs(x)]
    sep_sq, x, y = max(tied, key=lambda r: r[2])
    half = 1 << (_GUARD - 1)
    return ((x + half) >> _GUARD, (y + half) >> _GUARD), sep_sq >> 2 * _GUARD


def _refine_roots(f: list, K: int) -> list[tuple[int, int]]:
    """The roots of the monic f (ascending coefficients) as (re, im) int pairs at 2^K.

    Durand-Kerner (Weierstrass) sweeps on fixed-point ints (Kerner, Numer.
    Math. 8, 1966): each root z_i in turn moves by f(z_i) / prod_{j != i}
    (z_i - z_j), every product rounded to 2^K and the quotient once.  The
    sweeps start from _polygon_start.  A sweep that moves no root by
    2^(32-K) or more ends the refinement; after 200 sweeps without one, or
    when two iterates meet, _NoConvergence is raised.
    """
    one = 1 << K
    c = [_fixed_scalar(x, K) for x in reversed(f)]
    z = _polygon_start(c, K)
    limit = 1 << 2 * _GUARD
    for _ in range(_MAX_SWEEPS):
        moved = 0
        for i, (x, y) in enumerate(z):
            pr, pi = one, 0
            for cr, ci in c[1:]:
                pr, pi = ((pr * x - pi * y) >> K) + cr, ((pr * y + pi * x) >> K) + ci
            qr, qi = one, 0
            for j, (u, v) in enumerate(z):
                if j != i:
                    u, v = x - u, y - v
                    qr, qi = (qr * u - qi * v) >> K, (qr * v + qi * u) >> K
            norm = qr * qr + qi * qi
            if not norm:
                raise _NoConvergence("two Durand-Kerner iterates met")
            sr, si = ((pr * qr + pi * qi) << K) // norm, ((pi * qr - pr * qi) << K) // norm
            z[i] = (x - sr, y - si)
            moved = max(moved, sr * sr + si * si)
        if moved < limit:
            return z
    raise _NoConvergence(f"the roots did not converge in {_MAX_SWEEPS} sweeps")


def _polygon_start(coeffs: list, K: int) -> list[tuple[int, int]]:
    """Durand-Kerner starting points on circles from the Newton polygon (Bini,
    Numer. Algorithms 13, 1996), as (re, im) int pairs at 2^K.

    coeffs are the descending (re, im) coefficients at 2^K of a monic
    polynomial.  With l_k the bit length of coefficient a_k of x^k (a
    zero counted as one unit), each edge of the upper convex hull of the
    points (k, l_k) from k to k + m carries m starting points of modulus
    about 2^((l_k - l_(k+m)) / m), the size of m of the roots.  Point j
    is 2^e (0.4 + 0.9i)^j, so no two coincide.
    """
    bits = [max(1, *map(abs, c)).bit_length() for c in reversed(coeffs)]  # l_0 .. l_n
    hull: list[int] = []
    for k, b in enumerate(bits):
        # drop the last vertex while it lies on or under the chord to (k, b)
        while len(hull) > 1 and (bits[hull[-1]] - bits[hull[-2]]) * (k - hull[-2]) <= (
                (b - bits[hull[-2]]) * (hull[-1] - hull[-2])):
            hull.pop()
        hull.append(k)
    radii = [max(-(K // 2), (bits[k] - bits[l]) // (l - k))
             for k, l in zip(hull, hull[1:]) for _ in range(l - k)]
    z, w = [], (1, 0)
    for j, e in enumerate(radii):
        z.append(((w[0] << K + e) // 10**j, (w[1] << K + e) // 10**j))
        w = (4 * w[0] - 9 * w[1], 9 * w[0] + 4 * w[1])  # times 4 + 9i
    return z


def _eigenspace(table: StructureConstants, f: list, powers: list, lam, precision_bits: int):
    """Orthonormal columns spanning the lam-eigenspace of R_z, or None at the rank gate.

    f is squarefree, so the eigenspace is the column space of g(R_z) =
    R_{g(z)}, g = f / (x - lam) = sum_k c_k x^k: c_{n-1} = 1, c_{k-1} = f_k +
    lam c_k.  With z^k = P_k / s_k, s_{n-1} g(z) = sum_k c_k (s_{n-1} / s_k)
    P_k, and s_{n-1} / s_k = (dz d)^(n-1-k) is an int; scaling does not
    change the column space.  So with lam, f_k and c_k at 2^F, F = p + 32,
    Q = sum_k c_k (s_{n-1} / s_k) P_k is an int vector (two over Q(i) and
    Q(sqrt(-3)): real and imaginary parts), and column j of R_Q is
    sum_b Q[b] G[j][b] for the K-basis a_j.  Over Q(i) and Q(sqrt(-3)) its
    (1, omega) coordinates (U, V) give the entries 2^F U + omega V with
    omega at 2^F.  The columns returned are flat int vectors at 2^F: the
    real parts, then over Q(i) and Q(sqrt(-3)) the imaginary parts.
    """
    F = precision_bits + 32
    n, m = len(f) - 1, table.m
    field = table.field
    G, d = table._integral_gamma()
    lr, li = lam
    c = [(1 << F, 0)]
    for k in range(n - 1, 0, -1):
        (ar, ai), (cr, ci) = _fixed_scalar(f[k], F), c[-1]
        c.append((ar + ((lr * cr - li * ci) >> F), ai + ((lr * ci + li * cr) >> F)))
    top = powers[-1][1]
    P = [Pk for Pk, _ in powers]
    Qr = _combination([cr * (top // s) for (cr, _), (_, s) in zip(reversed(c), powers)], P)
    if field.is_rational:
        cols = [_combination(Qr, gj) for gj in G[:m]]
    else:
        Qi = _combination([ci * (top // s) for (_, ci), (_, s) in zip(reversed(c), powers)], P)
        wr, wi = _fixed_scalar(field.omega(), F)
        cols = []
        for gj in G[:m]:
            A, B = _combination(Qr, gj), _combination(Qi, gj)
            cols.append([(u << F) + wr * v - wi * y for u, v, y in zip(A[:m], A[m:], B[m:])]
                        + [(x << F) + wr * y + wi * v for x, v, y in zip(B[:m], A[m:], B[m:])])
    return _pivoted_gram_schmidt(cols, n, precision_bits, not field.is_rational)


def _pivoted_gram_schmidt(cols: list, n: int, precision_bits: int, is_complex: bool):
    """n steps of column-pivoted modified Gram-Schmidt (conjugate inner products) on ints.

    cols are flat int vectors at one common scale (real parts, then
    imaginary parts when is_complex).  Norms are exact.  The pivot is the
    first column whose squared norm is within 2^(-p/2) relative of the
    largest, so that rounding noise never decides between equal norms; it
    is divided by the integer square root of its squared norm, so the
    columns returned are unit vectors at 2^F, F = p + 32.  None unless the
    largest remaining squared norm is at most 2^(-2 (p/4)) times the n-th
    pivot's; a zero pivot fails too.
    """
    F = precision_bits + 32
    half = 1 << (2 * F - 1)
    W = []
    for _ in range(n):
        norms = [_int_dot(v, v) for v in cols]
        top = max(norms)
        if not top:
            return None
        j = next(j for j, x in enumerate(norms) if x >= top - (top >> precision_bits // 2))
        top = norms[j]
        root = math.isqrt(top << 2 * F)  # |v| 2^F
        q = [_round_div(x << 2 * F, root) for x in cols.pop(j)]
        W.append(q)
        if is_complex:
            k = len(q) // 2
            qr, qi = q[:k], q[k:]
            rotated = [-y for y in qi] + qr  # i q
            for v in cols:
                hr, hi = _int_dot(q, v), _int_dot(rotated, v)  # <q, v> = hr + i hi
                v[:] = [x - ((hr * a + hi * b + half) >> 2 * F) for x, a, b in zip(v, q, rotated)]
        else:
            for v in cols:
                h = _int_dot(q, v)
                v[:] = [x - ((h * a + half) >> 2 * F) for x, a in zip(v, q)]
    rest = max((_int_dot(v, v) for v in cols), default=0)
    if rest << 2 * (precision_bits // 4) > top:
        return None
    return W


def _images(table: StructureConstants, W: list, gamma, F: int) -> list:
    """W^H L_i W, L_i left multiplication by a_i, on ints from W at scale 2^F.

    Over Q column j of L_i is G[i][j] / d.  Over Q(i) and Q(sqrt(-3)) x + iy
    is realified as [x; y], gamma_ij = g + ih at scale 2^F gives the columns
    [g; h] for x_j and [-h; g] for y_j, and i w_s = [-y; x] gives Im rows.
    Each entry is rounded once to 2^F; the result is the (X, Y) pair of
    Embedding.fixed for each a_i.  gamma is _fixed_gamma(table, F).
    """
    m, n = table.m, len(W)
    is_rational = table.field.is_rational
    if is_rational:
        lefts, scale = table._integral_gamma()
        tests = W
    else:
        lefts, scale = [g + [[-x for x in v[m:]] + v[:m] for v in g] for g in gamma], 1 << F
        tests = W + [[-y for y in w[m:]] + w[:m] for w in W]
    scale <<= F
    images = []
    for L in lefts:
        T = [_combination(w, L) for w in W]
        M = [_round_div(_int_dot(u, t), scale) for u in tests for t in T]
        images.append((M, None) if is_rational else (M[:n * n], M[n * n:]))
    return images


def _round_div(a: int, b: int) -> int:
    """a / b rounded to the nearest int, for b > 0."""
    return (2 * a + b) // (2 * b)


def _sqrt_up(x: Fraction, F: int) -> Fraction:
    """A dyadic r >= sqrt(x) with r^2 - x <= 2^(-F) x, for x >= 0: at least F bits, rounded up."""
    a, b = x.numerator, x.denominator
    s = max(0, (2 * F + 6 - a.bit_length() + b.bit_length()) // 2)  # sqrt(x) 2^s >= 2^(F+2)
    N = -((-a << 2 * s) // b)  # ceil(x 4^s)
    return Fraction(math.isqrt(N - 1) + 1 if N else 0, 1 << s)


def _embedding(table: StructureConstants, fixed, gamma, precision_bits: int) -> Embedding:
    """The fixed-point images with their measured residual and the error radius it gives."""
    residual = _measure_residual(table, fixed, gamma, precision_bits + 32)
    radius = residual + Fraction(1, 1 << precision_bits - 8)
    n = math.isqrt(len(fixed[0][0]))
    return Embedding(table, n, precision_bits, tuple(fixed), residual, radius)


def _measure_residual(table: StructureConstants, fixed, gamma, F: int) -> Fraction:
    """Largest Frobenius defect of a_i -> fixed[i] as a unital homomorphism.

    fixed[i] is the (X, Y) pair of Embedding.fixed: the image of a_i, flat
    row-major on ints at scale D = 2^F.  Every basis pair is checked for
    phi(a_i) phi(a_j) = sum_k gamma_ijk phi(a_k), then phi(1) = I.  Over Q
    the table enters exactly as its integral form (G, d).  Over Q(i) and
    Q(sqrt(-3)) a complex matrix X + iY is written as the real matrix
    [[X, -Y], [Y, X]], which keeps products and doubles squared norms, and
    gamma_ijk = g + ih enters as fixed-point g and h at scale 2^F against
    the images of a_k and of i a_k: gamma is _fixed_gamma(table, F).  The
    pairs run through the packed kernel algebra._pair_defects, which
    unpacks only the nonzero defects.  The squared defects are compared
    exactly, and the one square root is taken at the end by _sqrt_up, so
    the residual returned is an exact rational upper bound.
    """
    D = 1 << F
    n = math.isqrt(len(fixed[0][0]))
    field = table.field
    E, de = table._integral_identity()
    if field.is_rational:
        P = [X for X, _ in fixed]
        G, d = table._integral_gamma()
        size, fold = n, 1
    else:
        P = [_realified(X + Y, n, 0) for X, Y in fixed]
        P += [_realified([-y for y in Y] + X, n, 0) for X, Y in fixed]
        G, d = gamma, D
        E, de = _fixed_omega(E, de, field, F), D
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
    return _sqrt_up(worst, F)


def _fixed_scalar(x, F: int) -> tuple[int, int]:
    """Real and imaginary parts of a rational or a + b sqrt(-d) at scale 2^F, rounded toward zero."""
    if isinstance(x, QuadScalar):
        return _fixed_sqrt(x.a, 1, F), _fixed_sqrt(x.b, x.d, F)
    return _fixed_sqrt(Fraction(x), 1, F), 0


def _fixed_gamma(table: StructureConstants, F: int) -> list | None:
    """The constants gamma_ij, i, j < m, of a table over Q(i) or Q(sqrt(-3)) by _fixed_omega.

    Read from the integer table (G, d): G[i][j] holds the (1, omega)
    coordinates of d gamma_ij.  None over Q, where the images and the
    residual read (G, d) itself.
    """
    if table.field.is_rational:
        return None
    G, d = table._integral_gamma()
    m, field = table.m, table.field
    return [[_fixed_omega(gij, d, field, F) for gij in gi[:m]] for gi in G[:m]]


def _fixed_omega(X: Sequence[int], den: int, field, F: int) -> list:
    """Real parts, then imaginary parts, of the values (u_r + v_r omega) / den at scale 2^F.

    X holds the ints u_1..u_k, v_1..v_k.  With 2 omega = t + (2 - t) sqrt(-d),
    t = 1 when omega = (1 + sqrt(-d))/2 and 0 when omega = sqrt(-d), a value
    is (2u + t v + (2 - t) v sqrt(-d)) / (2 den).  Each part is rounded
    toward zero on ints, so the imaginary part is exact up to one unit with
    no floating point: floor(sqrt(floor(y))) = floor(sqrt(y)) for y >= 0.
    """
    t, k, den2 = int(field.has_half_integers), len(X) // 2, 2 * den
    re = [_toward_zero((2 * u + t * v) << F, den2) for u, v in zip(X[:k], X[k:])]
    im = [math.isqrt((field.d * ((2 - t) * v) ** 2 << 2 * F) // (den2 * den2)) for v in X[k:]]
    return re + [-y if v < 0 else y for v, y in zip(X[k:], im)]


def _toward_zero(a: int, b: int) -> int:
    """a / b rounded toward zero, for b > 0."""
    return -(-a // b) if a < 0 else a // b


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
    F = precision_bits + 32
    fixed = []
    for M in exact_images:
        parts = [_fixed_scalar(x, F) for row in M.entries for x in row]
        X, Y = [x for x, _ in parts], [y for _, y in parts]
        fixed.append((X, None if table.field.is_rational else Y))
    return _embedding(table, fixed, _fixed_gamma(table, F), precision_bits)


@dataclass
class EmbeddedLattice:
    """Real lattice image of an order basis under the embedding.

    Over Q the integral basis is the order basis itself (dimension n^2);
    over a quadratic field it is (b_j, omega b_j) mapped through
    y -> (Re phi(y), Im phi(y)) into R^8.  Entry i of vector j is
    basis_vectors[j][i] / denominator, held exactly as ints.
    """

    dimension: int
    basis_vectors: list  # list of lists of int, over denominator
    error_radius: Fraction
    denominator: int


def _zbasis_columns(order: Order) -> list[list[int]]:
    """Order._int's columns in embed_order's order: over K, b_j and omega b_j alternate."""
    C, m = order._int[1], order.table.m
    return [C[s * m + j] for j in range(m) for s in range(len(C) // m)]


def embed_order(embedding: Embedding, order: Order) -> EmbeddedLattice:
    """The order's z-basis under the embedding, as ints over one denominator.

    Over Q(i) and Q(sqrt(-3)) the (1, omega) coordinates (u, v) of an element
    give the image sum_r u_r phi(a_r) + v_r phi(omega a_r), so with T the
    fixed-point images of a_1..a_m, then of omega a_1..omega a_m, z-basis
    element j is the int combination of its column C_j of Order._int with T,
    over den 2^F.
    """
    table = order.table
    F = embedding.precision_bits + 32
    den, C, _, _ = order._int
    m = table.m
    if table.field.is_rational:
        T = [X for X, _ in embedding.fixed]
    else:
        wr, wi = _fixed_scalar(table.field.omega(), F)
        T = [X + Y for X, Y in embedding.fixed]
        T += [[(wr * x - wi * y) >> F for x, y in zip(X, Y)]
              + [(wr * y + wi * x) >> F for x, y in zip(X, Y)] for X, Y in embedding.fixed]
    vectors = [_combination(c, T) for c in _zbasis_columns(order)]
    # sum_r |a_r| + |b_r| over the coordinates a_r + b_r sqrt(-d) = u_r + v_r omega
    # of each element; 2 omega = ta + tb sqrt(-d) with ints ta, tb
    if table.field.is_rational:
        scale = Fraction(max(sum(map(abs, c)) for c in C), den)
    else:
        w = table.field.omega()
        ta, tb = int(2 * w.a), int(2 * w.b)
        scale = Fraction(max(sum(abs(2 * u + ta * v) + abs(tb * v) for u, v in zip(c[:m], c[m:]))
                             for c in C), 2 * den)
    dim = len(vectors[0])
    if len(vectors) != dim:
        raise InputError("order lattice is not full rank in the embedding space")
    return EmbeddedLattice(
        dimension=dim,
        basis_vectors=vectors,
        error_radius=embedding.error_radius * (1 + scale),
        denominator=den << F,
    )


def rationalize(embedded: EmbeddedLattice, target_denominator: int) -> LatticeBasis:
    """Entrywise rational approximation of the embedded basis vectors.

    Entry x = X / D, D = embedded.denominator, becomes nint(X q / D) / q,
    q = target_denominator, rounded exactly on ints.  So x moves by at most
    1/(2q).  The basis takes the rounded ints over q in lowest terms.
    """
    if target_denominator < 1:
        raise InputError("target denominator must be positive")
    q, D = int(target_denominator), embedded.denominator
    cols = [[_round_div(x * q, D) for x in vec] for vec in embedded.basis_vectors]
    return LatticeBasis._of_ints(*_lowest_terms(cols, q))
