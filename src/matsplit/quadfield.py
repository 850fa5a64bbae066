"""Imaginary quadratic fields Q(sqrt(-d)): covering constants and gamma_h.

Provides the covering constant kappa with its exact surd value, nearest
integer rounding in the ring of integers, the Hermitian Hermite-type
invariant gamma_h for rank-2 lattices over the ring of integers, and the
derived upper bounds used by the rank-one search over the Gaussian and
Eisenstein integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InputError, InternalError
from .exactnum import ExactMatrix, Field, QuadScalar, as_rational
from .lattice import LatticeBasis, short_vectors


@dataclass(frozen=True)
class FieldData:
    """Derived invariants of Q(sqrt(-d)) for square-free d > 0."""

    d: int

    def __post_init__(self):
        Field(self.d)  # validates square-freeness

    @property
    def discriminant(self) -> int:
        return self.d if self.d % 4 == 3 else 4 * self.d

    @property
    def has_half_integers(self) -> bool:
        return self.d % 4 == 3

    @property
    def euclidean(self) -> bool:
        return self.d in (1, 2, 3, 7, 11)

    @property
    def field(self) -> Field:
        return Field(self.d)


class Surd:
    """Exact value coeff * sqrt(radicand) with coeff rational, radicand int."""

    __slots__ = ("coeff", "radicand")

    def __init__(self, coeff, radicand: int):
        coeff = Fraction(coeff)
        if radicand < 0:
            raise InputError("negative radicand")
        # pull square factors out of the radicand
        s = 1
        k = 2
        r = radicand
        while k * k <= r:
            while r % (k * k) == 0:
                r //= k * k
                s *= k
            k += 1
        if r == 1:
            coeff, r = coeff * s, 1
        else:
            coeff = coeff * s
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", r)

    def __setattr__(self, *args):
        raise AttributeError("Surd is immutable")

    @classmethod
    def from_square(cls, sq) -> "Surd":
        sq = Fraction(sq)
        if sq < 0:
            raise InputError("negative square")
        return cls(Fraction(1, sq.denominator), sq.numerator * sq.denominator)

    def value_sq(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def __float__(self) -> float:
        return float(self.coeff) * math.sqrt(self.radicand)

    def __mul__(self, other):
        if isinstance(other, Surd):
            return Surd(self.coeff * other.coeff, self.radicand * other.radicand)
        return Surd(self.coeff * Fraction(other), self.radicand)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Surd):
            return (self.coeff >= 0) == (other.coeff >= 0) and self.value_sq() == other.value_sq()
        return self.radicand == 1 and self.coeff == Fraction(other)

    def __lt__(self, other):
        if isinstance(other, Surd):
            o_sq, o_neg = other.value_sq(), other.coeff < 0
        else:
            o = Fraction(other)
            o_sq, o_neg = o * o, o < 0
        s_neg = self.coeff < 0
        if s_neg != o_neg:
            return s_neg
        if s_neg:
            return self.value_sq() > o_sq
        return self.value_sq() < o_sq

    def __le__(self, other):
        return self == other or self < other

    def __str__(self):
        if self.radicand == 1:
            return str(self.coeff)
        root = f"sqrt({self.radicand})"
        if self.coeff == 1:
            return root
        if self.coeff.numerator == 1:
            return f"{root}/{self.coeff.denominator}"
        if self.coeff.denominator == 1:
            return f"{self.coeff.numerator}*{root}"
        return f"{self.coeff.numerator}*{root}/{self.coeff.denominator}"

    def __repr__(self):
        return f"Surd({self.coeff}, {self.radicand})"


def kappa(d: int) -> Surd:
    """Covering constant: max distance from a complex number to the integers.

    (d+1)/(4 sqrt(d)) when d = 3 mod 4, otherwise sqrt(d+1)/2.
    """
    FieldData(d)
    if d % 4 == 3:
        return Surd(Fraction(d + 1, 4 * d), d)
    return Surd(Fraction(1, 2), d + 1)


def tau(d: int) -> int:
    """floor(kappa + 1), computed by exact comparison."""
    k = kappa(d)
    t = 0
    while Fraction(t + 1) * (t + 1) <= k.value_sq():
        t += 1
    # t = floor(kappa), also when kappa is an exact integer (by <=)
    return t + 1


def nearest_integer(x: QuadScalar) -> QuadScalar:
    """Nearest ring-of-integers element to an exact field element (see nearest_omega)."""
    d = x.d
    e = math.lcm(x.a.denominator, x.b.denominator)
    u, v = nearest_omega(int(x.a * e), int(x.b * e), e, d)
    w = Field(d).omega()
    return QuadScalar(d, u + v * w.a, v * w.b)


def nearest_omega(a: int, b: int, e: int, d: int) -> tuple[int, int]:
    """The ring integer u + v omega nearest to (a + b sqrt(-d)) / e, e > 0, as (u, v).

    Scans the rectangular grid x + y sqrt(-d), x and y the floor or the
    ceiling of the coordinates, and when d = 3 mod 4 also the half-integer
    shifted grid; the exact squared distance (a/e - x)^2 + d (b/e - y)^2
    picks the winner, and on a tie the candidate scanned first.  Candidates
    are held doubled, X = 2x and Y = 2y, so that every distance is the
    integer (2a - X e)^2 + d (2b - Y e)^2 over 4 e^2.
    """
    cands = [(2 * x, 2 * y) for x in (a // e, -(-a // e)) for y in (b // e, -(-b // e))]
    if d % 4 == 3:
        # x - 1/2 = (2a - e) / 2e, and its floor and ceiling shifted back up
        cands += [(2 * x + 1, 2 * y + 1)
                  for x in ((2 * a - e) // (2 * e), -((e - 2 * a) // (2 * e)))
                  for y in ((2 * b - e) // (2 * e), -((e - 2 * b) // (2 * e)))]
    X, Y = min(cands, key=lambda c: (2 * a - c[0] * e) ** 2 + d * (2 * b - c[1] * e) ** 2)
    # (X + Y sqrt(-d)) / 2 on (1, omega): omega = sqrt(-d), or (1 + sqrt(-d)) / 2
    return ((X - Y) // 2, Y) if d % 4 == 3 else (X // 2, Y // 2)


def nearest_ok(z, d: int) -> QuadScalar:
    """Nearest ring integer to a complex number z, distance at most kappa(d).

    Accepts a Python complex or any object with real/imag attributes.  The
    result carries exact (half-)integer coordinates.
    """
    FieldData(d)
    re = Fraction(float(z.real))
    # the b coordinate lives on the sqrt(d) axis
    approx_b = Fraction(float(z.imag) / math.sqrt(d))
    return nearest_integer(QuadScalar(d, re, approx_b))


class HermitianLattice:
    """Rank-2 module over the ring of integers inside C^2, given exactly.

    Generators carry coordinates in the standard Hermitian frame; the Gram
    matrix <v_i, v_j> (conjugate-linear in the first slot) then has entries
    in the field and an exactly rational determinant.
    """

    __slots__ = ("field_data", "generators", "gram", "det")

    def __init__(self, field_data: FieldData, generators: Sequence[Sequence[QuadScalar]]):
        if len(generators) != 2 or any(len(g) != 2 for g in generators):
            raise InputError("need two generators in C^2")
        field = field_data.field
        gens = tuple(tuple(field.coerce(x) for x in g) for g in generators)
        gram_entries = [
            [sum((x.conjugate() * y for x, y in zip(gi, gj)), field.zero()) for gj in gens]
            for gi in gens
        ]
        gram = ExactMatrix(field, gram_entries)
        (g00, g01), (g10, g11) = gram_entries
        det = as_rational(g00 * g11 - g01 * g10)
        if det <= 0:
            raise InputError("generators are linearly dependent over the field")
        object.__setattr__(self, "field_data", field_data)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "det", det)

    def __setattr__(self, *args):
        raise AttributeError("HermitianLattice is immutable")

    def z_gram(self) -> list[list[Fraction]]:
        """Rational Gram of the rank-4 integral realization (1, omega) x gens.

        The real inner product is the real part of the Hermitian one, and
        real parts of field elements are exactly rational.
        """
        field = self.field_data.field
        omega = field.omega()
        scalars = (field.one(), omega)
        g = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                h = self.gram.entries[i][j]
                for si, alpha in enumerate(scalars):
                    for sj, beta in enumerate(scalars):
                        val = alpha.conjugate() * beta * h
                        g[2 * i + si][2 * j + sj] = val.a
        return g

    def shortest_norm_sq(self) -> Fraction:
        g = self.z_gram()
        bound_sq = min(g[i][i] for i in range(4))
        # the bound is a diagonal entry so the list is never empty
        vecs = short_vectors(g, math.sqrt(float(bound_sq)) + 1e-9)
        return vecs[0][1]


def gamma_h(M: HermitianLattice) -> float:
    """Shortest squared length over the square root of the Gram determinant."""
    return float(gamma_h_sq(M)) ** 0.5


def gamma_h_sq(M: HermitianLattice) -> Fraction:
    """Exact square of gamma_h(M): lambda1^4 / det."""
    lam_sq = M.shortest_norm_sq()
    return lam_sq * lam_sq / M.det


def gamma_h_upper(d: int) -> Surd:
    """Bound sqrt(D/2) from the rank-4 Hermite constant."""
    D = FieldData(d).discriminant
    return Surd.from_square(Fraction(D, 2))


def gamma_h_kappa_upper(d: int) -> Surd:
    """Bound tau / sqrt(1 - kappa^2); needs kappa(d) < 1, so d in {1,2,3,7,11}."""
    k_sq = kappa(d).value_sq()
    if k_sq >= 1:
        raise InputError(f"kappa({d}) >= 1; the covering bound is vacuous")
    t = tau(d)
    return Surd.from_square(Fraction(t * t) / (1 - k_sq))


def gamma_h_best_upper(d: int) -> Surd:
    """The smaller of the two proven gamma_h bounds for this d."""
    base = gamma_h_upper(d)
    try:
        alt = gamma_h_kappa_upper(d)
    except InputError:
        return base
    return alt if alt.value_sq() < base.value_sq() else base


def r_lambda_upper(d: int) -> Fraction:
    """Bound on the squared-length ratio of shortest rank-1 to rank-2 elements."""
    return Fraction(FieldData(d).discriminant, 4)


def empirical_r_lambda(
    embedded: LatticeBasis,
    rank_fn: Callable[[tuple[int, ...]], int],
    d: int,
    slack: float = 1e-9,
) -> float:
    """Measured ratio of shortest rank-1 to shortest rank-2 squared lengths.

    ``embedded`` is the rationalized rank-8 lattice of an order over the
    Gaussian or Eisenstein integers, ``rank_fn`` maps coefficient vectors to
    the exact matrix rank.  The identity has Frobenius norm sqrt(2), so a
    bound slightly above it sees both a rank-2 and, by the ratio bound, a
    rank-1 element.
    """
    bound = math.sqrt(2.0) * (1 + slack) + slack
    vecs = embedded.short_vectors(bound)
    best: dict[int, Fraction] = {}
    for coeffs, nsq in vecs:
        r = rank_fn(coeffs)
        if r in (1, 2) and (r not in best or nsq < best[r]):
            best[r] = nsq
    if 1 not in best or 2 not in best:
        raise InputError("enumeration did not reach both a rank-1 and a rank-2 element")
    ratio = float(best[1] / best[2])
    if ratio > float(r_lambda_upper(d)) + slack:
        raise InternalError(f"measured ratio {ratio} exceeds the proven bound")
    return ratio
