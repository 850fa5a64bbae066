"""Exact scalar and matrix arithmetic over Q and imaginary quadratic fields.

Scalars are ``fractions.Fraction`` over Q, or :class:`QuadScalar` values
a + b*sqrt(-d) with rational a, b over Q(sqrt(-d)); every operation is exact.
The split pipeline eliminates fraction-free on integers: ``int_gauss_jordan``,
``int_rank`` and ``int_inverse`` over Z, ``omega_det`` over Z[omega] for
determinants over Q(i) and Q(sqrt(-3)).  ``ExactMatrix`` elimination serves
the public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import InputError

Rat = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InputError(f"not an exact rational: {x!r}")


def _is_square_free(n: int) -> bool:
    if n % 4 == 0:
        return False
    k = 3
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 2
    return True


@dataclass(frozen=True)
class Field:
    """Base field descriptor: ``d is None`` means Q, otherwise Q(sqrt(-d))."""

    d: int | None = None

    def __post_init__(self):
        if self.d is not None:
            if self.d <= 0:
                raise InputError("d must be a positive square-free integer")
            if not _is_square_free(self.d):
                raise InputError(f"d={self.d} is not square-free")

    @property
    def is_rational(self) -> bool:
        return self.d is None

    @property
    def has_half_integers(self) -> bool:
        """True when the ring of integers is Z[(1+sqrt(-d))/2]."""
        return self.d is not None and self.d % 4 == 3

    def zero(self):
        return Fraction(0) if self.is_rational else QuadScalar(self.d, 0, 0)

    def one(self):
        return Fraction(1) if self.is_rational else QuadScalar(self.d, 1, 0)

    def omega(self) -> "QuadScalar":
        """Generator of the ring of integers over Z: sqrt(-d) or (1+sqrt(-d))/2."""
        if self.is_rational:
            raise InputError("omega is only defined for quadratic fields")
        if self.has_half_integers:
            return QuadScalar(self.d, Fraction(1, 2), Fraction(1, 2))
        return QuadScalar(self.d, 0, 1)

    def coerce(self, x):
        """Coerce ints, Fractions and compatible QuadScalars into this field."""
        # a value already in the field comes back after a type check alone
        t = type(x)
        if t is Fraction:
            if self.d is None:
                return x
        elif t is QuadScalar and self.d is not None and x.d == self.d:
            return x
        if isinstance(x, QuadScalar):
            if self.is_rational or x.d != self.d:
                raise InputError(f"scalar {x} does not live in {self}")
            return x
        x = _frac(x)
        return x if self.is_rational else QuadScalar(self.d, x, 0)

    def __str__(self):
        return "Q" if self.is_rational else f"Q(sqrt(-{self.d}))"


QQ = Field(None)
GAUSS = Field(1)
EISENSTEIN = Field(3)


class QuadScalar:
    """Element a + b*sqrt(-d) of an imaginary quadratic field."""

    __slots__ = ("d", "a", "b")

    def __init__(self, d: int, a: Rat, b: Rat):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))

    def __setattr__(self, *args):
        raise AttributeError("QuadScalar is immutable")

    def _coerce(self, other) -> "QuadScalar | None":
        if isinstance(other, QuadScalar):
            return other if other.d == self.d else None
        if isinstance(other, (int, Fraction)):
            return QuadScalar(self.d, other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadScalar(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(self.d, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadScalar(self.d, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadScalar(
            self.d,
            self.a * o.a - self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        num = self * o.conjugate()
        return QuadScalar(self.d, num.a / n, num.b / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def conjugate(self) -> "QuadScalar":
        return QuadScalar(self.d, self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm a^2 + d*b^2, a nonnegative rational."""
        return self.a * self.a + self.d * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_integral(self) -> bool:
        """Membership in the ring of integers of Q(sqrt(-d))."""
        if self.d % 4 == 3:
            two_a = 2 * self.a
            two_b = 2 * self.b
            return (
                two_a.denominator == 1
                and two_b.denominator == 1
                and (self.a - self.b).denominator == 1
            )
        return self.a.denominator == 1 and self.b.denominator == 1

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.d, self.a, self.b))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"QuadScalar({self.d}, {self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt(-{self.d})"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}*sqrt(-{self.d})"


# -- generic scalar helpers (Fraction or QuadScalar) -------------------------

Scalar = Union[Fraction, QuadScalar]


def as_rational(x: Scalar) -> Fraction:
    """Extract a Fraction from a scalar known to be rational."""
    if isinstance(x, QuadScalar):
        if x.b != 0:
            raise InputError(f"scalar {x} is not rational")
        return x.a
    return _frac(x)


class ExactMatrix:
    """Immutable dense matrix with exact entries over Q or Q(sqrt(-d))."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, field: Field, entries: Sequence[Sequence]):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        coerced = []
        for r in entries:
            if len(r) != cols:
                raise InputError("ragged matrix rows")
            coerced.append(tuple(field.coerce(x) for x in r))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(coerced))
        object.__setattr__(self, "field", field)

    def __setattr__(self, *args):
        raise AttributeError("ExactMatrix is immutable")

    # -- construction ---------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "ExactMatrix":
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "ExactMatrix":
        zero = field.zero()
        return cls(field, [[zero] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence]) -> "ExactMatrix":
        rows = len(columns[0])
        return cls(field, [[columns[j][i] for j in range(len(columns))] for i in range(rows)])

    # -- accessors --------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i) -> tuple:
        return self.entries[i]

    def column(self, j) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.entries)
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field}: {body})"

    # -- arithmetic -------------------------------------------------------

    def _check_same_field(self, other: "ExactMatrix"):
        if self.field != other.field:
            raise InputError("matrices over different fields")

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("dimension mismatch in addition")
        return ExactMatrix(
            self.field,
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scaled(-1)

    def scaled(self, c) -> "ExactMatrix":
        c = self.field.coerce(c)
        return ExactMatrix(
            self.field,
            [[c * x for x in row] for row in self.entries],
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise InputError("dimension mismatch in product")
        zero = self.field.zero()
        out = []
        ot = other.transpose().entries
        for i in range(self.rows):
            ri = self.entries[i]
            row = []
            for j in range(other.cols):
                cj = ot[j]
                acc = zero
                for k in range(self.cols):
                    x = ri[k]
                    if x:
                        acc = acc + x * cj[k]
                row.append(acc)
            out.append(row)
        return ExactMatrix(self.field, out)

    def mul_vector(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise InputError("dimension mismatch in matrix-vector product")
        v = [self.field.coerce(x) for x in v]
        zero = self.field.zero()
        out = []
        for i in range(self.rows):
            acc = zero
            ri = self.entries[i]
            for k in range(self.cols):
                if v[k]:
                    acc = acc + ri[k] * v[k]
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.field,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def trace(self):
        if self.rows != self.cols:
            raise InputError("trace of a non-square matrix")
        acc = self.field.zero()
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        return not any(x for r in self.entries for x in r)

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_field(other)
        if self.rows != other.rows:
            raise InputError("row count mismatch in hstack")
        return ExactMatrix(
            self.field,
            [list(self.entries[i]) + list(other.entries[i]) for i in range(self.rows)],
        )

    # -- elimination ------------------------------------------------------

    def _echelon(self):
        """Reduced row echelon form by exact elimination: (rows, pivot columns, scale).

        scale is the product of the pivots as they are found, negated once per
        row swap; for a square matrix of full rank that is its determinant.
        """
        m = [list(r) for r in self.entries]
        pivots = []
        scale = self.field.one()
        r = 0
        for c in range(self.cols):
            pivot_row = next((i for i in range(r, self.rows) if m[i][c]), None)
            if pivot_row is None:
                continue
            if pivot_row != r:
                m[r], m[pivot_row] = m[pivot_row], m[r]
                scale = -scale
            scale = scale * m[r][c]
            inv = self.field.one() / m[r][c]
            m[r] = [inv * x for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [m[i][j] - f * m[r][j] for j in range(self.cols)]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots, scale

    def rank(self) -> int:
        return len(self._echelon()[1])

    def det(self):
        if self.rows != self.cols:
            raise InputError("determinant of a non-square matrix")
        _, pivots, scale = self._echelon()
        return scale if len(pivots) == self.rows else self.field.zero()

    def solve(self, rhs: Sequence):
        """A particular solution of M x = rhs, or None when inconsistent."""
        if len(rhs) != self.rows:
            raise InputError("rhs length mismatch")
        aug = ExactMatrix(
            self.field,
            [list(self.entries[i]) + [rhs[i]] for i in range(self.rows)],
        )
        m, pivots, _ = aug._echelon()
        if self.cols in pivots:
            return None
        zero = self.field.zero()
        x = [zero] * self.cols
        for r, c in enumerate(pivots):
            x[c] = m[r][self.cols]
        return tuple(x)

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise InputError("inverse of a non-square matrix")
        n = self.rows
        aug = self.hstack(ExactMatrix.identity(self.field, n))
        m, pivots, _ = aug._echelon()
        if pivots != list(range(n)):
            raise InputError("matrix is singular")
        return ExactMatrix(self.field, [row[n:] for row in m[:n]])


def int_gauss_jordan(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) Gauss-Jordan form of an integer matrix.

    Returns the reduced rows and the pivot columns; the rank is the number
    of pivots.  Every entry stays a minor of the input up to sign, so each
    division is exact.  Each pivot column ends as d times a unit vector, d
    the last pivot: reducing [M | I] for a nonsingular square M leaves
    [d I | d M^-1].  A row swap negates one of the two rows, so that d is
    det M itself.
    """
    a = [list(r) for r in rows]
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], [-x for x in a[r]]
        top, d = a[r], a[r][c]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(d * x - f * y) // prev for x, y in zip(row, top)]
        prev = d
        pivots.append(c)
    return a, pivots


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) forward elimination.

    Each step takes the first remaining row with a nonzero entry in the
    current column as pivot p, drops it, and replaces every entry x of the
    other remaining rows by (p x - f y) / q, f the row's entry in that
    column, y the entry above x in p's row and q the previous pivot.  Every
    entry stays a minor of the input (Bareiss, Math. Comp. 22, 1968), so
    each division is exact.  Nothing above a pivot is eliminated: the rank
    is the number of pivots.
    """
    a = [list(r) for r in rows]
    rank, prev = 0, 1
    while a and a[0]:
        piv = next((i for i, row in enumerate(a) if row[0]), None)
        if piv is None:
            a = [row[1:] for row in a]
            continue
        top = a.pop(piv)
        p, rest = top[0], top[1:]
        a = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], rest)] for row in a]
        rank, prev = rank + 1, p
    return rank


def int_forward(rows: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """Fraction-free (Bareiss) forward elimination of [M | R], M the leading n x n block.

    n is the number of rows; the columns after the first n (R) ride along.
    Returns U, zero below the diagonal of its leading block, or None when M
    is singular.  Step k replaces each entry x below row k by
    (p x - f y) / q, p the pivot, f the entry below p in x's row, y the entry
    above x in p's row and q the previous pivot; every entry stays a minor
    of the input (Bareiss, Math. Comp. 22, 1968), so each division is exact.
    A row swap negates the row moved down, which keeps every minor, so
    U[n-1][n-1] is det M itself.  Each step is an invertible row operation
    over Q, so U X = U_R has the same solutions as M X = R, U_R the columns
    after the first n.
    """
    a = [list(r) for r in rows]
    n = len(a)
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return None
        if piv != c:
            a[c], a[piv] = a[piv], [-x for x in a[c]]
        top, p = a[c], a[c][c]
        for i in range(c + 1, n):
            row, f = a[i], a[i][c]
            a[i] = [0] * (c + 1) + [(p * x - f * y) // prev for x, y in zip(row[c + 1:], top[c + 1:])]
        prev = p
    return a


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: the last Bareiss pivot, or 0."""
    if not rows:
        return 1
    U = int_forward(rows)
    return 0 if U is None else U[-1][-1]


def int_inverse(cols: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(E, d) with M^-1 = E / d and d > 0, for M the matrix with these columns."""
    m = len(cols)
    rows = [[cols[j][i] for j in range(m)] + [int(i == k) for k in range(m)] for i in range(m)]
    red, pivots = int_gauss_jordan(rows)
    if pivots != list(range(m)):
        raise InputError("matrix is singular")
    sign = 1 if red[0][0] > 0 else -1
    return [[sign * x for x in row[m:]] for row in red], sign * red[0][0]


def omega_det(rows: Sequence[Sequence[tuple[int, int]]], t: int) -> tuple[int, int]:
    """Fraction-free (Bareiss) determinant over Z[omega], omega^2 = t omega - 1.

    An entry (u, v) is u + v omega: omega = i for t = 0, (1 + sqrt(-3))/2 for
    t = 1.  Each step eliminates the first column below the pivot p and
    replaces every remaining entry x by (p x - f y) / q, f the entry below p
    in x's row, y the entry above x in p's row and q the previous pivot.  The
    new entries are minors of the input (Bareiss, Math. Comp. 22, 1968), so
    q divides them in Z[omega], and the quotient is the product with the
    conjugate (a + tb, -b) of q = a + b omega over its norm a^2 + tab + b^2.
    A row swap negates the row moved down, so the last pivot is the
    determinant itself.
    """

    def mul(x, y):
        (a, b), (c, e) = x, y
        return a * c - b * e, a * e + b * c + t * b * e

    a = [[tuple(x) for x in row] for row in rows]
    p, conj, norm = (1, 0), (1, 0), 1
    while a:
        piv = next((i for i, row in enumerate(a) if any(row[0])), None)
        if piv is None:
            return 0, 0
        if piv:
            a[0], a[piv] = a[piv], [(-u, -v) for u, v in a[0]]
        top = a.pop(0)
        p = top[0]
        for i, row in enumerate(a):
            f = row[0]
            a[i] = new = []
            for x, y in zip(row[1:], top[1:]):
                (pu, pv), (fu, fv) = mul(p, x), mul(f, y)
                u, v = mul((pu - fu, pv - fv), conj)
                new.append((u // norm, v // norm))
        conj, norm = (p[0] + t * p[1], -p[1]), p[0] * p[0] + t * p[0] * p[1] + p[1] * p[1]
    return p
