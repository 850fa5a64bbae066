"""Structure-constant algebras and the exact rank-1 machinery.

An algebra is given by its multiplication table gamma[i][j][k] with
a_i * a_j = sum_k gamma[i][j][k] a_k over Q or an imaginary quadratic
field.  Everything here is exact; no floating point enters any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError, InternalError, NoIdentityError, PromiseViolation
from .exactnum import ExactMatrix, Field, scalar_is_zero


class StructureConstants:
    """Multiplication table of a finite dimensional associative algebra."""

    def __init__(self, field: Field, gamma: Sequence[Sequence[Sequence]]):
        m = len(gamma)
        coerced = []
        for i in range(m):
            if len(gamma[i]) != m:
                raise InputError("gamma must be an m x m x m grid")
            plane = []
            for j in range(m):
                if len(gamma[i][j]) != m:
                    raise InputError("gamma must be an m x m x m grid")
                plane.append(tuple(field.coerce(x) for x in gamma[i][j]))
            coerced.append(tuple(plane))
        self.field = field
        self.m = m
        self.gamma = tuple(coerced)
        self._left_mats: list[ExactMatrix] | None = None
        self._identity: tuple | None = None

    # -- basic structure ----------------------------------------------------

    @property
    def n(self) -> int:
        """Target matrix size under the promise m = n^2."""
        r = math.isqrt(self.m)
        if r * r != self.m:
            raise InputError(f"dimension {self.m} is not a perfect square")
        return r

    def basis_left_matrices(self) -> list[ExactMatrix]:
        """Matrix of y -> a_i * y for each basis element, in the a-basis."""
        if self._left_mats is None:
            mats = []
            for i in range(self.m):
                # column j of L_i is the coordinate vector of a_i * a_j
                mats.append(
                    ExactMatrix(
                        self.field,
                        [
                            [self.gamma[i][j][k] for j in range(self.m)]
                            for k in range(self.m)
                        ],
                    )
                )
            self._left_mats = mats
        return self._left_mats

    def multiply(self, x: Sequence, y: Sequence) -> tuple:
        """Coordinates of the product of two coordinate vectors."""
        if len(x) != self.m or len(y) != self.m:
            raise InputError("coordinate length mismatch")
        zero = self.field.zero()
        out = [zero] * self.m
        for i in range(self.m):
            xi = self.field.coerce(x[i])
            if scalar_is_zero(xi):
                continue
            gi = self.gamma[i]
            for j in range(self.m):
                yj = self.field.coerce(y[j])
                if scalar_is_zero(yj):
                    continue
                c = xi * yj
                gij = gi[j]
                for k in range(self.m):
                    if not scalar_is_zero(gij[k]):
                        out[k] = out[k] + c * gij[k]
        return tuple(out)

    def left_regular(self, x: Sequence) -> ExactMatrix:
        """Matrix of y -> x * y in the a-basis."""
        zero = self.field.zero()
        rows = [[zero] * self.m for _ in range(self.m)]
        for i in range(self.m):
            xi = self.field.coerce(x[i])
            if scalar_is_zero(xi):
                continue
            gi = self.gamma[i]
            for j in range(self.m):
                gij = gi[j]
                for k in range(self.m):
                    if not scalar_is_zero(gij[k]):
                        rows[k][j] = rows[k][j] + xi * gij[k]
        return ExactMatrix(self.field, rows)

    def right_regular(self, x: Sequence) -> ExactMatrix:
        """Matrix of y -> y * x in the a-basis; columns span A*x."""
        zero = self.field.zero()
        rows = [[zero] * self.m for _ in range(self.m)]
        for j in range(self.m):
            xj = self.field.coerce(x[j])
            if scalar_is_zero(xj):
                continue
            for i in range(self.m):
                gij = self.gamma[i][j]
                for k in range(self.m):
                    if not scalar_is_zero(gij[k]):
                        rows[k][i] = rows[k][i] + xj * gij[k]
        return ExactMatrix(self.field, rows)

    def find_identity(self) -> "AlgebraElement":
        """Two-sided identity by exact linear solve; raises when none exists."""
        if self._identity is not None:
            return AlgebraElement(self, self._identity)
        # stack the equations e * a_j = a_j and a_j * e = a_j for all j
        rows = []
        rhs = []
        rights = [self.right_regular(_unit(self, j)) for j in range(self.m)]
        lefts = self.basis_left_matrices()
        for j in range(self.m):
            for k in range(self.m):
                rows.append([rights[j].entries[k][i] for i in range(self.m)])
                rhs.append(self.field.one() if k == j else self.field.zero())
        for j in range(self.m):
            for k in range(self.m):
                rows.append([lefts[j].entries[k][i] for i in range(self.m)])
                rhs.append(self.field.one() if k == j else self.field.zero())
        sol = ExactMatrix(self.field, rows).solve(rhs)
        if sol is None:
            raise NoIdentityError("the table has no two-sided identity")
        self._identity = sol
        return AlgebraElement(self, sol)

    def validate(self) -> list[str]:
        """All associativity identities plus identity existence, exactly.

        Returns a list of violation descriptions; empty means valid.
        """
        violations = []
        r = math.isqrt(self.m)
        if r * r != self.m:
            violations.append(f"dimension {self.m} is not a perfect square")
        for i, j in self._associativity_failures():
            violations.append(f"associativity fails on the pair (a_{i}, a_{j})")
        try:
            self.find_identity()
        except NoIdentityError:
            violations.append("no two-sided identity element")
        return violations

    def _associativity_failures(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with (a_i a_j) a_k != a_i (a_j a_k) for some k.

        That is L(a_i) L(a_j) != L(a_i a_j), compared column by column on
        the structure constants in O(m^5) scalar operations.  Over Q the
        table is first scaled by the lcm of its denominators; both sides
        scale by its square, so the failing pairs stay the same and all
        arithmetic is on ints.
        """
        m = self.m
        gamma = self.gamma
        if self.field.is_rational:
            den = math.lcm(*(x.denominator for gi in gamma for gij in gi for x in gij))
            gamma = [
                [[x.numerator * (den // x.denominator) for x in gij] for gij in gi]
                for gi in gamma
            ]
        # nonzero (index, value) pairs of each product a_i a_j
        nz = [[[(s, x) for s, x in enumerate(gij) if x] for gij in gi] for gi in gamma]
        failures = []
        for i in range(m):
            nz_i = nz[i]
            for j in range(m):
                nz_ij, nz_j = nz_i[j], nz[j]
                for k in range(m):
                    # int 0 starts both sums; QuadScalar adds and compares with it
                    lhs = [0] * m
                    for r, c in nz_ij:
                        for s, x in nz[r][k]:
                            lhs[s] += c * x
                    rhs = [0] * m
                    for r, c in nz_j[k]:
                        for s, x in nz_i[r]:
                            rhs[s] += c * x
                    if lhs != rhs:
                        failures.append((i, j))
                        break
        return failures

    def element(self, coords: Sequence) -> "AlgebraElement":
        return AlgebraElement(self, coords)

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self.field == other.field and self.gamma == other.gamma

    def __repr__(self):
        return f"StructureConstants(dim={self.m} over {self.field})"


def _unit(table: StructureConstants, j: int) -> tuple:
    v = [table.field.zero()] * table.m
    v[j] = table.field.one()
    return tuple(v)


class AlgebraElement:
    """Element of a structure-constant algebra, held as exact coordinates."""

    __slots__ = ("table", "coords")

    def __init__(self, table: StructureConstants, coords: Sequence):
        if len(coords) != table.m:
            raise InputError("coordinate length mismatch")
        object.__setattr__(self, "table", table)
        object.__setattr__(
            self, "coords", tuple(table.field.coerce(c) for c in coords)
        )

    def __setattr__(self, *args):
        raise AttributeError("AlgebraElement is immutable")

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.table is not other.table and self.table != other.table:
            raise InputError("elements of different algebras")
        return AlgebraElement(self.table, self.table.multiply(self.coords, other.coords))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(
            self.table, [a + b for a, b in zip(self.coords, other.coords)]
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(
            self.table, [a - b for a, b in zip(self.coords, other.coords)]
        )

    def scaled(self, c) -> "AlgebraElement":
        c = self.table.field.coerce(c)
        return AlgebraElement(self.table, [c * x for x in self.coords])

    def is_zero(self) -> bool:
        return all(scalar_is_zero(c) for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.table == other.table and self.coords == other.coords

    def __repr__(self):
        return f"AlgebraElement{self.coords}"


@dataclass(frozen=True)
class IsomorphismWitness:
    """Exactly verified images a_i -> phi(a_i) in M_n(K).

    ``left_ideal_basis`` spans A*C for the rank one element C; phi is left
    multiplication on that ideal, so phi(x) phi(y) = phi(xy) holds exactly.
    """

    left_ideal_basis: tuple
    images: tuple
    rank_one_element: AlgebraElement

    @property
    def n(self) -> int:
        return self.images[0].rows


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear product through the structure constants."""
    return x * y


def find_identity(table: StructureConstants) -> AlgebraElement:
    return table.find_identity()


def validate(table: StructureConstants) -> list[str]:
    return table.validate()


def left_regular(x: AlgebraElement) -> ExactMatrix:
    return x.table.left_regular(x.coords)


def ideal_rank(C: AlgebraElement, n: int | None = None) -> int:
    """Rank of C as a matrix under any isomorphism to M_n(K).

    Computed exactly as dim(C*A) / n from the regular representation, so the
    answer never depends on floating point.  Raises PromiseViolation when the
    dimension is not divisible by n, which cannot happen for a genuine full
    matrix algebra.
    """
    table = C.table
    if n is None:
        n = table.n
    dim = table.left_regular(C.coords).rank()
    if dim % n != 0:
        raise PromiseViolation(
            f"dim(C*A) = {dim} is not divisible by n = {n}; "
            "the algebra cannot be a full matrix algebra of this size"
        )
    return dim // n


def build_isomorphism(table: StructureConstants, C: AlgebraElement) -> IsomorphismWitness:
    """Explicit isomorphism A -> M_n(K) from a rank one element C.

    Takes the left ideal A*C (dimension n), expresses left multiplication by
    each basis element on it, and verifies multiplicativity on all basis
    pairs plus unitality, all in exact arithmetic.
    """
    n = table.n
    if ideal_rank(C, n) != 1:
        raise InputError("build_isomorphism requires a rank one element")
    # columns of the right regular matrix span A*C; its echelon pivots
    # index an independent column subset
    rmat = table.right_regular(C.coords)
    _, pivots = rmat._echelon()
    if len(pivots) != n:
        raise InternalError("left ideal dimension changed between rank and basis")
    basis_cols = [rmat.column(p) for p in pivots]
    W = ExactMatrix.from_columns(table.field, basis_cols)
    images = []
    for i in range(table.m):
        li = table.basis_left_matrices()[i]
        cols = []
        for j in range(n):
            target = li.mul_vector(basis_cols[j])
            sol = W.solve(target)
            if sol is None:
                raise InternalError("left ideal is not invariant; invalid input?")
            cols.append(sol)
        images.append(ExactMatrix.from_columns(table.field, cols))
    _verify_witness(table, images)
    return IsomorphismWitness(
        left_ideal_basis=tuple(AlgebraElement(table, c) for c in basis_cols),
        images=tuple(images),
        rank_one_element=C,
    )


def _multiplicativity_failures(table: StructureConstants, images: Sequence[ExactMatrix]):
    """Basis pairs (i, j) with phi(a_i) phi(a_j) != sum_k gamma_ijk phi(a_k)."""
    n = table.n
    for i in range(table.m):
        for j in range(table.m):
            prod = images[i] @ images[j]
            acc = ExactMatrix.zeros(table.field, n, n)
            for k in range(table.m):
                c = table.gamma[i][j][k]
                if not scalar_is_zero(c):
                    acc = acc + images[k].scaled(c)
            if prod != acc:
                yield i, j


def _verify_witness(table: StructureConstants, images: Sequence[ExactMatrix]):
    n = table.n
    for i, j in _multiplicativity_failures(table, images):
        raise InternalError(f"multiplicativity fails on the basis pair ({i}, {j})")
    e = table.find_identity()
    phi_e = ExactMatrix.zeros(table.field, n, n)
    for k in range(table.m):
        if not scalar_is_zero(e.coords[k]):
            phi_e = phi_e + images[k].scaled(e.coords[k])
    if phi_e != ExactMatrix.identity(table.field, n):
        raise InternalError("phi(1) is not the identity matrix")


def witness_residual(table: StructureConstants, witness: IsomorphismWitness):
    """Exact multiplicativity defect; the zero matrix count for a valid witness.

    Returns the number of basis pairs with a nonzero defect (always 0 for
    witnesses produced by build_isomorphism; exposed for external checking).
    """
    return sum(1 for _ in _multiplicativity_failures(table, witness.images))


def matrix_units_table(n: int, field: Field = None) -> StructureConstants:
    """Structure constants of M_n on the matrix-unit basis E_11, E_12, ..."""
    from .exactnum import QQ

    field = field or QQ
    if n < 1:
        raise InputError("n must be positive")
    m = n * n
    zero, one = field.zero(), field.one()
    gamma = [[[zero] * m for _ in range(m)] for _ in range(m)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for e in range(n):
                    if b == c:
                        gamma[a * n + b][c * n + e][a * n + e] = one
    return StructureConstants(field, gamma)


def trace_gram(table: StructureConstants, basis_elems: Sequence[AlgebraElement]) -> ExactMatrix:
    """Gram matrix [Tr(L_{b_i b_j})] of the regular trace form.

    Computed as B^T T B in O(m^3) operations: the columns of B are the
    coordinates of the b_i, and T_kl = Tr(L_{a_k a_l}) = sum_r gamma_klr t_r
    with t_r = Tr(L_{a_r}) = sum_j gamma_rjj.
    """
    zero = table.field.zero()
    t = [sum((g_r[j][j] for j in range(table.m)), zero) for g_r in table.gamma]
    T = [[_dot(g_kl, t, zero) for g_kl in g_k] for g_k in table.gamma]
    cols = [b.coords for b in basis_elems]
    TB = [[_dot(c, row, zero) for row in T] for c in cols]
    return ExactMatrix(table.field, [[_dot(c, u, zero) for u in TB] for c in cols])


def _dot(x: Sequence, y: Sequence, zero):
    """Bilinear dot product, skipping the zero entries of x."""
    return sum((a * b for a, b in zip(x, y) if a), zero)


def reduced_trace_gram(table: StructureConstants, basis_elems: Sequence[AlgebraElement]) -> ExactMatrix:
    """Gram matrix of the matrix-trace form, i.e. trace_gram scaled by 1/n.

    For an order basis in a full matrix algebra the entries are integral and
    the determinant of this Gram is +-1 exactly at maximal orders over Q.
    """
    g = trace_gram(table, basis_elems)
    inv_n = Fraction(1, table.n)
    return g.scaled(inv_n)
