"""Orders in structure-constant algebras and maximal order saturation.

Over Q the saturation works on integer lattices in the a-basis: find the
radical of Lambda/p Lambda, pass to the left (or right) order of the
corresponding ideal, and when that stalls refine along the minimal
two-sided ideals of the semisimple quotient.  Orders over Q(i) and
Q(sqrt(-3)) go through their rank-2m integral restriction, are saturated
there, and come back to a ring-of-integers basis by Euclidean column
reduction; a maximal integral order in an algebra with quadratic center is
automatically a maximal module over the ring of integers of the center.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .algebra import AlgebraElement, StructureConstants, trace_gram
from .errors import (
    FactorBudgetError,
    InputError,
    InternalError,
    PromiseViolation,
)
from .exactnum import QQ, ExactMatrix, Field, QuadScalar, as_rational
from .quadfield import nearest_integer

# ---------------------------------------------------------------------------
# integer lattice utilities
# ---------------------------------------------------------------------------


def hnf_columns(columns: Sequence[Sequence[int]], dim: int) -> list[list[int]]:
    """Canonical column Hermite form of the integer span of the columns.

    Returns the pivot columns (full rank expected callers get dim columns);
    pivots are positive and earlier columns are reduced modulo later pivots.
    """
    work = [list(c) for c in columns if any(c)]
    result: list[list[int]] = []
    for r in range(dim):
        live = [c for c in work if c[r] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[r]))
            a = live[0]
            for c in live[1:]:
                q = round(Fraction(c[r], a[r]))
                if q:
                    for i in range(dim):
                        c[i] -= q * a[i]
            live = [c for c in work if c[r] != 0]
        piv = live[0]
        if piv[r] < 0:
            for i in range(dim):
                piv[i] = -piv[i]
        work.remove(piv)
        work = [c for c in work if any(c)]
        # reduce row r of previously found pivot columns into [0, piv[r])
        for c in result:
            q = c[r] // piv[r]
            if q:
                for i in range(dim):
                    c[i] -= q * piv[i]
        result.append(piv)
    return result


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of {x in Z^ncols : M x = 0} via tracked column reduction."""
    m = [list(r) for r in rows]
    nrows = len(m)
    U = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    # column reduction: for each row, clear all but one entry
    used_cols: set[int] = set()
    for r in range(nrows):
        live = [j for j in range(ncols) if j not in used_cols and m[r][j] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: abs(m[r][j]))
            a = live[0]
            for j in live[1:]:
                q = round(Fraction(m[r][j], m[r][a]))
                if q:
                    for i in range(nrows):
                        m[i][j] -= q * m[i][a]
                    for i in range(ncols):
                        U[i][j] -= q * U[i][a]
            live = [j for j in range(ncols) if j not in used_cols and m[r][j] != 0]
        used_cols.add(live[0])
    kernel = []
    for j in range(ncols):
        if j in used_cols:
            continue
        if all(m[r][j] == 0 for r in range(nrows)):
            kernel.append([U[i][j] for i in range(ncols)])
    return kernel


def congruence_kernel(rows: Sequence[Sequence[int]], q: int, dim: int) -> list[list[int]]:
    """HNF basis of the lattice {w in Z^dim : rows * w = 0 mod q}."""
    nrows = len(rows)
    aug = [list(r) + [q if i == t else 0 for t in range(nrows)] for i, r in enumerate(rows)]
    ker = integer_kernel(aug, dim + nrows)
    gens = [v[:dim] for v in ker]
    gens += [[q if i == t else 0 for i in range(dim)] for t in range(dim)]
    basis = hnf_columns(gens, dim)
    if len(basis) != dim:
        raise InternalError("congruence kernel lost full rank")
    return basis


class ZLattice:
    """Full-rank lattice in Q^dim held as a canonical integer Hermite basis."""

    __slots__ = ("dim", "den", "cols")

    def __init__(self, dim: int, den: int, int_columns: Sequence[Sequence[int]]):
        basis = hnf_columns(int_columns, dim)
        if len(basis) != dim:
            raise InputError("lattice generators do not have full rank")
        g = den
        for c in basis:
            for x in c:
                g = math.gcd(g, abs(x))
        if g > 1:
            den //= g
            basis = [[x // g for x in c] for c in basis]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "cols", tuple(tuple(c) for c in basis))

    def __setattr__(self, *args):
        raise AttributeError("ZLattice is immutable")

    @classmethod
    def from_rational_columns(cls, columns: Sequence[Sequence[Fraction]], dim: int) -> "ZLattice":
        den = 1
        fracs = [[Fraction(x) for x in c] for c in columns]
        for c in fracs:
            for x in c:
                den = den * x.denominator // math.gcd(den, x.denominator)
        ints = [[int(x * den) for x in c] for c in fracs]
        return cls(dim, den, ints)

    def basis_fractions(self) -> list[tuple[Fraction, ...]]:
        return [tuple(Fraction(x, self.den) for x in c) for c in self.cols]

    def contains(self, vec: Sequence[Fraction]) -> bool:
        target = [Fraction(x) * self.den for x in vec]
        coefs = self._solve(target)
        return coefs is not None and all(c.denominator == 1 for c in coefs)

    def _solve(self, target: list[Fraction]):
        # triangular back-substitution against the HNF column structure
        cols = [list(c) for c in self.cols]
        t = list(target)
        coefs = [Fraction(0)] * self.dim
        for j in range(self.dim):
            # pivot row of column j: first nonzero entry
            r = next(i for i in range(self.dim) if cols[j][i] != 0)
            c = Fraction(t[r], cols[j][r])
            coefs[j] = c
            if c:
                for i in range(self.dim):
                    t[i] -= c * cols[j][i]
        if any(t):
            return None
        return coefs

    def sum(self, other: "ZLattice") -> "ZLattice":
        den = self.den * other.den // math.gcd(self.den, other.den)
        cols = [[x * (den // self.den) for x in c] for c in self.cols]
        cols += [[x * (den // other.den) for x in c] for c in other.cols]
        return ZLattice(self.dim, den, cols)

    def __eq__(self, other):
        if not isinstance(other, ZLattice):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.cols == other.cols

    def __hash__(self):
        return hash((self.dim, self.den, self.cols))


# ---------------------------------------------------------------------------
# F_p linear algebra
# ---------------------------------------------------------------------------


def _fp_inv(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise InternalError("division by zero mod p; is p really prime?")
    return pow(a, p - 2, p)


def _fp_rref(rows: list[list[int]], p: int):
    m = [[x % p for x in r] for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = _fp_inv(m[r][c], p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _fp_kernel(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    if not rows:
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    m, pivots = _fp_rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-m[r][f]) % p
        out.append(v)
    return out


def _fp_solve(rows: list[list[int]], rhs: list[int], p: int):
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m, pivots = _fp_rref(aug, p)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][ncols] % p
    return x


# polynomial arithmetic mod p (ascending coefficients)


def _poly_trim(f: list[int]) -> list[int]:
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _poly_divmod(f: list[int], g: list[int], p: int):
    f = [x % p for x in f]
    g = [x % p for x in g]
    _poly_trim(g)
    if g == [0]:
        raise ZeroDivisionError
    inv = _fp_inv(g[-1], p)
    q = [0] * max(1, len(f) - len(g) + 1)
    r = list(f)
    while len(_poly_trim(r)) >= len(g) and any(r):
        shift = len(r) - len(g)
        c = (r[-1] * inv) % p
        q[shift] = c
        for i, gc in enumerate(g):
            r[shift + i] = (r[shift + i] - c * gc) % p
        _poly_trim(r)
    return _poly_trim(q), _poly_trim(r)


def _poly_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    f, g = _poly_trim([x % p for x in f]), _poly_trim([x % p for x in g])
    while any(g):
        f, g = g, _poly_divmod(f, g, p)[1]
    if any(f):
        inv = _fp_inv(f[-1], p)
        f = [(x * inv) % p for x in f]
    return f


def _poly_mulmod(f, g, h, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_divmod(out, h, p)[1]


def _poly_powmod(base, e, h, p):
    result = [1]
    base = _poly_divmod(base, h, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, h, p)
        base = _poly_mulmod(base, base, h, p)
        e >>= 1
    return result


def _split_roots(f: list[int], p: int, rng: random.Random) -> list[int]:
    """Roots of a squarefree monic polynomial that splits completely mod p."""
    f = _poly_trim([x % p for x in f])
    if len(f) == 1:
        return []
    if len(f) == 2:
        # x + c -> root -c / lead
        return [(-f[0] * _fp_inv(f[1], p)) % p]
    if p <= 29:
        return [a for a in range(p) if _poly_eval(f, a, p) == 0]
    # random shift splitting with (x+a)^((p-1)/2) - 1
    while True:
        a = rng.randrange(p)
        probe = _poly_powmod([a, 1], (p - 1) // 2, f, p)
        probe = _poly_trim([(c - (1 if i == 0 else 0)) % p for i, c in enumerate(probe)] or [0])
        g = _poly_gcd(f, probe, p)
        if 1 < len(g) < len(f):
            h = _poly_divmod(f, g, p)[0]
            return _split_roots(g, p, rng) + _split_roots(h, p, rng)


def _poly_eval(f: list[int], a: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % p
    return acc


# ---------------------------------------------------------------------------
# the Order type
# ---------------------------------------------------------------------------


class Order:
    """Unital multiplicatively closed full lattice in a structure-constant algebra."""

    def __init__(self, table: StructureConstants, basis_matrix: ExactMatrix):
        if basis_matrix.rows != table.m or basis_matrix.cols != table.m:
            raise InputError("order basis must be square of the algebra dimension")
        self.table = table
        self.basis_matrix = basis_matrix
        self._inv = basis_matrix.inverse()
        self._mult_table: list[list[tuple]] | None = None
        self._disc = None

    # coordinates of order basis element j in the a-basis
    def element(self, j: int) -> AlgebraElement:
        return AlgebraElement(self.table, self.basis_matrix.column(j))

    def elements(self) -> list[AlgebraElement]:
        return [self.element(j) for j in range(self.table.m)]

    def to_order_coords(self, coords: Sequence) -> tuple:
        return self._inv.mul_vector(coords)

    def from_order_coords(self, vec: Sequence) -> tuple:
        return self.basis_matrix.mul_vector(vec)

    def contains(self, coords: Sequence) -> bool:
        return all(_is_integral_scalar(x) for x in self.to_order_coords(coords))

    def multiplication_table(self) -> list[list[tuple]]:
        """Products of basis pairs in order coordinates; entries are integral."""
        if self._mult_table is None:
            m = self.table.m
            cols = [self.basis_matrix.column(j) for j in range(m)]
            tab = []
            for i in range(m):
                row = []
                for j in range(m):
                    prod = self.table.multiply(cols[i], cols[j])
                    row.append(self.to_order_coords(prod))
                tab.append(row)
            self._mult_table = tab
        return self._mult_table

    def verify(self) -> list[str]:
        """Exact closure and unitality violations (empty for a genuine order)."""
        problems = []
        try:
            e = self.table.find_identity()
            if not self.contains(e.coords):
                problems.append("identity is not in the lattice")
        except Exception as exc:  # NoIdentityError propagates as a message
            problems.append(str(exc))
        for i, row in enumerate(self.multiplication_table()):
            for j, prod in enumerate(row):
                if not all(_is_integral_scalar(x) for x in prod):
                    problems.append(f"product b_{i} b_{j} leaves the lattice")
        return problems

    @property
    def discriminant(self):
        """Determinant of the matrix-trace Gram of the order basis.

        The regular trace is divided by n for an algebra of dimension n^2
        over its base field, or by n = sqrt(m/2) for the rank-2m rational
        restriction of a quadratic one, so that maximal orders of split
        algebras over Q land exactly on discriminant +-1.
        """
        if self._disc is None:
            g = trace_gram(self.table, self.elements())
            div = _trace_divisor(self.table.m)
            if div > 1:
                g = g.scaled(Fraction(1, div))
            self._disc = g.det()
        return self._disc

    def same_lattice(self, other: "Order") -> bool:
        cols_self = [self.basis_matrix.column(j) for j in range(self.table.m)]
        cols_other = [other.basis_matrix.column(j) for j in range(self.table.m)]
        return all(other.contains(c) for c in cols_self) and all(
            self.contains(c) for c in cols_other
        )

    def __repr__(self):
        return f"Order(dim={self.table.m} over {self.table.field})"


def _is_integral_scalar(x) -> bool:
    if isinstance(x, QuadScalar):
        return x.is_integral()
    return Fraction(x).denominator == 1


def _trace_divisor(m: int) -> int:
    r = math.isqrt(m)
    if r * r == m:
        return r
    r = math.isqrt(m // 2)
    if 2 * r * r == m:
        return r
    return 1


def _order_from_zlattice(table: StructureConstants, lat: ZLattice) -> Order:
    cols = lat.basis_fractions()
    return Order(table, ExactMatrix.from_columns(QQ, [list(c) for c in cols]))


# ---------------------------------------------------------------------------
# initial order
# ---------------------------------------------------------------------------


def initial_order(table: StructureConstants) -> Order:
    """A starting order: scaled basis plus identity, closed under products."""
    m = table.m
    field = table.field
    ell = 1
    for i in range(m):
        for j in range(m):
            for k in range(m):
                d = _scalar_denominator(table.gamma[i][j][k])
                ell = ell * d // math.gcd(ell, d)
    e = table.find_identity()
    gens = []
    for i in range(m):
        gens.append(tuple(field.coerce(ell if k == i else 0) for k in range(m)))
    gens.append(tuple(field.coerce(x) for x in e.coords))
    # a basis of the span of some vectors, and the membership test for it:
    # Hermite form over Z, Euclidean column reduction over O_K
    if field.is_rational:
        def span(vecs):
            lat = ZLattice.from_rational_columns(vecs, m)
            return lat.basis_fractions(), lat.contains
    else:
        def span(vecs):
            cols = _ok_triangular(field, vecs, m)
            return cols, lambda v: _ok_contains(field, cols, v)
    cols, contains = span(gens)
    for _ in range(64):
        missing = []
        for bi in cols:
            for bj in cols:
                prod = table.multiply(bi, bj)
                if not contains(prod):
                    missing.append(tuple(prod))
        if not missing:
            return Order(table, ExactMatrix.from_columns(field, [list(c) for c in cols]))
        cols, contains = span(list(cols) + missing)
    raise InternalError("multiplicative closure did not stabilize")


def _scalar_denominator(x) -> int:
    if isinstance(x, QuadScalar):
        return x.denominator()
    return Fraction(x).denominator


# Euclidean column reduction over the ring of integers of Q(sqrt(-d))


def _ok_triangular(field: Field, columns, dim: int):
    work = [list(field.coerce(x) for x in c) for c in columns]
    work = [c for c in work if any(not x.is_zero() for x in c)]
    result = []
    for r in range(dim):
        live = [c for c in work if not c[r].is_zero()]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda c: c[r].norm())
            a = live[0]
            for c in live[1:]:
                q = nearest_integer(c[r] / a[r])
                if not q.is_zero():
                    for i in range(dim):
                        c[i] = c[i] - q * a[i]
            work = [c for c in work if any(not x.is_zero() for x in c)]
            live = [c for c in work if not c[r].is_zero()]
        piv = live[0]
        work.remove(piv)
        result.append(piv)
    if len(result) != dim:
        raise InputError("generators do not span a full module")
    return [tuple(c) for c in result]


def _ok_contains(field: Field, triangular_cols, vec) -> bool:
    t = [field.coerce(x) for x in vec]
    dim = len(t)
    for col in triangular_cols:
        r = next(i for i in range(dim) if not col[i].is_zero())
        c = t[r] / col[r]
        if not c.is_zero():
            for i in range(dim):
                t[i] = t[i] - c * col[i]
        if not c.is_integral():
            return False
    return all(x.is_zero() for x in t)


# ---------------------------------------------------------------------------
# radical of Lambda / p Lambda
# ---------------------------------------------------------------------------


def _order_int_mult(order: Order):
    """Integer structure constants of the order basis, as nested ints."""
    tab = order.multiplication_table()
    m = order.table.m
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            vec = []
            for x in tab[i][j]:
                if isinstance(x, QuadScalar):
                    raise InternalError("integer multiplication needs a rational order")
                fx = Fraction(x)
                if fx.denominator != 1:
                    raise InternalError("order multiplication table is not integral")
                vec.append(int(fx))
            row.append(vec)
        out.append(row)
    return out


def _int_mult_vectors(c, x: Sequence[int], y: Sequence[int]) -> list[int]:
    m = len(c)
    out = [0] * m
    for i in range(m):
        xi = x[i]
        if not xi:
            continue
        ci = c[i]
        for j in range(m):
            yj = y[j]
            if not yj:
                continue
            cij = ci[j]
            f = xi * yj
            for k in range(m):
                if cij[k]:
                    out[k] += f * cij[k]
    return out


def _int_left_matrix(c, x: Sequence[int]) -> list[list[int]]:
    m = len(c)
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        xi = x[i]
        if not xi:
            continue
        ci = c[i]
        for j in range(m):
            cij = ci[j]
            for k in range(m):
                if cij[k]:
                    rows[k][j] += xi * cij[k]
    return rows


def _trace_power_mod(mat: list[list[int]], e: int, mod: int) -> int:
    m = len(mat)
    cur = [[x % mod for x in row] for row in mat]
    result = None
    base = cur

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(m)) % mod for j in range(m)]
            for i in range(m)
        ]

    ee = e
    while ee:
        if ee & 1:
            result = base if result is None else matmul(result, base)
        ee >>= 1
        if ee:
            base = matmul(base, base)
    return sum(result[i][i] for i in range(m)) % mod


def p_radical(order: Order, p: int) -> list[list[int]]:
    """Basis of the radical of Lambda/p Lambda in order coordinates.

    Stage 0 is the kernel of the trace form; for p not exceeding the
    dimension further stages cut by the functions x -> Tr(M_{xy}^(p^j))/p^j
    mod p, which are linear on the previous stage.  Returns integer vectors
    whose residues span the radical.
    """
    if p < 2 or any(p % k == 0 for k in range(2, min(p, 1 + math.isqrt(p)))):
        raise InputError(f"{p} is not prime")
    if not order.table.field.is_rational:
        _, rest_order = restrict_order(order)
        return p_radical(rest_order, p)
    c = _order_int_mult(order)
    m = order.table.m
    current = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    j = 0
    while p**j <= m and current:
        pj = p**j
        modulus = p ** (j + 1)
        rows = []
        for y in range(m):
            yvec = [1 if t == y else 0 for t in range(m)]
            row = []
            for x in current:
                xy = _int_mult_vectors(c, x, yvec)
                t = _trace_power_mod(_int_left_matrix(c, xy), pj, modulus * pj)
                if t % pj:
                    raise InternalError("trace-of-power divisibility failed")
                row.append((t // pj) % p)
            rows.append(row)
        ker = _fp_kernel(rows, len(current), p)
        current = [
            [sum(coef[t] * current[t][i] for t in range(len(current))) % p for i in range(m)]
            for coef in ker
        ]
        j += 1
    return current


# ---------------------------------------------------------------------------
# idealizer enlargement
# ---------------------------------------------------------------------------


def _ideal_lattice(order: Order, p: int, extra_vectors: list[list[int]]) -> list[list[int]]:
    m = order.table.m
    gens = [[p if i == j else 0 for i in range(m)] for j in range(m)]
    gens += [list(v) for v in extra_vectors]
    return hnf_columns(gens, m)


def _adjugate(cols: list[list[int]], dim: int) -> tuple[list[list[int]], int]:
    mat = ExactMatrix(QQ, [[Fraction(cols[j][i]) for j in range(dim)] for i in range(dim)])
    det = mat.det()
    inv = mat.inverse()
    adj_rows = []
    for i in range(dim):
        adj_rows.append([int(inv.entries[i][j] * det) for j in range(dim)])
    return adj_rows, int(det)


def _idealizer(order: Order, ideal_cols: list[list[int]], p: int, side: str) -> Order:
    """O_l(I) or O_r(I) for an ideal p*Lambda <= I <= Lambda, as a new Order."""
    c = _order_int_mult(order)
    m = order.table.m
    adj, det = _adjugate(ideal_cols, m)
    if det < 0:
        adj = [[-x for x in row] for row in adj]
        det = -det
    Q = p * det
    stacked = []
    for t in range(m):
        u = [ideal_cols[t][i] for i in range(m)]
        if side == "left":
            # condition x * u in I: right multiplication matrix of u
            mat = _int_right_matrix(c, u)
        else:
            mat = _int_left_matrix(c, u)
        for row_a in range(m):
            stacked.append(
                [
                    sum(adj[row_a][k] * mat[k][col] for k in range(m)) % Q
                    for col in range(m)
                ]
            )
    W = congruence_kernel(stacked, Q, m)
    # new basis in a-coordinates: OrderBasis * W / p
    new_cols = []
    for col in W:
        vec = order.from_order_coords([Fraction(x, p) for x in col])
        new_cols.append(vec)
    lat = ZLattice.from_rational_columns([tuple(map(Fraction, v)) for v in new_cols], m)
    new_order = _order_from_zlattice(order.table, lat)
    for j in range(m):
        if not new_order.contains(order.basis_matrix.column(j)):
            raise InternalError("idealizer lost the original order")
    return new_order


def _int_right_matrix(c, x: Sequence[int]) -> list[list[int]]:
    m = len(c)
    rows = [[0] * m for _ in range(m)]
    for j in range(m):
        xj = x[j]
        if not xj:
            continue
        for i in range(m):
            cij = c[i][j]
            for k in range(m):
                if cij[k]:
                    rows[k][i] += xj * cij[k]
    return rows


def enlarge_at_p(order: Order, p: int) -> Order:
    """Left order of (p*Lambda + radical preimage); contains the input.

    The result is strictly larger exactly when this step can see the
    non-maximality; a stalled step is handled by maximal_order's refinement.
    """
    if not order.table.field.is_rational:
        return _enlarge_ok_order(order, p)
    rad = p_radical(order, p)
    ideal = _ideal_lattice(order, p, rad)
    return _idealizer(order, ideal, p, "left")


def _minimal_ideal_refinement(order: Order, p: int) -> Order:
    """Idealizers of the preimages of minimal ideals of the quotient.

    When the radical idealizer stalls on a non-maximal order (the hereditary
    case), some minimal two-sided ideal of Lambda/I has a strictly larger
    left or right order; try them all and return the first enlargement.
    """
    c = _order_int_mult(order)
    m = order.table.m
    rad = p_radical(order, p)
    ideal = _ideal_lattice(order, p, rad)
    # semisimple quotient S = (Lambda/p) / radical
    rad_rows = [list(v) for v in rad]
    srref, spivots = _fp_rref(rad_rows, p) if rad_rows else ([], [])
    comp_idx = [i for i in range(m) if i not in spivots]

    def project(vec):
        # reduce mod the radical span, then take complement coordinates
        v = [x % p for x in vec]
        for r, pivot_col in enumerate(spivots):
            f = v[pivot_col]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, srref[r])]
        return [v[i] for i in comp_idx]

    def unproject(svec):
        v = [0] * m
        for idx, val in zip(comp_idx, svec):
            v[idx] = val % p
        return v

    sdim = len(comp_idx)
    if sdim == 0:
        return order

    def smul(a, b):
        return project(_int_mult_vectors(c, unproject(a), unproject(b)))

    e_ord = order.to_order_coords(order.table.find_identity().coords)
    e_int = [int(Fraction(x)) % p for x in e_ord]
    one_s = project(e_int)

    # center of S: kernel of z -> (z b_i - b_i z for all i)
    sbasis = [[1 if i == j else 0 for i in range(sdim)] for j in range(sdim)]
    commut_rows = []
    for bi in sbasis:
        # map z -> z*b_i - b_i*z is linear in z; build its matrix columns
        colmat = []
        for zunit in sbasis:
            diff = [
                (x - y) % p for x, y in zip(smul(zunit, bi), smul(bi, zunit))
            ]
            colmat.append(diff)
        for row in range(sdim):
            commut_rows.append([colmat[zi][row] for zi in range(sdim)])
    z_basis = _fp_kernel(commut_rows, sdim, p)
    if not z_basis:
        return order
    zdim = len(z_basis)

    # fixed points of Frobenius inside the center
    def s_pow(vec, e):
        result = one_s
        base = vec
        while e:
            if e & 1:
                result = smul(result, base)
            base = smul(base, base)
            e >>= 1
        return result

    frob_rows = []
    z_mat_rows = [[z_basis[t][i] for t in range(zdim)] for i in range(sdim)]
    for t in range(zdim):
        img = s_pow(z_basis[t], p)
        diff = [(a - b) % p for a, b in zip(img, z_basis[t])]
        sol = _fp_solve(z_mat_rows, diff, p)
        if sol is None:
            raise InternalError("Frobenius image left the center")
        frob_rows.append(sol)
    fixed_coef = _fp_kernel(
        [[frob_rows[t][u] for t in range(zdim)] for u in range(zdim)], zdim, p
    )
    f_basis = [
        [sum(cf[t] * z_basis[t][i] for t in range(zdim)) % p for i in range(sdim)]
        for cf in fixed_coef
    ]
    if not f_basis:
        return order

    rng = random.Random(0x5EED ^ p)
    idempotents = _primitive_idempotents(f_basis, one_s, smul, p, rng, sdim)
    for e_i in idempotents:
        # minimal two-sided ideal: e_i * S, lifted on top of the ideal I
        span = []
        for b in sbasis:
            span.append(unproject(smul(e_i, b)))
        J = hnf_columns([list(v) for v in ideal] + span, m)
        for side in ("left", "right"):
            cand = _idealizer(order, J, p, side)
            if not cand.same_lattice(order):
                return cand
    return order


def _primitive_idempotents(f_basis, one_s, smul, p, rng, sdim):
    """Split the split-semisimple commutative algebra F into its idempotents."""
    blocks = [(f_basis, one_s)]
    done = []
    while blocks:
        basis, ident = blocks.pop()
        if len(basis) == 1:
            done.append(ident)
            continue
        # find a basis element that is not a scalar multiple of the identity
        split_done = False
        for v in basis:
            minpoly = _element_min_poly(v, basis, ident, smul, p)
            if len(minpoly) <= 2:
                continue
            roots = _split_roots(minpoly, p, rng)
            if len(roots) < 2:
                continue
            row_space = [[basis[t][i] for t in range(len(basis))] for i in range(sdim)]
            pieces = []
            for lam in roots:
                # kernel of (mult-by-v - lam) restricted to the block
                rows = []
                images = []
                for b in basis:
                    img = smul(v, b)
                    images.append([(x - lam * y) % p for x, y in zip(img, b)])
                for i in range(sdim):
                    rows.append([images[t][i] for t in range(len(basis))])
                ker = _fp_kernel(rows, len(basis), p)
                sub = [
                    [
                        sum(cf[t] * basis[t][i] for t in range(len(basis))) % p
                        for i in range(sdim)
                    ]
                    for cf in ker
                ]
                pieces.append(sub)
            # decompose the block identity across the pieces
            allvecs = [v2 for piece in pieces for v2 in piece]
            rows = [[allvecs[t][i] for t in range(len(allvecs))] for i in range(sdim)]
            sol = _fp_solve(rows, ident, p)
            if sol is None:
                raise InternalError("identity failed to decompose across eigenblocks")
            offset = 0
            for piece in pieces:
                e_piece = [0] * sdim
                for t in range(len(piece)):
                    cf = sol[offset + t]
                    if cf:
                        e_piece = [
                            (a + cf * b) % p for a, b in zip(e_piece, piece[t])
                        ]
                offset += len(piece)
                blocks.append((piece, e_piece))
            split_done = True
            break
        if not split_done:
            # every element acts as a scalar: one-dimensional over F_p in spirit
            done.append(ident)
    return done


def _element_min_poly(v, basis, ident, smul, p):
    """Monic minimal polynomial of v inside its commutative block."""
    sdim = len(ident)
    powers = [ident]
    while True:
        nxt = smul(powers[-1], v)
        rows = [[powers[t][i] for t in range(len(powers))] for i in range(sdim)]
        sol = _fp_solve(rows, nxt, p)
        if sol is not None:
            # nxt = sum sol_t powers_t -> minimal polynomial coefficients
            coeffs = [(-s) % p for s in sol] + [1]
            return coeffs
        powers.append(nxt)
        if len(powers) > len(basis) + 1:
            raise InternalError("minimal polynomial search exceeded the block size")


# ---------------------------------------------------------------------------
# factoring and the saturation loop
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _prime_list(limit: int) -> tuple:
    sieve = bytearray([1] * (limit + 1))
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i in range(limit + 1) if sieve[i])


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_integer(n: int, budget: int = 10**6) -> dict[int, int]:
    """Prime factorization by trial division within the budget.

    Trial division stops at min(budget, 2^20).  Raises FactorBudgetError
    when a composite cofactor survives division by every prime up to there.
    """
    n = abs(n)
    if n == 0:
        raise InputError("cannot factor zero")
    out: dict[int, int] = {}
    limit = max(2, min(budget, 1 << 20))
    for p in _prime_list(limit):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if _is_probable_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            root = math.isqrt(n)
            if root * root == n and _is_probable_prime(root):
                out[root] = out.get(root, 0) + 2
            else:
                raise FactorBudgetError(
                    f"cofactor {n} resists trial division up to {limit}"
                )
    return out


def maximal_order(
    table: StructureConstants,
    factor_budget: int = 10**6,
    disc_trace: list | None = None,
) -> Order:
    """Saturate the initial order at every prime whose square divides the
    discriminant; over Q and a split algebra the fixpoint has |disc| = 1.
    Over Q(i) and Q(sqrt(-3)) the saturation runs on the rank-2m integral
    restriction, which is converted back to a ring-of-integers basis.

    When ``disc_trace`` is a list, the absolute discriminant is appended
    after the initial construction and after each prime's saturation.
    """
    order = initial_order(table)
    if not table.field.is_rational:
        _, order = restrict_order(order)
    disc = as_rational(order.discriminant)
    if disc == 0:
        raise PromiseViolation("degenerate trace form: the algebra is not semisimple")
    if disc.denominator != 1:
        raise InternalError("order discriminant must be an integer")
    if disc_trace is not None:
        disc_trace.append(abs(int(disc)))
    factors = factor_integer(int(disc), factor_budget)
    for p in sorted(q for q, e in factors.items() if e >= 2):
        order = _saturate_at_prime(order, p)
        if disc_trace is not None:
            disc_trace.append(abs(int(as_rational(order.discriminant))))
    if not table.field.is_rational:
        return _restricted_to_k(table, order)
    return order


def _saturate_at_prime(order: Order, p: int) -> Order:
    # each pass strictly enlarges, so the index bound caps the iterations
    for _ in range(256):
        nxt = enlarge_at_p(order, p)
        if not nxt.same_lattice(order):
            order = nxt
            continue
        rad = p_radical(order, p)
        ideal = _ideal_lattice(order, p, rad)
        nxt = _idealizer(order, ideal, p, "right")
        if not nxt.same_lattice(order):
            order = nxt
            continue
        nxt = _minimal_ideal_refinement(order, p)
        if not nxt.same_lattice(order):
            order = nxt
            continue
        return order
    raise InternalError(f"saturation at p = {p} failed to stabilize")


# ---------------------------------------------------------------------------
# restriction of scalars for the quadratic fields
# ---------------------------------------------------------------------------


def _k_to_pair(field: Field, x: QuadScalar) -> tuple[Fraction, Fraction]:
    """Coordinates of x in the integral basis (1, omega)."""
    if field.has_half_integers:
        return (x.a - x.b, 2 * x.b)
    return (x.a, x.b)


def restricted_table(table: StructureConstants) -> StructureConstants:
    """The 2m-dimensional rational algebra underlying a quadratic one.

    Basis order: a_1..a_m, omega*a_1..omega*a_m.
    """
    field = table.field
    if field.is_rational:
        raise InputError("restriction applies to quadratic fields only")
    m = table.m
    omega = field.omega()
    scalars = (field.one(), omega)
    mm = 2 * m
    gamma = [[[Fraction(0)] * mm for _ in range(mm)] for _ in range(mm)]
    for si, alpha in enumerate(scalars):
        for sj, beta in enumerate(scalars):
            ab = alpha * beta
            for i in range(m):
                for j in range(m):
                    for k in range(m):
                        g = table.gamma[i][j][k]
                        if isinstance(g, QuadScalar) and g.is_zero():
                            continue
                        val = ab * g
                        u, v = _k_to_pair(field, val)
                        if u:
                            gamma[si * m + i][sj * m + j][k] += u
                        if v:
                            gamma[si * m + i][sj * m + j][m + k] += v
    return StructureConstants(QQ, gamma)


def restrict_coords(field: Field, coords: Sequence) -> tuple[Fraction, ...]:
    m = len(coords)
    us, vs = [], []
    for x in coords:
        u, v = _k_to_pair(field, field.coerce(x))
        us.append(u)
        vs.append(v)
    return tuple(us + vs)


def lift_coords(field: Field, coords: Sequence[Fraction]) -> tuple[QuadScalar, ...]:
    m = len(coords) // 2
    omega = field.omega()
    return tuple(
        field.coerce(coords[i]) + field.coerce(coords[m + i]) * omega for i in range(m)
    )


def restrict_order(order: Order) -> tuple[StructureConstants, Order]:
    """Integral rank-2m form of an order over Q(i) or Q(sqrt(-3))."""
    table = order.table
    field = table.field
    rt = restricted_table(table)
    omega = field.omega()
    gens = []
    for j in range(table.m):
        col = order.basis_matrix.column(j)
        gens.append(restrict_coords(field, col))
        gens.append(restrict_coords(field, [omega * x for x in col]))
    lat = ZLattice.from_rational_columns(gens, 2 * table.m)
    return rt, _order_from_zlattice(rt, lat)


def _restricted_to_k(table: StructureConstants, rest_order: Order) -> Order:
    field = table.field
    m = table.m
    cols_k = []
    for j in range(2 * m):
        col = rest_order.basis_matrix.column(j)
        cols_k.append(lift_coords(field, col))
    basis = _ok_triangular(field, cols_k, m)
    return Order(table, ExactMatrix.from_columns(field, [list(c) for c in basis]))


def _enlarge_ok_order(order: Order, p: int) -> Order:
    table = order.table
    _, rest = restrict_order(order)
    enlarged = enlarge_at_p(rest, p)
    return _restricted_to_k(table, enlarged)
