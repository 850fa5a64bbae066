"""Orders in structure-constant algebras and maximal order saturation.

Over Q the saturation works on integer lattices in the a-basis: find the
radical of Lambda/p Lambda, pass to the left order of the corresponding
ideal J, and when that stalls take the left orders of the preimages of the
simple components of Lambda/J.  Only left orders are taken: a stall makes
the order hereditary at p, and there the right order of each of these
ideals enlarges exactly when the left one does (the proof is in
_minimal_ideal_refinement).  Over Q(i) and Q(sqrt(-3))
the initial order is built on the rank-2m restriction of scalars, is
saturated there like a rational order, and comes back to a
ring-of-integers basis once, by Euclidean column reduction on Z[omega]
integers; a maximal integral order in an algebra with quadratic center is
automatically a maximal module over the ring of integers of the center.
Every order keeps one integer Z-basis, columns over one denominator (over
Q(i) and Q(sqrt(-3)) the b_j and omega b_j in (1, omega) coordinates), so
order coordinates, products, radicals and lattice comparisons are integer
work; ``basis_matrix`` is a view of that basis over the field.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Sequence

from .algebra import (
    AlgebraElement,
    StructureConstants,
    _combination,
    _int_dot,
    _integral,
    _integral_rows,
    _omega_times,
    lift_coords,
    restrict_coords,
)
from .errors import (
    FactorBudgetError,
    InputError,
    InternalError,
    PromiseViolation,
)
from .exactnum import QQ, ExactMatrix, as_rational, int_inverse, omega_det
from .lattice import _lowest_terms
from .quadfield import FieldData, nearest_omega

# ---------------------------------------------------------------------------
# integer lattice utilities
# ---------------------------------------------------------------------------


def hnf_columns(columns: Sequence[Sequence[int]], dim: int) -> list[list[int]]:
    """Canonical column Hermite form of the integer span of the columns.

    Returns the pivot columns (full rank expected callers get dim columns);
    column j is zero above row j, pivots are positive and earlier columns
    are reduced modulo later pivots.  The form is unique for the lattice.
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
            ar = a[r]
            for c in live[1:]:
                # nearest integer to c[r] / a[r]
                q = (2 * c[r] + ar) // (2 * ar)
                if q:
                    c[:] = [x - q * y for x, y in zip(c, a)]
            live = [c for c in work if c[r] != 0]
        piv = live[0]
        if piv[r] < 0:
            piv[:] = [-x for x in piv]
        work.remove(piv)
        work = [c for c in work if any(c)]
        # reduce row r of previously found pivot columns into [0, piv[r])
        for c in result:
            q = c[r] // piv[r]
            if q:
                c[:] = [x - q * y for x, y in zip(c, piv)]
        result.append(piv)
    return result


def congruence_kernel(rows: Sequence[Sequence[int]], q: int, dim: int) -> list[list[int]]:
    """HNF basis of the lattice {w in Z^dim : rows * w = 0 mod q}.

    That lattice is q R^* for R = rowspan(rows) + q Z^dim, R^* the dual
    lattice.  With H a Hermite basis of R, its basis vectors x_s solve
    H^T x_s = q e_s; they are integral because q Z^dim lies in R.
    """
    gens = [[x % q for x in r] for r in rows]
    gens += [[q if i == s else 0 for i in range(dim)] for s in range(dim)]
    H = hnf_columns(gens, dim)
    if len(H) != dim:
        raise InternalError("congruence kernel lost full rank")
    duals = []
    for s in range(dim):
        # back-substitution: row j of H^T is column j of H, zero before j
        x = [0] * dim
        for j in range(dim - 1, -1, -1):
            hj = H[j]
            acc = (q if j == s else 0) - sum(hj[i] * x[i] for i in range(j + 1, dim))
            x[j], rem = divmod(acc, hj[j])
            if rem:
                raise InternalError("dual lattice basis is not integral")
        duals.append(x)
    return hnf_columns(duals, dim)


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
    """Basis of the null space of ``rows`` over F_p, read off the reduced echelon form.

    One vector per free column f: 1 at f, minus column f of the echelon rows
    at the pivots, 0 elsewhere.  It depends only on the row space, and with
    no rows every column is free, so the basis is the unit vectors.
    """
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


# ---------------------------------------------------------------------------
# the Order type
# ---------------------------------------------------------------------------


class Order:
    """Unital multiplicatively closed full lattice in a structure-constant algebra.

    The order keeps one Z-basis, on integers: den, the columns C = den * basis
    (over Q(i) and Q(sqrt(-3)) of b_1..b_m, omega b_1..omega b_m, in (1, omega)
    coordinates), and the pair (E, d) with C^-1 = E / d, d > 0.  The basis
    matrix over the field is a view of it, built on first use.
    """

    def __init__(self, table: StructureConstants, basis_matrix: ExactMatrix):
        if basis_matrix.rows != table.m or basis_matrix.cols != table.m:
            raise InputError("order basis must be square of the algebra dimension")
        field = table.field
        if basis_matrix.field != field:
            raise InputError(f"order basis over {basis_matrix.field} for an algebra over {field}")
        cols = [restrict_coords(field, c) for c in basis_matrix.columns()]
        if not field.is_rational:
            cols += [_omega_times(c, int(field.has_half_integers)) for c in cols]
        C, den = _integral_rows(cols)
        self._set_basis(table, den, C)

    @classmethod
    def _spanned(cls, table: StructureConstants, den: int, gens: Sequence[Sequence[int]]) -> "Order":
        """The order of a table over Q spanned by the integer columns gens / den.

        Its basis is the Hermite form of the generators over den divided by
        their common content, so equal lattices get equal (den, C).
        """
        C = hnf_columns(gens, table.m)
        if len(C) != table.m:
            raise InputError("lattice generators do not have full rank")
        return cls._reduced(table, den, C)

    @classmethod
    def _reduced(cls, table: StructureConstants, den: int, C: list[list[int]]) -> "Order":
        """The order with the basis columns C / den, both divided by their common content."""
        C, den = _lowest_terms(C, den)
        order = cls.__new__(cls)
        order._set_basis(table, den, C)
        return order

    def _set_basis(self, table: StructureConstants, den: int, C: list[list[int]]):
        self.table = table
        self._int_table: list[list[list[int]]] | None = None
        self._products: tuple[list, int] | None = None
        self._radicals: dict[int, list[list[int]]] = {}
        E, d = int_inverse(C)
        self._int = (den, C, E, d)

    @cached_property
    def basis_matrix(self) -> ExactMatrix:
        """The basis b_1..b_m as matrix columns over the table's field."""
        den, C, _, _ = self._int
        field = self.table.field
        cols = [lift_coords(field, [Fraction(x, den) for x in c]) for c in C[: self.table.m]]
        return ExactMatrix.from_columns(field, cols)

    # coordinates of order basis element j in the a-basis
    def element(self, j: int) -> AlgebraElement:
        return AlgebraElement(self.table, self.basis_matrix.column(j))

    def elements(self) -> list[AlgebraElement]:
        return [self.element(j) for j in range(self.table.m)]

    def z_basis(self) -> list[AlgebraElement]:
        """The Z-basis of the lattice: the b_j, then the omega b_j over Q(i) and Q(sqrt(-3))."""
        den, C, _, _ = self._int
        lifted = [lift_coords(self.table.field, [Fraction(x, den) for x in c]) for c in C]
        return [AlgebraElement(self.table, x) for x in lifted]

    def contains(self, coords: Sequence) -> bool:
        w, D = _integral(self.table.field, coords)
        return self._contains_columns([w], D)

    def _contains_columns(self, cols: Sequence[Sequence[int]], D: int) -> bool:
        """Whether the lattice contains every vector w / D for w in the integer columns."""
        den, _, E, d = self._int
        return all(den * _int_dot(row, w) % (d * D) == 0 for w in cols for row in E)

    def _product_numerators(self) -> tuple[list[list[list[int]]], int]:
        """(N, s) with N[i][j] / s the integer-basis coordinates of c_i c_j.

        With c_i = C_i / den and the integer table G / dG, c_i c_j has
        a-coordinates P_ij / (den^2 dG) for P_ij = sum_rs C_i[r] C_j[s] G[r][s],
        and coordinates E P_ij / (den dG d).
        """
        if self._products is None:
            den, C, E, d = self._int
            G, dG = self.table._integral_gamma()
            N = [[[_int_dot(e, P) for e in E] for P in row] for row in _int_products(C, G)]
            self._products = (N, den * dG * d)
        return self._products

    def verify(self) -> list[str]:
        """Exact closure and unitality violations (empty for a genuine order)."""
        problems = []
        try:
            E, de = self.table._integral_identity()
            if not self._contains_columns([E], de):
                problems.append("identity is not in the lattice")
        except Exception as exc:  # NoIdentityError propagates as a message
            problems.append(str(exc))
        N, s = self._product_numerators()
        m = self.table.m
        for i, row in enumerate(N[:m]):
            for j, v in enumerate(row[:m]):
                if any(x % s for x in v):
                    problems.append(f"product b_{i} b_{j} leaves the lattice")
        return problems

    @cached_property
    def discriminant(self):
        """Determinant of the matrix-trace Gram of the order basis.

        The regular trace is divided by n for an algebra of dimension n^2
        over its base field, or by n = sqrt(m/2) for the rank-2m rational
        restriction of a quadratic one, so that maximal orders of split
        algebras over Q land exactly on discriminant +-1.  With T the trace
        Gram of the a-basis and B the basis matrix that is
        det(B^T T B / div) = det(T) det(B)^2 / div^m; over Q, C = den B has
        the inverse E / d with d = |det C|, and over Q(i) and Q(sqrt(-3))
        det(den B) is the omega_det of the Z[omega] integers den b_ij.
        """
        m, field = self.table.m, self.table.field
        den, C, _, d = self._int
        if field.is_rational:
            det_b = Fraction(d, den**m)
        else:
            # the first m columns of C are den b_j as Z[omega] integers
            rows = [[(c[i], c[m + i]) for i in range(m)] for c in C[:m]]
            det = omega_det(rows, int(field.has_half_integers))
            det_b = lift_coords(field, [Fraction(x, den**m) for x in det])[0]
        return self.table._trace_gram_det() * det_b * det_b / _trace_divisor(m) ** m

    def same_lattice(self, other: "Order") -> bool:
        (den, C, _, _), (other_den, other_C, _, _) = self._int, other._int
        return other._contains_columns(C, den) and self._contains_columns(other_C, other_den)

    def __repr__(self):
        return f"Order(dim={self.table.m} over {self.table.field})"


def _int_products(C: Sequence[Sequence[int]], G) -> list[list[list[int]]]:
    """P[i][j] = sum_rs C_i[r] C_j[s] G[r][s] for integer structure constants G.

    For vectors c_i = C_i / den in a table with constants G / dG, c_i c_j
    has a-coordinates P[i][j] / (den^2 dG).
    """
    m = len(G)
    out = []
    for Ci in C:
        # Y[s] = sum_r C_i[r] G[r][s], the a-coordinates of den dG c_i a_s
        Y = [[0] * m for _ in range(m)]
        for r, x in enumerate(Ci):
            if x:
                Y = [[a + x * g for a, g in zip(ys, gs)] for ys, gs in zip(Y, G[r])]
        row = []
        for Cj in C:
            P = [0] * m
            for y, ys in zip(Cj, Y):
                if y:
                    P = [a + y * b for a, b in zip(P, ys)]
            row.append(P)
        out.append(row)
    return out


def _trace_divisor(m: int) -> int:
    r = math.isqrt(m)
    if r * r == m:
        return r
    r = math.isqrt(m // 2)
    if 2 * r * r == m:
        return r
    return 1


# ---------------------------------------------------------------------------
# initial order
# ---------------------------------------------------------------------------


def initial_order(table: StructureConstants) -> Order:
    """The order that saturation starts from: the span of ell a_i and e.

    ell is the lcm of the denominators of gamma, so G = ell gamma is integral
    and (ell a_i)(ell a_j) = sum_k G_ijk (ell a_k) lies in the span; e is a
    two-sided identity.  So the span is closed for any bilinear table, and
    one Hermite form of the generators is the order.  Over Q(i) and
    Q(sqrt(-3)) the order lives in ``restricted_table(table)``: the
    generators are ell u_k for all 2m unit vectors, e and omega e.  omega e
    acts as the central omega, so the span is an O_K-module, the
    restriction of the O_K-order that ell a_i and e generate.
    """
    field = table.field
    E, de = table._integral_identity()
    if field.is_rational:
        rt, gens = table, [E]
    else:
        rt, gens = restricted_table(table), [E, _omega_times(E, int(field.has_half_integers))]
    m = rt.m
    _, ell = rt._integral_gamma()
    gens += [[de * ell if k == i else 0 for k in range(m)] for i in range(m)]
    return Order._spanned(rt, de, gens)


# Euclidean column reduction over Z[omega]


def _omega_triangular(columns: Sequence[Sequence[int]], k: int, t: int) -> list[list[int]]:
    """k columns spanning the same Z[omega]-module as the given ones, triangular.

    A column is a K-vector of length k as the ints u_1..u_k, v_1..v_k of its
    entries u_r + v_r omega, omega^2 = t omega - 1 (omega = i for t = 0, (1 +
    sqrt(-3))/2 for t = 1).  Row by row, the columns whose entry r is not
    zero are sorted by its norm, stably, and each later one loses its
    nearest_omega multiple of the first, until one column is left there; it
    is the pivot of row r.  Raises InternalError when fewer than k pivots
    are found.
    """
    d = 3 if t else 1
    work = [list(c) for c in columns if any(c)]
    result = []
    for r in range(k):
        live = [c for c in work if c[r] or c[k + r]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda c: c[r] * c[r] + t * c[r] * c[k + r] + c[k + r] * c[k + r])
            a = live[0]
            au, av = a[r], a[k + r]
            norm = au * au + t * au * av + av * av
            wa = _omega_times(a, t)
            for c in live[1:]:
                # c_r / a_r = c_r conj(a_r) / norm = (X + Y omega) / norm with
                # conj(a_r) = (au + t av) - av omega, and 2 omega = t + (2 - t) sqrt(-d)
                x, y = c[r], c[k + r]
                X, Y = x * (au + t * av) + y * av, y * au - x * av
                qu, qv = nearest_omega(2 * X + t * Y, (2 - t) * Y, 2 * norm, d)
                if qu or qv:
                    c[:] = [z - qu * p - qv * q for z, p, q in zip(c, a, wa)]
            work = [c for c in work if any(c)]
            live = [c for c in work if c[r] or c[k + r]]
        piv = live[0]
        work.remove(piv)
        result.append(piv)
    if len(result) != k:
        raise InternalError("the columns do not span a full Z[omega]-module")
    return result


# ---------------------------------------------------------------------------
# radical of Lambda / p Lambda
# ---------------------------------------------------------------------------


def _order_int_mult(order: Order) -> list[list[list[int]]]:
    """Integer structure constants c[i][j][k] of the order basis."""
    if order._int_table is None:
        N, s = order._product_numerators()
        if any(x % s for row in N for v in row for x in v):
            raise InternalError("order multiplication table is not integral")
        order._int_table = [[[x // s for x in v] for v in row] for row in N]
    return order._int_table


def _flat_constants(c) -> list[list[int]]:
    """The structure constants k-major: flat[k][i * m + j] = c[i][j][k]."""
    return [list(col) for col in zip(*(cij for ci in c for cij in ci))]


def _int_mult_vectors(flat, x: Sequence[int], y: Sequence[int]) -> list[int]:
    """The product xy in order coordinates, with ``flat`` from _flat_constants."""
    f = [a * b for a in x for b in y]
    return [sum(map(mul, f, col)) for col in flat]


def _int_power_mod(flat, x: Sequence[int], e: int, mod: int) -> list[int]:
    """x^e (e >= 1) in the order, coordinates reduced mod ``mod``."""
    base = [v % mod for v in x]
    result = None
    while True:
        if e & 1:
            result = base if result is None else [v % mod for v in _int_mult_vectors(flat, result, base)]
        e >>= 1
        if not e:
            return result
        base = [v % mod for v in _int_mult_vectors(flat, base, base)]


def p_radical(order: Order, p: int) -> list[list[int]]:
    """Basis of the radical of Lambda/p Lambda in order coordinates.

    Stage 0 is the kernel of the trace form; for p not exceeding the
    dimension further stages cut by the functions x -> Tr(M_{xy}^(p^j))/p^j
    mod p.  Left multiplication is a homomorphism, so Tr(M_z^(p^j)) =
    <t, z^(p^j)> with t the trace vector t_k = Tr(M_{b_k}); the power is
    taken in the order modulo p^(2j+1).  The function z -> Tr(M_z^(p^j))/p^j
    mod p is linear on the previous stage V, an ideal (Ronyai 1990; Cohen,
    Ivanyos and Wales 1997), so it is powered out once per echelon basis
    vector of V into a functional g.  Each product x b_y of the stage is
    read through a basis of the annihilator Ann(V) and g, one dot product
    per column: it lies in V exactly when Ann(V) kills it.  p must pass
    the Miller-Rabin test that factor_integer uses.  Returns integer
    vectors whose residues span the radical, a fresh list each call; the
    order remembers its radical at each p.
    """
    if not _is_probable_prime(p):
        raise InputError(f"{p} is not prime")
    if not order.table.field.is_rational:
        raise InputError("the radical needs an order over Q; saturate the restriction of scalars")
    if p not in order._radicals:
        order._radicals[p] = _radical_mod_p(order, p)
    return [list(v) for v in order._radicals[p]]


def _radical_mod_p(order: Order, p: int) -> list[list[int]]:
    c = _order_int_mult(order)
    m = order.table.m
    flat = _flat_constants(c)
    trace = [sum(c[k][j][j] for j in range(m)) for k in range(m)]
    current = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    j = 0
    while p**j <= m and current:
        pj = p**j
        modulus = p ** (2 * j + 1)
        # g(z) = Tr(M_z^pj)/pj mod p on the echelon basis of the stage V; a
        # vector of V is its pivot coordinates times that basis, so g(v) = <g, v>
        ech, pivots = _fp_rref(current, p)
        ech = ech[: len(pivots)]
        g = [0] * m
        for row, col in zip(ech, pivots):
            t = _int_dot(trace, _int_power_mod(flat, row, pj, modulus)) % modulus
            if t % pj:
                raise InternalError("trace-of-power divisibility failed")
            g[col] = (t // pj) % p
        # every x b_y is read through Z = [a basis of Ann(V) | g]: x b_y lies in
        # V = Ann(Ann(V)) exactly when it is orthogonal to Ann(V), and
        # <z, x b_y> = sum_i x_i T_z[i][y] with T_z[i][y] = sum_k z_k c[i][y][k]
        T = [_combination(z, flat) for z in _fp_kernel(ech, m, p) + [g]]
        blocks = [[Tz[i * m:(i + 1) * m] for i in range(m)] for Tz in T]
        cols = []
        for x in current:
            *ann, gx = [[v % p for v in _combination(x, b)] for b in blocks]
            if any(map(any, ann)):
                raise InternalError("a radical stage is not an ideal mod p")
            cols.append(gx)
        ker = _fp_kernel([list(r) for r in zip(*cols)], len(current), p)
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


def _idealizer(order: Order, ideal_cols: list[list[int]], p: int) -> Order:
    """O_l(I) = {x : x I <= I} for an ideal p*Lambda <= I <= Lambda, as a new Order."""
    flat = _flat_constants(_order_int_mult(order))
    m = order.table.m
    # adj = det * I^-1 on order coordinates, so x is in I iff adj x = 0 mod det
    adj, det = int_inverse(ideal_cols)
    Q = p * det
    stacked = []
    for u in ideal_cols:
        # column i is b_i u: x is in O_l(I) when every x u lies in I
        cols = [[sum(map(mul, u, col[i * m:(i + 1) * m])) for col in flat] for i in range(m)]
        for row_a in adj:
            stacked.append([_int_dot(row_a, col) % Q for col in cols])
    W = congruence_kernel(stacked, Q, m)
    # new basis in a-coordinates: OrderBasis * W / p = C W / (p den)
    den, C, _, _ = order._int
    new_order = Order._spanned(order.table, p * den, [_combination(w, C) for w in W])
    if not new_order._contains_columns(C, den):
        raise InternalError("idealizer lost the original order")
    return new_order


def enlarge_at_p(order: Order, p: int) -> Order:
    """Left order of (p*Lambda + radical preimage); contains the input.

    The result is strictly larger exactly when this step can see the
    non-maximality; a stalled step is handled by maximal_order's refinement.
    """
    rad = p_radical(order, p)
    ideal = _ideal_lattice(order, p, rad)
    return _idealizer(order, ideal, p)


def _minimal_ideal_refinement(order: Order, p: int) -> Order:
    """The first left order O_l(J_i) > Lambda, J_i the preimage of a simple component of Lambda/J.

    J is the radical ideal p Lambda + rad.  The refinement runs only when
    O_l(J) = Lambda, so Lambda is hereditary at p, and then O_r(J_i) > Lambda
    exactly when O_l(J_i) > Lambda (Reiner, Maximal Orders, section 39).
    Lambda_p is a product of block-triangular orders Lambda_k, one per simple
    factor of A_p: Lambda_k is the order of a chain L_0 > L_1 > ... >
    L_{r-1} > pi L_0 = L_r of lattices, the x with x L_t <= L_t for every t,
    and its radical J_k, the x with x L_t <= L_{t+1} for every t, is
    invertible.  Lambda_k / J_k has r simple components, one per t, so J_i
    is in one factor the x of Lambda_k with x L_t <= L_{t+1} for every t but
    one s, and J_k in every other.  With r = 1 that factor's part is
    Lambda_k, and O_l(J_i) = O_r(J_i) = Lambda.  With r >= 2, O_l(J_i)
    contains the order of the chain without L_{s+1}, and O_r(J_i) the order
    of the chain without L_s, each strictly larger than Lambda_k.  So the
    right order never needs a try.

    S = Lambda / J has the basis e_a of the order basis vectors off the
    pivots of the radical's echelon form.  Reduction mod J is a ring map, so
    S's table is the image of the order's c[i][j] on them, built once, and
    every product in S contracts it.  The centre of S is the kernel of the
    commutators, and F is one more kernel: on the centre, commutative of
    characteristic p, z -> z^p is additive and fixes F_p, so sum x_t z_t is
    fixed exactly when sum x_t (z_t^p - z_t) = 0.  The z_t^p - z_t in S
    coordinates are the columns of Z A, for Z the z_t as columns, of full
    column rank, and A their coordinates over the z_t (the centre is a
    subring); Z has a left inverse, so Z A has A's row space and echelon
    form, and F's basis is the one a kernel of A gives.  The J_i are tried
    in the order _primitive_idempotents gives the primitive idempotents of F.
    """
    m = order.table.m
    rad = p_radical(order, p)
    ideal = _ideal_lattice(order, p, rad)
    srref, spivots = _fp_rref(rad, p)
    comp_idx = [i for i in range(m) if i not in spivots]
    sdim = len(comp_idx)

    def project(vec):
        # reduce mod the radical span, then take complement coordinates
        v = [x % p for x in vec]
        for r, pivot_col in enumerate(spivots):
            f = v[pivot_col]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, srref[r])]
        return [v[i] for i in comp_idx]

    # the order coordinates of e_a, so sum_a x_a e_a lifts to _combination(x, lift)
    lift = [[int(i == j) for i in range(m)] for j in comp_idx]
    c = _order_int_mult(order)
    # sflat[k][a * sdim + b] is coordinate k of e_a e_b in S
    sflat = _flat_constants([[project(c[i][j]) for j in comp_idx] for i in comp_idx])

    def smul(a, b):
        return [x % p for x in _int_mult_vectors(sflat, a, b)]

    # the identity den E^-1 e / d in order coordinates is integral: the order holds it
    den, _, E, d = order._int
    e, de = order.table._integral_identity()
    one_s = project([den * _int_dot(row, e) // (d * de) for row in E])

    # block i, row k: coordinate k of z e_i - e_i z = sum_j z_j (e_j e_i - e_i e_j)
    z_basis = _fp_kernel([[col[j * sdim + i] - col[i * sdim + j] for j in range(sdim)]
                          for i in range(sdim) for col in sflat], sdim, p)
    frob = [[x - y for x, y in zip(_int_power_mod(sflat, z, p, p), z)] for z in z_basis]
    fixed = _fp_kernel([list(row) for row in zip(*frob)], len(z_basis), p)
    f_basis = [[x % p for x in _combination(cf, z_basis)] for cf in fixed]

    rng = random.Random(0x5EED ^ p)
    units = [[int(i == j) for i in range(sdim)] for j in range(sdim)]
    for e_i in _primitive_idempotents(f_basis, one_s, smul, p, rng):
        # J_i: the component e_i S, lifted on top of the ideal J
        J = hnf_columns(ideal + [_combination(smul(e_i, b), lift) for b in units], m)
        cand = _idealizer(order, J, p)
        if not cand.same_lattice(order):
            return cand
    return order


def _primitive_idempotents(f_basis, one_s, smul, p, rng):
    """The primitive idempotents of F, the Frobenius-fixed centre of S, in a fixed order.

    S is semisimple, so S = prod_k M_(n_k)(D_k) for finite division rings
    D_k (Wedderburn), and finite division rings are fields (Wedderburn's
    little theorem).  The centre of S is prod_k D_k, and x -> x^p fixes
    exactly F_p in a finite field of characteristic p, so F = F_p^r with
    one factor per simple component of S, r = dim F: the primitive
    idempotents of F are the primitive central idempotents of S.

    F is split by powering in S.  For a random x in F let f = x when p = 2,
    and f = (y^2 + y) / 2 with y = x^((p-1)/2) for odd p.  In each factor y
    is 0 or +-1 (Euler's criterion), so f is 0 or 1 there: f is the
    idempotent of the factors where x is a nonzero square (where x is 1
    for p = 2).  Each block e splits into fe and e - fe when both are
    nonzero, until there are r blocks.  One draw separates two given
    factors with probability at least 4/9, so 100 draws leave them joined
    with probability below 10^-25; then, or when F is not F_p^r,
    InternalError is raised.

    The idempotent e of factor k acts on F as evaluation there: b e = b_k e,
    so (b e)_i / e_i = b_k at every coordinate i with e_i nonzero.  The
    idempotents are returned in descending order of the tuples of these
    values over F's basis.  That basis spans F, so two factors differ on
    one of its elements: the order is total and does not depend on rng.
    Scalars take one value on every factor, so with r = 2 the first basis
    element that is not a scalar decides, the larger value first.
    """
    r, blocks = len(f_basis), [one_s]
    for _ in range(100):
        if len(blocks) >= r:
            break
        coef = [rng.randrange(p) for _ in f_basis]
        f = [sum(map(mul, coef, col)) % p for col in zip(*f_basis)]
        if p > 2:
            y, base, k = one_s, f, (p - 1) // 2
            while k:
                if k & 1:
                    y = smul(y, base)
                k >>= 1
                if k:
                    base = smul(base, base)
            half = (p + 1) // 2  # 1/2 mod p
            f = [(a + b) * half % p for a, b in zip(smul(y, y), y)]
        pieces = []
        for e in blocks:
            fe = smul(f, e)
            pieces += [fe, [(a - b) % p for a, b in zip(e, fe)]] if any(fe) and fe != e else [e]
        blocks = pieces
    if len(blocks) != r:
        raise InternalError(f"F did not split into its {r} idempotents in 100 draws")

    def values(e):
        i = next(i for i, x in enumerate(e) if x)
        inv = _fp_inv(e[i], p)
        return [smul(b, e)[i] * inv % p for b in f_basis]

    return sorted(blocks, key=values, reverse=True)


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


def _int_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method on ints from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def factor_integer(n: int, budget: int = 10**6) -> dict[int, int]:
    """Prime factorization by trial division within the budget.

    Trial division stops at min(budget, 2^20).  A cofactor that survives it
    is accepted when it is a k-th power of a probable prime, k >= 1; any
    other raises FactorBudgetError.
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
        for k in range(1, n.bit_length()):
            root = _int_root(n, k)
            if root**k == n and _is_probable_prime(root):
                out[root] = out.get(root, 0) + k
                break
        else:
            raise FactorBudgetError(f"cofactor {n} resists trial division up to {limit}")
    return out


def maximal_order(
    table: StructureConstants,
    disc_trace: list | None = None,
) -> Order:
    """Saturate the initial order at every prime whose square divides the
    discriminant; over Q and a split algebra the fixpoint has |disc| = 1.
    Over Q(i) and Q(sqrt(-3)) the initial order is the rank-2m integral
    restriction; it is saturated there and converted back to a
    ring-of-integers basis once, at the end.

    Every order of a central simple algebra of dimension m over K has a
    discriminant divisible by the floor |d_K|^m (1 over Q, 4^m over Q(i),
    3^m over Q(sqrt(-3)); Reiner, Maximal Orders, sections 10 and 25), and
    disc(L) = [L':L]^2 disc(L') for orders L <= L'.  So saturation at p stops
    as soon as v_p(disc) < v_p(floor) + 2: the order is then p-maximal,
    without another idealizer.

    When ``disc_trace`` is a list, the absolute discriminant is appended
    after the initial construction and after each prime's saturation.
    """
    order = initial_order(table)
    disc = as_rational(order.discriminant)
    if disc == 0:
        raise PromiseViolation("degenerate trace form: the algebra is not semisimple")
    if disc.denominator != 1:
        # every order of M_n(K), or of its restriction, has integral reduced traces
        raise PromiseViolation(
            f"order discriminant {disc} is not an integer: not a full matrix algebra"
        )
    if disc_trace is not None:
        disc_trace.append(abs(int(disc)))
    factors = factor_integer(int(disc))
    d_k = 1 if table.field.is_rational else FieldData(table.field.d).discriminant
    floor_exps = {q: table.m * e for q, e in factor_integer(d_k).items()}
    for p in sorted(q for q, e in factors.items() if e >= 2):
        order = _saturate_at_prime(order, p, floor_exps.get(p, 0))
        if disc_trace is not None:
            disc_trace.append(abs(int(as_rational(order.discriminant))))
    if table.field.is_rational:
        return order
    k_order = _restricted_to_k(table, order)
    if not k_order.discriminant.is_integral():
        # traces of orders of M_n(K) lie in O_K; K^4 over Q(i) restricts to disc 1
        raise PromiseViolation(
            f"order discriminant {k_order.discriminant} is not integral: not a full matrix algebra"
        )
    return k_order


def _saturate_at_prime(order: Order, p: int, floor_exp: int = 0) -> Order:
    """The p-maximal order over ``order``; p^floor_exp divides every order's discriminant.

    Each pass tries the left order of the radical ideal J, then the
    minimal-ideal refinement.  The right order of J needs no try: the order
    is hereditary at p exactly when O_l(J) is the order, and being
    hereditary is a two-sided property (Reiner, Maximal Orders, section
    39), so O_r(J) stalls whenever O_l(J) does.
    """
    # a strict enlargement at p divides disc by p^2 or more, so at most
    # (v_p(disc) - floor_exp) / 2 passes enlarge before the stop rule holds
    num, v = as_rational(order.discriminant).numerator, 0
    while num and num % p == 0:
        num, v = num // p, v + 1
    for _ in range(max(v - floor_exp, 0) // 2 + 1):
        disc = as_rational(order.discriminant)
        # a strict superorder of p-power index would put p^(floor_exp + 2) in disc
        if disc.denominator == 1 and disc.numerator % p ** (floor_exp + 2):
            return order
        nxt = enlarge_at_p(order, p)
        if nxt.same_lattice(order):
            nxt = _minimal_ideal_refinement(order, p)
        if nxt.same_lattice(order):
            return order
        order = nxt
    raise InternalError(f"saturation at p = {p} failed to stabilize")


# ---------------------------------------------------------------------------
# restriction of scalars for the quadratic fields
# ---------------------------------------------------------------------------


def restricted_table(table: StructureConstants) -> StructureConstants:
    """The 2m-dimensional rational algebra underlying a quadratic one.

    Basis order: a_1..a_m, omega*a_1..omega*a_m; the constants are the
    integer table ``_integral_gamma`` of the quadratic table over its d,
    and the identity is the restriction of the quadratic table's.
    """
    if table.field.is_rational:
        raise InputError("restriction applies to quadratic fields only")
    G, d = table._integral_gamma()
    return StructureConstants._of_ints(QQ, G, d, table._integral_identity())


def _restricted_to_k(table: StructureConstants, rest_order: Order) -> Order:
    """The O_K-order whose restriction of scalars is rest_order.

    The columns C / den of rest_order are Z[omega]-vectors of length m
    that span it as an O_K-module; the Euclidean reduction gives m of them,
    the b_j, and the order keeps the b_j and omega b_j over den.
    """
    den, C, _, _ = rest_order._int
    t = int(table.field.has_half_integers)
    B = _omega_triangular(C, table.m, t)
    return Order._reduced(table, den, B + [_omega_times(b, t) for b in B])
