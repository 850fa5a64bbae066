"""Structure-constant algebras and the exact rank-1 machinery.

An algebra is given by its multiplication table gamma[i][j][k] with
a_i * a_j = sum_k gamma[i][j][k] a_k over Q or an imaginary quadratic
field.  Everything here is exact; no floating point enters any result.

Every exact kernel runs on one integer form: a K-vector becomes its
(1, omega) coordinates u_1..u_k, v_1..v_k with x_r = u_r + v_r omega
(omega = i, or (1 + sqrt(-3))/2, and omega^2 = t omega - 1 with t = 0 or 1;
over Q the values themselves), denominators cleared.  Over Q(i) and
Q(sqrt(-3)) the table becomes that of the rank-2m restriction of scalars.
The identity, the rank test and the witness eliminate fraction-free on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import InputError, InternalError, NoIdentityError, PromiseViolation
from .exactnum import QQ, ExactMatrix, Field, QuadScalar, int_det, int_gauss_jordan, int_rank, omega_det


class StructureConstants:
    """Multiplication table of a finite dimensional associative algebra."""

    def __init__(self, field: Field, gamma: Sequence[Sequence[Sequence]]):
        m = len(gamma)
        if m == 0:
            raise InputError("an algebra needs at least one basis element")
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
        flat, d = _integral(field, [x for gi in coerced for gij in gi for x in gij])
        self._set_ints(field, _restricted_gamma(field, m, flat), d)
        self.gamma = tuple(coerced)

    @classmethod
    def _of_ints(cls, field: Field, G: list, d: int, identity: tuple | None = None) -> "StructureConstants":
        """The table whose integer form is (G, d), with the integer form of its identity if known.

        (G, d) must be what _integral_gamma gives: d the lcm of the
        denominators of G / d, and over Q(i) and Q(sqrt(-3)) G the rank-2m
        restriction _restricted_gamma builds; identity what _integral_identity
        gives.  gamma is built from it on first read.
        """
        table = cls.__new__(cls)
        table._set_ints(field, G, d, identity)
        return table

    def _set_ints(self, field: Field, G: list, d: int, identity: tuple | None = None):
        self.field = field
        self.m = len(G) if field.is_rational else len(G) // 2
        self._identity = identity
        self._int_gamma = (G, d)
        self._gram_det = None

    @cached_property
    def gamma(self) -> tuple:
        """gamma[i][j][k] over the field, as nested tuples."""
        G, d = self._int_gamma
        m, field = self.m, self.field
        return tuple(
            tuple(lift_coords(field, [Fraction(x, d) for x in gij]) for gij in gi[:m]) for gi in G[:m]
        )

    # -- basic structure ----------------------------------------------------

    @property
    def n(self) -> int:
        """Target matrix size under the promise m = n^2."""
        r = math.isqrt(self.m)
        if r * r != self.m:
            raise InputError(f"dimension {self.m} is not a perfect square")
        return r

    def multiply(self, x: Sequence, y: Sequence) -> tuple:
        """Coordinates of the product of two coordinate vectors."""
        if len(x) != self.m or len(y) != self.m:
            raise InputError("coordinate length mismatch")
        zero = self.field.zero()
        out = [zero] * self.m
        for i in range(self.m):
            xi = self.field.coerce(x[i])
            if not xi:
                continue
            gi = self.gamma[i]
            for j in range(self.m):
                yj = self.field.coerce(y[j])
                if not yj:
                    continue
                c = xi * yj
                gij = gi[j]
                for k in range(self.m):
                    if gij[k]:
                        out[k] = out[k] + c * gij[k]
        return tuple(out)

    def find_identity(self) -> "AlgebraElement":
        """The two-sided identity; raises NoIdentityError when none exists.

        e = sum_i e_i a_i must solve sum_i e_i gamma_ijk = [j == k], that is
        e a_j = a_j.  The scan reduces these m^2 integer equations one at a
        time, fraction-free, against the rows kept so far and divides only to
        back-substitute its m pivot rows.  A two-sided identity e is their one
        solution when it exists, as every left identity is e' = e' e = e; so
        substituting the solution into e a_j = a_j and a_j e = a_j, in O(m^3)
        integer operations, decides whether it is one.
        """
        E, de = self._integral_identity()
        return AlgebraElement(self, lift_coords(self.field, [Fraction(x, de) for x in E]))

    def _integral_identity(self) -> tuple[list[int], int]:
        """(E, de), the _integral of the identity's coordinates, solved once (see find_identity)."""
        if self._identity is None:
            self._identity = self._solve_identity()
        return self._identity

    def _solve_identity(self) -> tuple[list[int], int]:
        # over Q(i) and Q(sqrt(-3)) the unknowns are the 2m restricted coordinates
        # of e, and e (omega a_j) = omega (e a_j) leaves the equations for the a_j
        G, d = self._integral_gamma()
        m, w = self.m, len(G)
        equations = ([G[i][j][k] for i in range(w)] + [d if j == k else 0]
                     for j in range(m) for k in range(w))
        # (column, row): an integer row [coefficients | rhs], divided by its
        # content, that is zero in the columns of the pivots kept before it
        pivots = []
        for row in equations:
            for c, p in pivots:
                f = row[c]
                if f:
                    row = [p[c] * x - f * y for x, y in zip(row, p)]
            c = next((c for c, x in enumerate(row[:w]) if x), None)
            if c is None:
                if row[w]:
                    raise NoIdentityError("the table has no two-sided identity")
                continue
            g = math.gcd(*row)
            pivots.append((c, [x // g for x in row]))
            if len(pivots) == w:
                break
        if len(pivots) < w:
            raise NoIdentityError("the table has no two-sided identity")
        e = [0] * w
        for c, p in reversed(pivots):
            # e[c] is still 0, and the other nonzero columns of p are pivots
            # kept later, solved already
            e[c] = Fraction(p[w] - sum(x * y for x, y in zip(p, e)), p[c])
        (E,), de = _integral_rows([e])
        nz = [(i, x) for i, x in enumerate(E) if x]
        for j in range(m):
            for k in range(w):
                want = d * de if j == k else 0
                if (
                    sum(x * G[i][j][k] for i, x in nz) != want
                    or sum(x * G[j][i][k] for i, x in nz) != want
                ):
                    raise NoIdentityError("the table has no two-sided identity")
        return E, de

    def _integral_gamma(self) -> tuple[list, int]:
        """The integer table as nested lists G[i][j][k], and d with G = d * gamma.

        d is the lcm of the denominators.  Over Q(i) and Q(sqrt(-3)) G is the
        table of the rank-2m restriction of scalars (see _restricted_gamma).
        """
        return self._int_gamma

    def _trace_gram_det(self):
        """det T of the trace Gram T_kl = Tr(L_{a_k a_l}) of the a-basis, computed once.

        T = T' / d^2 for the integer T' built like T from the integer table
        G = d gamma, so det T is det T' over d^(2m).  Over Q(i) and
        Q(sqrt(-3)) the entries of T' are the Z[omega] integers sum_r (G_klr
        + G_kl(m+r) omega) t_r, t_r = sum_j G_rjj + G_rj(m+j) omega, and det
        T' is their fraction-free determinant omega_det.
        """
        if self._gram_det is None:
            G, d = self._integral_gamma()
            m, field = self.m, self.field
            tu = [sum(G[r][j][j] for j in range(m)) for r in range(m)]
            if field.is_rational:
                det = [int_det([[_int_dot(g_kl, tu) for g_kl in g_k] for g_k in G])]
            else:
                # (x + y omega) t_r = x t_r + y omega t_r, omega t_r = -tv_r + (tu_r + t tv_r) omega
                t = int(field.has_half_integers)
                tv = [sum(G[r][j][m + j] for j in range(m)) for r in range(m)]
                w = _omega_times(tu + tv, t)
                U, V = tu + w[:m], tv + w[m:]
                T = [[(_int_dot(g_kl, U), _int_dot(g_kl, V)) for g_kl in g_k[:m]] for g_k in G[:m]]
                det = omega_det(T, t)
            self._gram_det = lift_coords(field, [Fraction(x, d ** (2 * m)) for x in det])[0]
        return self._gram_det

    def validate(self) -> list[str]:
        """All associativity identities plus identity existence, exactly.

        Returns a list of violation descriptions; empty means valid.  The
        identity is solved once, before the associativity scan, which uses it
        to stop early (see _associativity_failures).
        """
        violations = []
        r = math.isqrt(self.m)
        if r * r != self.m:
            violations.append(f"dimension {self.m} is not a perfect square")
        try:
            identity = self._integral_identity()[0]
        except NoIdentityError:
            identity = None
        for i, j in self._associativity_failures(identity):
            violations.append(f"associativity fails on the pair (a_{i}, a_{j})")
        if identity is None:
            violations.append("no two-sided identity element")
        return violations

    def _associativity_failures(self, identity: Sequence[int] | None) -> list[tuple[int, int]]:
        """Pairs (i, j) with (a_i a_j) a_k != a_i (a_j a_k) for some k.

        That is L(a_i) L(a_j) != sum_r G_ijr L(a_r) on the integer table G,
        the pair identity of witness_problems with P_r = L(a_r) and d = D =
        1, checked by _pair_defects on packed ints: about 2 w^2 multiply-adds
        per row i, w = len(G), instead of O(m^4) integer operations.  Both
        sides scale by the square of its d, so the failing pairs stay the
        same.  Over Q(i) and Q(sqrt(-3)) i and j run over the K-basis of the
        restriction and k over all of it; its product is K-bilinear, so
        (a_i a_j) (omega a_k) = a_i (a_j (omega a_k)) holds when (a_i a_j)
        a_k = a_i (a_j a_k) does.

        Row i passes exactly when a_i lies in the left nucleus T = {u : (ux)z
        = u(xz) for all x, z}.  T is a subalgebra, associative or not: for u,
        v in T, ((uv)x)z = (u(vx))z = u((vx)z) = u(v(xz)) = (uv)(xz).  It
        holds the two-sided identity e, and with a_i also omega a_i.  So once
        the left-normed words e g_1 g_2 ... in the generators that passed span
        A, T = A and every later row passes: the scan stops there.  Before
        that, and after any row fails (then T != A), rows are scanned as they
        come, so the failing pairs do not depend on the stop.  e is identity,
        the E of _integral_identity; with identity None every row is scanned.
        """
        m = self.m
        gamma, _ = self._integral_gamma()
        w = len(gamma)
        # nonzero (index, value) pairs of each product a_i a_j
        nz = [[[(s, x) for s, x in enumerate(gij) if x] for gij in gi] for gi in gamma]
        # L(a_r) flat row-major, entry (s, k) the coordinate s of a_r a_k
        lefts = [[gr[k][s] for s in range(w) for k in range(w)] for gr in gamma]
        row_defects = _pair_defects(lefts, [gi[:m] for gi in gamma[:m]], 1, 1, w)
        words = None if identity is None else _LeftWords(nz, identity)
        failures = []
        for i in range(m):
            if words is not None and words.spans():
                break
            row = row_defects(i)
            failures += ((i, j) for j, _ in row)
            if row:
                words = None
            elif words is not None:
                words.add_generators([i] if w == m else [i, m + i])
        return failures

    def element(self, coords: Sequence) -> "AlgebraElement":
        return AlgebraElement(self, coords)

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        # (G, d) is the table's one integer form: d is the lcm of its denominators
        (G, d), (H, e) = self._int_gamma, other._int_gamma
        return self.field == other.field and d == e and G == H

    def __repr__(self):
        return f"StructureConstants(dim={self.m} over {self.field})"


class _LeftWords:
    """The Q-span of the left-normed words e g_1 g_2 ... g_t on an integer table.

    The generators are restricted basis indices; nz is the sparse table of
    _associativity_failures and e an integer vector.  The span is kept as a
    fraction-free echelon form whose rows are divided by their content, and
    it grows incrementally: a new word is multiplied by every generator, a
    new generator multiplies every word kept so far, each pair exactly once.
    """

    def __init__(self, nz: Sequence, e: Sequence[int]):
        self.nz = nz
        self.gens: list[int] = []
        self.words: list[list[int]] = []  # the independent words found, content-divided
        self.rows: list[tuple[int, list[int]]] = []  # (pivot column, echelon row)
        self._close([(e, None)])

    def spans(self) -> bool:
        return len(self.rows) == len(self.nz)

    def add_generators(self, gens: Sequence[int]) -> None:
        # every word kept so far times each new generator, and the words
        # those give times every generator, until nothing new appears
        self.gens += gens
        self._close([(v, g) for g in gens for v in self.words])

    def _close(self, pending: list) -> None:
        w = len(self.nz)
        while pending and len(self.rows) < w:
            v, g = pending.pop()
            if g is not None:
                v = self._times(v, g)
            row = v
            for c, p in self.rows:
                f = row[c]
                if f:
                    row = [p[c] * x - f * y for x, y in zip(row, p)]
            c = next((c for c, x in enumerate(row) if x), None)
            if c is None:
                continue
            g_row, g_v = math.gcd(*row), math.gcd(*v)
            self.rows.append((c, [x // g_row for x in row]))
            v = [x // g_v for x in v]
            self.words.append(v)
            pending += ((v, g) for g in self.gens)

    def _times(self, v: Sequence[int], g: int) -> list[int]:
        """v a_g on the integer table: sum_r v_r (a_r a_g)."""
        nz = self.nz
        out = [0] * len(nz)
        for r, x in enumerate(v):
            if x:
                for s, c in nz[r][g]:
                    out[s] += x * c
        return out


def restrict_coords(field: Field, coords: Sequence) -> tuple:
    """The (1, omega) coordinates u_1..u_k, v_1..v_k of a K-vector, x_r = u_r + v_r omega.

    Over Q the coordinates are the values themselves.
    """
    if field.is_rational:
        return tuple(coords)
    xs = [field.coerce(x) for x in coords]
    if field.has_half_integers:  # a + b sqrt(-3) = (a - b) + 2b omega
        return tuple(x.a - x.b for x in xs) + tuple(2 * x.b for x in xs)
    return tuple(x.a for x in xs) + tuple(x.b for x in xs)


def lift_coords(field: Field, coords: Sequence) -> tuple:
    """The K-vector with (1, omega) coordinates u_1..u_k, v_1..v_k; restrict_coords inverted."""
    if field.is_rational:
        return tuple(coords)
    k, w = len(coords) // 2, field.omega()
    return tuple(QuadScalar(field.d, u + v * w.a, v * w.b) for u, v in zip(coords[:k], coords[k:]))


def _omega_times(x: Sequence, t: int) -> list:
    """omega x in (1, omega) coordinates: (u + v omega) omega = -v + (u + tv) omega."""
    k = len(x) // 2
    return [-v for v in x[k:]] + [u + t * v for u, v in zip(x[:k], x[k:])]


def _restricted_gamma(field: Field, m: int, flat: Sequence[int]) -> list:
    """The integer table G[i][j][k] from the (1, omega) coordinates of gamma over d.

    flat holds gamma_ij at r = i m + j, m values each; over Q(i) and
    Q(sqrt(-3)) the u parts, then the v parts.  There G is the table of the
    rank-2m restriction of scalars on a_1..a_m, omega a_1..omega a_m,
    (omega^s a_i)(omega^t a_j) = omega^(s+t) gamma_ij in (1, omega) coordinates.
    """
    rows = [flat[r:r + m] for r in range(0, len(flat), m)]
    if field.is_rational:
        return [rows[i * m:(i + 1) * m] for i in range(m)]
    # g[r] = [gamma_r, omega gamma_r, omega^2 gamma_r]
    t, g = int(field.has_half_integers), [[u + v] for u, v in zip(rows, rows[m * m:])]
    for p in g:
        for _ in range(2):
            p.append(_omega_times(p[-1], t))
    basis = [(s, i) for s in (0, 1) for i in range(m)]  # omega^s a_i
    return [[g[i * m + j][s + u] for u, j in basis] for s, i in basis]


def _integral(field: Field, values: Sequence) -> tuple[list, int]:
    """The (1, omega) coordinates of the values times the lcm D of their denominators, and D."""
    (w,), D = _integral_rows([restrict_coords(field, values)])
    return w, D


def _integral_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """The rational rows times the lcm D of all their denominators, as ints, and D."""
    D = math.lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (D // x.denominator) for x in r] for r in rows], D


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
        return not any(self.coords)

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


def ideal_rank(C: AlgebraElement, n: int | None = None) -> int:
    """Rank of C as a matrix under any isomorphism to M_n(K).

    Computed exactly as dim(C*A) / n from the columns C b_j over the basis
    b_j of the integer table, whose rank over Q is 2 dim_K(C*A) over Q(i) and
    Q(sqrt(-3)).  Raises PromiseViolation when the dimension is not divisible
    by n, which cannot happen for a genuine full matrix algebra.
    """
    table = C.table
    E, _ = _integral(table.field, C.coords)
    return _int_ideal_rank(table, E, table.n if n is None else n)


def _int_ideal_rank(table: StructureConstants, E: Sequence[int], n: int) -> int:
    """ideal_rank of the element whose (1, omega) coordinates are E / D for some integer D > 0."""
    G, _ = table._integral_gamma()
    cols = [_combination(E, [gi[j] for gi in G]) for j in range(len(G))]
    dim = int_rank(cols) * table.m // len(G)
    if dim % n != 0:
        raise PromiseViolation(
            f"dim(C*A) = {dim} is not divisible by n = {n}; "
            "the algebra cannot be a full matrix algebra of this size"
        )
    return dim // n


def build_isomorphism(table: StructureConstants, C: AlgebraElement) -> IsomorphismWitness:
    """Explicit isomorphism A -> M_n(K) from a rank one element C: _build_isomorphism of its _integral."""
    return _build_isomorphism(table, *_integral(table.field, C.coords))


def _build_isomorphism(table: StructureConstants, E: Sequence[int], D: int) -> IsomorphismWitness:
    """The isomorphism A -> M_n(K) from the rank one element C with (1, omega) coordinates E / D, D > 0.

    phi(a_i) is left multiplication by a_i on the left ideal A*C (dimension
    n), checked exactly by _witness_problems on ints before it is lifted to
    field values.  int_gauss_jordan of the columns
    b_q C over the integer table, each omega a_k C right after its a_k C,
    gives a_k C = sum_t X[t][k] w_t over the pivots w_t = a_{p_t} C; over
    Q(i) and Q(sqrt(-3)) the pivots come in pairs (w_t, omega w_t), whose two
    reduced rows hold the (1, omega) coordinates of X[t][k].  By
    associativity a_i w_t = (a_i a_{p_t}) C, so column t of phi(a_i) is
    sum_k gamma_{i p_t k} X[.][k]; on a table that is not associative these
    images fail the check.  C has rank one when there are n pivots over K,
    since dim(A C) = n rank(C) in M_n(K).  phi(e) = I by bilinearity alone:
    its column t holds the coordinates of (e a_{p_t}) C = w_t.
    """
    n, m, field = table.n, table.m, table.field
    G, d = table._integral_gamma()
    h = len(G) // m  # Q-pivots per K-pivot
    order = [q for k in range(m) for q in range(k, len(G), m)]  # a_k, then omega a_k
    cols = [_combination(E, G[q]) for q in order]
    red, pivots = int_gauss_jordan([list(r) for r in zip(*cols)])
    if len(pivots) != h * n:
        raise InputError("build_isomorphism requires a rank one element")
    dp = red[0][pivots[0]]  # every pivot entry is the signed last pivot
    sign, den, L = (1 if dp > 0 else -1), d * abs(dp), n * n
    nums = []  # the (1, omega) coordinates of each image over den, each part flat row-major
    for gi in G[:m]:
        # row h t + s of red is coordinate s along w_t, d a_i a_{p_t} dotted with it
        prods = [[gi[order[c]][q] for q in order] for c in pivots[::h]]
        nums.append([sign * _int_dot(g, red[h * r + s])
                     for s in range(h) for r in range(n) for g in prods])
    flat = [x for s in range(h) for v in nums for x in v[s * L:(s + 1) * L]]  # 1-parts, then omega-parts
    problems = _witness_problems(table, flat, den)
    if problems.pairs:
        raise InternalError(f"multiplicativity fails on the basis pair {problems.pairs[0]}")
    if problems.not_injective:
        raise PromiseViolation(
            "the images of the basis are linearly dependent: A -> M_n(K) is not "
            "injective, so the algebra is not simple"
        )
    lifted = [lift_coords(field, [Fraction(y, den) for y in v]) for v in nums]
    images = [ExactMatrix(field, [x[r * n:(r + 1) * n] for r in range(n)]) for x in lifted]
    ideal = [lift_coords(field, [Fraction(v, d * D) for v in cols[c]]) for c in pivots[::h]]
    return IsomorphismWitness(
        left_ideal_basis=tuple(AlgebraElement(table, x) for x in ideal),
        images=tuple(images),
        rank_one_element=AlgebraElement(table, lift_coords(field, [Fraction(x, D) for x in E])),
    )


@dataclass(frozen=True)
class WitnessProblems:
    """What witness_problems found wrong with a set of images."""

    pairs: tuple  # basis pairs (i, j), row-major, with phi(a_i) phi(a_j) != phi(a_i a_j)
    identity_fails: bool  # phi(1) != I; checked only when every pair holds and the images are dependent
    not_injective: bool  # the m images are linearly dependent


def witness_problems(table: StructureConstants, images: Sequence[ExactMatrix]) -> WitnessProblems:
    """Exact check that a_i -> images[i] is an isomorphism A -> M_n(K).

    Multiplicativity phi(a_i) phi(a_j) = sum_k gamma_ijk phi(a_k) is checked
    on every basis pair, the m = n^2 images must be linearly independent,
    and phi(1) = I must hold: a unital multiplicative linear bijection is an
    isomorphism, while a non-simple algebra such as K^4 has unital
    homomorphisms to M_n(K) that are not injective.  _witness_problems
    checks the _integral of the images.  Raises InputError unless there are
    m images, each n x n over the table's field, and NoIdentityError when
    every pair holds, the images are dependent and the table has no identity.
    """
    _check_witness_shape(table, [(M.field, M.rows, M.cols) for M in images])
    entries = [x for M in images for row in M.entries for x in row]
    return _witness_problems(table, *_integral(table.field, entries))


def _check_witness_shape(table: StructureConstants, shapes: Sequence[tuple]) -> None:
    """InputError unless shapes, the (field, rows, cols) of each image, are m times (K, n, n)."""
    n, m, field = table.n, table.m, table.field
    if len(shapes) != m or any(s != (field, n, n) for s in shapes):
        raise InputError(f"a witness needs {m} images of shape {n} x {n} over {field}")


def _witness_problems(table: StructureConstants, flat: Sequence[int], D: int) -> WitnessProblems:
    """witness_problems of the m n x n images with (1, omega) coordinates flat / D, D > 0.

    flat holds the 1-parts of the images, each flat row-major, then over
    Q(i) and Q(sqrt(-3)) their omega-parts.  Over Q, P_k is D phi(a_k);
    over Q(i) and Q(sqrt(-3)), P_k and P_{m+k} are the realified D phi(a_k)
    and D omega phi(a_k), so sum_k G_ijk P_k runs over the restricted table
    (G, d).  Each pair checks d P_i P_j = D sum_k G_ijk P_k on packed
    matrices (see _pair_defects); the images are independent when the P_k
    have full rank.  Independent images that pass every pair make phi a
    bijective homomorphism onto M_n(K), so A has the identity phi^-1(I) and
    phi(1) = I holds: the identity is solved and checked only for dependent images.
    """
    n, m, field = table.n, table.m, table.field
    P = [flat[k * n * n:(k + 1) * n * n] for k in range(len(flat) // (n * n))]
    if not field.is_rational:
        t, Z = int(field.has_half_integers), [u + v for u, v in zip(P[:m], P[m:])]
        P = [_realified(z, n, t) for z in Z + [_omega_times(z, t) for z in Z]]
    size = n * len(P) // m
    G, d = table._integral_gamma()
    K_rows = [gi[:m] for gi in G[:m]]
    row_defects = _pair_defects(P, K_rows, d, D, size)
    pairs = tuple((i, j) for i in range(m) for j, _ in row_defects(i))
    not_injective = int_rank(P) < len(P)
    identity_fails = False
    if not pairs and not_injective:
        E, de = table._integral_identity()
        identity_fails = _combination(E, P) != _scaled_eye(size, de * D)
    return WitnessProblems(pairs, identity_fails, not_injective)


def _claim_problems(table: StructureConstants, flat: Sequence[int], basis: Sequence[Sequence[int]],
                    element: Sequence[int]) -> list[str]:
    """What the printed left ideal basis and rank one element claim that the images deny.

    flat holds the images as in _witness_problems, which they pass: phi is an
    isomorphism A -> M_n(K).  basis holds the (1, omega) coordinates of the
    w_t over one common denominator, element those of C over any.  If C has
    rank one, phi(A C) = {v rho} for the row rho of phi(C); write phi(w_t) =
    v_t rho, V the matrix with columns v_t.  The images act on the basis as
    printed, a_i w_t = sum_s phi(a_i)[s][t] w_s, exactly when V commutes with
    all of M_n(K), that is V = lambda I.  So (i) row t of phi(w_t) is one
    nonzero row rho for every t, its other rows zero; and (ii) phi(C) != 0
    has its rows in K rho, which puts the w_t in A C and makes C rank one.
    """
    n, m, field = table.n, table.m, table.field
    L, h, t = n * n, 1 if field.is_rational else 2, int(field.has_half_integers)
    Z = [[x for s in range(h) for x in flat[(s * m + k) * L:(s * m + k + 1) * L]] for k in range(m)]
    if h == 2:
        Z += [_omega_times(z, t) for z in Z]

    def rows(v: Sequence[int]) -> list:  # the rows of phi(v), each in (1, omega) coordinates
        M = _combination(v, Z)
        return [[x for s in range(h) for x in M[s * L + r * n:s * L + (r + 1) * n]] for r in range(n)]

    def span(vs: list) -> list:  # Q-generators of the K-span of vs, whose Q-rank is h dim_K
        return vs + [_omega_times(v, t) for v in vs] if h == 2 else vs

    acts = [rows(w) for w in basis]
    rho, zero = acts[0][0], [0] * (h * n)
    problems = []
    if not any(rho) or any(R != [rho if r == s else zero for r in range(n)] for s, R in enumerate(acts)):
        problems.append("the images do not act on the left ideal basis as printed")
    C = rows(element)
    if int_rank(span(C)) != h:
        problems.append("claimed element does not have ideal rank one")
    elif any(rho) and int_rank(span([rho]) + C) != h:
        problems.append("the left ideal basis does not span A*C")
    return problems


def _pack(v: Sequence[int], W: int) -> bytes:
    """The integer vector v packed at slot width W: the bytes of pack(v) + _offset.

    pack(v) = sum_l v[l] 2^(W l) is Z-linear.  If every |x_l| < 2^W and
    pack(x) = 0, then x = 0: the lowest slot gives x_0 = 0 mod 2^W, so x_0 =
    0, and the rest is pack(x[1:]) = 0.  So for u and v whose entries are
    all below 2^(W-1) in absolute value, pack(u) == pack(v) holds exactly
    when u == v.  Adding _offset turns every entry into its own base-2^W
    digit v[l] + 2^(W-1) in [0, 2^W), so the little-endian bytes are those
    digits one after another, W / 8 bytes each, and a slice of them packs
    the matching slice of v.  W must be a multiple of 8 and every |v[l]| <
    2^(W-1).
    """
    half, step = 1 << (W - 1), W // 8
    return b"".join((x + half).to_bytes(step, "little") for x in v)


def _slot_width(bound: int) -> int:
    """The least multiple W of 8 with bound < 2^(W-1): entries of size <= bound fit a slot."""
    return (bound.bit_length() + 8) // 8 * 8


def _offset(slots: int, W: int) -> int:
    """sum_l 2^(W-1) 2^(W l) over slots slots, for W a multiple of 8."""
    return int.from_bytes((bytes(W // 8 - 1) + b"\x80") * slots, "little")


def _pair_defects(P: Sequence[list], coeffs: Sequence, d, D, n: int):
    """The defects d P_i P_j - D sum_k coeffs[i][j][k] P_k, one row i at a time.

    Each P_k is an n x n integer matrix as a flat row-major list.  The
    products run over the first m = len(coeffs) matrices and the
    combinations over all of them.  Packs every matrix once and returns
    row(i): the list of (j, x), ascending in j, for the j whose defect x is
    not zero, x flat row-major.

    Every matrix is packed at one slot width W (see _pack) with d n
    max|P|^2 + D max|P| max_ij sum_k |coeffs[i][j][k]| < 2^(W-1), which
    bounds every entry of d P_i P_j and of the defect.  Row t of every P_j
    is packed into one int, the rows one after another, n slots apart; then
    row r of d P_i P_j for every j is sum_t P_i[r][t] (row t of every P_j),
    n multiply-adds.  Those ints plus _offset are read as bytes, the n rows
    of block j are joined into d P_i P_j plus _offset, and less the packed
    D sum_k coeffs[i][j][k] P_k that is the defect plus _offset: the pair
    holds exactly when it equals the offset.
    """
    m, L = len(coeffs), n * n
    top = max(max(max(Pk), -min(Pk)) for Pk in P)
    wide = max(sum(map(abs, cij)) for ci in coeffs for cij in ci)
    W = _slot_width(d * n * top * top + D * top * wide)
    step = W // 8
    size = n * step  # bytes per packed row
    O, O_rows = _offset(L, W), _offset(m * n, W)
    digits = [_pack(Pk, W) for Pk in P]
    packed = [D * (int.from_bytes(b, "little") - O) for b in digits]
    rows = [d * (int.from_bytes(b"".join(b[t * size:(t + 1) * size] for b in digits[:m]), "little")
                 - O_rows) for t in range(n)]
    half = 1 << (W - 1)

    def row(i: int) -> list:
        Pi, prods = P[i], []
        for r in range(n):
            acc = O_rows
            for a, Pt in zip(Pi[r * n:(r + 1) * n], rows):
                if a:
                    acc += a * Pt
            prods.append(acc.to_bytes(m * size, "little"))
        defects = []
        for j, cij in enumerate(coeffs[i]):
            x = int.from_bytes(b"".join(p[j * size:(j + 1) * size] for p in prods), "little")
            for c, Pk in zip(cij, packed):
                if c:
                    x -= c * Pk
            if x != O:
                b = x.to_bytes(L * step, "little")
                defects.append((j, [int.from_bytes(b[l:l + step], "little") - half
                                    for l in range(0, L * step, step)]))
        return defects

    return row


def _int_dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(x, y) if a)


def _combination(coeffs: Sequence, P: Sequence[list]) -> list:
    """sum_k coeffs[k] P_k over flat lists, skipping zero coefficients."""
    acc = [0] * len(P[0])
    for c, Pk in zip(coeffs, P):
        if c:
            acc = [a + c * x for a, x in zip(acc, Pk)]
    return acc


def _scaled_eye(n: int, s) -> list:
    """s times the n x n identity, flat row-major."""
    return [s if r == c else 0 for r in range(n) for c in range(n)]


def _realified(z: list, n: int, t: int) -> list:
    """[[X, -Y], [Y, X + tY]] flat row-major, for X + Y omega given as z = X + Y.

    That is the matrix of X + Y omega on (1, omega) coordinates of K^n.
    """
    rows = [(z[r * n:(r + 1) * n], z[(n + r) * n:(n + r + 1) * n]) for r in range(n)]
    top = [x for X, Y in rows for x in X + [-y for y in Y]]
    return top + [x for X, Y in rows for x in Y + [a + t * b for a, b in zip(X, Y)]]


def matrix_units_table(n: int, field: Field = None) -> StructureConstants:
    """Structure constants of M_n on the matrix-unit basis E_11, E_12, ..."""
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
    T = _trace_matrix(table)
    cols = [b.coords for b in basis_elems]
    TB = [[_dot(c, row, zero) for row in T] for c in cols]
    return ExactMatrix(table.field, [[_dot(c, u, zero) for u in TB] for c in cols])


def _trace_matrix(table: StructureConstants) -> list[list]:
    """T_kl = Tr(L_{a_k a_l}) = sum_r gamma_klr t_r with t_r = sum_j gamma_rjj."""
    zero = table.field.zero()
    t = [sum((g_r[j][j] for j in range(table.m)), zero) for g_r in table.gamma]
    return [[_dot(g_kl, t, zero) for g_kl in g_k] for g_k in table.gamma]


def _dot(x: Sequence, y: Sequence, zero):
    """Bilinear dot product, skipping the zero entries of x."""
    return sum((a * b for a, b in zip(x, y) if a), zero)

