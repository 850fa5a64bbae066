"""Order construction, radicals mod p, and maximal order saturation."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy

from test_quadfield import reference_nearest

from matsplit import orders
from matsplit.algebra import StructureConstants, lift_coords, matrix_units_table
from matsplit.errors import FactorBudgetError, InputError, InternalError
from matsplit.exactnum import QQ, ExactMatrix, Field, as_rational
from matsplit.fixtures import gaussian_lambda_order, quaternion_table
from matsplit.orders import (
    Order,
    _flat_constants,
    _fp_kernel,
    _fp_rref,
    _ideal_lattice,
    _idealizer,
    _int_power_mod,
    _minimal_ideal_refinement,
    _omega_triangular,
    _order_int_mult,
    _primitive_idempotents,
    _restricted_to_k,
    _saturate_at_prime,
    congruence_kernel,
    enlarge_at_p,
    factor_integer,
    hnf_columns,
    initial_order,
    maximal_order,
    p_radical,
    restrict_coords,
    restricted_table,
)
from matsplit.splitter import SplitConfig, generate_instance, instance_from_base_change, split


@pytest.fixture(scope="module")
def m2():
    return matrix_units_table(2)


def suborder(table, cols):
    return Order(table, ExactMatrix.from_columns(QQ, [list(map(Fraction, c)) for c in cols]))


def zi_plus_2m2(table):
    return suborder(table, [(1, 0, 0, 1), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0)])


def _hnf(columns, dim):
    """(den, H): H / den is the Hermite basis of the span of the columns, den least, so canonical."""
    fracs = [[Fraction(x) for x in c] for c in columns]
    den = math.lcm(*(x.denominator for c in fracs for x in c))
    H = hnf_columns([[int(x * den) for x in c] for c in fracs], dim)
    g = math.gcd(den, *(x for c in H for x in c))
    return den // g, [tuple(x // g for x in c) for c in H]


def _in_span(columns, v):
    """Whether v is an integer combination of the independent columns, by an exact solve."""
    x = ExactMatrix.from_columns(QQ, columns).solve(v)
    return x is not None and all(Fraction(t).denominator == 1 for t in x)


def _ok_triangular(field, columns, dim):
    """Euclidean column reduction over O_K on QuadScalar columns: the reference
    for the Z[omega] version orders._omega_triangular."""
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
                q = reference_nearest(c[r] / a[r])
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


def _reference_initial_lattice(table):
    """The initial order by Fraction products, as the _hnf pair in the restriction.

    Over Q: ell a_i and e, closed with ``table.multiply``.  Over Q(i) and
    Q(sqrt(-3)): the same generators closed as an O_K-module with the
    Euclidean column reduction ``_ok_triangular``, then restricted to Z by
    the coordinates of each basis vector b and of omega b.
    """
    field, m = table.field, table.m
    ell = math.lcm(*(
        x.denominator for gi in table.gamma for gij in gi for x in restrict_coords(field, gij)
    ))
    gens = [[ell if k == i else 0 for k in range(m)] for i in range(m)]
    gens.append(list(table.find_identity().coords))

    def span(vecs):
        if field == QQ:
            den, H = _hnf(vecs, m)
            return (den, H), [[Fraction(x, den) for x in c] for c in H]
        cols = [list(c) for c in _ok_triangular(field, vecs, m)]
        restricted = [restrict_coords(field, c) for c in cols]
        restricted += [restrict_coords(field, [field.omega() * x for x in c]) for c in cols]
        return _hnf(restricted, 2 * m), cols

    lat, cols = span(gens)
    while True:
        nxt, cols = span(cols + [list(table.multiply(x, y)) for x in cols for y in cols])
        if nxt == lat:
            return lat
        lat = nxt


def _initial_corpus():
    half = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, Fraction(1, 2)]]
    out = [(f"Q2-{s}", generate_instance(2, QQ, 10, s).table) for s in range(1, 9)]
    out += [(f"Q3-{s}", generate_instance(3, QQ, 10, s).table) for s in range(1, 5)]
    out.append(("Q2-half", instance_from_base_change(matrix_units_table(2), half, QQ).table))
    out += [(f"quaternion({a},{a})", quaternion_table(a, a)) for a in (-1, 1)]
    for d, name in ((1, "gauss"), (3, "eisenstein")):
        out += [(f"{name}-{s}", generate_instance(2, name, 5, s).table) for s in range(1, 7)]
        out.append((f"{name}-units", matrix_units_table(2, Field(d))))
    for n, name, seed in ((2, "Q", 1), (2, "Q", 2), (3, "Q", 1), (2, "gauss", 1), (2, "eisenstein", 1)):
        out.append((f"perturbed-{name}{n}-{seed}", _perturbed_instance(n, name, seed)))
    return out


def _perturbed_instance(n, name, seed):
    """A scrambled table that is not associative: E_12 E_12 gains a multiple
    of E_11 before the base change.  No product with a diagonal E_aa changes,
    so e stays a two-sided identity."""
    inst = generate_instance(n, name, 10, seed)
    field = inst.field
    gamma = [[list(row) for row in plane] for plane in matrix_units_table(n, field).gamma]
    gamma[1][1][0] += Fraction(1, 3) if field == QQ else field.omega() / 2
    base = StructureConstants(field, gamma)
    return instance_from_base_change(base, inst.base_change.columns(), field).table


INITIAL_CORPUS = _initial_corpus()


class TestInitialOrder:
    def test_standard_table_gives_the_unit_lattice(self, m2):
        o = initial_order(m2)
        assert o.verify() == []
        for j in range(4):
            col = [Fraction(1) if i == j else Fraction(0) for i in range(4)]
            assert o.contains(col)
        assert abs(as_rational(o.discriminant)) == 1

    def test_denominator_two_table_scales_and_closes(self, m2):
        # base change with a half coordinate creates gamma denominators
        rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, Fraction(1, 2)]]
        inst = instance_from_base_change(m2, rows, QQ)
        o = initial_order(inst.table)
        assert o.verify() == []
        # the scaled generators 2 b_i all land inside
        for j in range(4):
            col = [Fraction(2) if i == j else Fraction(0) for i in range(4)]
            assert o.contains(col)

    def test_quaternion_lattice(self):
        t = quaternion_table(-1, -1)
        o = initial_order(t)
        assert o.verify() == []
        assert abs(as_rational(o.discriminant)) == 16

    @pytest.mark.parametrize("name,table", INITIAL_CORPUS, ids=[n for n, _ in INITIAL_CORPUS])
    def test_integer_closure_matches_the_fraction_closure(self, name, table):
        got = initial_order(table)
        assert got.table.field == QQ and got.table.m == table.m * (1 if table.field == QQ else 2)
        assert _hnf(got.basis_matrix.columns(), got.table.m) == _reference_initial_lattice(table)

    @pytest.mark.parametrize("name,table", INITIAL_CORPUS, ids=[n for n, _ in INITIAL_CORPUS])
    def test_the_generators_already_span_an_order(self, name, table):
        # (ell a_i)(ell a_j) = sum_k G_ijk (ell a_k) and e is an identity, so
        # one Hermite form of the generators is closed for any bilinear table
        assert initial_order(table).verify() == []

    def test_the_perturbed_tables_are_not_associative(self):
        perturbed = [t for name, t in INITIAL_CORPUS if name.startswith("perturbed")]
        assert len(perturbed) == 5 and all(t.validate() for t in perturbed)


class TestPRadical:
    def test_matrix_ring_is_semisimple_mod_every_p(self, m2):
        o = initial_order(m2)
        for p in (2, 3, 5, 101):
            assert p_radical(o, p) == []

    def test_suborder_has_radical_at_two(self, m2):
        sub = zi_plus_2m2(m2)
        rad = p_radical(sub, 2)
        assert len(rad) == 3
        # oracle: the span is a nilpotent ideal of Lambda/2Lambda
        N, s = sub._product_numerators()
        tab = [[[x // s for x in v] for v in row] for row in N]

        def mod2(vec):
            return tuple(int(Fraction(x)) % 2 for x in vec)

        span = {mod2(v) for v in rad}
        for v in rad:
            for j in range(4):
                prod_l = [0] * 4
                prod_r = [0] * 4
                for i, vi in enumerate(v):
                    if vi % 2:
                        prod_l = [a + vi * int(Fraction(b)) for a, b in zip(prod_l, tab[i][j])]
                        prod_r = [a + vi * int(Fraction(b)) for a, b in zip(prod_r, tab[j][i])]
                for prod in (prod_l, prod_r):
                    assert _in_span_mod2(mod2(prod), rad)

    def test_one_dimensional_algebra(self):
        from matsplit.algebra import StructureConstants

        t = StructureConstants(QQ, [[[1]]])
        o = initial_order(t)
        for p in (2, 3, 5):
            assert p_radical(o, p) == []

    def test_rejects_composite_p(self, m2):
        with pytest.raises(InputError):
            p_radical(initial_order(m2), 6)
        with pytest.raises(InputError):
            p_radical(initial_order(m2), 1)

    def test_a_large_prime_is_recognized_at_once(self, m2):
        # q = 2^61 - 1 is prime; the initial order of M_2(Q) on the basis
        # with a_2 scaled by q has discriminant q^2, so maximal_order takes
        # the radical at q (a primality test by trial division to sqrt(q) hangs)
        q = 2**61 - 1
        rows = [[1, 0, 0, 0], [0, q, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        table = instance_from_base_change(m2, rows, QQ).table
        trace = []
        order = maximal_order(table, disc_trace=trace)
        assert trace == [q * q, 1] and abs(as_rational(order.discriminant)) == 1
        assert p_radical(initial_order(table), q) != []
        with pytest.raises(InputError, match="not prime"):
            p_radical(initial_order(table), q * q)


def _in_span_mod2(target, rad):
    from itertools import product

    vecs = [tuple(x % 2 for x in v) for v in rad]
    for coeffs in product((0, 1), repeat=len(vecs)):
        acc = [0, 0, 0, 0]
        for c, v in zip(coeffs, vecs):
            if c:
                acc = [(a + b) % 2 for a, b in zip(acc, v)]
        if tuple(acc) == tuple(target):
            return True
    return False


class TestEnlarge:
    def test_maximal_is_a_fixpoint(self, m2):
        o = initial_order(m2)
        assert enlarge_at_p(o, 2).same_lattice(o)

    def test_suborder_strictly_grows(self, m2):
        sub = zi_plus_2m2(m2)
        big = enlarge_at_p(sub, 2)
        assert not big.same_lattice(sub)
        d_sub = abs(as_rational(sub.discriminant))
        d_big = abs(as_rational(big.discriminant))
        assert d_sub % d_big == 0 and d_big < d_sub
        # containment: every old basis vector lies in the new order
        for j in range(4):
            assert big.contains(sub.basis_matrix.column(j))

    def test_fixpoint_reaches_unit_discriminant(self, m2):
        order = zi_plus_2m2(m2)
        for _ in range(4):
            nxt = enlarge_at_p(order, 2)
            if nxt.same_lattice(order):
                break
            order = nxt
        assert abs(as_rational(order.discriminant)) == 1


class TestMaximalOrder:
    def test_standard_table_unchanged(self, m2):
        o = maximal_order(m2)
        assert abs(as_rational(o.discriminant)) == 1

    def test_scrambled_m3_reaches_unit_discriminant(self):
        inst = generate_instance(3, QQ, 8, seed=12)
        o = maximal_order(inst.table)
        assert abs(as_rational(o.discriminant)) == 1

    def test_division_quaternions_stop_at_the_ramified_discriminant(self):
        o = maximal_order(quaternion_table(-1, -1))
        assert abs(as_rational(o.discriminant)) == 4
        # the Hurwitz element (1 + i + j + k)/2 is present
        assert o.contains([Fraction(1, 2)] * 4)

    def test_split_quaternions_reach_unit_discriminant(self):
        o = maximal_order(quaternion_table(1, 1))
        assert abs(as_rational(o.discriminant)) == 1

    def test_eichler_suborders_need_the_minimal_ideal_step(self, m2):
        # hereditary suborders stall the radical idealizer
        from matsplit.orders import _saturate_at_prime

        for p in (2, 5, 97):
            eich = suborder(m2, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, p, 0), (0, 0, 0, 1)])
            assert enlarge_at_p(eich, p).same_lattice(eich)
            sat = _saturate_at_prime(eich, p)
            assert abs(as_rational(sat.discriminant)) == 1

    def test_disc_trace_is_monotone(self, m2):
        inst = generate_instance(2, QQ, 10, seed=77)
        trace = []
        maximal_order(inst.table, disc_trace=trace)
        assert trace and all(a >= b for a, b in zip(trace, trace[1:]))

    def test_prime_order_does_not_matter(self, m2):
        # the fixpoint is unique, so saturating 2 then 3 equals 3 then 2
        from matsplit.orders import _saturate_at_prime

        sub = suborder(
            m2, [(1, 0, 0, 1), (6, 0, 0, 0), (0, 6, 0, 0), (0, 0, 6, 0)]
        )
        a = _saturate_at_prime(_saturate_at_prime(sub, 2), 3)
        b = _saturate_at_prime(_saturate_at_prime(sub, 3), 2)
        assert a.same_lattice(b)
        assert abs(as_rational(a.discriminant)) == 1

    @pytest.mark.parametrize("name,n,seed", [
        ("Q", 3, 1), ("Q", 3, 2), ("Q", 3, 3), ("Q", 2, 3), ("Q", 3, 5), ("quaternion", 2, 0),
        ("gauss", 2, 1), ("eisenstein", 2, 1),
    ])
    def test_saturation_builds_no_exact_matrix_over_q(self, monkeypatch, name, n, seed):
        # orders are built on integers, the conversion of the saturated
        # restriction to an O_K-basis included
        if name == "quaternion":
            table = quaternion_table(-1, -1)
        else:
            table = generate_instance(n, name, 10, seed).table
        built, init = [], ExactMatrix.__init__

        def counting(self, field, entries):
            built.append(field)
            init(self, field, entries)

        monkeypatch.setattr(ExactMatrix, "__init__", counting)
        trace = []
        maximal_order(table, disc_trace=trace)
        assert built == []
        if (name, n, seed) in (("Q", 2, 3), ("Q", 3, 5), ("quaternion", 2, 0)):
            assert trace[0] > trace[-1]  # saturation built idealizers

    def test_factor_budget_error(self):
        # a cofactor with two large prime factors cannot be certified
        with pytest.raises(FactorBudgetError):
            factor_integer(1_000_003 * 1_000_033, budget=1000)

    def test_factor_budget_error_reports_the_limit_used(self):
        # trial division is capped at 2^20 whatever the budget says
        p = sympy.nextprime(1 << 20)
        q = sympy.nextprime(p)
        with pytest.raises(FactorBudgetError, match=f"up to {1 << 20}$"):
            factor_integer(p * q, budget=10**7)

    def test_factor_integer_smooth(self):
        assert factor_integer(720) == {2: 4, 3: 2, 5: 1}

    @pytest.mark.parametrize("p", [1_000_003, 2**31 - 1])
    @pytest.mark.parametrize("k", range(2, 7))
    def test_a_power_of_a_large_prime_is_accepted(self, p, k):
        # the cofactor p^k left by trial division is a perfect power of a prime
        assert factor_integer(p**k) == {p: k}
        assert factor_integer(12 * p**k) == {2: 2, 3: 1, p: k}


class TestOrderBasis:
    def test_a_basis_over_another_field_is_refused(self, m2):
        with pytest.raises(InputError, match="order basis over Q\\(sqrt\\(-1\\)\\) for an algebra over Q$"):
            Order(m2, ExactMatrix.identity(Field(1), 4))
        with pytest.raises(InputError, match="order basis over Q for an algebra over Q\\(sqrt\\(-1\\)\\)"):
            Order(matrix_units_table(2, Field(1)), ExactMatrix.identity(QQ, 4))

    @pytest.mark.parametrize("d", [None, 1, 3])
    def test_the_basis_matrix_is_the_given_basis(self, d):
        field = Field(d)
        table = generate_instance(2, {None: "Q", 1: "gauss", 3: "eisenstein"}[d], 10, 2).table
        B = maximal_order(table).basis_matrix
        scaled = ExactMatrix.from_columns(field, [[x / 3 for x in c] for c in B.columns()])
        for M in (B, scaled):
            got = Order(table, M).basis_matrix
            assert got == M and got.field == field


class TestQuadraticFieldOrders:
    @pytest.mark.parametrize("d", [1, 3])
    def test_standard_m2_is_already_maximal(self, d):
        t = matrix_units_table(2, Field(d))
        o = maximal_order(t)
        std = Order(t, ExactMatrix.identity(Field(d), 4))
        assert o.same_lattice(std)
        disc = o.discriminant
        assert disc.norm() == 1

    @pytest.mark.parametrize("d", [1, 3])
    def test_restriction_discriminant_is_the_field_power(self, d):
        t = matrix_units_table(2, Field(d))
        rest = initial_order(t)
        D = 4 if d == 1 else 3
        assert abs(as_rational(rest.discriminant)) == D**4

    def test_restricted_table_is_associative(self):
        t = matrix_units_table(2, Field(3))
        rt = restricted_table(t)
        assert rt.m == 8
        # dimension 8 is of course not a perfect square; everything else holds
        assert [v for v in rt.validate() if "perfect square" not in v] == []

    @pytest.mark.parametrize("d", [1, 3])
    def test_scrambled_instances_saturate(self, d):
        name = "gauss" if d == 1 else "eisenstein"
        inst = generate_instance(2, name, 5, seed=3)
        o = maximal_order(inst.table)
        assert o.verify() == []
        assert o.discriminant.norm() == 1

    def test_enlarge_on_k_order_roundtrips(self):
        # saturation runs on the restriction only; a K-order is refused
        t = matrix_units_table(2, Field(1))
        o = _restricted_to_k(t, initial_order(t))
        with pytest.raises(InputError, match="order over Q"):
            enlarge_at_p(o, 2)
        with pytest.raises(InputError, match="order over Q"):
            p_radical(o, 2)


K_CORPUS = [(n, t) for n, t in INITIAL_CORPUS if n.startswith(("gauss", "eisenstein"))]


class TestOmegaEuclid:
    """orders._omega_triangular on Z[omega] ints against the QuadScalar reduction."""

    @staticmethod
    def _random_columns(rng, k, count, bound):
        return [[rng.randint(-bound, bound) for _ in range(2 * k)] for _ in range(count)]

    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_the_quadscalar_reduction(self, d):
        field, t = Field(d), int(d == 3)
        rng = random.Random(d)
        for trial in range(150):
            k = rng.randint(1, 4)
            cols = self._random_columns(rng, k, rng.randint(k, 2 * k + 2), rng.choice([1, 3, 50]))
            if trial % 5 == 0:
                # repeated columns and an omega multiple tie in the norm sort
                cols += [list(cols[0]), orders._omega_times(cols[0], t)]
            try:
                expected = _ok_triangular(field, [lift_coords(field, c) for c in cols], k)
            except InputError:
                with pytest.raises(InternalError, match="full Z\\[omega\\]-module"):
                    _omega_triangular(cols, k, t)
                continue
            got = _omega_triangular(cols, k, t)
            assert [lift_coords(field, c) for c in got] == expected

    def test_rank_loss_is_an_internal_error(self):
        with pytest.raises(InternalError, match="full Z\\[omega\\]-module"):
            _omega_triangular([[1, 2, 0, 0], [2, 4, 0, 0]], 2, 0)
        with pytest.raises(InternalError):
            _omega_triangular([[0, 0, 0, 0]], 2, 1)

    @pytest.mark.parametrize("name,table", K_CORPUS, ids=[n for n, _ in K_CORPUS])
    def test_the_way_back_matches_the_quadscalar_reduction(self, name, table):
        # the O_K-order of the initial order and of the maximal order, against
        # the public constructor on the reference reduction's basis
        field = table.field
        rest = initial_order(table)
        for order in (rest, _restriction(maximal_order(table))):
            den, C, _, _ = order._int
            cols = [lift_coords(field, [Fraction(x, den) for x in c]) for c in C]
            basis = _ok_triangular(field, cols, table.m)
            expected = Order(table, ExactMatrix.from_columns(field, [list(c) for c in basis]))
            got = _restricted_to_k(table, order)
            assert got._int == expected._int
            assert got.basis_matrix == expected.basis_matrix

    def test_the_gaussian_fixture_is_unchanged(self):
        # the fixture's module basis from the reference reduction
        field = Field(1)
        one, i, two = field.one(), field.omega(), field.coerce(2)
        residues = [field.zero(), one, i, one + i]

        def integral(x):
            return x.is_integral()

        gens = [tuple(two if t == k else field.zero() for t in range(4)) for k in range(4)]
        gens += [
            (a, b, c, e) for a, b, c, e in product(residues, repeat=4)
            if integral((a - b) / (one + i)) and integral((b - c) / (one + i))
            and integral((c - e) / (one + i)) and integral((a + b + c + e) / two)
        ]
        s = (one + i) / two
        cols = [[s * x for x in c] for c in _ok_triangular(field, gens, 4)]
        expected = Order(matrix_units_table(2, field), ExactMatrix.from_columns(field, cols))
        assert gaussian_lambda_order()._int == expected._int


# ---------------------------------------------------------------------------
# the discriminant stop rule of the saturation
# ---------------------------------------------------------------------------


def _saturation_corpus():
    out = [(f"Q{n}-{s}", generate_instance(n, QQ, 10, s).table) for n in (2, 3) for s in range(1, 9)]
    out += [
        (f"{name}-{s}", generate_instance(2, name, 10, s).table)
        for name in ("gauss", "eisenstein")
        for s in range(1, 9)
    ]
    for field, fname in ((QQ, "Q"), (Field(1), "gauss"), (Field(3), "eisenstein")):
        out += [
            (f"({a},{b})-{fname}", quaternion_table(a, b, field))
            for a, b in ((-1, -1), (-1, 3), (2, 5), (3, 7))
        ]
    return out


SATURATION_CORPUS = _saturation_corpus()


def _square_primes(table):
    """The primes p with p^2 | disc of the initial order: those maximal_order saturates."""
    disc = int(as_rational(initial_order(table).discriminant))
    return sorted(p for p, e in factor_integer(disc).items() if e >= 2)


def _restriction(order):
    """The order over Q; over Q(i) and Q(sqrt(-3)) its Z-basis in restricted_table coordinates."""
    table = order.table
    if table.field.is_rational:
        return order
    cols = [restrict_coords(table.field, b.coords) for b in order.z_basis()]
    return Order(restricted_table(table), ExactMatrix.from_columns(QQ, [list(c) for c in cols]))


def _right_idealizer(order, ideal, p):
    """O_r(I) = {x : I x <= I}, as the left idealizer of the same columns in the
    opposite table gamma_op[i][j][k] = gamma[j][i][k], on the same integer basis."""
    table = order.table
    G, d = table._integral_gamma()
    op = StructureConstants._of_ints(QQ, [list(row) for row in zip(*G)], d, table._integral_identity())
    den, C, _, _ = order._int
    return _idealizer(Order._reduced(op, den, C), ideal, p)


class TestDiscriminantStopRule:
    @pytest.mark.parametrize(
        "name,table", SATURATION_CORPUS, ids=[n for n, _ in SATURATION_CORPUS]
    )
    def test_the_early_exit_returns_the_stalled_fixpoint(self, name, table):
        # without the stop rule the loop returns only once the left
        # idealizer and the minimal-ideal refinement both stall (and with
        # them the right idealizer); the order maximal_order returns must be
        # such a stall
        order = _restriction(maximal_order(table))
        for p in _square_primes(table):
            ideal = _ideal_lattice(order, p, p_radical(order, p))
            assert enlarge_at_p(order, p).same_lattice(order)
            assert _right_idealizer(order, ideal, p).same_lattice(order)
            assert _minimal_ideal_refinement(order, p).same_lattice(order)

    def test_the_corpus_saturates(self):
        # the fixpoint test above is not vacuous: most tables saturate somewhere
        saturating = [name for name, table in SATURATION_CORPUS if _square_primes(table)]
        assert len(saturating) >= len(SATURATION_CORPUS) // 2

    @pytest.mark.parametrize(
        "field,n,floor", [("Q", 2, 1), ("Q", 3, 1), ("gauss", 2, 4**4), ("eisenstein", 2, 3**4)]
    )
    def test_splits_end_on_the_field_floor(self, field, n, floor):
        # |d_K|^m divides every discriminant, and a maximal order of M_n(K) attains it
        seeds = range(1, 13) if n == 2 else range(1, 9)
        for seed in seeds:
            result = split(generate_instance(n, field, 10, seed).table, SplitConfig(seed=7))
            assert result.stats.disc_trace[-1] == floor

    @pytest.mark.parametrize("d", [1, 3])
    def test_the_unit_table_needs_no_idealizer(self, d, monkeypatch):
        calls = []
        real = orders._idealizer

        def spy(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(orders, "_idealizer", spy)
        table = matrix_units_table(2, Field(d))
        floor = 4**4 if d == 1 else 3**4
        trace = []
        maximal_order(table, disc_trace=trace)
        assert calls == [] and trace == [floor, floor]
        # at the floor the same object comes back; without it the spy sees
        # the stall checks
        p, floor_exp = (2, 8) if d == 1 else (3, 4)
        rest = initial_order(table)
        assert _saturate_at_prime(rest, p, floor_exp) is rest and calls == []
        assert _saturate_at_prime(rest, p).same_lattice(rest)
        assert calls


QUATERNION_PAIRS = (
    (-1, -1), (-1, 3), (2, 5), (3, 7), (1, 1), (-1, -3),
    (-2, -5), (6, 7), (10, 3), (-1, -7), (5, -2), (2, 3),
)
RIGHT_IDEALIZER_CORPUS = {
    "Q2": lambda: [generate_instance(2, QQ, 10, s).table for s in range(1, 61)],
    "Q3": lambda: [generate_instance(3, QQ, 10, s).table for s in range(1, 31)],
    "gauss": lambda: [generate_instance(2, "gauss", 10, s).table for s in range(1, 61)],
    "eisenstein": lambda: [generate_instance(2, "eisenstein", 10, s).table for s in range(1, 61)],
    "quaternion": lambda: [
        quaternion_table(a, b, field) for field in (QQ, Field(1), Field(3)) for a, b in QUATERNION_PAIRS
    ],
}


class TestRightRadicalIdealizer:
    @pytest.mark.parametrize("family", sorted(RIGHT_IDEALIZER_CORPUS))
    def test_the_right_idealizer_stalls_with_the_left(self, family, monkeypatch):
        # the order is hereditary at p exactly when the left order of the
        # radical ideal J is the order itself, and hereditary is two-sided
        # (Reiner, Maximal Orders, section 39); so saturation never tries
        # O_r(J).  Every stall the saturation meets must stall O_r(J) too.
        stalls = []
        real = orders.enlarge_at_p

        def spy(order, p):
            nxt = real(order, p)
            if nxt.same_lattice(order):
                stalls.append((order, p))
            return nxt

        monkeypatch.setattr(orders, "enlarge_at_p", spy)
        for table in RIGHT_IDEALIZER_CORPUS[family]():
            maximal_order(table)
        assert stalls
        for order, p in stalls:
            ideal = _ideal_lattice(order, p, p_radical(order, p))
            assert _right_idealizer(order, ideal, p).same_lattice(order)


# the generated tables whose saturation reaches the minimal-ideal refinement
# (seed 1014 is a q-split benchmark instance)
REFINEMENT_SEEDS = (
    [(2, QQ, s) for s in (5, 36)]
    + [(2, "gauss", s) for s in (1, 13, 31, 46, 48, 49)]
    + [(2, "eisenstein", 49)]
    + [(3, QQ, s) for s in (8, 21, 28, 1014)]
)
REFINEMENT_CORPUS = {
    **RIGHT_IDEALIZER_CORPUS,
    "refinement": lambda: [generate_instance(n, f, 10, s).table for n, f, s in REFINEMENT_SEEDS],
}


def iwahori(p):
    """The hereditary Iwahori order of M_3(Q) at p: E_ij for i <= j, and p E_ij for i > j.

    Lambda / J is F_p^3, so its minimal-ideal refinement splits three components."""
    cols = [[(p if i > j else 1) if k == 3 * i + j else 0 for k in range(9)] for i in range(3) for j in range(3)]
    return suborder(matrix_units_table(3), cols)


IWAHORI_PRIMES = (2, 3, 31, 2**31 - 1)


def _spy_refinement(monkeypatch, inputs):
    """maximal_order of each table, or _saturate_at_prime of each (order, p)
    pair; returns the (order, J, p, O_l(J)) of every idealizer that
    _minimal_ideal_refinement takes, and the (arguments, result) of every
    _primitive_idempotents call."""
    inside, idealizers, splits = [], [], []
    refine, idealizer, idempotents = (
        orders._minimal_ideal_refinement, orders._idealizer, orders._primitive_idempotents
    )

    def refine_spy(order, p):
        inside.append(p)
        try:
            return refine(order, p)
        finally:
            inside.pop()

    def idealizer_spy(order, J, p):
        got = idealizer(order, J, p)
        if inside:
            idealizers.append((order, J, p, got))
        return got

    def idempotents_spy(*args):
        got = idempotents(*args)
        splits.append((args, got))
        return got

    monkeypatch.setattr(orders, "_minimal_ideal_refinement", refine_spy)
    monkeypatch.setattr(orders, "_idealizer", idealizer_spy)
    monkeypatch.setattr(orders, "_primitive_idempotents", idempotents_spy)
    for item in inputs:
        if isinstance(item, tuple):
            _saturate_at_prime(*item)
        else:
            maximal_order(item)
    return idealizers, splits


class TestMinimalIdealRefinement:
    @pytest.mark.parametrize("family", sorted(REFINEMENT_CORPUS))
    def test_the_right_idealizer_of_a_candidate_stalls_with_the_left(self, family, monkeypatch):
        # the refinement takes only O_l(J_i); its docstring proves that O_r(J_i)
        # enlarges exactly when O_l(J_i) does, so every candidate it tried
        # must stall or enlarge on both sides alike
        idealizers, _ = _spy_refinement(monkeypatch, REFINEMENT_CORPUS[family]())
        assert idealizers
        for order, J, p, left in idealizers:
            assert _right_idealizer(order, J, p).same_lattice(order) == left.same_lattice(order)

    @pytest.mark.parametrize("p", IWAHORI_PRIMES)
    def test_iwahori_orders_need_the_refinement(self, p):
        # hereditary with three components of Lambda/J: the radical idealizer
        # stalls and the refinement enlarges, up to a maximal order
        order = iwahori(p)
        assert enlarge_at_p(order, p).same_lattice(order)
        refined = _minimal_ideal_refinement(order, p)
        assert refined._contains_columns(order._int[1], order._int[0])
        assert not refined.same_lattice(order)
        assert abs(as_rational(_saturate_at_prime(order, p).discriminant)) == 1

    def test_the_idempotents_are_the_primitive_central_ones(self, monkeypatch):
        # on each quotient S the refinement reaches: orthogonal central
        # idempotents of S, as many as F has dimensions, summing to 1_S, in
        # descending order of the values of F's basis on them, whatever the rng
        inputs = REFINEMENT_CORPUS["refinement"]() + [(iwahori(p), p) for p in IWAHORI_PRIMES]
        _, splits = _spy_refinement(monkeypatch, inputs)
        assert {p for (f_basis, _, _, p, _), _ in splits if len(f_basis) == 3} >= set(IWAHORI_PRIMES)
        for (f_basis, one_s, smul, p, _), got in splits:
            sdim = len(one_s)
            units = [[int(i == j) for i in range(sdim)] for j in range(sdim)]
            assert all(smul(one_s, b) == b == smul(b, one_s) for b in units)
            assert len(got) == len(f_basis)
            assert [sum(col) % p for col in zip(*got)] == one_s
            for s, e in enumerate(got):
                assert any(e) and all(smul(e, b) == smul(b, e) for b in units)
                for t, f in enumerate(got):
                    assert smul(e, f) == (e if s == t else [0] * sdim)
            # b e = b_k e on the idempotent e of factor k: read b_k off a nonzero coordinate
            values = []
            for e in got:
                i = next(i for i, x in enumerate(e) if x)
                values.append([smul(b, e)[i] * pow(e[i], -1, p) % p for b in f_basis])
                assert all(smul(b, e) == [values[-1][t] * x % p for x in e] for t, b in enumerate(f_basis))
            assert values == sorted(values, reverse=True) and len(set(map(tuple, values))) == len(values)
            for seed in (1, 2):
                assert _primitive_idempotents(f_basis, one_s, smul, p, random.Random(seed)) == got

    def test_f_is_the_frobenius_fixed_centre(self, monkeypatch):
        # F against its definition, by listing S when p^dim S <= 1000: the z that
        # commute with every unit vector and have z^p = z are exactly the F_p-span
        # of f_basis.  The quaternion algebras ramified at p give S = F_(p^2),
        # whose centre is larger than F.
        inputs = (REFINEMENT_CORPUS["refinement"]() + REFINEMENT_CORPUS["quaternion"]()
                  + [(iwahori(p), p) for p in (2, 3)])
        _, splits = _spy_refinement(monkeypatch, inputs)
        checked, larger_centre = 0, 0
        for (f_basis, one_s, smul, p, _), _ in splits:
            sdim = len(one_s)
            if p**sdim > 1000:
                continue
            units = [[int(i == j) for i in range(sdim)] for j in range(sdim)]
            central, fixed = set(), set()
            for z in map(list, product(range(p), repeat=sdim)):
                if all(smul(z, b) == smul(b, z) for b in units):
                    central.add(tuple(z))
                    zp = z
                    for _ in range(p - 1):
                        zp = smul(zp, z)
                    if zp == z:
                        fixed.add(tuple(z))
            span = {
                tuple(sum(c * x for c, x in zip(coef, col)) % p for col in zip(*f_basis))
                for coef in product(range(p), repeat=len(f_basis))
            }
            assert fixed == span
            checked += 1
            larger_centre += len(central) > len(fixed)
        assert checked >= 70 and larger_centre >= 40


# ---------------------------------------------------------------------------
# brute-force oracles for the integer saturation kernels
# ---------------------------------------------------------------------------


def _reference_int_table(order):
    """c[i][j] = B^-1 (b_i b_j) through the Fraction inverse of the basis."""
    inv = order.basis_matrix.inverse()
    cols = order.basis_matrix.columns()
    table = [[inv.mul_vector(order.table.multiply(x, y)) for y in cols] for x in cols]
    assert all(v.denominator == 1 for row in table for vec in row for v in vec)
    return [[[int(v) for v in vec] for vec in row] for row in table]


def _reference_left_matrix(c, x):
    m = len(c)
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                rows[k][j] += x[i] * c[i][j][k]
    return rows


def _reference_trace_power_mod(mat, e, mod):
    """Tr(mat^e) mod ``mod`` by repeated squaring of the m x m matrix."""
    m = len(mat)

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(m)) % mod for j in range(m)] for i in range(m)]

    result, base = None, [[x % mod for x in row] for row in mat]
    while e:
        if e & 1:
            result = base if result is None else matmul(result, base)
        e >>= 1
        if e:
            base = matmul(base, base)
    return sum(result[i][i] for i in range(m)) % mod


def _reference_radical(order, p):
    """The matrix-power radical: Tr(M_{xy}^(p^j)) from the left matrix of xy."""
    c = _reference_int_table(order)
    m = order.table.m
    current = [[int(i == j) for i in range(m)] for j in range(m)]
    j = 0
    while p**j <= m and current:
        pj = p**j
        rows = []
        for y in range(m):
            row = []
            for x in current:
                xy = [sum(x[i] * c[i][y][k] for i in range(m)) for k in range(m)]
                t = _reference_trace_power_mod(_reference_left_matrix(c, xy), pj, p * pj * pj)
                assert t % pj == 0
                row.append((t // pj) % p)
            rows.append(row)
        ker = _fp_kernel(rows, len(current), p)
        current = [
            [sum(coef[t] * current[t][i] for t in range(len(current))) % p for i in range(m)]
            for coef in ker
        ]
        j += 1
    return current


def _reference_stages(order, p):
    """The radical stages with each product x b_y reduced against the echelon
    basis of the stage V: the reference for the check through Ann(V)."""
    c = _order_int_mult(order)
    m = order.table.m
    flat = _flat_constants(c)
    right = [[col[y::m] for col in flat] for y in range(m)]
    trace = [sum(c[k][j][j] for j in range(m)) for k in range(m)]
    current = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    j = 0
    while p**j <= m and current:
        pj, modulus = p**j, p ** (2 * j + 1)
        ech, pivots = _fp_rref(current, p)
        ech = ech[: len(pivots)]
        g = [0] * m
        for row, col in zip(ech, pivots):
            t = sum(a * b for a, b in zip(trace, _int_power_mod(flat, row, pj, modulus))) % modulus
            if t % pj:
                raise InternalError("trace-of-power divisibility failed")
            g[col] = (t // pj) % p
        rows = []
        for y in range(m):
            row = []
            for x in current:
                xy = [sum(a * b for a, b in zip(x, r)) % p for r in right[y]]
                rest = xy
                for e, col in zip(ech, pivots):
                    if rest[col]:
                        f = rest[col]
                        rest = [(a - f * b) % p for a, b in zip(rest, e)]
                if any(rest):
                    raise InternalError("a radical stage is not an ideal mod p")
                row.append(sum(a * b for a, b in zip(g, xy)) % p)
            rows.append(row)
        ker = _fp_kernel(rows, len(current), p)
        current = [
            [sum(coef[t] * current[t][i] for t in range(len(current))) % p for i in range(m)]
            for coef in ker
        ]
        j += 1
    return current


def _unital_table(rng, m):
    """A random integer table with a_1 a two-sided identity, associative or not."""
    gamma = [[[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)] for _ in range(m)]
    for j in range(m):
        gamma[0][j] = gamma[j][0] = [int(k == j) for k in range(m)]
    return StructureConstants(QQ, gamma)


def _scrambled(order, rng):
    """The same lattice on a random non-triangular basis (a unimodular change)."""
    cols = [list(c) for c in order.basis_matrix.columns()]
    m = len(cols)
    for _ in range(3 * m):
        a, b = rng.sample(range(m), 2)
        k = rng.choice([-2, -1, 1, 2])
        cols[a] = [x + k * y for x, y in zip(cols[a], cols[b])]
    return Order(order.table, ExactMatrix.from_columns(QQ, cols))


def _z_plus(order, p):
    """The suborder Z + p Lambda."""
    m = order.table.m
    gens = [[p * x for x in c] for c in order.basis_matrix.columns()]
    gens.append(order.table.find_identity().coords)
    den, H = _hnf(gens, m)
    return Order(order.table, ExactMatrix.from_columns(QQ, [[Fraction(x, den) for x in c] for c in H]))


def _oracle_orders():
    rng = random.Random(2024)
    out = []
    # initial orders of scrambled instances that are not maximal at 2 or 3
    for n, seed in [(2, 3), (2, 5), (2, 8), (3, 5), (3, 9)]:
        init = initial_order(generate_instance(n, QQ, 10, seed).table)
        out += [(f"Q{n}-{seed}", init), (f"Q{n}-{seed}-rebased", _scrambled(init, rng))]
    # Z + p Lambda for maximal Lambda
    for n, seed in [(2, 1), (3, 3)]:
        init = initial_order(generate_instance(n, QQ, 10, seed).table)
        out += [(f"Q{n}-{seed}-Z+{p}L", _z_plus(init, p)) for p in (2, 3, 5)]
        out.append((f"Q{n}-{seed}-Z+2L-rebased", _scrambled(_z_plus(init, 2), rng)))
    for name in ("gauss", "eisenstein"):
        rest = initial_order(generate_instance(2, name, 5, 4).table)
        out += [(name, rest), (name + "-Z+2L", _z_plus(rest, 2))]
    return out


ORACLE_ORDERS = _oracle_orders()


class TestIntegerKernelsAgainstOracles:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("name,order", ORACLE_ORDERS, ids=[n for n, _ in ORACLE_ORDERS])
    def test_radical_matches_the_matrix_power_reference(self, name, order, p):
        # a fresh Order, so the memoized radical of an earlier test is not reused
        fresh = Order(order.table, order.basis_matrix)
        expected = _reference_radical(fresh, p)
        assert p_radical(fresh, p) == expected
        # the memoized second answer is equal and a separate list
        again = p_radical(fresh, p)
        assert again == expected
        if again:
            again[0][0] += 1
            assert p_radical(fresh, p) == expected

    def test_the_oracle_orders_run_the_later_stages(self):
        # a nonzero radical after stage 0 at p <= m means the loop over
        # p^j <= m reaches j >= 1
        staged = {p: 0 for p in (2, 3, 5)}
        for _, order in ORACLE_ORDERS:
            c = _reference_int_table(order)
            m = order.table.m
            for p in staged:
                gram = [[sum(c[i][j][k] * sum(c[k][t][t] for t in range(m)) for k in range(m)) % p
                         for j in range(m)] for i in range(m)]
                if _fp_kernel(gram, m, p) and p <= m:
                    staged[p] += 1
        assert staged[2] >= 3 and staged[3] >= 3 and staged[5] >= 1

    @pytest.mark.parametrize("name,order", ORACLE_ORDERS, ids=[n for n, _ in ORACLE_ORDERS])
    def test_integer_table_matches_fractions(self, name, order):
        assert _order_int_mult(order) == _reference_int_table(order)
        rng = random.Random(len(name))
        inv = order.basis_matrix.inverse()
        for _ in range(5):
            v = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(order.table.m)]
            assert order.contains(v) == all(x.denominator == 1 for x in inv.mul_vector(v))

    def test_non_integral_product_raises(self, m2):
        half = Fraction(1, 2)
        lat = suborder(m2, [(1, 0, 0, 0), (0, half, 0, 0), (0, 0, half, 0), (0, 0, 0, 1)])
        with pytest.raises(InternalError, match="not integral"):
            _order_int_mult(lat)
        assert "product b_1 b_2 leaves the lattice" in lat.verify()

    def test_singular_basis_is_rejected(self, m2):
        with pytest.raises(InputError, match="singular"):
            suborder(m2, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1)])

    def test_failed_divisibility_raises(self):
        # a unital but non-associative table: Tr(z^2) is odd for some z in
        # the kernel of the trace form mod 2
        gamma = [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[0, 1, 0, 0], [-2, 1, 0, 3], [6, -2, -1, 0], [-3, 3, 0, -2]],
            [[0, 0, 1, 0], [0, 0, -4, -4], [-3, -1, 4, -6], [-1, -1, 1, -4]],
            [[0, 0, 0, 1], [-1, -2, -2, 0], [6, 2, 2, -2], [4, -2, 3, -2]],
        ]
        fake = Order(StructureConstants(QQ, gamma), ExactMatrix.identity(QQ, 4))
        with pytest.raises(InternalError, match="divisibility"):
            p_radical(fake, 2)

    def test_a_stage_that_is_no_ideal_raises(self):
        gamma = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [2, 1, 6], [-2, 0, 0]],
            [[0, 0, 1], [1, 2, -6], [-4, -6, 2]],
        ]
        fake = Order(StructureConstants(QQ, gamma), ExactMatrix.identity(QQ, 3))
        with pytest.raises(InternalError, match="not an ideal"):
            p_radical(fake, 2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_the_annihilator_check_is_the_echelon_check(self, p):
        # on unital tables that are mostly not associative, p_radical raises
        # "not an ideal" (or the divisibility error) exactly when the
        # reduction of x b_y against V's echelon basis does, and else
        # returns the same radical
        rng = random.Random(p)
        outcomes = set()
        for _ in range(60):
            m = rng.randint(2, 5)
            order = Order(_unital_table(rng, m), ExactMatrix.identity(QQ, m))
            try:
                expected = _reference_stages(order, p)
            except InternalError as exc:
                with pytest.raises(InternalError, match=str(exc)):
                    p_radical(order, p)
                outcomes.add(str(exc))
                continue
            assert p_radical(order, p) == expected
            outcomes.add("radical")
        assert "a radical stage is not an ideal mod p" in outcomes and "radical" in outcomes

    def test_congruence_kernel_matches_enumeration(self):
        rng = random.Random(7)
        for _ in range(150):
            dim, q = rng.randint(1, 3), rng.randint(2, 12)
            rows = [[rng.randint(-20, 20) for _ in range(dim)] for _ in range(rng.randint(1, 4))]
            basis = congruence_kernel(rows, q, dim)
            assert len(basis) == dim
            brute = {
                w for w in product(range(q), repeat=dim)
                if all(sum(a * x for a, x in zip(r, w)) % q == 0 for r in rows)
            }
            # the residues mod q of the lattice the basis spans
            span = {(0,) * dim}
            for col in basis:
                span = {tuple((s + k * x) % q for s, x in zip(v, col)) for v in span for k in range(q)}
            assert span == brute
            assert basis == sorted(basis, key=lambda c: next(i for i, x in enumerate(c) if x))

    @pytest.mark.parametrize("name,order", ORACLE_ORDERS, ids=[n for n, _ in ORACLE_ORDERS])
    def test_same_lattice_matches_fraction_membership(self, name, order):
        # sub- and superorders of one order, and the same lattice on two bases
        rng = random.Random(len(name))
        family = [order, _scrambled(order, rng), _z_plus(order, 2), _z_plus(order, 3)]
        family += [enlarge_at_p(order, p) for p in (2, 3)]

        def within(a, b):
            return all(_in_span(a.basis_matrix.columns(), c) for c in b.basis_matrix.columns())

        seen = set()
        for a in family:
            for b in family:
                inside = within(a, b)
                assert all(a.contains(c) for c in b.basis_matrix.columns()) == inside
                assert a.same_lattice(b) == (inside and within(b, a))
                seen.add(a.same_lattice(b))
        assert seen == {False, True}

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize(
        "name,p", [("Q2-3", 2), ("Q2-8", 3), ("Q2-1-Z+5L", 5), ("gauss", 2), ("eisenstein-Z+2L", 2)]
    )
    def test_idealizer_matches_enumeration(self, name, p, side):
        # I = p Lambda + Lambda b (side "left") or p Lambda + b Lambda (side
        # "right") is a one-sided ideal, so its left (right) order lies
        # between Lambda and Lambda / p: Lambda plus the cosets w / p,
        # w in [0, p)^m, with (w / p) I in I (or I (w / p) in I)
        order = dict(ORACLE_ORDERS)[name]
        m = order.table.m
        c = _reference_int_table(order)

        def times(x, y):
            return [sum(x[i] * y[j] * c[i][j][k] for i in range(m) for j in range(m)) for k in range(m)]

        rng = random.Random(m * p)
        b = [rng.randint(-3, 3) for _ in range(m)]
        units = [[int(i == j) for i in range(m)] for j in range(m)]
        sided = [times(e, b) if side == "left" else times(b, e) for e in units]
        ideal = _ideal_lattice(order, p, sided)
        gens = [[p * x for x in e] for e in units]
        for w in product(range(p), repeat=m):
            pairs = [(w, u) if side == "left" else (u, w) for u in ideal]
            if all(_in_span(ideal, [Fraction(x, p) for x in times(a, b)]) for a, b in pairs):
                gens.append(list(w))
        # back to a-coordinates: B gens / p
        B = order.basis_matrix
        expected = _hnf([[x / p for x in B.mul_vector(g)] for g in gens], m)
        got = (_idealizer if side == "left" else _right_idealizer)(order, ideal, p)
        assert _hnf(got.basis_matrix.columns(), m) == expected
