"""Order construction, radicals mod p, and maximal order saturation."""

from fractions import Fraction

import pytest
import sympy

from matsplit.algebra import matrix_units_table
from matsplit.errors import FactorBudgetError, InputError
from matsplit.exactnum import QQ, ExactMatrix, Field, as_rational
from matsplit.fixtures import quaternion_table
from matsplit.orders import (
    Order,
    ZLattice,
    enlarge_at_p,
    factor_integer,
    initial_order,
    maximal_order,
    p_radical,
    restrict_order,
    restricted_table,
)
from matsplit.splitter import generate_instance, instance_from_base_change


@pytest.fixture(scope="module")
def m2():
    return matrix_units_table(2)


def suborder(table, cols):
    return Order(table, ExactMatrix.from_columns(QQ, [list(map(Fraction, c)) for c in cols]))


def zi_plus_2m2(table):
    return suborder(table, [(1, 0, 0, 1), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0)])


class TestZLattice:
    def test_canonical_equality(self):
        a = ZLattice.from_rational_columns([(1, 0), (0, 1)], 2)
        b = ZLattice.from_rational_columns([(1, 1), (0, 1), (1, 0)], 2)
        assert a == b

    def test_membership(self):
        lat = ZLattice.from_rational_columns([(2, 0), (1, 1)], 2)
        assert lat.contains([3, 1])
        assert not lat.contains([Fraction(1, 2), 0])

    def test_sum(self):
        a = ZLattice.from_rational_columns([(2, 0), (0, 2)], 2)
        b = ZLattice.from_rational_columns([(1, 1), (0, 2)], 2)
        s = a.sum(b)
        assert s.contains([1, 1]) and s.contains([2, 0])


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
        tab = sub.multiplication_table()

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
        o = initial_order(t)
        _, rest = restrict_order(o)
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
        t = matrix_units_table(2, Field(1))
        o = initial_order(t)
        assert enlarge_at_p(o, 2).same_lattice(o)
