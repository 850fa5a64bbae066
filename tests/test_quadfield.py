"""Covering constants, nearest-integer rounding, and gamma_h bounds."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matsplit.errors import InputError
from matsplit.exactnum import Field, QuadScalar
from matsplit.quadfield import (
    FieldData,
    HermitianLattice,
    Surd,
    gamma_h,
    gamma_h_best_upper,
    gamma_h_kappa_upper,
    gamma_h_sq,
    gamma_h_upper,
    kappa,
    nearest_integer,
    nearest_ok,
    nearest_omega,
    r_lambda_upper,
    tau,
)


def _distance_to(z, alpha):
    """Euclidean distance from the complex z to a + b sqrt(-d)."""
    return math.hypot(z.real - float(alpha.a), z.imag - float(alpha.b) * math.sqrt(alpha.d))


class TestFieldData:
    def test_discriminant_case_split(self):
        assert FieldData(3).discriminant == 3
        assert FieldData(7).discriminant == 7
        assert FieldData(1).discriminant == 4
        assert FieldData(2).discriminant == 8

    def test_euclidean_flags(self):
        assert all(FieldData(d).euclidean for d in (1, 2, 3, 7, 11))
        assert not FieldData(5).euclidean


class TestSurd:
    def test_normalization(self):
        s = Surd(Fraction(1, 2), 8)  # sqrt(8)/2 = sqrt(2)
        assert s.radicand == 2 and s.coeff == 1
        assert str(s) == "sqrt(2)"

    def test_from_square(self):
        s = Surd.from_square(Fraction(7, 3))
        assert abs(float(s) - math.sqrt(7 / 3)) < 1e-15
        assert s.value_sq() == Fraction(7, 3)

    def test_comparisons_are_exact(self):
        assert Surd(1, 2) < Surd(1, 3)
        assert Surd(Fraction(1, 2), 2) < 1
        assert not (Surd(1, 2) < Surd(1, 2))


class TestKappa:
    # closed forms for the five Euclidean fields
    CASES = {
        1: Fraction(1, 2),
        2: Fraction(3, 4),
        3: Fraction(1, 3),
        7: Fraction(4, 7),
        11: Fraction(9, 11),
    }

    def test_exact_squares(self):
        for d, ksq in self.CASES.items():
            assert kappa(d).value_sq() == ksq

    def test_floats(self):
        assert abs(float(kappa(1)) - math.sqrt(2) / 2) < 1e-15
        assert abs(float(kappa(2)) - math.sqrt(3) / 2) < 1e-15
        assert abs(float(kappa(3)) - math.sqrt(3) / 3) < 1e-15
        assert abs(float(kappa(7)) - 2 * math.sqrt(7) / 7) < 1e-15
        assert abs(float(kappa(11)) - 3 / math.sqrt(11)) < 1e-15

    def test_kappa_exceeds_one_beyond_the_euclidean_range(self):
        for d in (5, 6, 10, 13):
            assert float(kappa(d)) > 1

    def test_tau(self):
        assert tau(1) == 1
        assert tau(3) == 1
        assert tau(5) == 2


class TestNearest:
    def test_zero(self):
        assert nearest_ok(complex(0, 0), 1).is_zero()

    def test_gaussian_deep_hole(self):
        z = complex(0.5, 0.5)
        a = nearest_ok(z, 1)
        assert abs(_distance_to(z, a) - math.sqrt(2) / 2) < 1e-12
        # brute force oracle over a small window
        best = min(
            math.hypot(z.real - u, z.imag - v)
            for u in range(-2, 3)
            for v in range(-2, 3)
        )
        assert abs(_distance_to(z, a) - best) < 1e-12

    def test_eisenstein_deep_hole(self):
        z = complex(0.5, math.sqrt(3) / 6)
        a = nearest_ok(z, 3)
        assert abs(_distance_to(z, a) - float(kappa(3))) < 1e-12

    def test_voronoi_brute_force_eisenstein(self):
        # the distance from nearest_ok always matches a dense grid scan
        rng = random.Random(1)
        for _ in range(200):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            a = nearest_ok(z, 3)
            got = _distance_to(z, a)
            best = min(
                math.hypot(z.real - (u + w / 2), z.imag - (w / 2 + v) * math.sqrt(3))
                for u in range(-4, 5)
                for v in range(-4, 5)
                for w in (0, 1)
            )
            assert got <= best + 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
    def test_covering_radius_never_exceeded(self, d):
        rng = random.Random(d)
        bound = float(kappa(d)) + 1e-12
        for _ in range(10_000):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            a = nearest_ok(z, d)
            assert _distance_to(z, a) <= bound

    def test_exact_nearest_is_integral(self):
        x = QuadScalar(3, Fraction(5, 7), Fraction(-12, 11))
        q = nearest_integer(x)
        assert q.is_integral()
        assert (x - q).norm() <= kappa(3).value_sq() + Fraction(1, 10**24)


def reference_nearest(x: QuadScalar) -> QuadScalar:
    """The nearest ring integer by a QuadScalar scan: the floor and ceiling
    grid a + b sqrt(-d), then for d = 3 mod 4 the half-integer shifted grid;
    the first candidate at the least exact distance wins."""
    d, best, best_dist = x.d, None, None
    grids = [(math.floor(x.a), math.ceil(x.a), math.floor(x.b), math.ceil(x.b), 0)]
    if d % 4 == 3:
        half = Fraction(1, 2)
        grids.append((math.floor(x.a - half), math.ceil(x.a - half),
                      math.floor(x.b - half), math.ceil(x.b - half), half))
    for u0, u1, v0, v1, shift in grids:
        for u in (u0, u1):
            for v in (v0, v1):
                cand = QuadScalar(d, u + shift, v + shift)
                dist = (x - cand).norm()
                if best_dist is None or dist < best_dist:
                    best, best_dist = cand, dist
    return best


class TestNearestOmega:
    """nearest_omega on ints against the QuadScalar scan, ties included."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([1, 3]), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(1, 10**4))
    @example(1, 1, 1, 2)  # (1 + i) / 2: four integer points at one distance
    @example(1, 1, 0, 2)  # 1/2: 0 and 1 tie
    @example(3, 1, 1, 3)  # (1 + sqrt(-3)) / 3, a deep hole: 0, 1 and omega tie
    @example(3, -1, -1, 3)
    @example(3, 1, 0, 2)  # 1/2: 0 and 1 tie on the integer grid
    @example(3, 0, 1, 2)  # sqrt(-3) / 2: the half grid ties with itself
    def test_matches_the_quadscalar_scan(self, d, a, b, e):
        x = QuadScalar(d, Fraction(a, e), Fraction(b, e))
        u, v = nearest_omega(a, b, e, d)
        w = Field(d).omega()
        assert u * Field(d).one() + v * w == reference_nearest(x)
        assert nearest_integer(x) == reference_nearest(x)

    @pytest.mark.parametrize("d", [1, 3])
    def test_every_tie_on_a_fine_grid(self, d):
        # points (a + b sqrt(-d)) / 12 over one fundamental cell hit every
        # tie between two, three and four lattice points
        w = Field(d).omega()
        ring = [s + t * w for s in range(-3, 4) for t in range(-3, 4)]
        ties = set()
        for a in range(-12, 13):
            for b in range(-12, 13):
                x = QuadScalar(d, Fraction(a, 12), Fraction(b, 12))
                ref = reference_nearest(x)
                u, v = nearest_omega(a, b, 12, d)
                assert u + v * w == ref
                ties.add(sum((x - ref).norm() == (x - y).norm() for y in ring))
        assert ties == ({1, 2, 4} if d == 1 else {1, 2, 3})


def standard_lattice(d):
    f = FieldData(d)
    one, zero = f.field.one(), f.field.zero()
    return HermitianLattice(f, [(one, zero), (zero, one)])


def random_hermitian(d, rng):
    f = FieldData(d)
    while True:
        gens = []
        for _ in range(2):
            gens.append(
                tuple(
                    QuadScalar(d, Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)))
                    for _ in range(2)
                )
            )
        try:
            return HermitianLattice(f, gens)
        except InputError:
            continue


class TestGammaH:
    def test_standard_module_values(self):
        for d in (1, 3):
            assert gamma_h(standard_lattice(d)) == 1.0

    def test_upper_bound_values(self):
        assert gamma_h_upper(1).value_sq() == 2
        assert gamma_h_upper(2).value_sq() == 4
        assert gamma_h_upper(3).value_sq() == Fraction(3, 2)

    def test_kappa_bound_values(self):
        assert gamma_h_kappa_upper(1).value_sq() == 2
        assert gamma_h_kappa_upper(7).value_sq() == Fraction(7, 3)
        assert gamma_h_kappa_upper(11).value_sq() == Fraction(11, 2)

    def test_kappa_bound_rejects_large_d(self):
        with pytest.raises(InputError):
            gamma_h_kappa_upper(5)

    def test_bounds_coincide_small_d_and_improve_at_seven(self):
        for d in (1, 2, 3):
            assert gamma_h_kappa_upper(d).value_sq() == gamma_h_upper(d).value_sq()
        assert gamma_h_kappa_upper(7).value_sq() < gamma_h_upper(7).value_sq()
        assert gamma_h_best_upper(7).value_sq() == Fraction(7, 3)

    def test_r_lambda_upper(self):
        assert r_lambda_upper(1) == 1
        assert r_lambda_upper(3) == Fraction(3, 4)
        assert r_lambda_upper(2) == 2

    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    def test_random_lattices_respect_both_bounds(self, d):
        rng = random.Random(100 + d)
        cap = gamma_h_best_upper(d).value_sq()
        for _ in range(50):
            M = random_hermitian(d, rng)
            # exact comparison of squares: no tolerance needed
            assert gamma_h_sq(M) <= cap


def _embedded_order_lattice(order):
    from matsplit.embed import embed_order, embedding_from_images, rationalize
    from matsplit.exactnum import ExactMatrix
    from matsplit.lattice import lll_reduce

    table = order.table
    field = table.field
    units = []
    for a in range(2):
        for b in range(2):
            units.append(
                ExactMatrix(
                    field,
                    [
                        [field.one() if (i == a and j == b) else field.zero() for j in range(2)]
                        for i in range(2)
                    ],
                )
            )
    emb = embedding_from_images(table, units, 192)
    lat = embed_order(emb, order)
    return lll_reduce(rationalize(lat, 2**60))


def _rank_fn(order, reduced):
    from matsplit.algebra import AlgebraElement, ideal_rank

    table = order.table
    hist = reduced.unimodular_history
    # the embedded basis lists b_j and omega b_j in turn
    zs = order.z_basis()
    zs = [zs[s * 4 + j] for j in range(4) for s in range(2)]

    def fn(coeffs):
        zc = [sum(hist[i][j] * coeffs[j] for j in range(8)) for i in range(8)]
        coords = [table.field.zero()] * 4
        for i, c in enumerate(zc):
            if c:
                cc = table.field.coerce(c)
                coords = [a + cc * b for a, b in zip(coords, zs[i].coords)]
        return ideal_rank(AlgebraElement(table, coords), 2)

    return fn


class TestEmpiricalRatio:
    @pytest.mark.parametrize("d", [1, 3])
    def test_standard_order_respects_the_bound(self, d):
        from matsplit.algebra import matrix_units_table
        from matsplit.exactnum import ExactMatrix
        from matsplit.orders import Order
        from matsplit.quadfield import empirical_r_lambda

        table = matrix_units_table(2, Field(d))
        order = Order(table, ExactMatrix.identity(Field(d), 4))
        reduced = _embedded_order_lattice(order)
        ratio = empirical_r_lambda(reduced, _rank_fn(order, reduced), d)
        assert ratio <= float(r_lambda_upper(d)) + 1e-9
        # dyads at norm 1 versus the identity at norm sqrt(2)
        assert abs(ratio - 0.5) < 1e-9

    def test_gaussian_fixture_ratio_is_one(self):
        from matsplit.fixtures import gaussian_lambda_order
        from matsplit.quadfield import empirical_r_lambda

        order = gaussian_lambda_order()
        reduced = _embedded_order_lattice(order)
        ratio = empirical_r_lambda(reduced, _rank_fn(order, reduced), 1)
        assert abs(ratio - 1.0) < 1e-9
