"""Lattice machinery: LLL, duals, constants, enumeration, tensor products."""

import gc
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from matsplit.errors import InputError, InternalError
from matsplit.exactnum import QQ, ExactMatrix
from matsplit.fixtures import a2_basis, a2_dual_basis, z2_basis
from matsplit.lattice import (
    BoxStats,
    LatticeBasis,
    _certify_lll,
    berge_martinet_upper,
    box_enumerate,
    c_m,
    dual_basis,
    gamma_pow,
    gram_schmidt,
    hermite_gamma,
    hermite_upper,
    lattice_equal,
    lenstra_coefficient_bounds,
    lll_reduce,
    min_norm_by_matrix_rank,
    min_rank_floor,
    orthogonality_defect,
    orthogonality_defect_sq,
    rank_norm_floor,
    short_vectors,
    tensor_product,
    trace_product_check,
)
from matsplit.orders import hnf_columns

SQRT3 = math.sqrt(3)


def random_integral_basis(rng, rank, dim=None, entry=5):
    dim = dim or rank
    while True:
        cols = [
            tuple(Fraction(rng.randint(-entry, entry)) for _ in range(dim))
            for _ in range(rank)
        ]
        try:
            b = LatticeBasis(cols)
            gram_schmidt(b.gram())
            return b
        except InputError:
            continue


class TestLLL:
    def test_classic_two_dimensional_case(self):
        b = LatticeBasis([(201, 1), (200, 1)])
        r = lll_reduce(b)
        norms = sorted(float(r.norm_sq(j)) for j in range(2))
        assert norms == [1.0, 1.0]
        assert lattice_equal(b, r)

    def test_orthonormal_basis_is_stable(self):
        b = LatticeBasis([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        r = lll_reduce(b)
        assert [abs(x) for c in r.columns for x in c] == [
            abs(x) for c in b.columns for x in c
        ]

    def test_hexagonal_basis_norms(self):
        r = lll_reduce(a2_basis())
        for j in range(2):
            assert abs(math.sqrt(float(r.norm_sq(j))) - 1) < 1e-9

    def test_history_is_unimodular_and_exact(self):
        rng = random.Random(7)
        for _ in range(5):
            b = random_integral_basis(rng, 4)
            r = lll_reduce(b)
            B = ExactMatrix.from_columns(QQ, [list(c) for c in b.columns])
            H = ExactMatrix(QQ, [[Fraction(x) for x in row] for row in r.unimodular_history])
            R = ExactMatrix.from_columns(QQ, [list(c) for c in r.columns])
            assert B @ H == R
            assert abs(H.det()) == 1

    def test_reduced_defect_stays_below_the_worst_case(self):
        rng = random.Random(31)
        for _ in range(8):
            rank = rng.randint(2, 5)
            b = random_integral_basis(rng, rank, entry=20)
            r = lll_reduce(b)
            assert orthogonality_defect(r) <= c_m(rank) + 1e-9

    def test_delta_range_enforced(self):
        with pytest.raises(InputError):
            lll_reduce(z2_basis(), Fraction(1, 4))

    def test_dependent_columns_rejected(self):
        with pytest.raises(InputError):
            lll_reduce(LatticeBasis([(1, 2), (2, 4)]))


class TestLLLAgainstSympy:
    """lll_reduce and sympy's DomainMatrix.lll must span the same lattice."""

    @staticmethod
    def _bases():
        rng = random.Random(20240607)
        for rank in range(2, 10):
            for _ in range(3):
                rows = [[rng.randint(-20, 20) for _ in range(rank)] for _ in range(rank)]
                if DomainMatrix([[ZZ(x) for x in r] for r in rows], (rank, rank), ZZ).det() != 0:
                    yield rows

    def test_same_lattice_as_sympy_and_certified(self):
        rejected = 0
        for rows in self._bases():
            rank = len(rows)
            ours = lll_reduce(LatticeBasis(rows))
            theirs = DomainMatrix([[ZZ(x) for x in r] for r in rows], (rank, rank), ZZ).lll()
            their_rows = [[int(x) for x in r] for r in theirs.to_list()]
            our_rows = [[int(x) for x in c] for c in ours.columns]
            expected = hnf_columns(rows, rank)
            assert hnf_columns(our_rows, rank) == hnf_columns(their_rows, rank) == expected
            _certify_lll(ours, Fraction(3, 4))
            _certify_lll(LatticeBasis(their_rows), Fraction(3, 4))
            try:
                _certify_lll(LatticeBasis(rows), Fraction(3, 4))
            except InternalError:
                rejected += 1
        # the certificate has teeth: none of the random inputs is reduced
        assert rejected == 24


class TestDefectAndDual:
    def test_orthonormal_defect_one(self):
        assert orthogonality_defect(z2_basis()) == 1.0

    def test_hexagonal_defect(self):
        # det(A2 gram) = 3/4 for unit generators, so the defect is 2/sqrt(3)
        b = a2_basis()
        det_sq = b.det_sq()
        assert abs(float(det_sq) - 0.75) < 1e-9
        assert abs(orthogonality_defect(b) - 2 / SQRT3) < 1e-9

    def test_defect_scale_invariant(self):
        b = LatticeBasis([(3, 0), (1, 2)])
        scaled = LatticeBasis([(6, 0), (2, 4)])
        assert orthogonality_defect_sq(b) == orthogonality_defect_sq(scaled)

    def test_dual_of_identity(self):
        d = dual_basis(z2_basis())
        assert lattice_equal(d, z2_basis())

    def test_dual_pairing_exact(self):
        rng = random.Random(3)
        b = random_integral_basis(rng, 3)
        d = dual_basis(b)
        for i in range(3):
            for j in range(3):
                dot = sum(x * y for x, y in zip(b.columns[i], d.columns[j]))
                assert dot == (1 if i == j else 0)

    def test_hexagonal_dual_matches_the_known_generators(self):
        d = dual_basis(a2_basis())
        # (0, 2/sqrt3) and (1, -1/sqrt3) must be lattice points of the dual
        B = ExactMatrix.from_columns(QQ, [list(c) for c in d.columns])
        Binv = B.inverse()
        for target in [(0.0, 2 / SQRT3), (1.0, -1 / SQRT3)]:
            coeffs = Binv.mul_vector([Fraction(x) for x in target])
            rounded = [round(c) for c in coeffs]
            recon = B.mul_vector(rounded)
            err = math.hypot(*(float(a) - t for a, t in zip(recon, target)))
            assert err < 1e-9

    def test_dual_determinant_identity(self):
        rng = random.Random(11)
        for _ in range(5):
            b = random_integral_basis(rng, 3)
            d = dual_basis(b)
            assert d.det_sq() * b.det_sq() == 1

    def test_double_dual_is_the_original(self):
        rng = random.Random(13)
        b = random_integral_basis(rng, 4)
        assert lattice_equal(dual_basis(dual_basis(b)), b)


class TestConstants:
    def test_gamma4_exact(self):
        v, exact = hermite_gamma(4)
        assert exact and abs(v - math.sqrt(2)) < 1e-15

    def test_gamma2_exact(self):
        v, exact = hermite_gamma(2)
        assert exact and abs(v - 2 / SQRT3) < 1e-15
        assert gamma_pow(2) == Fraction(4, 3)

    def test_gamma9_is_an_upper_bound(self):
        v, exact = hermite_gamma(9)
        assert not exact
        # gamma_9 >= gamma_8^(8/9) by the Mordell inequality
        assert v >= 2.0 ** (8.0 / 9.0)

    def test_upper_dominates_exact_on_the_table(self):
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 24):
            assert hermite_upper(n) >= hermite_gamma(n)[0] - 1e-12

    def test_berge_martinet_defaults_to_hermite(self):
        for n in (2, 3, 4):
            assert berge_martinet_upper(n) == hermite_gamma(n)[0]

    def test_c_m_values(self):
        assert abs(c_m(4) - 648) < 1e-12
        assert abs(c_m(1) - 1.5) < 1e-15
        assert abs(c_m(2) - 3 * SQRT3) < 1e-12

    def test_rank_norm_floors(self):
        assert rank_norm_floor(1) == 1.0
        assert abs(rank_norm_floor(2) - math.sqrt(1.5)) < 1e-15
        assert abs(rank_norm_floor(4) - math.sqrt(2)) < 1e-15

    def test_min_rank_floor(self):
        value, argmin = min_rank_floor(8)
        assert argmin == 2
        assert abs(value - math.sqrt(1.5)) < 1e-15
        assert min_rank_floor(2)[1] == 2
        assert min_rank_floor(4)[1] == 2

    def test_lenstra_bounds(self):
        assert lenstra_coefficient_bounds(1.0, 1.0, [1.0, 1.0]) == [1, 1]
        assert lenstra_coefficient_bounds(648.0, math.sqrt(2), [1.0] * 4) == [916] * 4
        assert lenstra_coefficient_bounds(1.0, 1.0, [3.0]) == [0]


class TestEnumeration:
    def test_z2_unit_ball(self):
        vecs = short_vectors(z2_basis().gram(), 1)
        assert [c for c, _ in vecs] == [(0, 1), (1, 0)]

    def test_hexagonal_kissing(self):
        vecs = short_vectors(a2_basis().gram(), 1.0 + 1e-9)
        assert len(vecs) == 3  # six minimal vectors up to sign

    def test_below_lambda1_empty(self):
        assert short_vectors(z2_basis().gram(), 0.5) == []

    def test_matches_naive_box_oracle(self):
        rng = random.Random(21)
        for _ in range(6):
            b = random_integral_basis(rng, 3, entry=3)
            gram = b.gram()
            lam = math.sqrt(float(short_vectors(gram, max(
                math.sqrt(float(gram[i][i])) for i in range(3)) + 1e-9)[0][1]))
            bound = 3 * lam
            got = {c for c, _ in short_vectors(gram, bound)}
            # oracle: coefficient box from the Lenstra bound, checked exactly
            defect = orthogonality_defect(b)
            width = [
                int(math.floor(defect * bound / math.sqrt(float(gram[i][i])))) + 1
                for i in range(3)
            ]
            expected = set()
            bound_sq = Fraction(bound) ** 2
            for coeffs in product(*(range(-w, w + 1) for w in width)):
                if not any(coeffs):
                    continue
                nsq = _qform(gram, coeffs)
                if nsq <= bound_sq:
                    lead = next(c for c in coeffs if c)
                    expected.add(coeffs if lead > 0 else tuple(-c for c in coeffs))
            assert got == expected

    def test_norm_then_lex_order(self):
        vecs = short_vectors(a2_basis().gram(), 2.0)
        norms = [nsq for _, nsq in vecs]
        assert norms == sorted(norms)
        for (c1, n1), (c2, n2) in zip(vecs, vecs[1:]):
            if n1 == n2:
                assert c1 < c2

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound_rejected(self, bound):
        with pytest.raises(InputError):
            short_vectors(z2_basis().gram(), bound)

    def test_non_positive_definite_rejected(self):
        with pytest.raises(InputError):
            short_vectors([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]], 1)

    def test_budget_exhaustion_raises(self):
        from matsplit.errors import EnumerationBudgetError

        with pytest.raises(EnumerationBudgetError):
            short_vectors(z2_basis().gram(), 50.0, budget=10)

    @pytest.mark.parametrize(
        "gram",
        [
            [[Fraction(1, 10**20), Fraction(0)], [Fraction(0), Fraction(1)]],
            [[Fraction(1, 10**12)]],
        ],
    )
    def test_budget_holds_within_one_level(self, gram):
        # all but a handful of the admissible nodes lie on a single level,
        # 3 * 10^6 of them for the rank-one Gram
        from matsplit.errors import EnumerationBudgetError

        with pytest.raises(EnumerationBudgetError):
            short_vectors(gram, 1.5, budget=1000)

    def test_budget_counts_every_node(self):
        # Z^2 up to norm 1 visits 8 nodes: x_2 in {-1, 0, 1} on the top
        # level, then the 5 points (x_1, x_2) with x_1^2 + x_2^2 <= 1
        from matsplit.errors import EnumerationBudgetError

        gram = z2_basis().gram()
        assert len(short_vectors(gram, 1.0, budget=8)) == 2
        with pytest.raises(EnumerationBudgetError):
            short_vectors(gram, 1.0, budget=7)

    def test_listing_leaves_no_reference_cycle(self):
        gram = a2_basis().gram()
        gc.collect()
        gc.disable()
        try:
            vecs = short_vectors(gram, 2.0)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert vecs

    def test_budget_exhaustion_leaves_no_reference_cycle(self):
        from matsplit.errors import EnumerationBudgetError

        gram = z2_basis().gram()
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(EnumerationBudgetError):
                short_vectors(gram, 50.0, budget=10)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _qform(gram, coeffs):
    acc = Fraction(0)
    for i, ci in enumerate(coeffs):
        if ci:
            acc += gram[i][i] * ci * ci
            for j in range(i + 1, len(coeffs)):
                if coeffs[j]:
                    acc += 2 * gram[i][j] * ci * coeffs[j]
    return acc


class TestBoxEnumerate:
    def test_unit_box(self):
        out = list(box_enumerate([1, 1]))
        assert len(out) == 8
        assert all(any(v) for v in out)

    def test_dynamic_bound_collapse(self):
        calls = {"count": 0}

        def dyn():
            calls["count"] += 1
            return [0, 0]

        stats = BoxStats()
        out = list(box_enumerate([5, 5], dynamic_bounds_fn=dyn, stats=stats))
        assert out == []
        assert stats.nodes == 1  # only the all-zero tuple survives the clamp

    def test_node_counter(self):
        stats = BoxStats()
        list(box_enumerate([1, 1, 1], stats=stats))
        assert stats.nodes == 27


class TestTensor:
    def test_rank_one_times_rank_one(self):
        t = tensor_product(LatticeBasis([(2,)]), LatticeBasis([(3,)]))
        assert t.rank == 1 and t.columns[0] == (Fraction(6),)

    def test_hexagonal_tensor_determinant(self):
        t = tensor_product(a2_basis(), a2_dual_basis())
        assert t.rank == 4
        assert abs(float(t.det_sq()) - 1.0) < 1e-9

    def test_z2_tensor_z2(self):
        t = tensor_product(z2_basis(), z2_basis())
        assert lattice_equal(t, LatticeBasis([(1, 0, 0, 0), (0, 1, 0, 0),
                                              (0, 0, 1, 0), (0, 0, 0, 1)]))

    def test_a2_experiment_reproduces_the_sharp_value(self):
        rep = min_norm_by_matrix_rank(a2_basis(), a2_dual_basis(), 1.5)
        assert abs(rep.lambda1 - 2 / SQRT3) < 1e-9
        assert abs(rep.min_norm(1) - 2 / SQRT3) < 1e-9
        assert abs(rep.min_norm(2) - math.sqrt(2)) < 1e-9
        # sharpness: the rank-2 minimum equals sqrt(3/2) lambda1(A2) lambda1(A2*)
        assert abs(rep.min_norm(2) - math.sqrt(1.5) * 1.0 * (2 / SQRT3)) < 1e-9
        assert rep.floor_violations == []

    def test_z2_experiment(self):
        rep = min_norm_by_matrix_rank(z2_basis(), z2_basis(), 1.5)
        assert abs(rep.min_norm(1) - 1.0) < 1e-12
        assert abs(rep.min_norm(2) - math.sqrt(2)) < 1e-12
        assert rep.floor_violations == []

    def test_random_pairs_have_no_floor_violations(self):
        rng = random.Random(5)
        for _ in range(5):
            L = random_integral_basis(rng, rng.randint(2, 3), entry=3)
            M = random_integral_basis(rng, rng.randint(2, 3), entry=3)
            t = tensor_product(L, M)
            lam = min(math.sqrt(float(t.norm_sq(j))) for j in range(t.rank))
            rep = min_norm_by_matrix_rank(L, M, lam * 1.2)
            assert rep.floor_violations == []


class TestTraceProduct:
    def test_identity_attains_equality(self):
        assert trace_product_check([[1, 0], [0, 1]], [[1, 0], [0, 1]])

    def test_diagonal_example(self):
        # Tr = 2.5 vs n(det)^(1/n) = 2
        assert trace_product_check([[2, 0], [0, Fraction(1, 2)]], [[1, 0], [0, 1]])

    def test_random_spd_pairs(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(2, 4)
            A = _random_spd(rng, n)
            B = _random_spd(rng, n)
            assert trace_product_check(A, B)


def _random_spd(rng, n):
    while True:
        M = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        G = [[sum(M[k][i] * M[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        det = ExactMatrix(QQ, G).det()
        if det > 0:
            return G
