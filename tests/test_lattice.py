"""Lattice machinery: LLL, duals, constants, enumeration, tensor products."""

import gc
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from matsplit.errors import EnumerationBudgetError, InputError, InternalError
from matsplit.exactnum import QQ, ExactMatrix, int_inverse
from matsplit.fixtures import a2_basis, a2_dual_basis, z2_basis
from matsplit.lattice import (
    LatticeBasis,
    _certify_lll,
    _round_ratio,
    berge_martinet_upper,
    c_m,
    dual_basis,
    gamma_pow,
    integral_gso,
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
from matsplit.embed import EmbeddedLattice, _round_div, embed_order, rationalize, split_numeric
from matsplit.orders import hnf_columns, maximal_order
from matsplit.serialize import lattice_from_json, rational_from_str
from matsplit.splitter import generate_instance

import lattice_oracle as oracle
from lattice_oracle import gram_schmidt

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


@st.composite
def ratios(draw):
    """(a, b) with signed a and b > 0; half of the draws are exact halves a / b = k + 1/2."""
    b = draw(st.integers(1, 10**20))
    if draw(st.booleans()):
        b *= 2
        return draw(st.integers(-(10**6), 10**6)) * b + b // 2, b
    return draw(st.integers(-(10**40), 10**40)), b


class TestRoundRatio:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(ab=ratios())
    def test_matches_round_of_the_fraction(self, ab):
        a, b = ab
        assert _round_ratio(a, b) == round(Fraction(a, b))

    @pytest.mark.parametrize(
        "a,b,expected", [(1, 2, 0), (3, 2, 2), (5, 2, 2), (-1, 2, 0), (-3, 2, -2), (-5, 2, -2), (7, 3, 2)]
    )
    def test_ties_go_to_even(self, a, b, expected):
        assert _round_ratio(a, b) == expected


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
            assert got == {c for c, _ in _box_oracle(b, bound)}

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


def _box_oracle(b, bound):
    """Sorted (coeffs, norm^2) classes in the Lenstra coefficient box, checked exactly."""
    gram = b.gram()
    defect = orthogonality_defect(b)
    width = [
        int(math.floor(defect * bound / math.sqrt(float(gram[i][i])))) + 1
        for i in range(b.rank)
    ]
    expected = []
    bound_sq = Fraction(bound) ** 2
    for coeffs in product(*(range(-w, w + 1) for w in width)):
        if not any(coeffs):
            continue
        nsq = _qform(gram, coeffs)
        if nsq <= bound_sq and next(c for c in coeffs if c) > 0:
            expected.append((coeffs, nsq))
    return sorted(expected, key=lambda cv: (cv[1], cv[0]))


def _qform(gram, coeffs):
    acc = Fraction(0)
    for i, ci in enumerate(coeffs):
        if ci:
            acc += gram[i][i] * ci * ci
            for j in range(i + 1, len(coeffs)):
                if coeffs[j]:
                    acc += 2 * gram[i][j] * ci * coeffs[j]
    return acc


class TestIntegralGSO:
    def test_matches_the_fraction_gso(self):
        rng = random.Random(41)
        for _ in range(20):
            b = random_integral_basis(rng, rng.randint(1, 6), entry=9)
            lam, d = integral_gso(b.int_gram())
            mu, D = gram_schmidt(b.gram())
            for i in range(b.rank):
                assert D[i] == Fraction(d[i + 1], d[i])
                for j in range(i):
                    assert mu[i][j] == Fraction(lam[i][j], d[j + 1])

    def test_a_basis_keeps_its_gso(self):
        b = random_integral_basis(random.Random(43), 4, entry=9)
        kept = b.integral_gso()
        assert kept == integral_gso(b.int_gram())
        assert b.integral_gso() is kept

    @pytest.mark.parametrize(
        "gram", [[[1, 2], [2, 1]], [[1, 1], [1, 1]], [[0]], [[-1]], [[4, 2, 0], [2, 1, 0], [0, 0, 5]]]
    )
    def test_rejects_what_the_oracle_rejects(self, gram):
        with pytest.raises(InputError) as ours:
            integral_gso(gram)
        with pytest.raises(InputError) as theirs:
            gram_schmidt([[Fraction(x) for x in row] for row in gram])
        assert str(ours.value) == str(theirs.value) == "Gram matrix is not positive definite"


def _certificate_verdict(certify, basis):
    try:
        certify(basis, Fraction(3, 4))
    except InternalError as exc:
        return str(exc)
    return None


class TestCertificateAgainstOracle:
    """The integer certificate rejects reduced bases broken on purpose, with
    the message the Fraction certificate gives."""

    SIZE = "LLL output is not size-reduced"
    LOVASZ = "LLL output violates the Lovasz condition"

    @staticmethod
    def _reduced_bases():
        rng = random.Random(4099)
        for _ in range(16):
            rank = rng.randint(3, 6)
            b = random_integral_basis(rng, rank, entry=20)
            # stretch the columns apart so that reduced vectors differ in length
            cols = [tuple(x * (j + 1) ** 2 for x in c) for j, c in enumerate(b.columns)]
            yield lll_reduce(LatticeBasis(cols))

    def _assert_rejected_alike(self, mutant, want=None):
        ours = _certificate_verdict(_certify_lll, mutant)
        assert ours is not None
        assert ours == _certificate_verdict(oracle.certify_lll, mutant)
        if want is not None:
            assert ours == want
        return ours

    def test_reduced_bases_pass_both(self):
        for r in self._reduced_bases():
            assert _certificate_verdict(_certify_lll, r) is None
            assert _certificate_verdict(oracle.certify_lll, r) is None

    def test_breaking_size_reduction(self):
        for r in self._reduced_bases():
            cols = list(r.columns)
            # b_2 += 5 b_1 moves mu_21 by 5
            cols[1] = tuple(x + 5 * y for x, y in zip(cols[1], cols[0]))
            self._assert_rejected_alike(LatticeBasis(cols), self.SIZE)

    def test_swapping_a_short_and_a_long_vector(self):
        seen = []
        for r in self._reduced_bases():
            norms = [r.norm_sq(j) for j in range(r.rank)]
            longest = norms.index(max(norms))
            # with |b_long|^2 > 2 max(|b_1|^2, |b_2|^2) the swapped pair cannot
            # meet both conditions
            if longest < 2 or norms[longest] <= 2 * max(norms[:2]):
                continue
            cols = list(r.columns)
            cols[0], cols[longest] = cols[longest], cols[0]
            seen.append(self._assert_rejected_alike(LatticeBasis(cols)))
        assert len(seen) >= 8 and self.LOVASZ in seen

    def test_the_conditions_hold_up_to_their_boundaries(self):
        # mu_10 = 1/2 exactly is size-reduced, 11/20 is not
        assert _certificate_verdict(_certify_lll, LatticeBasis([(2, 0), (1, 5)])) is None
        self._assert_rejected_alike(LatticeBasis([(2, 0), (Fraction(11, 10), 5)]), self.SIZE)
        self._assert_rejected_alike(LatticeBasis([(1, 0), (1, 5)]), self.SIZE)
        # (2, 0), (1, 1): D_1 = 1 = (delta - mu^2) D_0 at delta = 1/2
        tight = LatticeBasis([(2, 0), (1, 1)])
        for delta, want in ((Fraction(1, 2), None), (Fraction(501, 1000), self.LOVASZ)):
            assert _certificate_verdict(lambda b, _: _certify_lll(b, delta), tight) == want
            assert _certificate_verdict(lambda b, _: oracle.certify_lll(b, delta), tight) == want

    def test_swapped_orthogonal_basis_breaks_only_lovasz(self):
        diag = [tuple(v if i == j else 0 for i in range(4)) for j, v in enumerate((1, 3, 5, 7))]
        assert _certificate_verdict(_certify_lll, LatticeBasis(diag)) is None
        diag[0], diag[3] = diag[3], diag[0]
        self._assert_rejected_alike(LatticeBasis(diag), self.LOVASZ)

    @pytest.mark.parametrize("n", [6, 7])
    def test_accepts_the_splitters_reduced_bases(self, n):
        # the lattice split() reduces at its default 128 bits
        inst = generate_instance(n, "Q", 10, 1)
        order = maximal_order(inst.table)
        emb = split_numeric(inst.table, order, 128, seed=1)
        reduced = lll_reduce(rationalize(embed_order(emb, order), 2**64))
        assert reduced.rank == n * n
        assert _certificate_verdict(_certify_lll, reduced) is None
        if n == 6:
            assert _certificate_verdict(oracle.certify_lll, reduced) is None


# denominators as in the embedded lattices (2^64) mixed with small ones
DENOMINATORS = [1, 2, 3, 10, 2**64, 3 * 2**64]


@st.composite
def rational_bases(draw, max_rank=4, max_num=40):
    k = draw(st.integers(1, max_rank))
    cols = []
    for _ in range(k):
        den = draw(st.sampled_from(DENOMINATORS))
        scale = den if den > 10 else 1
        nums = draw(st.lists(st.integers(-max_num * scale, max_num * scale), min_size=k, max_size=k))
        cols.append(tuple(Fraction(x, den) for x in nums))
    assume(ExactMatrix.from_columns(QQ, [list(c) for c in cols]).det() != 0)
    return LatticeBasis(cols)


@st.composite
def unimodular(draw, k):
    U = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(draw(st.integers(0, 3 * k))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        c = draw(st.integers(-3, 3))
        if i != j:
            U = [row[:j] + [row[j] + c * row[i]] + row[j + 1:] for row in U]
    if draw(st.booleans()):
        # det U = -1
        U = [[-row[0]] + row[1:] for row in U]
    return U


def _transformed(basis, X):
    """The basis with columns B_j = sum_i X[i][j] A_i."""
    k = basis.rank
    return LatticeBasis(
        [tuple(sum(X[i][j] * basis.columns[i][r] for i in range(k)) for r in range(k)) for j in range(k)]
    )


def _diag_times(U, diag):
    return [[x * diag[j] for j, x in enumerate(row)] for row in U]


def _assert_equality_agrees(a, b, want):
    """lattice_equal, both ways, is ``want``, and so is every oracle: the Fraction
    ExactMatrix one, sympy's rational A^-1 B, and the two-elimination version
    that the forward elimination replaced."""
    for x, y in ((a, b), (b, a)):
        assert lattice_equal(x, y) == want
        assert oracle.lattice_equal(x, y) == want
        assert oracle.sympy_lattice_equal(x, y) == want
        assert oracle.two_elimination_lattice_equal(x, y) == want


def _embedded_q3(seed):
    """A rank-9 basis as the lattice-enum benchmark makes them: the maximal
    order of a Q n = 3 instance, embedded at 128 bits, rationalized at 2^64."""
    inst = generate_instance(3, "Q", 10, seed)
    order = maximal_order(inst.table)
    emb = split_numeric(inst.table, order, 128, seed=seed)
    return rationalize(embed_order(emb, order), 2**64)


class TestLatticeEqualAgainstOracle:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_unimodular_images_are_equal(self, data):
        a = data.draw(rational_bases())
        _assert_equality_agrees(a, _transformed(a, data.draw(unimodular(a.rank))), True)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_other_lattices_differ(self, data):
        a = data.draw(rational_bases())
        U = data.draw(unimodular(a.rank))
        k = a.rank
        rest = [1] * (k - 1)
        transforms = [
            _diag_times(U, [2] + rest),  # a sublattice of index 2: |det X| = 2
            _diag_times(U, [Fraction(1, 2)] + rest),  # a non-integral transform
            _diag_times(U, [Fraction(1, 7)] * k),  # the columns over another denominator
        ]
        if k > 1:
            # |det| = 1, and still another lattice
            transforms.append(_diag_times(U, [2, Fraction(1, 2)] + rest[1:]))
        for X in transforms:
            _assert_equality_agrees(a, _transformed(a, X), False)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_the_oracle(self, data):
        a = data.draw(rational_bases(max_rank=3, max_num=3))
        b = data.draw(rational_bases(max_rank=3, max_num=3))
        assume(a.rank == b.rank)
        _assert_equality_agrees(a, b, oracle.lattice_equal(a, b))

    def test_singular_bases_are_not_equal(self):
        _assert_equality_agrees(LatticeBasis([(1, 2), (2, 4)]), z2_basis(), False)
        _assert_equality_agrees(LatticeBasis([(1, 2, 3), (0, 1, 1), (1, 3, 4)]),
                                LatticeBasis([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), False)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_embedded_rank_9_against_its_lll_output(self, seed):
        a = _embedded_q3(seed)
        reduced = lll_reduce(a)
        _assert_equality_agrees(a, reduced, True)
        cols = list(reduced.columns)
        cols[0] = tuple(x / 2 for x in cols[0])
        _assert_equality_agrees(a, LatticeBasis(cols), False)


def _assert_lowest_terms(basis, columns):
    """basis holds its columns in lowest terms, and they are ``columns``, all Fractions."""
    assert basis._den > 0
    assert math.gcd(basis._den, *(x for col in basis._ints for x in col)) == 1
    assert basis.columns == tuple(map(tuple, columns))
    assert all(type(x) is Fraction for col in basis.columns for x in col)
    rebuilt = LatticeBasis(basis.columns)
    assert (rebuilt._ints, rebuilt._den) == (basis._ints, basis._den)


class TestLowestTerms:
    """Every basis a kernel hands over as ints is what the Fraction constructor makes of
    its columns, and its lazily built columns are the ones the kernel used to build."""

    BASES = [
        LatticeBasis([(Fraction(2, 3), Fraction(4, 3)), (2, 0)]),
        LatticeBasis([(Fraction(1, 6), Fraction(1, 4)), (Fraction(1, 10), 3)]),
        LatticeBasis([(201, 1), (200, 1)]),
        a2_basis(),
    ]

    @pytest.mark.parametrize("i", range(len(BASES)))
    def test_lll_reduce(self, i):
        a = self.BASES[i]
        reduced = lll_reduce(a)
        H, k = reduced.unimodular_history, a.rank
        # column j of the output is sum_i H[i][j] a_i
        want = [[sum(H[i][j] * a.columns[i][t] for i in range(k)) for t in range(a.ambient_dim)]
                for j in range(k)]
        _assert_lowest_terms(reduced, want)

    def test_rationalize(self):
        vectors = [[6, 4, -5], [2, 0, 16], [1, 3, 7]]
        emb = EmbeddedLattice(3, vectors, mpf(0), 8)
        for q in (1, 4, 12, 2**64, 3 * 2**64):
            want = [[Fraction(_round_div(x * q, 8), q) for x in v] for v in vectors]
            _assert_lowest_terms(rationalize(emb, q), want)
        basis = _embedded_q3(1)
        _assert_lowest_terms(basis, basis.columns)

    def test_lattice_from_json(self):
        for basis in (
            [["2/4", "-0"], ["6/8", "3"]],
            [["4/2", "0"], ["0", "-6/3"]],
            [["1/3", "1/6"], ["2/9", "-0"]],
            [["-0"]],
        ):
            got = lattice_from_json({"dim": len(basis[0]), "basis": basis})
            _assert_lowest_terms(got, [[rational_from_str(x) for x in col] for col in basis])

    @pytest.mark.parametrize("i", range(len(BASES)))
    def test_dual_basis(self, i):
        a = self.BASES[i]
        E, d = int_inverse(a._ints)
        _assert_lowest_terms(dual_basis(a), [[Fraction(a._den * x, d) for x in row] for row in E])

    @pytest.mark.parametrize("i", range(len(BASES)))
    @pytest.mark.parametrize("j", range(len(BASES)))
    def test_tensor_product(self, i, j):
        L, M = self.BASES[i], self.BASES[j]
        want = [[a * b for a in bi for b in cj] for bi in L.columns for cj in M.columns]
        _assert_lowest_terms(tensor_product(L, M), want)


class TestShortVectorsAgainstOracles:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        basis=rational_bases(max_rank=4, max_num=6),
        factor=st.fractions(Fraction(1, 2), Fraction(2), max_denominator=16),
    )
    def test_fraction_fincke_pohst_and_the_box(self, basis, factor):
        reduced = lll_reduce(basis)
        gram = reduced.gram()
        bound = math.sqrt(float(min(gram[i][i] for i in range(reduced.rank)))) * float(factor)
        got = short_vectors(gram, bound)
        assert got == oracle.short_vectors(gram, bound) == _box_oracle(reduced, bound)
        # the unreduced Gram lists the same lattice vectors
        raw = short_vectors(basis.gram(), bound)
        assert raw == oracle.short_vectors(basis.gram(), bound)
        assert sorted(n for _, n in raw) == sorted(n for _, n in got)


def _listing(enumerate_, *args):
    """The short vector list, or "budget" when the listing ran out of its budget."""
    try:
        return enumerate_(*args)
    except EnumerationBudgetError:
        return "budget"


class TestBasisShortVectors:
    """LatticeBasis.short_vectors walks the kept GSO data at the scale den^2."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        basis=rational_bases(max_rank=6, max_num=6),
        factor=st.fractions(Fraction(1, 2), Fraction(2), max_denominator=16),
        budget=st.one_of(st.none(), st.integers(1, 500)),
    )
    def test_matches_the_gram_listing(self, basis, factor, budget):
        reduced = lll_reduce(basis)
        # about the first minimum, so that the unbudgeted listings stay small
        shortest = min(reduced.norm_sq(i) for i in range(reduced.rank))
        bound = math.sqrt(float(shortest)) * float(factor)
        for b in (basis, reduced):
            ours = _listing(b.short_vectors, bound, budget)
            assert ours == _listing(short_vectors, b.gram(), bound, budget)
            if budget is None:
                assert ours != "budget"

    def test_rejects_what_the_gram_listing_rejects(self):
        for bound in (math.nan, -1):
            with pytest.raises(InputError):
                z2_basis().short_vectors(bound)
        with pytest.raises(InputError, match="not positive definite"):
            LatticeBasis([(1, 2), (2, 4)]).short_vectors(1)


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
