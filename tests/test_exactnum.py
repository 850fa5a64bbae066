"""Exact scalar and matrix arithmetic."""

from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matsplit.errors import InputError
from matsplit.exactnum import (
    QQ,
    ExactMatrix,
    Field,
    QuadScalar,
    int_det,
    int_gauss_jordan,
    int_rank,
    omega_det,
)
from matsplit.fixtures import d5_matrix

def _kernel_vector(M, j):
    """A solution of M x = 0 with x_j = 1, or None: one solve with the row e_j added."""
    e_j = [int(k == j) for k in range(M.cols)]
    return ExactMatrix(M.field, [*M.entries, e_j]).solve([0] * M.rows + [1])


def small_fraction():
    return st.builds(
        Fraction,
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=1, max_value=6),
    )


class TestField:
    def test_rational_descriptor(self):
        assert QQ.is_rational
        assert QQ.zero() == 0 and QQ.one() == 1

    def test_quadratic_descriptor(self):
        f = Field(3)
        assert not f.is_rational
        assert f.has_half_integers
        assert not Field(1).has_half_integers

    def test_square_free_rejected(self):
        with pytest.raises(InputError):
            Field(4)
        with pytest.raises(InputError):
            Field(12)
        with pytest.raises(InputError):
            Field(18)

    def test_omega_satisfies_its_minimal_polynomial(self):
        w1 = Field(1).omega()
        assert w1 * w1 == -1
        w3 = Field(3).omega()
        assert w3 * w3 == w3 - 1


class TestQuadScalar:
    def test_arithmetic(self):
        x = QuadScalar(5, 1, 1)
        y = QuadScalar(5, 1, -1)
        assert x * y == QuadScalar(5, 6, 0)
        assert x + y == QuadScalar(5, 2, 0)
        assert (x / y) * y == x

    def test_norm_and_conjugate(self):
        x = QuadScalar(2, Fraction(3, 2), Fraction(1, 2))
        assert x.norm() == Fraction(9, 4) + 2 * Fraction(1, 4)
        assert x * x.conjugate() == QuadScalar(2, x.norm(), 0)

    def test_integrality_by_residue_class(self):
        # d = 3 mod 4: half integers with matching parities are integral
        w = QuadScalar(3, Fraction(1, 2), Fraction(1, 2))
        assert w.is_integral()
        assert not QuadScalar(3, Fraction(1, 2), 0).is_integral()
        # otherwise only plain integer coordinates
        assert QuadScalar(1, 2, -3).is_integral()
        assert not QuadScalar(1, Fraction(1, 2), Fraction(1, 2)).is_integral()

    @given(small_fraction(), small_fraction(), small_fraction(), small_fraction())
    def test_norm_is_multiplicative(self, a, b, c, d):
        x = QuadScalar(7, a, b)
        y = QuadScalar(7, c, d)
        assert (x * y).norm() == x.norm() * y.norm()


class TestMatrixOps:
    def test_rank_identity_and_zero(self):
        assert ExactMatrix.identity(QQ, 2).rank() == 2
        assert ExactMatrix.zeros(QQ, 2, 2).rank() == 0

    def test_rank_d5_fixture(self):
        # det = 0 forces rank 1 for a nonzero 2x2 matrix
        C = d5_matrix()
        assert C.rank() == 1

    def test_determinant_examples(self):
        assert ExactMatrix.identity(QQ, 3).det() == 1
        assert d5_matrix().det().is_zero()
        assert ExactMatrix(QQ, [[2, 0], [0, 3]]).det() == 6

    def test_determinant_needs_square(self):
        with pytest.raises(InputError):
            ExactMatrix(QQ, [[1, 2]]).det()

    def test_kernel_examples(self):
        # the kernel has dimension cols - rank
        I4 = ExactMatrix.identity(QQ, 4)
        assert I4.cols - I4.rank() == 0
        M = ExactMatrix(QQ, [[1, -1]])
        assert M.cols - M.rank() == 1
        # oracle: the vector really lies in the kernel and spans (1, 1)
        v = _kernel_vector(M, 0)
        assert v[0] - v[1] == 0 and v[0] != 0

    def test_kernel_d5(self):
        C = d5_matrix()
        assert C.cols - C.rank() == 1
        assert all(x.is_zero() for x in C.mul_vector(_kernel_vector(C, 0)))

    def test_solve_examples(self):
        I2 = ExactMatrix.identity(QQ, 2)
        assert I2.solve([1, 0]) == (1, 0)
        M = ExactMatrix(QQ, [[1, 1]])
        sol = M.solve([2])
        assert sol is not None and sum(sol) == 2
        bad = ExactMatrix(QQ, [[1, 0], [1, 0]])
        assert bad.solve([1, 2]) is None

    def test_heterogeneous_entries_rejected(self):
        with pytest.raises(InputError):
            ExactMatrix(QQ, [[QuadScalar(5, 1, 1)]])
        with pytest.raises(InputError):
            ExactMatrix(Field(5), [[QuadScalar(3, 1, 1)]])

    @settings(max_examples=40)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
            min_size=2,
            max_size=4,
        )
    )
    def test_rank_nullity(self, rows):
        M = ExactMatrix(QQ, rows)
        # oracle: sympy's null space
        assert M.rank() + len(sympy.Matrix(rows).nullspace()) == M.cols

    @settings(max_examples=30)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_determinant_vs_rank_and_inverse(self, rows):
        M = ExactMatrix(QQ, rows)
        d = M.det()
        if d != 0:
            assert M.rank() == 3
            assert M @ M.inverse() == ExactMatrix.identity(QQ, 3)
        else:
            assert M.rank() < 3

    def test_quadratic_field_elimination(self):
        F = Field(1)
        i = F.omega()
        M = ExactMatrix(F, [[F.one(), i], [-i, F.one()]])
        # det = 1 - (-i * i) = 1 - 1 = 0
        assert M.det().is_zero()
        assert M.rank() == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(min_value=-9, max_value=9), min_size=k, max_size=k),
                min_size=k,
                max_size=k,
            )
        )
    )
    def test_bareiss_last_pivot_is_the_signed_determinant(self, rows):
        k = len(rows)
        M = ExactMatrix(QQ, rows)
        d = M.det()
        assert int_det(rows) == d
        red, pivots = int_gauss_jordan([row + [int(i == j) for j in range(k)] for i, row in enumerate(rows)])
        if d == 0:
            assert pivots[:k] != list(range(k))
            return
        assert pivots == list(range(k)) and red[-1][k - 1] == d
        # [M | I] reduces to [d I | d M^-1]
        inv = M.inverse()
        for i, row in enumerate(red):
            assert row[:k] == [d if j == i else 0 for j in range(k)]
            assert row[k:] == [d * x for x in inv.row(i)]


@st.composite
def int_matrices(draw):
    """An integer matrix of 0-7 rows and 1-6 columns, entries small or above 2^200,
    with rows that are combinations of others and zero rows mixed in on request."""
    cols = draw(st.integers(min_value=1, max_value=6))
    bound = draw(st.sampled_from([4, 2**210]))
    entry = st.integers(min_value=-bound, max_value=bound)
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=5))
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if rows else 0):
        u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.insert(draw(st.integers(0, len(rows))), [a * x + b * y for x, y in zip(u, v)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * cols)
    return rows


class TestIntRank:
    """int_rank against sympy's Matrix.rank."""

    BIG = 2**201 + 7

    @pytest.mark.parametrize("rows", [
        [[2, 4], [1, 3]],  # square, full rank
        [[1, 2, 3], [2, 4, 6], [0, 0, 0]],  # square, rank one, a zero row
        [[0, 0, 5, 1], [0, 3, 1, 2]],  # wide, leading zero column
        [[1, BIG], [BIG, 1], [2, 2 * BIG], [0, 0]],  # tall, rank two, entries above 2^200
        [[BIG, BIG + 1, 3], [2 * BIG, 2 * BIG + 2, 6], [BIG, -BIG, 0]],  # rank two above 2^200
        [[0, 0], [0, 0]],  # zero
        [],
    ], ids=["square", "rank-one", "wide", "tall", "big-deficient", "zero", "empty"])
    def test_cases(self, rows):
        assert int_rank(rows) == sympy.Matrix(rows).rank()

    @settings(max_examples=200, deadline=None)
    @given(int_matrices())
    def test_matches_sympy(self, rows):
        assert int_rank(rows) == sympy.Matrix(rows).rank() == len(int_gauss_jordan(rows)[1])


X = sympy.symbols("x")
ZX = sympy.ZZ[X]


@st.composite
def omega_matrices(draw):
    """(t, rows): a k x k matrix of small Z[omega] pairs, k = 1..5, made singular
    (a row repeated, or a zero row at k = 1) or given a zero first pivot on request."""
    t = draw(st.sampled_from([0, 1]))
    k = draw(st.integers(min_value=1, max_value=5))
    pair = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    rows = draw(st.lists(st.lists(pair, min_size=k, max_size=k), min_size=k, max_size=k))
    shape = draw(st.sampled_from(["free", "singular", "zero pivot"]))
    if shape == "singular":
        rows[-1] = list(rows[0]) if k > 1 else [(0, 0)]
    elif shape == "zero pivot":
        rows[0][0] = (0, 0)
    return t, rows


class TestOmegaDet:
    @settings(max_examples=300, deadline=None)
    @given(omega_matrices())
    @example((0, [[(0, 0), (1, 0)], [(1, 0), (0, 0)]]))
    @example((1, [[(0, 0), (0, 1)], [(0, 0), (1, 1)]]))
    @example((1, [[(1, 1), (2, -1), (0, 0)], [(2, 2), (4, -2), (0, 0)], [(3, 0), (0, 0), (1, 0)]]))
    def test_matches_sympy(self, case):
        # oracle: sympy's determinant over Z[x] of the entries u + v x, reduced
        # modulo the minimal polynomial x^2 - t x + 1 of omega: Z[x] -> Z[omega]
        # is a ring map, so this is the determinant over Q(i) or Q(sqrt(-3))
        t, rows = case
        k = len(rows)
        M = DomainMatrix([[ZX.from_sympy(a + b * X) for a, b in row] for row in rows], (k, k), ZX)
        want = sympy.Poly(ZX.to_sympy(M.det()), X).rem(sympy.Poly(X**2 - t * X + 1, X))
        u, v = omega_det(rows, t)
        assert sympy.Poly(u + v * X, X) == want

    @pytest.mark.parametrize("t", [0, 1])
    def test_empty_and_scalar(self, t):
        assert omega_det([], t) == (1, 0)
        assert omega_det([[(2, -3)]], t) == (2, -3)
