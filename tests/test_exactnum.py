"""Exact scalar and matrix arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsplit.errors import InputError
from matsplit.exactnum import (
    QQ,
    ExactMatrix,
    Field,
    QuadScalar,
    determinant,
    int_gauss_jordan,
    kernel_basis,
    matrix_rank,
    solve_linear,
)
from matsplit.fixtures import d5_matrix

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

    def test_denominator(self):
        assert QuadScalar(3, Fraction(1, 2), Fraction(1, 2)).denominator() == 1
        assert QuadScalar(3, Fraction(1, 2), 0).denominator() == 2
        assert QuadScalar(1, Fraction(1, 3), 1).denominator() == 3

    @given(small_fraction(), small_fraction(), small_fraction(), small_fraction())
    def test_norm_is_multiplicative(self, a, b, c, d):
        x = QuadScalar(7, a, b)
        y = QuadScalar(7, c, d)
        assert (x * y).norm() == x.norm() * y.norm()


class TestMatrixOps:
    def test_rank_identity_and_zero(self):
        assert matrix_rank(ExactMatrix.identity(QQ, 2)) == 2
        assert matrix_rank(ExactMatrix.zeros(QQ, 2, 2)) == 0

    def test_rank_d5_fixture(self):
        # det = 0 forces rank 1 for a nonzero 2x2 matrix
        C = d5_matrix()
        assert matrix_rank(C) == 1

    def test_determinant_examples(self):
        assert determinant(ExactMatrix.identity(QQ, 3)) == 1
        assert determinant(d5_matrix()).is_zero()
        assert determinant(ExactMatrix(QQ, [[2, 0], [0, 3]])) == 6

    def test_determinant_needs_square(self):
        with pytest.raises(InputError):
            determinant(ExactMatrix(QQ, [[1, 2]]))

    def test_kernel_examples(self):
        assert kernel_basis(ExactMatrix.identity(QQ, 4)) == []
        k = kernel_basis(ExactMatrix(QQ, [[1, -1]]))
        assert len(k) == 1
        # oracle: the vector really lies in the kernel and spans (1, 1)
        v = k[0]
        assert v[0] - v[1] == 0 and v[0] != 0

    def test_kernel_d5(self):
        C = d5_matrix()
        k = kernel_basis(C)
        assert len(k) == 1
        assert all(x.is_zero() for x in C.mul_vector(k[0]))

    def test_solve_examples(self):
        I2 = ExactMatrix.identity(QQ, 2)
        assert solve_linear(I2, [1, 0]) == (1, 0)
        M = ExactMatrix(QQ, [[1, 1]])
        sol = solve_linear(M, [2])
        assert sol is not None and sum(sol) == 2
        bad = ExactMatrix(QQ, [[1, 0], [1, 0]])
        assert solve_linear(bad, [1, 2]) is None

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
        assert matrix_rank(M) + len(kernel_basis(M)) == M.cols

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
        d = determinant(M)
        if d != 0:
            assert matrix_rank(M) == 3
            assert M @ M.inverse() == ExactMatrix.identity(QQ, 3)
        else:
            assert matrix_rank(M) < 3

    def test_quadratic_field_elimination(self):
        F = Field(1)
        i = F.omega()
        M = ExactMatrix(F, [[F.one(), i], [-i, F.one()]])
        # det = 1 - (-i * i) = 1 - 1 = 0
        assert determinant(M).is_zero()
        assert matrix_rank(M) == 1

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
        d = determinant(M)
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
