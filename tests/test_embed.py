"""Numerical embeddings, embedded lattices, and rational approximation."""

import functools
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath.libmp import fzero, mpf_shift, to_int
from hypothesis import given, settings
from hypothesis import strategies as st
from test_algebra import left_regular

from matsplit import embed, serialize
from matsplit.algebra import (
    StructureConstants,
    _integral,
    _realified,
    lift_coords,
    matrix_units_table,
)
from matsplit.embed import (
    EmbeddedLattice,
    _eigenspace,
    _fixed_gamma,
    _fixed_omega,
    _fixed_scalar,
    _images,
    _is_squarefree,
    _measure_residual,
    _min_poly,
    _pick_eigenvalue,
    _random_order_element,
    _refine_roots,
    _sqrt_up,
    embed_order,
    embedding_from_images,
    rationalize,
    split_numeric,
)
from matsplit.errors import InputError, PrecisionError
from matsplit.exactnum import QQ, ExactMatrix, Field, QuadScalar
from matsplit.fixtures import gaussian_lambda_order, quaternion_table
from matsplit.lattice import lll_reduce, short_vectors
from matsplit.orders import Order, initial_order, maximal_order
from matsplit.splitter import generate_instance


def standard_images(field, n):
    """Exact matrix-unit images for the standard structure constants."""
    units = []
    for a in range(n):
        for b in range(n):
            units.append(
                ExactMatrix(
                    field,
                    [
                        [field.one() if (i == a and j == b) else field.zero() for j in range(n)]
                        for i in range(n)
                    ],
                )
            )
    return units


def _fixed(x: tuple, F: int) -> int:
    """The mpf value x (as its raw tuple) times 2^F, rounded to the nearest int."""
    return to_int(mpf_shift(x, F), "n")


def _fixed_parts(values, F: int) -> tuple[list, list]:
    """Real and imaginary parts of mpf or mpc values at scale 2^F, as two lists."""
    parts = [v._mpc_ if isinstance(v, mpmath.mpc) else (v._mpf_, fzero) for v in values]
    return [_fixed(x, F) for x, _ in parts], [_fixed(y, F) for _, y in parts]


def _scalar_to_mp(x):
    """A rational or a + b sqrt(-d) as an mpf or mpc at the working precision."""
    if isinstance(x, QuadScalar):
        return mpmath.mpc(mpmath.mpf(x.a.numerator) / x.a.denominator,
                          (mpmath.mpf(x.b.numerator) / x.b.denominator) * mpmath.sqrt(x.d))
    f = Fraction(x)
    return mpmath.mpf(f.numerator) / f.denominator


def _mp_images(emb):
    """The images of Embedding.fixed as mpmath matrices, one per basis element, at 2^-F."""
    n, F = emb.n, emb.precision_bits + 32
    with mpmath.workprec(F):
        out = []
        for X, Y in emb.fixed:
            M = [mpmath.mpf(x) / (1 << F) for x in X]
            if Y is not None:
                M = [mpmath.mpc(x, mpmath.mpf(y) / (1 << F)) for x, y in zip(M, Y)]
            out.append(mpmath.matrix([M[r * n:(r + 1) * n] for r in range(n)]))
        return out


def _phi(emb, coords):
    """The mpmath image of an element given by exact coordinates."""
    out = mpmath.zeros(emb.n, emb.n)
    for M, c in zip(_mp_images(emb), coords):
        s = _scalar_to_mp(c)
        if s != 0:
            out += M * s
    return out


def _mp_fraction(x):
    """An exact rational as an mpf at the working precision."""
    return mpmath.mpf(x.numerator) / x.denominator


def dot_products(lat):
    """Exact Gram matrix of an embedded lattice's int vectors over its denominator."""
    vectors, den_sq = lat.basis_vectors, lat.denominator**2
    return [[Fraction(sum(a * b for a, b in zip(u, v)), den_sq) for v in vectors] for u in vectors]


class TestSplitNumeric:
    def test_standard_m2_residual(self):
        t = matrix_units_table(2)
        emb = split_numeric(t, maximal_order(t), 128, seed=1)
        assert float(emb.residual) < 1e-30

    def test_split_quaternions(self):
        t = quaternion_table(1, 1)
        emb = split_numeric(t, maximal_order(t), 128, seed=2)
        assert float(emb.residual) < 1e-20

    def test_precision_floor(self):
        t = matrix_units_table(2)
        with pytest.raises(InputError):
            split_numeric(t, initial_order(t), 32)

    def test_doubling_precision_halves_the_radius(self):
        t = matrix_units_table(2)
        o = maximal_order(t)
        e1 = split_numeric(t, o, 128, seed=4)
        e2 = split_numeric(t, o, 256, seed=4)
        assert float(e2.error_radius) <= float(e1.error_radius) / 2

    @pytest.mark.parametrize("field", [QQ, Field(1), Field(3)], ids=["Q", "gauss", "eisenstein"])
    def test_one_dimensional_table_whose_basis_is_not_the_identity(self, field):
        # a_1 a_1 = 2 a_1, so the identity is a_1 / 2 and phi(a_1) = 2
        t = StructureConstants(field, [[[2]]])
        emb = split_numeric(t, maximal_order(t), 128, seed=1)
        assert float(emb.residual) < 1e-30
        assert abs(complex(_mp_images(emb)[0][0, 0]) - 2) < 1e-30

    @pytest.mark.parametrize("precision", [128, 129])
    def test_the_residual_gate_compares_exactly(self, monkeypatch, precision):
        # residual <= 2^(-p/2) passes; the next rational up fails every draw
        t = matrix_units_table(2)
        o = maximal_order(t)
        bound = Fraction(1, 1 << precision // 2)
        monkeypatch.setattr(embed, "_measure_residual", lambda *a: bound)
        assert split_numeric(t, o, precision, seed=1).residual == bound
        monkeypatch.setattr(embed, "_measure_residual", lambda *a: bound + Fraction(1, 1 << 4096))
        with pytest.raises(PrecisionError):
            split_numeric(t, o, precision, seed=1)

    @pytest.mark.parametrize("d", [1, 3])
    def test_complex_embedding(self, d):
        t = matrix_units_table(2, Field(d))
        emb = split_numeric(t, maximal_order(t), 128, seed=1)
        assert float(emb.residual) < 1e-25
        assert emb.is_complex


def oracle_residual(table, images):
    """Brute-force Frobenius defect of a_i -> images[i], one mpmath matrix per term."""
    n = images[0].rows

    def frob(M):
        return mpmath.sqrt(mpmath.fsum(abs(M[i, j]) ** 2 for i in range(n) for j in range(n)))

    worst = mpmath.mpf(0)
    for i in range(table.m):
        for j in range(table.m):
            acc = images[i] * images[j]
            for k, g in enumerate(table.gamma[i][j]):
                acc -= images[k] * _scalar_to_mp(g)
            worst = max(worst, frob(acc))
    acc = -mpmath.eye(n)
    for k, c in enumerate(table.find_identity().coords):
        acc += images[k] * _scalar_to_mp(c)
    return max(worst, frob(acc))


def _fixed_complex(values, F):
    """Real parts, then imaginary parts, of the QuadScalar values at 2^F, each by _fixed_scalar."""
    parts = [_fixed_scalar(x, F) for x in values]
    return [x for x, _ in parts] + [y for _, y in parts]


class TestSqrtUp:
    """The one square root of the residual: an upper bound at F bits or more."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**600), st.integers(1, 2**600), st.integers(1, 400))
    def test_an_upper_bound_within_2_to_the_minus_f(self, a, b, F):
        x = Fraction(a, b)
        r = _sqrt_up(x, F)
        assert r >= 0 and r * r >= x
        assert r * r - x <= x / 2**F
        assert r.denominator & (r.denominator - 1) == 0  # dyadic

    def test_zero_has_root_zero(self):
        assert _sqrt_up(Fraction(0), 160) == 0

    def test_an_exact_square_is_its_root(self):
        assert _sqrt_up(Fraction(9, 4), 160) == Fraction(3, 2)
        assert _sqrt_up(Fraction(1, 1 << 128), 160) == Fraction(1, 1 << 64)


class TestFixedConstants:
    """The constants at 2^F from the integer table against the QuadScalar route."""

    @pytest.mark.parametrize("name", ["gauss", "eisenstein"])
    @pytest.mark.parametrize("F", [64, 160, 301])
    def test_the_table_constants_match(self, name, F):
        for seed in range(1, 9):
            table = generate_instance(2, name, 10, seed).table
            assert _fixed_gamma(table, F) == [[_fixed_complex(gij, F) for gij in gi] for gi in table.gamma]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 3]), st.lists(st.integers(-10**9, 10**9), min_size=2, max_size=8),
           st.integers(1, 10**6), st.integers(1, 200))
    def test_the_values_match(self, d, ints, den, F):
        field = Field(d)
        X = ints[: len(ints) // 2 * 2]
        values = lift_coords(field, [Fraction(x, den) for x in X])
        assert _fixed_omega(X, den, field, F) == _fixed_complex(values, F)


def scalar_residual(table, images, F):
    """_measure_residual with every pair defect summed one scalar at a time."""
    D = 1 << F
    n = images[0].rows
    e = table.find_identity().coords
    if table.field.is_rational:
        P = [[_fixed(x._mpf_, F) for row in M.tolist() for x in row] for M in images]
        G, d = table._integral_gamma()
        E, de = _integral(table.field, e)
        size, fold = n, 1
    else:
        parts = [_fixed_parts((x for row in M.tolist() for x in row), F) for M in images]
        P = [_realified(X + Y, n, 0) for X, Y in parts]
        P += [_realified([-y for y in Y] + X, n, 0) for X, Y in parts]
        G = [[_fixed_complex(gij, F) for gij in gi] for gi in table.gamma]
        d, E, de = D, _fixed_complex(e, F), D
        size, fold = 2 * n, 2
    pair_sq = 0
    for i in range(table.m):
        for j in range(table.m):
            sq = 0
            for r in range(size):
                for c in range(size):
                    lhs = d * sum(P[i][r * size + t] * P[j][t * size + c] for t in range(size))
                    rhs = D * sum(g * Pk[r * size + c] for g, Pk in zip(G[i][j], P))
                    sq += (lhs - rhs) ** 2
            pair_sq = max(pair_sq, sq)
    phi_e = [sum(x * Pk[r] for x, Pk in zip(E, P)) for r in range(size * size)]
    eye = [de * D if r % (size + 1) == 0 else 0 for r in range(size * size)]
    identity_sq = sum((x - y) ** 2 for x, y in zip(phi_e, eye))
    worst = max(
        Fraction(pair_sq, fold * (d * D * D) ** 2),
        Fraction(identity_sq, fold * (de * D) ** 2),
    )
    return _sqrt_up(worst, F)


def _residual_cases():
    """(table, exact images) over each field: the standard table and a
    scrambled one with non-integral structure constants."""
    cases = {}
    for name, field in [("Q", QQ), ("gauss", Field(1)), ("eisenstein", Field(3))]:
        cases[f"{name}-standard"] = (
            lambda field=field: (matrix_units_table(2, field), standard_images(field, 2))
        )
    for name, n, seed in [("Q", 2, 3), ("Q", 3, 5), ("gauss", 2, 6), ("eisenstein", 2, 1)]:
        cases[f"{name}-n{n}-scrambled"] = lambda name=name, n=n, seed=seed: _scrambled(name, n, seed)
    return cases


def _scrambled(name, n, seed):
    inst = generate_instance(n, name, 10, seed=seed)
    t = inst.table
    values = [x for gi in t.gamma for gij in gi for x in gij]
    if t.field.is_rational:
        assert t._integral_gamma()[1] > 1  # gamma has denominators
    else:
        assert any(x.b != 0 for x in values)  # gamma has imaginary parts
        assert any(x.a.denominator > 1 or x.b.denominator > 1 for x in values)
    unit = [t.field.zero()] * t.m
    images = [inst.hidden_matrix(unit[:k] + [t.field.one()] + unit[k + 1:]) for k in range(t.m)]
    return t, images


RESIDUAL_CASES = _residual_cases()
RESIDUAL_PREC = 128
RESIDUAL_F = RESIDUAL_PREC + 32


def fixed_images(images, F):
    """mpmath images as the (X, Y) pairs of Embedding.fixed, at scale 2^F."""
    return [_fixed_parts([x for row in M.tolist() for x in row], F) for M in images]


class TestResidualOracle:
    """The integer residual kernel against a brute-force mpmath residual."""

    @staticmethod
    def images_of(case):
        table, exact = RESIDUAL_CASES[case]()
        emb = embedding_from_images(table, exact, RESIDUAL_PREC)
        return table, emb

    @pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
    def test_exact_images_residual_near_zero(self, case):
        table, emb = self.images_of(case)
        assert emb.residual < Fraction(1, 2 ** (RESIDUAL_PREC + 8))

    @pytest.mark.parametrize(
        "case,move",
        [
            (case, move)
            for case in sorted(RESIDUAL_CASES)
            # images over Q are real
            for move in ["2^-40", "1"] + ([] if case.startswith("Q") else ["i*2^-40"])
        ],
    )
    def test_moved_entry_matches_the_oracle(self, case, move):
        table, emb = self.images_of(case)
        F = RESIDUAL_F
        with mpmath.workprec(F):
            step = {"2^-40": mpmath.mpf(2) ** -40, "1": mpmath.mpf(1),
                    "i*2^-40": mpmath.mpc(0, mpmath.mpf(2) ** -40)}[move]
            images = _mp_images(emb)
            k = table.m - 1
            images[k][0, 1] += step
            got = _measure_residual(table, fixed_images(images, F), _fixed_gamma(table, F), F)
        with mpmath.workprec(2 * RESIDUAL_PREC):
            got = _mp_fraction(got)
            want = oracle_residual(table, images)
            assert want > mpmath.mpf(2) ** -42
            assert abs(got - want) <= want * mpmath.mpf(10) ** -20
            # rounding the images to the working precision is the only slack
            assert got >= want - mpmath.mpf(2) ** -RESIDUAL_PREC

    @pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
    @pytest.mark.parametrize("images", ["exact", "moved", "zero"])
    def test_packed_kernel_equals_the_scalar_scan(self, case, images):
        # not close: the same squared defect, so the same rounded-up root
        table, emb = self.images_of(case)
        F = RESIDUAL_F
        with mpmath.workprec(F):
            if images == "zero":
                moved = [mpmath.zeros(emb.n, emb.n) for _ in range(table.m)]
            else:
                moved = _mp_images(emb)
                if images == "moved":
                    moved[0][1, 0] += mpmath.mpf(2) ** -40
                    moved[-1][0, 0] -= mpmath.mpf(3) ** 50
            got = _measure_residual(table, fixed_images(moved, F), _fixed_gamma(table, F), F)
            assert got == scalar_residual(table, moved, F)
            assert got > 0 or images == "exact"

    @pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
    def test_zero_images_fail_only_the_identity(self, case):
        table, emb = self.images_of(case)
        F = RESIDUAL_F
        with mpmath.workprec(F):
            zero = [mpmath.zeros(emb.n, emb.n) for _ in range(table.m)]
            got = _measure_residual(table, fixed_images(zero, F), _fixed_gamma(table, F), F)
            assert abs(_mp_fraction(got) - mpmath.sqrt(emb.n)) < mpmath.mpf(10) ** -30


def _eigen_cases():
    """(table, order) over each field: the standard table with its maximal
    order and scrambled tables with the image of M_n(Z) as order."""
    cases = {}
    for name, field in [("Q", QQ), ("gauss", Field(1)), ("eisenstein", Field(3))]:
        cases[f"{name}-standard"] = lambda field=field: _standard_order(field)
    for name, n, seed in [("Q", 2, 3), ("Q", 3, 5), ("gauss", 2, 6), ("eisenstein", 2, 1)]:
        cases[f"{name}-n{n}-scrambled"] = lambda name=name, n=n, seed=seed: _hidden_order(name, n, seed)
    return cases


def _standard_order(field):
    t = matrix_units_table(2, field)
    return t, maximal_order(t)


def _hidden_order(name, n, seed):
    inst = generate_instance(n, name, 10, seed=seed)
    return inst.table, Order(inst.table, inst.base_change.inverse())


EIGEN_CASES = _eigen_cases()
EIGEN_PREC = 128


def _powers_by_multiply(table, coords, count):
    """e, z, ..., z^(count-1) by the exact table product."""
    out = [table.find_identity().coords]
    for _ in range(count - 1):
        out.append(table.multiply(out[-1], coords))
    return out


def _drawn(table, order, rng):
    """The coordinates of the next _random_order_element draw, as field values."""
    Z, dz = _random_order_element(order, rng)
    return lift_coords(table.field, [Fraction(x, dz) for x in Z])


def _lam_value(table, lam):
    """The (re, im) ints at 2^F of _pick_eigenvalue as an mpf over Q, an mpc otherwise."""
    D = mpmath.mpf(2) ** mpmath.mp.prec
    re, im = lam
    return re / D if table.field.is_rational else mpmath.mpc(re / D, im / D)


def _good_draw(table, order, seed):
    """The first draw that split_numeric would pass to _eigenspace; call it
    under workprec(EIGEN_PREC + 32), as lam comes out at 2^F, F = EIGEN_PREC + 32."""
    rng = random.Random(seed)
    while True:
        coords = _drawn(table, order, rng)
        f, powers = _min_poly(table, *_integral(table.field, coords))
        if len(f) - 1 == table.n and _is_squarefree(f):
            lam, _ = _pick_eigenvalue(f, table, EIGEN_PREC)
            if lam is not None:
                return coords, f, powers, lam


def _mp_values(table, v):
    """A flat int vector at 2^F (real parts, then imaginary parts over Q(i)
    and Q(sqrt(-3))) as mpf or mpc values."""
    D = mpmath.mpf(2) ** mpmath.mp.prec
    if table.field.is_rational:
        return [x / D for x in v]
    k = len(v) // 2
    return [mpmath.mpc(x / D, y / D) for x, y in zip(v[:k], v[k:])]


def _mp_columns(table, W):
    return mpmath.matrix([list(row) for row in zip(*(_mp_values(table, w) for w in W))])


def _mp_image(table, XY):
    X, Y = XY
    n = math.isqrt(len(X))
    v = _mp_values(table, X if Y is None else X + Y)
    return mpmath.matrix([v[r * n:(r + 1) * n] for r in range(n)])


def _right_regular(table, x):
    """Matrix of y -> y x in the a-basis: column i holds the coordinates of a_i x."""
    units = [[int(k == i) for k in range(table.m)] for i in range(table.m)]
    return ExactMatrix.from_columns(table.field, [table.multiply(u, x) for u in units])


def _mp_matrix(M):
    return mpmath.matrix([[_scalar_to_mp(x) for x in row] for row in M.entries])


def _max_abs(M):
    return max(abs(M[i, j]) for i in range(M.rows) for j in range(M.cols))


class TestEigenspaceOracle:
    """_min_poly, _eigenspace and _images against exact products and mpmath's SVD."""

    @pytest.mark.parametrize("case", sorted(EIGEN_CASES))
    def test_min_poly_annihilates_the_right_regular_matrix(self, case):
        table, order = EIGEN_CASES[case]()
        rng = random.Random(11)
        for draw in range(6):
            coords = _drawn(table, order, rng)
            if draw == 0:
                # a scalar multiple of the identity has degree 1
                coords = tuple(table.field.coerce(3) * x for x in table.find_identity().coords)
            f, powers = _min_poly(table, *_integral(table.field, coords))
            rz = _right_regular(table, coords)
            acc = ExactMatrix.zeros(table.field, table.m, table.m)
            power = ExactMatrix.identity(table.field, table.m)
            for c in f:
                acc = acc + power.scaled(c)
                power = power @ rz
            assert acc.is_zero()
            exact = _powers_by_multiply(table, coords, table.n + 1)
            krylov = ExactMatrix.from_columns(table.field, [list(v) for v in exact])
            assert len(f) - 1 == krylov.rank()
            assert len(powers) == len(f) - 1
            for (P, s), v in zip(powers, exact):
                # P_t holds the (1, omega) coordinates of s_t z^t
                assert lift_coords(table.field, [Fraction(x, s) for x in P]) == v

    @pytest.mark.parametrize("case", sorted(c for c in EIGEN_CASES if not c.startswith("Q")))
    def test_omega_times_the_identity_has_degree_one(self, case):
        # the K-span of P_0 holds omega P_0; over Q alone the degree would be 2
        table, _ = EIGEN_CASES[case]()
        omega = table.field.omega()
        coords = tuple(omega * x for x in table.find_identity().coords)
        f, powers = _min_poly(table, *_integral(table.field, coords))
        assert f == [-omega, table.field.one()]
        assert len(powers) == 1

    @pytest.mark.parametrize("case", sorted(EIGEN_CASES))
    def test_projector_matches_the_svd_null_space(self, case):
        table, order = EIGEN_CASES[case]()
        n, m = table.n, table.m
        with mpmath.workprec(EIGEN_PREC + 32):
            coords, f, powers, lam = _good_draw(table, order, 3)
            W = _mp_columns(table, _eigenspace(table, f, powers, lam, EIGEN_PREC))
            A = _mp_matrix(_right_regular(table, coords))
            for i in range(m):
                A[i, i] -= _lam_value(table, lam)
            if table.field.is_rational:
                _, _, V = mpmath.svd_r(A, full_matrices=True)
            else:
                _, _, V = mpmath.svd_c(A.apply(mpmath.mpc), full_matrices=True)
            # the rows of V for the n smallest singular values, conjugated
            null = V[m - n:m, :].transpose_conj()
            diff = W * W.transpose_conj() - null * null.transpose_conj()
            assert _max_abs(diff) <= mpmath.mpf(2) ** -(EIGEN_PREC // 2)
            assert _max_abs(W.transpose_conj() * W - mpmath.eye(n)) <= mpmath.mpf(2) ** -EIGEN_PREC

    @pytest.mark.parametrize("case", sorted(EIGEN_CASES))
    def test_columns_are_eigenvectors(self, case):
        table, order = EIGEN_CASES[case]()
        with mpmath.workprec(EIGEN_PREC + 32):
            coords, f, powers, lam = _good_draw(table, order, 4)
            W = _mp_columns(table, _eigenspace(table, f, powers, lam, EIGEN_PREC))
            rz = _mp_matrix(_right_regular(table, coords))
            assert _max_abs(rz * W - W * _lam_value(table, lam)) <= mpmath.mpf(2) ** -(EIGEN_PREC // 2)

    @pytest.mark.parametrize("case", sorted(EIGEN_CASES))
    def test_rank_gate_rejects_a_shifted_eigenvalue(self, case):
        table, order = EIGEN_CASES[case]()
        with mpmath.workprec(EIGEN_PREC + 32):
            _, f, powers, lam = _good_draw(table, order, 5)
            assert _eigenspace(table, f, powers, lam, EIGEN_PREC) is not None
            shifted = (lam[0] + (1 << mpmath.mp.prec - EIGEN_PREC // 8), lam[1])
            assert _eigenspace(table, f, powers, shifted, EIGEN_PREC) is None

    @pytest.mark.parametrize("case", sorted(EIGEN_CASES))
    def test_images_match_mpmath_products(self, case):
        table, order = EIGEN_CASES[case]()
        F = EIGEN_PREC + 32
        with mpmath.workprec(F):
            _, f, powers, lam = _good_draw(table, order, 6)
            W_int = _eigenspace(table, f, powers, lam, EIGEN_PREC)
            W = _mp_columns(table, W_int)
            got = _images(table, W_int, _fixed_gamma(table, F), F)
            for i, XY in enumerate(got):
                M = _mp_image(table, XY)
                unit = [table.field.zero()] * table.m
                unit[i] = table.field.one()
                L = _mp_matrix(left_regular(table, unit))
                want = W.transpose_conj() * L * W
                assert _max_abs(M - want) <= mpmath.mpf(2) ** -EIGEN_PREC

    def test_zero_pivot_fails_the_gate(self):
        cols = [[0] * 3 for _ in range(3)]
        assert embed._pivoted_gram_schmidt(cols, 1, EIGEN_PREC, False) is None
        # over Q(i) and Q(sqrt(-3)) a column holds real parts, then imaginary parts
        cols = [[0] * 6 for _ in range(3)]
        assert embed._pivoted_gram_schmidt(cols, 1, EIGEN_PREC, True) is None

    @pytest.mark.parametrize("case", sorted(EIGEN_CASES))
    def test_every_draw_failing_the_gate_raises(self, case, monkeypatch):
        table, order = EIGEN_CASES[case]()
        calls = []

        def refuse(cols, n, precision_bits, is_complex):
            calls.append(n)
            return None

        monkeypatch.setattr(embed, "_pivoted_gram_schmidt", refuse)
        with pytest.raises(PrecisionError):
            split_numeric(table, order, EIGEN_PREC, seed=1)
        assert 0 < len(calls) <= embed._MAX_ATTEMPTS


class TestMatrixUnitsEmbedding:
    @pytest.mark.parametrize("field", [QQ, Field(1)], ids=["Q", "gauss"])
    def test_residual_is_small_and_the_lattice_has_full_rank(self, field):
        t = matrix_units_table(2, field)
        o = maximal_order(t)
        emb = split_numeric(t, o, 128, seed=3)
        lat = embed_order(emb, o)
        assert float(emb.residual) < 1e-25
        assert lat.dimension == (4 if field.is_rational else 8)


class TestEmbedOrder:
    def test_matrix_units_are_frobenius_orthonormal(self):
        t = matrix_units_table(2)
        o = maximal_order(t)
        emb = embedding_from_images(t, standard_images(QQ, 2), 128)
        lat = embed_order(emb, o)
        gram = dot_products(lat)
        for i in range(4):
            for j in range(4):
                expect = 1.0 if i == j else 0.0
                assert abs(float(gram[i][j]) - expect) < 1e-30

    def test_gram_is_symmetric(self):
        t = matrix_units_table(2)
        o = maximal_order(t)
        emb = split_numeric(t, o, 128, seed=9)
        lat = embed_order(emb, o)
        gram = dot_products(lat)
        for i in range(4):
            for j in range(4):
                assert gram[i][j] == gram[j][i]

    def test_gaussian_fixture_minimal_gram_diagonal(self):
        o = gaussian_lambda_order()
        t = o.table
        emb = embedding_from_images(t, standard_images(Field(1), 2), 128)
        lat = embed_order(emb, o)
        reduced = lll_reduce(rationalize(lat, 2**48))
        g = reduced.gram()
        assert abs(min(float(g[i][i]) for i in range(8)) - 2.0) < 1e-9

    def test_norm_transport_over_k(self):
        # |Phi(y)| equals the Frobenius norm of phi(y) by construction
        t = matrix_units_table(2, Field(1))
        o = maximal_order(t)
        emb = split_numeric(t, o, 128, seed=5)
        lat = embed_order(emb, o)
        # the embedded basis lists b_j and omega b_j in turn
        zs = o.z_basis()
        zs = [zs[s * 4 + j] for j in range(4) for s in range(2)]
        rng = random.Random(0)
        with mpmath.workprec(192):
            for _ in range(100):
                coeffs = [rng.randint(-4, 4) for _ in range(8)]
                vec = [
                    sum(lat.basis_vectors[j][i] * coeffs[j] for j in range(8))
                    for i in range(8)
                ]
                phi_norm_sq = mpmath.mpf(0)
                el_coords = [t.field.zero()] * 4
                for j, c in enumerate(coeffs):
                    if c:
                        el_coords = [
                            a + t.field.coerce(c) * b
                            for a, b in zip(el_coords, zs[j].coords)
                        ]
                mat = _phi(emb, el_coords)
                for i in range(2):
                    for j in range(2):
                        phi_norm_sq += abs(mat[i, j]) ** 2
                vec_norm_sq = mpmath.mpf(sum(x * x for x in vec)) / lat.denominator**2
                assert abs(float(vec_norm_sq - phi_norm_sq)) < 1e-25


class TestRationalize:
    def test_integer_vectors_unchanged(self):
        t = matrix_units_table(2)
        o = maximal_order(t)
        emb = embedding_from_images(t, standard_images(QQ, 2), 128)
        lat = embed_order(emb, o)
        basis = rationalize(lat, 10**6)
        flat = sorted(abs(x) for col in basis.columns for x in col)
        assert flat == [0] * 12 + [1] * 4

    def test_pi_entry_rounding(self):
        with mpmath.workprec(200):
            pi = int(mpmath.nint(mpmath.pi * 2**160))
        lat = EmbeddedLattice(
            dimension=1,
            basis_vectors=[[pi]],
            error_radius=mpmath.mpf(0),
            denominator=2**160,
        )
        basis = rationalize(lat, 10**6)
        assert abs(float(basis.columns[0][0]) - math.pi) <= 1e-6

    def test_a2_lambda1_at_high_denominator(self):
        # rationalizing the exact hexagonal generators perturbs lambda1 by
        # far less than the rounding budget; sqrt(3) / 2 to 200 bits
        lat = EmbeddedLattice(
            dimension=2,
            basis_vectors=[[2**200, math.isqrt(3 << 400)], [2**201, 0]],
            error_radius=mpmath.mpf(0),
            denominator=2**201,
        )
        basis = rationalize(lat, 10**12)
        reduced = lll_reduce(basis)
        lam = math.sqrt(float(short_vectors(reduced.gram(), 1.1)[0][1]))
        assert abs(lam - 1.0) < 1e-10

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.integers(-(2**300), 2**300), min_size=1, max_size=6),
        st.integers(1, 2**200),
        st.integers(1, 2**128),
    )
    def test_every_entry_moves_by_at_most_half_over_q(self, entries, denominator, q):
        lat = EmbeddedLattice(
            dimension=len(entries),
            basis_vectors=[entries],
            error_radius=mpmath.mpf(0),
            denominator=denominator,
        )
        basis = rationalize(lat, q)
        for x, y in zip(entries, basis.columns[0]):
            assert y.denominator <= q and q % y.denominator == 0
            assert abs(y - Fraction(x, denominator)) <= Fraction(1, 2 * q)

    def test_rejects_bad_denominator(self):
        t = matrix_units_table(2)
        o = maximal_order(t)
        emb = embedding_from_images(t, standard_images(QQ, 2), 128)
        lat = embed_order(emb, o)
        with pytest.raises(InputError):
            rationalize(lat, 0)


def _min_polys(name, n, seeds, per_seed):
    """Squarefree degree-n minimal polynomials of random elements of the
    hidden order of generated instances."""
    polys = []
    for seed in seeds:
        inst = generate_instance(n, name, 10, seed=seed)
        table = inst.table
        order = Order(table, inst.base_change.inverse())
        rng = random.Random(seed)
        found = 0
        while found < per_seed:
            f, _ = _min_poly(table, *_random_order_element(order, rng))
            if len(f) - 1 == n and _is_squarefree(f):
                polys.append(f)
                found += 1
    return polys


@functools.cache
def _root_polys():
    """210 minimal polynomials: Q n = 2..6, Q(i) and Q(sqrt(-3)) n = 2."""
    return (
        _min_polys("Q", 2, range(1, 5), 10)
        + _min_polys("Q", 3, range(1, 5), 10)
        + _min_polys("Q", 4, range(1, 4), 10)
        + _min_polys("Q", 5, range(1, 3), 10)
        + _min_polys("Q", 6, range(1, 3), 10)
        + _min_polys("gauss", 2, range(1, 6), 5)
        + _min_polys("eisenstein", 2, range(1, 6), 5)
    )


def _matched(got, want):
    """The largest distance of a one-to-one nearest-root matching of got to want, or None."""
    nearest = [min(range(len(want)), key=lambda k: abs(r - want[k])) for r in got]
    if sorted(nearest) != list(range(len(want))):
        return None
    return max((abs(r - want[k]) for r, k in zip(got, nearest)), default=mpmath.mpf(0))


def _as_mpc(roots, K):
    D = mpmath.mpf(2) ** K
    return [mpmath.mpc(x / D, y / D) for x, y in roots]


class TestSeededRoots:
    """_refine_roots from the Newton-polygon start, against mpmath.polyroots as an oracle."""

    def test_the_corpus_holds_at_least_200_polynomials(self):
        assert len(_root_polys()) >= 200

    @pytest.mark.parametrize("precision", [128, 512, 2048])
    def test_refined_roots_match_polyroots(self, precision):
        F = precision + 32
        K = F + embed._GUARD
        for f in _root_polys():
            got = _refine_roots(f, K)
            assert len(got) == len(f) - 1
            with mpmath.workprec(F + 64):
                want = mpmath.polyroots([_scalar_to_mp(c) for c in reversed(f)], maxsteps=200, extraprec=64)
                dist = _matched(_as_mpc(got, K), want)
                assert dist is not None and dist <= mpmath.mpf(2) ** -(F - 4)

    def test_coefficients_beyond_the_double_range_converge(self):
        # (x - 2^1100)(x - 3)(x + 5): its coefficients have no double value
        big = 2**1100
        f = [Fraction(15 * big), Fraction(-15 - 2 * big), Fraction(2 - big), Fraction(1)]
        F = 160
        K = F + embed._GUARD
        got = sorted(_refine_roots(f, K))
        want = [(-5 << K, 0), (3 << K, 0), (big << K, 0)]
        for (x, y), (u, v) in zip(got, want):
            assert abs(x - u) <= 1 << (K - F + 4) and abs(y - v) <= 1 << (K - F + 4)

    def test_a_failed_root_finder_is_not_evidence_of_non_splitness(self, monkeypatch):
        def give_up(*args, **kwargs):
            raise embed._NoConvergence("no convergence")

        monkeypatch.setattr(embed, "_refine_roots", give_up)
        t = matrix_units_table(2)
        with pytest.raises(PrecisionError):
            split_numeric(t, maximal_order(t), 128, seed=1)


def _reordered(monkeypatch, reverse):
    """Make _refine_roots list the roots by real part, then imaginary part, in either direction."""
    refine = embed._refine_roots
    monkeypatch.setattr(embed, "_refine_roots", lambda *a: sorted(refine(*a), reverse=reverse))


class TestEigenvalueChoice:
    """The explicit tie-break of _pick_eigenvalue."""

    def test_equal_imaginary_parts_take_the_least_real_part(self, monkeypatch):
        # f = x^2 + 8x + (36 - 52 sqrt(-3)) has roots -4 +- w with equal |Im|
        field = Field(3)
        t = matrix_units_table(2, field)
        f = [QuadScalar(3, 36, -52), field.coerce(8), field.one()]
        with mpmath.workprec(160):
            lam, _ = _pick_eigenvalue(f, t, 128)
            assert lam[0] < -4 << 160
            for reverse in (False, True):
                # whatever order the refiner returns the roots in
                _reordered(monkeypatch, reverse)
                assert _pick_eigenvalue(f, t, 128)[0] == lam

    def test_equally_separated_real_roots_take_the_least(self, monkeypatch):
        # (x - 1)(x - 2)(x - 3): every root is 1 from its nearest neighbour
        f = [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]
        with mpmath.workprec(160):
            for reverse in (False, True):
                _reordered(monkeypatch, reverse)
                (re, im), sep_sq = _pick_eigenvalue(f, matrix_units_table(3), 128)
                assert abs(re - (1 << 160)) < 1 << 60 and im == 0
                assert abs(sep_sq - (1 << 320)) < 1 << 220

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("coeffs", [(1, 0), (5, -2), (7, 3)], ids=["x2+1", "x2-2x+5", "x2+3x+7"])
    def test_a_conjugate_pair_takes_the_positive_imaginary_part(self, monkeypatch, d, coeffs):
        # x^2 + b x + c with rational b, c and no real root: the roots a +- bi tie
        # in separation, in |Im| and in Re
        field = Field(d)
        t = matrix_units_table(2, field)
        c, b = coeffs
        f = [field.coerce(c), field.coerce(b), field.one()]
        with mpmath.workprec(160):
            picks = set()
            for reverse in (False, True):
                _reordered(monkeypatch, reverse)
                picks.add(_pick_eigenvalue(f, t, 128)[0])
            (lam,) = picks
            root = (-b + mpmath.sqrt(b * b - 4 * c)) / 2
            assert lam[1] > 0
            assert abs(mpmath.mpc(lam[0], lam[1]) / 2**160 - root) < mpmath.mpf(2) ** -150


def _mp_projector_columns(table, f, powers, lam):
    """The columns of g(R_z) in mpmath arithmetic, weights c_k / (s_k d)."""
    G, d = table._integral_gamma()
    c = [mpmath.mpf(1)]
    for k in range(len(f) - 2, 0, -1):
        c.append(_scalar_to_mp(f[k]) + lam * c[-1])
    weights = [ck / (s * d) for ck, (_, s) in zip(reversed(c), powers)]
    omega = None if table.field.is_rational else _scalar_to_mp(table.field.omega())
    cols = []
    for gj in G[:table.m]:
        R = [[sum(p * x for p, x in zip(P, col)) for col in zip(*gj)] for P, _ in powers]
        col = [mpmath.fdot(weights, x) for x in zip(*R)]
        m = table.m
        cols.append(col if omega is None else [u + omega * v for u, v in zip(col[:m], col[m:])])
    return cols


class TestIntegerEigenspace:
    @pytest.mark.parametrize("case", sorted(EIGEN_CASES))
    @pytest.mark.parametrize("precision", [128, 256])
    def test_the_int_columns_span_the_mpmath_projector(self, case, precision):
        table, order = EIGEN_CASES[case]()
        with mpmath.workprec(precision + 32):
            rng = random.Random(7)
            checked = 0
            while checked < 3:
                f, powers = _min_poly(table, *_random_order_element(order, rng))
                if len(f) - 1 != table.n or not _is_squarefree(f):
                    continue
                lam, _ = _pick_eigenvalue(f, table, precision)
                if lam is None:
                    continue
                W = _mp_columns(table, _eigenspace(table, f, powers, lam, precision))
                for col in _mp_projector_columns(table, f, powers, _lam_value(table, lam)):
                    g = mpmath.matrix(col)
                    rest = g - W * (W.transpose_conj() * g)
                    assert mpmath.mnorm(rest, "f") <= mpmath.mpf(2) ** -(precision // 2) * (
                        mpmath.mnorm(g, "f") + 1)
                checked += 1


class TestRationalizedLatticesStay:
    """rationalize(embed_order(split_numeric(...)), 2^64) on generated
    instances with their hidden order: the digests of this lattice."""

    DIGESTS = {
        ("Q", 2, 1): "dea1ee05e514eff2",
        ("Q", 2, 2): "f9875247b3118540",
        ("Q", 2, 3): "2559050962a91d87",
        ("Q", 3, 1): "a6dcc431a76c2b6b",
        ("Q", 3, 2): "d0a996f2fef4469c",
        ("Q", 3, 3): "63c4a04b0690eee8",
        ("gauss", 2, 1): "df9e73bb6f583494",
        ("gauss", 2, 2): "b61935b154e3ada9",
        ("gauss", 2, 3): "711bc34891e7b0f1",
        ("eisenstein", 2, 1): "24e7af15eeb45267",
        ("eisenstein", 2, 2): "82dae97b275e78e3",
        ("eisenstein", 2, 3): "74cb52ebbb107427",
    }

    @pytest.mark.parametrize("name,n,seed", sorted(DIGESTS))
    def test_digest(self, name, n, seed):
        inst = generate_instance(n, name, 10, seed=seed)
        order = Order(inst.table, inst.base_change.inverse())
        basis = rationalize(embed_order(split_numeric(inst.table, order, 128, seed=seed), order), 2**64)
        text = json.dumps(serialize.lattice_to_json(basis))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == self.DIGESTS[name, n, seed]


def test_the_library_and_the_cli_run_without_mpmath():
    code = (
        "import sys\n"
        "import matsplit, matsplit.cli\n"
        "from matsplit.serialize import result_to_json, verify_result_json\n"
        "from matsplit.splitter import SplitConfig, generate_instance, split\n"
        "t = generate_instance(2, 'Q', 10, 1).table\n"
        "assert verify_result_json(result_to_json(split(t, SplitConfig(seed=1)), t)) == []\n"
        "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
    )
    src = str(Path(embed.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_a_split_of_each_field_imports_no_numpy():
    code = (
        "import sys\n"
        "from matsplit.splitter import SplitConfig, generate_instance, split\n"
        "for name in ('Q', 'gauss', 'eisenstein'):\n"
        "    split(generate_instance(2, name, 10, 1).table, SplitConfig(seed=1))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(embed.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
