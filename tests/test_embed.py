"""Numerical embeddings, embedded lattices, and rational approximation."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from matsplit import embed
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
    _fixed,
    _fixed_complex,
    _fixed_parts,
    _images,
    _is_squarefree,
    _measure_residual,
    _min_poly,
    _pick_eigenvalue,
    _random_order_element,
    _scalar_to_mp,
    embed_order,
    embedding_from_images,
    rationalize,
    split_numeric,
)
from matsplit.errors import InputError, PrecisionError
from matsplit.exactnum import QQ, ExactMatrix, Field
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


def dot_products(vectors):
    """Gram matrix of mpf vectors."""
    return [[mpmath.fsum(a * b for a, b in zip(u, v)) for v in vectors] for u in vectors]


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
        assert abs(complex(emb.images[0][0, 0]) - 2) < 1e-30

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


def scalar_residual(table, images):
    """_measure_residual with every pair defect summed one scalar at a time."""
    F = mpmath.mp.prec
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
    return mpmath.sqrt(mpmath.mpf(worst.numerator) / worst.denominator)


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
        assert emb.residual < mpmath.mpf(2) ** -(RESIDUAL_PREC + 8)

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
        with mpmath.workprec(RESIDUAL_PREC + 32):
            step = {"2^-40": mpmath.mpf(2) ** -40, "1": mpmath.mpf(1),
                    "i*2^-40": mpmath.mpc(0, mpmath.mpf(2) ** -40)}[move]
            images = [M.copy() for M in emb.images]
            k = table.m - 1
            images[k][0, 1] += step
            got = _measure_residual(table, images)
        with mpmath.workprec(2 * RESIDUAL_PREC):
            want = oracle_residual(table, images)
            assert want > mpmath.mpf(2) ** -42
            assert abs(got - want) <= want * mpmath.mpf(10) ** -20
            # rounding the images to the working precision is the only slack
            assert got >= want - mpmath.mpf(2) ** -RESIDUAL_PREC

    @pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
    @pytest.mark.parametrize("images", ["exact", "moved", "zero"])
    def test_packed_kernel_equals_the_scalar_scan(self, case, images):
        # not close: the same Fraction, so the same mpf
        table, emb = self.images_of(case)
        with mpmath.workprec(RESIDUAL_PREC + 32):
            if images == "zero":
                moved = [mpmath.zeros(emb.n, emb.n) for _ in range(table.m)]
            else:
                moved = [M.copy() for M in emb.images]
                if images == "moved":
                    moved[0][1, 0] += mpmath.mpf(2) ** -40
                    moved[-1][0, 0] -= mpmath.mpf(3) ** 50
            got = _measure_residual(table, moved)
            assert got == scalar_residual(table, moved)
            assert got > 0 or images == "exact"

    @pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
    def test_zero_images_fail_only_the_identity(self, case):
        table, emb = self.images_of(case)
        with mpmath.workprec(RESIDUAL_PREC + 32):
            zero = [mpmath.zeros(emb.n, emb.n) for _ in range(table.m)]
            got = _measure_residual(table, zero)
            assert abs(got - mpmath.sqrt(emb.n)) < mpmath.mpf(10) ** -30


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


def _good_draw(table, order, seed):
    """The first draw that split_numeric would pass to _eigenspace; call it
    at the working precision, as lam comes out at mp.prec bits."""
    rng = random.Random(seed)
    while True:
        coords = _random_order_element(order, rng)
        f, powers = _min_poly(table, coords)
        if len(f) - 1 == table.n and _is_squarefree(f):
            lam, _ = _pick_eigenvalue(f, table, EIGEN_PREC)
            if lam is not None:
                return coords, f, powers, lam


def _mp_columns(W):
    return mpmath.matrix([list(row) for row in zip(*W)])


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
            coords = _random_order_element(order, rng)
            if draw == 0:
                # a scalar multiple of the identity has degree 1
                coords = tuple(table.field.coerce(3) * x for x in table.find_identity().coords)
            f, powers = _min_poly(table, coords)
            rz = table.right_regular(coords)
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
        f, powers = _min_poly(table, coords)
        assert f == [-omega, table.field.one()]
        assert len(powers) == 1

    @pytest.mark.parametrize("case", sorted(EIGEN_CASES))
    def test_projector_matches_the_svd_null_space(self, case):
        table, order = EIGEN_CASES[case]()
        n, m = table.n, table.m
        with mpmath.workprec(EIGEN_PREC + 32):
            coords, f, powers, lam = _good_draw(table, order, 3)
            W = _mp_columns(_eigenspace(table, f, powers, lam, EIGEN_PREC))
            A = _mp_matrix(table.right_regular(coords))
            for i in range(m):
                A[i, i] -= lam
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
            W = _mp_columns(_eigenspace(table, f, powers, lam, EIGEN_PREC))
            rz = _mp_matrix(table.right_regular(coords))
            assert _max_abs(rz * W - W * lam) <= mpmath.mpf(2) ** -(EIGEN_PREC // 2)

    @pytest.mark.parametrize("case", sorted(EIGEN_CASES))
    def test_rank_gate_rejects_a_shifted_eigenvalue(self, case):
        table, order = EIGEN_CASES[case]()
        with mpmath.workprec(EIGEN_PREC + 32):
            _, f, powers, lam = _good_draw(table, order, 5)
            assert _eigenspace(table, f, powers, lam, EIGEN_PREC) is not None
            shifted = lam + mpmath.mpf(2) ** -(EIGEN_PREC // 8)
            assert _eigenspace(table, f, powers, shifted, EIGEN_PREC) is None

    @pytest.mark.parametrize("case", sorted(EIGEN_CASES))
    def test_images_match_mpmath_products(self, case):
        table, order = EIGEN_CASES[case]()
        with mpmath.workprec(EIGEN_PREC + 32):
            _, f, powers, lam = _good_draw(table, order, 6)
            W = _mp_columns(_eigenspace(table, f, powers, lam, EIGEN_PREC))
            got = _images(table, [list(W[:, t]) for t in range(table.n)])
            for i, M in enumerate(got):
                unit = [table.field.zero()] * table.m
                unit[i] = table.field.one()
                L = _mp_matrix(table.left_regular(unit))
                want = W.transpose_conj() * L * W
                assert _max_abs(M - want) <= mpmath.mpf(2) ** -EIGEN_PREC

    def test_zero_pivot_fails_the_gate(self):
        zero = [mpmath.mpf(0)] * 3
        assert embed._pivoted_gram_schmidt([zero, zero, zero], 1, mpmath.mpf(1)) is None

    @pytest.mark.parametrize("case", sorted(EIGEN_CASES))
    def test_every_draw_failing_the_gate_raises(self, case, monkeypatch):
        table, order = EIGEN_CASES[case]()
        calls = []

        def refuse(cols, n, gate):
            calls.append(n)
            return None

        monkeypatch.setattr(embed, "_pivoted_gram_schmidt", refuse)
        with pytest.raises(PrecisionError):
            split_numeric(table, order, EIGEN_PREC, seed=1)
        assert 0 < len(calls) <= embed._MAX_ATTEMPTS


class TestMpmathOperandOrder:
    """Scalar times matrix must be written matrix * scalar.

    With the scalar on the left, mpf.__mul__ first fails to convert the
    matrix and formats repr(matrix) into a TypeError it then discards.
    """

    @pytest.mark.parametrize("field", [QQ, Field(1)], ids=["Q", "gauss"])
    def test_no_matrix_is_formatted(self, monkeypatch, field):
        t = matrix_units_table(2, field)
        o = maximal_order(t)

        def refuse(self):
            raise AssertionError("an mpmath matrix was formatted")

        monkeypatch.setattr(mpmath.matrix, "__repr__", refuse)
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
        gram = dot_products(lat.basis_vectors)
        for i in range(4):
            for j in range(4):
                expect = 1.0 if i == j else 0.0
                assert abs(float(gram[i][j]) - expect) < 1e-30

    def test_gram_is_symmetric(self):
        t = matrix_units_table(2)
        o = maximal_order(t)
        emb = split_numeric(t, o, 128, seed=9)
        lat = embed_order(emb, o)
        gram = dot_products(lat.basis_vectors)
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
                            for a, b in zip(el_coords, lat.zbasis_elements[j].coords)
                        ]
                mat = emb.phi(el_coords)
                for i in range(2):
                    for j in range(2):
                        phi_norm_sq += abs(mat[i, j]) ** 2
                vec_norm_sq = sum(x * x for x in vec)
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
        lat = EmbeddedLattice(
            dimension=1,
            basis_vectors=[[mpmath.pi]],
            error_radius=mpmath.mpf(0),
            zbasis_elements=(),
        )
        basis = rationalize(lat, 10**6)
        assert abs(float(basis.columns[0][0]) - math.pi) <= 1e-6

    def test_a2_lambda1_at_high_denominator(self):
        # rationalizing the exact hexagonal generators perturbs lambda1 by
        # far less than the rounding budget
        with mpmath.workprec(200):
            vecs = [
                [mpmath.mpf(1) / 2, mpmath.sqrt(3) / 2],
                [mpmath.mpf(1), mpmath.mpf(0)],
            ]
        lat = EmbeddedLattice(
            dimension=2,
            basis_vectors=vecs,
            error_radius=mpmath.mpf(0),
            zbasis_elements=(),
        )
        basis = rationalize(lat, 10**12)
        reduced = lll_reduce(basis)
        lam = math.sqrt(float(short_vectors(reduced.gram(), 1.1)[0][1]))
        assert abs(lam - 1.0) < 1e-10

    def test_rejects_bad_denominator(self):
        t = matrix_units_table(2)
        o = maximal_order(t)
        emb = embedding_from_images(t, standard_images(QQ, 2), 128)
        lat = embed_order(emb, o)
        with pytest.raises(InputError):
            rationalize(lat, 0)
