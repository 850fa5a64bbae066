"""Structure constant algebras: validation, rank test, isomorphism witness."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from matsplit import algebra
from matsplit.algebra import (
    AlgebraElement,
    StructureConstants,
    WitnessProblems,
    _integral,
    build_isomorphism,
    find_identity,
    ideal_rank,
    lift_coords,
    matrix_units_table,
    multiply,
    trace_gram,
    validate,
    witness_problems,
)
from matsplit.errors import InputError, InternalError, NoIdentityError, PromiseViolation
from matsplit.exactnum import EISENSTEIN, GAUSS, QQ, ExactMatrix, QuadScalar
from matsplit.fixtures import quaternion_table
from matsplit.orders import Order, _restricted_to_k, initial_order, maximal_order, restricted_table
from matsplit.splitter import generate_instance


@pytest.fixture(scope="module")
def m2():
    return matrix_units_table(2)


def left_regular(table, x):
    """Matrix of y -> x y in the a-basis, from gamma: the oracle for products."""
    zero = table.field.zero()
    rows = [[zero] * table.m for _ in range(table.m)]
    for i, gi in enumerate(table.gamma):
        xi = table.field.coerce(x[i])
        for j, gij in enumerate(gi):
            for k, g in enumerate(gij):
                rows[k][j] += xi * g
    return ExactMatrix(table.field, rows)


@pytest.fixture(scope="module")
def m3():
    return matrix_units_table(3)


def unit(table, j):
    v = [table.field.zero()] * table.m
    v[j] = table.field.one()
    return AlgebraElement(table, v)


class TestValidate:
    def test_standard_table_valid(self, m2):
        assert validate(m2) == []

    def test_perturbed_gamma_reports_the_pair(self, m2):
        gamma = [[[x for x in row] for row in plane] for plane in m2.gamma]
        gamma[0][1][0] = gamma[0][1][0] + 1
        bad = StructureConstants(QQ, gamma)
        violations = validate(bad)
        assert violations
        assert any("a_0" in v or "a_1" in v for v in violations)

    def test_split_quaternions_valid(self):
        assert validate(quaternion_table(1, 1)) == []

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    )
    def test_associativity_by_direct_expansion(self, xs, ys, zs):
        # independent oracle for the validity of the split quaternion table
        t = quaternion_table(1, 1)
        x, y, z = (AlgebraElement(t, [Fraction(v) for v in c]) for c in (xs, ys, zs))
        assert ((x * y) * z).coords == (x * (y * z)).coords

    def test_non_square_dimension_flagged(self):
        t = StructureConstants(QQ, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
        assert any("perfect square" in v for v in validate(t))

    def test_zero_dimension_rejected(self):
        with pytest.raises(InputError):
            StructureConstants(QQ, [])


class TestMultiply:
    def test_matrix_unit_products(self, m2):
        e12, e21, e11 = unit(m2, 1), unit(m2, 2), unit(m2, 0)
        assert multiply(e12, e21).coords == e11.coords
        assert multiply(e12, e12).is_zero()

    def test_identity_acts_trivially(self, m2):
        e = find_identity(m2)
        x = AlgebraElement(m2, [1, 2, 3, 4])
        assert multiply(e, x).coords == x.coords
        assert multiply(x, e).coords == x.coords

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    )
    def test_bilinearity(self, xs, ys, zs):
        t = matrix_units_table(2)
        x, y, z = (AlgebraElement(t, [Fraction(v) for v in c]) for c in (xs, ys, zs))
        assert ((x + y) * z).coords == (x * z + y * z).coords
        assert (z * (x + y)).coords == (z * x + z * y).coords


class TestIdentity:
    def test_standard_identity(self, m2):
        assert find_identity(m2).coords == (1, 0, 0, 1)

    def test_quaternion_identity(self):
        t = quaternion_table(-1, -1)
        assert find_identity(t).coords == (1, 0, 0, 0)

    def test_scrambled_identity_satisfies_the_law(self):
        inst = generate_instance(2, QQ, 8, seed=5)
        e = find_identity(inst.table)
        for j in range(4):
            b = unit(inst.table, j)
            assert multiply(e, b).coords == b.coords
            assert multiply(b, e).coords == b.coords

    def test_no_identity_reported(self):
        # the 1-dim algebra with a*a = 0 has no unit
        t = StructureConstants(QQ, [[[0]]])
        with pytest.raises(NoIdentityError):
            find_identity(t)

    def test_zero_algebra_has_no_identity(self):
        with pytest.raises(NoIdentityError):
            find_identity(StructureConstants(QQ, [[[0] * 4] * 4] * 4))

    def test_left_identities_without_a_right_identity(self):
        # a_i a_j = a_j: every a_i is a left identity, and a_j e = e for all j,
        # so no e is a right identity; the m pivot rows still fix a candidate
        t = StructureConstants(QQ, [[[int(j == k) for k in range(4)] for j in range(4)]] * 4)
        assert validate(t) == ["no two-sided identity element"]
        with pytest.raises(NoIdentityError):
            find_identity(t)

    # E11, E12 of the first-row matrices: the left identities E11 + c E12, no
    # right one; E11, E21 of the first-column matrices: the right identities
    # E11 + c E21, no left one; and the zero algebra
    ONE_SIDED = {
        "left_only": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]],
        "right_only": [[[1, 0], [0, 0]], [[0, 1], [0, 0]]],
        "zero": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
    }

    @pytest.mark.parametrize("field", [QQ, GAUSS, EISENSTEIN])
    @pytest.mark.parametrize("name", sorted(ONE_SIDED))
    def test_the_left_equations_alone_find_no_two_sided_identity(self, name, field):
        t = StructureConstants(field, self.ONE_SIDED[name])
        with pytest.raises(NoIdentityError, match="^the table has no two-sided identity$"):
            find_identity(t)
        assert "no two-sided identity element" in validate(t)


class TestRegularRepresentation:
    """The test-side left_regular, an oracle of other tests."""

    def test_left_regular_of_identity(self, m2):
        e = find_identity(m2)
        assert left_regular(m2, e.coords) == ExactMatrix.identity(QQ, 4)

    def test_left_regular_rank(self, m2):
        # E11 kills half the algebra from the left
        assert left_regular(m2, unit(m2, 0).coords).rank() == 2

    def test_left_regular_zero(self, m2):
        assert left_regular(m2, [0, 0, 0, 0]).is_zero()


class TestIdealRank:
    def test_examples(self, m2):
        assert ideal_rank(find_identity(m2)) == 2
        assert ideal_rank(unit(m2, 0)) == 1
        assert ideal_rank(AlgebraElement(m2, [0, 0, 0, 0])) == 0

    @pytest.mark.parametrize(
        "n, field, seed", [(2, "Q", 42), (3, "Q", 5), (2, "gauss", 6), (2, "eisenstein", 7)]
    )
    def test_rank_matches_hidden_matrix_rank(self, n, field, seed):
        # oracle: the generator records the isomorphism to matrix units
        inst = generate_instance(n, FIELDS[field], 10, seed=seed)
        rng = random.Random(seed)
        elements = [[rng.randint(-2, 3) for _ in range(inst.table.m)] for _ in range(4)]
        # U V for U of shape n x r and V of shape r x n has rank r here
        for r in range(n + 1):
            U = [[_random_scalar(inst.field, rng) + 5 for _ in range(r)] for _ in range(n)]
            V = [[_random_scalar(inst.field, rng) + 5 for _ in range(n)] for _ in range(r)]
            elements.append(_element_of_matrix(inst, U, V))
        ranks = []
        for coords in elements:
            el = AlgebraElement(inst.table, coords)
            ranks.append(inst.hidden_matrix(el.coords).rank())
            assert ideal_rank(el) == ranks[-1]
        assert {0, 1, n} <= set(ranks)

    def test_rank_invariant_under_base_change(self, m2):
        inst = generate_instance(2, QQ, 10, seed=9)
        # the identity has rank n in any presentation
        assert ideal_rank(find_identity(inst.table)) == 2


class TestBuildIsomorphism:
    def test_matrix_units_witness(self, m2):
        w = build_isomorphism(m2, unit(m2, 0))
        assert witness_problems(m2, w.images).pairs == ()
        assert len(w.left_ideal_basis) == 2

    def test_requires_rank_one(self, m2):
        with pytest.raises(InputError):
            build_isomorphism(m2, find_identity(m2))

    def test_scrambled_m2_witness(self):
        inst = generate_instance(2, QQ, 10, seed=42)
        # search a small box for a rank one element exactly
        el = _find_rank_one(inst.table)
        w = build_isomorphism(inst.table, el)
        assert witness_problems(inst.table, w.images).pairs == ()

    def test_scrambled_m3_witness(self):
        inst = generate_instance(3, QQ, 6, seed=4)
        el = _find_rank_one(inst.table)
        w = build_isomorphism(inst.table, el)
        assert witness_problems(inst.table, w.images).pairs == ()
        assert w.images[0].rows == 3


def _element_of_matrix(inst, U, V):
    """Coordinates of the element the generator maps to the matrix U V."""
    n, zero = inst.table.n, inst.field.zero()
    flat = [sum((u * v for u, v in zip(U[i], [row[j] for row in V])), zero)
            for i in range(n) for j in range(n)]
    return inst.base_change.inverse().mul_vector(flat)


class TestBuildIsomorphismAgainstEchelon:
    @pytest.mark.parametrize("n, field", [(2, "Q"), (3, "Q"), (2, "gauss"), (2, "eisenstein")])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_matches_the_echelon_over_the_field(self, n, field, seed):
        # over Q(i) and Q(sqrt(-3)) a wrong pivot order of the integer
        # elimination changes the images or the ideal basis
        rng = random.Random(600 + seed)
        inst = generate_instance(n, FIELDS[field], 10, seed)
        for zeros in range(n):
            # zero rows of u move the pivots of A*C
            u = [_random_scalar(inst.field, rng) + 5 for _ in range(n)]
            v = [[_random_scalar(inst.field, rng) + 5 for _ in range(n)]]
            u[:zeros] = [inst.field.zero()] * zeros
            C = inst.table.element(_element_of_matrix(inst, [[x] for x in u], v))
            w = build_isomorphism(inst.table, C)
            images, ideal = _echelon_witness(inst.table, C)
            assert list(w.images) == images
            assert [x.coords for x in w.left_ideal_basis] == ideal


def _right_regular(table, x):
    """Matrix of y -> y x in the a-basis: column i holds the coordinates of a_i x."""
    units = [[int(k == i) for k in range(table.m)] for i in range(table.m)]
    return ExactMatrix.from_columns(table.field, [table.multiply(u, x) for u in units])


def _echelon_witness(table, C):
    """Images and left ideal basis from the reduced echelon form X of the right
    regular matrix over K: a_k C = sum_t X[t][k] a_{p_t} C, so column t of
    phi(a_i) is sum_k gamma_{i p_t k} X[.][k]."""
    rmat = _right_regular(table, C.coords)
    X, pivots, _ = rmat._echelon()
    zero = table.field.zero()
    images = [
        ExactMatrix(
            table.field,
            [[sum((g * x for g, x in zip(gi[p], row)), zero) for p in pivots] for row in X[:table.n]],
        )
        for gi in table.gamma
    ]
    return images, [rmat.column(p) for p in pivots]


def _find_rank_one(table):
    """Brute force rank-one search over small coordinate boxes (test oracle)."""
    from itertools import product

    for radius in (1, 2, 3):
        for coords in product(range(-radius, radius + 1), repeat=table.m):
            if not any(coords):
                continue
            el = AlgebraElement(table, [Fraction(c) for c in coords])
            if ideal_rank(el) == 1:
                return el
    raise AssertionError("no rank one element in the search box")


class TestTraceGram:
    def test_matrix_units_gram_is_a_scaled_permutation(self, m2):
        basis = [unit(m2, j) for j in range(4)]
        g = trace_gram(m2, basis)
        # Tr L(E_ab E_cd) = n [b=c][a=d]
        nonzero = sum(1 for i in range(4) for j in range(4) if g.entries[i][j] != 0)
        assert nonzero == 4
        assert abs(g.det()) == 16
        assert abs(trace_gram(m2, basis).scaled(Fraction(1, 2)).det()) == 1

    def test_bilinearity_under_scaling(self, m2):
        basis = [unit(m2, j) for j in range(4)]
        scaled = [b.scaled(2) for b in basis]
        g1 = trace_gram(m2, basis)
        g2 = trace_gram(m2, scaled)
        assert g2 == g1.scaled(4)

    def test_one_dimensional_algebra(self):
        t = StructureConstants(QQ, [[[1]]])
        g = trace_gram(t, [AlgebraElement(t, [1])])
        assert g.entries == ((Fraction(1),),)


# -- differential tests of the exact kernels against definitional oracles ---

FIELDS = {"Q": QQ, "gauss": GAUSS, "eisenstein": EISENSTEIN}


def _random_scalar(field, rng):
    a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if field.is_rational:
        return a
    return QuadScalar(field.d, a, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def _rescaled(table, scales):
    """The same algebra on the basis c_i a_i: gamma_ijk becomes c_i c_j / c_k gamma_ijk."""
    c = [table.field.coerce(x) for x in scales]
    m = table.m
    return StructureConstants(
        table.field,
        [[[c[i] * c[j] / c[k] * table.gamma[i][j][k] for k in range(m)] for j in range(m)]
         for i in range(m)],
    )


def _perturbed(table, i, j, k, delta):
    gamma = [[list(row) for row in plane] for plane in table.gamma]
    gamma[i][j][k] = gamma[i][j][k] + delta
    return StructureConstants(table.field, gamma)


def _associativity_oracle(table):
    """Pairs (i, j) with (a_i a_j) a_k != a_i (a_j a_k) for some k, by brute force."""
    e = [unit(table, j).coords for j in range(table.m)]
    mul = table.multiply
    prod = [[mul(x, y) for y in e] for x in e]
    return [
        (i, j)
        for i in range(table.m)
        for j in range(table.m)
        if any(mul(prod[i][j], e[k]) != mul(e[i], prod[j][k]) for k in range(table.m))
    ]


def _definitional_gram(table, basis):
    return ExactMatrix(
        table.field,
        [[left_regular(table, (bi * bj).coords).trace() for bj in basis] for bi in basis],
    )


def _to_sympy(x):
    if isinstance(x, QuadScalar):
        return sympy.Rational(x.a) + sympy.Rational(x.b) * sympy.sqrt(-x.d)
    return sympy.Rational(x)


class TestKernelsAgainstOracles:
    @pytest.mark.parametrize(
        "n, field, seed",
        [(2, field, seed) for field in sorted(FIELDS) for seed in (0, 1, 2)] + [(3, "Q", 7)],
    )
    def test_trace_gram_matches_definition(self, n, field, seed):
        rng = random.Random(seed)
        table = generate_instance(n, FIELDS[field], 10, seed).table
        for k in (1, 3, table.m):
            basis = [
                AlgebraElement(table, [_random_scalar(table.field, rng) for _ in range(table.m)])
                for _ in range(k)
            ]
            assert trace_gram(table, basis) == _definitional_gram(table, basis)

    @pytest.mark.parametrize("field", sorted(FIELDS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_validate_matches_triple_oracle(self, field, seed):
        rng = random.Random(100 + seed)
        table = generate_instance(2, FIELDS[field], 10, seed).table
        m = table.m
        # denominators all over the table, so that clearing them matters
        table = _rescaled(table, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)])
        delta = _random_scalar(table.field, rng) + Fraction(1, 7)
        bad = _perturbed(table, rng.randrange(m), rng.randrange(m), rng.randrange(m), delta)
        pairs = _associativity_oracle(bad)
        assert pairs
        reported = [v for v in validate(bad) if v.startswith("associativity")]
        assert reported == [f"associativity fails on the pair (a_{i}, a_{j})" for i, j in pairs]
        assert _associativity_oracle(table) == []
        assert validate(table) == []

    @pytest.mark.parametrize("n, seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
    def test_trace_gram_det_over_q_matches_sympy(self, n, seed):
        rng = random.Random(200 + seed)
        table = generate_instance(n, QQ, 10, seed).table
        m = table.m
        # denominators all over the table, so that d^(2m) has to be divided out
        table = _rescaled(table, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)])
        bad = _perturbed(table, rng.randrange(m), rng.randrange(m), rng.randrange(m), Fraction(1, 7))
        zero = StructureConstants(QQ, [[[0] * m for _ in range(m)] for _ in range(m)])
        for t in (table, bad, zero, generate_instance(n, QQ, 0).table):
            units = [unit(t, j) for j in range(m)]
            gram = _definitional_gram(t, units)
            expected = sympy.Matrix([[_to_sympy(x) for x in row] for row in gram.entries]).det()
            assert t._trace_gram_det() == Fraction(int(expected.p), int(expected.q))
        # the trace form of M_n has signature (n(n+1)/2, n(n-1)/2)
        assert (generate_instance(n, QQ, 0).table._trace_gram_det() < 0) == (n * (n - 1) // 2 % 2 == 1)

    @pytest.mark.parametrize(
        "n, field, seed",
        [(2, "Q", 0), (2, "Q", 5), (3, "Q", 1), (3, "Q", 2), (2, "gauss", 3), (2, "eisenstein", 4)],
    )
    def test_discriminant_matches_sympy_determinant(self, n, field, seed):
        # over Q(i) and Q(sqrt(-3)) the initial order lives in the restriction
        inst = generate_instance(n, FIELDS[field], 10, seed)
        _assert_discriminant_matches_sympy(initial_order(inst.table), n)
        # the image of M_n(Z), or of M_n(O_K) as a K-order over Q(i) and Q(sqrt(-3))
        _assert_discriminant_matches_sympy(Order(inst.table, inst.base_change.inverse()), n)

    @pytest.mark.parametrize("n, field, seed", [(3, "Q", 8), (2, "gauss", 3), (2, "eisenstein", 4)])
    def test_maximal_order_discriminant_matches_sympy(self, n, field, seed):
        order = maximal_order(generate_instance(n, FIELDS[field], 10, seed).table)
        if order.table.field.is_rational:
            den, _, _, d = order._int
            # both factors of |det B| = d / den^m differ from 1
            assert den > 1 and d > 1
        _assert_discriminant_matches_sympy(order, n)

    def test_discriminant_of_a_non_maximal_k_order_matches_sympy(self):
        table = generate_instance(2, EISENSTEIN, 10, 7).table
        order = _restricted_to_k(table, initial_order(table))
        assert order.table is table and order.discriminant.norm() != 1
        _assert_discriminant_matches_sympy(order, 2)


def _assert_discriminant_matches_sympy(order, n):
    """det of the definitional trace Gram of the order basis, over n^m."""
    gram = _definitional_gram(order.table, order.elements())
    expected = sympy.Matrix(
        [[_to_sympy(x) for x in row] for row in gram.entries]
    ).det() / sympy.Integer(n) ** order.table.m
    assert sympy.simplify(_to_sympy(order.discriminant) - expected) == 0


def _sympy_field(field):
    """The field as a sympy domain, with a converter from matsplit scalars."""
    if field.is_rational:
        return sympy.QQ, lambda x: sympy.QQ(x.numerator, x.denominator)
    K = sympy.QQ.algebraic_field(sympy.sqrt(-field.d))
    root = K.from_sympy(sympy.sqrt(-field.d))
    return K, lambda x: K.convert(sympy.Rational(x.a)) + K.convert(sympy.Rational(x.b)) * root


def _identity_oracle(table):
    """Coordinates of the identity from sympy's rref of the stacked 2m^2 x m system.

    None when the system has no unique solution.
    """
    K, conv = _sympy_field(table.field)
    m, g = table.m, table.gamma
    rows = [[g[i][j][k] for i in range(m)] + [int(j == k)] for j in range(m) for k in range(m)]
    rows += [[g[j][i][k] for i in range(m)] + [int(j == k)] for j in range(m) for k in range(m)]
    entries = [[conv(table.field.coerce(x)) for x in r] for r in rows]
    rref, pivots = DomainMatrix(entries, (2 * m * m, m + 1), K).rref()
    if tuple(pivots) != tuple(range(m)):
        return None
    return [row[m] for row in rref.to_list()[:m]]


def _witness_oracle(table, images):
    """witness_problems by brute force on ExactMatrix products and sums."""
    n = table.n
    zero = ExactMatrix.zeros(table.field, n, n)

    def phi(coords):
        acc = zero
        for c, M in zip(coords, images):
            acc = acc + M.scaled(c)
        return acc

    pairs = tuple(
        (i, j)
        for i in range(table.m)
        for j in range(table.m)
        if images[i] @ images[j] != phi(table.gamma[i][j])
    )
    identity_fails = not pairs and phi(find_identity(table).coords) != ExactMatrix.identity(
        table.field, n
    )
    K, conv = _sympy_field(table.field)
    flat = [[conv(x) for row in M.entries for x in row] for M in images]
    not_injective = DomainMatrix(flat, (len(images), n * n), K).rank() < table.m
    return WitnessProblems(pairs, identity_fails, not_injective)


class TestIntegralIdentity:
    """_integral_identity, the identity's one integer form, against find_identity."""

    @pytest.mark.parametrize("n, field", [(2, "Q"), (3, "Q"), (2, "gauss"), (2, "eisenstein")])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_the_integral_identity_is_the_identity_cleared(self, n, field, seed):
        # find_identity lifts _integral_identity; over Q(i) and Q(sqrt(-3)) the
        # restriction is handed the same ints, which it would also solve for itself
        table = generate_instance(n, FIELDS[field], 10, seed).table
        tables = [table] if table.field.is_rational else [table, restricted_table(table)]
        for t in tables:
            assert t._integral_identity() == _integral(t.field, t.find_identity().coords)
        if len(tables) == 2:
            fresh = StructureConstants._of_ints(QQ, *tables[1]._integral_gamma())
            assert fresh._integral_identity() == table._integral_identity()

    @pytest.mark.parametrize("field", sorted(FIELDS))
    def test_without_an_identity_both_forms_raise(self, field):
        # a_i a_j = a_j: left identities only
        t = StructureConstants(FIELDS[field], [[[int(j == k) for k in range(4)] for j in range(4)]] * 4)
        for read in (t._integral_identity, t.find_identity):
            with pytest.raises(NoIdentityError):
                read()


class TestIdentityAndWitnessAgainstOracles:
    @pytest.mark.parametrize(
        "n, field, seed",
        [(2, "Q", 0), (2, "Q", 1), (3, "Q", 2), (2, "gauss", 3), (2, "eisenstein", 4)],
    )
    @pytest.mark.parametrize("perturb", [False, True])
    def test_find_identity_matches_sympy_solve(self, n, field, seed, perturb):
        rng = random.Random(200 + seed)
        table = generate_instance(n, FIELDS[field], 10, seed).table
        m = table.m
        table = _rescaled(table, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)])
        if perturb:
            delta = _random_scalar(table.field, rng) + Fraction(1, 7)
            table = _perturbed(table, rng.randrange(m), rng.randrange(m), rng.randrange(m), delta)
        expected = _identity_oracle(table)
        if expected is None:
            with pytest.raises(NoIdentityError):
                find_identity(table)
        else:
            _, conv = _sympy_field(table.field)
            assert [conv(x) for x in find_identity(table).coords] == expected
        assert expected is not None or perturb

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("field", sorted(FIELDS))
    def test_find_identity_on_scaled_matrix_units(self, n, field):
        # on the basis E_ab / 3 the first basis element is singular, so the
        # scan needs the equations of several a_j before it has m pivots
        table = _rescaled(matrix_units_table(n, FIELDS[field]), [Fraction(1, 3)] * n * n)
        _, conv = _sympy_field(table.field)
        assert [conv(x) for x in find_identity(table).coords] == _identity_oracle(table)

    @pytest.mark.parametrize(
        "n, field, seed", [(2, "Q", 5), (3, "Q", 6), (2, "gauss", 7), (2, "eisenstein", 8)]
    )
    def test_witness_problems_matches_brute_force(self, n, field, seed):
        rng = random.Random(300 + seed)
        inst = generate_instance(n, FIELDS[field], 10, seed)
        m = inst.table.m
        # the basis c_i a_i maps to c_i phi(a_i); denominators on both sides
        scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)]
        table = _rescaled(inst.table, scales)
        hidden = [
            inst.hidden_matrix(unit(inst.table, k).coords).scaled(c) for k, c in enumerate(scales)
        ]
        assert witness_problems(table, hidden) == _witness_oracle(table, hidden)
        assert witness_problems(table, hidden) == WitnessProblems((), False, False)
        for _ in range(3):
            k, r, c = rng.randrange(m), rng.randrange(n), rng.randrange(n)
            rows = [list(row) for row in hidden[k].entries]
            rows[r][c] = rows[r][c] + Fraction(1, 3)
            tampered = hidden[:k] + [ExactMatrix(table.field, rows)] + hidden[k + 1:]
            found = witness_problems(table, tampered)
            assert found.pairs
            assert found == _witness_oracle(table, tampered)
        zeros = [ExactMatrix.zeros(table.field, n, n)] * m
        assert witness_problems(table, zeros) == WitnessProblems((), True, True)
        assert _witness_oracle(table, zeros) == WitnessProblems((), True, True)

    @pytest.mark.parametrize("field", ["gauss", "eisenstein"])
    def test_an_omega_multiple_is_not_injective(self, field):
        # phi(a_1) = omega phi(a_0) is K-dependent, though the four images
        # stay independent over Q
        inst = generate_instance(2, FIELDS[field], 10, 9)
        table = inst.table
        images = [inst.hidden_matrix(unit(table, k).coords) for k in range(table.m)]
        images[1] = images[0].scaled(table.field.omega())
        found = witness_problems(table, images)
        assert found.not_injective
        assert found == _witness_oracle(table, images)

    def test_witness_problems_rejects_wrong_shapes(self, m2):
        good = [ExactMatrix.identity(QQ, 2)] * 4
        for bad in (good[:3], [ExactMatrix.identity(QQ, 1)] * 4, [ExactMatrix.identity(GAUSS, 2)] * 4):
            with pytest.raises(InputError):
                witness_problems(m2, bad)


def _oracle_violations(table):
    """validate's list, built from the brute-force oracles."""
    pairs = _associativity_oracle(table)
    return [f"associativity fails on the pair (a_{i}, a_{j})" for i, j in pairs] + (
        ["no two-sided identity element"] if _identity_oracle(table) is None else []
    )


@pytest.fixture
def slot_widths(monkeypatch):
    """Every slot width the packed kernels choose, in order."""
    widths = []
    slot_width = algebra._slot_width

    def spy(bound):
        widths.append(slot_width(bound))
        return widths[-1]

    monkeypatch.setattr(algebra, "_slot_width", spy)
    return widths


def _steps(W, scale):
    """Perturbations for a kernel at slot width W: +-1, +-2^k for k up to 300,
    and +-(2^(W-1) - 1) / scale, a full slot of the integer form."""
    full = Fraction(2 ** (W - 1) - 1, scale)
    return [1, -1, full, -full] + [s * 2**k for k in range(1, 301, 23) for s in (1, -1)]


class TestPackedKernelsAgainstOracles:
    """The packed pair kernels give the brute-force lists on tampered inputs,
    with entries from a unit up to a full slot, so a carry between slots shows."""

    @pytest.mark.parametrize(
        "n, field, seed", [(2, "Q", 11), (3, "Q", 12), (2, "gauss", 13), (2, "eisenstein", 14)]
    )
    def test_witness_problems_on_tampered_images(self, n, field, seed, slot_widths):
        rng = random.Random(900 + seed)
        inst = generate_instance(n, FIELDS[field], 10, seed)
        m, K = inst.table.m, FIELDS[field]
        scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)]
        table = _rescaled(inst.table, scales)
        hidden = [
            inst.hidden_matrix(unit(inst.table, k).coords).scaled(c) for k, c in enumerate(scales)
        ]
        assert witness_problems(table, hidden) == WitnessProblems((), False, False)
        D = algebra._integral(K, [x for M in hidden for row in M.entries for x in row])[1]
        steps = _steps(slot_widths[-1], D)
        units = [K.one()] if K.is_rational else [K.one(), K.omega(), K.one() + K.omega()]
        failing = 0
        for t in range(52):
            rows = [[list(row) for row in M.entries] for M in hidden]
            for s in range(rng.choice([1, 1, 2, 3])):
                delta = steps[t % len(steps)] if s == 0 else rng.choice(steps)
                k, r, c = rng.randrange(m), rng.randrange(n), rng.randrange(n)
                rows[k][r][c] = rows[k][r][c] + K.coerce(delta) * rng.choice(units)
            tampered = [ExactMatrix(K, M) for M in rows]
            found = witness_problems(table, tampered)
            assert found == _witness_oracle(table, tampered)
            failing += bool(found.pairs)
        assert failing >= 50

    @pytest.mark.parametrize("field", sorted(FIELDS))
    def test_validate_on_perturbed_tables(self, field, slot_widths):
        rng = random.Random(950 + len(field))
        K = FIELDS[field]
        units = [K.one()] if K.is_rational else [K.one(), K.omega()]
        perturbed = 0
        for t in range(82):
            table = generate_instance(2, K, 10, t % 12).table
            m = table.m
            if t % 3:
                scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)]
                table = _rescaled(table, scales)
            assert validate(table) == []
            if t % 9 == 0:
                assert _oracle_violations(table) == []
                continue
            steps = _steps(slot_widths[-1], table._integral_gamma()[1]) + [Fraction(1, 7)]
            for s in range(rng.choice([1, 1, 2])):
                delta = K.coerce(steps[t % len(steps)] if s == 0 else rng.choice(steps))
                i, j, k = rng.randrange(m), rng.randrange(m), rng.randrange(m)
                table = _perturbed(table, i, j, k, delta * rng.choice(units))
            assert validate(table) == _oracle_violations(table)
            perturbed += 1
        assert perturbed == 72

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pair_defects_at_the_slot_bound(self, n):
        # with every entry T, every coefficient -C and one sign, each defect
        # entry is exactly the bound the slot width is chosen for; 2^k - 1
        # and 2^k put the bound's bit length on every residue mod 8
        rng = random.Random(970 + n)
        m = n * n
        for k in range(1, 41):
            for T in (2**k - 1, 2**k):
                C, d, D = rng.randint(1, 5), rng.randint(1, 9), rng.randint(1, 9)
                P = [[T] * m for _ in range(m)]
                coeffs = [[[-C] * m for _ in range(m)] for _ in range(m)]
                expected = _scalar_defects(P, coeffs, d, D, n)
                assert {x for _, _, v in expected for x in v} == {d * n * T * T + D * m * C * T}
                assert _packed_defects(P, coeffs, d, D, n) == expected
                # the same sizes with mixed signs
                P = [[rng.choice((T, -T, 0)) for _ in range(m)] for _ in range(m)]
                coeffs = [[[rng.choice((C, -C, 0)) for _ in range(m)] for _ in range(m)]
                          for _ in range(m)]
                expected = _scalar_defects(P, coeffs, d, D, n)
                assert _packed_defects(P, coeffs, d, D, n) == expected

    def test_validate_on_constant_tables(self):
        # a_i a_j = g (a_1 + .. + a_4) is associative without an identity;
        # every coordinate of both sides is 4 g^2, half the bound 4 g^2 + g 4g
        # that _pair_defects chooses the slot width for
        for k in range(1, 41):
            g = 2**k - 1
            table = StructureConstants(QQ, [[[g] * 4] * 4] * 4)
            assert validate(table) == _oracle_violations(table) == ["no two-sided identity element"]
            bad = _perturbed(table, 1, 2, 3, -1)
            assert validate(bad) == _oracle_violations(bad)


def _packed_defects(P, coeffs, d, D, n):
    """Every (i, j, defect) of algebra._pair_defects, row by row."""
    row = algebra._pair_defects(P, coeffs, d, D, n)
    return [(i, j, x) for i in range(len(coeffs)) for j, x in row(i)]


def _scalar_defects(P, coeffs, d, D, n):
    """_packed_defects, one scalar product at a time."""
    out = []
    for i, ci in enumerate(coeffs):
        for j, cij in enumerate(ci):
            x = [
                d * sum(P[i][r * n + t] * P[j][t * n + c] for t in range(n))
                - D * sum(a * Pk[r * n + c] for a, Pk in zip(cij, P))
                for r in range(n)
                for c in range(n)
            ]
            if any(x):
                out.append((i, j, x))
    return out


@pytest.fixture
def scanned_rows(monkeypatch):
    """The rows the associativity scan visits, in order."""
    rows = []
    pair_defects = algebra._pair_defects

    def spy(*args):
        row = pair_defects(*args)

        def scanned(i):
            rows.append(i)
            return row(i)

        return scanned

    monkeypatch.setattr(algebra, "_pair_defects", spy)
    return rows


class TestValidateStopsEarly:
    """The scan stops once the rows that passed generate A; the lists never change."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("field", sorted(FIELDS))
    @pytest.mark.parametrize("where", ["last row", "last column"])
    def test_late_perturbation_matches_oracle(self, n, field, where, scanned_rows):
        rng = random.Random(700 + 10 * n + len(field))
        table = generate_instance(n, FIELDS[field], 10, 3).table
        m = table.m
        i, j = (m - 1, rng.randrange(m)) if where == "last row" else (rng.randrange(m), m - 1)
        bad = _perturbed(table, i, j, rng.randrange(m), _random_scalar(table.field, rng) + 1)
        expected = _oracle_violations(bad)
        assert any(v.startswith("associativity") for v in expected)
        assert validate(bad) == expected
        # a failing row proves that the nucleus is not A, so no set of rows
        # that passed generates A and the scan never stops early
        assert scanned_rows == list(range(m))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matrix_units_scan_past_rows_that_do_not_generate(self, n, scanned_rows):
        # E_11 .. E_1n and e span only the first row of M_n; the words reach
        # all of A with the row of E_n1, at index n(n-1)
        table = matrix_units_table(n)
        assert validate(table) == _oracle_violations(table) == []
        assert scanned_rows == list(range(n * (n - 1) + 1 if n > 1 else 0))

    @pytest.mark.parametrize("field", sorted(FIELDS))
    @pytest.mark.parametrize("a, b", [(1, 1), (-1, -1), (-1, -3), (2, 5)])
    def test_quaternion_fixtures_match_oracle(self, field, a, b):
        table = quaternion_table(a, b, FIELDS[field])
        assert validate(table) == _oracle_violations(table) == []
        bad = _perturbed(table, 3, 3, 0, Fraction(1, 2))
        assert validate(bad) == _oracle_violations(bad) != []

    def test_no_identity_scans_every_row(self, scanned_rows):
        # a_i a_j = a_j is associative, and every a_i is only a left identity
        table = StructureConstants(QQ, [[[int(j == k) for k in range(4)] for j in range(4)]] * 4)
        assert validate(table) == _oracle_violations(table) == ["no two-sided identity element"]
        assert scanned_rows == [0, 1, 2, 3]
        scanned_rows.clear()
        bad = _perturbed(table, 0, 1, 2, Fraction(1))
        assert validate(bad) == _oracle_violations(bad)
        assert scanned_rows == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_generated_tables_stop_before_the_last_row(self, seed, scanned_rows):
        table = generate_instance(3, QQ, 10, seed).table
        assert validate(table) == []
        assert scanned_rows == list(range(len(scanned_rows)))
        assert len(scanned_rows) < table.m


class TestWitnessAgainstSolves:
    @pytest.mark.parametrize(
        "n, field, seed",
        [(2, "Q", 1), (2, "Q", 2), (3, "Q", 3), (3, "Q", 4), (2, "gauss", 5), (2, "eisenstein", 6)],
    )
    def test_images_match_one_solve_per_column(self, n, field, seed):
        rng = random.Random(500 + seed)
        inst = generate_instance(n, FIELDS[field], 10, seed)
        # C maps to u v^T, a rank one matrix with no zero entry
        u = [_random_scalar(inst.field, rng) + 5 for _ in range(n)]
        v = [_random_scalar(inst.field, rng) + 5 for _ in range(n)]
        acoords = [a * b for a in u for b in v]
        C = inst.table.element(inst.base_change.inverse().mul_vector(acoords))
        w = build_isomorphism(inst.table, C)
        assert list(w.images) == _solved_images(inst.table, C)

    @pytest.mark.parametrize("field", sorted(FIELDS))
    def test_images_match_on_a_non_simple_algebra(self, field, monkeypatch):
        # K^4, e_i e_j = delta_ij e_i: the images are multiplicative but not
        # injective, so build_isomorphism raises after handing them to the check
        gamma = [[[int(i == j == k) for k in range(4)] for j in range(4)] for i in range(4)]
        table = StructureConstants(FIELDS[field], gamma)
        C = table.element([1, 1, 0, 0])
        checked, core = [], algebra._witness_problems

        def spy(table, flat, D):
            # the images whose (1, omega) coordinates are flat / D
            n, x = table.n, lift_coords(table.field, [Fraction(y, D) for y in flat])
            checked.append([ExactMatrix(table.field, [x[k + r * n:k + (r + 1) * n] for r in range(n)])
                            for k in range(0, len(x), n * n)])
            return core(table, flat, D)

        monkeypatch.setattr(algebra, "_witness_problems", spy)
        with pytest.raises(PromiseViolation, match="not injective"):
            build_isomorphism(table, C)
        assert checked == [_solved_images(table, C)]

    def test_non_associative_table_fails_the_witness_check(self, m2):
        table = _perturbed(m2, 0, 0, 0, Fraction(1, 3))
        with pytest.raises(InternalError, match="multiplicativity fails"):
            build_isomorphism(table, unit(table, 0))


def _solved_images(table, C):
    """phi(a_i) by one exact solve per column against the basis a_{p_t} C of A*C."""
    rmat = _right_regular(table, C.coords)
    pivots = rmat._echelon()[1]
    W = ExactMatrix.from_columns(table.field, [rmat.column(p) for p in pivots])
    lefts = [left_regular(table, unit(table, i).coords) for i in range(table.m)]
    return [
        ExactMatrix.from_columns(
            table.field, [W.solve(L.mul_vector(rmat.column(p))) for p in pivots]
        )
        for L in lefts
    ]
