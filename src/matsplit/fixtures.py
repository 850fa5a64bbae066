"""Named fixtures: reference algebras, orders, matrices and lattices.

The Gaussian fixture is the endomorphism order of the module generated by
(1,0) and (1/sqrt 2, i/sqrt 2): entries (1+i)/2 [a b; c e] with a,b,c,e
integral, congruent to each other mod (1+i), and of even total sum.  Its
shortest vectors have Frobenius norm sqrt(2), the identity among them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .algebra import StructureConstants, _integral_rows, lift_coords, matrix_units_table, restrict_coords
from .errors import InputError
from .exactnum import QQ, ExactMatrix, Field, QuadScalar
from .lattice import LatticeBasis, dual_basis
from .orders import Order, _omega_triangular


def quaternion_table(a, b, field: Field = QQ) -> StructureConstants:
    """The quaternion algebra (a, b): i^2 = a, j^2 = b, ij = -ji = k."""
    one, zero = field.one(), field.zero()
    A, B = field.coerce(a), field.coerce(b)
    g = [[[zero] * 4 for _ in range(4)] for _ in range(4)]

    def put(i, j, k, c):
        g[i][j][k] = c

    for j in range(4):
        put(0, j, j, one)
    for i in range(1, 4):
        put(i, 0, i, one)
    put(1, 1, 0, A)
    put(2, 2, 0, B)
    put(3, 3, 0, -(A * B))
    put(1, 2, 3, one)
    put(2, 1, 3, -one)
    put(1, 3, 2, A)
    put(3, 1, 2, -A)
    put(2, 3, 1, -B)
    put(3, 2, 1, B)
    return StructureConstants(field, g)


@lru_cache(maxsize=1)
def gaussian_lambda_order() -> Order:
    """The Gaussian maximal order whose minimal vectors include the identity."""
    field = Field(1)
    table = matrix_units_table(2, field)
    one = field.one()
    i_unit = field.omega()  # sqrt(-1)
    two = field.coerce(2)
    one_plus_i = one + i_unit
    s = one_plus_i / two  # (1+i)/2

    def integral(x: QuadScalar) -> bool:
        return x.is_integral()

    # residues of O_K mod 2
    residues = [
        field.zero(),
        one,
        i_unit,
        one + i_unit,
    ]
    gens = []
    for k in range(4):
        gens.append(tuple(two if t == k else field.zero() for t in range(4)))
    for a in residues:
        for b in residues:
            for c in residues:
                for e in residues:
                    if not integral((a - b) / one_plus_i):
                        continue
                    if not integral((b - c) / one_plus_i):
                        continue
                    if not integral((c - e) / one_plus_i):
                        continue
                    if not integral((a + b + c + e) / two):
                        continue
                    gens.append((a, b, c, e))
    ints, _ = _integral_rows([restrict_coords(field, g) for g in gens])
    module_basis = [lift_coords(field, c) for c in _omega_triangular(ints, 4, 0)]
    cols = [[s * x for x in col] for col in module_basis]
    order = Order(table, ExactMatrix.from_columns(field, cols))
    if order.verify():
        raise InputError("gaussian fixture failed its order axioms")
    return order


@lru_cache(maxsize=1)
def eisenstein_m2_order() -> Order:
    """M_2 over the Eisenstein integers with its standard basis."""
    field = Field(3)
    table = matrix_units_table(2, field)
    return Order(table, ExactMatrix.identity(field, 4))


def d5_matrix() -> ExactMatrix:
    """[[3, 1+sqrt(-5)], [1-sqrt(-5), 2]]: determinant 0, matrix rank 1."""
    F5 = Field(5)
    return ExactMatrix(
        F5,
        [
            [QuadScalar(5, 3, 0), QuadScalar(5, 1, 1)],
            [QuadScalar(5, 1, -1), QuadScalar(5, 2, 0)],
        ],
    )


_A2_DENOMINATOR = 10**12


@lru_cache(maxsize=1)
def a2_basis() -> LatticeBasis:
    """Hexagonal lattice generators (1/2, sqrt3/2), (1, 0), rationalized."""
    D = _A2_DENOMINATOR
    # nint(sqrt(3) D / 2) = (isqrt(3 D^2) + 1) // 2, since sqrt(3) D is irrational
    half_sqrt3 = Fraction((math.isqrt(3 * D * D) + 1) // 2, D)
    return LatticeBasis([(Fraction(1, 2), half_sqrt3), (Fraction(1), Fraction(0))])


@lru_cache(maxsize=1)
def a2_dual_basis() -> LatticeBasis:
    return dual_basis(a2_basis())


@lru_cache(maxsize=1)
def z2_basis() -> LatticeBasis:
    return LatticeBasis([(1, 0), (0, 1)])


def standard_m2_table() -> StructureConstants:
    return matrix_units_table(2, QQ)


def standard_m3_table() -> StructureConstants:
    return matrix_units_table(3, QQ)


def gauss_m2_table() -> StructureConstants:
    return matrix_units_table(2, Field(1))


def eisenstein_m2_table() -> StructureConstants:
    return matrix_units_table(2, Field(3))


CATALOG = {
    "standard-M2": ("algebra", standard_m2_table),
    "standard-M3": ("algebra", standard_m3_table),
    "gauss-M2": ("algebra", gauss_m2_table),
    "eisenstein-M2": ("algebra", eisenstein_m2_table),
    "gaussian-lambda": ("order", gaussian_lambda_order),
    "eisenstein-M2-order": ("order", eisenstein_m2_order),
    "d5-matrix": ("matrix", d5_matrix),
    "A2": ("lattice", a2_basis),
    "A2-dual": ("lattice", a2_dual_basis),
    "Z2": ("lattice", z2_basis),
}


def fixture(name: str):
    """(kind, object) for a named fixture; raises InputError when unknown."""
    if name not in CATALOG:
        raise InputError(f"unknown fixture {name!r}; known: {', '.join(sorted(CATALOG))}")
    kind, builder = CATALOG[name]
    return kind, builder()
