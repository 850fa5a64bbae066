"""Fraction reference implementations of the lattice kernels.

The library runs the lattice layer on integers; these textbook versions
work on exact rationals instead and serve the tests as independent oracles.
Two more references decide lattice equality: sympy's rational matrices, and
the integer version with two Gauss-Jordan eliminations that the library's
single forward elimination replaced.
"""

import math
from fractions import Fraction

from sympy import Matrix, Rational

from matsplit.errors import InputError, InternalError
from matsplit.exactnum import QQ, ExactMatrix, int_gauss_jordan


def gram_schmidt(gram):
    """Exact GSO data (mu, D) from a Gram matrix; D are squared star norms."""
    k = len(gram)
    mu = [[Fraction(0)] * k for _ in range(k)]
    D = [Fraction(0)] * k
    for i in range(k):
        for j in range(i):
            s = gram[i][j]
            for l in range(j):
                s -= mu[i][l] * mu[j][l] * D[l]
            if D[j] == 0:
                raise InputError("dependent basis vectors")
            mu[i][j] = s / D[j]
        s = gram[i][i]
        for l in range(i):
            s -= mu[i][l] * mu[i][l] * D[l]
        D[i] = s
        if D[i] <= 0:
            raise InputError("Gram matrix is not positive definite")
    return mu, D


def certify_lll(basis, delta):
    """The LLL certificate on the Fraction GSO of the basis's Gram."""
    mu, D = gram_schmidt(basis.gram())
    for i in range(basis.rank):
        for j in range(i):
            if 2 * abs(mu[i][j]) > 1:
                raise InternalError("LLL output is not size-reduced")
    for i in range(1, basis.rank):
        if D[i] < (delta - mu[i][i - 1] ** 2) * D[i - 1]:
            raise InternalError("LLL output violates the Lovasz condition")


def short_vectors(gram, norm_bound):
    """Fincke-Pohst in Fraction arithmetic, sorted and signed like the library's."""
    k = len(gram)
    bound_sq = Fraction(norm_bound) ** 2
    mu, D = gram_schmidt(gram)
    results = []
    x = [0] * k

    def descend(level, remaining):
        c = sum((mu[l][level] * x[l] for l in range(level + 1, k)), Fraction(0))
        xi = math.floor(-c)
        # scan down from floor(-c), then up from floor(-c) + 1
        for first, step in ((xi, -1), (xi + 1, 1)):
            xi = first
            while D[level] * (xi + c) ** 2 <= remaining:
                x[level] = xi
                rest = remaining - D[level] * (xi + c) ** 2
                if level:
                    descend(level - 1, rest)
                elif any(x):
                    results.append((tuple(x), bound_sq - rest))
                xi += step
        x[level] = 0

    if k:
        descend(k - 1, bound_sq)
    out = [(c, n) for c, n in results if next(v for v in c if v) > 0]
    return sorted(out, key=lambda cv: (cv[1], cv[0]))


def lattice_equal(a, b):
    """A^-1 B is integral and unimodular, in Fraction arithmetic."""
    A = ExactMatrix.from_columns(QQ, [list(c) for c in a.columns])
    B = ExactMatrix.from_columns(QQ, [list(c) for c in b.columns])
    try:
        X = A.inverse() @ B
    except InputError:
        return False
    return all(x.denominator == 1 for row in X.entries for x in row) and abs(X.det()) == 1


def sympy_lattice_equal(a, b):
    """A^-1 B is integral and unimodular, in sympy's rational matrices."""
    A, B = ([[Rational(x.numerator, x.denominator) for x in col] for col in basis.columns]
            for basis in (a, b))
    # Matrix(rows) of the columns is the transpose; A^T^-1 B^T is (B A^-1)^T
    A, B = Matrix(A).T, Matrix(B).T
    if A.det() == 0:
        return False
    X = A.inv() * B
    return all(x.is_integer for x in X) and abs(X.det()) == 1


def two_elimination_lattice_equal(a, b):
    """lattice_equal as Gauss-Jordan of [A | B], then Gauss-Jordan of X = A^-1 B."""
    n = a.rank
    den = math.lcm(a._den, b._den)
    fa, fb = den // a._den, den // b._den
    # for a nonsingular A, [A | B] reduces to [d I | d A^-1 B] with d = det A
    red, pivots = int_gauss_jordan(
        [[fa * c[i] for c in a._ints] + [fb * c[i] for c in b._ints] for i in range(n)]
    )
    if pivots != list(range(n)):
        return False
    d = red[0][0]
    if any(x % d for row in red for x in row[n:]):
        return False
    X, pivots = int_gauss_jordan([[x // d for x in row[n:]] for row in red])
    return len(pivots) == n and abs(X[-1][-1]) == 1
