"""Test-side oracle for the split promise of quaternion algebras and their
tensor products, independent of the library.

Hilbert symbols follow Serre, *A Course in Arithmetic*, ch. III: at an odd
prime p through sympy's Legendre symbol, and the closed formulas at 2 and at
infinity.  A quaternion algebra (a, b) over Q ramifies at the places where
(a, b)_v = -1, and it splits over K = Q(i) or Q(sqrt(-3)) exactly when no
finite prime where it ramifies splits in K: the one infinite place of K is
complex, and at a prime that is inert or ramified in K the local degree is
2, which splits every local quaternion algebra.  Over Q, B (x) B' splits
exactly when B and B' ramify at the same places: a quaternion class has
order 2 in the Brauer group, so [B (x) B'] = [B] + [B'] vanishes exactly
when [B] = [B'], and a class of Br(Q) is fixed by its local invariants.
"""

from sympy import factorint, legendre_symbol

from matsplit.algebra import StructureConstants

INF = "inf"


def _split_off(x: int, p: int) -> tuple[int, int]:
    """(alpha, u) with x = p^alpha u and p not dividing u."""
    alpha = 0
    while x % p == 0:
        x //= p
        alpha += 1
    return alpha, x


def hilbert_symbol(a: int, b: int, p) -> int:
    """(a, b)_p for nonzero ints a, b at a prime p or at INF."""
    if p == INF:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _split_off(a, p)
    beta, v = _split_off(b, p)
    if p == 2:
        eps = lambda x: (x - 1) // 2 % 2  # noqa: E731
        omega = lambda x: (x * x - 1) // 8 % 2  # noqa: E731
        return (-1) ** ((eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)) % 2)
    sign = (-1) ** (alpha * beta * ((p - 1) // 2) % 2)
    return sign * legendre_symbol(u % p, p) ** beta * legendre_symbol(v % p, p) ** alpha


def ramification(a: int, b: int) -> frozenset:
    """The places of Q where (a, b) ramifies: INF and primes."""
    places = {2, INF} | set(factorint(abs(a))) | set(factorint(abs(b)))
    return frozenset(v for v in places if hilbert_symbol(a, b, v) == -1)


def splits_in(p: int, d: int) -> bool:
    """Whether the prime p splits in Z[i] (d = 1) or Z[omega] (d = 3)."""
    return p % 4 == 1 if d == 1 else p % 3 == 1


def quaternion_splits(a: int, b: int, d: int = 0) -> bool:
    """Whether (a, b) (x) K is M_2(K); d = 0 for Q, 1 for Q(i), 3 for Q(sqrt(-3))."""
    ramified = ramification(a, b)
    if d == 0:
        return not ramified
    return not any(v != INF and splits_in(v, d) for v in ramified)


def tensor_table(A: StructureConstants, B: StructureConstants) -> StructureConstants:
    """Structure constants of A (x) B on the basis a_i (x) b_j, index i m_B + j."""
    field, mA, mB = A.field, A.m, B.m
    zero = field.zero()
    gamma = [[[zero] * (mA * mB) for _ in range(mA * mB)] for _ in range(mA * mB)]
    for i in range(mA):
        for k in range(mA):
            for p, x in enumerate(A.gamma[i][k]):
                if x == 0:
                    continue
                for j in range(mB):
                    for l in range(mB):
                        for q, y in enumerate(B.gamma[j][l]):
                            if y != 0:
                                gamma[i * mB + j][k * mB + l][p * mB + q] = x * y
    return StructureConstants(field, gamma)
