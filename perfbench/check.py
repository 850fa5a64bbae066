"""Correctness checks that share no code with matsplit.

They parse the program's JSON themselves and redo the algebra with their
own exact scalars and elimination, so a defect in the program's witness
checkers cannot hide a wrong answer from the benchmark.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, isqrt


class Quad:
    """a + b*sqrt(-d) with rational a and b."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d

    def __add__(self, o):
        return Quad(self.a + o.a, self.b + o.b, self.d)

    def __sub__(self, o):
        return Quad(self.a - o.a, self.b - o.b, self.d)

    def __mul__(self, o):
        return Quad(self.a * o.a - self.d * self.b * o.b, self.a * o.b + self.b * o.a, self.d)

    def __truediv__(self, o):
        den = o.a * o.a + self.d * o.b * o.b
        return self * Quad(o.a / den, -o.b / den, self.d)

    def __eq__(self, o):
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return bool(self.a or self.b)


class _Field:
    def __init__(self, obj):
        if obj == {"type": "Q"}:
            self.d = None
        elif obj.get("type") == "imag_quad" and obj.get("d") in (1, 3):
            self.d = obj["d"]
        else:
            raise ValueError(f"unknown field {obj!r}")

    def scalar(self, x):
        if self.d is None:
            if not isinstance(x, str):
                raise ValueError(f"rational scalar expected, got {x!r}")
            return Fraction(x)
        if isinstance(x, str):
            return Quad(Fraction(x), 0, self.d)
        return Quad(Fraction(x["a"]), Fraction(x["b"]), self.d)

    def const(self, c: int):
        return Fraction(c) if self.d is None else Quad(c, 0, self.d)


def _matmul(x, y, zero):
    cols = list(zip(*y))
    out = []
    for row in x:
        out_row = []
        for col in cols:
            acc = zero
            for a, b in zip(row, col):
                if a and b:
                    acc = acc + a * b
            out_row.append(acc)
        out.append(out_row)
    return out


def _combination(coeffs, mats, zero):
    n = len(mats[0])
    acc = [[zero] * n for _ in range(n)]
    for c, mat in zip(coeffs, mats):
        if c:
            acc = [[s + c * t for s, t in zip(ra, rm)] for ra, rm in zip(acc, mat)]
    return acc


def _echelon(rows):
    """Row echelon form in place; returns the pivot columns."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / piv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def _rank(mat) -> int:
    return len(_echelon([list(r) for r in mat]))


def _solve(columns, rhs, zero):
    """x with sum_j x_j columns[j] = rhs, or None when there is none."""
    k = len(columns)
    rows = [[col[i] for col in columns] + [rhs[i]] for i in range(len(rhs))]
    pivots = _echelon(rows)
    if k in pivots:
        return None
    x = [zero] * k
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        acc = rows[r][k]
        for j in range(c + 1, k):
            if rows[r][j]:
                acc = acc - rows[r][j] * x[j]
        x[c] = acc / rows[r][c]
    return x


def check_split(algebra_text: str, result: dict) -> list[str]:
    """Exact checks on a split result for the algebra given as JSON text.

    phi(a_i) phi(a_j) = sum_k gamma_ijk phi(a_k) for every basis pair,
    phi(1) = I, and the claimed rank-one element maps to a rank-one matrix.
    """
    given = json.loads(algebra_text)
    field = _Field(given["field"])
    zero = field.const(0)
    m = given["dim"]
    n = isqrt(m)
    if n * n != m or result.get("n") != n:
        return [f"result n = {result.get('n')} does not fit dimension {m}"]
    if result["algebra"]["gamma"] != given["gamma"]:
        return ["result carries another algebra than the input"]
    gamma = [[[field.scalar(x) for x in g_ij] for g_ij in g_i] for g_i in given["gamma"]]
    images = [[[field.scalar(x) for x in row] for row in M] for M in result["witness"]["images"]]
    if len(images) != m or any(len(M) != n or any(len(r) != n for r in M) for M in images):
        return [f"the witness needs {m} images of size {n}x{n}"]
    for i in range(m):
        for j in range(m):
            if _matmul(images[i], images[j], zero) != _combination(gamma[i][j], images, zero):
                return [f"phi(a_{i}) phi(a_{j}) differs from phi(a_{i} a_{j})"]
    # phi is multiplicative and A is simple, so phi(e) = I pins down e;
    # phi(1) = I holds exactly when that e is the identity of the table
    flat = [[x for row in M for x in row] for M in images]
    eye = [field.const(int(i == j)) for i in range(n) for j in range(n)]
    e = _solve(flat, eye, zero)
    if e is None:
        return ["I is not in the image of phi"]
    for j in range(m):
        for side in (lambda i: gamma[i][j], lambda i: gamma[j][i]):
            prod = [zero] * m
            for i in range(m):
                if e[i]:
                    prod = [p + e[i] * g for p, g in zip(prod, side(i))]
            if prod != [field.const(int(k == j)) for k in range(m)]:
                return ["phi(1) is not the identity matrix"]
    c = [field.scalar(x) for x in result["rank_one_element"]]
    if len(c) != m or _rank(_combination(c, images, zero)) != 1:
        return ["the rank-one element does not map to a rank-one matrix"]
    return []


def check_lattice(lattice_text: str, columns, vectors, bound: float) -> list[str]:
    """Exact checks on an LLL reduction and its short-vector listing.

    The reduced basis must be the input basis times an integral matrix of
    determinant +-1; every listed vector must have the stated exact norm,
    within the bound, with distinct +- classes listed in norm order.
    """
    given = json.loads(lattice_text)
    basis = [[Fraction(x) for x in col] for col in given["basis"]]
    k = len(basis)
    if len(columns) != k:
        return ["the reduced basis has another rank"]
    transform = []
    for col in columns:
        x = _solve(basis, list(col), Fraction(0))
        if x is None or any(v.denominator != 1 for v in x):
            return ["a reduced vector is not an integral combination of the input basis"]
        transform.append(x)
    rows = [list(r) for r in transform]
    pivots = _echelon(rows)
    det = Fraction(1)
    for r, c in enumerate(pivots):
        det *= rows[r][c]
    if len(pivots) != k or abs(det) != 1:
        return ["the basis change does not have determinant +-1"]
    scale = 1
    for col in columns:
        for x in col:
            scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [[int(x * scale) for x in col] for col in columns]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in ints] for u in ints]
    bound_sq = Fraction(bound) ** 2
    seen = set()
    last = Fraction(0)
    for coeffs, nsq in vectors:
        nz = [c for c in coeffs if c]
        if len(coeffs) != k or not nz or nz[0] < 0:
            return [f"vector {coeffs} is not a canonical nonzero class"]
        if coeffs in seen:
            return [f"class {coeffs} is listed twice"]
        seen.add(coeffs)
        exact = sum(
            coeffs[i] * sum(gram[i][j] * coeffs[j] for j in range(k) if coeffs[j])
            for i in range(k)
            if coeffs[i]
        )
        if Fraction(exact, scale * scale) != nsq:
            return [f"vector {coeffs} has norm {exact}/{scale * scale}, listed as {nsq}"]
        if nsq > bound_sq:
            return [f"vector {coeffs} exceeds the norm bound"]
        if nsq < last:
            return ["the listing is not in norm order"]
        last = nsq
    return []

