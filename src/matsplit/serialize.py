"""JSON formats for algebras, orders, lattices and split results.

Rationals serialize as "p/q" strings (bare "p" when the denominator is 1);
quadratic scalars as {"a": "p/q", "b": "p/q"} with the field descriptor
carried once at top level.  Each document is read with one reader, so a
string that occurs many times in it is parsed once.  Structure constants,
order bases and a result's element and images are read straight into the
integer form the exact kernels use, (1, omega) coordinates over one common
denominator; the grammar and the InputErrors are scalar_from_json's.  A
small structural schema checker validates documents against the schema
files shipped with the package.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from importlib import resources
from operator import itemgetter
from typing import Any, Sequence

from .algebra import (
    StructureConstants,
    _check_witness_shape,
    _claim_problems,
    _omega_times,
    _restricted_gamma,
    _witness_problems,
)
from .errors import InputError, InternalError
from .exactnum import QQ, ExactMatrix, Field, QuadScalar
from .lattice import LatticeBasis, _lowest_terms
from .orders import Order


_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_to_str(x) -> str:
    f = x if type(x) is Fraction else Fraction(x)
    num, den = f.numerator, f.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def rational_from_str(s: str) -> Fraction:
    # "p" and "p/q" in ASCII digits, the form rational_to_str writes, parse with
    # int(); every other string goes through Fraction's own grammar
    plain = _PLAIN_RATIONAL.fullmatch(s) if isinstance(s, str) else None
    # Fraction("1e10000000") builds 10^(10^7), which takes seconds
    if plain is None and (not isinstance(s, str) or "e" in s.lower()):
        raise InputError(f"a rational must be a string without exponent, got {_shown(s)}")
    try:
        if plain is None:
            return Fraction(s)
        p, q = plain.groups()
        return Fraction(int(p), int(q)) if q else Fraction(int(p))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {_shown(s)}") from exc


def _ratio_from_str(s) -> tuple[int, int]:
    """(p, q) with q > 0 and p / q = rational_from_str(s), not always in lowest terms.

    A plain "p" or "p/q" is read with int() alone; every other leaf, and a
    plain one that int() refuses or whose q is 0, goes through
    rational_from_str, so the values and the InputErrors are its own.
    """
    plain = _PLAIN_RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if plain is not None:
        p, q = plain.groups()
        try:
            p, q = int(p), int(q or 1)
        except ValueError:
            # more digits than sys.get_int_max_str_digits(): rational_from_str raises
            pass
        else:
            if q:
                return p, q
    return rational_from_str(s).as_integer_ratio()


def _ratio_to_str(p: int, q: int) -> str:
    """rational_to_str(Fraction(p, q)) for q > 0, with one gcd."""
    g = math.gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def scalar_to_json(x):
    if isinstance(x, QuadScalar):
        return {"a": rational_to_str(x.a), "b": rational_to_str(x.b)}
    return rational_to_str(x)


def scalar_from_json(field: Field, obj):
    return field.coerce(_parse_scalar(field, obj))


def _parse_scalar(field: Field, obj):
    """A Fraction, or a QuadScalar of the field; not yet coerced into the field."""
    if isinstance(obj, str):
        return rational_from_str(obj)
    if isinstance(obj, dict) and "a" in obj and "b" in obj:
        if field.is_rational:
            raise InputError("quadratic scalar in a rational algebra")
        return QuadScalar(field.d, rational_from_str(obj["a"]), rational_from_str(obj["b"]))
    raise InputError(f"bad scalar {_shown(obj)}")


def _shown(obj) -> str:
    """repr(obj) for an error message, cut after 80 characters with its length."""
    text = repr(obj)
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} characters)"


def _typed(obj, kind: type, what: str):
    """obj when it is a ``kind`` (dict or list), else an InputError naming ``what``."""
    if not isinstance(obj, kind):
        json_type = "an object" if kind is dict else "an array"
        raise InputError(f"{what} must be {json_type}, got {_shown(obj)}")
    return obj


class _Memo(dict):
    """A dict that computes a missing value as fill(key) and keeps it."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Reader:
    """The scalar leaves of one document, each distinct string parsed once.

    scalar_from_json accepts a string leaf, and over Q(i) and Q(sqrt(-3))
    an object whose "a" and "b" are strings.  The reader parses those
    strings with _ratio_from_str into (p, q) pairs; ``coords`` gives the (1,
    omega) coordinates of scalar_from_json's value of each leaf as such
    pairs, (p, q) over Q, ((p_u, q_u), (p_v, q_v)) over Q(i) and
    Q(sqrt(-3)), for _common_ints to clear.  Every other leaf goes to
    scalar_from_json for its InputError.
    """

    def __init__(self, field: Field):
        self.field = field
        self._ratios = _Memo(_ratio_from_str)
        # keyed on a string leaf, or on the ("a", "b") strings of an object leaf;
        # over Q the coordinates of a leaf are its (p, q)
        self._coords = self._ratios if field.is_rational else _Memo(self._quad_coords)

    def coords(self, leaves: list) -> list:
        if set(map(type, leaves)) == _STRINGS:  # each string leaf is its own key
            return list(map(self._coords.__getitem__, leaves))
        return [self._coords[self._key(x)] for x in leaves]

    def _key(self, obj):
        if isinstance(obj, str):
            return obj
        if (isinstance(obj, dict) and not self.field.is_rational
                and isinstance(obj.get("a"), str) and isinstance(obj.get("b"), str)):
            return obj["a"], obj["b"]
        scalar_from_json(self.field, obj)
        raise InternalError(f"scalar_from_json accepted the leaf {_shown(obj)}")

    def _quad_coords(self, key) -> tuple:
        if isinstance(key, str):
            return self._ratios[key], (0, 1)
        (p, q), (r, s) = a, b = self._ratios[key[0]], self._ratios[key[1]]
        if self.field.has_half_integers:  # a + b sqrt(-3) = (a - b) + 2b omega
            return (p * s - r * q, q * s), (2 * r, s)
        return a, b


_STRINGS = {str}


def _common_ints(field: Field, vectors: Sequence[Sequence[tuple]]) -> tuple[list[list[int]], int]:
    """Vectors of ``coords`` leaves as ints u_1..u_k, v_1..v_k over one denominator, in lowest terms.

    That denominator is D, the lcm of the lowest-terms denominators of the
    coordinates.  The lcm of all the q is t D, the ints over it are t times
    those over D, and those have content 1 with D: a prime power l^k that
    exactly divides D exactly divides some lowest-terms denominator q, whose
    numerator times D / q is prime to l.  So dividing by the content leaves D.
    """
    if not field.is_rational:  # the u parts, then the v parts
        vectors = [[c[0] for c in v] + [c[1] for c in v] for v in vectors]
    den = math.lcm(*set().union(*(map(itemgetter(1), v) for v in vectors)))
    ints = [[p * (den // q) for p, q in v] for v in vectors]
    return _lowest_terms(ints, den)


def _vector_to_json(field: Field, w: Sequence[int], d: int) -> list:
    """vector_to_json of the K-vector with (1, omega) coordinates w / d, one gcd a rational."""
    if field.is_rational:
        return [_ratio_to_str(x, d) for x in w]
    k = len(w) // 2
    if field.has_half_integers:  # u + v omega = (2u + v)/2 + (v/2) sqrt(-3)
        return [{"a": _ratio_to_str(2 * u + v, 2 * d), "b": _ratio_to_str(v, 2 * d)}
                for u, v in zip(w[:k], w[k:])]
    return [{"a": _ratio_to_str(u, d), "b": _ratio_to_str(v, d)} for u, v in zip(w[:k], w[k:])]


def field_to_json(field: Field) -> dict:
    if field.is_rational:
        return {"type": "Q"}
    return {"type": "imag_quad", "d": field.d}


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError("field descriptor must be an object with a type")
    if obj["type"] == "Q":
        return QQ
    if obj["type"] == "imag_quad":
        d = obj.get("d")
        # only Q(i) and Q(sqrt(-3)) are supported; Field's square-free test
        # is trial division, so a huge d must not reach it
        if type(d) is not int or d not in (1, 3):
            raise InputError(f"an imag_quad field needs d = 1 or 3, got {d!r}")
        return Field(d)
    raise InputError(f"unknown field type {obj['type']!r}")


def algebra_to_json(table: StructureConstants) -> dict:
    G, d = table._integral_gamma()
    m, field = table.m, table.field
    # G[i][j] for i, j < m holds the (1, omega) coordinates of gamma_ij over d
    return {
        "field": field_to_json(field),
        "dim": m,
        "gamma": [[_vector_to_json(field, gij, d) for gij in gi[:m]] for gi in G[:m]],
    }


def _gamma_level(obj, m: int) -> list:
    if not isinstance(obj, list) or len(obj) != m:
        raise InputError("gamma grid does not match the declared dimension")
    return obj


def _read_algebra(obj) -> tuple[StructureConstants, _Reader]:
    """The table of an algebra document, and the reader that parsed it.

    The constants are read into the integer form (G, d) of _integral_gamma,
    d the lcm of their lowest-terms denominators.
    """
    field = field_from_json(_typed(obj, dict, "an algebra document").get("field"))
    m = obj.get("dim")
    if not isinstance(m, int) or isinstance(m, bool):
        raise InputError(f"algebra dim must be an integer, got {m!r}")
    read, leaves = _Reader(field), []
    # the m x m x m shape is checked level by level; at a bad level the
    # leaves before it are read first, so the first error is still the
    # first one in reading order
    try:
        for plane in _gamma_level(obj.get("gamma"), m):
            for row in _gamma_level(plane, m):
                leaves += _gamma_level(row, m)
    except InputError:
        read.coords(leaves)
        raise
    if m == 0:
        raise InputError("an algebra needs at least one basis element")
    (flat,), d = _common_ints(field, [read.coords(leaves)])
    return StructureConstants._of_ints(field, _restricted_gamma(field, m, flat), d), read


def algebra_from_json(obj) -> StructureConstants:
    return _read_algebra(obj)[0]


def vector_to_json(vec) -> list:
    return [scalar_to_json(x) for x in vec]


def matrix_to_json(M: ExactMatrix) -> list:
    return [[scalar_to_json(x) for x in row] for row in M.entries]


def order_to_json(order: Order) -> dict:
    den, C, _, _ = order._int
    field, m = order.table.field, order.table.m
    return {
        "field": field_to_json(field),
        "dim": m,
        # the first m integer columns are den b_1..den b_m
        "basis": [_vector_to_json(field, c, den) for c in C[:m]],
        "discriminant": scalar_to_json(order.discriminant),
    }


def order_from_json(table: StructureConstants, obj) -> Order:
    """An order of ``table`` from a document of order.schema.json's shape, else InputError.

    Only ``basis`` is required; a given ``field`` and ``dim`` must be the table's.
    _common_ints reads the columns as ints C over D, the lcm of the
    lowest-terms denominators of their coordinates, and (D, C) has content
    1; Order.__init__ clears the same coordinates with the same D.  Over
    Q(i) and Q(sqrt(-3)) both then add the omega multiples of the columns,
    integer combinations of them, which keep that lcm and that content.  So
    Order._reduced divides by 1 and gives the (den, C) of Order.__init__.
    """
    problems = check_schema(obj, {**_shipped_schema("order"), "required": ["basis"]})
    if problems:
        raise InputError(f"bad order document: {problems[0]}")
    if "field" in obj and field_from_json(obj["field"]) != table.field:
        raise InputError("the order's field differs from its algebra's")
    m, basis = table.m, obj["basis"]
    # the schema has made basis a list of lists
    if obj.get("dim", m) != m or len(basis) != m or any(len(c) != m for c in basis):
        raise InputError(f"an order basis needs {m} columns of {m} scalars")
    field = table.field
    read = _Reader(field)
    C, den = _common_ints(field, [read.coords(c) for c in basis])
    if not field.is_rational:
        C += [_omega_times(c, int(field.has_half_integers)) for c in C]
    return Order._reduced(table, den, C)


def lattice_to_json(basis: LatticeBasis) -> dict:
    return {
        "dim": basis.ambient_dim,
        "basis": [[rational_to_str(x) for x in col] for col in basis.columns],
    }


def lattice_from_json(obj) -> LatticeBasis:
    """The basis of a lattice document, read as ints over the lcm of the leaves' denominators.

    Each leaf has rational_from_str's grammar and InputErrors.
    """
    dim, basis = _typed(obj, dict, "a lattice document").get("dim"), obj.get("basis")
    if type(dim) is not int:
        raise InputError(f"lattice dim must be an integer, got {dim!r}")
    if not isinstance(basis, list) or not all(isinstance(col, list) for col in basis):
        raise InputError("a lattice basis must be a list of vectors")
    cols = [[_ratio_from_str(x) for x in col] for col in basis]
    if any(len(c) != dim for c in cols):
        raise InputError("basis vectors do not match the declared dimension")
    if not cols:
        raise InputError("empty basis")
    return LatticeBasis._of_ints(*_common_ints(QQ, cols))


def result_to_json(result, table: StructureConstants) -> dict:
    stats = result.stats
    return {
        "field": field_to_json(table.field),
        "n": table.n,
        "algebra": algebra_to_json(table),
        "rank_one_element": vector_to_json(result.rank_one_element.coords),
        "witness": {
            "left_ideal_basis": [
                vector_to_json(el.coords) for el in result.witness.left_ideal_basis
            ],
            "images": [matrix_to_json(M) for M in result.witness.images],
        },
        "stats": {
            "precision_bits": stats.precision_bits,
            "nodes_visited": stats.nodes_visited,
            "found_norm": stats.found_norm,
            "norm_bound": stats.norm_bound,
            "disc_trace": [str(x) for x in stats.disc_trace],
            "wall_time": stats.wall_time,
            "minimal_class_size": stats.minimal_class_size,
        },
    }


def verify_result_json(obj) -> list[str]:
    """Re-run the exact checks on a serialized split result.

    The images must make an isomorphism phi (_witness_problems); then the
    left ideal basis and the rank one element must be what phi says they
    are (_claim_problems).  Returns a list of failure descriptions; empty
    means the document is a valid certificate.
    Raises InputError when a field it reads has the wrong type or shape.
    """
    problems = []
    # one reader for the whole document: the algebra, the basis, the element
    # and the images share their parsed strings
    table, read = _read_algebra(_typed(obj, dict, "a result document").get("algebra"))
    if field_from_json(obj.get("field")) != table.field:
        raise InputError("the result's field differs from its algebra's")
    n = table.n
    if obj.get("n") != n:
        raise InputError(f"the result's n = {obj.get('n')!r} differs from its algebra's n = {n}")
    witness = _typed(obj.get("witness"), dict, "the witness")
    basis = _typed(witness.get("left_ideal_basis"), list, "the left ideal basis")
    if len(basis) != n or any(not isinstance(v, list) or len(v) != table.m for v in basis):
        raise InputError(f"the left ideal basis must hold {n} vectors of length {table.m}")
    field, m = table.field, table.m
    basis, _ = _common_ints(field, [read.coords(v) for v in basis])
    element = read.coords(_typed(obj.get("rank_one_element"), list, "the rank one element"))
    if len(element) != m:
        raise InputError("coordinate length mismatch")
    images = []  # the coords of each image's rows
    for M in _typed(witness.get("images"), list, "the images"):
        rows = [read.coords(_typed(row, list, "an image row")) for row in _typed(M, list, "an image")]
        if any(len(r) != len(rows[0]) for r in rows):
            raise InputError("ragged matrix rows")
        images.append(rows)
    if len(images) != m:
        problems.append("wrong number of image matrices")
        return problems
    _check_witness_shape(table, [(field, len(M), len(M[0]) if M else 0) for M in images])
    (flat,), D = _common_ints(field, [[x for M in images for row in M for x in row]])
    found = _witness_problems(table, flat, D)
    if found.pairs:
        i, j = found.pairs[0]
        problems.append(f"multiplicativity fails at basis pair ({i}, {j})")
    elif found.identity_fails:
        problems.append("phi(1) is not the identity")
    if found.not_injective:
        problems.append("the images are linearly dependent, so phi is not injective")
    elif not found.pairs:
        problems += _claim_problems(table, flat, basis, _common_ints(field, [element])[0][0])
    return problems


# -- structural schema checking ----------------------------------------------


_SCHEMAS: dict[str, dict] = {}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _shipped_schema(name: str) -> dict:
    """A shipped schema, read and parsed once per process; never handed to callers."""
    schema = _SCHEMAS.get(name)
    if schema is None:
        text = resources.files("matsplit").joinpath(f"schemas/{name}.schema.json").read_text()
        schema = _SCHEMAS[name] = json.loads(text)
    return schema


def load_schema(name: str) -> dict:
    """The shipped schema ``name`` as a new dict, which the caller may change."""
    return json.loads(json.dumps(_shipped_schema(name)))


def check_schema(obj: Any, schema: dict, path: str = "$") -> list[str]:
    """Minimal structural validation: type, required, properties, items, enum.

    A ``$ref`` names another shipped schema, optionally with a JSON pointer
    into it, as in "algebra.schema.json#/properties/field".
    """
    if "$ref" in schema:
        name, _, pointer = schema["$ref"].partition("#")
        schema = _shipped_schema(name.removesuffix(".schema.json"))
        for key in filter(None, pointer.split("/")):
            schema = schema[key]
    errors = []
    t = schema.get("type")
    if t:
        types = t if isinstance(t, list) else [t]
        if not any(_TYPE_CHECKS[tt](obj) for tt in types):
            errors.append(f"{path}: expected {t}, got {type(obj).__name__}")
            return errors
    if "enum" in schema and obj not in schema["enum"]:
        errors.append(f"{path}: {obj!r} not in enum")
    if isinstance(obj, dict):
        for key in schema.get("required", []):
            if key not in obj:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                errors.extend(check_schema(obj[key], sub, f"{path}.{key}"))
    if isinstance(obj, list) and "items" in schema:
        for i, item in enumerate(obj):
            errors.extend(check_schema(item, schema["items"], f"{path}[{i}]"))
    return errors
