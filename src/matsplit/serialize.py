"""JSON formats for algebras, orders, lattices and split results.

Rationals serialize as "p/q" strings (bare "p" when the denominator is 1);
quadratic scalars as {"a": "p/q", "b": "p/q"} with the field descriptor
carried once at top level.  Each document is read with one scalar reader,
so a scalar that occurs many times in it is parsed once.  A small
structural schema checker validates documents against the schema files
shipped with the package.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from importlib import resources
from typing import Any

from .algebra import (
    AlgebraElement,
    StructureConstants,
    ideal_rank,
    witness_problems,
)
from .errors import InputError
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


def _reader(field: Field):
    """scalar_from_json for one document, parsing each distinct leaf once.

    The memo is keyed on the leaf: a string, or the (a, b) strings of a
    quadratic scalar.  A first occurrence and every other kind of leaf go
    through scalar_from_json, so the values and the InputErrors are its own.
    """
    memo = {}

    def read(obj):
        if type(obj) is str:
            key = obj
        elif (type(obj) is dict and len(obj) == 2
              and type(obj.get("a")) is str and type(obj.get("b")) is str):
            key = obj["a"], obj["b"]
        else:
            return scalar_from_json(field, obj)
        value = memo.get(key)
        if value is None:
            value = memo[key] = scalar_from_json(field, obj)
        return value

    return read


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
    return {
        "field": field_to_json(table.field),
        "dim": table.m,
        "gamma": [
            [[scalar_to_json(table.gamma[i][j][k]) for k in range(table.m)]
             for j in range(table.m)]
            for i in range(table.m)
        ],
    }


def _gamma_level(obj, m: int) -> list:
    if not isinstance(obj, list) or len(obj) != m:
        raise InputError("gamma grid does not match the declared dimension")
    return obj


def _read_algebra(obj) -> tuple[StructureConstants, Any]:
    """The table of an algebra document, and the reader that parsed it."""
    field = field_from_json(_typed(obj, dict, "an algebra document").get("field"))
    m = obj.get("dim")
    if not isinstance(m, int) or isinstance(m, bool):
        raise InputError(f"algebra dim must be an integer, got {m!r}")
    read = _reader(field)
    # the m x m x m shape is checked level by level as the entries are read
    grid = [
        [list(map(read, _gamma_level(row, m))) for row in _gamma_level(plane, m)]
        for plane in _gamma_level(obj.get("gamma"), m)
    ]
    return StructureConstants(field, grid), read


def algebra_from_json(obj) -> StructureConstants:
    return _read_algebra(obj)[0]


def vector_to_json(vec) -> list:
    return [scalar_to_json(x) for x in vec]


def matrix_to_json(M: ExactMatrix) -> list:
    return [[scalar_to_json(x) for x in row] for row in M.entries]


def order_to_json(order: Order) -> dict:
    return {
        "field": field_to_json(order.table.field),
        "dim": order.table.m,
        "basis": [vector_to_json(order.basis_matrix.column(j)) for j in range(order.table.m)],
        "discriminant": scalar_to_json(order.discriminant),
    }


def order_from_json(table: StructureConstants, obj) -> Order:
    """An order of ``table`` from a document of order.schema.json's shape, else InputError.

    Only ``basis`` is required; a given ``field`` and ``dim`` must be the table's.
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
    read = _reader(table.field)
    return Order(table, ExactMatrix.from_columns(table.field, [tuple(map(read, c)) for c in basis]))


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
    den = math.lcm(*(q for col in cols for _, q in col))
    ints = [[p * (den // q) for p, q in col] for col in cols]
    return LatticeBasis._of_ints(*_lowest_terms(ints, den))


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
            "engine": stats.engine,
            # the box engine always prunes; the key keeps the result schema
            "dynamic_pruning": stats.engine == "box",
            "precision_bits": stats.precision_bits,
            "nodes_visited": stats.nodes_visited,
            "found_norm": stats.found_norm,
            "norm_bound": stats.norm_bound,
            "norm_bound_satisfied": stats.norm_bound_satisfied,
            "disc_trace": [str(x) for x in stats.disc_trace],
            "wall_time": stats.wall_time,
            "minimal_class_size": stats.minimal_class_size,
            "box_nodes_static": stats.box_nodes_static,
            "box_nodes_cm_flat": (
                str(stats.box_nodes_cm_flat)
                if stats.box_nodes_cm_flat is not None
                else None
            ),
        },
    }


def verify_result_json(obj) -> list[str]:
    """Re-run the exact checks on a serialized split result.

    Returns a list of failure descriptions; empty means the witness is valid.
    Raises InputError when a field it reads has the wrong type or shape.
    """
    problems = []
    # one reader for the whole document: the algebra, the basis, the element
    # and the images share their scalars
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
    for v in basis:
        tuple(map(read, v))
    coords = _typed(obj.get("rank_one_element"), list, "the rank one element")
    element = AlgebraElement(table, tuple(map(read, coords)))
    if ideal_rank(element, n) != 1:
        problems.append("claimed element does not have ideal rank one")
    images = [ExactMatrix(table.field, [list(map(read, _typed(row, list, "an image row")))
                                        for row in _typed(M, list, "an image")])
              for M in _typed(witness.get("images"), list, "the images")]
    if len(images) != table.m:
        problems.append("wrong number of image matrices")
        return problems
    found = witness_problems(table, images)
    if found.pairs:
        i, j = found.pairs[0]
        problems.append(f"multiplicativity fails at basis pair ({i}, {j})")
    elif found.identity_fails:
        problems.append("phi(1) is not the identity")
    if found.not_injective:
        problems.append("the images are linearly dependent, so phi is not injective")
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
