"""The JSON boundary: the per-document scalar reader, schemas, lattices, outputs.

The reader, and algebra_from_json, which reads the constants straight into
ints, must give the value, or the InputError, that scalar_from_json gives;
lattice_from_json must turn any JSON value into a basis or an InputError;
load_schema must hand out copies; and the serialized outputs of a fixed
split corpus must stay byte for byte what they are.
"""

import copy
import hashlib
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matsplit import algebra, serialize
from matsplit.algebra import StructureConstants, WitnessProblems, lift_coords, witness_problems
from matsplit.errors import InputError
from matsplit.exactnum import EISENSTEIN, GAUSS, QQ, ExactMatrix, QuadScalar
from matsplit.lattice import LatticeBasis
from matsplit.orders import Order, maximal_order
from matsplit.serialize import (
    _Reader,
    algebra_from_json,
    algebra_to_json,
    check_schema,
    field_from_json,
    field_to_json,
    lattice_from_json,
    load_schema,
    rational_from_str,
    matrix_to_json,
    order_from_json,
    order_to_json,
    result_to_json,
    scalar_from_json,
    scalar_to_json,
    vector_to_json,
    verify_result_json,
)
from matsplit.splitter import SplitConfig, generate_instance, split

FIELDS = [QQ, GAUSS, EISENSTEIN]


def _outcome(parse, leaf):
    """What parsing a leaf gives: its value with its type, or the InputError."""
    try:
        value = parse(leaf)
    except InputError as exc:
        return "error", str(exc)
    return "value", type(value), value


def _read_one(field):
    """A reader for one document, taking one leaf at a time: its coordinates, lifted."""
    reader = _Reader(field)

    def read(x):
        (c,) = reader.coords([x])
        return lift_coords(field, [Fraction(*c)] if field.is_rational else [Fraction(*r) for r in c])[0]

    return read


def _assert_reader_agrees(field, leaf):
    expected = _outcome(lambda x: scalar_from_json(field, x), leaf)
    read = _read_one(field)
    # a first occurrence, a repeat, and a repeat after other leaves were read
    assert _outcome(read, leaf) == expected
    assert _outcome(read, leaf) == expected
    for other in ("1", "0", "-1/2", {"a": "1", "b": "0"}, {"a": "0", "b": "1"}):
        _outcome(read, other)
    assert _outcome(read, leaf) == expected
    _assert_documents_agree(field, leaf, expected)


def _document(field, dim, leaves):
    """An algebra document of dimension dim: the given {(i, j, k): leaf} constants, else "0"."""
    gamma = [[[leaves.get((i, j, k), "0") for k in range(dim)] for j in range(dim)]
             for i in range(dim)]
    return {"field": field_to_json(field), "dim": dim, "gamma": gamma}


def _assert_documents_agree(field, leaf, expected):
    """algebra_from_json reads the leaf as the constant of a dim-1 document and as
    gamma_123 of a dim-4 one, as scalar_from_json does; a bad constant read after
    it does not hide the leaf's own InputError."""
    def constant(dim, at):
        return lambda x: algebra_from_json(_document(field, dim, {at: x})).gamma[at[0]][at[1]][at[2]]

    assert _outcome(constant(1, (0, 0, 0)), leaf) == expected
    assert _outcome(constant(4, (1, 2, 3)), leaf) == expected
    later = _outcome(lambda x: algebra_from_json(_document(field, 4, {(1, 2, 3): x, (3, 3, 3): "x"})),
                     leaf)
    assert later == (expected if expected[0] == "error" else ("error", "bad rational literal 'x'"))


LENIENT = [
    pytest.param(
        "1_0", 10,
        marks=pytest.mark.skipif(sys.version_info < (3, 11),
                                 reason="Fraction reads digit separators from Python 3.11 on"),
    ),
    ("٣", 3),  # ARABIC-INDIC DIGIT THREE
    (" 3", 3),
    ("+3", 3),
    ("-0", 0),
    ("007", 7),
    ("2/4", Fraction(1, 2)),
]
REJECTED = ["1/0", "3/-1", "1e5", "1" * 5000, "x", "", "1/2/3"]
ODD_LEAVES = [
    {"a": ["1"], "b": "0"},
    {"a": "1", "b": ["0"]},
    {"a": "1", "b": "2", "c": "3"},
    {"a": "1", "b": "2", "c": ["x"]},
    {"a": 1, "b": "2"},
    {"a": "1"},
    {"a": "1", "b": "2"},
    {"a": "1/0", "b": "2"},
    None, True, 1, 1.5, [], ["1"], {},
]


class TestReaderOracle:
    """_Reader(field) and algebra_from_json against scalar_from_json, leaf by leaf."""

    @pytest.mark.parametrize("text,value", LENIENT)
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_lenient_forms_parse(self, field, text, value):
        _assert_reader_agrees(field, text)
        assert _read_one(field)(text) == field.coerce(Fraction(value))

    @pytest.mark.parametrize("text", REJECTED, ids=lambda t: t[:12])
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_rejected_forms_raise(self, field, text):
        _assert_reader_agrees(field, text)
        with pytest.raises(InputError):
            _read_one(field)(text)

    @pytest.mark.parametrize("leaf", ODD_LEAVES, ids=repr)
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_odd_leaves(self, field, leaf):
        _assert_reader_agrees(field, leaf)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        field=st.sampled_from(FIELDS),
        text=st.text(alphabet="0123456789/-+ _e.٣\t", max_size=10),
    )
    @example(field=QQ, text="٣/4")
    def test_strings(self, field, text):
        _assert_reader_agrees(field, text)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        field=st.sampled_from(FIELDS),
        leaf=st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.one_of(st.text(alphabet="0123/-", max_size=4), st.integers(), st.none(),
                      st.lists(st.just("1"), max_size=2)),
        ),
    )
    def test_quadratic_dicts(self, field, leaf):
        _assert_reader_agrees(field, leaf)

    def test_the_field_decides_the_type(self):
        doc = {"field": {"type": "Q"}, "dim": 1, "gamma": [[["3"]]]}
        (x,) = algebra_from_json(doc).gamma[0][0]
        assert type(x) is Fraction and x == 3
        doc["field"] = {"type": "imag_quad", "d": 1}
        (y,) = algebra_from_json(doc).gamma[0][0]
        assert type(y) is QuadScalar and y.d == 1 and (y.a, y.b) == (3, 0)

    def test_one_reader_per_document(self, monkeypatch):
        doc = algebra_to_json(generate_instance(2, "Q", 0).table)  # the matrix units
        calls = _count_parses(monkeypatch)
        first = algebra_from_json(doc)
        once = list(calls)
        # within a document each distinct leaf is parsed once: "0" and "1"
        assert sorted(once) == ["0", "1"]
        # across documents nothing is shared: the second one is parsed anew
        second = algebra_from_json(doc)
        assert calls == once + once
        assert first == second and first is not second

    @pytest.mark.parametrize("name", ["Q", "gauss"])
    def test_verify_parses_each_distinct_leaf_once(self, monkeypatch, name):
        inst = generate_instance(2, name, 10, seed=1)
        doc = json.loads(json.dumps(result_to_json(split(inst.table, SplitConfig(seed=1)), inst.table)))
        leaves = [*_leaves(doc["algebra"]["gamma"]), *_leaves(doc["rank_one_element"]),
                  *_leaves(doc["witness"]["left_ideal_basis"]), *_leaves(doc["witness"]["images"])]
        # the strings of the leaves: a rational, or the "a" and "b" of a quadratic scalar
        strings = [s for x in leaves for s in ([x] if isinstance(x, str) else [x["a"], x["b"]])]
        calls = _count_parses(monkeypatch)
        assert verify_result_json(doc) == []
        # the constants, the element, the basis and the images share one reader
        assert sorted(calls) == sorted(set(strings))
        assert len(calls) < len(strings)
        if name == "Q":
            assert len(calls) == len(set(leaves)) < len(leaves)


def _count_parses(monkeypatch) -> list:
    """The leaves handed to _ratio_from_str and _parse_scalar from now on, in one list."""
    calls = []
    ratio, parse = serialize._ratio_from_str, serialize._parse_scalar

    def counting_ratio(s):
        calls.append(s)
        return ratio(s)

    def counting_parse(field, obj):
        calls.append(obj)
        return parse(field, obj)

    monkeypatch.setattr(serialize, "_ratio_from_str", counting_ratio)
    monkeypatch.setattr(serialize, "_parse_scalar", counting_parse)
    return calls


def _non_canonical(obj):
    """The leaves with each integer k != 0 written "2k/2" and each 0 as "-0"."""
    if isinstance(obj, list):
        return [_non_canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {key: _non_canonical(x) for key, x in obj.items()}
    return obj if "/" in obj else ("-0" if int(obj) == 0 else f"{2 * int(obj)}/2")


def _fraction_table(doc):
    """algebra_from_json's reading order with scalar_from_json per leaf and the public constructor."""
    field, m, level = field_from_json(doc["field"]), doc["dim"], serialize._gamma_level
    return StructureConstants(field, [[[scalar_from_json(field, x) for x in level(row, m)]
                                       for row in level(plane, m)]
                                      for plane in level(doc["gamma"], m)])


def _fraction_to_json(table):
    """algebra_to_json by way of the grid of field scalars and scalar_to_json."""
    return {"field": field_to_json(table.field), "dim": table.m,
            "gamma": [[[scalar_to_json(x) for x in row] for row in plane] for plane in table.gamma]}


def _table_outcome(read, doc):
    """The table a reader gives, as the document it writes, or its InputError."""
    try:
        table = read(doc)
    except InputError as exc:
        return "error", str(exc)
    return "table", algebra_to_json(table)


GAMMA_LEAVES = st.sampled_from(["0", "1", "-1/2", "2/4", "-0", "x", "1/0", {"a": "1", "b": "-2/3"},
                                {"a": "x", "b": "0"}, {"a": "1", "b": 2}, None, {}, ["1"]])


@st.composite
def _algebra_documents(draw):
    m = draw(st.integers(1, 2))

    def level(inner):
        # mostly the right length; sometimes a wrong one, or a leaf where a list belongs
        shapes = [st.lists(inner, min_size=m, max_size=m), st.lists(inner, max_size=m + 1), GAMMA_LEAVES]
        return st.integers(0, 19).flatmap(lambda k: shapes[max(k - 17, 0)])

    field = draw(st.sampled_from(FIELDS))
    return {"field": field_to_json(field), "dim": m, "gamma": draw(level(level(level(GAMMA_LEAVES))))}


ALGEBRAS = [(name, n, seed) for name, n in (("Q", 2), ("Q", 3), ("gauss", 2), ("eisenstein", 2))
            for seed in (1, 2, 3)]


class TestAlgebraDocuments:
    """algebra_from_json and algebra_to_json on ints against the Fraction route."""

    @pytest.mark.parametrize("name,n,seed", ALGEBRAS)
    def test_the_int_route_writes_what_the_fraction_route_writes(self, name, n, seed):
        doc = json.loads(json.dumps(algebra_to_json(generate_instance(n, name, 10, seed=seed).table)))
        nc = {**doc, "gamma": _non_canonical(doc["gamma"])}
        assert nc != doc
        for d in (doc, nc):
            assert algebra_to_json(algebra_from_json(d)) == _fraction_to_json(_fraction_table(d)) == doc
        assert algebra_from_json(nc) == algebra_from_json(doc)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(doc=_algebra_documents())
    def test_any_grid_reads_as_the_fraction_route_reads_it(self, doc):
        # the same table, or the same first InputError in reading order
        assert _table_outcome(algebra_from_json, doc) == _table_outcome(_fraction_table, doc)

    @pytest.mark.parametrize("name,n,seed", ALGEBRAS[::3])
    def test_equal_tables_compare_on_ints(self, name, n, seed):
        doc = json.loads(json.dumps(algebra_to_json(generate_instance(n, name, 10, seed=seed).table)))
        built, parsed = _fraction_table(doc), algebra_from_json(doc)
        assert parsed == built and built == parsed
        # the comparison builds no grid of field scalars
        assert "gamma" not in vars(parsed)
        changed = copy.deepcopy(doc)
        x = changed["gamma"][0][1][2]
        changed["gamma"][0][1][2] = (str(Fraction(x) + 1) if isinstance(x, str)
                                     else {**x, "b": str(Fraction(x["b"]) + 1)})
        other = algebra_from_json(changed)
        assert other != built and built != other
        assert other != parsed and parsed != other


GRID = [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]]


@pytest.mark.parametrize(
    "gamma",
    [
        None,
        "x",
        GRID[:1],
        GRID + GRID[:1],
        [GRID[0], GRID[1][:1]],
        [GRID[0], [GRID[1][0], "01"]],
        [GRID[0], [GRID[1][0], ["0", "1", "2"]]],
        [GRID[0], [GRID[1][0], {"0": "1", "1": "0"}]],
    ],
    ids=["null", "string", "one_plane", "three_planes", "short_plane", "string_row",
         "long_row", "object_row"],
)
def test_a_gamma_of_the_wrong_shape_is_named(gamma):
    with pytest.raises(InputError, match="gamma grid does not match the declared dimension"):
        algebra_from_json({"field": {"type": "Q"}, "dim": 2, "gamma": gamma})


@pytest.mark.parametrize(
    "gamma, message",
    [
        ([[["x", "0"], ["0", "1"]], [["0", "1"], ["1"]]], "bad rational literal 'x'"),
        ([[["1", "0"], ["0", "1"]], [["0", "x"], ["1"]]], "bad rational literal 'x'"),
        ([[["1", "0"], ["0"]], [["x", "1"], ["1", "0"]]], "gamma grid does not match"),
        ([[["1", "0"], ["0", "1"]], [["0", "1"], ["x", "1"]], []], "gamma grid does not match"),
        ([[["1", {}], ["0", "1"]], "x"], "bad scalar"),
    ],
    ids=["leaf, then short row", "leaf in the plane of the short row", "short row, then leaf",
         "leaf, then third plane", "odd leaf, then string plane"],
)
def test_the_first_error_in_reading_order_is_raised(gamma, message):
    # a leaf is read after the shape of its row and before the rows that follow it;
    # a plane's shape is checked before its rows, and the grid's before its planes
    with pytest.raises(InputError, match=message):
        algebra_from_json({"field": {"type": "Q"}, "dim": 2, "gamma": gamma})


@pytest.mark.parametrize(
    "leaf, message",
    [
        ("1" * 5000, "bad rational literal"),
        ("x" * 5000, "bad rational literal"),
        ("1e" + "1" * 5000, "without exponent"),
        (["1"] * 3000, "bad scalar"),
    ],
    ids=["digits", "letters", "exponent", "list"],
)
def test_a_long_bad_literal_is_cut_in_the_message(leaf, message):
    with pytest.raises(InputError, match=message) as info:
        scalar_from_json(QQ, leaf)
    text = str(info.value)
    assert len(text) < 160 and text.endswith(f"... ({len(repr(leaf))} characters)")
    # a short literal is shown whole
    with pytest.raises(InputError, match="^bad rational literal 'x'$"):
        scalar_from_json(QQ, "x")


def _leaves(obj):
    if isinstance(obj, list):
        for x in obj:
            yield from _leaves(x)
    else:
        yield obj


class TestSchemas:
    def test_load_schema_hands_out_a_copy(self):
        pristine = load_schema("lattice")
        mutated = load_schema("lattice")
        mutated["properties"]["dim"]["type"] = "string"
        mutated["required"].append("extra")
        assert load_schema("lattice") == pristine
        assert check_schema({"dim": 2, "basis": [["1", "0"]]}, load_schema("lattice")) == []

    def test_a_changed_copy_leaves_refs_and_orders_alone(self):
        inst = generate_instance(2, "Q", 10, seed=1)
        doc = json.loads(json.dumps(result_to_json(split(inst.table, SplitConfig(seed=1)), inst.table)))
        algebra = load_schema("algebra")
        algebra["properties"]["field"]["type"] = "string"
        algebra["required"].append("extra")
        order = load_schema("order")
        order["properties"]["basis"]["type"] = "string"
        # result.schema.json refers to algebra.schema.json twice
        assert check_schema(doc, load_schema("result")) == []
        with pytest.raises(InputError, match="missing required key 'basis'"):
            order_from_json(inst.table, {})
        assert order_from_json(inst.table, order_to_json(maximal_order(inst.table)))

    def test_documents_with_the_box_statistics_still_verify(self):
        from click.testing import CliRunner

        from matsplit.cli import main

        inst = generate_instance(2, "Q", 10, seed=1)
        doc = json.loads(json.dumps(result_to_json(split(inst.table, SplitConfig(seed=1)), inst.table)))
        assert check_schema(doc, load_schema("result")) == []
        # the keys a result document held while a box search existed
        old = copy.deepcopy(doc)
        old["stats"].update(engine="box", dynamic_pruning=True, norm_bound_satisfied=True,
                            box_nodes_static=297, box_nodes_cm_flat=str(1297 ** 4))
        assert check_schema(old, load_schema("result")) == []
        assert verify_result_json(old) == []
        result = CliRunner().invoke(main, ["verify"], input=json.dumps(old))
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == {"valid": True}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children,
                                                                      max_size=4),
    max_leaves=12,
)
RATIONAL_TEXT = st.sampled_from(["0", "1", "-1", "1/2", "x", "1/0", "2.5", "1e3"])
LATTICE_LIKE = st.fixed_dictionaries({
    "dim": st.one_of(st.integers(-1, 3), st.booleans(), st.floats(0, 3), st.sampled_from(["2", None])),
    "basis": st.one_of(
        st.lists(st.lists(RATIONAL_TEXT | JSON_VALUES, max_size=3), max_size=3),
        JSON_VALUES,
    ),
})


class TestOrderDocuments:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name,n", [("Q", 2), ("Q", 3), ("gauss", 2), ("eisenstein", 2)])
    def test_a_maximal_order_document_reads_back_to_itself(self, name, n, seed):
        # order_from_json builds through the public constructor, order_to_json
        # writes the basis view of the order's integer basis
        table = generate_instance(n, name, 10, seed=seed).table
        doc = json.loads(json.dumps(order_to_json(maximal_order(table))))
        assert order_to_json(order_from_json(table, doc)) == doc

    @pytest.mark.parametrize("name,n,seed", ALGEBRAS)
    def test_the_int_route_gives_the_constructors_basis(self, name, n, seed):
        # on the document and on its non-canonical copy, order_from_json gives the
        # (den, C) of Order.__init__ on the scalar_from_json values
        table = generate_instance(n, name, 10, seed=seed).table
        doc = json.loads(json.dumps(order_to_json(maximal_order(table))))
        for d in (doc, {**doc, "basis": _non_canonical(doc["basis"])}):
            cols = [[scalar_from_json(table.field, x) for x in c] for c in d["basis"]]
            built = Order(table, ExactMatrix.from_columns(table.field, cols))
            assert order_from_json(table, d)._int[:2] == built._int[:2]


def _lattice_fraction_route(doc):
    """lattice_from_json by way of rational_from_str and the public constructor."""
    cols = [[rational_from_str(x) for x in col] for col in doc["basis"]]
    if any(len(c) != doc["dim"] for c in cols):
        raise InputError("basis vectors do not match the declared dimension")
    return LatticeBasis(cols)


def _lattice_outcome(read, doc):
    """The basis a reader gives, as columns, ints and denominator, or its InputError."""
    try:
        basis = read(doc)
    except InputError as exc:
        return "error", str(exc)
    return "basis", basis.columns, basis._ints, basis._den


class TestLatticeBoundary:
    @pytest.mark.parametrize(
        "doc",
        [
            {"dim": 1.9, "basis": [["1"]]},
            {"dim": 2.0, "basis": [["1", "0"], ["0", "1"]]},
            {"dim": "2", "basis": [["1", "0"], ["0", "1"]]},
            {"dim": True, "basis": [["1"]]},
            {"basis": [["1"]]},
            {"dim": 1},
            {"dim": 1, "basis": "1"},
            {"dim": 1, "basis": [["1"], "1"]},
            {"dim": 1, "basis": [{"0": "1"}]},
            [["1"]],
            None,
        ],
        ids=repr,
    )
    def test_malformed_documents_raise_input_error(self, doc):
        with pytest.raises(InputError):
            lattice_from_json(doc)

    def test_a_well_formed_document_parses(self):
        basis = lattice_from_json({"dim": 2, "basis": [["1", "1/2"], ["0", "3"]]})
        assert basis.columns == ((1, Fraction(1, 2)), (0, 3))

    @pytest.mark.parametrize(
        "basis",
        [
            [["1" * 5000]],
            [["1/2", "-" + "1" * 5000]],
            [["1/" + "1" * 5000, "0"]],
            [["1/0", "1"]],
            [["2/4", "-0"], ["6/8", "3"]],
            [["-0", "-0"], ["0", "1"]],
            [["1.5", "1/3"], ["-2.25", " 7"]],
            [["1", "0"], ["0"]],
            [["1", "0"], ["0", "1", "2"]],
            [["1", "x"], ["0"]],
        ],
        ids=["5000 digits", "-5000 digits", "5000-digit denominator", "1/0", "2/4",
             "-0", "1.5", "short column", "long column", "bad leaf, short column"],
    )
    def test_leaves_read_as_rational_from_str_reads_them(self, basis):
        doc = {"dim": 2, "basis": basis}
        assert _lattice_outcome(lattice_from_json, doc) == _lattice_outcome(_lattice_fraction_route, doc)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(basis=st.lists(st.lists(st.text(alphabet="0123456789/-+ .٣", max_size=6),
                                   min_size=2, max_size=2), min_size=1, max_size=3))
    def test_any_leaves_read_as_rational_from_str_reads_them(self, basis):
        doc = {"dim": 2, "basis": basis}
        assert _lattice_outcome(lattice_from_json, doc) == _lattice_outcome(_lattice_fraction_route, doc)

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(doc=st.one_of(JSON_VALUES, LATTICE_LIKE))
    def test_any_json_value_parses_or_raises_input_error(self, doc):
        try:
            basis = lattice_from_json(doc)
        except InputError:
            return
        assert isinstance(basis, LatticeBasis)
        assert type(doc["dim"]) is int and basis.ambient_dim == doc["dim"]


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode() + b"\n")
    return h.hexdigest()[:16]


def _tampered(doc):
    """The document with its first image entry plus one."""
    out = copy.deepcopy(doc)
    M = out["witness"]["images"][0]
    x = M[0][0]
    if isinstance(x, dict):
        M[0][0] = {**x, "a": str(Fraction(x["a"]) + 1)}
    else:
        M[0][0] = str(Fraction(x) + 1)
    return out


class TestVerifyReadsTheWitnessCore:
    """verify_result_json reads the images as ints and hands them to _witness_problems;
    it must report what witness_problems reports on the same images as field values."""

    # generate_instance(2, name) split with SplitConfig(seed), and the sign of the
    # last pivot dp of build_isomorphism's elimination on it
    CASES = [("Q", 1, -1), ("gauss", 1, 1), ("eisenstein", 2, -1)]

    @pytest.fixture(scope="class")
    def documents(self):
        out = {}
        for name, seed, _ in self.CASES:
            table = generate_instance(2, name, 10, seed=seed).table
            result = split(table, SplitConfig(seed=seed))
            calls = []

            def spy(rows, real=algebra.int_gauss_jordan):
                calls.append(real(rows))
                return calls[-1]

            # the first elimination of build_isomorphism is the one dp comes from
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(algebra, "int_gauss_jordan", spy)
                algebra.build_isomorphism(table, result.rank_one_element)
            red, pivots = calls[0]
            dp = red[0][pivots[0]]
            out[name] = json.loads(json.dumps(result_to_json(result, table))), (dp > 0) - (dp < 0)
        return out

    @staticmethod
    def _public(doc):
        """witness_problems on the images of doc read as field values, or its InputError."""
        table = algebra_from_json(doc["algebra"])
        try:
            images = [ExactMatrix(table.field, [[scalar_from_json(table.field, x) for x in row]
                                                for row in M]) for M in doc["witness"]["images"]]
            return witness_problems(table, images)
        except InputError as exc:
            return str(exc)

    @staticmethod
    def _core(doc, monkeypatch):
        """What _witness_problems returned inside verify_result_json(doc), or its InputError."""
        seen, core = [], algebra._witness_problems
        monkeypatch.setattr(serialize, "_witness_problems", lambda *a: seen.append(core(*a)) or seen[-1])
        try:
            verify_result_json(doc)
        except InputError as exc:
            return str(exc)
        (found,) = seen
        return found

    def test_the_cases_have_both_signs_of_the_last_pivot(self, documents):
        assert [documents[name][1] for name, _, _ in self.CASES] == [s for _, _, s in self.CASES]

    @pytest.mark.parametrize("name", ["Q", "gauss", "eisenstein"])
    def test_every_entry_plus_a_third(self, documents, name, monkeypatch):
        doc, _ = documents[name]
        field = field_from_json(doc["field"])
        assert self._core(doc, monkeypatch) == self._public(doc) == WitnessProblems((), False, False)
        shifts = [Fraction(1, 3)] + ([] if field.is_rational else [field.omega() * Fraction(1, 3)])
        for k, M in enumerate(doc["witness"]["images"]):
            for r, row in enumerate(M):
                for c, x in enumerate(row):
                    for shift in shifts:
                        bad = copy.deepcopy(doc)
                        bad["witness"]["images"][k][r][c] = scalar_to_json(scalar_from_json(field, x) + shift)
                        found = self._core(bad, monkeypatch)
                        assert found == self._public(bad)
                        assert found.pairs

    @pytest.mark.parametrize("name", ["Q", "gauss", "eisenstein"])
    def test_a_ragged_row_and_a_three_by_three_image(self, documents, name, monkeypatch):
        doc, _ = documents[name]
        ragged, big = copy.deepcopy(doc), copy.deepcopy(doc)
        ragged["witness"]["images"][1][0].append("0")
        big["witness"]["images"][2] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        assert self._core(ragged, monkeypatch) == self._public(ragged) == "ragged matrix rows"
        message = self._core(big, monkeypatch)
        assert message == self._public(big)
        assert message.startswith("a witness needs 4 images of shape 2 x 2")


class TestVerifyChecksTheClaims:
    """Once the images make an isomorphism phi, verify_result_json checks the printed left
    ideal basis and rank one element against phi: on the n = 2 seed 1 split, a swapped
    basis, the images of the seed-5 split and the seed-5 element are each refused, and a
    nonzero multiple of the element, or of the whole basis, is a true certificate."""

    @pytest.fixture(scope="class")
    def documents(self):
        out = {}
        for name in ("Q", "gauss", "eisenstein"):
            table = generate_instance(2, name, 10, seed=1).table
            out[name] = [json.loads(json.dumps(result_to_json(split(table, SplitConfig(seed=s)), table)))
                         for s in (1, 5)]
        return out

    @staticmethod
    def _times(field, c, v):
        return [scalar_to_json(c * scalar_from_json(field, x)) for x in v]

    @pytest.mark.parametrize("name", ["Q", "gauss", "eisenstein"])
    def test_tampers(self, documents, name):
        doc, other = documents[name]
        assert verify_result_json(doc) == verify_result_json(other) == []
        assert doc["rank_one_element"] != other["rank_one_element"]
        swapped = copy.deepcopy(doc)
        basis = swapped["witness"]["left_ideal_basis"]
        basis[0], basis[1] = basis[1], basis[0]
        foreign_images = copy.deepcopy(doc)
        foreign_images["witness"]["images"] = other["witness"]["images"]
        foreign_element = {**doc, "rank_one_element": other["rank_one_element"]}
        acting = ["the images do not act on the left ideal basis as printed"]
        assert verify_result_json(swapped) == acting
        assert verify_result_json(foreign_images) == acting
        assert verify_result_json(foreign_element) == ["the left ideal basis does not span A*C"]

    @pytest.mark.parametrize("name", ["Q", "gauss", "eisenstein"])
    def test_multiples(self, documents, name):
        doc, _ = documents[name]
        field = field_from_json(doc["field"])
        c = field.coerce(2) if field.is_rational else QuadScalar(field.d, 1, 1)
        doubled = {**doc, "rank_one_element": self._times(field, c, doc["rank_one_element"])}
        assert verify_result_json(doubled) == []
        basis = doc["witness"]["left_ideal_basis"]
        scaled = copy.deepcopy(doc)
        scaled["witness"]["left_ideal_basis"] = [self._times(field, c, v) for v in basis]
        assert verify_result_json(scaled) == []
        one = copy.deepcopy(doc)
        one["witness"]["left_ideal_basis"][0] = self._times(field, c, basis[0])
        assert verify_result_json(one) == ["the images do not act on the left ideal basis as printed"]
        zero = {**doc, "rank_one_element": self._times(field, field.zero(), doc["rank_one_element"])}
        assert verify_result_json(zero) == ["claimed element does not have ideal rank one"]


class TestOutputsStay:
    """Digests of the serialized outputs of 48 splits: Q n = 2 and 3, gauss
    and eisenstein n = 2, seeds 1-12, SplitConfig(seed=s), each read back
    from the JSON text of its algebra."""

    CORPUS = [(name, n, seed) for name, n in (("Q", 2), ("Q", 3), ("gauss", 2), ("eisenstein", 2))
              for seed in range(1, 13)]
    DIGESTS = {
        "algebra_to_json": "5d7c1b83e3fde882",
        "result_to_json": "753b6be152e1ac46",
        "order_to_json": "2329fe203af928a2",
        "verify_result_json": "e8a5bcf4f17c8f1d",
    }

    @pytest.fixture(scope="class")
    def outputs(self):
        from test_cli import _forged

        texts = {key: [] for key in self.DIGESTS}
        seed_one = {}
        for name, n, seed in self.CORPUS:
            inst = generate_instance(n, name, 10, seed=seed)
            table = algebra_from_json(json.loads(json.dumps(algebra_to_json(inst.table))))
            texts["algebra_to_json"].append(json.dumps(algebra_to_json(table)))
            result = result_to_json(split(table, SplitConfig(seed=seed)), table)
            result["stats"].pop("wall_time")
            texts["result_to_json"].append(json.dumps(result))
            texts["order_to_json"].append(json.dumps(order_to_json(maximal_order(table))))
            doc = json.loads(json.dumps(result))
            texts["verify_result_json"].append(json.dumps(verify_result_json(doc)))
            texts["verify_result_json"].append(json.dumps(verify_result_json(_tampered(doc))))
            if (n, seed) == (2, 1):
                seed_one[table.field] = doc
        # the forged witnesses of test_cli.TestForgedWitnesses
        for field in FIELDS:
            for family in ("K^4", "T2+K", "K[x]/(x^4)"):
                table, images, element = _forged(family, field)
                doc = copy.deepcopy(seed_one[field])
                doc["algebra"] = algebra_to_json(table)
                doc["witness"]["images"] = [matrix_to_json(M) for M in images]
                doc["rank_one_element"] = vector_to_json(element.coords)
                texts["verify_result_json"].append(json.dumps(verify_result_json(doc)))
        return texts

    @pytest.mark.parametrize("key", sorted(DIGESTS))
    def test_digest(self, outputs, key):
        assert _digest(outputs[key]) == self.DIGESTS[key]
