"""Boundary fuzzing: one mutated leaf or key of a valid document, through the CLI.

Every mutant of a valid algebra (``split`` and ``order``), of a valid
split result (``verify``), over Q and over Q(i), and of a valid lattice
(``lll`` and ``enumerate``) must exit 0, 2, 3 or 4 without a traceback.
A mutated result may verify only when its algebra and its images are the
ones that were split.  A mutated order document, over Q and over Q(i),
must parse to an order of its algebra or raise InputError.
"""

import copy
import json
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matsplit import splitter
from matsplit.cli import main
from matsplit.errors import InputError, PromiseViolation
from matsplit.orders import Order
from matsplit.serialize import algebra_from_json, order_from_json, verify_result_json

# what a leaf or key is replaced by; "delete" removes it, "wrap" nests it
# one level deeper
MUTATIONS = [
    "delete", "wrap", None, True, False, 1.5, float("inf"), "1/0", "x", "",
    10**40, -(10**40), str(10**40), "1" * 5000, [], {},
]


def _documents():
    runner = CliRunner()
    docs = {}
    for field, seed in (("Q", 3), ("gauss", 2)):
        gen = runner.invoke(main, ["gen", "--n", "2", "--field", field, "--seed", str(seed)])
        split = runner.invoke(main, ["split", "--seed", str(seed)], input=gen.output)
        order = runner.invoke(main, ["order"], input=gen.output)
        assert gen.exit_code == 0 and split.exit_code == 0, split.output
        assert order.exit_code == 0, order.output
        docs[f"algebra-{field}"] = json.loads(gen.output)
        docs[f"result-{field}"] = json.loads(split.output)
        docs[f"order-{field}"] = json.loads(order.output)
    for name in ("A2", "Z2"):
        docs[f"lattice-{name}"] = json.loads(runner.invoke(main, ["fixture", "--name", name]).output)
    docs["lattice-rank3"] = {
        "dim": 3,
        "basis": [["1", "1/2", "0"], ["0", "3/2", "1/3"], ["2", "0", "5/7"]],
    }
    return docs


def _paths(obj, prefix=()):
    """The path of every node below obj: dict keys and list indices."""
    if isinstance(obj, (dict, list)):
        for key, child in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield prefix + (key,)
            yield from _paths(child, prefix + (key,))


DOCS = _documents()
PATHS = {name: list(_paths(doc)) for name, doc in DOCS.items()}


def _mutate(doc, path, mutation):
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if mutation == "delete":
        del parent[key]
    elif mutation == "wrap":
        parent[key] = [parent[key]]
    else:
        parent[key] = copy.deepcopy(mutation)
    return out


@st.composite
def mutants(draw, kind):
    name = draw(st.sampled_from([n for n in sorted(DOCS) if n.startswith(kind)]))
    path = draw(st.sampled_from(PATHS[name]))
    return name, _mutate(DOCS[name], path, draw(st.sampled_from(MUTATIONS)))


def _run(args, payload):
    result = CliRunner().invoke(main, args, input=json.dumps(payload))
    assert result.exit_code in (0, 2, 3, 4), (result.exit_code, result.exception, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    return result


FUZZ = settings(
    max_examples=500,
    derandomize=True,
    database=None,
    deadline=None,
)


@FUZZ
@given(mutant=mutants("algebra"), command=st.sampled_from([["split", "--seed", "1"], ["order"]]))
def test_mutated_algebra_exits_cleanly(mutant, command):
    _run(command, mutant[1])


@FUZZ
@given(mutant=mutants("result"))
def test_mutated_result_exits_cleanly(mutant):
    name, payload = mutant
    result = _run(["verify"], payload)
    if result.exit_code == 0:
        original = DOCS[name]
        assert payload["algebra"] == original["algebra"]
        assert payload["witness"]["images"] == original["witness"]["images"]


@settings(FUZZ, max_examples=200)
@given(mutant=mutants("result"))
@example(mutant=("result-Q", _mutate(DOCS["result-Q"], ("rank_one_element",), None)))
@example(mutant=("result-Q", _mutate(DOCS["result-Q"], ("witness",), 5)))
@example(mutant=("result-Q", _mutate(DOCS["result-Q"], ("algebra",), [])))
@example(mutant=("result-Q", _mutate(DOCS["result-Q"], ("field",), "delete")))
def test_verify_result_json_returns_problems_or_raises_input_error(mutant):
    # the library call, without the CLI's schema check in front of it.  A
    # mutated algebra may also raise PromiseViolation: ideal_rank then finds
    # a dimension that no full matrix algebra has
    try:
        problems = verify_result_json(mutant[1])
    except (InputError, PromiseViolation):
        return
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)


LATTICE_COMMANDS = [["lll"], ["enumerate", "--bound", "1.5"]]


@FUZZ
@given(mutant=mutants("lattice"), command=st.sampled_from(LATTICE_COMMANDS))
# a basis with one entry 10^40 lists its short vectors for ever without a
# budget; enumerate stops it with exit 3
@example(
    mutant=("lattice-A2", _mutate(DOCS["lattice-A2"], ("basis", 0, 0), str(10**40))),
    command=LATTICE_COMMANDS[1],
)
def test_mutated_lattice_exits_cleanly(mutant, command):
    # the split default of 10^6 nodes takes seconds to exhaust; a smaller
    # budget ends such a listing sooner, with the same exit code
    with mock.patch.object(splitter, "ENUMERATION_BUDGET", 1000):
        _run(command, mutant[1])


def _parse_order(name, payload):
    """order_from_json against the algebra the order document came from."""
    table = algebra_from_json(DOCS["algebra-" + name.split("-")[1]])
    try:
        return order_from_json(table, payload)
    except InputError:
        return None


@FUZZ
@given(mutant=mutants("order"))
def test_mutated_order_parses_or_raises_input_error(mutant):
    name, payload = mutant
    order = _parse_order(name, payload)
    assert order is None or isinstance(order, Order)


@pytest.mark.parametrize("name", sorted(DOCS))
def test_the_unmutated_documents_pass(name):
    kind = name.split("-")[0]
    if kind == "order":
        assert _parse_order(name, DOCS[name]) is not None
        return
    args = {"result": ["verify"], "algebra": ["order"], "lattice": LATTICE_COMMANDS[1]}[kind]
    assert _run(args, DOCS[name]).exit_code == 0
