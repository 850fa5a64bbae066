"""Smoke tests of the benchmark: one small instance per workload.

    python -m pytest perfbench
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from matsplit import serialize  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("orders.primes_saturated", "orders.disc_bits", "embed.precision_bits",
          "splitter.nodes_visited", "splitter.minimal_class_size", "lattice.vectors_listed")


def smoke(name: str, trace: bool, seed: int = 1) -> dict:
    return run.measure(workloads.WORKLOADS[name], seed, 0, trace, smoke=True)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(name, trace, kind):
    res = smoke(name, trace)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


@pytest.mark.parametrize("name", ["q-split", "quad-split", "lattice-enum"])
def test_exact_counts_repeat_for_a_seed(name):
    first, second = smoke(name, True, seed=3), smoke(name, True, seed=3)
    assert [first["metrics"][k]["value"] for k in COUNTS] == [
        second["metrics"][k]["value"] for k in COUNTS
    ]


def test_tampered_witness_image_raises_fail_ratio(monkeypatch):
    honest = serialize.result_to_json

    def tampered(result, table):
        obj = honest(result, table)
        image = obj["witness"]["images"][0]
        image[0][0] = str(Fraction(image[0][0]) + 1)
        return obj

    monkeypatch.setattr(serialize, "result_to_json", tampered)
    res = smoke("q-split", True)
    assert res["failed"] > 0 and not res["correct"]
    assert res["metrics"]["fail_ratio"]["value"] > 0


def _solved(name: str):
    workload = workloads.WORKLOADS[name]
    inst = workload.build(workload.specs(1, smoke=True)[0])
    return inst, workload.solve(inst)


@pytest.mark.parametrize("name", ["q-split", "quad-split"])
def test_independent_split_check(name):
    inst, out = _solved(name)
    assert check.check_split(inst.text, out.output) == []
    bad = json.loads(json.dumps(out.output))
    bad["witness"]["images"][1], bad["witness"]["images"][2] = (
        bad["witness"]["images"][2], bad["witness"]["images"][1])
    assert check.check_split(inst.text, bad)
    bad = json.loads(json.dumps(out.output))
    bad["rank_one_element"] = [str(1) for _ in bad["rank_one_element"]]
    assert check.check_split(inst.text, bad)


def test_independent_lattice_check():
    inst, out = _solved("lattice-enum")
    columns, vecs = out.output
    bound = workloads.first_rung([sum(x * x for x in col) for col in columns])
    assert vecs and check.check_lattice(inst.text, columns, vecs, bound) == []
    doubled = [tuple(2 * x for x in columns[0])] + list(columns[1:])
    assert check.check_lattice(inst.text, doubled, [], bound)
    wrong_norm = [(vecs[0][0], vecs[0][1] + 1)] + vecs[1:]
    assert check.check_lattice(inst.text, columns, wrong_norm, bound)
    if vecs[0][1] != vecs[-1][1]:
        assert check.check_lattice(inst.text, columns, vecs[::-1], bound)
    assert check.check_lattice(inst.text, columns, vecs + vecs[:1], bound)
