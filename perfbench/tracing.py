"""Spans around the public functions of matsplit's layers.

A traced run replaces each public function in every module namespace that
binds it (``maximal_order`` is bound in both ``orders`` and ``splitter``,
``trace_gram`` in both ``algebra`` and ``orders``), and each public
``ExactMatrix`` method on its class, by a wrapper that records a span:
name, start, end and parent.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from matsplit import algebra, exactnum

# (span name, module, function): wrapped wherever the module's object is bound
FUNCTIONS = [
    ("serialize.algebra_from_json", "serialize", "algebra_from_json"),
    ("serialize.order_from_json", "serialize", "order_from_json"),
    ("serialize.lattice_from_json", "serialize", "lattice_from_json"),
    ("serialize.result_to_json", "serialize", "result_to_json"),
    ("serialize.verify_result_json", "serialize", "verify_result_json"),
    ("algebra.validate", "algebra", "validate"),
    ("algebra.trace_gram", "algebra", "trace_gram"),
    ("algebra.ideal_rank", "algebra", "ideal_rank"),
    ("algebra.build_isomorphism", "algebra", "build_isomorphism"),
    ("orders.maximal_order", "orders", "maximal_order"),
    ("orders.initial_order", "orders", "initial_order"),
    ("orders.p_radical", "orders", "p_radical"),
    ("orders.enlarge_at_p", "orders", "enlarge_at_p"),
    ("orders.factor_integer", "orders", "factor_integer"),
    ("embed.split_numeric", "embed", "split_numeric"),
    ("embed.embed_order", "embed", "embed_order"),
    ("embed.rationalize", "embed", "rationalize"),
    ("lattice.lll_reduce", "lattice", "lll_reduce"),
    ("lattice.short_vectors", "lattice", "short_vectors"),
    ("lattice.lattice_equal", "lattice", "lattice_equal"),
    ("splitter.split", "splitter", "split_over_Q"),
    ("splitter.split", "splitter", "split_imag_quad"),
]

# (span name, class, method): the table's identity and the exact kernels
METHODS = [
    ("algebra.find_identity", algebra.StructureConstants, "find_identity"),
    ("exactnum.matmul", exactnum.ExactMatrix, "__matmul__"),
    ("exactnum.rank", exactnum.ExactMatrix, "rank"),
    ("exactnum.det", exactnum.ExactMatrix, "det"),
    ("exactnum.solve", exactnum.ExactMatrix, "solve"),
    ("exactnum.inverse", exactnum.ExactMatrix, "inverse"),
]


class Tracer:
    """Collects spans while installed; ``with tracer:`` installs the wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.vectors_listed = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if name == "lattice.short_vectors":
                self.vectors_listed += len(out)
            return out

        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "matsplit"]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[f"matsplit.{module}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, cls, attr in METHODS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def take(self) -> tuple[list[list], dict]:
        """The spans since the last call and their summary; then start afresh."""
        spans = list(self.spans)
        summary = summarize(spans)
        summary["lattice.vectors_listed"] = self.vectors_listed
        self.spans.clear()
        self.vectors_listed = 0
        return spans, summary


def summarize(spans: list[list]) -> dict:
    """Inclusive seconds and calls per span name, self seconds per layer.

    Inclusive time counts only the outermost span of a name, so a function
    reached again below itself is not counted twice.  Self time is a span's
    duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        out[name + ".calls"] += 1
        out[name.split(".")[0] + ".self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[name + ".s"] += end - start
    return out


def write_spans(path, solves: list[list[list]]) -> None:
    """One JSON line per span: solve index, name, start, end, parent."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for k, spans in enumerate(solves):
            for name, start, end, parent in spans:
                fh.write(json.dumps([k, name, start, end, parent]) + "\n")
