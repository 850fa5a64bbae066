"""matsplit benchmark: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload q-split --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; matsplit is imported from ``src/``.
Inputs are generated from the seed before timing starts, then the workload's
instances are solved one after another by a single caller until the time is
up, and every output is checked.  Timings are quoted at a reference host
speed (see ``HostSpeed``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics, from a
separate traced loop, with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_CHUNKS = 4
REFERENCE_S = 0.02  # the reference loop's time at the speed figures are quoted in
SAMPLE_EVERY_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "instance_s.p50": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; timings are per pass over the workload's instances
PER_LAYER = {
    "fail_ratio": "ratio",
    "host.reference_ms": "ms",
    "instance_s.samples": "count",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
    "share.validate_maximal_order": "ratio",
    **{f"{layer}.self_s": "s" for layer in (
        "serialize", "algebra", "orders", "embed", "lattice", "splitter", "exactnum")},
    "algebra.validate.s": "s",
    "algebra.trace_gram.s": "s",
    "algebra.trace_gram.calls": "count",
    "algebra.build_isomorphism.s": "s",
    "algebra.ideal_rank.s": "s",
    "algebra.ideal_rank.calls": "count",
    "algebra.find_identity.s": "s",
    "orders.maximal_order.s": "s",
    "orders.initial_order.s": "s",
    "orders.p_radical.s": "s",
    "orders.p_radical.calls": "count",
    "orders.enlarge_at_p.s": "s",
    "orders.enlarge_at_p.calls": "count",
    "orders.factor_integer.s": "s",
    "orders.primes_saturated": "count",
    "orders.disc_bits": "bits",
    "embed.split_numeric.s": "s",
    "embed.split_numeric.calls": "count",
    "embed.embed_order.s": "s",
    "embed.rationalize.s": "s",
    "embed.precision_bits": "bits",
    "embed.attempt_ratio": "ratio",
    "splitter.split.s": "s",
    "splitter.nodes_visited": "count",
    "splitter.rank_one_hit_ratio": "ratio",
    "splitter.minimal_class_size": "count",
    "serialize.algebra_from_json.s": "s",
    "serialize.order_from_json.s": "s",
    "serialize.lattice_from_json.s": "s",
    "serialize.result_to_json.s": "s",
    "serialize.verify_result_json.s": "s",
    "serialize.result_bytes": "bytes",
    "exactnum.matmul.s": "s",
    "exactnum.matmul.calls": "count",
    "exactnum.rank.s": "s",
    "exactnum.det.s": "s",
    "exactnum.solve.s": "s",
    "exactnum.inverse.s": "s",
    "lattice.lll_reduce.s": "s",
    "lattice.short_vectors.s": "s",
    "lattice.short_vectors.calls": "count",
    "lattice.vectors_listed": "count",
    "lattice.lattice_equal.s": "s",
}


def reference_loop() -> float:
    """Seconds for a fixed exact-arithmetic loop that shares no code with matsplit."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 8000):
        acc += Fraction(i % 97, i % 89 + 1)
    return time.perf_counter() - start


class HostSpeed:
    """How fast the host runs plain exact arithmetic during this run.

    On a shared machine the speed of identical work drifts by about 20 %
    over minutes, and longer windows do not average it out.  The reference
    loop, sampled between solves all through the run, drifts with it, so
    every timing is reported scaled by REFERENCE_S over the median sample:
    seconds at the speed where the reference loop takes REFERENCE_S.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.samples.append(reference_loop())
            self._last = time.perf_counter()

    @property
    def scale(self) -> float:
        return REFERENCE_S / _median(self.samples)


class Loop:
    """Closed loop, one caller: the instances round-robin until the time is up.

    Every instance is solved at least once.  A pass figure is the sum over
    the instances of each one's median over its repetitions, so a slow
    stretch of the machine that hits a minority of repetitions drops out.
    """

    def __init__(self, workload, instances, speed: HostSpeed):
        self.workload = workload
        self.instances = instances
        self.speed = speed
        self.counts: list = [None] * len(instances)  # exact counts, from the first solve
        self.reference: list = [None] * len(instances)
        self.records: list[list[dict]] = [[] for _ in instances]
        self.attempted = 0
        self.failed = 0
        self.first_pass_rss_mb = 0.0

    def run(self, seconds: float, tracer=None) -> None:
        start = time.perf_counter()
        done = 0
        while done < len(self.instances) or time.perf_counter() - start < seconds:
            self.speed.sample()
            self._solve(done % len(self.instances), tracer)
            done += 1
            if done == len(self.instances) and not self.first_pass_rss_mb:
                self.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _solve(self, i: int, tracer) -> None:
        inst = self.instances[i]
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.workload.solve(inst)
        except Exception:  # any failure of the program counts against it
            self.failed += 1
            print(f"FAIL {inst.spec}:\n{traceback.format_exc()}", file=sys.stderr)
            out = None
        record = {"solve_s": time.perf_counter() - start}
        if tracer is not None:
            record["spans"], summary = tracer.take()
            record.update(summary)
        if out is None:
            return
        record["verify_s"] = out.verify_s
        self.records[i].append(record)
        problem = self._check(i, inst, out)
        if problem:
            self.failed += 1
            print(f"FAIL {inst.spec}: {problem}", file=sys.stderr)

    def _check(self, i: int, inst, out) -> str | None:
        """Independent check on the first solve, then identical output after."""
        fingerprint = self.workload.fingerprint(out)
        if self.reference[i] is None:
            problems = self.workload.check(inst, out)
            if problems:
                return problems[0]
            self.reference[i] = fingerprint
            self.counts[i] = out.counts
            return None
        if fingerprint != self.reference[i]:
            return "output or exact counts changed between repetitions"
        return None

    def pass_figure(self, key: str, skip=None) -> float:
        """Sum over instances of the median of ``key`` over their repetitions.

        ``skip`` gives, per instance, how many early repetitions to leave out.
        """
        skip = skip or [0] * len(self.records)
        return sum(_median([r.get(key, 0.0) for r in recs[k:]])
                   for recs, k in zip(self.records, skip))

    def instance_times(self) -> list[float]:
        return [r["solve_s"] for recs in self.records for r in recs]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def setup(workload, seed: int, smoke: bool, speed: HostSpeed):
    """Warm-up solve, then the inputs in equal chunks.

    Returns the instances, the warm-up loop and the set-up seconds: the
    warm-up plus the chunk count times the median chunk, a steadier figure
    than one timing of the whole generation.
    """
    speed.sample()
    start = time.perf_counter()
    warm = Loop(workload, [workload.build(workload.warm)], speed)
    warm.run(0)
    warm_s = time.perf_counter() - start
    specs = workload.specs(seed, smoke)
    size = -(-len(specs) // SETUP_CHUNKS)
    chunks = [specs[k:k + size] for k in range(0, len(specs), size)]
    built: dict = {}
    chunk_s = []
    for chunk in chunks:
        start = time.perf_counter()
        for spec in chunk:
            built[spec] = workload.build(spec)
        chunk_s.append(time.perf_counter() - start)
        speed.sample()
    return [built[s] for s in specs], warm, warm_s + len(chunks) * _median(chunk_s)


def measure(workload, seed: int, seconds: float, trace: bool, smoke: bool = False,
            import_s: float = 0.0) -> dict:
    speed = HostSpeed()
    instances, warm, setup_s = setup(workload, seed, smoke, speed)
    loop = Loop(workload, instances, speed)
    loop.attempted, loop.failed = warm.attempted, warm.failed
    if not trace:
        loop.run(seconds)
        metrics = {
            "setup_s": import_s + setup_s,
            "solve_s": loop.pass_figure("solve_s"),
            "instance_s.p50": _median(loop.instance_times()),
            "verify_s": loop.pass_figure("verify_s"),
            "peak_rss_mb": loop.first_pass_rss_mb,
        }
        units = END_TO_END
        print(f"instance_s.p50 over {len(loop.instance_times())} solves", file=sys.stderr)
    else:
        metrics = _traced(loop, seconds, f"{workload.name}-{seed}")
        units = PER_LAYER
    scale = speed.scale
    print(f"reference loop {1000 * _median(speed.samples):.2f} ms, median of "
          f"{len(speed.samples)}; timings scaled by {scale:.4f}", file=sys.stderr)
    for key, unit in units.items():
        if unit == "s":
            metrics[key] *= scale
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }


def _traced(loop: Loop, seconds: float, label: str) -> dict:
    """Half the time untraced, then half traced on the same instances."""
    import tracing

    loop.run(seconds / 2)
    untraced = loop.pass_figure("solve_s")
    untraced_solves = [len(recs) for recs in loop.records]
    with tracing.Tracer() as tracer:
        loop.run(seconds / 2, tracer)
    tracing.write_spans(ROOT / "perfbench" / "out" / f"spans-{label}.jsonl",
                        [r["spans"] for recs, k in zip(loop.records, untraced_solves)
                         for r in recs[k:]])
    metrics = {k: loop.pass_figure(k, untraced_solves) for k in PER_LAYER}
    for counts in loop.counts:
        for key, value in (counts or {}).items():
            metrics[key] += value
    solve_s = loop.pass_figure("solve_s", untraced_solves)
    metrics.update({
        "fail_ratio": loop.failed / loop.attempted,
        "host.reference_ms": 1000 * _median(loop.speed.samples),
        "instance_s.samples": sum(untraced_solves),
        "trace.solve_s": solve_s,
        "trace.overhead_s": solve_s - untraced,
        "share.validate_maximal_order": _ratio(
            metrics["algebra.validate.s"] + metrics["orders.maximal_order.s"], solve_s),
        "embed.attempt_ratio": _ratio(len(loop.instances), metrics["embed.split_numeric.calls"]),
        "splitter.rank_one_hit_ratio": _ratio(len(loop.instances),
                                              metrics["splitter.nodes_visited"]),
    })
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "matsplit" / "__init__.py").is_file():
        print(f"perfbench: no matsplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), import_s=import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
