"""One workload run in a fresh interpreter, started by run.py.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
           --trace 0|1 --spawned-at T [--setup-only] [--max-ops K] [--plant-wrong]

Imports flexcheck, generates the workload's inputs, then runs whole rounds
of operations in a closed loop with one client until --seconds have passed.
With --trace 1 it runs an untraced half and a traced half of that time.
The last stdout line is one JSON object with the raw measurements.
--spawned-at is time.monotonic() in the parent just before it started this
process; the monotonic clock is system-wide on Linux, so the difference is
the set-up time from process start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import flexcheck
import workloads
from spans import Tracer, wrapped_bindings

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
# enough operations that p50 has ten samples beyond it
MIN_OPS = 20
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "flexcheck": flexcheck.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it; the maximum when there are fewer than twenty."""
    n = len(latencies)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(latencies, p))
    return 100.0, max(latencies, default=0.0)


class Phase:
    """Whole rounds of operations until `seconds` have passed."""

    def __init__(self, workload, tracer: Tracer | None, first_op: int):
        self.workload = workload
        self.tracer = tracer
        self.op = first_op
        self.latencies: list[float] = []
        self.rounds: list[list[int]] = []
        self.attempted = 0
        self.failures: Counter = Counter()
        self.wrong: list[str] = []
        self.wall = 0.0

    def run(self, seconds: float, min_ops: int, max_ops: int | None, plant: bool) -> None:
        start = time.perf_counter()
        r = 0
        while True:
            ops = []
            for item in self.workload.round_items(r):
                if max_ops is not None and self.attempted >= max_ops:
                    break
                self._one(item, plant and not self.wrong)
                ops.append(self.op)
                self.op += 1
                self.attempted += 1
            self.rounds.append(ops)
            r += 1
            elapsed = time.perf_counter() - start
            if max_ops is not None and self.attempted >= max_ops:
                break
            if elapsed >= seconds and self.attempted >= min_ops:
                break
        self.wall = time.perf_counter() - start

    def _one(self, item, plant: bool) -> None:
        if self.tracer is not None:
            self.tracer.op = self.op
        t0 = time.perf_counter()
        try:
            outcome = self.workload.run(item, self.tracer)
        except Exception as exc:  # an aborted operation counts as failed, never retried
            msg = str(exc).splitlines()[0][:80] if str(exc) else ""
            self.failures[f"{item.label}: {type(exc).__name__} {msg}"] += 1
            return
        latency = time.perf_counter() - t0
        if plant:
            outcome = self.workload.plant_wrong(outcome)
        errors = self.workload.check(item, outcome)
        if errors:
            self.wrong.append(f"{item.label}: {'; '.join(errors)}")
        else:
            self.latencies.append(latency)

    @property
    def failed(self) -> int:
        return sum(self.failures.values()) + len(self.wrong)

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.wall if self.wall > 0 else 0.0


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--plant-wrong", action="store_true")
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    out["env"] = environment()

    if args.trace == 0:
        phase = Phase(workload, None, 0)
        phase.run(args.seconds, MIN_OPS, args.max_ops, args.plant_wrong)
        pct, tail_s = tail(phase.latencies)
        out["metrics"] = {
            "latency_s.p50": statistics.median(phase.latencies) if phase.latencies else 0.0,
            "latency_s.tail": tail_s,
            "throughput_ops": phase.throughput,
            "peak_rss_mb": peak_rss_mb(args.workload == "cli-catalog"),
        }
        out["tail_percentile"] = pct
        out["latency_samples"] = len(phase.latencies)
        phases = [phase]
    else:
        OUT_DIR.mkdir(exist_ok=True)
        plain = Phase(workload, None, 0)
        plain.run(args.seconds / 2, 0, args.max_ops, args.plant_wrong)
        tracer = Tracer(OUT_DIR)
        traced = Phase(workload, tracer, plain.op)
        tracer.install()
        try:
            traced.run(args.seconds / 2, 0, args.max_ops, False)
        finally:
            tracer.uninstall()
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        layer = tracer.per_op_metrics(traced.rounds)
        verdict_s = layer.get("engine.verdict.total_s", 0.0)
        layer["engine.verdict.toledo_cup_share"] = (
            layer.get("engine.verdict.toledo_cup_s", 0.0) / verdict_s if verdict_s else 0.0)
        layer["trace.overhead_frac"] = (1.0 - traced.throughput / plain.throughput
                                        if plain.throughput else 0.0)
        out["metrics"] = layer
        out["untraced_latency_p50_s"] = (statistics.median(plain.latencies)
                                         if plain.latencies else 0.0)
        out["still_wrapped"] = wrapped_bindings()
        phases = [plain, traced]

    out["attempted"] = sum(p.attempted for p in phases)
    out["failed"] = sum(p.failed for p in phases)
    out["failures"] = dict(sum((p.failures for p in phases), Counter()))
    out["wrong"] = [w for p in phases for w in p.wrong]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
