"""flexcheck benchmark: one workload per run, metrics as one JSON line.

Usage (from the repository root):
    python3 perfbench/run.py --workload cli-catalog|conjugates|genus-sweep|all
        [--seed N] [--seconds S] [--trace 0|1]

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run and the tracing overhead.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every checked result was correct.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ("cli-catalog", "conjugates", "genus-sweep")
SETUP_RUNS = 5          # set-ups per run, the measured one included; setup_s is their median
IMPORT_RUNS = 5         # fresh interpreters timing `import flexcheck`
DEADLINE_S = 170.0      # one workload must finish within this, set-up included
IMPORT_PROBE = ("import time; t = time.perf_counter(); import flexcheck; "
                "print(time.perf_counter() - t)")

END_TO_END = {
    "setup_s": "s",
    "latency_s.p50": "s",
    "latency_s.tail": "s",
    "throughput_ops": "ops/s",
    "peak_rss_mb": "MB",
}


def _per_layer() -> dict[str, str]:
    from spans import COUNTED, COMPUTED, SPANNED
    units = {"cli.import_s": "s"}
    for layer, names in SPANNED.items():
        for fname in names:
            units[f"{layer}.{fname}.calls"] = "count"
            units[f"{layer}.{fname}.self_s"] = "s"
    units["engine.verdict.total_s"] = "s"
    units["engine.verdict.toledo_cup_share"] = "fraction"
    for layer, names in COUNTED.items():
        for fname in names:
            units[f"{layer}.{fname}.calls"] = "count"
    for metric, _ in COMPUTED.values():
        units[metric] = "count"
    units["trace.overhead_frac"] = "fraction"
    return units


PER_LAYER = _per_layer()


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread, set before any child imports numpy
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(cmd: list[str], deadline: float) -> tuple[int, str, str]:
    """Run a child in its own session; kill the whole group on the deadline."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def run_worker(args, workload: str, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    if args.max_ops is not None:
        cmd += ["--max-ops", str(args.max_ops)]
    if args.plant_wrong:
        cmd.append("--plant-wrong")
    code, out, err = spawn(cmd, deadline)
    if code != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"{workload} worker exited with {code}")
    return json.loads(out.strip().splitlines()[-1])


def import_seconds(deadline: float) -> float:
    times = []
    for _ in range(IMPORT_RUNS):
        code, out, err = spawn([sys.executable, "-c", IMPORT_PROBE], deadline)
        if code != 0:
            sys.stderr.write(err)
            raise RuntimeError("import flexcheck failed")
        times.append(float(out))
    return statistics.median(times)


def run_workload(args, workload: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    # set-ups before and after the measured run, so that slow drifts in
    # machine speed fall on both sides of the median
    before = (SETUP_RUNS - 1) // 2
    setups = [run_worker(args, workload, deadline, True)["setup_s"] for _ in range(before)]
    res = run_worker(args, workload, deadline, False)
    setups.append(res["setup_s"])
    setups += [run_worker(args, workload, deadline, True)["setup_s"]
               for _ in range(SETUP_RUNS - 1 - before)]
    values = dict(res["metrics"])
    if args.trace:
        values["cli.import_s"] = import_seconds(deadline)
        units = PER_LAYER
    else:
        values["setup_s"] = statistics.median(setups)
        units = END_TO_END
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    correct = not res["wrong"] and not res.get("still_wrapped")

    print(f"== {workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps({**res["env"], "git_sha": git_sha()}, sort_keys=True))
    for name, m in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"median of {len(setups)} set-ups"
        elif name == "latency_s.tail":
            note = f"p{res['tail_percentile']:g} of {res['latency_samples']} successful operations"
        elif name == "latency_s.p50":
            note = f"{res['latency_samples']} successful operations"
        elif name == "cli.import_s":
            note = f"untraced latency_s.p50 {res['untraced_latency_p50_s']:.6g} s"
        elif name in ("surface.cochain_dim", "toledo.gram_entries"):
            note = "computed, per operation"
        print(f"  {name:46s} {m['value']:<14.6g} {m['unit']:8s} {note}")
    print(f"  {'failed_frac':46s} {res['failed'] / max(res['attempted'], 1):<14.6g} "
          f"{'fraction':8s} {res['failed']} of {res['attempted']} operations")
    for label, n in sorted(res["failures"].items()):
        print(f"  failed {n}x  {label}")
    for line in res["wrong"]:
        print(f"  WRONG  {line}")
    for name in res.get("still_wrapped", []):
        print(f"  NOT RESTORED  {name}")
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for the self-test: cap the operations per phase, corrupt one result
    ap.add_argument("--max-ops", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--plant-wrong", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "flexcheck" / "__init__.py").is_file():
        print(f"perfbench: no flexcheck sources under {SRC}", file=sys.stderr)
        return 2
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(args, workload)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
