"""Self-test of the benchmark: a tiny run of every workload.

Usage, from the repository root (takes about a minute):
    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed once per
workload with its unit, that a planted wrong result makes the run report
"correct": false and exit nonzero, and that the traced run restores every
function it wrapped.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
TINY = ("--seconds", "0", "--max-ops", "2")
WORKLOADS = ("cli-catalog", "conjugates", "genus-sweep")


def run(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run([*RUN, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def metric_problems(lines: list[str], wanted: list[dict]) -> list[str]:
    """Each wanted metric once in the JSON line and once in the printed table."""
    problems = []
    result = json.loads(lines[-1])
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        problems.append(f"metric names {sorted(got)} differ from BENCHMARK.json")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), float):
            problems.append(f"{m['name']}: {entry} lacks a number or the unit {m['unit']}")
        printed = [ln.split() for ln in lines[:-1] if ln.split()[:1] == [m["name"]]]
        if len(printed) != 1 or printed[0][2] != m["unit"]:
            problems.append(f"{m['name']} printed {len(printed)} times, unit {m['unit']} expected")
    if result["correct"] is not True:
        problems.append("result not correct")
    return problems


def restore_problems() -> list[str]:
    """Install the tracer in this process, run one verdict, uninstall."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import flexcheck
    import flexcheck.cli  # noqa: F401  (its bindings are wrapped too)
    from spans import Tracer, wrapped_bindings

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "flexcheck"]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = set(wrapped_bindings())
        flexcheck.verdict(flexcheck.build_case_representation("su21-cline"))
    finally:
        tracer.uninstall()
    problems = []
    for name in ("flexcheck.verdict", "flexcheck.engine.root_form",
                 "flexcheck.toledo.cup_pairing", "flexcheck.cli.verdict"):
        if name not in wrapped:
            problems.append(f"{name} was not wrapped")
    if not any(span[0] == "surface.cup_pairing" for span in tracer.spans):
        problems.append("no cup_pairing spans recorded")
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    changed = [f"{mod}.{k}" for (mod, k), v in before.items() if after.get((mod, k)) is not v]
    if changed or wrapped_bindings():
        problems.append(f"not restored: {changed or wrapped_bindings()}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = []
    for workload in WORKLOADS:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, lines = run("--workload", workload, "--trace", trace, *TINY)
            problems = [f"exit code {code}"] if code else []
            checks.append((f"{workload} trace {trace}: metrics and units",
                           problems + metric_problems(lines, wanted)))
        code, lines = run("--workload", workload, "--plant-wrong", *TINY)
        result = json.loads(lines[-1])
        caught = code != 0 and result["correct"] is False and result["failed"] >= 1
        checks.append((f"{workload}: planted wrong result caught",
                       [] if caught else [f"exit {code}, result {result}"]))
    checks.append(("traced functions restored", restore_problems()))

    for name, problems in checks:
        print(f"{'ok  ' if not problems else 'FAIL'} {name}")
        for p in problems:
            print(f"       {p}")
    return 1 if any(problems for _, problems in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
