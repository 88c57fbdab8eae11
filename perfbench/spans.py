"""In-memory spans around calls into flexcheck's layers.

``Tracer.install`` replaces each traced function under every name a loaded
flexcheck module binds it to (``flexcheck.toledo.cup_pairing``,
``flexcheck.engine.root_form``, ``flexcheck.verdict``, ...), and
``uninstall`` puts the originals back.  Spans are ``[name, start, end,
parent, op]`` lists kept in memory and written out by ``dump``.  Kernel-level
linalg functions are counted, not spanned, so their time stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

SPANNED = {
    "catalog": ("build_case_representation",),
    "liealg": ("build_classical", "centralizer", "center_of",
               "killing_restriction_nondegenerate"),
    "roots": ("decompose",),
    "surface": ("surface_representation", "adjoint_module", "cohomology", "cup_pairing"),
    "toledo": ("root_form",),
    "engine": ("verdict", "classify_PN", "balanced"),
}
COUNTED = {"linalg": ("nullspace", "orthonormal_columns", "matrix_scale")}
# work sizes computed from a traced call's result, summed per operation
COMPUTED = {
    "surface.cohomology": ("surface.cochain_dim",
                           lambda ws: 2 * ws.rep.presentation.genus * ws.module_dim),
    "toledo.root_form": ("toledo.gram_entries", lambda report: report.h1_dim ** 2),
}

# their self time inside engine.verdict is the Toledo Gram matrix's share
TOLEDO_CUP = ("toledo.root_form", "surface.cup_pairing")


def _flexcheck_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "flexcheck" or name.startswith("flexcheck."))]


def wrapped_bindings() -> list[str]:
    """Names in loaded flexcheck modules that still hold a tracing wrapper."""
    return [f"{mod.__name__}.{attr}" for mod in _flexcheck_modules()
            for attr, value in vars(mod).items() if getattr(value, "__perfbench__", False)]


class Tracer:
    """Spans and counts of one process; ``out_dir`` holds traced CLI children's spans."""

    def __init__(self, out_dir: Path | None = None):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}
        self.op = 0
        self.out_dir = out_dir
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._children = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = _flexcheck_modules()
        for layer, names in (*SPANNED.items(), *COUNTED.items()):
            home = sys.modules.get(f"flexcheck.{layer}")
            if home is None:
                continue
            for fname in names:
                original = getattr(home, fname)
                key = f"{layer}.{fname}"
                wrapper = (self._span(key, original) if layer in SPANNED
                           else self._counter(key, original))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _span(self, key: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        computed = COMPUTED.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [key, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if computed is not None:
                self.count(computed[0], computed[1](result))
            return result

        wrapper.__perfbench__ = True
        return wrapper

    def _counter(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key + ".calls")
            return fn(*args, **kwargs)

        wrapper.__perfbench__ = True
        return wrapper

    def count(self, key: str, n: int = 1) -> None:
        self.counts.setdefault(self.op, Counter())[key] += n

    # -- spans from traced CLI children ------------------------------------

    def child_spans_path(self) -> Path:
        self._children += 1
        return self.out_dir / f"child-{self._children}.json"

    def merge_child(self, path: Path) -> None:
        """Adopt a child's spans and counts under the current operation."""
        doc = json.loads(path.read_text())
        path.unlink()
        base = len(self.spans)
        for name, start, end, parent, _ in doc["spans"]:
            self.spans.append([name, start, end, base + parent if parent >= 0 else -1, self.op])
        for counts in doc["counts"].values():
            for key, n in counts.items():
                self.count(key, n)

    def dump(self, path: Path) -> None:
        counts = {str(op): dict(c) for op, c in self.counts.items()}
        path.write_text(json.dumps({"spans": self.spans, "counts": counts}))

    # -- aggregation --------------------------------------------------------

    def per_op_metrics(self, rounds: list[list[int]]) -> dict[str, float]:
        """Per-operation calls, self time and totals; median over rounds.

        A round's value is its total divided by the operations in it.
        """
        totals: dict[int, Counter] = {}
        child_time = [0.0] * len(self.spans)
        in_verdict = [False] * len(self.spans)    # a parent precedes its children
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_verdict[i] = in_verdict[parent] or self.spans[parent][0] == "engine.verdict"
        for (name, start, end, _, op), inner, nested in zip(self.spans, child_time, in_verdict):
            t = totals.setdefault(op, Counter())
            t[name + ".calls"] += 1
            t[name + ".self_s"] += (end - start) - inner
            t[name + ".total_s"] += end - start
            if nested and name in TOLEDO_CUP:
                t["engine.verdict.toledo_cup_s"] += (end - start) - inner
        for op, c in self.counts.items():
            totals.setdefault(op, Counter()).update(c)
        keys = set().union(*totals.values()) if totals else set()
        per_round = []
        for ops in rounds:
            acc = Counter()
            for op in ops:
                acc.update(totals.get(op, {}))
            per_round.append({k: acc[k] / len(ops) for k in keys})
        return {k: statistics.median(r[k] for r in per_round) for k in keys}
