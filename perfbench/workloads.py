"""The three workloads: seeded inputs, one operation each, and result checks.

Every expectation below comes from the catalog's static table
(``flexcheck.expected_table``) or from closed-form facts about the catalog
representations, never from the pipeline's own arithmetic:

* H^0 and H^2 of a root module vanish, so the Euler characteristic gives
  h1 = (2g - 2) * real_dim for every root.
* A maximal root (Milnor-Wood equality) has |T| = (g - 1) * real_dim / 2 and
  slack 0; a real-plane root carries an invariant Lagrangian pair, so T = 0.
* For the adjoint module H^0 is the centralizer and H^2 is dual to it, so
  h0 = h2 = dim Z and h1 = 2 dim Z + (2g - 2) dim G.
* Global conjugation and handles pinched to the identity leave the image
  group unchanged up to conjugacy, hence its centralizer, its center, the
  root dimensions and the Toledo invariants.  Pinched handles do raise h1,
  so a maximal genus-2 root stops being definite: P is empty, N spans the
  one-dimensional center, and the verdict is flexible.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import flexcheck as fc

SUBCOMMANDS = ("verdict", "toledo", "balanced", "decompose", "cohomology")
# coefficient scales of the conjugator's logarithm X; the upper half triggers
# the absolute relator tolerance defect documented in README.md
CONJUGATE_SCALES = (0.1, 0.4, 0.7, 1.0)
CONJUGATOR_STREAM = 0
GENUS_SWEEP = (("su21-cline", 4), ("su21-cline", 6), ("su21-cline", 8),
               ("so41-rplane", 4), ("sp21-cline", 4))
CLI_SHIM = "import sys; from flexcheck.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120.0

_FIELD_DIM = {"so": 1, "su": 2, "sp": 4}


# ---------------------------------------------------------------------------
# Expectations from the catalog table and closed forms
# ---------------------------------------------------------------------------

def group_dim(case) -> int:
    n = case.m + 1
    return {"so": n * (n - 1) // 2, "su": n * n - 1, "sp": n * (2 * n + 1)}[case.family]


def expected_roots(case) -> list[tuple[int, bool]]:
    """(real_dim, maximal) for each root of the genus-2 base representation."""
    if case.center_dim == 0:
        return []
    d, m = _FIELD_DIM[case.family], case.m
    if case.stabilized == "rplane":
        # Hom_F(F^{m-2}, R^{2,1}): the center acts with weight one
        return [(3 * (m - 2) * d, False)]
    roots = [(2 * (m - 1) * d, True)]           # Hom_F(F^{m-1}, F^{1,1})
    if case.family == "sp":
        roots.append((6, False))                # sp(1,1) minus u(1,1)
    return roots


def expected_root_table(case, genus: int) -> list[tuple[int, int, int]]:
    """Sorted (real_dim, |T|, h1_dim); |T| keeps its genus-2 value."""
    return sorted((dim, dim // 2 if maximal else 0, (2 * genus - 2) * dim)
                  for dim, maximal in expected_roots(case))


def root_table(roots) -> list[tuple[int, int, int]]:
    """Sorted (real_dim, |T|, h1_dim) of report roots (objects or dicts)."""
    def get(r, key):
        return r[key] if isinstance(r, dict) else getattr(r, key)
    return sorted((get(r, "real_dim"),
                   -1 if get(r, "toledo") is None else abs(get(r, "toledo")),
                   get(r, "h1_dim")) for r in roots)


def _compare(errors: list, what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


def check_library_verdict(case, genus: int, report) -> list[str]:
    """Check a FlexibilityReport against the catalog table and closed forms."""
    errors: list[str] = []
    want_verdict = case.expected_verdict if genus == 2 else "flexible"
    _compare(errors, "verdict", report.verdict, want_verdict)
    _compare(errors, "centralizer_dim", report.centralizer_dim, case.centralizer_dim)
    _compare(errors, "center_dim", report.center_dim, case.center_dim)
    _compare(errors, "roots (real_dim, |T|, h1)", root_table(report.roots),
             expected_root_table(case, genus))
    return errors


def check_cli(case, sub: str, code: int, report: dict) -> list[str]:
    """Check one genus-2 CLI report: the exit code, then the fields."""
    errors: list[str] = []
    want_code = 10 if sub == "verdict" and case.expected_verdict == "rigid" else 0
    _compare(errors, "exit code", code, want_code)
    want_roots = expected_root_table(case, 2)
    if sub == "decompose":
        _compare(errors, "centralizer_dim", report["centralizer_dim"], case.centralizer_dim)
        _compare(errors, "torus_dim", report["torus_dim"], case.center_dim)
        _compare(errors, "root dims", sorted(r["real_dim"] for r in report["roots"]),
                 [dim for dim, _, _ in want_roots])
    elif sub == "cohomology":
        zdim, gdim = case.centralizer_dim, group_dim(case)
        adj = report["adjoint"]
        _compare(errors, "adjoint (h0, h1, h2)", (adj["h0"], adj["h1"], adj["h2"]),
                 (zdim, 2 * zdim + 2 * gdim, zdim))
        _compare(errors, "root modules (dim, h0, h1, h2)",
                 sorted((r["dim"], r["h0"], r["h1"], r["h2"]) for r in report["root_modules"]),
                 [(dim, 0, h1, 0) for dim, _, h1 in want_roots])
    elif sub == "balanced":
        _compare(errors, "balanced", report["balanced"], case.expected_verdict == "flexible")
        _compare(errors, "torus_dim", report["torus_dim"], case.center_dim)
    else:   # verdict and toledo both list Toledo data per root
        if sub == "verdict":
            _compare(errors, "verdict", report["verdict"], case.expected_verdict)
            _compare(errors, "centralizer_dim", report["centralizer_dim"], case.centralizer_dim)
            _compare(errors, "center_dim", report["center_dim"], case.center_dim)
        _compare(errors, "roots (real_dim, |T|, h1)", root_table(report["roots"]), want_roots)
        for r in report["roots"]:
            if r["definite"]:
                _compare(errors, "definite root Milnor-Wood slack", r["milnor_wood_slack"], 0)
    return errors


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Item:
    """One operation's input; ``images`` is None for CLI items."""

    label: str
    case: object
    genus: int
    images: tuple | None = None
    sub: str | None = None


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**32, *stream])


def expm(x: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the Taylor series."""
    norm = float(np.abs(x).sum(axis=1).max(initial=0.0))
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.5))))
    y = x / 2.0 ** squarings
    out = term = np.eye(x.shape[0])
    for k in range(1, 20):
        term = term @ y / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def computable_cases() -> list:
    return [case for case in fc.default_cases() if case.computable]


class Workload:
    """Items grouped into rounds; every round runs the same multiset of kinds."""

    name = ""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.items: list[Item] = []

    def round_items(self, r: int) -> list[Item]:
        """Every item once, in an order drawn from the seed and the round."""
        return [self.items[i] for i in _rng(self.seed, r).permutation(len(self.items))]

    def run(self, item: Item, tracer=None):
        raise NotImplementedError

    def check(self, item: Item, outcome) -> list[str]:
        raise NotImplementedError

    def plant_wrong(self, outcome):
        """Corrupt a successful outcome so that check() must reject it."""
        raise NotImplementedError


class CliCatalog(Workload):
    name = "cli-catalog"

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.items = [Item(f"{sub} {case.name}", case, 2, sub=sub)
                      for case in computable_cases() for sub in SUBCOMMANDS]

    def run(self, item: Item, tracer=None):
        args = [item.sub, "--catalog", item.case.name, "--format", "json"]
        if tracer is None:
            cmd = [sys.executable, "-c", CLI_SHIM, *args]
        else:
            spans_file = tracer.child_spans_path()
            cmd = [sys.executable, str(self.root / "perfbench" / "traced_cli.py"),
                   str(spans_file), *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=self.root,
                              timeout=CLI_TIMEOUT_S)
        if tracer is not None:
            tracer.merge_child(spans_file)
        if proc.returncode not in (0, 10):
            last = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            raise RuntimeError(f"exit {proc.returncode}: {last[0]}")
        return proc.returncode, json.loads(proc.stdout)

    def check(self, item: Item, outcome) -> list[str]:
        code, report = outcome
        return check_cli(item.case, item.sub, code, report)

    def plant_wrong(self, outcome):
        code, report = outcome
        return 10 - code, report


class LibraryWorkload(Workload):
    """Problem to verdict from raw matrices: build_classical,
    surface_representation, verdict."""

    def run(self, item: Item, tracer=None):
        group = fc.build_classical(item.case.family, item.case.m, 1)
        rep = fc.surface_representation(fc.standard_presentation(item.genus), group,
                                        list(item.images))
        return fc.verdict(rep)

    def check(self, item: Item, outcome) -> list[str]:
        return check_library_verdict(item.case, item.genus, outcome)

    def plant_wrong(self, outcome):
        flipped = "rigid" if outcome.verdict == "flexible" else "flexible"
        return dataclasses.replace(outcome, verdict=flipped)


class Conjugates(LibraryWorkload):
    """Global conjugates g rho g^-1 with g = exp(X), X in the model.

    X has normal coefficients times a scale from CONJUGATE_SCALES.  The
    conjugators come from a fixed stream, not from the seed: at the upper
    scales some conjugates abort on the relator tolerance, and a fixed set
    keeps that share, and the work it skips, the same in every run.  The
    seed sets the order of the operations in each round.
    """

    name = "conjugates"

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        rng = _rng(CONJUGATOR_STREAM)
        for case in computable_cases():
            rep = fc.build_case_representation(case.name)
            for scale in CONJUGATE_SCALES:
                g = expm(rep.model.matrix(scale * rng.standard_normal(rep.model.dim)))
                ginv = np.linalg.inv(g)
                images = tuple(g @ a @ ginv for a in rep.images)
                self.items.append(Item(f"{case.name} scale {scale}", case, 2, images))


class GenusSweep(LibraryWorkload):
    """Catalog representations with extra handles pinched to the identity.

    The seed places the two genus-2 handles among the g handle slots; a
    commutator of identities is the identity, so the relator still holds.
    """

    name = "genus-sweep"

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        rng = _rng(seed)
        bases = {name: fc.build_case_representation(name) for name, _ in GENUS_SWEEP}
        for name, genus in GENUS_SWEEP:
            rep = bases[name]
            ident = np.eye(rep.images[0].shape[0])
            slots = sorted(rng.choice(genus, size=2, replace=False))
            images = [ident] * (2 * genus)
            for handle, slot in enumerate(slots):
                images[2 * slot : 2 * slot + 2] = rep.images[2 * handle : 2 * handle + 2]
            self.items.append(Item(f"{name} genus {genus}", fc.find_case(name), genus,
                                   tuple(images)))


WORKLOADS = {w.name: w for w in (CliCatalog, Conjugates, GenusSweep)}
