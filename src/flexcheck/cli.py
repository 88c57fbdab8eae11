"""Command-line front end.

Subcommands: decompose, cohomology, toledo, balanced, verdict, catalog.
Problems come from --catalog NAME or --input FILE (JSON; schema shipped at
flexcheck/schema/problem_spec.schema.json).  Exit codes: 0 success (and
"flexible" for verdict), 10 rigid, 11 inconclusive, 2 parse error, 3
numerical abort.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from . import __version__
from .config import DEFAULT, FlexcheckError, Inconclusive, NumericalAbort, ParseError, seed_from_env
from .catalog import build_case_representation, default_cases, find_case
from .engine import Pipeline, verdict
from .liealg import build_classical
from .scalars import Field, Quaternion, realify
from .surface import cohomology, standard_module, standard_presentation, surface_representation
from .toledo import symplectic_form_report

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_RIGID = 10
EXIT_INCONCLUSIVE = 11


def schema_path() -> str:
    return str(resources.files("flexcheck").joinpath("schema/problem_spec.schema.json"))


def round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _cnum(z: complex) -> list[float]:
    return [round12(z.real), round12(z.imag)]


# ---------------------------------------------------------------------------
# Problem loading
# ---------------------------------------------------------------------------

def _parse_entry(entry, field: Field, where: str):
    try:
        comps = [float(c) for c in entry]
    except (TypeError, ValueError):
        raise ParseError(f"{where}: entry must be a list of numbers, got {entry!r}")
    if not all(math.isfinite(c) for c in comps):
        raise ParseError(f"{where}: entry must be finite, got {entry!r}")
    want = field.dim
    if len(comps) != want:
        raise ParseError(f"{where}: expected {want} component(s) for field "
                         f"{field.value}, got {len(comps)}")
    if field is Field.REAL:
        return comps[0]
    if field is Field.COMPLEX:
        return complex(comps[0], comps[1])
    return Quaternion(*comps)


def _parse_matrix(rows, field: Field, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{where}: matrix must be a non-empty list of rows")
    n = len(rows)
    entries = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{where}: row {i} must have {n} entries")
        entries.append([_parse_entry(entry, field, f"{where}[{i}][{j}]")
                        for j, entry in enumerate(row)])
    return realify(entries, field)


def _int(value, where: str) -> int:
    # a JSON integer, or a float with an integral value; int() would also take
    # the strings "2" and the booleans, truncate 2.5 and overflow on the inf
    # that JSON reads for 1e400
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParseError(f"{where} must be an integer, got {value!r}")


def _tolerance(value, where: str) -> float:
    # a JSON true is an int to isinstance, and would run as 1.0
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0):
        return float(value)
    raise ParseError(f"{where} must be a positive finite number, got {value!r}")


def load_problem(args) -> dict:
    """Resolve CLI flags / input file into a problem description."""
    tol = DEFAULT.with_seed(seed_from_env(0))
    if args.seed is not None:
        tol = tol.with_seed(args.seed)
    if args.tol_rank is not None:
        tol = replace(tol, rank=_tolerance(args.tol_rank, "--tol-rank"))
    if args.tol_cluster is not None:
        tol = replace(tol, cluster=_tolerance(args.tol_cluster, "--tol-cluster"))

    if args.catalog and args.input:
        raise ParseError("give either --catalog or --input, not both")
    if args.catalog:
        rep = build_case_representation(args.catalog, genus=args.genus, tol=tol)
        return {"rep": rep, "tol": tol, "source": f"catalog:{args.catalog}"}
    if not args.input:
        raise ParseError("a problem is required: --catalog NAME or --input FILE")

    try:
        with open(args.input) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {args.input}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.input}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")

    if not isinstance(doc, dict):
        raise ParseError("a problem must be a JSON object")
    if "seed" in doc and args.seed is None:
        tol = tol.with_seed(_int(doc["seed"], "seed"))
    tols = doc.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ParseError("tolerances must be an object")
    for key in ("rank", "cluster"):
        if key in tols:
            tol = replace(tol, **{key: _tolerance(tols[key], f"tolerances.{key}")})

    group = doc.get("group")
    if not isinstance(group, dict) or not isinstance(group.get("family"), str):
        raise ParseError("problem needs group: {family, params}")
    family = group["family"]
    params = group.get("params", [])
    if not isinstance(params, list):
        raise ParseError("group.params must be a list of integers")
    params = [_int(p, "group.params entry") for p in params]
    genus = _int(doc.get("genus", args.genus), "genus")

    repdoc = doc.get("representation")
    if not isinstance(repdoc, dict):
        raise ParseError("problem needs a representation object")
    source = repdoc.get("source")
    if source == "catalog":
        case = find_case(repdoc.get("case"))
        rep = build_case_representation(case, genus=genus, tol=tol)
        return {"rep": rep, "tol": tol, "source": f"catalog:{case.name}"}
    if source != "matrices":
        raise ParseError(f"unknown representation source {source!r}")

    try:
        model = build_classical(family, *params, tol=tol)
    except FlexcheckError as exc:
        raise ParseError(str(exc))
    field = Field.parse(repdoc.get("field", model.field.value))
    if field is not model.field:
        raise ParseError(f"field {field.value} does not match group family {family}")
    gens = repdoc.get("generators")
    if not isinstance(gens, list) or len(gens) != 2 * genus:
        raise ParseError(f"need {2 * genus} generator matrices for genus {genus}")
    images = [_parse_matrix(g, field, f"generators[{i}]") for i, g in enumerate(gens)]
    for i, g in enumerate(images):
        if g.shape[0] != model.realified_size:
            raise ParseError(
                f"generators[{i}]: realified size {g.shape[0]} does not match "
                f"{model.name} ({model.realified_size})")
    central_lift = repdoc.get("central_lift", False)
    if not isinstance(central_lift, bool):      # bool("false") is True
        raise ParseError(f"representation.central_lift must be a boolean, got {central_lift!r}")
    rep = surface_representation(
        standard_presentation(genus), model, images, central_lift=central_lift, tol=tol)
    return {"rep": rep, "tol": tol, "source": "matrices"}


# ---------------------------------------------------------------------------
# Report assembly (fixed field order, floats rounded to 12 significant digits)
# ---------------------------------------------------------------------------

def _provenance(problem) -> dict:
    tol = problem["tol"]
    return {
        "tool": "flexcheck",
        "version": __version__,
        "source": problem["source"],
        "seed": tol.seed,
        "tolerances": {"rank": round12(tol.rank), "cluster": round12(tol.cluster),
                       "relator": round12(tol.relator), "gram": round12(tol.gram)},
    }


def _header(problem) -> dict:
    rep = problem["rep"]
    return {"provenance": _provenance(problem), "group": rep.model.name,
            "genus": rep.presentation.genus}


def _decomposition_report(problem) -> dict:
    pipe = Pipeline(problem["rep"], problem["tol"])
    roots = [{"values": [_cnum(v) for v in r.values], "classification": r.classification,
              "complex_dim": r.complex_dim, "real_dim": r.real_dim,
              "t_vector": [_cnum(v) for v in r.t_vector]} for r in pipe.decomposition.roots]
    return {
        **_header(problem),
        "centralizer_dim": pipe.z.dim,
        "torus_dim": pipe.center.dim,
        "g0_dim": pipe.decomposition.g0_dim,
        "roots": roots,
    }


def _cohomology_report(problem) -> dict:
    pipe = Pipeline(problem["rep"], problem["tol"])
    roots = pipe.decomposition.roots    # the center first: non-reductive input is inconclusive
    ws = cohomology(pipe.rep, pipe.adjoint, pipe.tol)
    adjoint = {"h0": ws.h0_dim, "h1": ws.h1_dim, "h2": ws.h2_dim,
               "z1": int(ws.z1.shape[1]), "b1": int(ws.b1.shape[1])}
    roots = [{"values": [_cnum(v) for v in r.values], "dim": r.real_dim,
              "h0": w.h0_dim, "h1": w.h1_dim, "h2": w.h2_dim}
             for r, w in zip(roots, pipe.workspaces)]
    return {**_header(problem), "adjoint": adjoint, "root_modules": roots}


def _standard_module_report(problem) -> dict:
    """Meyer signature of the standard symplectic module (real 2x2 / sp(2n,R))."""
    rep = problem["rep"]
    tol = problem["tol"]
    model = rep.model
    if model.family == "sl" and model.ambient == 2:
        omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    elif model.family == "spr":
        omega = model.form
    else:
        raise ParseError(
            "--standard-module needs an sl(2,R) or sp(2n,R) ambient group")
    form = symplectic_form_report(cohomology(rep, standard_module(rep), tol), omega, tol)
    return {
        **_header(problem),
        "module": "standard",
        "h1_dim": form.h1_dim,
        "signature": form.signature,
        "toledo": form.toledo,
        "milnor_wood_bound": -rep.presentation.euler_characteristic * form.module_dim,
        "milnor_wood_slack": form.milnor_wood_slack,
    }


def _toledo_report(problem, root_index: int | None) -> dict:
    pipe = Pipeline(problem["rep"], problem["tol"])
    n = len(pipe.decomposition.roots)
    chi = pipe.rep.presentation.euler_characteristic
    if root_index is not None and not (0 <= root_index < n):
        raise ParseError(f"--root {root_index} out of range; decomposition has {n} root(s)")
    entries = []
    for rr in pipe.forms if root_index is None else (pipe.forms[root_index],):
        r = rr.root
        entries.append({
            "values": [_cnum(v) for v in r.values],
            "classification": r.classification,
            "real_dim": r.real_dim,
            "h1_dim": rr.h1_dim,
            "signature": rr.signature,
            "toledo": rr.toledo,
            "definite": rr.definite,
            "milnor_wood_bound": -chi * r.real_dim,
            "milnor_wood_slack": rr.milnor_wood_slack,
            "status": rr.status,
        })
    return {**_header(problem), "roots": entries}


def _balanced_report(problem) -> dict:
    pipe = Pipeline(problem["rep"], problem["tol"])
    forms, in_p, n_values, _ = pipe.split
    return {
        "provenance": _provenance(problem),
        "group": pipe.rep.model.name,
        "torus_dim": pipe.center.dim,
        "P": [[_cnum(v) for v in rr.root.values] for rr, member in zip(forms, in_p) if member],
        "N": [[_cnum(v) for v in vals] for vals in n_values],
        "balanced": pipe.balance.balanced,
        "quotient_dim": pipe.balance.quotient_dim,
        "certificate": _round_cert(pipe.balance.certificate()),
    }


def _round_cert(cert: dict) -> dict:
    out = {"kind": cert["kind"]}
    for key in ("multipliers", "functional"):
        if cert.get(key) is not None:
            out[key] = [round12(x) for x in cert[key]]
    return out


def _verdict_report(problem) -> dict:
    rv = verdict(problem["rep"], problem["tol"])
    # a root's fields in RootSummary order, with the values rounded
    roots = [{**vars(r), "values": [_cnum(v) for v in r.values]} for r in rv.roots]
    return {
        **_header(problem),
        "genus_threshold": rv.genus_threshold,
        "centralizer_dim": rv.centralizer_dim,
        "reductive": rv.reductive,
        "center_dim": rv.center_dim,
        "roots": roots,
        "balanced": None if rv.balance is None else rv.balance.balanced,
        "certificate": None if rv.balance is None else _round_cert(rv.balance.certificate()),
        "verdict": rv.verdict,
        "caveats": list(rv.caveats),
        "message": rv.message,
    }


REPORTS = {"decompose": _decomposition_report, "cohomology": _cohomology_report,
           "balanced": _balanced_report, "verdict": _verdict_report}


def _catalog_report() -> dict:
    rows = []
    for case in default_cases():
        rows.append({
            "name": case.name,
            "family": case.family,
            "m": case.m,
            "stabilized": case.stabilized,
            "computable": case.computable,
            "centralizer": case.centralizer_name,
            "centralizer_dim": case.centralizer_dim,
            "center_dim": case.center_dim,
            "expected_verdict": case.expected_verdict,
            "note": case.note,
        })
    return {"tool": "flexcheck", "version": __version__,
            "schema": schema_path(), "cases": rows}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_json(report: dict) -> str:
    return json.dumps(report, indent=2)


def _fmt_values(values) -> str:
    return ", ".join(f"{re:+.6g}{im:+.6g}i" for re, im in values)


def render_text(command: str, report: dict) -> str:
    lines = []
    if command == "catalog":
        lines.append(f"flexcheck {report['version']} catalog (schema: {report['schema']})")
        for c in report["cases"]:
            mark = "" if c["computable"] else "  [documented, not computed]"
            lines.append(
                f"  {c['name']:14s} Z = {c['centralizer']:18s} dim {c['centralizer_dim']:2d}"
                f"  center {c['center_dim']}  expected {c['expected_verdict']}{mark}")
        return "\n".join(lines)

    prov = report.get("provenance", {})
    lines.append(f"flexcheck {prov.get('version', '')} {command} on {report.get('group', '')} "
                 f"(genus {report.get('genus', '?')}, seed {prov.get('seed')})")
    if command == "decompose":
        lines.append(f"centralizer dim {report['centralizer_dim']}, torus dim "
                     f"{report['torus_dim']}, g0 dim {report['g0_dim']}")
        if not report["roots"]:
            lines.append("no roots")
        for r in report["roots"]:
            lines.append(f"  root [{_fmt_values(r['values'])}] {r['classification']}: "
                         f"dim_C {r['complex_dim']}, real dim {r['real_dim']}, "
                         f"t_lambda [{_fmt_values(r['t_vector'])}]")
    elif command == "cohomology":
        a = report["adjoint"]
        lines.append(f"adjoint module: h0 {a['h0']}, h1 {a['h1']}, h2 {a['h2']}, "
                     f"z1 {a['z1']}, b1 {a['b1']}")
        for r in report["root_modules"]:
            lines.append(f"  root [{_fmt_values(r['values'])}] dim {r['dim']}: "
                         f"h0 {r['h0']}, h1 {r['h1']}, h2 {r['h2']}")
    elif command == "toledo" and "module" in report:
        lines.append(f"standard module: h1 {report['h1_dim']}, signature "
                     f"{report['signature']}, T {report['toledo']}, "
                     f"MW slack {report['milnor_wood_slack']}")
    elif command == "toledo":
        for r in report["roots"]:
            sig = "n/a" if r["signature"] is None else r["signature"]
            tol_ = "n/a" if r["toledo"] is None else r["toledo"]
            lines.append(f"  root [{_fmt_values(r['values'])}] {r['classification']}, "
                         f"dim {r['real_dim']}, h1 {r['h1_dim']}: signature {sig}, "
                         f"T {tol_}, definite {r['definite']}, "
                         f"MW slack {r['milnor_wood_slack']} ({r['status']})")
    elif command == "balanced":
        lines.append(f"torus dim {report['torus_dim']}, quotient dim {report['quotient_dim']}")
        lines.append(f"P vectors: {len(report['P'])}, N roots: {len(report['N'])}")
        lines.append(f"balanced: {report['balanced']} ({report['certificate']})")
    elif command == "verdict":
        lines.append(f"centralizer dim {report['centralizer_dim']} "
                     f"(reductive: {report['reductive']}), center dim {report['center_dim']}")
        for r in report["roots"]:
            lines.append(f"  root [{_fmt_values(r['values'])}] {r['classification']}, "
                         f"dim {r['real_dim']}: T {r['toledo']}, definite {r['definite']}, "
                         f"slack {r['milnor_wood_slack']}, in P: {r['in_P']}")
        lines.append(f"balanced: {report['balanced']}")
        for c in report["caveats"]:
            lines.append(f"caveat: {c}")
        lines.append(f"verdict: {report['verdict']} -- {report['message']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--catalog", help="catalog case name (see `flexcheck catalog`)")
    sub.add_argument("--input", help="problem description JSON file")
    sub.add_argument("--genus", type=int, default=2)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--tol-rank", type=float, default=None)
    sub.add_argument("--tol-cluster", type=float, default=None)
    sub.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexcheck",
        description="Flexibility vs. rigidity of surface-group representations",
        epilog=f"Problem JSON schema: {schema_path()}")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("decompose", "cohomology", "toledo", "balanced", "verdict"):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "toledo":
            sub.add_argument("--root", type=int, default=None,
                             help="root index (default: all roots)")
            sub.add_argument("--standard-module", action="store_true",
                             help="Meyer signature of the standard symplectic module")
    cat = subs.add_parser("catalog")
    cat.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "catalog":
            report = _catalog_report()
        elif args.command == "toledo":
            problem = load_problem(args)
            report = (_standard_module_report(problem) if args.standard_module
                      else _toledo_report(problem, args.root))
        else:
            report = REPORTS[args.command](load_problem(args))
    except (NumericalAbort, np.linalg.LinAlgError) as exc:
        print(f"flexcheck: numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Inconclusive as exc:             # decompose, cohomology, toledo, balanced
        print(f"flexcheck: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except FlexcheckError as exc:           # ParseError and other input errors
        print(f"flexcheck: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    text = render_json(report) if args.format == "json" else render_text(args.command, report)
    print(text)
    if args.command == "verdict":
        return {"flexible": EXIT_OK, "rigid": EXIT_RIGID,
                "inconclusive": EXIT_INCONCLUSIVE}[report["verdict"]]
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
