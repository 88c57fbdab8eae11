"""Command-line front end.

Subcommands: decompose, cohomology, toledo, balanced, verdict, catalog.
Problems come from --catalog NAME or --input FILE (JSON, checked against the
schema shipped at flexcheck/schema/problem_spec.schema.json).  Exit codes: 0
success (and "flexible" for verdict), 10 rigid, 11 inconclusive, 2 parse
error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from . import __version__
from .config import DEFAULT, RELATOR, FlexcheckError, Inconclusive, NumericalAbort, ParseError
from .catalog import build_case_representation, default_cases
from .engine import Pipeline, verdict
from .liealg import build_classical
from .scalars import Field, realify
from .surface import standard_presentation, surface_representation
from .toledo import standard_form

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_RIGID = 10
EXIT_INCONCLUSIVE = 11
# a verdict report's exit code; every other report exits EXIT_OK
VERDICT_EXIT = {"flexible": EXIT_OK, "rigid": EXIT_RIGID, "inconclusive": EXIT_INCONCLUSIVE}


def schema_path() -> str:
    return str(resources.files("flexcheck").joinpath("schema/problem_spec.schema.json"))


def round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _cnum(z: complex) -> list[float]:
    return [round12(z.real), round12(z.imag)]


# ---------------------------------------------------------------------------
# Problem loading
# ---------------------------------------------------------------------------

# The JSON types the schema names: each one's name in errors, and its test.
# Python's json reads NaN, Infinity and 1e400, none of which is a JSON number.
_JSON_TYPES = {
    "object": ("a JSON object", lambda v: isinstance(v, dict)),
    "array": ("an array", lambda v: isinstance(v, list)),
    "boolean": ("a boolean", lambda v: isinstance(v, bool)),
    "integer": ("an integer", lambda v: (isinstance(v, int) and not isinstance(v, bool))
                or (isinstance(v, float) and v.is_integer())),
    "number": ("a finite number", lambda v: isinstance(v, (int, float))
               and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
}


def _validate(value, schema: dict, where: str = "") -> None:
    """Raise ParseError naming the path and the first rule of ``schema`` that ``value`` breaks.

    Implements the keywords problem_spec.schema.json uses: type, enum,
    minimum, additionalProperties (false only), required, properties,
    minItems, maxItems and items.  Annotations such as description state no rule.
    """
    name = where or "problem"
    if "type" in schema:
        article, test = _JSON_TYPES[schema["type"]]
        if not test(value):
            raise ParseError(f"{name} must be {article}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        hint = f" ({schema['description']})" if "description" in schema else ""
        raise ParseError(f"{name} must be one of {', '.join(map(repr, schema['enum']))}, "
                         f"got {value!r}{hint}")
    if "minimum" in schema and value < schema["minimum"]:
        raise ParseError(f"{name} must be at least {schema['minimum']!r}, got {value!r}")
    props = schema.get("properties", {})
    if schema.get("additionalProperties") is False:
        for key in value:
            if key not in props:
                raise ParseError(f"{name}: unknown key {key!r}; known keys are {', '.join(props)}")
    for key in schema.get("required", ()):
        if key not in value:
            raise ParseError(f"{name} needs the key {key!r}")
    for key, sub in props.items():
        if key in value:
            _validate(value[key], sub, f"{where}.{key}" if where else key)
    if "minItems" in schema and len(value) < schema["minItems"]:
        raise ParseError(f"{name} must have at least {schema['minItems']} item(s), "
                         f"got {len(value)}")
    if "maxItems" in schema and len(value) > schema["maxItems"]:
        raise ParseError(f"{name} must have at most {schema['maxItems']} item(s), got {len(value)}")
    for i, item in enumerate(value if "items" in schema else ()):
        _validate(item, schema["items"], f"{name}[{i}]")


def _parse_matrix(rows: list, field: Field, where: str) -> np.ndarray:
    """Realify a schema-valid generator once it is square with field.dim components per entry."""
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise ParseError(f"{where}: row {i} must have {len(rows)} entries")
        for j, comps in enumerate(row):
            if len(comps) != field.dim:
                raise ParseError(f"{where}[{i}][{j}]: expected {field.dim} component(s) for "
                                 f"field {field.value}, got {len(comps)}")
    return realify(np.array(rows, float), field)


def load_problem(args) -> tuple[Pipeline, str]:
    """Resolve CLI flags / input file into the problem's pipeline and its source."""
    tol = DEFAULT
    if args.tol_rank is not None:
        tol = replace(tol, rank=args.tol_rank)
    if args.tol_cluster is not None:
        tol = replace(tol, cluster=args.tol_cluster)

    if args.catalog and args.input:
        raise ParseError("give either --catalog or --input, not both")
    if args.catalog:
        rep = build_case_representation(args.catalog, tol=tol)
        return Pipeline(rep, tol), f"catalog:{args.catalog}"
    if not args.input:
        raise ParseError("a problem is required: --catalog NAME or --input FILE")

    try:
        with open(args.input, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {args.input}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.input}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.input}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    except ValueError as exc:       # an integer literal past int's 4300-digit limit
        raise ParseError(f"{args.input}: invalid JSON ({exc})")
    with open(schema_path(), encoding="utf-8") as fh:
        _validate(doc, json.load(fh))

    # the schema holds from here on; what follows are the rules it cannot state
    for key, value in doc.get("tolerances", {}).items():
        tol = replace(tol, **{key: float(value)})
    family = doc["group"]["family"]
    repdoc = doc["representation"]
    # without a genus key, half the generator count; surface_representation rejects an odd one
    genus = int(doc.get("genus", len(repdoc["generators"]) // 2))
    try:
        model = build_classical(family, *map(int, doc["group"].get("params", [])), tol=tol)
    except FlexcheckError as exc:
        raise ParseError(str(exc))
    field = repdoc.get("field", model.field.value)
    if field != model.field.value:
        raise ParseError(f"field {field} does not match group family {family}")
    images = [_parse_matrix(g, model.field, f"representation.generators[{i}]")
              for i, g in enumerate(repdoc["generators"])]
    rep = surface_representation(standard_presentation(genus), model, images,
                                 central_lift=repdoc.get("central_lift", False))
    return Pipeline(rep, tol), "matrices"


# ---------------------------------------------------------------------------
# Report assembly (fixed field order, floats rounded to 12 significant digits)
# ---------------------------------------------------------------------------

def _header(pipe, source: str) -> dict:
    tol = pipe.tol
    return {
        "provenance": {
            "tool": "flexcheck",
            "version": __version__,
            "source": source,
            "tolerances": {"rank": round12(tol.rank), "cluster": round12(tol.cluster),
                           "relator": round12(RELATOR)},
        },
        "group": pipe.rep.model.name,
        "genus": pipe.rep.presentation.genus,
    }


def _decomposition_report(pipe, args) -> dict:
    roots = [{"values": [_cnum(v) for v in r.values], "classification": r.classification,
              "complex_dim": r.complex_dim, "real_dim": r.real_dim,
              "t_vector": [_cnum(v) for v in r.t_vector]} for r in pipe.decomposition.roots]
    return {
        "centralizer_dim": pipe.z.dim,
        "torus_dim": pipe.center.dim,
        "g0_dim": pipe.decomposition.g0_dim,
        "roots": roots,
    }


def _cohomology_report(pipe, args) -> dict:
    roots = pipe.decomposition.roots    # the center first: non-reductive input is inconclusive
    # H^0 of the adjoint module is the centralizer, and H^2 its dual by the
    # nondegenerate Killing form; the Euler characteristic gives h1.  A root
    # module meets no centralizer (the decomposition checks that it lies in
    # g_0), so its H^0 and H^2 vanish and h1 = -chi dim
    h0, dim = pipe.z.dim, pipe.rep.model.dim
    chi = pipe.rep.presentation.euler_characteristic
    h1 = 2 * h0 - chi * dim
    adjoint = {"h0": h0, "h1": h1, "h2": h0, "z1": h1 + dim - h0, "b1": dim - h0}
    roots = [{"values": [_cnum(v) for v in r.values], "dim": r.real_dim,
              "h0": 0, "h1": -chi * r.real_dim, "h2": 0} for r in roots]
    return {"adjoint": adjoint, "root_modules": roots}


def _root_entry(rr, *keys: str) -> dict:
    """The fields the toledo and verdict reports share for one root, then ``keys`` of ``rr``."""
    return {"values": [_cnum(v) for v in rr.root.values], "classification": rr.classification,
            "real_dim": rr.real_dim, "h1_dim": rr.h1_dim, "signature": rr.signature,
            "toledo": rr.toledo, "definite": rr.definite, **{k: getattr(rr, k) for k in keys}}


def _toledo_report(pipe, args) -> dict:
    if args.standard_module:            # T of the standard symplectic module
        model = pipe.rep.model
        if model.family == "sl" and model.ambient == 2:
            omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
        elif model.family == "spr":
            omega = model.form
        else:
            raise ParseError(
                "--standard-module needs an sl(2,R) or sp(2n,R) ambient group")
        form = standard_form(pipe.rep, omega, pipe.tol)
        return {
            "module": "standard",
            "h1_dim": form.h1_dim,
            "signature": form.signature,
            "toledo": form.toledo,
            "milnor_wood_bound": form.milnor_wood_bound,
            "milnor_wood_slack": form.milnor_wood_slack,
        }
    n = len(pipe.decomposition.roots)
    if args.root is not None and not (0 <= args.root < n):
        raise ParseError(f"--root {args.root} out of range; decomposition has {n} root(s)")
    forms = pipe.forms if args.root is None else (pipe.forms[args.root],)
    return {"roots": [
        _root_entry(rr, "milnor_wood_bound", "milnor_wood_slack") for rr in forms]}


def _certificate(balance) -> dict:
    """The balance decision's certificate, rounded: its multipliers, or its separating functional."""
    if balance.balanced:
        kind, key, values = "multipliers", "multipliers", balance.multipliers
    else:
        kind, key, values = "separating_functional", "functional", balance.separating
    return {"kind": kind} if values is None else {"kind": kind, key: [round12(x) for x in values]}


def _balanced_report(pipe, args) -> dict:
    forms, n_values, _ = pipe.split
    return {
        "torus_dim": pipe.center.dim,
        "P": [[_cnum(v) for v in rr.root.values] for rr in forms if rr.in_P],
        "N": [[_cnum(v) for v in vals] for vals in n_values],
        "balanced": pipe.balance.balanced,
        "quotient_dim": pipe.balance.quotient_dim,
        "certificate": _certificate(pipe.balance),
    }


def _verdict_report(pipe, args) -> dict:
    rv = verdict(pipe.rep, pipe.tol)
    roots = [_root_entry(rr, "milnor_wood_slack", "in_P") for rr in rv.roots]
    return {
        "genus_threshold": rv.genus_threshold,
        "centralizer_dim": rv.centralizer_dim,
        "reductive": rv.reductive,
        "center_dim": rv.center_dim,
        "roots": roots,
        "balanced": None if rv.balance is None else rv.balance.balanced,
        "certificate": None if rv.balance is None else _certificate(rv.balance),
        "verdict": rv.verdict,
        "caveats": list(rv.caveats),
        "message": rv.message,
    }


# Each problem subcommand's report body, (pipeline, args) -> dict, in help order.
REPORTS = {"decompose": _decomposition_report, "cohomology": _cohomology_report,
           "toledo": _toledo_report, "balanced": _balanced_report, "verdict": _verdict_report}


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

    lines.append(f"flexcheck {report['provenance']['version']} {command} on {report['group']} "
                 f"(genus {report['genus']})")
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
                         f"MW slack {r['milnor_wood_slack']}")
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
    for name in REPORTS:
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "toledo":
            view = sub.add_mutually_exclusive_group()
            view.add_argument("--root", type=int, default=None,
                              help="root index (default: all roots)")
            view.add_argument("--standard-module", action="store_true",
                              help="Toledo invariant of the standard symplectic module")
    cat = subs.add_parser("catalog")
    cat.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "catalog":
            report = _catalog_report()
        else:
            pipe, source = load_problem(args)
            report = {**_header(pipe, source), **REPORTS[args.command](pipe, args)}
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
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone: keep the report's exit code, and point stdout
        # at devnull so that the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return VERDICT_EXIT.get(report.get("verdict"), EXIT_OK)


if __name__ == "__main__":
    sys.exit(main())
