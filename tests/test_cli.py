import json
import os
import subprocess
import sys

import numpy as np
import pytest

import flexcheck
from flexcheck.cli import main, round12, schema_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verdict_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verdict", "--catalog", "su21-cline")
    assert code == 10 and "rigid" in out
    code, out, _ = run_cli(capsys, "verdict", "--catalog", "so41-rplane")
    assert code == 0 and "flexible" in out


def _write_parabolic(tmp_path):
    """Unipotent generators: the centralizer is not reductive."""
    doc = {
        "group": {"family": "sl", "params": [2]},
        "genus": 2,
        "representation": {
            "source": "matrices",
            "field": "R",
            "generators": [
                [[[1.0], [t]], [[0.0], [1.0]]] for t in (1.0, 2.0, 3.0, 5.0)
            ],
        },
    }
    path = tmp_path / "parabolic.json"
    path.write_text(json.dumps(doc))
    return path


def test_verdict_inconclusive_exit_code(tmp_path, capsys):
    path = _write_parabolic(tmp_path)
    code, out, _ = run_cli(capsys, "verdict", "--input", str(path))
    assert code == 11 and "inconclusive" in out


@pytest.mark.parametrize("command", ["decompose", "cohomology", "toledo", "balanced", "verdict"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_non_reductive_input_is_inconclusive_everywhere(tmp_path, capsys, command, fmt):
    path = _write_parabolic(tmp_path)
    code, out, err = run_cli(capsys, command, "--input", str(path), "--format", fmt)
    assert code == 11
    message = "the Killing form degenerates on the centralizer"
    if command == "verdict":
        assert message in out and err == ""
    else:
        assert out == "" and err.startswith("flexcheck: inconclusive: ") and message in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "verdict", "--input", str(path))
    assert code == 2 and "parse error" in err
    code, _, err = run_cli(capsys, "verdict", "--catalog", "nope-nope")
    assert code == 2


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run_cli(capsys, "verdict", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("flexcheck: parse error: ") and "not UTF-8" in err


def test_malformed_matrix_entry(tmp_path, capsys):
    doc = {
        "group": {"family": "sl", "params": [2]},
        "genus": 2,
        "representation": {
            "source": "matrices",
            "field": "R",
            "generators": [[[["x"], [0.0]], [[0.0], [1.0]]]] * 4,
        },
    }
    path = tmp_path / "bad_entry.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verdict", "--input", str(path))
    assert code == 2 and "generators[0]" in err


def test_decompose_output(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--catalog", "su21-cline", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["torus_dim"] == 1 and doc["g0_dim"] == 4
    assert len(doc["roots"]) == 1
    assert doc["roots"][0]["real_dim"] == 4


def test_decompose_no_roots(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--catalog", "su21-rplane")
    assert code == 0 and "no roots" in out


def test_toledo_output(capsys):
    code, out, _ = run_cli(capsys, "toledo", "--catalog", "su21-cline", "--format", "json")
    doc = json.loads(out)
    assert doc["roots"][0]["toledo"] in (2, -2)
    assert doc["roots"][0]["milnor_wood_slack"] == 0


def test_balanced_output(capsys):
    code, out, _ = run_cli(capsys, "balanced", "--catalog", "so41-rplane", "--format", "json")
    doc = json.loads(out)
    assert doc["balanced"] is True
    code, out, _ = run_cli(capsys, "balanced", "--catalog", "su21-cline", "--format", "json")
    doc = json.loads(out)
    assert doc["balanced"] is False
    assert doc["certificate"]["kind"] == "separating_functional"


def test_json_roundtrip_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "verdict", "--catalog", "so41-rplane", "--format", "json")
    doc = json.loads(out)
    again = json.dumps(doc, indent=2) + "\n"
    assert again == out


def test_same_seed_same_bytes(capsys):
    code, out1, _ = run_cli(capsys, "verdict", "--catalog", "sp21-cline", "--format", "json", "--seed", "7")
    code, out2, _ = run_cli(capsys, "verdict", "--catalog", "sp21-cline", "--format", "json", "--seed", "7")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["provenance"]["seed"] == 7
    assert doc["provenance"]["version"]


def test_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("FLEXCHECK_SEED", "42")
    code, out, _ = run_cli(capsys, "decompose", "--catalog", "su21-rplane", "--format", "json")
    doc = json.loads(out)
    assert doc["provenance"]["seed"] == 42


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "su21-cline" in out and "rigid" in out
    assert "documented, not computed" in out
    code, out, _ = run_cli(capsys, "catalog", "--format", "json")
    doc = json.loads(out)
    assert any(row["name"] == "sp31-cline" for row in doc["cases"])


def test_explicit_matrix_input_matches_catalog(tmp_path, capsys):
    from flexcheck.surface import fuchsian_genus2
    rep = fuchsian_genus2()
    gens = [[[[round12(float(g[i, j]))] for j in range(2)] for i in range(2)]
            for g in rep.images]
    doc = {
        "group": {"family": "sl", "params": [2]},
        "genus": 2,
        "representation": {"source": "matrices", "field": "R", "generators": gens},
    }
    path = tmp_path / "fuchsian.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "cohomology", "--input", str(path), "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["adjoint"]["z1"] == 9 and parsed["adjoint"]["h0"] == 0


@pytest.mark.parametrize("case,family", [
    ("su21-cline", "su"), ("sp21-cline", "sp"), ("so41-rplane", "so")])
def test_field_matrix_input_matches_catalog(tmp_path, capsys, case, family):
    # each realified d x d block is left multiplication by an entry whose
    # components are the block's first column
    from flexcheck.catalog import build_case_representation, find_case
    rep = build_case_representation(case)
    d, n = rep.model.field.dim, rep.model.ambient
    gens = [[[[float(x) for x in g[d * i : d * i + d, d * j]] for j in range(n)]
             for i in range(n)] for g in rep.images]
    doc = {"group": {"family": family, "params": [find_case(case).m, 1]}, "genus": 2,
           "representation": {"source": "matrices", "field": rep.model.field.value,
                              "generators": gens}}
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verdict", "--input", str(path), "--format", "json")
    want_code, want, _ = run_cli(capsys, "verdict", "--catalog", case, "--format", "json")
    got, want = json.loads(out), json.loads(want)
    assert got["provenance"].pop("source") == "matrices"
    assert want["provenance"].pop("source") == f"catalog:{case}"
    assert code == want_code and got == want


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(flexcheck.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "flexcheck", "catalog", "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert any(row["name"] == "sp31-cline" for row in json.loads(proc.stdout)["cases"])


def test_schema_ships():
    assert os.path.exists(schema_path())
    with open(schema_path()) as fh:
        schema = json.load(fh)
    assert schema["title"].startswith("flexcheck")


def test_numerical_abort_exit_code(tmp_path, capsys):
    # valid JSON and sizes, but the relator fails: exit 3
    doc = {
        "group": {"family": "sl", "params": [2]},
        "genus": 2,
        "representation": {
            "source": "matrices",
            "field": "R",
            "generators": [
                [[[2.0], [0.0]], [[0.0], [0.5]]],
                [[[1.0], [1.0]], [[0.0], [1.0]]],
                [[[1.0], [0.0]], [[0.0], [1.0]]],
                [[[1.0], [0.0]], [[1.0], [1.0]]],
            ],
        },
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verdict", "--input", str(path))
    assert code == 3 and "numerical abort" in err


def test_standard_module_toledo(tmp_path, capsys):
    from flexcheck.surface import fuchsian_genus2
    rep = fuchsian_genus2()
    gens = [[[[round12(float(g[i, j]))] for j in range(2)] for i in range(2)]
            for g in rep.images]
    doc = {"group": {"family": "sl", "params": [2]}, "genus": 2,
           "representation": {"source": "matrices", "field": "R", "generators": gens}}
    path = tmp_path / "fuchsian.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "toledo", "--input", str(path),
                           "--standard-module", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["toledo"]) == 1           # Milnor: |T| = genus - 1
    assert doc["milnor_wood_slack"] == 0


_IDENTITY = {
    "group": {"family": "sl", "params": [2]},
    "genus": 2,
    "representation": {"source": "matrices", "field": "R",
                       "generators": [[[[1.0], [0.0]], [[0.0], [1.0]]]] * 4},
}


@pytest.mark.parametrize("doc", [
    [_IDENTITY],
    {**_IDENTITY, "group": {"family": "sl", "params": []}},
    {**_IDENTITY, "seed": "abc"},
    {**_IDENTITY, "genus": "two"},
    {**_IDENTITY, "tolerances": {"rank": -1.0}},
    {**_IDENTITY, "representation": {**_IDENTITY["representation"], "generators": [
        [[[float("nan")], [0.0]], [[0.0], [1.0]]]] * 4}},
    {**_IDENTITY, "seed": float("inf")},
    {**_IDENTITY, "genus": float("inf")},
    {**_IDENTITY, "genus": 2.5},
    # the schema's integers: neither a numeric string nor a boolean passes
    {**_IDENTITY, "genus": "2"},
    {**_IDENTITY, "seed": "7"},
    {**_IDENTITY, "group": {"family": "sl", "params": ["2"]}},
    {**_IDENTITY, "genus": True},
    {**_IDENTITY, "seed": False},
    {"group": {"family": "su", "params": [2, True]}, "genus": 2,
     "representation": {"source": "catalog", "case": "su21-cline"}},
    # the schema's boolean is a JSON boolean, and a tolerance is not one
    {**_IDENTITY, "representation": {**_IDENTITY["representation"], "central_lift": "false"}},
    {**_IDENTITY, "tolerances": {"cluster": True}},
    {**_IDENTITY, "tolerances": {"rank": True}},
], ids=["array", "empty-params", "seed", "genus", "negative-tolerance", "nan-entry",
        "inf-seed", "inf-genus", "fractional-genus", "string-genus", "string-seed",
        "string-param", "bool-genus", "bool-seed", "bool-param", "string-central-lift",
        "bool-cluster", "bool-rank"])
def test_malformed_problem_is_a_parse_error(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verdict", "--input", str(path))
    assert code == 2 and "parse error" in err


def test_a_problem_without_genus_takes_the_genus_flag(tmp_path, capsys):
    with open(schema_path()) as fh:
        assert "genus" not in json.load(fh)["required"]
    path = tmp_path / "no-genus.json"
    path.write_text(json.dumps({k: v for k, v in _IDENTITY.items() if k != "genus"}))
    code, out, _ = run_cli(capsys, "verdict", "--input", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["genus"] == 2     # --genus defaults to 2
    code, _, err = run_cli(capsys, "verdict", "--input", str(path), "--genus", "3")
    assert code == 2 and "need 6 generator matrices" in err


def test_linalg_error_exit_code(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr("flexcheck.cli.verdict", fail)
    code, _, err = run_cli(capsys, "verdict", "--catalog", "su21-cline")
    assert code == 3 and "numerical abort" in err


def _computable_case_names():
    from flexcheck.catalog import default_cases
    return [c.name for c in default_cases() if c.computable]


def test_negated_center_leaves_signed_reports_unchanged(capsys, monkeypatch):
    # the center's basis vector has no preferred sign; the canonical
    # orientation (first nonzero T positive) must undo a flip of it
    from dataclasses import replace

    from flexcheck import engine

    def reports():
        out = {(name, sub): run_cli(capsys, sub, "--catalog", name, "--format", "json")
               for name in _computable_case_names()
               for sub in ("toledo", "verdict", "balanced")}
        # single roots, among them a T = 0 root, read under either orientation
        out.update({(name, f"toledo --root {i}"): run_cli(
            capsys, "toledo", "--catalog", name, "--root", str(i), "--format", "json")
            for name in ("sp21-cline", "sp31-cline") for i in (0, 1)})
        return out

    before = reports()
    center_of = engine.center_of

    def negated(sub, tol):
        c = center_of(sub, tol)
        return replace(c, matrices=-c.matrices, coords=-c.coords)

    monkeypatch.setattr(engine, "center_of", negated)
    after = reports()
    assert len(before) == 40
    for key, value in before.items():
        assert after[key] == value, key


@pytest.mark.parametrize("name", ["su41-cline", "sp31-cline", "sp21-cline"])
def test_toledo_root_matches_full_report(capsys, name):
    # toledo --root i prints entry i of the full report
    _, out, _ = run_cli(capsys, "toledo", "--catalog", name, "--format", "json")
    full = json.loads(out)["roots"]
    for i, entry in enumerate(full):
        _, out, _ = run_cli(capsys, "toledo", "--catalog", name, "--root", str(i), "--format", "json")
        assert json.loads(out)["roots"] == [entry]
    assert next(r["toledo"] for r in full if r["toledo"]) > 0


def test_coarse_tol_cluster_exits_3(capsys):
    # at a cluster tolerance of 0.9 every root merges with 0: an abort, not "flexible"
    code, out, err = run_cli(capsys, "verdict", "--catalog", "su21-cline", "--tol-cluster", "0.9")
    assert code == 3 and out == "" and "g_0 has dimension" in err


@pytest.mark.parametrize("where", ["flag", "file"])
def test_tolerance_below_the_floor_exits_2(tmp_path, capsys, where):
    # at rank 1e-18 the rigid su21-cline case read flexible (exit 0)
    if where == "flag":
        argv = ["--catalog", "su21-cline", "--tol-rank", "1e-18"]
    else:
        path = tmp_path / "tiny.json"
        doc = json.loads(_write_parabolic(tmp_path).read_text())
        path.write_text(json.dumps(dict(doc, tolerances={"rank": 1e-18})))
        argv = ["--input", str(path)]
    code, out, err = run_cli(capsys, "verdict", *argv)
    assert code == 2 and out == "" and "below the floor" in err


def test_overflowing_image_exits_3_without_warnings(tmp_path):
    big = [[[1e200], [0.0], [0.0]], [[0.0], [1.0], [0.0]], [[0.0], [0.0], [1.0]]]
    eye = [[[float(i == j)] for j in range(3)] for i in range(3)]
    doc = {"group": {"family": "so", "params": [2, 1]}, "genus": 2,
           "representation": {"source": "matrices", "field": "R",
                              "generators": [big, eye, eye, eye]}}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(flexcheck.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "flexcheck", "verdict", "--input", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "residual inf" in proc.stderr and "RuntimeWarning" not in proc.stderr
