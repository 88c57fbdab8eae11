import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flexcheck
from flexcheck.cli import REPORTS, build_parser, main, round12, schema_path


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


# every problem subcommand on a catalog case and on an input file (the
# octagon group in SL(2,R)), and the standard-module view, which needs one
HEADER_RUNS = ([("catalog", name) for name in REPORTS] + [("input", name) for name in REPORTS]
               + [("input", "toledo --standard-module")])


@pytest.mark.parametrize("source, command", HEADER_RUNS)
def test_every_problem_report_starts_with_the_common_header(tmp_path, capsys, source, command):
    from flexcheck.surface import fuchsian_genus2
    if source == "catalog":
        problem, want_source = ["--catalog", "su21-cline"], "catalog:su21-cline"
    else:
        path = _real_problem(tmp_path, "sl", [2], fuchsian_genus2().images)
        problem, want_source = ["--input", str(path)], "matrices"
    _, out, _ = run_cli(capsys, *command.split(), *problem, "--format", "json")
    doc = json.loads(out)
    assert list(doc)[:3] == ["provenance", "group", "genus"]
    assert doc["provenance"]["source"] == want_source and doc["genus"] == 2
    assert doc["group"] == ("su(2,1)" if source == "catalog" else "sl(2,R)")
    _, out, _ = run_cli(capsys, *command.split(), *problem)
    head = f"flexcheck {flexcheck.__version__} {command.split()[0]} on {doc['group']} (genus 2)"
    assert out.splitlines()[0] == head


def test_json_roundtrip_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "verdict", "--catalog", "so41-rplane", "--format", "json")
    doc = json.loads(out)
    again = json.dumps(doc, indent=2) + "\n"
    assert again == out


def test_same_problem_same_bytes(capsys):
    # the verdict is a function of the representation: nothing random to seed
    code, out1, _ = run_cli(capsys, "verdict", "--catalog", "sp21-cline", "--format", "json")
    code, out2, _ = run_cli(capsys, "verdict", "--catalog", "sp21-cline", "--format", "json")
    assert out1 == out2
    doc = json.loads(out1)
    assert "seed" not in doc["provenance"]
    assert doc["provenance"]["version"]


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verdict", "--catalog", "su21-cline", "--seed", "7"])
    assert exc.value.code == 2 and "--seed" in capsys.readouterr().err


def test_root_and_standard_module_exclude_each_other(tmp_path, capsys):
    from flexcheck.surface import fuchsian_genus2
    path = _real_problem(tmp_path, "sl", [2], fuchsian_genus2().images)
    with pytest.raises(SystemExit) as exc:
        main(["toledo", "--input", str(path), "--standard-module", "--root", "7"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "not allowed with argument" in err
    assert "--root" in err and "--standard-module" in err


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "su21-cline" in out and "rigid" in out
    assert "documented, not computed" in out
    code, out, _ = run_cli(capsys, "catalog", "--format", "json")
    doc = json.loads(out)
    assert any(row["name"] == "sp31-cline" for row in doc["cases"])


def _real_problem(tmp_path, family, params, images):
    """A problem file of real generator images, rounded to 12 significant digits."""
    gens = [[[[round12(float(x))] for x in row] for row in g] for g in images]
    doc = {"group": {"family": family, "params": params}, "genus": len(images) // 2,
           "representation": {"source": "matrices", "field": "R", "generators": gens}}
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps(doc))
    return path


def test_explicit_matrix_input_matches_catalog(tmp_path, capsys):
    from flexcheck.surface import fuchsian_genus2
    path = _real_problem(tmp_path, "sl", [2], fuchsian_genus2().images)
    code, out, _ = run_cli(capsys, "cohomology", "--input", str(path), "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["adjoint"]["z1"] == 9 and parsed["adjoint"]["h0"] == 0


def _field_problem(tmp_path, case: str, family: str, images=None, tolerances=None):
    """A problem file of a catalog case's group, with its images (the case's own by default)."""
    # each realified d x d block is left multiplication by an entry whose
    # components are the block's first column
    from flexcheck.catalog import build_case_representation, find_case
    rep = build_case_representation(case)
    d, n = rep.model.field.dim, rep.model.ambient
    gens = [[[[float(x) for x in g[d * i : d * i + d, d * j]] for j in range(n)]
             for i in range(n)] for g in (rep.images if images is None else images)]
    doc = {"group": {"family": family, "params": [find_case(case).m, 1]}, "genus": 2,
           "representation": {"source": "matrices", "field": rep.model.field.value,
                              "generators": gens}}
    if tolerances:
        doc["tolerances"] = tolerances
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("case,family,tolerances", [
    ("su21-cline", "su", None), ("sp21-cline", "sp", None), ("so41-rplane", "so", None),
    ("su21-cline", "su", {"rank": 1e-10, "cluster": 1e-8}),
], ids=["su21-cline-su", "sp21-cline-sp", "so41-rplane-so", "su21-cline-su-tolerances"])
def test_field_matrix_input_matches_catalog(tmp_path, capsys, case, family, tolerances):
    path = _field_problem(tmp_path, case, family, tolerances=tolerances)
    code, out, _ = run_cli(capsys, "verdict", "--input", str(path), "--format", "json")
    want_code, want, _ = run_cli(capsys, "verdict", "--catalog", case, "--format", "json")
    got, want = json.loads(out), json.loads(want)
    assert got["provenance"].pop("source") == "matrices"
    assert want["provenance"].pop("source") == f"catalog:{case}"
    if tolerances:
        # the file's tolerances reach the run, and the decision stays the default run's
        assert got["provenance"]["tolerances"] == {**want["provenance"]["tolerances"], **tolerances}
        assert code == want_code and got["verdict"] == want["verdict"]
    else:
        assert code == want_code and got == want


def test_cohomology_of_a_conjugated_input_reads_the_centralizer(tmp_path, capsys):
    # a global conjugate g rho g^-1, g = exp(X) with X = 0.4 times a normal
    # vector of model coordinates, as in perfbench's conjugates; a Fox-calculus
    # cohomology of the adjoint module aborts on it at the Euler identity
    from flexcheck.catalog import build_case_representation
    from flexcheck.surface import _expm
    rep = build_case_representation("su31-rplane")
    model = rep.model
    g = _expm(model.matrix(0.4 * np.random.default_rng(3).standard_normal(model.dim)))
    ginv = np.linalg.inv(g)
    path = _field_problem(tmp_path, "su31-rplane", "su", [g @ a @ ginv for a in rep.images])
    code, out, err = run_cli(capsys, "cohomology", "--input", str(path), "--format", "json")
    assert code == 0, err
    zdim = json.loads(run_cli(capsys, "decompose", "--input", str(path),
                              "--format", "json")[1])["centralizer_dim"]
    adjoint = json.loads(out)["adjoint"]
    assert zdim == 1
    assert (adjoint["h0"], adjoint["h1"], adjoint["h2"]) == (zdim, 2 * zdim + 2 * model.dim, zdim)


def _run_module(*argv, **kwargs):
    """``python -m flexcheck ARGV`` in a fresh interpreter, on this checkout's package."""
    src = os.path.dirname(os.path.dirname(flexcheck.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "flexcheck", *argv],
                          text=True, env=env, timeout=120, **kwargs)


def test_module_entry_point():
    proc = _run_module("catalog", "--format", "json", capture_output=True)
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


def _standard_module(capsys, path):
    code, out, _ = run_cli(capsys, "toledo", "--input", str(path),
                           "--standard-module", "--format", "json")
    assert code == 0
    return json.loads(out)


def test_standard_module_toledo(tmp_path, capsys):
    from flexcheck.surface import fuchsian_genus2
    doc = _standard_module(capsys, _real_problem(tmp_path, "sl", [2], fuchsian_genus2().images))
    assert abs(doc["toledo"]) == 1           # Milnor: |T| = genus - 1
    assert doc["milnor_wood_slack"] == 0


def test_standard_module_toledo_on_sp4(tmp_path, capsys):
    # the octagon group diagonally in Sp(4,R), g acting on each (e_i, f_i)
    # plane: the standard module is two copies of sl(2,R)'s
    from flexcheck.surface import fuchsian_genus2
    images = fuchsian_genus2().images
    diagonal = []
    for g in images:
        big = np.zeros((4, 4))
        for i in (0, 1):
            big[np.ix_([i, i + 2], [i, i + 2])] = g
        diagonal.append(big)
    sl2 = _standard_module(capsys, _real_problem(tmp_path, "sl", [2], images))
    sp4 = _standard_module(capsys, _real_problem(tmp_path, "spr", [2], diagonal))
    assert sp4["group"] == "sp(4,R)"
    assert sp4["h1_dim"] == 8 and sp4["toledo"] == 2 * sl2["toledo"] == -2
    assert sp4["signature"] == -8 and sp4["milnor_wood_slack"] == 0


def _emb(z) -> np.ndarray:
    """A + iB in U(n) as [[A, -B], [B, A]] in Sp(2n,R)."""
    z = np.asarray(z, dtype=complex)
    return np.block([[z.real, -z.imag], [z.imag, z.real]])


def test_a_central_lift_through_the_standard_module_aborts(tmp_path, capsys):
    # quaternion units i, j in U(2) < Sp(4,R): [i, j] = -I, a relator the
    # lift reads as T = 0, so the module check must abort first
    from flexcheck.surface import standard_presentation
    from flexcheck.toledo import lifted_toledo
    images = [_emb(np.diag([1j, -1j])), _emb([[0, 1], [-1, 0]]), np.eye(4), np.eye(4)]
    omega = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    assert lifted_toledo(images, omega, standard_presentation(2)) == (0, 0.0)
    path = _real_problem(tmp_path, "spr", [2], images)
    doc = json.loads(path.read_text())
    doc["representation"]["central_lift"] = True
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "toledo", "--input", str(path), "--standard-module")
    assert code == 3 and "module action does not kill the relator" in err


_IDENTITY = {
    "group": {"family": "sl", "params": [2]},
    "genus": 2,
    "representation": {"source": "matrices", "field": "R",
                       "generators": [[[[1.0], [0.0]], [[0.0], [1.0]]]] * 4},
}


def _with_generators(generators):
    return {**_IDENTITY, "representation": {**_IDENTITY["representation"],
                                            "generators": generators}}


@pytest.mark.parametrize("doc, says", [
    ([_IDENTITY], "problem must be a JSON object"),
    ({**_IDENTITY, "group": {"family": "sl", "params": []}},
     "group.params must have at least 1 item(s), got 0"),
    ({**_IDENTITY, "seed": "abc"}, "unknown key 'seed'"),
    ({**_IDENTITY, "genus": "two"}, "genus must be an integer"),
    ({**_IDENTITY, "tolerances": {"rank": -1.0}},
     "tolerances.rank must be at least 2.220446049250313e-14, got -1.0"),
    ({**_IDENTITY, "representation": {**_IDENTITY["representation"], "generators": [
        [[[float("nan")], [0.0]], [[0.0], [1.0]]]] * 4}},
     "representation.generators[0][0][0][0] must be a finite number, got nan"),
    ({**_IDENTITY, "seed": float("inf")}, "unknown key 'seed'"),
    ({**_IDENTITY, "genus": float("inf")}, "genus must be an integer"),
    ({**_IDENTITY, "genus": 2.5}, "genus must be an integer"),
    # the schema's integers: neither a numeric string nor a boolean passes
    ({**_IDENTITY, "genus": "2"}, "genus must be an integer"),
    ({**_IDENTITY, "seed": "7"}, "unknown key 'seed'"),
    ({**_IDENTITY, "group": {"family": "sl", "params": ["2"]}},
     "group.params[0] must be an integer, got '2'"),
    ({**_IDENTITY, "genus": True}, "genus must be an integer"),
    ({**_IDENTITY, "seed": False}, "unknown key 'seed'"),
    ({**_IDENTITY, "group": {"family": "su", "params": [2, True]}},
     "group.params[1] must be an integer, got True"),
    # the schema's boolean is a JSON boolean, and a tolerance is not one
    ({**_IDENTITY, "representation": {**_IDENTITY["representation"], "central_lift": "false"}},
     "central_lift must be a boolean"),
    ({**_IDENTITY, "tolerances": {"cluster": True}}, "tolerances.cluster must be a finite number"),
    ({**_IDENTITY, "tolerances": {"rank": True}}, "tolerances.rank must be a finite number"),
    # a key the loader does not read would be an input that changes nothing
    ({**_IDENTITY, "seed": 0}, "unknown key 'seed'"),
    ({**_IDENTITY, "tolerances": {"gram": 1e-3}}, "tolerances: unknown key 'gram'"),
    ({**_IDENTITY, "tolerance": {"rank": 1e-6}}, "unknown key 'tolerance'"),
    # a catalog case comes from --catalog only: the file's group would go unread
    ({**_IDENTITY, "representation": {"source": "catalog", "case": "su21-cline"}},
     "representation: unknown key 'case'"),
    ({**_IDENTITY, "representation": {**_IDENTITY["representation"], "source": "catalog"}},
     "representation.source must be one of 'matrices', got 'catalog' (the generator images "
     "below; a catalog case is the CLI's --catalog NAME)"),
    # the schema's number is a JSON number, and its enums are exact strings
    (_with_generators([[[["1"], [0.0]], [[0.0], [1.0]]]] * 4),
     "representation.generators[0][0][0][0] must be a finite number, got '1'"),
    (_with_generators([[[[True], [0.0]], [[0.0], [1.0]]]] * 4),
     "representation.generators[0][0][0][0] must be a finite number, got True"),
    (_with_generators([[[[10 ** 400], [0.0]], [[0.0], [1.0]]]] * 4),
     "representation.generators[0][0][0][0] must be a finite number, got 1000"),
    ({**_IDENTITY, "group": {"family": "SL", "params": [2]}},
     "group.family must be one of 'sl', 'su', 'so', 'sp', 'spr', got 'SL'"),
    ({**_IDENTITY, "representation": {**_IDENTITY["representation"], "field": "r"}},
     "representation.field must be one of 'R', 'C', 'H', got 'r'"),
    ({**_IDENTITY, "representation": {**_IDENTITY["representation"], "field": " R "}},
     "representation.field must be one of 'R', 'C', 'H', got ' R '"),
    # what JSON Schema cannot state: the shape of each matrix, checked in code
    (_with_generators([[]] * 4),
     "representation.generators[0] must have at least 1 item(s), got 0"),
    (_with_generators([[[]]] * 4),
     "representation.generators[0][0] must have at least 1 item(s), got 0"),
    (_with_generators([[[[1.0], [0.0]], [[1.0]]]] * 4),
     "representation.generators[0]: row 1 must have 2 entries"),
    (_with_generators([[[[1.0, 0.0], [0.0]], [[0.0], [1.0]]]] * 4),
     "representation.generators[0][0][0]: expected 1 component(s) for field R, got 2"),
    (_with_generators([[[[float(i == j)] for j in range(3)] for i in range(3)]] * 4),
     "generator image 0 has shape (3, 3), not the realified size (2, 2) of sl(2,R)"),
    ({**_IDENTITY, "representation": {**_IDENTITY["representation"], "field": "C"}},
     "field C does not match group family sl"),
    ({**_IDENTITY, "representation": {"source": "matrices"}},
     "representation needs the key 'generators'"),
], ids=["array", "empty-params", "seed", "genus", "negative-tolerance", "nan-entry",
        "inf-seed", "inf-genus", "fractional-genus", "string-genus", "string-seed",
        "string-param", "bool-genus", "bool-seed", "bool-param", "string-central-lift",
        "bool-cluster", "bool-rank", "zero-seed", "gram-tolerance", "misspelled-key",
        "catalog-case", "catalog-source", "string-entry", "bool-entry", "huge-integer-entry",
        "upper-family", "lower-field", "padded-field", "empty-matrix", "empty-row",
        "ragged-row", "component-count", "realified-size", "field-mismatch", "no-generators"])
def test_malformed_problem_is_a_parse_error(tmp_path, capsys, doc, says):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verdict", "--input", str(path))
    assert code == 2 and err.startswith("flexcheck: parse error: ") and says in err


@pytest.mark.parametrize("argv, says", [
    (["verdict", "--catalog", "su21-cline", "--input", "{identity}"],
     "give either --catalog or --input, not both"),
    (["verdict"], "a problem is required: --catalog NAME or --input FILE"),
    (["verdict", "--input", "{missing}"], "cannot read {missing}"),
    (["toledo", "--catalog", "su21-cline", "--root", "5"],
     "--root 5 out of range; decomposition has 1 root(s)"),
    (["toledo", "--catalog", "su21-cline", "--root", "-1"],
     "--root -1 out of range; decomposition has 1 root(s)"),
    (["toledo", "--input", "{so}", "--standard-module"],
     "--standard-module needs an sl(2,R) or sp(2n,R) ambient group"),
    (["verdict", "--catalog", "su21-cline", "--tol-rank", "nan"],
     "tolerance rank = nan must be a finite number"),
    (["verdict", "--catalog", "su21-cline", "--tol-rank", "inf"],
     "tolerance rank = inf must be a finite number"),
    (["verdict", "--catalog", "su21-cline", "--tol-cluster=-inf"],
     "tolerance cluster = -inf must be a finite number"),
    pytest.param(["verdict", "--input", "{long}"], "{long}: invalid JSON (Exceeds the limit",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="this Python reads integers of any length")),
], ids=["catalog-and-input", "no-problem", "unreadable-input", "root-past-end", "negative-root",
        "standard-module-on-so21", "nan-tol-rank", "inf-tol-rank", "minus-inf-tol-cluster",
        "over-long-integer"])
def test_cli_misuse_is_a_parse_error(tmp_path, capsys, argv, says):
    files = {"identity": tmp_path / "identity.json", "missing": tmp_path / "missing.json",
             "so": _real_problem(tmp_path, "so", [2, 1], [np.eye(3)] * 4),
             "long": tmp_path / "long.json"}
    files["identity"].write_text(json.dumps(_IDENTITY))
    files["long"].write_text('{"genus": ' + "9" * 5000 + "}")
    code, out, err = run_cli(capsys, *(arg.format(**files) for arg in argv))
    assert code == 2 and out == "" and err.startswith("flexcheck: parse error: ")
    assert says.format(**files) in err


def test_the_readme_problem_file_runs(tmp_path, capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```json\n(.*?)^```", readme, re.M | re.S)
    path = tmp_path / "readme.json"
    path.write_text(block)
    code, out, _ = run_cli(capsys, "verdict", "--input", str(path), "--format", "json")
    assert code == 11 and json.loads(out)["reductive"] is False


def test_the_readme_documents_the_parser():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    parser = build_parser()
    (subs,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    listed = re.search(r"^Subcommands: (.*?)\.", section, re.M | re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(subs)
    options = {s for p in (parser, *subs.values()) for a in p._actions for s in a.option_strings}
    named = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", section))
    assert options - named == set(), "options the Command line section does not name"
    assert {f for f in named if f.startswith("--")} - options == set(), "flags that do not exist"


def test_a_problem_without_genus_takes_half_its_generator_count(tmp_path, capsys):
    with open(schema_path()) as fh:
        assert "genus" not in json.load(fh)["required"]
    identity = _IDENTITY["representation"]["generators"][0]
    path = tmp_path / "no-genus.json"

    def run(count: int):
        doc = _with_generators([identity] * count)
        del doc["genus"]
        path.write_text(json.dumps(doc))
        return run_cli(capsys, "verdict", "--input", str(path), "--format", "json")

    for count, genus in ((4, 2), (6, 3)):
        code, out, _ = run(count)
        assert code == 0 and json.loads(out)["genus"] == genus
    code, _, err = run(5)
    assert code == 2 and "need 4 generator images, got 5" in err
    # the genus is the file's or its generators', never a flag's
    with pytest.raises(SystemExit) as exc:
        main(["verdict", "--input", str(path), "--genus", "3"])
    assert exc.value.code == 2 and "--genus" in capsys.readouterr().err


def test_a_problem_files_tolerances_override_the_flags(tmp_path, capsys):
    # a key the file leaves out keeps the flag
    path = tmp_path / "tolerances.json"
    path.write_text(json.dumps({**_IDENTITY, "tolerances": {"rank": 1e-7}}))
    code, out, _ = run_cli(capsys, "decompose", "--input", str(path), "--format", "json",
                           "--tol-rank", "1e-10", "--tol-cluster", "1e-5")
    tolerances = json.loads(out)["provenance"]["tolerances"]
    assert code == 0 and (tolerances["rank"], tolerances["cluster"]) == (1e-7, 1e-5)


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
        return replace(c, coords=-c.coords)

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
    says = "below the floor" if where == "flag" else "tolerances.rank must be at least"
    assert code == 2 and out == "" and says in err


def test_overflowing_image_exits_3_without_warnings(tmp_path):
    big = [[[1e200], [0.0], [0.0]], [[0.0], [1.0], [0.0]], [[0.0], [0.0], [1.0]]]
    eye = [[[float(i == j)] for j in range(3)] for i in range(3)]
    doc = {"group": {"family": "so", "params": [2, 1]}, "genus": 2,
           "representation": {"source": "matrices", "field": "R",
                              "generators": [big, eye, eye, eye]}}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    proc = _run_module("verdict", "--input", str(path), capture_output=True)
    assert proc.returncode == 3, proc.stderr
    assert "residual inf" in proc.stderr and "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("command, code", [
    (("catalog", "--format", "json"), 0),
    (("verdict", "--catalog", "su21-cline"), 10),
])
def test_closed_stdout_keeps_the_exit_code_without_a_traceback(command, code):
    read, write = os.pipe()
    os.close(read)  # the reader has gone before the report is written
    try:
        proc = _run_module(*command, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert proc.returncode == code and proc.stderr == ""


@pytest.mark.parametrize("family, field, entry", [("su", "C", [1.0, 0.0]), ("so", "R", [1.0])])
def test_zero_dimensional_group_exits_2(tmp_path, capsys, family, field, entry):
    doc = {"group": {"family": family, "params": [1, 0]}, "genus": 2,
           "representation": {"source": "matrices", "field": field,
                              "generators": [[[entry]]] * 4}}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verdict", "--input", str(path))
    assert code == 2 and out == "" and "zero-dimensional" in err
