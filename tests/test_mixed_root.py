"""Byte guard for a rank-2 center with a mixed root.

The genus-2 Fuchsian group is bent inside SL(2,C): the second handle is
conjugated by h = exp(0.3i log c), c = [a2, b2], which commutes with c,
so the relator still holds.  Realified over C and placed in the top-left
4x4 block of the 5x5 identity, the images lie in SL(5,R); the center of
the centralizer has dimension 2, with one imaginary and one mixed root.

``GOLDEN`` holds the exit code and the sha256 of stdout of all five
report subcommands in both formats, run in-process through ``cli.main``
on the problem file below, with FLEXCHECK_SEED unset.  The hashes were
produced by these same calls at commit bff0ae6, where ``root_form`` still
built a complex structure J and a complex-bilinear Gram for the mixed
root; they pin that deciding a mixed root by its values alone moves no
report byte.
"""

import hashlib
import json

import pytest

from conftest import bent_genus2
from flexcheck.cli import main

GOLDEN = {
    ("decompose", "json"): (0, "67e537c999c87a07f6b093a2158a423885f6de5253d399b8a2249efb22a2daee"),
    ("decompose", "text"): (0, "ddb8998d7e9d96c25db223825cc64c6df1c8d49d6754ceb640b054d3b542331a"),
    ("cohomology", "json"): (0, "c2388e1a3af018ffd0fbe91c74ea238905a94bbee7c7bcf5329a96fc211a0eee"),
    ("cohomology", "text"): (0, "5f851a3473ae58500c71c9c06b74e239cf728fd568ee5deed912dbfb829efcf3"),
    ("toledo", "json"): (0, "cf41a9ff8aa9de246dfd5609060b4930316609c2b707c0da56d6574a5536cba5"),
    ("toledo", "text"): (0, "2782fe3586da7d32eab8436ef907aa22f5e84fc0b4e473e8eeae2af14299963c"),
    ("balanced", "json"): (0, "46d5f536b115affc2c55b0b269731b5f656485c5fc5f2880838e55c496fc3d6e"),
    ("balanced", "text"): (0, "4203782a210a040bdbde8997904b3319bd22aff1d426cdca92397b6d83267ebd"),
    ("verdict", "json"): (0, "db11678c98fabd9737944a96d800a2af04d61e341f43bc1b66fc46ad41671946"),
    ("verdict", "text"): (0, "2133f6ff2b84e0efdc1cf5abb89e10b6ff166fa4af7098c7a6b7dabe35d1cef1"),
}


@pytest.fixture(scope="module")
def bent_problem(tmp_path_factory):
    rep = bent_genus2()
    assert rep.relator_residual < 1e-14
    path = tmp_path_factory.mktemp("bent") / "bent.json"
    # full-precision floats: json writes each one back exactly
    path.write_text(json.dumps({
        "group": {"family": "sl", "params": [5]}, "genus": 2,
        "representation": {"source": "matrices", "field": "R",
                           "generators": [[[[float(x)] for x in row] for row in g]
                                          for g in rep.images]}}))
    return str(path)


@pytest.mark.parametrize("command, fmt", sorted(GOLDEN))
def test_bent_report_bytes(bent_problem, capsys, monkeypatch, command, fmt):
    monkeypatch.delenv("FLEXCHECK_SEED", raising=False)
    code = main([command, "--input", bent_problem, "--format", fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command, fmt]

