"""Byte guard for a rank-2 center with a mixed root.

The genus-2 Fuchsian group is bent inside SL(2,C): the second handle is
conjugated by h = exp(0.3i log c), c = [a2, b2], which commutes with c,
so the relator still holds.  Realified over C and placed in the top-left
4x4 block of the 5x5 identity, the images lie in SL(5,R); the center of
the centralizer has dimension 2, with one imaginary and one mixed root.

``GOLDEN`` holds the exit code and the sha256 of stdout of all five
report subcommands in both formats, run in-process through ``cli.main``
on the problem file below.  The hashes were first produced by these
same calls when ``root_form`` still built a complex structure J and a
complex-bilinear Gram for the mixed root; they pin that deciding a mixed
root by its values alone moves no report byte.  They were re-pinned when
the seed was removed: the new bytes are those reports less the JSON
provenance line ``"seed": 0,`` or the text header's ``, seed 0``.
The ``balanced`` hashes were also re-pinned when that report took the common
header: each one's new bytes are the old ones plus the JSON line
``"genus": 2,`` after ``"group"``, or the text header reads ``(genus 2)``
where it read ``(genus ?)``; no exit code moved.
The 6 hashes of reports that printed the tolerances' ``gram`` or a
toledo root's status were re-pinned when the Gram left the package:
each one's new bytes are the old ones less the JSON provenance line
``"gram": 1e-06`` and each root's ``"status": "ok"``, each with the
comma before it, or less each text root line's `` (ok)``; no exit code
moved.
"""

import hashlib
import json

import pytest

from conftest import bent_genus2
from flexcheck.cli import main

GOLDEN = {
    ("decompose", "json"): (0, "5bf7af1349614b12a893945dccc60263ea1cad1cd6d8abd0eec7709a5775085f"),
    ("decompose", "text"): (0, "23999af76575abd7bd0ad7fb589ff957e8a023ee5a65ccdfa72f5f17aff4ff34"),
    ("cohomology", "json"): (0, "c8573781e2f2b48ae407a9a2a7f49c566f7160fadfb30ea9d1b23e765b397095"),
    ("cohomology", "text"): (0, "7d04a6c1854effecdc849abc302192920fba18b6f1b889ac39e223ad9c279552"),
    ("toledo", "json"): (0, "5375858475236de5232fe542bd61cfc40d10beb2715f99e91bfdb8a22d160c1a"),
    ("toledo", "text"): (0, "9de03d20170b11ae44ef410d2ce4b48736b11061780ee3f04e8e4697c610af66"),
    ("balanced", "json"): (0, "9dc062b5672c7e9ccdcad72f4ab5cddefefca9addc5793d519e298af79a6b20e"),
    ("balanced", "text"): (0, "867712ebead894546ecf57b40f80d49f2e6312824da719e29b5758e4b44a7487"),
    ("verdict", "json"): (0, "4bfc14ee6bc293612a12c89b18384079c4bdf965fe2f3832c1ac4a1b01a6aa7f"),
    ("verdict", "text"): (0, "82c3b79394bced64c61f1c955f2f4484ba622efe63e69f56a98345561a928ef7"),
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
def test_bent_report_bytes(bent_problem, capsys, command, fmt):
    code = main([command, "--input", bent_problem, "--format", fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command, fmt]

