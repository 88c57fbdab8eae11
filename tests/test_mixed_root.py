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
The 9 hashes other than ``balanced``-text were re-pinned when the octagon
group's images came from closed-form side pairings: the bent input moved
by at most 5e-15, and the SVD's basis of the 2-dimensional center came out
rotated (ROADMAP item 17).  Each new report is the old one with every root
value, t_lambda, P- and N-vector turned by one orthogonal 2x2 Q (41.6
degrees, fit 3e-13); every other byte and every exit code is unchanged.
"""

import hashlib
import json

import pytest

from conftest import bent_genus2
from flexcheck.cli import main

GOLDEN = {
    ("decompose", "json"): (0, "feb16ed2a7b98b822534f821b10d62268029d715fd23cdfbc5befe5238ec8dd8"),
    ("decompose", "text"): (0, "6dd4816fafc55309f97d1c73a2aebe22cedf218a1d6dbafe11392f972e99970f"),
    ("cohomology", "json"): (0, "108c6b605af79376af66cfd1019de5aae0679d522170388012d6a59cbaa27925"),
    ("cohomology", "text"): (0, "516af7656cb5b6ff65c3f0538ac1060f68057592c203009a12ce806d34feb9d1"),
    ("toledo", "json"): (0, "9d84840d3d7b92dfde1a3644326ee5f59da117dae2e5c756f4f682c6322071d6"),
    ("toledo", "text"): (0, "239c37b041c5ece01d5f09e1f776ea2fd4815c85f95ac9908814c4e459032256"),
    ("balanced", "json"): (0, "28d31d6fce0adbc4f55e7af26d7cc6be0bc17dc0e54ccc1c31c277f1c775df84"),
    ("balanced", "text"): (0, "867712ebead894546ecf57b40f80d49f2e6312824da719e29b5758e4b44a7487"),
    ("verdict", "json"): (0, "82e81f98b4457716a21b5409ee9f50e3db7799fad1de4c6a2f533c05b8ee224e"),
    ("verdict", "text"): (0, "3e9b82f3b3a81b01e7e0a29158be1f7e171ab22bc2e3f00b156324437ab56085"),
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

