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
"""

import hashlib
import json

import pytest

from conftest import bent_genus2
from flexcheck.cli import main

GOLDEN = {
    ("decompose", "json"): (0, "ad4f904d11c846e9956f507624b6528c22593ef03630f49439ac64262484b231"),
    ("decompose", "text"): (0, "23999af76575abd7bd0ad7fb589ff957e8a023ee5a65ccdfa72f5f17aff4ff34"),
    ("cohomology", "json"): (0, "cffef522405e4f3ade707d30db02c425a0488e41f11b642cc8a3beb93bce6997"),
    ("cohomology", "text"): (0, "7d04a6c1854effecdc849abc302192920fba18b6f1b889ac39e223ad9c279552"),
    ("toledo", "json"): (0, "13d340bad9a2cc0a146adfacf8a834789beba7b85925292aab0c2958793338f3"),
    ("toledo", "text"): (0, "bc749ad6da739cdc5732caded8897e741f4e6701299785681047e8e4c07315c4"),
    ("balanced", "json"): (0, "fae1b61c2c785ee8c1beedcc0673338e4907b7e86103d1f3cccd1562e77e31d7"),
    ("balanced", "text"): (0, "867712ebead894546ecf57b40f80d49f2e6312824da719e29b5758e4b44a7487"),
    ("verdict", "json"): (0, "5b2b8c4404d82869053ce4bdbc5c537d576b0e150bfac6883b2cd02dc5b6c46d"),
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

