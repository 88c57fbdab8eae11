"""Invariance of the verdict under mapping-class-group moves on the generators.

A move replaces the generator images (a1, b1, a2, b2) of a genus-2
representation by words in them that satisfy the same relator, so the
moved images are the same representation precomposed with an
automorphism of the surface group.  Two kinds are checked:

- the handle rotation (a1, b1, a2, b2) -> (a2, b2, a1, b1), which turns
  the relator into a conjugate of itself;
- within-handle Dehn twists a -> ab and b -> ba, which keep each
  commutator [a, b] exactly.

Neither changes the verdict, the centralizer and center dimensions, or
the roots' sorted (real_dim, |T|, h1).  The range pinned here: on every
computable catalog case, the rotation and 1-2 twists (4 seeded trials
per count) reproduce the genus-2 table, and none aborts.  Longer twist
words grow the image entries until some inputs abort; that range is not
pinned here.
"""

import functools

import numpy as np
import pytest

from flexcheck.catalog import build_case_representation, default_cases
from flexcheck.engine import verdict
from flexcheck.surface import surface_representation

CASES = [c.name for c in default_cases() if c.computable]


def _table(report):
    """Verdict, centralizer and center dimensions, and the sorted (real_dim, |T|, h1)."""
    roots = sorted(((r.real_dim, None if r.toledo is None else abs(r.toledo), r.h1_dim)
                    for r in report.roots), key=lambda t: (t[0], t[1] is None, t[1] or 0, t[2]))
    return report.verdict, report.centralizer_dim, report.center_dim, roots


@functools.lru_cache(maxsize=None)
def _genus2(name: str):
    rep = build_case_representation(name)
    return rep, _table(verdict(rep))


def _twisted(images: list, count: int, seed: int) -> list:
    """``count`` Dehn twists, each a -> ab or b -> ba in a handle drawn from ``seed``."""
    images = list(images)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        handle, kind = rng.integers(2, size=2)
        a, b = 2 * handle, 2 * handle + 1
        if kind:
            images[b] = images[b] @ images[a]
        else:
            images[a] = images[a] @ images[b]
    return images


MOVES = {"rotation": lambda images: images[2:] + images[:2]}
MOVES.update({f"twists{count}-seed{seed}": functools.partial(_twisted, count=count, seed=seed)
              for count in (1, 2) for seed in range(4)})


@pytest.mark.parametrize("move", MOVES)
@pytest.mark.parametrize("name", CASES)
def test_verdict_invariant_under_mapping_class_moves(name, move):
    rep, want = _genus2(name)
    moved = surface_representation(rep.presentation, rep.model, MOVES[move](list(rep.images)))
    assert _table(verdict(moved)) == want


def test_each_move_keeps_the_relator_and_changes_the_images():
    rep = build_case_representation(CASES[0])
    images = list(rep.images)
    for name, move in MOVES.items():
        moved = move(images)
        assert not all(np.array_equal(x, y) for x, y in zip(moved, images)), name
        rel = surface_representation(rep.presentation, rep.model, moved).relator_residual
        assert rel <= 1e-12, name
