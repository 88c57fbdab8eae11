import dataclasses
import functools
import itertools
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bent_genus2
from flexcheck.catalog import build_case_representation, default_cases
from flexcheck.config import DEFAULT, NumericalAbort, Tolerances
from flexcheck.engine import (
    BalanceProblem,
    Pipeline,
    balanced,
    classify_PN,
    verdict,
)
from flexcheck.liealg import LieAlgebraModel, build_classical, centralizer
from flexcheck.surface import (
    _check_invariant_form,
    _expm,
    adjoint_module,
    cohomology,
    cup_pairing,
    standard_presentation,
    surface_representation,
)
from flexcheck.toledo import root_cohomology, root_form
from reference import root_gram


def test_balanced_one_dim_cases():
    res = balanced(BalanceProblem(1, (np.array([3.0]),), ()))
    assert not res.balanced
    assert res.separating is not None and res.separating[0] * 3.0 >= 0
    res = balanced(BalanceProblem(1, (), (np.array([1.5]),)))
    assert res.balanced and res.multipliers is None
    res = balanced(BalanceProblem(0, (), ()))
    assert res.balanced


def test_balanced_square_configuration():
    pts = tuple(np.array(v, dtype=float) for v in [(1, 0), (-1, 0), (0, 1), (0, -1)])
    res = balanced(BalanceProblem(2, pts, ()))
    assert res.balanced
    mu = res.multipliers
    assert mu is not None and np.all(mu >= 1.0 - 1e-9)
    total = sum(m * p for m, p in zip(mu, pts))
    assert np.abs(total).max() < 1e-8
    res2 = balanced(BalanceProblem(2, pts[:1] + pts[2:3], ()))   # (1,0), (0,1)
    assert not res2.balanced
    f = res2.separating
    assert f @ pts[0] >= -1e-12 and f @ pts[2] >= -1e-12 and np.abs(f).max() > 0


def test_balanced_simplex_bound():
    # d or fewer points in dimension d can never surround the origin
    pts = tuple(np.array(v, dtype=float) for v in [(1, 0), (0, 1)])
    assert not balanced(BalanceProblem(2, pts, ())).balanced
    pts3 = tuple(np.array(v, dtype=float) for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert not balanced(BalanceProblem(3, pts3, ())).balanced


def test_balanced_n_span_quotient():
    # N spans one direction; P must surround the origin in the quotient line
    p = (np.array([1.0, 0.2]), np.array([-1.0, 0.2]))
    n = (np.array([0.0, 1.0]),)
    assert balanced(BalanceProblem(2, p, n)).balanced
    assert not balanced(BalanceProblem(2, p[:1], n)).balanced


def test_balanced_invariance(rng):
    pts = [np.array(v, dtype=float) for v in [(1, 0), (-1, 0), (0, 1), (0, -1)]]
    nvecs = [np.array([1.0, 1.0])]
    base = balanced(BalanceProblem(2, tuple(pts), tuple(nvecs))).balanced
    for _ in range(20):
        m = rng.standard_normal((2, 2))
        while abs(np.linalg.det(m)) < 0.3:
            m = rng.standard_normal((2, 2))
        moved = balanced(BalanceProblem(
            2, tuple(m @ p for p in pts), tuple(m @ n for n in nvecs))).balanced
        assert moved == base
        scales = rng.uniform(0.2, 5.0, size=len(pts))
        scaled = balanced(BalanceProblem(
            2, tuple(s * p for s, p in zip(scales, pts)), tuple(nvecs))).balanced
        assert scaled == base
    # adjoining a vector already in span(N) changes nothing
    more = balanced(BalanceProblem(2, tuple(pts), (nvecs[0], 2.5 * nvecs[0]))).balanced
    assert more == base


def _has_supporting_functional(dim, p, n):
    """Brute force: is there an f != 0 with f.n = 0 on N and f.p >= 0 on P?

    Exact on integer vectors.  The cone of such f, if not {0}, holds a line
    (the rows [N; P] have rank < dim) or an extreme ray, the null vector of
    dim - 1 independent rows, taken here as signed maximal minors.
    """
    rows = np.array(list(n) + list(p), dtype=float).reshape(-1, dim)
    if np.linalg.matrix_rank(rows) < dim:
        return True
    for sub in itertools.combinations(rows, dim - 1):
        sub = np.array(sub).reshape(dim - 1, dim)
        f = np.round([(-1) ** i * np.linalg.det(np.delete(sub, i, axis=1)) for i in range(dim)])
        if not f.any() or np.any(rows[:len(n)] @ f != 0):
            continue
        values = rows[len(n):] @ f
        if np.all(values >= 0) or np.all(values <= 0):
            return True
    return False


def test_balanced_matches_supporting_functional_enumeration():
    # small integer vectors with quotient dimension <= 3; a P-vector inside
    # span(N) projects to rounding noise and must not count as spanning
    assert not balanced(BalanceProblem(2, (np.array([2.0, -2.0]),), (np.array([-1.0, 1.0]),))).balanced
    rng = np.random.default_rng(0)
    for _ in range(2000):
        dim = int(rng.integers(1, 5))
        n = [v for v in rng.integers(-2, 3, size=(rng.integers(0, dim + 1), dim)) if v.any()]
        p = [v for v in rng.integers(-2, 3, size=(rng.integers(0, 6), dim)) if v.any()]
        if dim - np.linalg.matrix_rank(np.array(n, dtype=float).reshape(-1, dim)) > 3:
            continue
        res = balanced(BalanceProblem(dim, tuple(np.array(p, dtype=float)),
                                      tuple(np.array(n, dtype=float))))
        assert res.balanced != _has_supporting_functional(dim, p, n), (dim, p, n)


def test_classify_PN_reselects_positive(case_pipeline):
    rep, z, c, dec = case_pipeline("su21-cline")
    adj = adjoint_module(rep)
    workspaces = [root_cohomology(rep, adj, r) for r in dec.roots]
    reports = [root_form(ws, r) for ws, r in zip(workspaces, dec.roots)]
    forms, in_p, n_values, problem = classify_PN(reports)
    assert in_p == [True] and not n_values
    assert forms[0].toledo > 0
    ev = np.linalg.eigvalsh(root_gram(workspaces[0], forms[0].root))
    assert np.all(ev > 0)            # positive definite after re-selection
    assert len(problem.p_vectors) == 1
    assert problem.p_vectors[0] @ forms[0].root.values.imag > 0


def test_verdict_su21_rigid(case_pipeline):
    rep, _, _, _ = case_pipeline("su21-cline")
    out = verdict(rep)
    assert out.verdict == "rigid"
    assert out.centralizer_dim == 1 and out.center_dim == 1
    assert out.balance is not None and not out.balance.balanced
    assert "tube type" in out.message
    assert any("genus" in c for c in out.caveats)
    assert out.genus_threshold == 2 * rep.model.dim ** 2


def test_verdict_so41_flexible(case_pipeline):
    rep, _, _, _ = case_pipeline("so41-rplane")
    out = verdict(rep)
    assert out.verdict == "flexible"
    assert out.balance.balanced
    assert len(out.roots) == 1 and out.roots[0].toledo == 0


def test_verdict_sp21_flexible(case_pipeline):
    rep, _, _, _ = case_pipeline("sp21-cline")
    out = verdict(rep)
    assert out.verdict == "flexible"
    toledos = sorted(r.toledo for r in out.roots)
    assert toledos == [0, 4]
    assert any(r.in_P for r in out.roots)        # the maximal Hom-block root
    assert any(r.toledo == 0 for r in out.roots)


def test_verdict_conjugation_invariance(case_pipeline):
    rep, _, _, _ = case_pipeline("su21-cline")
    g = _expm(0.3 * rep.model.basis[0] + 0.1 * rep.model.basis[3])
    ginv = np.linalg.inv(g)
    moved = surface_representation(
        rep.presentation, rep.model, [g @ im @ ginv for im in rep.images])
    out = verdict(moved)
    assert out.verdict == "rigid"
    assert out.centralizer_dim == 1 and out.center_dim == 1
    assert sorted(r.toledo for r in out.roots) == [2]


def _invariants(report):
    """Verdict, centralizer and center dimensions, and the sorted (real_dim, T, h1) of the roots."""
    roots = sorted(((r.real_dim, r.toledo, r.h1_dim) for r in report.roots),
                   key=lambda t: (t[0], t[1] is None, t[1] or 0, t[2]))
    return report.verdict, report.centralizer_dim, report.center_dim, roots


@functools.lru_cache(maxsize=None)
def _catalog_verdict(name: str):
    rep = bent_genus2() if name == "bent-sl5" else build_case_representation(name)
    return rep, _invariants(verdict(rep))


# the computable catalog cases, and a rank-2 center with a mixed root
@pytest.mark.parametrize("name", [c.name for c in default_cases() if c.computable] + ["bent-sl5"])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(scale=st.floats(0.0, 0.4), seed=st.integers(0, 2**32 - 1))
def test_verdict_invariant_under_global_conjugation(name, scale, seed):
    # g = exp(X) with normal coefficients times scale, as perfbench's conjugates draws them
    rep, want = _catalog_verdict(name)
    g = _expm(rep.model.matrix(scale * np.random.default_rng(seed).standard_normal(rep.model.dim)))
    ginv = np.linalg.inv(g)
    moved = surface_representation(rep.presentation, rep.model, [g @ a @ ginv for a in rep.images])
    assert _invariants(verdict(moved)) == want


def test_verdict_stable_under_tolerance_scaling():
    # every tolerance scaled by 10^-2 and 10^2 on every catalog case: the
    # verdict stays, or the pipeline aborts; it never flips
    fields = [f.name for f in dataclasses.fields(Tolerances) if f.name != "seed"]
    outcomes = Counter()
    for case in (c for c in default_cases() if c.computable):
        rep = build_case_representation(case.name)
        want = verdict(rep).verdict
        for name in fields:
            for factor in (1e-2, 1e2):
                tol = dataclasses.replace(DEFAULT, **{name: getattr(DEFAULT, name) * factor})
                try:
                    got = verdict(rep, tol).verdict
                except NumericalAbort:
                    outcomes["abort"] += 1
                    continue
                assert got == want, (case.name, name, factor)
                outcomes["same"] += 1
    assert sum(outcomes.values()) == 12 * len(fields) * 2 == 168


def test_verdict_nonreductive_inconclusive():
    model = build_classical("sl", 2)
    def u(t):
        return np.array([[1.0, t], [0.0, 1.0]])
    rep = surface_representation(
        standard_presentation(2), model, [u(1.0), u(2.0), u(3.0), u(5.0)])
    out = verdict(rep)
    assert out.verdict == "inconclusive"
    assert not out.reductive
    assert "conjugation_limit" in out.message


def test_verdict_genus3_explicit(fuchsian):
    # pinch two handles: a genus-3 representation through the genus-2 group;
    # discrete centralizer, so the verdict is flexible with empty P and N
    images = list(fuchsian.images) + [np.eye(2), np.eye(2)]
    rep = surface_representation(standard_presentation(3), fuchsian.model, images)
    out = verdict(rep)
    assert out.verdict == "flexible"
    assert out.centralizer_dim == 0 and out.center_dim == 0
    assert out.genus == 3
    # a smooth point: Z^1 of the adjoint module has the virtual dimension (1 - chi) dim
    ws = cohomology(rep, adjoint_module(rep))
    assert ws.z1.shape[1] == (1 - rep.presentation.euler_characteristic) * rep.model.dim == 15


def _count_calls(monkeypatch, *fns) -> Counter:
    """Count calls to each function under every name a flexcheck module binds it to."""
    calls = Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "flexcheck"]
    for fn in fns:
        def counting(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_verdict_computes_shared_stages_once(case_pipeline, monkeypatch):
    # sp21-cline has two roots; the adjoint module is built once for both
    rep, _, _, _ = case_pipeline("sp21-cline")
    calls = _count_calls(monkeypatch, adjoint_module, centralizer)
    verdict(rep)
    assert calls == {"adjoint_module": 1, "centralizer": 1}


def test_verdict_computes_ad_once(case_pipeline, monkeypatch):
    # one batched Ad(g) for all generators, shared by the centralizer and the adjoint module
    rep, _, _, _ = case_pipeline("sp21-cline")
    calls = []
    original = LieAlgebraModel.adjoint_group_matrix

    def counting(self, g, *args, **kwargs):
        calls.append(np.shape(g))
        return original(self, g, *args, **kwargs)

    monkeypatch.setattr(LieAlgebraModel, "adjoint_group_matrix", counting)
    verdict(rep)
    assert calls == [(4,) + rep.images[0].shape]


def test_verdict_pairs_each_root_form_in_one_cup_call(case_pipeline, monkeypatch):
    # one block cup pairing per root Gram, not one call per pair of H^1 classes
    rep, _, _, _ = case_pipeline("sp21-cline")
    calls = _count_calls(monkeypatch, cup_pairing, _check_invariant_form)
    report = verdict(rep)
    assert len(report.roots) == 2 and all(r.h1_dim > 1 for r in report.roots)
    assert calls["cup_pairing"] == len(report.roots)
    assert calls["_check_invariant_form"] <= calls["cup_pairing"]


def test_verdict_at_theorem_threshold_genus():
    # su21-cline with the extra handles pinched to the identity, at genus
    # 2 dim(G)^2 = 128; expectations from closed forms only: H^0 = H^2 = 0 on
    # the root module gives h1 = (2g - 2) real_dim, |T| keeps its genus-2
    # value real_dim / 2, the root is no longer definite, so P is empty and
    # the one-dimensional center is balanced
    base = build_case_representation("su21-cline")
    genus = 2 * base.model.dim ** 2
    assert genus == 128
    ident = np.eye(base.images[0].shape[0])
    images = list(base.images) + [ident] * (2 * genus - 4)
    rep = surface_representation(standard_presentation(genus), base.model, images)
    report = verdict(rep)
    assert report.verdict == "flexible"
    assert report.genus_threshold == genus
    assert not any("below the theorem threshold" in c for c in report.caveats)
    assert [(abs(r.toledo), r.h1_dim, r.real_dim) for r in report.roots] == [
        (2, (2 * genus - 2) * 4, 4)]


def test_su31_pinched_toledo_sign_is_canonical():
    # with the two real handles placed among g slots and the rest pinched to
    # the identity, the one root keeps T = +4 at every genus and placement;
    # without an orientation rule the sign followed LAPACK's singular vectors
    base = build_case_representation("su31-cline")
    ident = np.eye(base.images[0].shape[0])
    for genus in range(2, 17):
        for slots in {(0, 1), (0, genus - 1), (genus - 2, genus - 1), (genus // 3, 2 * genus // 3)}:
            images = [ident] * (2 * genus)
            for handle, slot in enumerate(slots):
                images[2 * slot:2 * slot + 2] = base.images[2 * handle:2 * handle + 2]
            rep = surface_representation(standard_presentation(genus), base.model, images)
            assert [r.toledo for r in Pipeline(rep).forms] == [4], (genus, slots)
