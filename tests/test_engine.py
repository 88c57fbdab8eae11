import dataclasses
import functools
import itertools
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bent_genus2, fuchsian_sum
from flexcheck.catalog import build_case_representation, default_cases
from flexcheck.cli import EXIT_OK, EXIT_RIGID, REPORTS, _cohomology_report, main
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
    _expm,
    adjoint_module,
    cohomology,
    cup_pairing,
    fuchsian_genus2,
    standard_presentation,
    surface_representation,
)
from flexcheck.roots import IMAGINARY, RootDatum
from flexcheck.toledo import RootFormReport, root_form
from reference import coboundaries, cocycles, root_cohomology, root_gram
from test_cli import _real_problem


@pytest.mark.parametrize("p, n", [([np.nan, 0.0], []), ([1.0, 0.0], [np.inf, 0.0])])
def test_balanced_rejects_non_finite_vectors(p, n):
    problem = BalanceProblem(2, (np.array(p),), (np.array(n),) if n else ())
    with pytest.raises(NumericalAbort, match="non-finite"):
        balanced(problem)


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
    reports = [root_form(rep, adj, r) for r in dec.roots]
    forms, n_values, problem = classify_PN(reports)
    assert [rr.in_P for rr in forms] == [True] and not n_values
    assert forms[0].toledo > 0
    ev = np.linalg.eigvalsh(root_gram(root_cohomology(rep, adj, dec.roots[0]), forms[0].root))
    assert np.all(ev > 0)            # positive definite after re-selection
    assert len(problem.p_vectors) == 1
    assert problem.p_vectors[0] @ forms[0].root.values.imag > 0


def test_classify_PN_flips_a_root_with_negative_toledo():
    # every catalog P root comes out of the pipeline with T > 0 already
    values = np.array([1.5j, -0.5j])
    omega = np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2)) * 1.0j
    root = RootDatum(values=values, classification=IMAGINARY, complex_dim=2,
                     real_basis=np.eye(6)[:, :4], t_vector=np.array([0.3, -0.1]), omega=omega)
    report = RootFormReport(root=root, real_dim=4, h1_dim=8, milnor_wood_bound=8, toledo=-2)
    forms, n_values, problem = classify_PN([report])
    flipped = forms[0]
    assert flipped.in_P and not n_values
    assert flipped.toledo == 2 and flipped.signature == 8
    assert np.array_equal(flipped.root.values, -values)
    assert np.array_equal(flipped.root.omega, -omega)
    assert np.array_equal(flipped.root.t_vector, -root.t_vector)
    assert len(problem.p_vectors) == 1
    assert np.array_equal(problem.p_vectors[0], (-values).imag)


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


# Sums of pairwise non-isomorphic Fuchsian blocks in SU(p,q) whose centers
# have rank 2 or 3: (p, q, blocks, verdict, centralizer = center dim, sorted
# (real_dim, |T|, h1) of the roots, certificate).  The rigid rows are the
# maximal sums in groups not of tube type (p > q, q blocks, one
# orientation), rigid by Burger-Iozzi-Wienhard; tube type (p = q) reads
# flexible.
_IMAG, _ZERO = (4, 2, 8), (8, 0, 16)
FUCHSIAN_SUMS = [
    (3, 2, ("F", "T"), "rigid", 2, [_IMAG, _IMAG, _ZERO], "separating"),
    (3, 2, ("F", "Tbar"), "flexible", 2, [_IMAG, _IMAG, _ZERO], "multipliers"),
    (4, 3, ("F", "T", "T2"), "rigid", 3, 3 * [_IMAG] + 3 * [_ZERO], "separating"),
    (4, 3, ("F", "T", "T2bar"), "flexible", 3, 3 * [_IMAG] + 3 * [_ZERO], "multipliers"),
    (4, 3, ("F", "Tbar", "T2bar"), "flexible", 3, 3 * [_IMAG] + 3 * [_ZERO], "multipliers"),
    (3, 3, ("F", "T", "T2"), "flexible", 2, 3 * [_ZERO], "none"),
    (2, 2, ("F", "T"), "flexible", 1, [_ZERO], "none"),
]


def _check_balance_certificate(report):
    """Re-verify the LP's certificate with this test's own arithmetic (lstsq and rank)."""
    p = np.array([f.root.values.imag for f in report.roots if f.in_P]).reshape(-1, report.center_dim)
    n = np.array([part for f in report.roots if not f.in_P
                  for part in (f.root.values.real, f.root.values.imag)]).reshape(-1, report.center_dim)
    bal = report.balance
    if bal.multipliers is not None:
        # mu >= 1 with sum mu_i p_i in span(N), and P + N spanning: 0 is interior
        mu = bal.multipliers
        assert len(mu) == len(p) and (mu >= 1.0 - 1e-12).all()
        combo = mu @ p
        coef = np.linalg.lstsq(n.T, combo, rcond=None)[0]
        assert np.abs(n.T @ coef - combo).max() < 1e-9 * max(np.abs(combo).max(), 1.0)
        assert np.linalg.matrix_rank(np.vstack([p, n])) == report.center_dim
        return "multipliers"
    if bal.separating is not None:
        # f >= 0 on P and f = 0 on N: everything lies in a closed half-space
        f = bal.separating / np.linalg.norm(bal.separating)
        assert (p @ f >= -1e-9).all()
        assert np.abs(n @ f).max(initial=0.0) < 1e-9
        return "separating"
    assert bal.quotient_dim == 0 and np.linalg.matrix_rank(n) == report.center_dim
    return "none"


@pytest.mark.parametrize("scale", [0.0, 0.4])
@pytest.mark.parametrize("p, q, blocks, expected, z, table, certificate", FUCHSIAN_SUMS,
                         ids=["-".join((f"su{p}{q}",) + blocks) for p, q, blocks, *_ in FUCHSIAN_SUMS])
def test_balanced_lp_decides_direct_sums_of_fuchsian_blocks(p, q, blocks, expected, z, table,
                                                            certificate, scale):
    report = verdict(fuchsian_sum(p, q, blocks, scale))
    assert report.verdict == expected
    assert report.centralizer_dim == report.center_dim == z
    assert sorted((f.real_dim, abs(f.toledo), f.h1_dim) for f in report.roots) == table
    assert sum(f.in_P for f in report.roots) == (z if certificate != "none" else 0)
    assert _check_balance_certificate(report) == certificate


def _pinched_genus3():
    """The octagon group at genus 3, its third handle pinched to the identity."""
    rep = fuchsian_genus2()
    return surface_representation(standard_presentation(3), rep.model,
                                  list(rep.images) + [np.eye(2)] * 2)


ADJOINT_ORACLE_CASES = {
    **{c.name: functools.partial(build_case_representation, c.name)
       for c in default_cases() if c.computable},
    "bent-sl5": bent_genus2,
    "pinched-genus3": _pinched_genus3,
    **{"-".join((f"su{p}{q}",) + blocks): functools.partial(fuchsian_sum, p, q, blocks)
       for p, q, blocks, *_ in FUCHSIAN_SUMS},
}


@pytest.mark.parametrize("build", ADJOINT_ORACLE_CASES.values(), ids=ADJOINT_ORACLE_CASES)
def test_cohomology_report_adjoint_block_matches_fox_calculus(build):
    # the report reads the adjoint block off the centralizer; the Fox-calculus
    # cohomology of the adjoint module is the independent route to it
    pipe = Pipeline(build())
    ws = cohomology(pipe.rep, pipe.adjoint)
    assert _cohomology_report(pipe, None)["adjoint"] == {
        "h0": ws.h0_dim, "h1": ws.h1_dim, "h2": ws.h2_dim,
        "z1": cocycles(ws).shape[1], "b1": coboundaries(ws).shape[1]}


@pytest.mark.parametrize("build", ADJOINT_ORACLE_CASES.values(), ids=ADJOINT_ORACLE_CASES)
def test_cohomology_report_root_block_matches_fox_calculus(build):
    # the report reads each root module's counts off h0 = h2 = 0 and
    # h1 = -chi dim; the Fox-calculus cohomology of the module is the
    # independent route to them
    pipe = Pipeline(build())
    entries = _cohomology_report(pipe, None)["root_modules"]
    assert len(entries) == len(pipe.decomposition.roots)
    for entry, root in zip(entries, pipe.decomposition.roots):
        ws = root_cohomology(pipe.rep, pipe.adjoint, root)
        assert (entry["dim"], entry["h0"], entry["h1"], entry["h2"]) == (
            ws.module_dim, ws.h0_dim, ws.h1_dim, ws.h2_dim)


def test_verdict_stable_under_tolerance_scaling():
    # every tolerance scaled by 10^-2 and 10^2 on every catalog case: the
    # verdict stays, or the pipeline aborts; it never flips
    fields = [f.name for f in dataclasses.fields(Tolerances)]
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
    assert sum(outcomes.values()) == 12 * len(fields) * 2 == 48


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
    assert rep.presentation.genus == 3
    # a smooth point: Z^1 of the adjoint module has the virtual dimension (1 - chi) dim
    ws = cohomology(rep, adjoint_module(rep))
    assert cocycles(ws).shape[1] == (1 - rep.presentation.euler_characteristic) * rep.model.dim == 15


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


def test_verdict_calls_neither_cohomology_nor_cup_pairing(case_pipeline, monkeypatch):
    # T comes from each root's lifted relator and h1 from the Euler
    # characteristic: no H^1 basis and no Gram on the verdict path
    rep, _, _, _ = case_pipeline("sp21-cline")
    calls = _count_calls(monkeypatch, cohomology, cup_pairing, root_form)
    report = verdict(rep)
    assert len(report.roots) == 2 and all(r.h1_dim > 1 for r in report.roots)
    assert calls == {"root_form": 2}


@pytest.mark.parametrize("command", [*REPORTS, "toledo --standard-module"])
def test_no_report_calls_cohomology_or_cup_pairing(command, tmp_path, capsys, monkeypatch):
    # every report reads counts and lifted relators: no H^1 basis and no Gram
    if command == "toledo --standard-module":
        problem = ["--input", str(_real_problem(tmp_path, "sl", [2], fuchsian_genus2().images))]
    else:
        problem = ["--catalog", "sp21-cline"]
    calls = _count_calls(monkeypatch, cohomology, cup_pairing)
    assert main([*command.split(), *problem]) in (EXIT_OK, EXIT_RIGID)
    assert capsys.readouterr().out and calls == {}


@pytest.mark.parametrize("name, genus, table", [("su21-cline", 128, (4, 2, 1016)),
                                                 ("su31-cline", 450, (8, 4, 7184))])
def test_threshold_genus_verdict_in_memory_linear_in_g(name, genus, table):
    # pinched data at 2 dim(G)^2, with the closed-form roots of the test
    # below; the Gram on H^1 alone would take h1^2 doubles (413 MB for
    # su31-cline), the adjoint module takes 2g dim^2, and the verdict's peak
    # must stay within a few of those
    base = build_case_representation(name)
    assert genus == 2 * base.model.dim ** 2
    ident = np.eye(base.images[0].shape[0])
    rep = surface_representation(standard_presentation(genus), base.model,
                                 list(base.images) + [ident] * (2 * genus - 4))
    tracemalloc.start()
    try:
        report = verdict(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == "flexible"
    assert [(r.real_dim, abs(r.toledo), r.h1_dim) for r in report.roots] == [table]
    assert peak <= 8 * (2 * genus * base.model.dim ** 2 * 8) + 2 ** 21


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
