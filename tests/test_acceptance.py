"""Acceptance suite: worked-example reproduction and property checks.

Each test prints one PASS line; stated tolerances are asserted inside.
"""

import time

import numpy as np

from flexcheck.catalog import default_cases
from flexcheck.engine import BalanceProblem, Pipeline, balanced, verdict
from flexcheck.scalars import Field
from flexcheck.surface import (
    _expm,
    adjoint_module,
    cohomology,
    correct_relator,
    cup_pairing,
    restricted_module,
    surface_representation,
)
from flexcheck.toledo import root_form
from reference import (
    bracket_coords,
    coboundaries,
    cocycles,
    lagrangian_pair_check,
    root_cohomology,
    root_gram,
    scan_invariant_lagrangians,
    signature,
    splitso,
    torus_gram,
)


def _report(num: int, text: str):
    print(f"\nACCEPTANCE {num}: PASS -- {text}")


def test_acceptance_01_su21_rigid(case_pipeline):
    t0 = time.monotonic()
    rep, z, c, dec = case_pipeline("su21-cline")
    out = verdict(rep)
    assert len(out.roots) == 1
    root = out.roots[0]
    assert root.classification == "imaginary"
    assert root.real_dim == 4
    assert root.h1_dim == 8
    assert root.signature == 8 and root.toledo == 2      # T = -chi = 2
    assert root.definite                                  # Im(Q) positive definite
    assert root.milnor_wood_slack == 0
    assert out.verdict == "rigid"
    pipe = Pipeline(rep)
    [rr] = [f for f in pipe.split[0] if f.in_P]
    assert rr.lift_margin <= 1e-12                        # lifted relator at an integer T
    ws = root_cohomology(rep, pipe.adjoint, rr.root)
    assert np.all(np.linalg.eigvalsh(root_gram(ws, rr.root)) > 0)
    elapsed = time.monotonic() - t0
    assert elapsed <= 10.0
    _report(1, f"su(2,1) rigid example reproduced in {elapsed:.2f}s")


def test_acceptance_02_so41_flexible(case_pipeline):
    t0 = time.monotonic()
    rep, z, c, dec = case_pipeline("so41-rplane")
    root = dec.roots[0]
    assert root.real_dim == 6                             # Hom(R^2, R^3)
    split = splitso(4, 1, Field.REAL, 2)
    adj = adjoint_module(rep)
    mod = restricted_module(adj, root.real_basis)
    l1, l2 = [], []
    for (k, l, unit), mat in zip(split.hom_index, split.hom_block):
        coef = root.real_basis.T @ rep.model.coords(mat)
        (l1 if l == 0 else l2).append(coef)
    l1 = np.stack(l1, axis=1)
    l2 = np.stack(l2, axis=1)
    assert lagrangian_pair_check(mod, root.omega.imag, l1, l2)   # {c2=0}, {c1=0}
    rr = root_form(rep, adj, root)
    assert rr.signature == 0 and rr.toledo == 0
    out = verdict(rep)
    assert out.verdict == "flexible"
    assert out.balance.balanced and out.balance.quotient_dim == 0   # N spans
    elapsed = time.monotonic() - t0
    assert elapsed <= 10.0
    _report(2, f"so(4,1) flexible example with Lagrangian pair in {elapsed:.2f}s")


def test_acceptance_03_sp21_cline(case_pipeline):
    t0 = time.monotonic()
    rep, z, c, dec = case_pipeline("sp21-cline")
    adj = adjoint_module(rep)
    reports = {r.real_dim: root_form(rep, adj, r) for r in dec.roots}
    # the root realizing the stated SO(4,1) reduction: signature 0, T = 0
    assert 6 in reports
    rr6 = reports[6]
    assert rr6.signature == 0 and rr6.toledo == 0
    root6 = [r for r in dec.roots if r.real_dim == 6][0]
    mod = restricted_module(adj, root6.real_basis)
    pair = scan_invariant_lagrangians(mod, root6.omega.imag)
    assert pair is not None                                # SO(4,1)-type structure
    out = verdict(rep)
    assert out.verdict == "flexible"
    # the Hom(H, H^2) root is maximal: its two conjugate C^2-summands carry
    # opposite symplectic signs and equal Toledo contributions, so they add;
    # flexibility still follows because the T = 0 root spans the dual torus
    assert abs(reports[8].toledo) == 4 and reports[8].definite
    elapsed = time.monotonic() - t0
    assert elapsed <= 30.0
    _report(3, f"sp(2,1) C-line: T = 0 on the SO(4,1)-reduction root, flexible, {elapsed:.2f}s")


def test_acceptance_04_su31_scaling(case_pipeline):
    rep2, _, _, dec2 = case_pipeline("su21-cline")
    rep3, _, _, dec3 = case_pipeline("su31-cline")
    root2, root3 = dec2.roots[0], dec3.roots[0]
    t2 = root_form(rep2, adjoint_module(rep2), root2).toledo
    t3 = root_form(rep3, adjoint_module(rep3), root3).toledo
    assert abs(t2) == 2 and abs(t3) == 4
    assert abs(t3) == 2 * abs(t2)
    _report(4, f"su(3,1) C-line Toledo scaling: |T(3)| = {abs(t3)} = 2 x |T(2)|")


def test_acceptance_05_meyer_milnor_suite(fuchsian, rng):
    ws = cohomology(fuchsian, fuchsian.images)
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    h = ws.h1
    gram = np.array([[cup_pairing(ws, omega, h[:, i], h[:, j])
                      for j in range(h.shape[1])] for i in range(h.shape[1])])
    sig = signature(0.5 * (gram + gram.T))
    assert abs(sig) == 4                                  # |T| = genus - 1 = 1
    chi = fuchsian.presentation.euler_characteristic
    count = 0
    for trial in range(50):
        images = []
        for g in fuchsian.images:
            move = 1e-3 * rng.standard_normal(3)
            images.append(g @ _expm(np.tensordot(move, fuchsian.model.basis, axes=(0, 0))))
        fixed = correct_relator(images, fuchsian.presentation, fuchsian.model)
        rep = surface_representation(fuchsian.presentation, fuchsian.model, fixed)
        wsp = cohomology(rep, rep.images)
        hp = wsp.h1
        gp = np.array([[cup_pairing(wsp, omega, hp[:, i], hp[:, j])
                        for j in range(hp.shape[1])] for i in range(hp.shape[1])])
        s = signature(0.5 * (gp + gp.T))
        assert s % 4 == 0
        slack = -chi * 2 - abs(s)
        assert slack >= 0
        count += 1
    assert count >= 50
    _report(5, f"Meyer/Milnor suite: |sig| = 4 and {count} perturbed reps with slack >= 0")


def test_acceptance_06_torus_identity_suite(case_pipeline, rng):
    worst_bracket, worst_t = 0.0, 0.0
    for name in ("su21-cline", "so41-rplane", "sp21-cline"):
        rep, z, c, dec = case_pipeline(name)
        model = rep.model
        gram = torus_gram(c)
        for r in dec.roots:
            for _ in range(100):
                xi = rng.standard_normal(r.real_dim)
                yi = rng.standard_normal(r.real_dim)
                x = r.real_basis @ xi
                y = r.real_basis @ yi
                br = bracket_coords(model, x, y)
                # Killing-orthogonal projection onto the torus, in torus coordinates
                tproj = np.linalg.solve(gram, c.coords @ model.killing @ br)
                pred = np.real(complex(xi @ r.omega @ yi) * r.t_vector)
                scale = max(np.abs(br).max(), 1.0)
                worst_bracket = max(worst_bracket, np.abs(tproj - pred).max() / scale)
            resid = np.abs(gram.astype(complex) @ r.t_vector - r.values).max()
            worst_t = max(worst_t, resid / max(np.abs(r.values).max(), 1.0))
    assert worst_bracket <= 1e-8
    assert worst_t <= 1e-9
    _report(6, f"torus identities: bracket residual {worst_bracket:.2e}, "
               f"t_lambda residual {worst_t:.2e}")


def test_acceptance_07_cohomology_dimension_suite(case_pipeline):
    checked = 0
    for name in ("su21-cline", "so41-rplane", "sp21-cline", "su31-cline"):
        rep, z, c, dec = case_pipeline(name)
        chi = rep.presentation.euler_characteristic
        adj = adjoint_module(rep)
        modules = [adj] + [restricted_module(adj, r.real_basis) for r in dec.roots]
        for mod in modules:
            ws = cohomology(rep, mod)
            m = ws.module_dim
            assert ws.h0_dim - ws.h1_dim + ws.h2_dim == chi * m
            assert cocycles(ws).shape[1] == ws.h2_dim + (1 - chi) * m
            checked += 1
        # coboundaries pair to zero against all cocycles (root modules)
        for r, mod in zip(dec.roots, modules[1:]):
            ws = cohomology(rep, mod)
            om = r.omega.imag if r.classification == "imaginary" else r.omega.real
            b1, z1 = coboundaries(ws), cocycles(ws)
            for j in range(b1.shape[1]):
                for k in range(z1.shape[1]):
                    assert abs(cup_pairing(ws, om, b1[:, j], z1[:, k])) < 1e-9
    _report(7, f"cohomology dimension identities integer-exact on {checked} modules")


def test_acceptance_08_splitso_suite():
    # the bracket closed form is checked on all three decompositions by
    # tests/test_catalog.py::test_hom_block_bracket_closed_form
    dec_r = splitso(4, 1, Field.REAL, 2)
    assert dec_r.dims == (1, 3, 6) and sum(dec_r.dims) == 10
    _report(8, "splitso suite: dims 1+3+6 = 10")


def test_acceptance_09_balanced_lp_suite(rng):
    # geometry examples from the operation contract
    assert not balanced(BalanceProblem(1, (np.array([3.0]),), ())).balanced
    assert balanced(BalanceProblem(1, (), (np.array([2.0]),))).balanced
    square = tuple(np.array(v, dtype=float) for v in [(1, 0), (-1, 0), (0, 1), (0, -1)])
    res = balanced(BalanceProblem(2, square, ()))
    assert res.balanced and np.all(res.multipliers >= 1.0 - 1e-12)
    assert not balanced(BalanceProblem(2, square[::3], ())).balanced   # (1,0),(0,-1)
    assert not balanced(BalanceProblem(2, (square[0], square[2]), ())).balanced
    # invariance under 20 random linear isomorphisms and positive rescalings
    configs = [
        (2, square, (np.array([1.0, 1.0]),)),
        (2, (square[0], square[2]), ()),
        (3, tuple(np.array(v, dtype=float) for v in
                  [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]),
         (np.array([0.0, 0.0, 1.0]),)),
    ]
    for dim, pvecs, nvecs in configs:
        base = balanced(BalanceProblem(dim, pvecs, nvecs)).balanced
        for _ in range(20):
            m = rng.standard_normal((dim, dim))
            while abs(np.linalg.det(m)) < 0.2:
                m = rng.standard_normal((dim, dim))
            assert balanced(BalanceProblem(
                dim, tuple(m @ p for p in pvecs),
                tuple(m @ n for n in nvecs))).balanced == base
            scales = rng.uniform(0.1, 9.0, size=len(pvecs))
            assert balanced(BalanceProblem(
                dim, tuple(s * p for s, p in zip(scales, pvecs)),
                nvecs)).balanced == base
    _report(9, "balanced LP unit suite: geometry examples and 120 invariance checks")


def test_acceptance_10_centralizer_table(case_pipeline):
    t0 = time.monotonic()
    rows = 0
    for case in default_cases():
        if not case.computable:
            continue
        rep, z, c, dec = case_pipeline(case.name)
        assert z.dim == case.centralizer_dim, case.name
        assert c.dim == case.center_dim, case.name
        rows += 1
    elapsed = time.monotonic() - t0
    assert elapsed <= 300.0
    _report(10, f"centralizer table: {rows} classical cases integer-exact in {elapsed:.1f}s")
