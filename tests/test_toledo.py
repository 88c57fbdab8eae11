import functools

import numpy as np
import pytest

from conftest import bent_genus2, fuchsian_sum
from flexcheck.catalog import build_case_representation, default_cases
from flexcheck.config import TOLEDO_LIFT, NumericalAbort, Tolerances
from flexcheck.engine import Pipeline
from flexcheck.liealg import build_classical, centralizer, subalgebra_from_matrices
from flexcheck.roots import MIXED, check_in_g0, decompose
from flexcheck.surface import (
    adjoint_module,
    cohomology,
    cup_pairing,
    fuchsian_genus2,
    restricted_module,
    standard_presentation,
    surface_representation,
)
from flexcheck.toledo import lifted_toledo, root_form, standard_form
from reference import (coboundaries, cocycles, components, gram_signature_toledo, gram_toledo,
                       invariant_vectors, lagrangian_pair_check, scan_invariant_lagrangians,
                       signature, splitso)
from test_engine import FUCHSIAN_SUMS
from test_golden import _input_generators


def test_fuchsian_standard_module_signature(fuchsian):
    ws = cohomology(fuchsian, fuchsian.images)
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    h = ws.h1
    k = h.shape[1]
    gram = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            gram[i, j] = cup_pairing(ws, omega, h[:, i], h[:, j])
    sig = signature(0.5 * (gram + gram.T))
    assert abs(sig) == 4          # |T| = 1 = genus - 1
    # the lifted relator gives the same signature
    form = standard_form(fuchsian, omega)
    assert (form.signature, form.toledo, form.definite, form.milnor_wood_slack) == (sig, sig // 4, True, 0)


def test_a_standard_module_report_has_no_root_class(fuchsian):
    # the standard module is not a root space: no class, and never in P
    form = standard_form(fuchsian, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert form.root is None and form.classification is None and form.in_P is False


def test_su21_root_form(case_pipeline):
    rep, z, c, dec = case_pipeline("su21-cline")
    rr = root_form(rep, adjoint_module(rep), dec.roots[0])
    assert rr.h1_dim == 8
    assert abs(rr.signature) == 8 and abs(rr.toledo) == 2
    assert rr.definite
    assert rr.milnor_wood_slack == 0


def test_so41_root_form(case_pipeline):
    rep, z, c, dec = case_pipeline("so41-rplane")
    rr = root_form(rep, adjoint_module(rep), dec.roots[0])
    assert rr.h1_dim == 12
    assert rr.signature == 0 and rr.toledo == 0
    assert not rr.definite
    assert rr.milnor_wood_slack == 12


def test_real_root_toledo_vanishes(models):
    # abelian representation into the diagonal torus of SL(2,R)
    m = models["sl2"]
    h = np.array([[1.0, 0.0], [0.0, -1.0]])
    from flexcheck.surface import _expm
    images = [_expm(0.7 * h), np.eye(2), np.eye(2), np.eye(2)]
    rep = surface_representation(standard_presentation(2), m, images)
    torus = subalgebra_from_matrices(m, [h])
    dec = decompose(torus)
    assert len(dec.roots) == 1 and dec.roots[0].classification == "real"
    rr = root_form(rep, adjoint_module(rep), dec.roots[0])
    assert rr.toledo == 0


def test_root_form_rejects_noncentralized_torus(fuchsian, models):
    # the Fuchsian image does not centralize the diagonal torus of sl2
    m = models["sl2"]
    h = np.array([[1.0, 0.0], [0.0, -1.0]])
    torus = subalgebra_from_matrices(m, [h])
    dec = decompose(torus)
    with pytest.raises(NumericalAbort):
        root_form(fuchsian, adjoint_module(fuchsian), dec.roots[0])


def _so41_lagrangians(case_pipeline):
    from flexcheck.scalars import Field

    rep, z, c, dec = case_pipeline("so41-rplane")
    root = dec.roots[0]
    split = splitso(4, 1, Field.REAL, 2)
    adj = adjoint_module(rep)
    mod = restricted_module(adj, root.real_basis)
    # columns of B in Hom(R^2, R^3): first column = {c2 = 0}, second = {c1 = 0}
    l1_mats, l2_mats = [], []
    for (k, l, unit), mat in zip(split.hom_index, split.hom_block):
        vec = rep.model.coords(mat)
        coef = root.real_basis.T @ vec
        resid = np.abs(root.real_basis @ coef - vec).max()
        assert resid < 1e-8
        (l1_mats if l == 0 else l2_mats).append(coef)
    return rep, root, mod, np.stack(l1_mats, axis=1), np.stack(l2_mats, axis=1)


def test_so41_lagrangian_pair(case_pipeline):
    rep, root, mod, l1, l2 = _so41_lagrangians(case_pipeline)
    omega = root.omega.imag
    assert lagrangian_pair_check(mod, omega, l1, l2)
    rr = root_form(rep, adjoint_module(rep), root)
    assert rr.toledo == 0
    # mixing the two Lagrangians produces a non-isotropic subspace
    bad = l1.copy()
    bad[:, 0] = (l1[:, 0] + l2[:, 1]) / np.sqrt(2.0)
    assert np.abs(bad.T @ omega @ bad).max() > 1e-3   # genuinely non-isotropic
    assert not lagrangian_pair_check(mod, omega, bad, l2)


def test_so41_scan_finds_pair(case_pipeline):
    rep, root, mod, l1, l2 = _so41_lagrangians(case_pipeline)
    found = scan_invariant_lagrangians(mod, root.omega.imag)
    assert found is not None
    f1, f2 = found
    assert lagrangian_pair_check(mod, root.omega.imag, f1, f2)


def test_lagrangian_pair_check_uses_callers_rank_tolerance():
    # e1 and e1 + 1e-11 e2 are complementary only under a rank cutoff below 1e-11
    mod = np.stack([np.eye(2) for _ in range(4)])
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    l1 = np.array([[1.0], [0.0]])
    l2 = np.array([[1.0], [1e-11]])
    assert lagrangian_pair_check(mod, omega, l1, l2, Tolerances(rank=1e-13))
    assert not lagrangian_pair_check(mod, omega, l1, l2)


def test_su21_no_lagrangian_pair(case_pipeline):
    # T = 2 != 0 forbids an invariant Lagrangian pair
    rep, z, c, dec = case_pipeline("su21-cline")
    root = dec.roots[0]
    adj = adjoint_module(rep)
    mod = restricted_module(adj, root.real_basis)
    omega = root.omega.imag
    # exhaustive scan over coordinate subspace pairs
    import itertools
    m = mod.shape[-1]
    eye = np.eye(m)
    for cols in itertools.combinations(range(m), m // 2):
        rest = [j for j in range(m) if j not in cols]
        assert not lagrangian_pair_check(mod, omega, eye[:, list(cols)], eye[:, rest])
    assert scan_invariant_lagrangians(mod, omega) is None


def test_sp21_second_root_is_so41_reduction(case_pipeline):
    # the +-2i root of sp(2,1) carries the SO(4,1)-type structure: T = 0
    rep, z, c, dec = case_pipeline("sp21-cline")
    by_dim = {r.real_dim: r for r in dec.roots}
    assert set(by_dim) == {8, 6}
    adj = adjoint_module(rep)
    rr6 = root_form(rep, adj, by_dim[6])
    assert rr6.signature == 0 and rr6.toledo == 0
    mod = restricted_module(adj, by_dim[6].real_basis)
    found = scan_invariant_lagrangians(mod, by_dim[6].omega.imag)
    assert found is not None
    # the Hom-block root is maximal: std + conj-std add up, not cancel
    rr8 = root_form(rep, adj, by_dim[8])
    assert abs(rr8.toledo) == 4 and rr8.definite


def _sp21_root6_module(case_pipeline):
    rep, z, c, dec = case_pipeline("sp21-cline")
    root = next(r for r in dec.roots if r.real_dim == 6)
    return restricted_module(adjoint_module(rep), root.real_basis), root.omega.imag


def _scan_in_basis(mod, omega, g):
    """The scan's pair in the basis g of the module, checked there."""
    moved = np.stack([np.linalg.solve(g, a @ g) for a in mod])
    omega = g.T @ omega @ g
    found = scan_invariant_lagrangians(moved, omega)
    return found is not None and lagrangian_pair_check(moved, omega, *found)


def test_sp21_scan_finds_pair_for_every_seed(case_pipeline):
    # the scan draws nothing at random, so the root module's basis is what
    # varies: ten random orthonormal ones; a repeated real eigenvalue may
    # come with complex eigenvectors, and the cut is compared at the
    # rounding it was taken at
    mod, omega = _sp21_root6_module(case_pipeline)
    m = mod.shape[-1]
    assert _scan_in_basis(mod, omega, np.eye(m))
    for seed in range(10):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
        assert _scan_in_basis(mod, omega, q), seed


def test_sp21_scan_finds_pair_in_skewed_bases(case_pipeline):
    # the transpose of a commutant element commutes with the actions only
    # where the image is closed under transposition, as in an orthonormal
    # basis: here the scan's vectorization must match its reshape
    mod, omega = _sp21_root6_module(case_pipeline)
    m = mod.shape[-1]
    for seed in range(10):
        g = np.random.default_rng(seed).standard_normal((m, m)) + 3.0 * np.eye(m)
        assert _scan_in_basis(mod, omega, g), seed


def test_gram_on_coboundaries_vanishes(case_pipeline, rng):
    rep, z, c, dec = case_pipeline("su21-cline")
    root = dec.roots[0]
    adj = adjoint_module(rep)
    mod = restricted_module(adj, root.real_basis)
    ws = cohomology(rep, mod)
    omega = root.omega.imag
    b1, z1 = coboundaries(ws), cocycles(ws)
    for j in range(b1.shape[1]):
        for k in range(z1.shape[1]):
            assert abs(cup_pairing(ws, omega, b1[:, j], z1[:, k])) < 1e-9


def test_root_form_rejects_invariant_vectors(models):
    # trivial representation: the root module has H^0 != 0, as the whole
    # algebra centralizes the image; root_form's precondition, that the
    # centralizer lies in g_0, fails
    m = models["su21"]
    from flexcheck.scalars import Field, realify
    z = realify(components(np.diag([-2j, 1j, 1j])), Field.COMPLEX)
    torus = subalgebra_from_matrices(m, [z])
    dec = decompose(torus)
    rep = surface_representation(standard_presentation(2), m,
                                 [np.eye(m.realified_size)] * 4)
    adj = adjoint_module(rep)
    assert invariant_vectors(restricted_module(adj, dec.roots[0].real_basis)).shape[1] > 0
    with pytest.raises(NumericalAbort, match="H\\^0 is nonzero"):
        check_in_g0(torus, centralizer(m, adj))


def test_root_form_invariant_under_basis_rotation(case_pipeline, rng):
    # Omega's matrix is basis dependent; signatures and T are not
    from dataclasses import replace
    rep, z, c, dec = case_pipeline("su21-cline")
    root = dec.roots[0]
    adj = adjoint_module(rep)
    base = root_form(rep, adj, root)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((root.real_dim, root.real_dim)))
        rotated = replace(
            root,
            real_basis=root.real_basis @ q,
            omega=q.T @ root.omega @ q,
        )
        got = root_form(rep, adj, rotated)
        assert got.signature == base.signature
        assert got.toledo == base.toledo
        assert got.definite == base.definite


def _tracked_circle_lift(a, period, steps=500):
    """Continuous lift of the projective/vector circle action of a matrix."""
    def raw(phi):
        v = np.array([np.cos(phi), np.sin(phi)])
        w = a @ v
        ang = np.arctan2(w[1], w[0])
        return ang % period if period < 2 * np.pi else ang

    def f(phi):
        n = max(8, int(steps * (abs(phi) / period + 1)))
        ts = np.linspace(0.0, phi, n)
        prev = raw(ts[0])
        for t in ts[1:]:
            cur = raw(t)
            while cur - prev > period / 2:
                cur -= period
            while cur - prev < -period / 2:
                cur += period
            prev = cur
        return prev

    return f


def _functional_inverse(f, period):
    def g(y):
        lo, hi = y - 3 * period, y + 3 * period
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(mid) < y:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    return g


def _circle_euler_number(rep, period):
    lifts = {}
    for idx, g in enumerate(rep.images):
        f = _tracked_circle_lift(g, period)
        lifts[(idx, 1)] = f
        lifts[(idx, -1)] = _functional_inverse(f, period)
    x0 = 0.37
    phi = x0
    for s, sign in reversed(rep.presentation.letters):
        phi = lifts[(s, sign)](phi)
    val = (phi - x0) / period
    assert abs(val - round(val)) < 1e-6
    return int(round(val))


def test_milnor_euler_number_oracle(fuchsian):
    """Rotation-number oracle, independent of the cup-product machinery.

    The projective-line Euler number must equal the surface Euler
    characteristic (the octagon group is maximal), and the vector-circle
    Euler number must equal the Toledo invariant of the standard module
    computed through Fox calculus, cup products and Meyer's formula.
    """
    e_p1 = _circle_euler_number(fuchsian, np.pi)
    assert abs(e_p1) == 2
    e_vec = _circle_euler_number(fuchsian, 2 * np.pi)
    assert 2 * e_vec == e_p1

    ws = cohomology(fuchsian, fuchsian.images)
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    h = ws.h1
    gram = np.array([[cup_pairing(ws, omega, h[:, i], h[:, j])
                      for j in range(h.shape[1])] for i in range(h.shape[1])])
    toledo = signature(0.5 * (gram + gram.T)) // 4
    assert toledo == e_vec


# ---------------------------------------------------------------------------
# The Gram signature is the lifted relator's oracle
# ---------------------------------------------------------------------------

COMPUTABLE = [c.name for c in default_cases() if c.computable]
CONJUGATE_SCALES = (0.1, 0.4, 0.7, 1.0)
GENUS_SWEEP = (("su21-cline", 4), ("su21-cline", 6), ("su21-cline", 8),
               ("so41-rplane", 4), ("sp21-cline", 4))
STANDARD_OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _pinched(rep, genus: int):
    """``rep`` at ``genus``: its first handle first, its second last, the others the identity."""
    ident = np.eye(rep.images[0].shape[0])
    images = list(rep.images[:2]) + [ident] * (2 * genus - 4) + list(rep.images[2:])
    return surface_representation(standard_presentation(genus), rep.model, images)


def _expm_one_norm(x: np.ndarray) -> np.ndarray:
    """exp(x) by Taylor series, scaled by the 1-norm: perfbench's expm, bit for bit."""
    norm = float(np.abs(x).sum(axis=1).max(initial=0.0))
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.5))))
    y = x / 2.0 ** squarings
    out = term = np.eye(x.shape[0])
    for k in range(1, 20):
        term = term @ y / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


@functools.cache
def _conjugates() -> dict:
    """The 48 inputs of perfbench's conjugates workload: the catalog conjugated by
    exp(scale X), X's normal coefficients from one stream, in catalog then scale order."""
    rng = np.random.default_rng([0])
    out = {}
    for name in COMPUTABLE:
        rep = build_case_representation(name)
        for scale in CONJUGATE_SCALES:
            g = _expm_one_norm(rep.model.matrix(scale * rng.standard_normal(rep.model.dim)))
            ginv = np.linalg.inv(g)
            out[f"{name} {scale}"] = surface_representation(
                rep.presentation, rep.model, [g @ a @ ginv for a in rep.images])
    return out


# su41-rplane at 0.7 fails the Gram route's module relator check (1e-7);
# the test below it reads the lift alone there
GRAM_ABORTS = ("su41-rplane 0.7",)

LIFT_ORACLE_CASES = {
    **{name: functools.partial(build_case_representation, name) for name in COMPUTABLE},
    **{f"{name} genus {g}": functools.partial(
        lambda n, k: _pinched(build_case_representation(n), k), name, g) for name, g in GENUS_SWEEP},
    **{label: functools.partial(lambda k: _conjugates()[k], label)
       for label in (f"{name} {s}" for name in COMPUTABLE for s in CONJUGATE_SCALES)
       if label not in GRAM_ABORTS},
    "bent-sl5": bent_genus2,
    **{"-".join((f"su{p}{q}",) + blocks + (f"scale{scale}",)): functools.partial(
        fuchsian_sum, p, q, blocks, scale)
       for p, q, blocks, *_ in FUCHSIAN_SUMS for scale in (0.0, 0.4)},
}


@pytest.mark.parametrize("build", LIFT_ORACLE_CASES.values(), ids=LIFT_ORACLE_CASES)
def test_lifted_toledo_matches_the_gram_signature(build):
    # on every real or imaginary root, before the verdict orients the center:
    # T of the lifted relator is a quarter of the cup form's signature, sign
    # included, and h1 = -chi dim is the Fox-calculus H^1's dimension
    pipe = Pipeline(build())
    roots = [r for r in pipe.decomposition.roots if r.classification != MIXED]
    for root in roots:
        form = root_form(pipe.rep, pipe.adjoint, root)
        assert (form.toledo, form.h1_dim) == gram_toledo(pipe.rep, pipe.adjoint, root)
        assert form.lift_margin <= 1e-5


@pytest.mark.parametrize("genus", range(2, 7))
def test_lifted_toledo_of_the_octagon_standard_module(genus):
    # the pinched octagon group is maximal at genus 2: T = -1 at every genus
    rep = _pinched(fuchsian_genus2(), genus)
    toledo, margin = lifted_toledo(rep.images, STANDARD_OMEGA, rep.presentation)
    gram = gram_signature_toledo(cohomology(rep, rep.images), STANDARD_OMEGA)
    assert toledo == gram == -1 and margin <= 1e-12


def _golden_input(name: str):
    """The SL(2,R) representation of one of the golden report inputs."""
    images = np.array(_input_generators(name))[..., 0]
    return surface_representation(standard_presentation(2), build_classical("sl", 2), images)


def _diagonal_sp4():
    """The octagon group diagonally in Sp(4,R), g acting on each (e_i, f_i) plane."""
    images = np.zeros((4, 4, 4))
    for i in (0, 1):
        images[:, [[i], [i + 2]], [i, i + 2]] = fuchsian_genus2().images
    return surface_representation(standard_presentation(2), build_classical("spr", 2), images)


STANDARD_MODULES = {
    **{name: functools.partial(_golden_input, name) for name in ("octagon", "identity", "parabolic")},
    "octagon in sp(4,R)": _diagonal_sp4,
    **{f"octagon at genus {g}": lambda g=g: _pinched(fuchsian_genus2(), g) for g in range(3, 7)},
}


@pytest.mark.parametrize("build", STANDARD_MODULES.values(), ids=STANDARD_MODULES)
def test_standard_form_matches_fox_calculus_and_the_gram(build):
    # h1 by the count 2 h0 - chi m is Fox calculus's, and T the Gram signature's
    rep = build()
    omega = rep.model.form if rep.model.family == "spr" else STANDARD_OMEGA
    form = standard_form(rep, omega)
    ws = cohomology(rep, rep.images)
    assert (form.h1_dim, form.toledo) == (ws.h1_dim, gram_signature_toledo(ws, omega))
    assert form.milnor_wood_slack >= 0 and form.lift_margin <= 1e-9


def test_lift_matches_the_circle_rotation_number(fuchsian):
    # the vector-circle Euler number shares no arithmetic with the lift
    toledo, _ = lifted_toledo(fuchsian.images, STANDARD_OMEGA, fuchsian.presentation)
    assert toledo == _circle_euler_number(fuchsian, 2 * np.pi)


def test_lift_reads_a_conjugate_the_gram_route_rejects():
    # the root module's relator misses cocycle_check there, so cohomology
    # aborts; the lift still reads T = 0, with a margin far from 0 but under
    # TOLEDO_LIFT, and the verdict is the catalog's
    [label] = GRAM_ABORTS
    pipe = Pipeline(_conjugates()[label])
    [root] = pipe.decomposition.roots
    with pytest.raises(NumericalAbort, match="module action does not kill the relator"):
        gram_toledo(pipe.rep, pipe.adjoint, root)
    form = root_form(pipe.rep, pipe.adjoint, root)
    assert form.toledo == 0 and 1e-5 < form.lift_margin < TOLEDO_LIFT
    assert pipe.balance.balanced


def test_lift_rejects_a_form_the_actions_do_not_preserve(case_pipeline, rng):
    # an alternating form moved by a rotation the module does not commute with
    rep, _, _, dec = case_pipeline("su21-cline")
    root = dec.roots[0]
    q, _ = np.linalg.qr(rng.standard_normal((root.real_dim, root.real_dim)))
    module = restricted_module(adjoint_module(rep), root.real_basis)
    lifted_toledo(module, root.omega.imag, rep.presentation)
    with pytest.raises(NumericalAbort, match="module-invariant"):
        lifted_toledo(module, q.T @ root.omega.imag @ q, rep.presentation)


def test_lift_rejects_degenerate_and_symmetric_forms(fuchsian):
    identity = np.stack([np.eye(4)] * 4)
    degenerate = np.zeros((4, 4))
    degenerate[0, 1], degenerate[1, 0] = 1.0, -1.0
    with pytest.raises(NumericalAbort, match="degenerate"):
        lifted_toledo(identity, degenerate, fuchsian.presentation)
    with pytest.raises(NumericalAbort, match="alternating"):
        lifted_toledo(fuchsian.images, np.eye(2), fuchsian.presentation)


def test_lift_margin_trips_the_bound(fuchsian, monkeypatch):
    # a relator that does not close can leave the lift between integers: a
    # rotation by 1 radian and a diagonal element, whose commutator is not I
    from flexcheck import toledo
    c, s = np.cos(1.0), np.sin(1.0)
    images = np.stack([np.array([[c, s], [-s, c]]), np.diag([2.0, 0.5]), np.eye(2), np.eye(2)])
    with pytest.raises(NumericalAbort, match="turns from an integer"):
        lifted_toledo(images, STANDARD_OMEGA, fuchsian.presentation)
    monkeypatch.setattr(toledo, "TOLEDO_LIFT", 0.5)
    assert lifted_toledo(images, STANDARD_OMEGA, fuchsian.presentation)[1] > 0.01
