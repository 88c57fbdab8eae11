import numpy as np
import pytest

from flexcheck.catalog import _sl2_to_su11, build_case_representation, find_case
from flexcheck.engine import Pipeline
from flexcheck.liealg import build_classical
from flexcheck.scalars import Field, realify
from flexcheck.surface import _expm, fuchsian_genus2, standard_presentation, surface_representation
from reference import components


def bent_genus2():
    """The genus-2 Fuchsian group bent inside SL(2,C), realified into SL(5,R).

    With c = [a2, b2] and h = exp(0.3i log c) (from the eigendecomposition
    of c), the images are a1, b1, h a2 h^-1, h b2 h^-1: h commutes with c,
    so the relator holds.  Each is realified over C into the top-left 4x4
    block of the 5x5 identity.  The center of the centralizer is 2-dimensional
    with one imaginary and one mixed root.
    """
    a1, b1, a2, b2 = fuchsian_genus2().images
    c = a2 @ b2 @ np.linalg.inv(a2) @ np.linalg.inv(b2)
    lam, vecs = np.linalg.eig(c)
    h = vecs @ np.diag(np.exp(0.3j * np.log(lam.astype(complex)))) @ np.linalg.inv(vecs)
    hinv = np.linalg.inv(h)
    images = []
    for g in (a1, b1, h @ a2 @ hinv, h @ b2 @ hinv):
        image = np.eye(5)
        image[:4, :4] = realify(components(g), Field.COMPLEX)
        images.append(image)
    return surface_representation(standard_presentation(2), build_classical("sl", 5), images)


def fuchsian_sum(p: int, q: int, blocks, scale: float = 0.0, seed: int = 0):
    """Genus-2 Fuchsian blocks in SU(1,1) on (+, -) coordinate pairs of SU(p,q), realified.

    A block is "F", the octagon group, or "T" or "T2": F with a1 -> a1 b1 or
    a1 -> a1 b1^2.  Those keep [a1, b1], so the relator holds, and are not
    conjugate to F.  A trailing "bar" takes the complex conjugate, which
    negates T.  Block i acts on coordinates i and p + i, through the Cayley
    map of the catalog's complex-line cases.  The realified images are then
    conjugated by exp(scale X), for a normal random X of su(p,q) drawn from
    ``seed``.
    """
    a1, b1, a2, b2 = fuchsian_genus2().images
    images = [np.eye(p + q, dtype=complex) for _ in range(4)]
    for i, block in enumerate(blocks):
        name = block.removesuffix("bar")
        gens = (a1 @ np.linalg.matrix_power(b1, {"F": 0, "T": 1, "T2": 2}[name]), b1, a2, b2)
        for image, g in zip(images, gens):
            h = _sl2_to_su11(g)
            image[np.ix_([i, p + i], [i, p + i])] = h if name == block else h.conj()
    model = build_classical("su", p, q)
    g = _expm(model.matrix(scale * np.random.default_rng(seed).standard_normal(model.dim)))
    ginv = np.linalg.inv(g)
    return surface_representation(standard_presentation(2), model,
                                  [g @ realify(components(a), Field.COMPLEX) @ ginv for a in images])


@pytest.fixture(scope="session")
def fuchsian():
    return fuchsian_genus2()


@pytest.fixture(scope="session")
def models():
    return {
        "sl2": build_classical("sl", 2),
        "su21": build_classical("su", 2, 1),
        "so41": build_classical("so", 4, 1),
        "so31": build_classical("so", 3, 1),
        "sp21": build_classical("sp", 2, 1),
        "su31": build_classical("su", 3, 1),
        "so3": build_classical("so", 3, 0),
    }


@pytest.fixture(scope="session")
def case_pipeline():
    """Cached (rep, centralizer, center, decomposition) per catalog case."""
    cache: dict = {}

    def run(name: str):
        if name not in cache:
            pipe = Pipeline(build_case_representation(find_case(name)))
            cache[name] = (pipe.rep, pipe.z, pipe.center, pipe.decomposition)
        return cache[name]

    return run


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
