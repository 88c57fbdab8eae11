import numpy as np
import pytest

from flexcheck.catalog import build_case_representation, find_case
from flexcheck.engine import Pipeline
from flexcheck.liealg import build_classical
from flexcheck.surface import fuchsian_genus2


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
