import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from graphhardy import calculus, zoo


@pytest.fixture(params=["oracle", "series"])
def path(request, monkeypatch):
    """The evaluation path every automatic-path call takes: the dense
    oracle, or the truncated series with ORACLE_MAX_N at 0."""
    if request.param == "series":
        monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    return request.param


@pytest.fixture(scope="session")
def k2l():
    return zoo.k2l()


@pytest.fixture(scope="session")
def cycle8():
    return zoo.lazy_cycle(8)


@pytest.fixture(scope="session")
def cycle16():
    return zoo.lazy_cycle(16)


@pytest.fixture(scope="session")
def cycle32():
    return zoo.lazy_cycle(32)


@pytest.fixture(scope="session")
def path9():
    return zoo.lazy_path(9)


@pytest.fixture(scope="session")
def torus8():
    return zoo.lazy_torus_2d(8)


@pytest.fixture(scope="session")
def torus12():
    return zoo.lazy_torus_2d(12)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def f0():
    return np.array([1.0, -1.0])
