import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# what an in-process ``hsfuse.cli.main`` call writes to the environment: the
# pool size and the pinned BLAS/OpenMP thread counts, as the session found them
_THREAD_ENV = {
    var: os.environ.get(var)
    for var in (
        "HSFUSE_THREADS",
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


@pytest.fixture(autouse=True)
def _thread_env():
    """Put every thread variable back after each test, so no pool size leaks into later tests."""
    yield
    for var, value in _THREAD_ENV.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
