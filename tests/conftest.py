"""Shared fixtures.

The large path batches (10^5 paths at the default 2048-step grid) are
expensive, so they are simulated once per session and shared by the law,
entropy, Girsanov, and acceptance tests.
"""

import numpy as np
import pytest

from outail.foellmer import PathConfig, simulate_batches
from outail.verify import DEFAULT_R_GRID, default_families

N_PATHS = 10**5
STEPS = 2048
SEED = 42


@pytest.fixture(scope="session")
def families():
    return default_families()


@pytest.fixture(scope="session")
def batches(families):
    """One 10^5-path batch per family, reused across every test that can."""
    names = sorted(families)
    jobs = [(families[name], PathConfig(STEPS, SEED + offset), N_PATHS, DEFAULT_R_GRID)
            for offset, name in enumerate(names)]
    return dict(zip(names, simulate_batches(jobs)))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
