"""Shared fixtures.

The large path batches (10^5 paths at the default 2048-step grid) are
expensive, so they are simulated once per session and shared by the law,
entropy, Girsanov, and acceptance tests.
"""

import numpy as np
import pytest

from outail.verify import DEFAULT_R_GRID, default_families, simulate_family_batch

N_PATHS = 10**5
STEPS = 2048
SEED = 42


@pytest.fixture(scope="session")
def families():
    return default_families()


@pytest.fixture(scope="session")
def batches(families):
    """One 10^5-path batch per family, reused across every test that can."""
    out = {}
    for offset, name in enumerate(sorted(families)):
        out[name] = simulate_family_batch(
            families[name],
            n_paths=N_PATHS,
            steps=STEPS,
            seed=SEED + offset,
            r_values=DEFAULT_R_GRID,
        )
    return out


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
