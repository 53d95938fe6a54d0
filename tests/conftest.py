"""Shared fixtures.

The large path batches (10^5 paths at the default 2048-step grid) are
expensive, so they are simulated once per session and shared by the law,
entropy, Girsanov, and acceptance tests.
"""

import numpy as np
import pytest
from scipy.special import ndtri

from outail.foellmer import PathConfig, simulate_batches
from outail.rng import _U_MIN, words_per_path
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


@pytest.fixture(scope="session")
def reference_normals():
    """The normals of paths [first, first + n_paths), each path's window
    drawn on its own: a fresh Philox stream advanced to the path's first
    word, its ``steps * dim`` words of the stride, the floor, then ndtri."""

    def normals(seed, first, n_paths, steps, dim):
        stride = words_per_path(steps * dim)
        paths = []
        for p in range(first, first + n_paths):
            bg = np.random.Philox(key=seed)
            bg.advance(p * stride // 4)
            u = np.random.Generator(bg).random(stride)[: steps * dim]
            paths.append(ndtri(np.maximum(u, _U_MIN)).reshape(steps, dim))
        return np.array(paths)

    return normals
