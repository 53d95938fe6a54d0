"""Shared fixtures.

The large path batches (10^5 paths at the default 2048-step grid) are
expensive, so they are simulated once per session and shared by the law,
entropy, Girsanov, and acceptance tests.
"""

import numpy as np
import pytest
from scipy.special import logsumexp, ndtri, softmax

from outail.foellmer import PathConfig, simulate_batch
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
    """One 10^5-path batch per family on the same paths, as ``verify-all``
    runs them, reused across every test that can."""
    names = sorted(families)
    jobs = [(families[name], DEFAULT_R_GRID) for name in names]
    return dict(zip(names, simulate_batch(PathConfig(STEPS, SEED), N_PATHS, jobs)))


@pytest.fixture(scope="session")
def heat_kernel():
    """(density, s, x, rule) -> (log P_s f(x), grad log P_s f(x)) at points
    x of shape (..., dim) by Gauss-Hermite quadrature, with the gradient
    through the kernel score,

        grad log P_s f(x) = E[f(x + sqrt(s) Y) Y] / (sqrt(s) E[f(x + sqrt(s) Y)]):

    the reference the closed heat forms are tested against."""

    def kernel(density, s, x, rule):
        logs = rule.log_weights + density.log_f(x[..., None, :] + np.sqrt(s) * rule.nodes)
        return logsumexp(logs, axis=-1), softmax(logs, axis=-1) @ rule.nodes / np.sqrt(s)

    return kernel


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
