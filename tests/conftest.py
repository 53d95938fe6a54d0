"""Shared fixtures.

The large path batches (10^5 paths at the default 2048-step grid) are
expensive, so they are simulated once per session and shared by the law,
entropy, Girsanov, and acceptance tests.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import logsumexp, ndtri, softmax

from outail.foellmer import DriftField, PathConfig, simulate_batch
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


@pytest.fixture(scope="session")
def reference_path(reference_normals):
    """(density, cfg, p) -> path p of a batch under ``cfg``, stepped on its
    own in a plain loop over the nodes.  It holds ``db`` (m, dim), the
    increments, and at every node i = 0..m: ``x`` and ``v`` (m + 1, dim),
    ``k`` = K and the left-endpoint sums ``stoch`` = sum_{j<i} <v_j, dB_j>
    and ``energy`` = sum_{j<i} |v_j|^2 dt (m + 1,); at node m, (k, v) =
    (log f, grad log f)(X_1).  ``drift``, a ``DriftField(density, steps)``,
    lets many paths share their tables, whose values do not depend on the
    paths that built them; a fresh field by default."""

    def path(density, cfg, p=0, drift=None):
        m, dim = cfg.steps, density.dim
        dt = 1.0 / m
        db = np.sqrt(dt) * reference_normals(cfg.seed, p, 1, m, dim)[0]
        if drift is None:
            drift = DriftField(density, m)
        x, v = np.zeros((m + 1, dim)), np.zeros((m + 1, dim))
        k, stoch, energy = np.zeros(m + 1), np.zeros(m + 1), np.zeros(m + 1)
        for i in range(m):
            k_i, v_i = drift.eval(i, x[i:i + 1])
            k[i], v[i] = k_i[0], v_i[0]
            stoch[i + 1] = stoch[i] + (v[i] * db[i]).sum()
            energy[i + 1] = energy[i] + (v[i] * v[i]).sum() * dt
            x[i + 1] = x[i] + db[i] + v[i] * dt
        k[m] = density.log_f(x[m:])[0]
        v[m] = density.grad_log_f(x[m:])[0]
        return SimpleNamespace(db=db, x=x, v=v, k=k, stoch=stoch, energy=energy)

    return path
