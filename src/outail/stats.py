"""Estimator statistics: batch-means errors, KS distances, level-set masses.

Every reduction here consumes a full per-sample array and reduces it in a
fixed order, so results do not depend on how the samples were produced
(worker count, chunk layout).
"""

from __future__ import annotations

import numpy as np

from .numeric import gauss_interval_mass

N_BATCHES = 32
# Uniform grids on [-GRID_HALFWIDTH, GRID_HALFWIDTH] for 1-D level sets and CDFs.
GRID_HALFWIDTH = 12.0
LEVEL_SET_GRID = 8193
LEVEL_SET_XTOL = 1e-12
CDF_GRID = 2**16 + 1

# Asymptotic 1% Kolmogorov quantile: one- and two-sample KS critical value.
KS_CRIT = 1.628


def batch_means(values: np.ndarray) -> tuple[float, float]:
    """Mean and batch-means standard error of a sample.

    Splits the sample into ``N_BATCHES`` contiguous batches (sizes differing
    by at most one) and estimates the SE of the grand mean from the spread of
    batch means.  Returns (mean, se); se is 0 when the spread is degenerate.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("batch_means needs at least one sample")
    mean = float(values.mean())
    if n < 2 * N_BATCHES:
        se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return mean, se
    # the first n % N_BATCHES batches hold one sample more, as np.array_split
    q, big = divmod(n, N_BATCHES)
    cut = big * (q + 1)
    sums = np.concatenate([values[:cut].reshape(big, q + 1).sum(1),
                           values[cut:].reshape(N_BATCHES - big, q).sum(1)])
    sizes = np.repeat([q + 1.0, q], [big, N_BATCHES - big])
    bmeans = sums / sizes
    grand = float(bmeans @ sizes / n)
    var_bm = float(((bmeans - grand) ** 2 * sizes).sum() / (N_BATCHES - 1))
    return mean, float(np.sqrt(var_bm / n))


def ks_one_sample(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a CDF callable."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(np.maximum(grid - f, f - (grid - 1.0 / n)).max())


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS distance: sup over thresholds of the empirical CDF gap."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    allv = np.concatenate([a, b])
    fa = np.searchsorted(a, allv, side="right") / a.size
    fb = np.searchsorted(b, allv, side="right") / b.size
    return float(np.abs(fa - fb).max())


class DenseCdf:
    """Quadrature CDF of a 1-D density against the Gaussian, on a dense grid.

    Integrates density(x)*phi(x) by the trapezoid rule on a uniform grid and
    normalizes the far-right value to 1, then evaluates by linear
    interpolation.
    """

    def __init__(self, log_density_fn):
        xs = np.linspace(-GRID_HALFWIDTH, GRID_HALFWIDTH, CDF_GRID)
        logphi = -0.5 * xs * xs - 0.5 * np.log(2.0 * np.pi)
        dens = np.exp(np.asarray(log_density_fn(xs)) + logphi)
        h = xs[1] - xs[0]
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * h)])
        self.xs = xs
        self.total = float(cum[-1])
        self.cdf_grid = cum / self.total

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.cdf_grid)


def superlevel_gamma_mass(log_value_fn, log_levels) -> np.ndarray:
    """gamma_1-measure of each 1-D super-level set {x : g(x) > level}, for
    the levels of one curve; the result has the shape of ``log_levels``.

    Evaluates g once on a dense grid, shared by every level, and takes the
    sign changes of g - level of all levels together.  All brackets are
    bisected together, one call of g on the array of midpoints per halving,
    until they are narrower than ``LEVEL_SET_XTOL``; each crossing is the
    midpoint of its last bracket.  The Gaussian masses of the intervals
    above each level are summed in increasing x.  The function is assumed
    continuous with finitely many crossings resolved by the grid.
    """
    xs = np.linspace(-GRID_HALFWIDTH, GRID_HALFWIDTH, LEVEL_SET_GRID)
    levels = np.asarray(log_levels, dtype=float)
    flat = levels.ravel()
    above = np.asarray(log_value_fn(xs)) > flat[:, None]  # (levels, grid)
    level, i = np.nonzero(above[:, 1:] != above[:, :-1])
    lo, hi, lo_above = xs[i], xs[i + 1], above[level, i]
    halvings = int(np.ceil(np.log2((xs[1] - xs[0]) / LEVEL_SET_XTOL))) if level.size else 0
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        to_lo = (np.asarray(log_value_fn(mid)) > flat[level]) == lo_above
        lo, hi = np.where(to_lo, mid, lo), np.where(to_lo, hi, mid)
    # a set still above at an end of the grid is closed far out
    far = 10.0 * GRID_HALFWIDTH
    open_left, open_right = np.flatnonzero(above[:, 0]), np.flatnonzero(above[:, -1])
    edges = np.concatenate([0.5 * (lo + hi), np.full(open_left.size, -far),
                            np.full(open_right.size, far)])
    owner = np.concatenate([level, open_left, open_right])
    order = np.lexsort((edges, owner))
    edges, owner = edges[order], owner[order]
    mass = gauss_interval_mass(edges[0::2], edges[1::2])
    return np.bincount(owner[0::2], weights=mass, minlength=flat.size).reshape(levels.shape)
