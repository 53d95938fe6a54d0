"""Simulation of the drift process whose time-1 law is f d(gamma_n).

The process solves dX = dB + v(t, X) dt on [0, 1] from X_0 = 0, with drift
v(t, x) = grad log P_{1-t} f(x).  Alongside each path we track the value
process K_t = log P_{1-t} f(X_t), its Ito reconstruction from the stochastic
integral and drift energy, the first passage of K over log r, and the
perturbed endpoint / Girsanov weight obtained by stretching the drift by
(1 + delta) up to the passage time.

Discrete conventions (uniform grid, m steps):
  * Euler-Maruyama with left-endpoint (Ito) sums for all integrals;
  * the stopping index T is the first node whose K value strictly exceeds
    log r, else m; integrals "up to T" sum steps i < T, so they reconstruct
    K at node T and may overshoot log r by one step;
  * at the final node the bandwidth is 0 and K, v are evaluated exactly as
    log f(X_1), grad log f(X_1).

Per-path randomness comes from a counter-based stream keyed by (seed, path
index), so batches are reproducible under any chunk layout.

``PathConfig`` holds the only settings a caller chooses: the number of
steps and the seed.  The drift is read off the density's closed heat
transform ``closed_heat_at``, with one spatial table per step for 1-D fields
whose drift depends on the state.
Thresholds are part of each ``simulate_batch`` job: each distinct one is one
more stopping time on the same paths, stored threshold-major in increasing
order as (n_thresholds, N) arrays whose rows are the ``StoppedSlice`` views;
delta and beta enter only ``perturbation_arrays``.  The one step loop,
``_Batch.step``, writes each chunk into views of the batch arrays, the
drift at the fixed checkpoint nodes among them.

First passages cost per crossing, not per (threshold, path) pair: each
path keeps how many of the sorted thresholds it has passed and the next
log r, so a step makes one comparison per path, and only the paths that
crossed are frozen, by index, for every threshold they jumped.

A run is one draw: ``simulate_batch``, the one driver, takes one
``PathConfig``, one path count and every batch of the run (``verify-all``
has one per family, all of one dim) and returns their ``BatchStats`` in
order.  Every batch of a run is driven by the same normals (common random
numbers), so each chunk of paths is drawn once, stepped for every
batch and dropped before the next is drawn: one chunk is held at a time.  A
chunk holds at most ``NORMALS_BUDGET_WORDS`` normals, step-major as Brownian
increments, so the loop reads one contiguous row per step.  Two worker
threads draw it as two path halves, each one ``path_normals`` call that
writes sqrt(1/m) times the normals into its view of the chunk.  A draw
writes its uniforms first and then turns them into normals one tile of
steps at a time, reporting each tile, and the step loop waits only when it
reaches a step that a half has not reported: a chunk starts stepping once
its uniforms are in place, not once it is drawn.

A drift table holds only the grid cells that the paths reach: a step's
table is built when the first chunk reaches the step, over the cells its
paths occupy, and a later chunk's paths that go past it widen it.  At 2048
steps the paths of the default mixture and sine occupy about a quarter of
the 2048 cells.

K is read only by the passage check and by K_0, so a step skips it when no
path can cross there: each table window keeps a proven ceiling on every K
its interpolation can return (its largest K plus a rounding margin), and
while that ceiling is below the lowest next log r of any path the step
interpolates v alone.  A window of a step after the first whose ceiling is
below the batch's lowest log r, which no next log r falls under, holds no K
at all, only the two numbers its ceiling is built from.  The default
mixture and sine, whose sup log f is below log e, evaluate and keep K at
step 0 only.  The passages are those of a loop that evaluates K at every
step, bit for bit.
"""

from __future__ import annotations

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import NonFiniteValueError
from .measures import DensityModel
from .rng import path_normals, words_per_path

DEFAULT_STEPS = 2048
MIN_STEPS = 100
# Spatial grid of the drift tables: the final node is always exact, and the
# interpolation error stays well under the Monte Carlo noise floor.
DRIFT_GRID_POINTS = 2048
DRIFT_GRID_HALFWIDTH = 12.0
# Cells a step's table window takes beyond those its points reached, on each
# side: later chunks of paths then seldom widen it.
DRIFT_WINDOW_PAD = 64
CHECKPOINT_TIMES = (0.25, 0.5, 0.75)
# Normals drawn per chunk of paths (float64 words, 128 MiB); every batch of a
# run steps the same chunk, and one such buffer is alive at a time.
NORMALS_BUDGET_WORDS = 1 << 24
MIN_CHUNK_PATHS = 256


@dataclass(frozen=True)
class PathConfig:
    """Simulation parameters for one family of paths."""

    steps: int = DEFAULT_STEPS
    seed: int = 0

    def __post_init__(self):
        if self.steps < MIN_STEPS:
            raise ValueError(f"need at least {MIN_STEPS} time steps, got {self.steps}")


class DriftField:
    """Evaluates (K, v)(s, x) = (log P_s f(x), grad log P_s f(x)) for the
    drift of a ``steps``-step path, whose step i has bandwidth s = 1 - i/steps.

    Every evaluation comes from the family's ``closed_heat_at``.  A 1-D
    field whose drift is not constant (every family but the log-linear
    tilt) is tabulated on a fixed spatial grid and evaluated by linear
    interpolation.  Step i's table ``tables[i]`` = (first cell, K, v) holds
    only a window, the contiguous run of grid cells that its evaluations
    have reached, ``DRIFT_WINDOW_PAD`` more on each side: it is built at
    the step's first ``eval`` and widened, never rebuilt, when a later one
    reaches past it, so each cell of a step is computed once.  A table
    value depends only on its step and cell, so results are independent of
    batch layout.  States beyond the grid clamp to its edge values;
    ``clamps`` counts the (state, step) pairs that did.

    Beside each table, ``k_extremes[i]`` = (largest K, largest |K|) of the
    window and ``k_ceilings[i]``, built from them, bound every K that step
    i's window can interpolate (``_k_ceiling``), so ``eval`` can leave K
    out where it cannot matter.  A window of a step i > 0 whose ceiling is
    below ``lowest_log_r`` (the same comparison ``eval`` makes) keeps no K:
    its table reads (first cell, None, v).  Widening such a window combines
    the new cells' extremes with its own, so its ceiling is that of the
    whole window; once the ceiling reaches ``lowest_log_r``, one ``raw``
    call rebuilds K over the whole window.  The default, -inf, keeps K on
    every step.
    """

    def __init__(self, density: DensityModel, steps: int, lowest_log_r: float = -math.inf):
        self.density = density
        self.dt = 1.0 / steps
        self.lowest_log_r = lowest_log_r
        self.grid = None
        self.tables: list[Optional[tuple[int, Optional[np.ndarray], np.ndarray]]] = []
        self.k_extremes: list[np.ndarray] = []
        self.k_ceilings: list[float] = []
        self.clamps = 0
        if density.dim == 1 and not density.constant_drift:
            self.grid = np.linspace(-DRIFT_GRID_HALFWIDTH, DRIFT_GRID_HALFWIDTH, DRIFT_GRID_POINTS)
            self._grid_lo = float(self.grid[0])
            self._grid_inv_h = (len(self.grid) - 1) / (self.grid[-1] - self.grid[0])
            self._pos_max = len(self.grid) - 1.000001  # so idx + 1 stays on the grid
            self._on_grid = density.closed_heat_at(self.grid[:, None])
            self.tables = [None] * steps
            self.k_extremes = [_NO_EXTREMES] * steps
            self.k_ceilings = [math.nan] * steps

    def raw(self, s: float, cells: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(K, v) at bandwidth s on the table grid's ``cells``, for the tables."""
        return self._on_grid(s, cells)

    def table_bytes(self) -> tuple[int, int]:
        """The bytes that the K and the v windows of the tables hold."""
        tables = [t for t in self.tables if t is not None]
        return (sum(k.nbytes for _, k, _ in tables if k is not None),
                sum(v.nbytes for _, _, v in tables))

    def eval(self, i: int, x: np.ndarray, floor: Optional[float] = None
             ) -> tuple[Optional[np.ndarray], np.ndarray]:
        """(K, v) at step i for points x of shape (..., dim).  K is None
        when ``floor`` is given and step i's table cannot interpolate a K
        above it; an untabulated field always returns K.  On a step i > 0 a
        tabulated field needs a ``floor`` no lower than ``lowest_log_r``, as
        the step loop's passage floor is.  A non-finite x raises
        ``NonFiniteValueError`` naming node i, and a non-finite v of an
        untabulated, non-constant drift naming node i + 1."""
        if self.grid is None:
            k, v = self.density.closed_heat_at(x)(1.0 - i * self.dt)
            if not (self.density.constant_drift or np.isfinite(v).all()):
                raise NonFiniteValueError(f"path state non-finite at step {i + 1}")
            return k, v
        # uniform grid: fused linear interpolation, one index computation
        # for both tables; points beyond the grid clamp to the edge value,
        # and the clip runs only on the steps whose extremes need it.  A NaN
        # or infinite state shows in the extremes; a finite state far enough
        # out to overflow pos only clamps
        pos = x[..., 0] - self._grid_lo
        pos *= self._grid_inv_h
        lo, hi = float(pos.min()), float(pos.max())
        if not (math.isfinite(lo) and math.isfinite(hi)) and not np.isfinite(x).all():
            raise NonFiniteValueError(f"path state non-finite at step {i}")
        if lo < 0.0 or hi > self._pos_max:
            top = len(self.grid) - 1
            self.clamps += int(np.count_nonzero((pos < 0.0) | (pos > top)))
            np.clip(pos, 0.0, self._pos_max, out=pos)
            lo, hi = (min(max(p, 0.0), self._pos_max) for p in (lo, hi))
        idx = pos.astype(np.int64)
        frac = pos - idx
        # the cells of the extreme points and the right neighbour of the last
        first, k_tab, v_tab = self._window(i, int(lo), int(hi) + 2)
        idx -= first
        rest = 1.0 - frac
        # k_tab[1:][idx] is k_tab[idx + 1], without a pass for idx + 1
        v = (v_tab[idx] * rest + v_tab[1:][idx] * frac)[..., None]
        if floor is not None and self.k_ceilings[i] < floor:
            return None, v
        k = k_tab[idx] * rest + k_tab[1:][idx] * frac
        return k, v

    def _window(self, i: int, lo: int, hi: int
                ) -> tuple[int, Optional[np.ndarray], np.ndarray]:
        """Step i's table, built or widened to hold cells [lo, hi): one
        ``raw`` call per side that needs new cells, and one more over the
        whole window when widening lifts the ceiling of a window without K
        to ``lowest_log_r``."""
        table = self.tables[i]
        if table is not None and table[0] <= lo and hi <= table[0] + len(table[2]):
            return table
        lo, hi = max(lo - DRIFT_WINDOW_PAD, 0), min(hi + DRIFT_WINDOW_PAD, len(self.grid))
        s = 1.0 - i * self.dt
        # a step not yet built is an empty window at lo
        first, k, v = table or (lo, _EMPTY, _EMPTY)
        end = first + len(v)
        extremes = self.k_extremes[i]
        ks, vs = [k], [v]
        if lo < first:
            k_new, v_new = self.raw(s, slice(lo, first))
            ks.insert(0, k_new)
            vs.insert(0, v_new[:, 0])
            extremes = np.maximum(extremes, _k_extremes(k_new))  # NaN propagates
        if hi > end:
            k_new, v_new = self.raw(s, slice(end, hi))
            ks.append(k_new)
            vs.append(v_new[:, 0])
            extremes = np.maximum(extremes, _k_extremes(k_new))
        first, v = min(lo, first), np.concatenate(vs)
        ceiling = _k_ceiling(extremes)
        if i > 0 and ceiling < self.lowest_log_r:
            k = None
        elif k is None:
            k = self.raw(s, slice(first, first + len(v)))[0]
        else:
            k = np.concatenate(ks)
        self.tables[i] = table = (first, k, v)
        self.k_extremes[i], self.k_ceilings[i] = extremes, ceiling
        return table


# (largest K, largest |K|) of a window with no cells, the identity of their
# elementwise maximum
_NO_EXTREMES = np.array([-math.inf, 0.0])
_EMPTY = np.empty(0)


def _k_extremes(k: np.ndarray) -> np.ndarray:
    """(largest K, largest |K|) of the table values ``k``; a NaN in k makes
    both NaN."""
    return np.array([k.max(), np.abs(k).max()])


def _k_ceiling(extremes: np.ndarray) -> float:
    """A float c such that, whenever c < floor, no K interpolated from
    table values k with ``extremes`` = (max(k), max |k|) exceeds floor.

    ``eval`` returns fl(fl(a * r) + fl(b * f)) for neighbours a, b of k,
    with f in [0, 1) exact and r = fl(1 - f) in [0, 1]; let M = max |k| and
    u = 2^-53.  Exactly, a (1 - f) + b f is at most max(k).  Four roundings
    move the result from it: r (by |a| |r - (1 - f)| <= u M), the two
    products and the sum, each by at most u times a magnitude below
    M (1 + u)^2, or by 2^-1075 where a result is subnormal.  So the result
    is at most max(k) + 4u (1 + u)^2 M + 4 * 2^-1075, which the margin
    2^-50 M + 2^-1022 (8u M plus the smallest normal) exceeds, also after
    its own rounding.  The sum c rounds monotonically and floor is a float,
    so c < floor implies max(k) + margin < floor.  A NaN in k gives a NaN
    ceiling, below nothing; an infinite one gives inf or NaN.
    """
    # Python floats: -inf + inf is NaN without a RuntimeWarning
    top, mag = float(extremes[0]), float(extremes[1])
    return top + (2.0**-50 * mag + sys.float_info.min)


@dataclass(frozen=True)
class StoppedSlice:
    """Per-path integrals frozen at the passage time of one threshold.

    ``simulate_batch`` stores the integrals of all of a job's thresholds
    threshold-major, as (n_thresholds, N) arrays; the fields of a slice are
    views of one row of them.
    """

    r: float
    t_index: np.ndarray   # (N,) int
    stoch: np.ndarray     # (N,) sum_{i<T} <v_i, dB_i>
    energy: np.ndarray    # (N,) sum_{i<T} |v_i|^2 dt
    vds: np.ndarray       # (N, n) sum_{i<T} v_i dt
    k_at_stop: np.ndarray  # (N,) K at node T

    def overshoot(self) -> np.ndarray:
        return np.maximum(0.0, self.k_at_stop - np.log(self.r))


@dataclass(frozen=True)
class BatchStats:
    """Endpoint and stopped-integral statistics for a batch of paths."""

    n_paths: int
    steps: int
    seed: int
    k0: float
    x1: np.ndarray          # (N, n)
    v1: np.ndarray          # (N, n)
    k_final: np.ndarray     # (N,) = log f(X_1), exact evaluation
    stoch_full: np.ndarray  # (N,)
    energy_full: np.ndarray  # (N,)
    checkpoints: dict[float, np.ndarray] = field(default_factory=dict)
    checkpoint_indices: dict[float, int] = field(default_factory=dict)
    stopped: dict[float, StoppedSlice] = field(default_factory=dict)
    drift_grid_clamps: int = 0  # (path, step) states beyond the drift tables' grid
    k_steps: int = 0  # (chunk, step) pairs on which the step loop evaluated K
    drift_table_bytes: tuple[int, int] = (0, 0)  # bytes of the K and the v windows

    def fvt_residual(self) -> np.ndarray:
        """Endpoint reconstruction error of the exponential representation."""
        return self.k_final - self.k0 - self.stoch_full - 0.5 * self.energy_full


def _chunk_size(n_paths: int, steps: int, dim: int) -> int:
    """Paths per chunk: the fewest equal chunks whose normals fit
    ``NORMALS_BUDGET_WORDS``, but no more chunks than leave
    ``MIN_CHUNK_PATHS`` paths each; a batch that fits is one chunk."""
    per_budget = max(1, NORMALS_BUDGET_WORDS // words_per_path(steps * dim))
    n_chunks = max(1, min(-(-n_paths // per_budget), n_paths // MIN_CHUNK_PATHS))
    return -(-n_paths // n_chunks)


def _path_arrays(n_paths: int, dim: int, n_thresholds: int):
    """Zeroed per-path outputs of the step loop: ``ends`` = (X, v, K, S, E)
    in ``BatchStats`` field order, and ``frozen`` = (T, S_T, E_T, I_T, K_T),
    threshold-major, in ``StoppedSlice`` field order."""
    ends = (
        np.zeros((n_paths, dim)),
        np.zeros((n_paths, dim)),
        np.zeros(n_paths),
        np.zeros(n_paths),
        np.zeros(n_paths),
    )
    frozen = (
        np.zeros((n_thresholds, n_paths), np.int64),
        np.zeros((n_thresholds, n_paths)),
        np.zeros((n_thresholds, n_paths)),
        np.zeros((n_thresholds, n_paths, dim)),
        np.zeros((n_thresholds, n_paths)),
    )
    return ends, frozen


class _Batch:
    """One batch of a run: a density and its checked thresholds on the
    run's paths, with its zeroed outputs and drift field.  ``step`` runs
    one chunk of paths, building or widening the drift tables as it goes,
    and ``finish`` hands the outputs over as ``BatchStats``."""

    def __init__(self, density: DensityModel, cfg: PathConfig, n_paths: int,
                 r_values: Sequence[float]):
        self.r_values = tuple(sorted({float(r) for r in r_values}))
        if any(r <= 1.0 for r in self.r_values):
            raise ValueError("all thresholds must exceed 1")
        self.density, self.cfg, self.n_paths = density, cfg, n_paths
        self.log_rs = np.array([np.log(r) for r in self.r_values])
        self.cp_idx = {tc: int(round(tc * cfg.steps)) for tc in CHECKPOINT_TIMES}
        self.ends, self.frozen = _path_arrays(n_paths, density.dim, len(self.r_values))
        self.cps = {tc: np.empty((n_paths, density.dim)) for tc in self.cp_idx}
        # no passage floor falls below the lowest log r (inf with none)
        self.drift = DriftField(density, cfg.steps, float(min(self.log_rs, default=math.inf)))
        self.k_steps = 0

    def step(self, start: int, incs: np.ndarray, ready: Callable[[int], int]) -> None:
        """Run paths [start, start + c) of the zeroed outputs, driven by the
        step-major Brownian increments ``incs`` (m, c, dim), and set K_0.

        ``ready(i)`` blocks until step i of ``incs`` is drawn and returns how
        many leading steps are; the loop calls it only when it reaches a step
        beyond the last count, so it waits per tile of the draw.

        The loop state lives in views of the outputs: (X, v, K, S, E) ends at
        (X_1, v_1, K_1, S_1, E_1), where (K, v) = (log f, grad log f)(X_1);
        the threshold-major frozen views get the integrals stopped at each
        log r; a checkpoint node's drift is recorded before its step.  A
        step evaluates K only when its table can reach the lowest next log r
        of any path, or at step 0; ``k_steps`` counts the steps that did.
        """
        sl = slice(start, start + incs.shape[1])
        cps = {i: self.cps[tc][sl] for tc, i in self.cp_idx.items()}
        x, v_end, k_end, stoch, energy = [a[sl] for a in self.ends]
        frozen = [a[:, sl] for a in self.frozen]
        drift = self.drift
        m = len(incs)
        dt = 1.0 / m
        vds = np.zeros_like(x)
        passages = _Passages(self.log_rs, len(x))
        drawn = 0

        for i in range(m):
            if i == drawn:
                drawn = ready(i)
            # K only where a path can cross, and at step 0 for K_0
            k_i, v_i = drift.eval(i, x, passages.floor if i else None)
            if i == 0:
                self.k0 = float(k_i[0])
            if k_i is not None:
                self.k_steps += 1
                passages.check(frozen, i, stoch, energy, vds, k_i)
            if i in cps:
                cps[i][...] = v_i
            db = incs[i]
            v_dt = v_i * dt
            stoch += _dot(v_i, db)
            energy += _dot(v_i, v_i) * dt
            vds += v_dt
            x += db
            x += v_dt

        # eval checked each state or drift it read; a non-finite state stays
        # non-finite, so this catches one that arose at any step
        if not np.isfinite(x).all():
            raise NonFiniteValueError(f"path state non-finite at step {m}")
        k_end[...] = self.density.log_f(x)
        v_end[...] = self.density.grad_log_f(x)
        passages.finish(frozen, m, stoch, energy, vds, k_end)

    def finish(self) -> BatchStats:
        return BatchStats(
            self.n_paths, self.cfg.steps, self.cfg.seed, self.k0, *self.ends,
            checkpoints=self.cps,
            checkpoint_indices=self.cp_idx,
            stopped={r: StoppedSlice(r, *(a[j] for a in self.frozen))
                     for j, r in enumerate(self.r_values)},
            drift_grid_clamps=self.drift.clamps,
            k_steps=self.k_steps,
            drift_table_bytes=self.drift.table_bytes(),
        )


def simulate_batch(
    cfg: PathConfig,
    n_paths: int,
    jobs: Sequence[tuple[DensityModel, Sequence[float]]],
    chunk_paths: Optional[int] = None,
) -> list[BatchStats]:
    """The BatchStats of each job (density, r_values), in order, all on
    paths [0, n_paths) of ``cfg``; a job's stats do not depend on the other
    jobs of the call, nor on ``chunk_paths``, bit for bit.

    Stopped integrals are frozen for every threshold in a job's
    ``r_values`` (any order; a repeat is one threshold), so one simulation
    serves all (r, delta) analyses; the drift is kept at the nodes nearest
    ``CHECKPOINT_TIMES``.

    Every job is checked before the first draw, and the densities must
    share one dim.  Each chunk is drawn once, by two worker threads as two
    path halves; the chunk is stepped for every batch, starting as its
    halves report tiles of steps, and dropped before the next chunk is
    drawn, so one chunk is held at a time.  The last chunk done, every batch
    hands over its stats, and its drift tables go when the call returns.
    An error in a draw propagates before any step it did not report is
    taken; the workers are joined before the call returns or raises.
    """
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    if chunk_paths is not None and chunk_paths < 1:
        raise ValueError(f"chunk_paths must be at least 1, got {chunk_paths}")
    dims = sorted({density.dim for density, _ in jobs})
    if len(dims) > 1:
        raise ValueError(f"the batches of a run share their paths, so one dim; got dims {dims}")
    batches = [_Batch(density, cfg, n_paths, r_values) for density, r_values in jobs]
    if not batches:
        return []
    dim = dims[0]
    size = chunk_paths or _chunk_size(n_paths, cfg.steps, dim)
    with ThreadPoolExecutor(max_workers=2) as pool:
        for start in range(0, n_paths, size):
            chunk = _Chunk(pool, cfg, dim, start, min(size, n_paths - start))
            for b in batches:
                b.step(start, chunk.incs, chunk.ready)
            del chunk  # dropped before the next chunk is allocated
    return [b.finish() for b in batches]


class _Chunk:
    """The step-major Brownian increments (m, c, dim) of paths
    [start, start + c) under ``cfg``, drawn on ``pool`` as two path halves.
    Each half is one ``path_normals`` call that writes sqrt(1/m) times the
    normals into its view of ``incs`` and reports each finished tile of
    steps.

    A half whose call has ended counts as holding every step, also when it
    raised or never reported, so a wait cannot hang; ``ready`` then reads
    its result, which raises a draw's error before its rows are stepped.
    """

    def __init__(self, pool: ThreadPoolExecutor, cfg: PathConfig, dim: int, start: int, c: int):
        m = cfg.steps
        self.incs = np.empty((m, c, dim))
        self._m = m
        self._cond = threading.Condition()
        by_path = self.incs.transpose(1, 0, 2)
        halves = [(lo, hi) for lo, hi in ((0, c // 2), (c // 2, c)) if hi > lo]
        self._steps = [0] * len(halves)  # leading steps each half holds
        self._draws = [
            pool.submit(self._fill, h, cfg.seed, start + lo, hi - lo, m, dim, by_path[lo:hi])
            for h, (lo, hi) in enumerate(halves)
        ]

    def _fill(self, h, seed, first, n_paths, m, n, out) -> None:
        def report(k):
            with self._cond:
                self._steps[h] = k
                self._cond.notify_all()

        try:
            path_normals(seed, first, n_paths, m, n, out=out, scale=np.sqrt(1.0 / m), done=report)
        finally:
            report(m)

    def ready(self, i: int) -> int:
        """Block until both halves hold step i; the steps both hold."""
        with self._cond:
            self._cond.wait_for(lambda: min(self._steps) > i)
            steps = list(self._steps)
        for draw, k in zip(self._draws, steps):
            if k == self._m:
                draw.result()
        return min(steps)


class _Passages:
    """First passages of K over the sorted, distinct thresholds ``log_rs``
    on ``n_paths`` paths.

    Each path keeps how many of the thresholds it has passed and the next
    log r, so a step costs one comparison per path; only the paths that
    crossed are frozen, by index, for every threshold they jumped.  A NaN K
    crosses nothing.  ``floor`` is the lowest next log r, inf once every
    path passed every threshold: a K at or below it crosses nothing.
    """

    def __init__(self, log_rs: np.ndarray, n_paths: int):
        self.log_rs = log_rs
        self._next = np.append(log_rs, np.inf)  # next log r after j passed
        self.passed = np.zeros(n_paths, np.int64)
        self.next_log_r = np.full(n_paths, self._next[0])
        self.floor = float(self._next[0])
        self._hit = np.empty(n_paths, dtype=bool)

    def check(self, frozen, i, stoch, energy, vds, k) -> None:
        """Freeze node i's running integrals and K for every (threshold,
        path) pair whose log r K exceeds for the first time."""
        if not np.greater(k, self.next_log_r, out=self._hit).any():
            return
        paths = np.flatnonzero(self._hit)
        before = self.passed[paths]
        after = np.searchsorted(self.log_rs, k[paths])  # thresholds strictly below K
        self.passed[paths] = after
        self.next_log_r[paths] = self._next[after]
        self.floor = float(self.next_log_r.min())
        jumped = after - before
        rows = before
        if jumped.max() > 1:
            # one pair per threshold from ``before`` to ``after - 1`` of each path
            start = np.repeat(before - (np.cumsum(jumped) - jumped), jumped)
            paths = np.repeat(paths, jumped)
            rows = start + np.arange(len(paths))
        for dst, src in zip(frozen[1:], (stoch, energy, vds, k)):
            dst[rows, paths] = src[paths]
        frozen[0][rows, paths] = i

    def finish(self, frozen, m, stoch, energy, vds, k) -> None:
        """Freeze every pair not yet stopped at the final node m."""
        mask = np.arange(len(self.log_rs))[:, None] >= self.passed
        for dst, src in zip(frozen, (m, stoch, energy, vds, k)):
            np.copyto(dst, src, where=mask[..., None] if dst.ndim == 3 else mask)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise <a, b> of (c, dim) arrays; for dim 1 the product itself,
    which equals the sum over its one term."""
    p = a * b
    return p[:, 0] if p.shape[1] == 1 else p.sum(-1)


# -- batch-level perturbation arrays ---------------------------------------


class Perturbation(NamedTuple):
    """The perturbation of a batch at one (r, delta, beta), with the arrays
    computed from exactly these three numbers; see ``perturbation_arrays``."""

    r: float
    delta: float
    beta: float
    log_f_xd: np.ndarray          # (N,)
    log_d: np.ndarray             # (N,)
    z: np.ndarray                 # (N,)
    convexity_margin: np.ndarray  # (N,)
    product_excess: np.ndarray    # (N,) log(f(X^d) D^d) - Z


def perturbation_arrays(
    stats: BatchStats, density: DensityModel, r: float, delta: float, beta: float
) -> Perturbation:
    """Endpoint perturbation, Girsanov weight and deviation variable of
    every path in a batch.

    With T the passage index for r:

      X_1^d  = X_1 + delta * sum_{i<T} v_i dt
      D_1^d  = exp(-S_1 - delta S_T - E_1/2 - (delta + delta^2/2) E_T)
      Z      = -delta S_T + delta(<v_1, I_T> - E_T) - (beta+1)/2 delta^2 E_T

    where S, E, I are the stochastic integral, drift energy, and drift
    integral, subscripted by their upper limit.  The convexity margin
    log f(X_1^d) - [log f(X_1) + delta <v_1, I_T> - beta/2 delta^2 E_T] is
    >= 0 whenever beta certifies the log-density.

    A delta large enough that log f(X_1^d), log D_1^d or Z is not finite
    on some path (delta^2 E_T overflows near ``cli.DELTA_MAX``) raises
    ``NonFiniteValueError`` naming delta and r.
    """
    sl = stats.stopped[r]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is rejected below
        vdot = (stats.v1 * sl.vds).sum(-1)
        x_delta = stats.x1 + delta * sl.vds
        log_f_xd = np.asarray(density.log_f(x_delta))
        log_d = (
            -(stats.stoch_full + delta * sl.stoch)
            - 0.5 * stats.energy_full
            - (delta + 0.5 * delta**2) * sl.energy
        )
        z = -delta * sl.stoch + delta * (vdot - sl.energy) - 0.5 * (beta + 1.0) * delta**2 * sl.energy
        convexity = log_f_xd - (stats.k_final + delta * vdot - 0.5 * beta * delta**2 * sl.energy)
        product_excess = log_f_xd + log_d - z
    bad = [name for name, a in (("log f(X^delta)", log_f_xd), ("log D^delta", log_d), ("Z", z))
           if not np.isfinite(a).all()]
    if bad:
        raise NonFiniteValueError(f"{' and '.join(bad)} non-finite at delta={delta:g}, r={r:g}")
    return Perturbation(
        r=r, delta=delta, beta=beta, log_f_xd=log_f_xd, log_d=log_d, z=z,
        convexity_margin=convexity, product_excess=product_excess,
    )
