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
Thresholds are an argument of ``simulate_batch``: each distinct one is one
more stopping time on the same paths, stored threshold-major in increasing
order as (n_thresholds, N) arrays whose rows are the ``StoppedSlice`` views;
delta and beta enter only ``perturbation_arrays``.  The step loop writes
each chunk into views of the batch arrays, and one per-node observer records
the drift at the fixed checkpoints (batch) or every node (``simulate_path``).

First passages cost per crossing, not per (threshold, path) pair: each
path keeps how many of the sorted thresholds it has passed and the next
log r, so a step makes one comparison per path, and only the paths that
crossed are frozen, by index, for every threshold they jumped.

A run is one draw pipeline: ``simulate_batches`` takes every batch of the
run (``verify-all`` has one per family) and yields their ``BatchStats`` in
order; ``simulate_batch`` is its one-batch case.  A batch runs in chunks of
at most ``NORMALS_BUDGET_WORDS`` normals, held step-major as Brownian
increments, so the loop reads one contiguous row per step.  The chunks of
all batches form one queue for two worker threads, which draw each chunk as
two path halves, each one ``path_normals`` call that writes sqrt(1/m) times
the normals into its view of the chunk: a batch's first chunk while the
calling thread builds the batch's drift tables, every other chunk while the
one before it steps.  A draw writes its uniforms first and then turns them
into normals one tile of steps at a time, reporting each tile, and the step
loop waits only when it reaches a step that a half has not reported: a
chunk starts stepping once its uniforms are in place, not once it is drawn.
So batch k+1's first chunk is drawn while batch k steps its last chunk and
the caller checks it, and at most two chunks are held at once.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import NonFiniteValueError
from .measures import DensityModel, TiltDensity
from .rng import path_normals, words_per_path

DEFAULT_STEPS = 2048
MIN_STEPS = 100
# Spatial grid of the drift tables: the final node is always exact, and the
# interpolation error stays well under the Monte Carlo noise floor.
DRIFT_GRID_POINTS = 2048
DRIFT_GRID_HALFWIDTH = 12.0
CHECKPOINT_TIMES = (0.25, 0.5, 0.75)
# Normals drawn per chunk of paths (float64 words, 128 MiB); with the next
# chunk drawn while one steps, two such buffers are alive at once.
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
    field whose drift depends on the state (every family but the log-linear
    tilt) is tabulated on a fixed spatial grid, one table per step in
    ``tables``, and evaluated by linear interpolation; the tables depend
    only on the steps, so results are independent of batch layout.
    """

    def __init__(self, density: DensityModel, steps: int):
        self.density = density
        self.dt = 1.0 / steps
        self.grid = None
        self.tables: list[tuple[np.ndarray, np.ndarray]] = []
        if density.dim == 1 and not isinstance(density, TiltDensity):
            self.grid = np.linspace(-DRIFT_GRID_HALFWIDTH, DRIFT_GRID_HALFWIDTH, DRIFT_GRID_POINTS)
            self._grid_lo = float(self.grid[0])
            self._grid_inv_h = (len(self.grid) - 1) / (self.grid[-1] - self.grid[0])
            self._on_grid = density.closed_heat_at(self.grid[:, None])
            for i in range(steps):
                k, v = self.raw(1.0 - i * self.dt)
                self.tables.append((k, v[:, 0]))

    def raw(self, s: float, x: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
        """(K, v) without tabulation at points x of shape (..., dim), or on
        the table grid when x is None."""
        if x is None:
            return self._on_grid(s)
        return self.density.closed_heat_at(x)(s)

    def eval(self, i: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(K, v) at step i for points x of shape (..., dim)."""
        if self.grid is None:
            return self.raw(1.0 - i * self.dt, x)
        k_tab, v_tab = self.tables[i]
        # uniform grid: fused linear interpolation, one index computation
        # for both tables; points beyond the grid clamp to the edge value
        pos = x[..., 0] - self._grid_lo
        pos *= self._grid_inv_h
        np.clip(pos, 0.0, len(self.grid) - 1.000001, out=pos)
        idx = pos.astype(np.int64)
        frac = pos - idx
        idx1 = idx + 1
        rest = 1.0 - frac
        k = k_tab[idx] * rest + k_tab[idx1] * frac
        v = (v_tab[idx] * rest + v_tab[idx1] * frac)[..., None]
        return k, v


@dataclass(frozen=True)
class Trajectory:
    """One simulated path with its drift, value process, and Ito sums.

    ``stoch_int[i]`` and ``energy[i]`` are the running left-endpoint sums
    over steps j < i, so index m holds the full-horizon integrals.
    """

    times: np.ndarray      # (m+1,)
    x: np.ndarray          # (m+1, n)
    db: np.ndarray         # (m, n)
    v: np.ndarray          # (m+1, n)
    k: np.ndarray          # (m+1,)
    stoch_int: np.ndarray  # (m+1,)
    energy: np.ndarray     # (m+1,)

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def reconstruction_residual(self) -> np.ndarray:
        """K_i - K_0 - stoch_int_i - energy_i/2 along the grid."""
        return self.k - self.k[0] - self.stoch_int - 0.5 * self.energy


@dataclass(frozen=True)
class StoppedSlice:
    """Per-path integrals frozen at the passage time of one threshold.

    ``simulate_batch`` stores the integrals of all its thresholds
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

    def fvt_residual(self) -> np.ndarray:
        """Endpoint reconstruction error of the exponential representation."""
        return self.k_final - self.k0 - self.stoch_full - 0.5 * self.energy_full

    def slice_for(self, r: float) -> StoppedSlice:
        if r not in self.stopped:
            raise KeyError(f"no stopped integrals for r={r}; simulated {sorted(self.stopped)}")
        return self.stopped[r]


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
    """One batch of a run: the checked arguments of ``simulate_batch`` and
    its chunk layout.  ``begin`` allocates the outputs and builds the drift
    tables, ``step`` runs one chunk of paths, and ``finish`` hands the
    outputs over as ``BatchStats`` and drops the tables."""

    def __init__(
        self,
        density: DensityModel,
        cfg: PathConfig,
        n_paths: int,
        r_values: Sequence[float] = (),
        chunk_paths: Optional[int] = None,
    ):
        self.r_values = tuple(sorted({float(r) for r in r_values}))
        if any(r <= 1.0 for r in self.r_values):
            raise ValueError("all thresholds must exceed 1")
        if n_paths < 1:
            raise ValueError(f"need at least one path, got {n_paths}")
        if chunk_paths is not None and chunk_paths < 1:
            raise ValueError(f"chunk_paths must be at least 1, got {chunk_paths}")
        self.density, self.cfg, self.n_paths = density, cfg, n_paths
        self.chunk = chunk_paths or _chunk_size(n_paths, cfg.steps, density.dim)
        self.log_rs = np.array([np.log(r) for r in self.r_values])
        self.cp_idx = {tc: int(round(tc * cfg.steps)) for tc in CHECKPOINT_TIMES}

    def begin(self) -> None:
        n_paths, n = self.n_paths, self.density.dim
        self.ends, self.frozen = _path_arrays(n_paths, n, len(self.r_values))
        self.cps = {tc: np.empty((n_paths, n)) for tc in self.cp_idx}
        self.drift = DriftField(self.density, self.cfg.steps)

    def step(self, start: int, incs: np.ndarray, ready: Callable[[int], int]) -> None:
        """Run the paths from ``start`` on, driven by the chunk ``incs``
        whose steps ``ready`` hands out (see ``_run_paths``)."""
        sl = slice(start, start + incs.shape[1])
        cp_views = {i: self.cps[tc][sl] for tc, i in self.cp_idx.items()}

        def record_checkpoints(i, x, v, k, stoch, energy):
            if i in cp_views:
                cp_views[i][...] = v

        self.k0 = _run_paths(
            self.density, self.drift, incs, self.log_rs,
            [a[sl] for a in self.ends], [a[:, sl] for a in self.frozen], record_checkpoints,
            ready,
        )

    def finish(self) -> BatchStats:
        stats = BatchStats(
            self.n_paths, self.cfg.steps, self.cfg.seed, self.k0, *self.ends,
            checkpoints=self.cps,
            checkpoint_indices=self.cp_idx,
            stopped={r: StoppedSlice(r, *(a[j] for a in self.frozen))
                     for j, r in enumerate(self.r_values)},
        )
        del self.drift, self.ends, self.frozen, self.cps
        return stats


def simulate_batch(
    density: DensityModel,
    cfg: PathConfig,
    n_paths: int,
    r_values: Sequence[float] = (),
    chunk_paths: Optional[int] = None,
) -> BatchStats:
    """Simulate ``n_paths`` trajectories and reduce them to BatchStats: the
    one-batch run of ``simulate_batches``.

    Stopped integrals are frozen for every threshold in ``r_values`` (any
    order; a repeat is one threshold), so one simulation serves all
    (r, delta) analyses; the drift is kept at the
    nodes nearest ``CHECKPOINT_TIMES``.  Results are bit-identical for any
    ``chunk_paths``.
    """
    (stats,) = simulate_batches([(density, cfg, n_paths, r_values, chunk_paths)])
    return stats


def simulate_batches(jobs: Iterable[tuple]) -> Iterator[BatchStats]:
    """Yield the BatchStats of each job, in order; a job is the argument
    tuple (density, cfg, n_paths[, r_values[, chunk_paths]]) of
    ``simulate_batch``.

    Every job is checked before the first draw.  The chunks of all jobs form
    one queue for two worker threads, which draw each chunk as two path
    halves: the first chunk while this thread builds the first batch's drift
    tables, and each later one while the chunk before it steps.  A chunk
    steps as its halves report tiles of steps, so its stepping overlaps the
    end of its own draw.  The first chunk of batch k+1 is thus drawn while
    batch k steps its last chunk and while the caller works on the yielded
    batch k; at most two chunks are held at once.  An error in a draw
    propagates, before any step it did not report is taken, once the
    workers are joined.  The workers are joined when the generator ends or
    is closed, so a caller that may stop early closes it
    (``contextlib.closing``).
    """
    batches = [_Batch(*job) for job in jobs]
    chunks = [(b, start) for b in batches for start in range(0, b.n_paths, b.chunk)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        pending = _Chunk(pool, *chunks[0]) if chunks else None
        for j, (b, start) in enumerate(chunks):
            if start == 0:
                b.begin()
            chunk = pending
            # each chunk's halves are under way before the next chunk's queue
            # behind them, and before the chunk ahead of them is dropped
            chunk.started()
            pending = _Chunk(pool, *chunks[j + 1]) if j + 1 < len(chunks) else None
            b.step(start, chunk.incs, chunk.ready)
            if pending is not None:
                pending.started()
            del chunk  # no chunk but the next is held while the caller works
            if start + b.chunk >= b.n_paths:
                yield b.finish()


class _Chunk:
    """The step-major Brownian increments (m, paths, dim) of the chunk of
    batch ``b`` that starts at path ``start``, drawn on ``pool`` as two path
    halves.  Each half is one ``path_normals`` call that writes sqrt(1/m)
    times the normals into its view of ``incs`` and reports each finished
    tile of steps.

    A half whose call has ended counts as holding every step, also when it
    raised or never reported, so a wait cannot hang; ``ready`` then reads
    its result, which raises a draw's error before its rows are stepped.
    """

    def __init__(self, pool: ThreadPoolExecutor, b: _Batch, start: int):
        m, n = b.cfg.steps, b.density.dim
        c = min(b.chunk, b.n_paths - start)
        self.incs = np.empty((m, c, n))
        self._m = m
        self._cond = threading.Condition()
        by_path = self.incs.transpose(1, 0, 2)
        halves = [(lo, hi) for lo, hi in ((0, c // 2), (c // 2, c)) if hi > lo]
        self._steps = [-1] * len(halves)  # steps each half holds, -1 before it starts
        self._draws = [
            pool.submit(self._fill, h, b.cfg.seed, start + lo, hi - lo, m, n, by_path[lo:hi])
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

    def started(self) -> None:
        """Block until both halves have begun."""
        with self._cond:
            self._cond.wait_for(lambda: min(self._steps) >= 0)

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
    crosses nothing.
    """

    def __init__(self, log_rs: np.ndarray, n_paths: int):
        self.log_rs = log_rs
        self._next = np.append(log_rs, np.inf)  # next log r after j passed
        self.passed = np.zeros(n_paths, np.int64)
        self.next_log_r = np.full(n_paths, self._next[0])
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


def _run_paths(density, drift, increments, log_rs, ends, frozen, observe, ready=None) -> float:
    """Run one path per row of the zeroed ``ends`` views, driven by the
    step-major Brownian ``increments`` (m, paths, dim), and return K_0.

    ``ready(i)``, if given, blocks until step i of ``increments`` is drawn
    and returns how many leading steps are; the loop calls it only when it
    reaches a step beyond the last count, so it waits per tile of the draw.

    The loop state lives in the views: ``ends`` = (X, v, K, S, E) ends at
    (X_1, v_1, K_1, S_1, E_1), and the threshold-major ``frozen`` views get
    the integrals stopped at each log r in ``log_rs``.
    ``observe(i, x, v, k, stoch, energy)`` sees every node i = 0..m before
    its step; at node m, (k, v) = (log f, grad log f)(X_1).
    """
    x, v_end, k_end, stoch, energy = ends
    m = len(increments)
    dt = 1.0 / m
    vds = np.zeros_like(x)
    passages = _Passages(log_rs, len(x))
    k0 = None
    drawn = m if ready is None else 0

    for i in range(m):
        if i == drawn:
            drawn = ready(i)
        k_i, v_i = drift.eval(i, x)
        if i == 0:
            k0 = float(k_i[0])
        passages.check(frozen, i, stoch, energy, vds, k_i)
        observe(i, x, v_i, k_i, stoch, energy)
        db = increments[i]
        v_dt = v_i * dt
        stoch += _dot(v_i, db)
        energy += _dot(v_i, v_i) * dt
        vds += v_dt
        x += db
        x += v_dt
        if not np.isfinite(x).all():
            raise NonFiniteValueError(f"path state non-finite at step {i}")

    k_end[...] = density.log_f(x)
    v_end[...] = density.grad_log_f(x)
    passages.finish(frozen, m, stoch, energy, vds, k_end)
    observe(m, x, v_end, k_end, stoch, energy)
    return k0


def simulate_path(density: DensityModel, cfg: PathConfig, path_index: int = 0) -> Trajectory:
    """Simulate one path with full per-node recording.

    Path ``path_index`` of a batch with the same config is bit-identical to
    this trajectory (shared random stream and arithmetic).
    """
    m, n = cfg.steps, density.dim
    nodes, _ = _path_arrays(m + 1, n, 0)  # x, v, k, stoch, energy at every node

    def record_node(i, *state):
        for rec, val in zip(nodes, state):
            rec[i] = val[0]

    ends, frozen = _path_arrays(1, n, 0)
    db = np.empty((m, n))
    path_normals(cfg.seed, path_index, 1, m, n, out=db[None], scale=np.sqrt(1.0 / m))
    _run_paths(density, DriftField(density, m), db[:, None], np.empty(0), ends, frozen, record_node)
    xs, vs, ks, stochs, energies = nodes
    return Trajectory(
        times=np.arange(m + 1) / m,
        x=xs,
        db=db,
        v=vs,
        k=ks,
        stoch_int=stochs,
        energy=energies,
    )


# -- batch-level perturbation arrays ---------------------------------------


class Perturbation(NamedTuple):
    """The perturbation of a batch at one (r, delta, beta), with the arrays
    computed from exactly these three numbers; see ``perturbation_arrays``."""

    r: float
    delta: float
    beta: float
    x_delta: np.ndarray           # (N, n)
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
    """
    sl = stats.slice_for(r)
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
    return Perturbation(
        r=r, delta=delta, beta=beta, x_delta=x_delta, log_f_xd=log_f_xd, log_d=log_d,
        z=z, convexity_margin=convexity, product_excess=log_f_xd + log_d - z,
    )
