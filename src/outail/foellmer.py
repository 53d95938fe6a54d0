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
steps and the seed.  The drift evaluation is read off the density: closed
forms when the family has them, else the Gauss-Hermite heat kernel, and a
spatial table for 1-D fields whose drift depends on the state.  Thresholds
are an argument of ``simulate_batch``: each is one more stopping time on the
same paths, stored threshold-major as (n_thresholds, N) arrays whose rows
are the ``StoppedSlice`` views; delta and beta enter only
``perturbation_arrays``.  The step loop writes each chunk into views of the
batch arrays, and one per-node observer records the drift at the fixed
checkpoints (batch) or every node (``simulate_path``).  A batch runs in
chunks of at most ``NORMALS_BUDGET_WORDS`` normals; one worker thread draws
the next chunk's normals while the current chunk steps.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NonFiniteValueError
from .measures import DensityModel, TiltDensity
from .quadrature import QuadratureRule
from .rng import path_normals, words_per_path
from .semigroup import heat_log_grad

DEFAULT_STEPS = 2048
MIN_STEPS = 100
DRIFT_QUAD_NODES = 24
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
    """Evaluates (K, v)(s, x) = (log P_s f(x), grad log P_s f(x)).

    Closed forms are used when the family has them; otherwise the
    ``DRIFT_QUAD_NODES``-node Gauss-Hermite heat kernel
    ``semigroup.heat_log_grad``.  A 1-D field whose drift depends on the
    state (every family but the log-linear tilt) is tabulated per bandwidth
    on a fixed spatial grid and evaluated by linear interpolation; the table
    depends only on s, so results are independent of batch layout.  The
    grid part of a closed form (``closed_heat_at``) is computed once per
    field.
    """

    def __init__(self, density: DensityModel):
        self.density = density
        self.rule = (
            None if density.has_closed_heat
            else QuadratureRule.gauss_hermite(density.dim, DRIFT_QUAD_NODES)
        )
        self.grid = None
        if density.dim == 1 and not isinstance(density, TiltDensity):
            self.grid = np.linspace(-DRIFT_GRID_HALFWIDTH, DRIFT_GRID_HALFWIDTH, DRIFT_GRID_POINTS)
            self._grid_lo = float(self.grid[0])
            self._grid_inv_h = (len(self.grid) - 1) / (self.grid[-1] - self.grid[0])
            pts = self.grid[:, None]
            self._on_grid = (
                density.closed_heat_at(pts) if self.rule is None
                else lambda s: heat_log_grad(density, s, pts, self.rule)
            )
        self._tables: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def raw(self, s: float, x: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
        """(K, v) without tabulation at points x of shape (..., dim), or at
        bandwidth s > 0 on the table grid when x is None."""
        d = self.density
        if x is None:
            return self._on_grid(s)
        if s <= 0.0:
            return d.log_f(x), d.grad_log_f(x)
        if self.rule is None:
            return d.closed_heat_log_grad(s, x)
        return heat_log_grad(d, s, x, self.rule)

    def _table(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        tab = self._tables.get(s)
        if tab is None:
            k, v = self.raw(s)
            tab = (k, v[:, 0])
            self._tables[s] = tab
        return tab

    def eval(self, s: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(K, v) at bandwidth s for points x of shape (..., dim)."""
        if self.grid is None or s <= 0.0:
            return self.raw(s, x)
        k_tab, v_tab = self._table(s)
        # uniform grid: fused linear interpolation, one index computation
        # for both tables; points beyond the grid clamp to the edge value
        pos = (x[..., 0] - self._grid_lo) * self._grid_inv_h
        pos = np.clip(pos, 0.0, len(self.grid) - 1.000001)
        idx = pos.astype(np.int64)
        frac = pos - idx
        k = k_tab[idx] * (1.0 - frac) + k_tab[idx + 1] * frac
        v = (v_tab[idx] * (1.0 - frac) + v_tab[idx + 1] * frac)[..., None]
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

    def to_csv(self, path) -> None:
        """Dump the path as CSV with columns i, t, x*, v*, k."""
        n = self.x.shape[1]
        header = ["i", "t"] + [f"x{c}" for c in range(n)] + [f"v{c}" for c in range(n)] + ["k"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(len(self.times)):
                row = [str(i), repr(float(self.times[i]))]
                row += [repr(float(val)) for val in self.x[i]]
                row += [repr(float(val)) for val in self.v[i]]
                row.append(repr(float(self.k[i])))
                fh.write(",".join(row) + "\n")


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


def simulate_batch(
    density: DensityModel,
    cfg: PathConfig,
    n_paths: int,
    r_values: Sequence[float] = (),
    chunk_paths: Optional[int] = None,
) -> BatchStats:
    """Simulate ``n_paths`` trajectories and reduce them to BatchStats.

    Stopped integrals are frozen for every threshold in ``r_values``, so
    one simulation serves all (r, delta) analyses; the drift is kept at the
    nodes nearest ``CHECKPOINT_TIMES``.  Results are bit-identical for any
    ``chunk_paths``.  A worker thread draws the normals of the next chunk
    while the current one steps; an error in either propagates.
    """
    r_values = tuple(float(r) for r in r_values)
    if any(r <= 1.0 for r in r_values):
        raise ValueError("all thresholds must exceed 1")
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    if chunk_paths is not None and chunk_paths < 1:
        raise ValueError(f"chunk_paths must be at least 1, got {chunk_paths}")
    m, n = cfg.steps, density.dim
    drift = DriftField(density)
    log_rs = np.array([np.log(r) for r in r_values])
    cp_idx = {tc: int(round(tc * m)) for tc in CHECKPOINT_TIMES}

    ends, frozen = _path_arrays(n_paths, n, len(r_values))
    cps = {tc: np.empty((n_paths, n)) for tc in cp_idx}
    chunk = chunk_paths or _chunk_size(n_paths, m, n)
    k0 = None
    with ThreadPoolExecutor(max_workers=1) as pool:

        def draw(start):
            return pool.submit(path_normals, cfg.seed, start, min(chunk, n_paths - start), m, n)

        pending = draw(0)
        for start in range(0, n_paths, chunk):
            normals = pending.result()
            if start + chunk < n_paths:
                pending = draw(start + chunk)
            sl = slice(start, start + len(normals))
            cp_views = {i: cps[tc][sl] for tc, i in cp_idx.items()}

            def record_checkpoints(i, x, v, k, stoch, energy):
                if i in cp_views:
                    cp_views[i][...] = v

            k0 = _run_paths(
                density, drift, normals, log_rs,
                [a[sl] for a in ends], [a[:, sl] for a in frozen], record_checkpoints,
            )

    return BatchStats(
        n_paths, m, cfg.seed, k0, *ends,
        checkpoints=cps,
        checkpoint_indices=cp_idx,
        stopped={r: StoppedSlice(r, *(a[j] for a in frozen)) for j, r in enumerate(r_values)},
    )


def _freeze(frozen, mask, i, stoch, energy, vds, k) -> None:
    """Copy node i's running integrals and K into the threshold-major
    ``frozen`` arrays wherever ``mask`` (n_thresholds, c) is set."""
    for dst, src in zip(frozen, (i, stoch, energy, vds, k)):
        np.copyto(dst, src, where=mask[..., None] if dst.ndim == 3 else mask)


def _run_paths(density, drift, normals, log_rs, ends, frozen, observe) -> float:
    """Run one path per row of the zeroed ``ends`` views, driven by the
    Brownian-increment ``normals`` (paths, m, dim), and return K_0.

    The loop state lives in the views: ``ends`` = (X, v, K, S, E) ends at
    (X_1, v_1, K_1, S_1, E_1), and the threshold-major ``frozen`` views get
    the integrals stopped at each log r in ``log_rs``.
    ``observe(i, x, v, k, stoch, energy)`` sees every node i = 0..m before
    its step; at node m, (k, v) = (log f, grad log f)(X_1).
    """
    x, v_end, k_end, stoch, energy = ends
    m = normals.shape[1]
    dt = 1.0 / m
    sqdt = np.sqrt(dt)
    vds = np.zeros_like(x)
    active = np.ones(frozen[0].shape, dtype=bool)
    k0 = None

    for i in range(m):
        s = 1.0 - i * dt
        k_i, v_i = drift.eval(s, x)
        if i == 0:
            k0 = float(k_i[0])
        newly = active & (k_i > log_rs[:, None])
        if newly.any():
            _freeze(frozen, newly, i, stoch, energy, vds, k_i)
            active &= ~newly
        observe(i, x, v_i, k_i, stoch, energy)
        db = sqdt * normals[:, i, :]
        v_dt = v_i * dt
        stoch += (v_i * db).sum(-1)
        energy += (v_i * v_i).sum(-1) * dt
        vds += v_dt
        x += db
        x += v_dt
        if not np.isfinite(x).all():
            raise NonFiniteValueError(f"path state non-finite at step {i}")

    k_end[...] = density.log_f(x)
    v_end[...] = density.grad_log_f(x)
    _freeze(frozen, active, m, stoch, energy, vds, k_end)
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
    normals = path_normals(cfg.seed, path_index, 1, m, n)
    _run_paths(density, DriftField(density), normals, np.empty(0), ends, frozen, record_node)
    xs, vs, ks, stochs, energies = nodes
    return Trajectory(
        times=np.arange(m + 1) / m,
        x=xs,
        db=np.sqrt(1.0 / m) * normals[0],
        v=vs,
        k=ks,
        stoch_int=stochs,
        energy=energies,
    )


# -- batch-level perturbation arrays ---------------------------------------


def perturbation_arrays(
    stats: BatchStats, density: DensityModel, r: float, delta: float, beta: float
) -> dict[str, np.ndarray]:
    """Endpoint perturbation, Girsanov weight and deviation variables of
    every path in a batch.

    With T the passage index for r:

      X_1^d  = X_1 + delta * sum_{i<T} v_i dt
      D_1^d  = exp(-S_1 - delta S_T - E_1/2 - (delta + delta^2/2) E_T)
      Z      = -delta S_T + delta(<v_1, I_T> - E_T) - (beta+1)/2 delta^2 E_T
      Y      = -2 delta S_T + delta(<v_1, I_T> - E_T) - beta/2 delta^2 E_T

    where S, E, I are the stochastic integral, drift energy, and drift
    integral, subscripted by their upper limit.  The algebraic identity
    Y = Z - delta S_T + (delta^2/2) E_T holds exactly in the discretization.
    The convexity margin log f(X_1^d) - [log f(X_1) + delta <v_1, I_T> -
    beta/2 delta^2 E_T] is >= 0 whenever beta certifies the log-density.

    Keys: x_delta (N, n), log_f_xd (N,), log_d (N,), z (N,), y (N,),
    convexity_margin (N,), product_excess (N,) = log(f(X^d) D^d) - Z.
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
    y = -2.0 * delta * sl.stoch + delta * (vdot - sl.energy) - 0.5 * beta * delta**2 * sl.energy
    convexity = log_f_xd - (stats.k_final + delta * vdot - 0.5 * beta * delta**2 * sl.energy)
    product_excess = log_f_xd + log_d - z
    return dict(
        x_delta=x_delta,
        log_f_xd=log_f_xd,
        log_d=log_d,
        z=z,
        y=y,
        convexity_margin=convexity,
        product_excess=product_excess,
    )

