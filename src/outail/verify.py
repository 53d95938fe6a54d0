"""Estimators and bound reports for the quantitative tail-bound statements.

Conventions
-----------
* Mean-type Monte Carlo comparisons use half-widths of ``CI_STANDARD_ERRORS``
  (3) standard errors from 32 contiguous batch means; the inequalities under
  test are exact, so the estimate side carries the noise, never the bound
  side.
* Sup-type statistics (empirical CDF gaps) use the 1% Kolmogorov-Smirnov
  envelope instead of batch means.
* Exact Gaussian tails go through the scaled complementary error function in
  log space, which stays finite past r = e^16.
* A tail curve is evaluated once per t: ``tail_curve`` builds Q_t f and
  evaluates log Q_t f on the level-set grid or the Monte Carlo sample once
  for all its thresholds.
* Floor-type checks ("statistic >= floor") store negated values so that the
  uniform pass rule margin + ci >= 0 applies; their names end in ``_floor``.

Rows
----
``reports.ROWS`` gives each row name up to a ``!`` or ``@`` suffix: whether
it is anchored (a miss fails the run), its trivial cap, and in a comment the
statement it checks and, after ``--``, its source.  EL is Eldan & Lee (Duke
Math. J. 2018), whose tail bound the rows take apart.
L = log r, v is the drift, T the passage of K = log P_{1-t} f(X_t) over L,
and d, X^d, D^d, Z, S_T, E_T, I_T are delta and the quantities of
``foellmer.perturbation_arrays``.  A ``!exact_required`` row is an
unanchored NaN stand-in for a tail that Monte Carlo cannot resolve.
"""

from __future__ import annotations

import numpy as np

from .errors import ResolutionError
# simulate_batch and perturbation_arrays are not called here: cli calls them
# through this module and passes each batch and record to the builders below
from .foellmer import BatchStats, Perturbation, perturbation_arrays, simulate_batch
from .measures import FAMILIES, DensityModel
from .numeric import fd_hessian, log_gauss_tail
from .quadrature import QuadratureRule
from .reports import BoundReport
from .rng import gaussian_sample
from .semigroup import default_rule, ou_image
from .stats import (
    KS_CRIT,
    batch_means,
    ks_two_sample,
    superlevel_gamma_mass,
)

E = float(np.e)
# Half-width of a Monte Carlo mean, in standard errors of its batch means.
CI_STANDARD_ERRORS = 3.0
DEFAULT_T_GRID = (0.1, 0.5, 1.0)
DEFAULT_R_GRID = (E, E**2, E**4)
SHARPNESS_R_GRID = (E**2, E**4, E**8, E**16)
DESK_RATIO_CEILING = 20.0
SHARPNESS_FLOOR = 0.1
CONVEXITY_TOL = 1e-6
PRODUCT_TOL = 1e-6
ENTROPY_QUAD_TOL = 1e-6
HESSIAN_TOL = 1e-5
HESSIAN_PROBES = np.linspace(-4.0, 4.0, 50)
MC_MIN_HITS = 25
MARTINGALE_ALLOWANCE = 5e-3


def canonical_delta(r: float) -> float:
    """The canonical perturbation size 5 / (2 log r) of the composite shell argument."""
    return 5.0 / (2.0 * np.log(r))


def default_families() -> dict[str, DensityModel]:
    """The default member of every registered family: one per convexity regime."""
    return {name: fam.build(**fam.defaults) for name, fam in FAMILIES.items()}


# -- tails ------------------------------------------------------------------


def tail_probability(
    density: DensityModel,
    t: float,
    r: float,
    method: str = "auto",
    rule: QuadratureRule | None = None,
    n_samples: int = 10**5,
    seed: int = 0,
) -> tuple[float, float]:
    """(estimate, ci) for gamma_n({Q_t f > r}): ``tail_curve`` at the one
    threshold r.  Raises ResolutionError when Monte Carlo cannot resolve it.
    It calls ``_tails`` directly, so a direct tail (``composite_reports``)
    opens no ``tail_curve`` span in a traced run.  ``method`` and ``rule``
    stay only because the benchmark's tracer binds them by name, and they go
    with it (ROADMAP item 15): the image picks the method, so any ``method``
    but "auto" raises ValueError, and ``rule`` is unused.
    """
    if method != "auto":
        raise ValueError(f"the image picks the tail method; got method={method!r}")
    (est,), (ci,) = _tails(density, t, np.array([float(r)]), n_samples, seed)
    if np.isnan(est):
        raise ResolutionError(
            f"tail at r={r:g} below Monte Carlo resolution "
            f"(fewer than {MC_MIN_HITS} hits of {n_samples}); an exact tail is required"
        )
    return float(est), float(ci)


def tail_curve(
    density: DensityModel,
    t: float,
    r_grid,
    *,
    n_samples: int = 10**5,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, tail, ci): gamma_n({Q_t f > r}) over the thresholds of ``r_grid``
    in increasing order, which must be distinct and exceed 1.  The tail at
    t is the t = 0 tail of the image ``ou_image(density, t)``, so t = 0
    means the tail of f.

    The image picks the method: its closed tail if it has one, else the 1-D
    level-set mass, else the indicator mean over ``n_samples`` Gaussian
    points drawn from ``seed``.  The image is built, and log Q_t f evaluated
    on the level-set grid or the sample, once for the whole curve.  A Monte
    Carlo threshold with fewer than ``MC_MIN_HITS`` hits has NaN tail and
    ci: the exact tail is required there.
    """
    r = np.asarray(sorted(float(x) for x in r_grid))
    if np.any(np.diff(r) == 0.0):
        raise ValueError("tail thresholds must be distinct")
    return (r, *_tails(density, t, r, n_samples, seed))


def _tails(density: DensityModel, t: float, r: np.ndarray,
           n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(tail, ci) of ``tail_curve`` at the thresholds r, in their order."""
    if np.any(r <= 1.0):
        raise ValueError("tail threshold must satisfy r > 1")
    image = ou_image(density, t)
    zeros = np.zeros(r.shape)
    if image.closed_tail is not None:
        return np.array([image.closed_tail(x) for x in r]), zeros
    if image.dim == 1:
        return superlevel_gamma_mass(image.log_f, np.log(r)), zeros
    x = gaussian_sample(seed, n_samples, image.dim, stream=7)
    log_f = np.asarray(image.log_f(x))
    tail, ci = np.full(r.shape, np.nan), np.full(r.shape, np.nan)
    for i, log_r in enumerate(np.log(r)):
        hits = log_f > log_r
        if hits.sum() >= MC_MIN_HITS:
            est, se = batch_means(hits.astype(float))
            tail[i], ci[i] = est, CI_STANDARD_ERRORS * se
    return tail, ci


def sharpness_values(r_grid=SHARPNESS_R_GRID) -> np.ndarray:
    """tail * r * sqrt(log r) for the matched log-linear density, exactly.

    With alpha = sqrt(2 log r) the tail is the Gaussian tail at alpha, so
    the normalized value tends to 1/(2 sqrt(pi)) ~ 0.282 as r grows.
    """
    r = np.asarray(r_grid, dtype=float)
    logr = np.log(r)
    a = np.sqrt(2.0 * logr)
    return np.exp(log_gauss_tail(a) + logr + 0.5 * np.log(logr))


def sharpness_report(seed: int = 0) -> BoundReport:
    vals = sharpness_values(SHARPNESS_R_GRID)
    return BoundReport(
        name="sharpness_floor",
        family="tilt",
        dim=1,
        estimate=float(-vals.min()),
        ci_half_width=0.0,
        bound=-SHARPNESS_FLOOR,
        beta=0.0,
        n_samples=len(vals),
        seed=seed,
    )


# -- relative entropy and drift energy ---------------------------------------


def relative_entropy_quadrature(density: DensityModel) -> float:
    """H(f dgamma | gamma) = integral of f log f dgamma by quadrature."""
    rule = default_rule(density.dim)
    logs = np.asarray(density.log_f(rule.nodes))
    return float((rule.weights * np.exp(logs) * logs).sum())


def _batch_meta(stats: BatchStats, density: DensityModel, pert: Perturbation | None = None,
                **extra) -> dict:
    """Identity fields of a row computed on a path batch.  A perturbation row
    takes r, delta and beta from its record; every other row reports the
    density's own beta."""
    meta = dict(family=density.name, dim=density.dim, n_samples=stats.n_paths,
                seed=stats.seed, beta=density.beta, **extra)
    if pert is not None:
        meta.update(r=pert.r, delta=pert.delta, beta=pert.beta)
    return meta


def entropy_identity_report(stats: BatchStats, density: DensityModel) -> BoundReport:
    """Half the expected drift energy against the quadrature entropy."""
    mc, se = batch_means(0.5 * stats.energy_full)
    h = relative_entropy_quadrature(density)
    return BoundReport(
        name="entropy_identity_gap", estimate=abs(mc - h),
        ci_half_width=CI_STANDARD_ERRORS * se + ENTROPY_QUAD_TOL, bound=0.0,
        **_batch_meta(stats, density),
    )


def drift_energy_report(stats: BatchStats, density: DensityModel, r: float) -> BoundReport:
    """Expected stopped drift energy against its entropy budget 2 log r."""
    est, se = batch_means(stats.stopped[r].energy)
    return BoundReport(
        name="drift_energy", estimate=est, ci_half_width=CI_STANDARD_ERRORS * se,
        bound=2.0 * np.log(r), **_batch_meta(stats, density, r=r),
    )


# -- Girsanov / deviation-variable suite -------------------------------------


def exp_moment_report(z: np.ndarray, **meta) -> BoundReport:
    """E[e^Z] <= 1 for the deviation variable."""
    est, se = batch_means(np.exp(np.asarray(z)))
    return BoundReport(
        name="exp_moment", estimate=est, ci_half_width=CI_STANDARD_ERRORS * se, bound=1.0, **meta
    )


def deviation_reports(z: np.ndarray, r: float, delta: float, beta: float,
                      **meta) -> list[BoundReport]:
    """P(Z <= -2) <= -E[Z], valid whenever E[e^Z] <= 1, and
    P(Z <= -2) <= delta^2 (beta + 1) log r, from one mean of the event."""
    z = np.asarray(z)
    p, p_se = batch_means((z <= -2.0).astype(float))
    mz, mz_se = batch_means(z)
    meta.update(r=r, delta=delta, beta=beta)
    return [
        BoundReport(
            name="deviation_bound",
            estimate=p,
            ci_half_width=CI_STANDARD_ERRORS * (p_se + mz_se),
            bound=-mz,
            **meta,
        ),
        BoundReport(
            name="deviation_budget",
            estimate=p,
            ci_half_width=CI_STANDARD_ERRORS * p_se,
            bound=delta**2 * (beta + 1.0) * np.log(r),
            **meta,
        ),
    ]


def girsanov_reports(stats: BatchStats, density: DensityModel, pert: Perturbation) -> list[BoundReport]:
    """Girsanov normalization, reweighted mass, and the pathwise floors.

    The product floor f(X^d) D^d >= e^Z (1 - tol) is exact only for a
    constant-drift family (the tilt), where the value process matches its
    Ito reconstruction identically, so only such a family reports it;
    state-dependent drifts carry the endpoint reconstruction residual, and
    their pathwise content is the convexity floor.
    """
    meta = _batch_meta(stats, density, pert)
    d_mean, d_se = batch_means(np.exp(pert.log_d))
    fd_mean, fd_se = batch_means(np.exp(pert.log_f_xd + pert.log_d))
    rows = [
        BoundReport(name="girsanov_mean_gap", estimate=abs(d_mean - 1.0),
                    ci_half_width=CI_STANDARD_ERRORS * d_se, bound=0.0, **meta),
        BoundReport(name="girsanov_product_gap", estimate=abs(fd_mean - 1.0),
                    ci_half_width=CI_STANDARD_ERRORS * fd_se, bound=0.0, **meta),
        BoundReport(name="convexity_floor", estimate=-float(pert.convexity_margin.min()),
                    ci_half_width=0.0, bound=CONVEXITY_TOL, **meta),
    ]
    if density.constant_drift:
        rows.append(
            BoundReport(name="pathwise_product_floor", estimate=-float(pert.product_excess.min()),
                        ci_half_width=0.0, bound=-float(np.log1p(-PRODUCT_TOL)), **meta)
        )
    return rows


def z_suite_reports(stats: BatchStats, density: DensityModel, pert: Perturbation) -> list[BoundReport]:
    meta = _batch_meta(stats, density, pert)
    return [
        exp_moment_report(pert.z, **meta),
        *deviation_reports(pert.z, **meta),
        *martingale_gap_reports(stats, density, pert.r),
    ]


def martingale_gap_reports(stats: BatchStats, density: DensityModel, r: float) -> list[BoundReport]:
    """|E[<v_1 - v_s, v_s> 1_{s <= T}]| at the stored checkpoints.

    Zero in continuous time by optional stopping; the bound is a fixed
    discretization allowance on top of the Monte Carlo half-width.
    """
    sl = stats.stopped[r]
    out = []
    for tc, v_s in sorted(stats.checkpoints.items()):
        idx = stats.checkpoint_indices[tc]
        ind = (idx < sl.t_index).astype(float)
        est, se = batch_means(((stats.v1 - v_s) * v_s).sum(-1) * ind)
        out.append(BoundReport(
            name=f"drift_martingale_gap@{tc:g}", estimate=abs(est),
            ci_half_width=CI_STANDARD_ERRORS * se,
            bound=MARTINGALE_ALLOWANCE, **_batch_meta(stats, density, t=tc, r=r),
        ))
    return out


# -- total variation and shell shift ------------------------------------------


def tv_reports(stats: BatchStats, density: DensityModel, pert: Perturbation) -> list[BoundReport]:
    """Empirical lower bound on d_TV(mu, mu^delta) against its entropy budget.

    The sup-over-thresholds gap between the laws of f(X_1) and f(X_1^d)
    lower-bounds the total variation distance, so the check is sound: only
    a genuinely large distance can fail it.  The half-width is the paired
    two-sample KS 1% envelope.
    """
    meta = _batch_meta(stats, density, pert)
    d_hat = ks_two_sample(stats.k_final, pert.log_f_xd)
    envelope = KS_CRIT * np.sqrt(2.0 / stats.n_paths)
    budget = pert.delta * np.sqrt((pert.beta + 1.0) * np.log(pert.r))
    return [
        BoundReport(name="tv_lower_bound", estimate=d_hat,
                    ci_half_width=envelope, bound=budget, **meta),
        BoundReport(name="tv_pinsker", estimate=d_hat, ci_half_width=envelope,
                    bound=budget / np.sqrt(2.0), **meta),
    ]


def shell_shift_report(stats: BatchStats, density: DensityModel, pert: Perturbation) -> BoundReport:
    """The ``shell_shift`` row, tested on paired paths so the Monte Carlo
    error applies to the difference of indicators."""
    logr, delta = np.log(pert.r), pert.delta
    lhs = (pert.log_f_xd <= (1.0 + 2.0 * delta) * logr - 4.0).astype(float)
    rhs = (stats.k_final <= logr).astype(float)
    est, se = batch_means(lhs - rhs)
    return BoundReport(
        name="shell_shift", estimate=est, ci_half_width=CI_STANDARD_ERRORS * se,
        bound=(pert.beta + 4.0) * delta**2 * logr, **_batch_meta(stats, density, pert),
    )


def composite_reports(stats: BatchStats, density: DensityModel, r: float) -> list[BoundReport]:
    """The ``shell_ratio`` and ``tail_reduction`` rows at r; the latter
    compares the direct tail with the per-shell Markov sum, with both their
    half-widths, and is ``tail_reduction!exact_required`` when Monte Carlo
    cannot resolve the tail."""
    logr = np.log(r)
    meta = _batch_meta(stats, density, r=r)
    gap = stats.k_final - logr
    shell = ((gap > 0.0) & (gap <= 1.0)).astype(float)
    p_shell, p_se = batch_means(shell)
    scale = np.sqrt(logr) / max(density.beta, 1.0)
    shell_row = BoundReport(
        name="shell_ratio", estimate=p_shell * scale,
        ci_half_width=CI_STANDARD_ERRORS * p_se * scale,
        bound=DESK_RATIO_CEILING, **meta,
    )
    weights = np.where(gap > 0.0, np.exp(-np.floor(np.maximum(gap, 0.0)) - logr), 0.0)
    w_mean, w_se = batch_means(weights)
    try:
        direct, direct_ci = tail_probability(density, 0.0, r, n_samples=stats.n_paths,
                                             seed=stats.seed)
    except ResolutionError:
        nan = float("nan")
        return [shell_row, BoundReport(name="tail_reduction!exact_required", estimate=nan,
                                       ci_half_width=nan, bound=nan, **meta)]
    reduction_row = BoundReport(
        name="tail_reduction", estimate=direct, ci_half_width=CI_STANDARD_ERRORS * w_se + direct_ci,
        bound=w_mean, **meta,
    )
    return [shell_row, reduction_row]


# -- smoothing floor ----------------------------------------------------------


def hessian_floor_report(density: DensityModel, t: float) -> BoundReport:
    """Worst log-Hessian margin of Q_t f over ``HESSIAN_PROBES`` on the
    diagonal, from one ``fd_hessian`` of the image's log_f over all probes.

    The margin lambda_min + 1/(2t) must be >= -HESSIAN_TOL everywhere; it
    confirms the 1/(2t) semi-convexity floor of the smoothed log-density.
    """
    if t <= 0:
        raise ValueError("Hessian floor check needs t > 0")
    points = np.tile(HESSIAN_PROBES[:, None], density.dim)
    hess = fd_hessian(ou_image(density, t).log_f, points)
    worst = float((np.linalg.eigvalsh(hess)[:, 0] + 0.5 / t).min())
    return BoundReport(
        name="log_hessian_floor",
        family=density.name,
        dim=density.dim,
        t=t,
        beta=density.beta,
        estimate=-worst,
        ci_half_width=0.0,
        bound=HESSIAN_TOL,
        n_samples=len(points),
        seed=0,
    )
