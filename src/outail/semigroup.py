"""Ornstein-Uhlenbeck and heat semigroup evaluation.

Values are carried in log scale internally and exponentiated only at API
boundaries (thresholds r up to e^16 overflow otherwise).  Every family has a
closed heat transform, ``closed_heat_at``, so no heat kernel runs here, and
an in-family OU image, ``closed_ou``, which ``ou_image`` returns; ``ou_log``,
Mehler's formula on the Gauss-Hermite rule, is the quadrature reference.
Monte Carlo carries an explicit seed and reduces deterministically.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import logsumexp

from .errors import NonFiniteValueError
from .measures import DensityModel, _as_points
from .quadrature import QuadratureRule
from .reports import BoundReport

DEFAULT_NODES = 64
# Slack of the hypercontractivity comparison, relative to ||f||_p.
HYPER_REL_TOL = 1e-8


@lru_cache(maxsize=None)
def default_rule(dim: int) -> QuadratureRule:
    """The DEFAULT_NODES-per-axis Gauss-Hermite rule in ``dim`` dimensions,
    built once per dimension."""
    return QuadratureRule.gauss_hermite(dim, DEFAULT_NODES)


def ou_log(density: DensityModel, t: float, x) -> np.ndarray:
    """log Q_t f(x) by Mehler's formula on ``default_rule``, vectorized over
    points; log f(x) at t = 0.  The quadrature reference the closed forms
    are tested against."""
    if t < 0:
        raise ValueError("OU time must be >= 0")
    x = _as_points(x, density.dim)
    if t == 0.0:
        return density.log_f(x)
    rule = default_rule(density.dim)
    y = np.exp(-t) * x[..., None, :] + np.sqrt(-np.expm1(-2.0 * t)) * rule.nodes
    k = logsumexp(rule.log_weights + density.log_f(y), axis=-1)
    if not np.isfinite(k).all():
        raise NonFiniteValueError(f"log Q_t f non-finite at t={t:g}")
    return k


def ou_image(density: DensityModel, t: float) -> DensityModel:
    """Q_t f as a density relative to gamma_n: f itself at t = 0, else the
    family's in-family image ``closed_ou(t)``."""
    if t < 0:
        raise ValueError("OU time must be >= 0")
    return density if t == 0.0 else density.closed_ou(t)


def nelson_exponent(p: float, t: float) -> float:
    """Largest q with ||Q_t f||_q <= ||f||_p: q = 1 + e^{2t} (p - 1)."""
    if p <= 1.0:
        raise ValueError("hypercontractivity needs p > 1")
    return 1.0 + np.exp(2.0 * t) * (p - 1.0)


def log_lp_norm(log_f_fn, p: float, rule: QuadratureRule) -> float:
    """log ||f||_{L_p(gamma)} from a log-density callable, in log space."""
    logs = np.asarray(log_f_fn(rule.nodes))
    return float(logsumexp(rule.log_weights + p * logs) / p)


def hypercontractivity_check(density: DensityModel, p: float, t: float) -> BoundReport:
    """Compare ||Q_t f||_q against ||f||_p at the critical exponent.

    Both norms are quadrature integrals in log scale, with log Q_t f from
    ``ou_image``; the report passes when the smoothed norm does not exceed
    the raw norm beyond ``HYPER_REL_TOL``.
    """
    rule = default_rule(density.dim)
    q = nelson_exponent(p, t)
    lhs = np.exp(log_lp_norm(ou_image(density, t).log_f, q, rule))
    rhs = np.exp(log_lp_norm(density.log_f, p, rule))
    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        raise NonFiniteValueError("norm integral non-finite")
    return BoundReport(
        name="hypercontractivity",
        family=density.name,
        dim=density.dim,
        t=t,
        beta=density.beta,
        estimate=float(lhs),
        ci_half_width=HYPER_REL_TOL * max(1.0, rhs),
        bound=float(rhs),
        n_samples=rule.n_nodes,
    )
