"""Ornstein-Uhlenbeck and heat semigroup evaluation.

Values are carried in log scale internally and exponentiated only at API
boundaries (thresholds r up to e^16 overflow otherwise).  ``ou_log_fn`` is
the one place that decides how log Q_t f is evaluated: the in-family OU
image when the family has one, else Mehler's formula on a closed heat form,
else ``ou_log``, tensorized Gauss-Hermite quadrature.  Monte Carlo carries an
explicit seed and reduces deterministically.

The heat-kernel gradient is computed by differentiating the kernel inside
the quadrature sum (score trick), never by outer finite differences:

    grad log P_s f(x) = E[f(x + sqrt(s) Y) Y] / (sqrt(s) E[f(x + sqrt(s) Y)]).

Below the bandwidth floor ``S_MIN`` the score weights degenerate, so the
kernel returns the exact s -> 0 limit grad log f instead.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .errors import NonFiniteValueError
from .measures import DensityModel, _as_points
from .numeric import fd_hessian
from .quadrature import QuadratureRule
from .reports import BoundReport

S_MIN = 1e-4
DEFAULT_NODES = 64
# Slack of the hypercontractivity comparison, relative to ||f||_p.
HYPER_REL_TOL = 1e-8
# Largest dimension of the hypercontractivity check: ||Q_t f||_q evaluates
# log Q_t f at all 64**dim nodes of the rule, each by ``ou_log`` quadrature
# for a family without closed forms.
HYPER_MAX_DIM = 2


@lru_cache(maxsize=None)
def default_rule(dim: int) -> QuadratureRule:
    """The DEFAULT_NODES-per-axis Gauss-Hermite rule in ``dim`` dimensions,
    built once per dimension."""
    return QuadratureRule.gauss_hermite(dim, DEFAULT_NODES)


def ou_log(density: DensityModel, t: float, x, rule: Optional[QuadratureRule] = None) -> np.ndarray:
    """log Q_t f(x) by Gauss-Hermite quadrature, vectorized over points."""
    if t < 0:
        raise ValueError("OU time must be >= 0")
    rule = rule or default_rule(density.dim)
    x = _as_points(x, density.dim)
    rho = np.exp(-t)
    tau = np.sqrt(-np.expm1(-2.0 * t))
    pts = rho * x[..., None, :] + tau * rule.nodes
    logs = density.log_f(pts)
    out = logsumexp(rule.log_weights + logs, axis=-1)
    if not np.isfinite(out).all():
        raise NonFiniteValueError("log Q_t f evaluated non-finite")
    return out


def ou_log_fn(density: DensityModel, t: float, rule: Optional[QuadratureRule] = None):
    """x -> log Q_t f(x): log f at t = 0, else the in-family OU image, else
    Mehler's formula Q_t f(x) = P_{1 - e^{-2t}} f(e^{-t} x) on a closed heat
    form, else ``ou_log`` quadrature with ``rule``."""
    if t < 0:
        raise ValueError("OU time must be >= 0")
    if t == 0.0:
        return density.log_f
    if density.has_closed_ou:
        return density.closed_ou(t).log_f
    if density.has_closed_heat:
        s, rho = -np.expm1(-2.0 * t), np.exp(-t)
        return lambda xs: density.closed_heat_log_grad(s, rho * xs)[0]
    return lambda xs: ou_log(density, t, xs, rule)


def heat_log_grad(
    density: DensityModel, s: float, x, rule: QuadratureRule
) -> tuple[np.ndarray, np.ndarray]:
    """(log P_s f(x), grad log P_s f(x)) by quadrature with kernel covariance
    s * id; the gradient is grad log f(x) itself below ``S_MIN``."""
    if not 0.0 < s <= 1.0:
        raise ValueError("heat bandwidth must lie in (0, 1]")
    x = _as_points(x, density.dim)
    sqrt_s = np.sqrt(s)
    pts = x[..., None, :] + sqrt_s * rule.nodes
    logs = rule.log_weights + density.log_f(pts)
    k = logsumexp(logs, axis=-1)
    if s >= S_MIN:
        peak = logs.max(axis=-1, keepdims=True)
        w = np.exp(logs - peak)
        den = w.sum(-1)
        num = np.einsum("...m,mn->...n", w, rule.nodes)
        v = num / (sqrt_s * den[..., None])
    else:
        v = density.grad_log_f(x)
    if not (np.isfinite(k).all() and np.isfinite(v).all()):
        raise NonFiniteValueError(f"log P_s f or its gradient non-finite at s={s:g}")
    return k, v


def ou_log_hessian_min_eig(density: DensityModel, t: float, x) -> float:
    """lambda_min(Hessian log Q_t f(x)) + 1/(2t).

    A non-negative value (within finite-difference tolerance) confirms the
    1/(2t) semi-convexity floor of the smoothed log-density at x.
    """
    if t <= 0:
        raise ValueError("Hessian floor check needs t > 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    hess = fd_hessian(ou_log_fn(density, t), x)
    if not np.isfinite(hess).all():
        raise NonFiniteValueError("finite-difference Hessian of log Q_t f non-finite")
    return float(np.linalg.eigvalsh(hess)[0] + 0.5 / t)


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
    ``ou_log_fn``; the report passes when the smoothed norm does not exceed
    the raw norm beyond ``HYPER_REL_TOL``.
    """
    if density.dim > HYPER_MAX_DIM:
        raise ValueError(f"norm quadrature limited to dim <= {HYPER_MAX_DIM}")
    rule = default_rule(density.dim)
    q = nelson_exponent(p, t)
    lhs = np.exp(log_lp_norm(ou_log_fn(density, t, rule), q, rule))
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
