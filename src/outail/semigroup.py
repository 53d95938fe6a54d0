"""Ornstein-Uhlenbeck and heat semigroup evaluation.

Values are carried in log scale internally and exponentiated only at API
boundaries (thresholds r up to e^16 overflow otherwise).  ``heat_at`` is the
one place that decides how (log P_s f, grad log P_s f) is evaluated: in
closed form when the family has one, else by ``heat_log_grad``, the one
Gauss-Hermite heat kernel, which skips the gradient when only log P_s f is
wanted.  ``ou_image`` is the one place that decides how Q_t f is
represented: as a density, the family's in-family OU image when it has
one, else Mehler's formula over ``heat_at``; ``ou_log``, Mehler over the
kernel alone, is the quadrature reference.
Monte Carlo carries an explicit seed and reduces deterministically.

The heat-kernel gradient is computed by differentiating the kernel inside
the quadrature sum (score trick), never by outer finite differences:

    grad log P_s f(x) = E[f(x + sqrt(s) Y) Y] / (sqrt(s) E[f(x + sqrt(s) Y)]).

Below the bandwidth floor ``S_MIN`` the score weights degenerate, so the
kernel returns the exact s -> 0 limit grad log f instead.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .errors import NonFiniteValueError
from .measures import DensityModel, _as_points
from .quadrature import QuadratureRule
from .reports import BoundReport

S_MIN = 1e-4
DEFAULT_NODES = 64
# Slack of the hypercontractivity comparison, relative to ||f||_p.
HYPER_REL_TOL = 1e-8
# Largest dimension of the hypercontractivity check: ||Q_t f||_q evaluates
# log Q_t f at all 64**dim nodes of the rule, each by heat-kernel
# quadrature for a family without closed forms.
HYPER_MAX_DIM = 2
# Most point-node pairs one pass of ``heat_log_grad`` holds, which bounds its
# temporaries to about 100 MiB: a 3-D image on the 64**3-node rule needs
# gigabytes for the Hessian stencils of 50 probes in one pass.
HEAT_BLOCK_PAIRS = 2**20


@lru_cache(maxsize=None)
def default_rule(dim: int) -> QuadratureRule:
    """The DEFAULT_NODES-per-axis Gauss-Hermite rule in ``dim`` dimensions,
    built once per dimension."""
    return QuadratureRule.gauss_hermite(dim, DEFAULT_NODES)


def heat_at(density: DensityModel, x, rule: Optional[QuadratureRule] = None, grad: bool = True):
    """s -> (log P_s f(x), grad log P_s f(x)) at the fixed points x: the
    family's ``closed_heat_at(x)`` when it is not None, else
    ``heat_log_grad`` on ``rule`` (``default_rule`` when None, built only in
    that case), whose gradient is None when not ``grad``."""
    if density.closed_heat_at is not None:
        return density.closed_heat_at(x)
    return partial(heat_log_grad, density, x=x, rule=rule or default_rule(density.dim), grad=grad)


def ou_log(density: DensityModel, t: float, x, rule: Optional[QuadratureRule] = None) -> np.ndarray:
    """log Q_t f(x) by Mehler's formula over the Gauss-Hermite heat kernel
    ``heat_log_grad``, vectorized over points; log f(x) at t = 0."""
    if t < 0:
        raise ValueError("OU time must be >= 0")
    x = _as_points(x, density.dim)
    if t == 0.0:
        return density.log_f(x)
    rule = rule or default_rule(density.dim)
    return heat_log_grad(density, -np.expm1(-2.0 * t), np.exp(-t) * x, rule, grad=False)[0]


def ou_image(density: DensityModel, t: float, rule: Optional[QuadratureRule] = None) -> DensityModel:
    """Q_t f as a density relative to gamma_n: f itself at t = 0, else the
    family's in-family image ``closed_ou(t)``, else ``_MehlerImage`` over
    ``heat_at`` with ``rule``."""
    if t < 0:
        raise ValueError("OU time must be >= 0")
    if t == 0.0:
        return density
    if density.closed_ou is not None:
        return density.closed_ou(t)
    return _MehlerImage(density, t, rule)


class _MehlerImage(DensityModel):
    """Q_t f(x) = P_{1 - e^{-2t}} f(e^{-t} x) by Mehler's formula, log only.

    If Hess log f >= -beta, then Hess log Q_t f >= -beta_t with
    beta_t = e^{-2t} beta / (1 + (1 - e^{-2t}) beta), by the Cramer-Rao bound
    on the heat posterior; a Gaussian mixture's image attains it.
    """

    def __init__(self, density: DensityModel, t: float, rule: Optional[QuadratureRule]):
        self._density, self._rule = density, rule
        self._s, self._rho = -np.expm1(-2.0 * t), np.exp(-t)
        self.dim, self.name = density.dim, density.name
        self.beta = np.exp(-2.0 * t) * density.beta / (1.0 + self._s * density.beta)

    def log_f(self, x) -> np.ndarray:
        return heat_at(self._density, self._rho * x, self._rule, grad=False)(self._s)[0]


def heat_log_grad(
    density: DensityModel, s: float, x, rule: QuadratureRule, grad: bool = True
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(log P_s f(x), grad log P_s f(x)) by quadrature with kernel covariance
    s * id; the gradient is grad log f(x) itself below ``S_MIN``, and is
    skipped (None) when not ``grad``.  The points go through the kernel in
    blocks of at most ``HEAT_BLOCK_PAIRS`` point-node pairs (one point when
    the rule alone exceeds it); every reduction runs per point over the
    nodes, so the blocks do not change the result."""
    if not 0.0 < s <= 1.0:
        raise ValueError("heat bandwidth must lie in (0, 1]")
    x = _as_points(x, density.dim)
    points = x.reshape(-1, density.dim)
    block = max(1, HEAT_BLOCK_PAIRS // rule.n_nodes)
    sqrt_s, score = np.sqrt(s), grad and s >= S_MIN
    parts = [_heat_block(density, sqrt_s, points[i:i + block], rule, score)
             for i in range(0, max(len(points), 1), block)]
    k = np.concatenate([part[0] for part in parts]).reshape(x.shape[:-1])
    if score:
        v = np.concatenate([part[1] for part in parts]).reshape(x.shape)
    else:
        v = density.grad_log_f(x) if grad else None
    if not (np.isfinite(k).all() and (v is None or np.isfinite(v).all())):
        raise NonFiniteValueError(f"log P_s f or its gradient non-finite at s={s:g}")
    return k, v


def _heat_block(density: DensityModel, sqrt_s: float, x: np.ndarray, rule: QuadratureRule,
                score: bool) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """log P_s f at the points x, shape (P, n), and the score-trick gradient
    when ``score``."""
    logs = rule.log_weights + density.log_f(x[:, None, :] + sqrt_s * rule.nodes)
    k = logsumexp(logs, axis=-1)
    if not score:
        return k, None
    w = np.exp(logs - logs.max(axis=-1, keepdims=True))
    num = np.einsum("...m,mn->...n", w, rule.nodes)
    return k, num / (sqrt_s * w.sum(-1)[..., None])


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
    if density.dim > HYPER_MAX_DIM:
        raise ValueError(f"norm quadrature limited to dim <= {HYPER_MAX_DIM}")
    rule = default_rule(density.dim)
    q = nelson_exponent(p, t)
    lhs = np.exp(log_lp_norm(ou_image(density, t, rule).log_f, q, rule))
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
