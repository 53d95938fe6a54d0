"""Density families relative to the standard Gaussian measure.

Every family models a probability density f with respect to gamma_n
(so integral of f d(gamma_n) = 1), exposes log f and its gradient, and
carries a weak-convexity certificate beta with

    Hessian(log f) >= -beta * id   pointwise.

Families are exponentials by construction, hence strictly positive
everywhere.  Where Gaussian algebra permits, a family also provides closed
forms for its heat and Ornstein-Uhlenbeck images and (for the log-linear
tilt) its exact super-level tail; everything else falls back to quadrature
in the semigroup module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import logsumexp, softmax

from .errors import (
    ClosedFormUnavailableError,
    DimensionMismatchError,
    NonFiniteValueError,
)
from .numeric import FD_HESS_STEP, fd_hessian, log_gauss_tail
from .quadrature import QuadratureRule

SINE_NORM_NODES = 128


def _as_points(x, dim: int) -> np.ndarray:
    """Coerce input to shape (..., dim); bare arrays are allowed when dim=1."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[None]
    if x.shape[-1] != dim:
        if dim == 1:
            return x[..., None]
        raise DimensionMismatchError(f"points have last axis {x.shape[-1]}, expected {dim}")
    return x


class DensityModel:
    """Base class for densities relative to gamma_n.

    Subclasses set ``dim`` and ``beta`` and implement ``log_f`` /
    ``grad_log_f`` on arrays of shape (..., dim).
    """

    dim: int
    beta: float
    name: str = "density"

    def log_f(self, x) -> np.ndarray:
        raise NotImplementedError

    def grad_log_f(self, x) -> np.ndarray:
        raise NotImplementedError

    # -- optional closed forms -------------------------------------------

    @property
    def has_closed_heat(self) -> bool:
        return False

    @property
    def has_closed_ou(self) -> bool:
        return False

    @property
    def has_closed_tail(self) -> bool:
        return False

    def closed_ou(self, t: float) -> "DensityModel":
        """The density of the OU image Q_t f, when expressible in-family."""
        raise ClosedFormUnavailableError(f"{self.name} has no closed OU image")

    def closed_heat_log(self, s: float, x) -> np.ndarray:
        """log P_s f(x) in closed form."""
        raise ClosedFormUnavailableError(f"{self.name} has no closed heat transform")

    def closed_heat_grad_log(self, s: float, x) -> np.ndarray:
        """grad log P_s f(x) in closed form."""
        raise ClosedFormUnavailableError(f"{self.name} has no closed heat transform")

    def closed_tail(self, r: float, t: float = 0.0) -> float:
        """gamma_n({Q_t f > r}) in closed form (t=0 gives the tail of f)."""
        raise ClosedFormUnavailableError(f"{self.name} has no exact tail")


@dataclass(frozen=True)
class TiltDensity(DensityModel):
    """Log-linear density f_u(x) = exp(<u, x> - |u|^2 / 2).

    The zero tilt is the constant density 1.  All transforms are closed:
    the heat semigroup multiplies by exp(s|u|^2/2), the OU semigroup shrinks
    the tilt to u*exp(-t), and super-level sets are half-spaces.
    """

    u: np.ndarray
    name: str = field(default="tilt", init=False)

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        if u.ndim != 1:
            raise DimensionMismatchError("tilt vector must be one-dimensional")
        object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def beta(self) -> float:
        return 0.0

    @property
    def alpha(self) -> float:
        """Tilt magnitude |u| (the 1-D parameter)."""
        return float(np.linalg.norm(self.u))

    def log_f(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        return x @ self.u - 0.5 * self.alpha**2

    def grad_log_f(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        return np.broadcast_to(self.u, x.shape).copy()

    @property
    def has_closed_heat(self) -> bool:
        return True

    @property
    def has_closed_ou(self) -> bool:
        return True

    @property
    def has_closed_tail(self) -> bool:
        return True

    def closed_ou(self, t: float) -> "TiltDensity":
        return TiltDensity(self.u * np.exp(-t))

    def closed_heat_log(self, s: float, x) -> np.ndarray:
        return self.log_f(x) + 0.5 * s * self.alpha**2

    def closed_heat_grad_log(self, s: float, x) -> np.ndarray:
        return self.grad_log_f(x)

    def closed_tail(self, r: float, t: float = 0.0) -> float:
        if r <= 1.0:
            raise ValueError("tail threshold must satisfy r > 1")
        a = self.alpha * np.exp(-t)
        if a == 0.0:
            return 0.0
        return float(np.exp(log_gauss_tail(np.log(r) / a + 0.5 * a)))


class MixtureDensity(DensityModel):
    """Mixture of isotropic Gaussians N(a_j, spread*id), as a density
    relative to gamma_n.

    Each component is itself normalized against gamma_n, so the mixture is
    too.  With spread in (0, 1) the log-density defect is at most
    1/spread - 1; the certified beta is measured on a probe grid and
    inflated by 10%, which caps the (unattained) asymptotic defect.

    Heat and OU images stay inside the Gaussian-mixture class, giving
    closed drift and semigroup evaluations.
    """

    name = "mixture"

    def __init__(self, weights, means, spread: float, beta: float | None = None):
        weights = np.asarray(weights, dtype=float)
        means = np.asarray(means, dtype=float)
        if means.ndim == 1:
            means = means[:, None]
        if weights.ndim != 1 or means.shape[0] != weights.shape[0]:
            raise DimensionMismatchError("need one mean per weight")
        if np.any(weights <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-8:
            raise ValueError("mixture weights must sum to 1")
        if not 0.0 < spread < 1.0:
            raise ValueError("per-component spread must lie in (0, 1)")
        self.weights = weights / weights.sum()
        self.means = means
        self.spread = float(spread)
        self.dim = means.shape[1]
        self.log_weights = np.log(self.weights)
        self.beta = self._probe_beta() if beta is None else float(beta)

    # log f_j(x) = -(n/2) log s - |x - a_j|^2 / (2s) + |x|^2 / 2
    def _component_logs(self, x: np.ndarray) -> np.ndarray:
        s = self.spread
        diff = x[..., None, :] - self.means  # (..., J, n)
        sq = (diff * diff).sum(-1)
        return (
            -0.5 * self.dim * np.log(s)
            - 0.5 * sq / s
            + 0.5 * (x * x).sum(-1)[..., None]
            + self.log_weights
        )

    def log_f(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        return logsumexp(self._component_logs(x), axis=-1)

    def posterior(self, x) -> np.ndarray:
        """Posterior component weights p_j(x), shape (..., J)."""
        x = _as_points(x, self.dim)
        return softmax(self._component_logs(x), axis=-1)

    def grad_log_f(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        p = self.posterior(x)
        abar = p @ self.means  # (..., n)
        return x - (x - abar) / self.spread

    def hessian_log_f(self, x) -> np.ndarray:
        """Analytic Hessian: (1 - 1/s) id + Cov_p(a) / s^2."""
        x = _as_points(x, self.dim)
        p = self.posterior(x)
        abar = p @ self.means
        centered = self.means - abar[..., None, :]
        cov = np.einsum("...j,...jk,...jl->...kl", p, centered, centered)
        eye = np.eye(self.dim)
        return (1.0 - 1.0 / self.spread) * eye + cov / self.spread**2

    def _probe_beta(self) -> float:
        lim = float(np.abs(self.means).max()) + 4.0
        axis = np.arange(-lim, lim + 1e-9, 0.25)
        if self.dim == 1:
            grid = axis[:, None]
        else:
            # axis lines plus the diagonal keep the probe affordable in n>1
            pts = []
            for c in range(self.dim):
                g = np.zeros((axis.size, self.dim))
                g[:, c] = axis
                pts.append(g)
            pts.append(np.repeat(axis[:, None], self.dim, axis=1))
            grid = np.concatenate(pts)
        eigs = np.linalg.eigvalsh(self.hessian_log_f(grid))
        defect = max(0.0, float(-eigs.min()))
        return 1.1 * defect

    @property
    def has_closed_heat(self) -> bool:
        return True

    @property
    def has_closed_ou(self) -> bool:
        return True

    def closed_ou(self, t: float) -> "MixtureDensity":
        # Q_t maps N(a, s) relative densities to N(a e^-t, 1 + e^-2t (s-1)).
        rho = np.exp(-t)
        return MixtureDensity(
            self.weights,
            self.means * rho,
            1.0 + rho**2 * (self.spread - 1.0),
            beta=None,
        )

    def _heat_component_logs(self, s: float, x: np.ndarray) -> np.ndarray:
        sp = self.spread
        a_over = 1.0 / sp + 1.0 / s - 1.0
        b = self.means / sp + x[..., None, :] / s  # (..., J, n)
        per_coord = (
            -0.5 * np.log(sp * s * a_over)
            + 0.5 * (b * b) / a_over
            - 0.5 * (self.means * self.means) / sp
            - 0.5 * (x * x)[..., None, :] / s
        )
        return per_coord.sum(-1) + self.log_weights

    def closed_heat_log(self, s: float, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        if s <= 0.0:
            return self.log_f(x)
        return logsumexp(self._heat_component_logs(s, x), axis=-1)

    def closed_heat_grad_log(self, s: float, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        if s <= 0.0:
            return self.grad_log_f(x)
        logs = self._heat_component_logs(s, x)
        p = softmax(logs, axis=-1)
        a_over = 1.0 / self.spread + 1.0 / s - 1.0
        b = self.means / self.spread + x[..., None, :] / s
        comp_grad = (b / a_over - x[..., None, :]) / s  # (..., J, n)
        return np.einsum("...j,...jn->...n", p, comp_grad)


class SinePerturbationDensity(DensityModel):
    """Bounded perturbation f(x) = exp(eps * sin(<k, x>)) / Z.

    No closed transforms: this family exercises the generic quadrature code
    paths.  The convexity certificate is exact: the Hessian of the exponent
    is -eps*sin(<k,x>) k k^T, so beta = eps * |k|^2.
    """

    name = "sine"

    def __init__(self, eps: float, wave):
        if eps < 0:
            raise ValueError("perturbation size eps must be >= 0")
        wave = np.atleast_1d(np.asarray(wave, dtype=float))
        self.eps = float(eps)
        self.wave = wave
        self.dim = wave.shape[0]
        knorm = float(np.linalg.norm(wave))
        self.beta = self.eps * knorm**2
        # Z = E[exp(eps sin(|k| G))] with G standard 1-D Gaussian
        rule = QuadratureRule.gauss_hermite(1, SINE_NORM_NODES)
        z = rule.nodes[:, 0]
        self.log_z = float(logsumexp(rule.log_weights + self.eps * np.sin(knorm * z)))

    def log_f(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        return self.eps * np.sin(x @ self.wave) - self.log_z

    def grad_log_f(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        return self.eps * np.cos(x @ self.wave)[..., None] * self.wave


def constant_density(dim: int = 1) -> TiltDensity:
    """The density f = 1 (zero tilt)."""
    return TiltDensity(np.zeros(dim))


class Family(NamedTuple):
    """A density family: its constructor and the keyword parameters of its
    default member.  Vector parameters are tuples; ``means`` is a tuple of
    points."""

    build: Callable[..., DensityModel]
    defaults: dict


FAMILIES: dict[str, Family] = {
    "tilt": Family(TiltDensity, {"u": (2.0,)}),
    "mixture": Family(
        MixtureDensity, {"weights": (0.5, 0.5), "means": ((-1.0,), (1.0,)), "spread": 0.5}
    ),
    "sine": Family(SinePerturbationDensity, {"eps": 0.3, "wave": (2.0,)}),
}


def validate_normalization(density: DensityModel, rule: QuadratureRule) -> float:
    """|integral of f d(gamma_n) - 1| by quadrature.

    Raises on dimension mismatch or an empty rule; the caller compares the
    residual against its own tolerance.
    """
    if rule.dim != density.dim:
        raise DimensionMismatchError(
            f"rule dim {rule.dim} != density dim {density.dim}"
        )
    logs = density.log_f(rule.nodes)
    return float(abs(np.exp(logsumexp(rule.log_weights + logs)) - 1.0))


def beta_probe(
    density: DensityModel,
    points,
    h: float = FD_HESS_STEP,
) -> float:
    """Worst finite-difference convexity margin over the probe points.

    Returns min over points of lambda_min(Hessian log f) + beta; a value
    >= -O(h^2) certifies the declared beta on the probe set.  Negative
    margins flag an understated certificate.
    """
    points = _as_points(points, density.dim)
    points = points.reshape(-1, density.dim)
    if not np.isfinite(points).all():
        raise NonFiniteValueError("probe points must be finite")
    worst = np.inf
    for x in points:
        val = density.log_f(x)
        if not np.isfinite(val):
            raise NonFiniteValueError(f"log f non-finite at probe point {x}")
        hess = fd_hessian(density.log_f, x, h=h)
        if not np.isfinite(hess).all():
            raise NonFiniteValueError(f"finite-difference Hessian non-finite at {x}")
        worst = min(worst, float(np.linalg.eigvalsh(hess)[0]) + density.beta)
    return worst
