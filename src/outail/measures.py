"""Density families relative to the standard Gaussian measure.

Every family models a probability density f with respect to gamma_n
(so integral of f d(gamma_n) = 1), exposes log f and its gradient, and
carries a weak-convexity certificate beta with

    Hessian(log f) >= -beta * id   pointwise.

Families are exponentials by construction, hence strictly positive
everywhere.  Where Gaussian algebra permits, a family also provides closed
forms for its heat and Ornstein-Uhlenbeck images and (for the log-linear
tilt) its exact super-level tail; the sine family's heat image is a Bessel
series.  Everything else falls back to quadrature in the semigroup module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ive, logsumexp, softmax

from .errors import (
    ClosedFormUnavailableError,
    DimensionMismatchError,
    NonFiniteValueError,
)
from .numeric import FD_HESS_STEP, fd_hessian, log_gauss_tail
from .quadrature import QuadratureRule

# Relative precision the Jacobi-Anger sums of the sine family must keep.
SERIES_TOL = 1e-10
MAX_SERIES_TERMS = 4096
_EPS_MACH = float(np.finfo(float).eps)


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

    def closed_heat_log_grad(self, s: float, x) -> tuple[np.ndarray, np.ndarray]:
        """(log P_s f(x), grad log P_s f(x)) in closed form."""
        raise ClosedFormUnavailableError(f"{self.name} has no closed heat transform")

    def closed_heat_at(self, x) -> Callable[[float], tuple[np.ndarray, np.ndarray]]:
        """s -> ``closed_heat_log_grad(s, x)`` at fixed points x.

        A family whose closed form separates into a part in x and a part in
        s computes the x part once here, for tables over many bandwidths.
        """
        x = _as_points(x, self.dim)
        return lambda s: self.closed_heat_log_grad(s, x)

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

    def closed_heat_log_grad(self, s: float, x) -> tuple[np.ndarray, np.ndarray]:
        return self.log_f(x) + 0.5 * s * self.alpha**2, self.grad_log_f(x)

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
        # Q_t maps N(a, s) relative densities to N(a e^-t, s_t), s_t = 1 +
        # e^-2t (s-1); the Hessian floor (1 - 1/s_t) id certifies beta exactly.
        rho = np.exp(-t)
        s_t = 1.0 + rho**2 * (self.spread - 1.0)
        return MixtureDensity(self.weights, self.means * rho, s_t, beta=1.0 / s_t - 1.0)

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

    def closed_heat_log_grad(self, s: float, x) -> tuple[np.ndarray, np.ndarray]:
        x = _as_points(x, self.dim)
        if s <= 0.0:
            return self.log_f(x), self.grad_log_f(x)
        logs = self._heat_component_logs(s, x)
        p = softmax(logs, axis=-1)
        a_over = 1.0 / self.spread + 1.0 / s - 1.0
        b = self.means / self.spread + x[..., None, :] / s
        comp_grad = (b / a_over - x[..., None, :]) / s  # (..., J, n)
        return logsumexp(logs, axis=-1), np.einsum("...j,...jn->...n", p, comp_grad)


class SinePerturbationDensity(DensityModel):
    """Bounded perturbation f(x) = exp(eps * sin(<k, x>)) / Z.

    The convexity certificate is exact: the Hessian of the exponent is
    -eps*sin(<k,x>) k k^T, so beta = eps * |k|^2.

    With theta = <k, x>, the Jacobi-Anger expansion (Abramowitz & Stegun
    9.6.34) writes e^{eps sin theta} as I_0(eps) + 2 sum_{j>=1} I_j(eps)
    cos(j theta - j pi/2), and the heat semigroup P_s multiplies frequency j
    by exp(-s j^2 |k|^2 / 2).  Z is that series at s = 1 and x = 0, where
    only even j survive.  The drift series keeps j = 0..J, J the first
    frequency with 2 I_J / I_0 below machine epsilon (J = 11 at eps = 0.3).
    Its sums lose up to (J + 1) * eps_mach * e^{2 eps} relative precision to
    cancellation (e^{eps sin theta} can be e^{-2 eps} times the largest
    term), so the heat transform is closed, and the OU image follows by
    Mehler's formula, only while that bound stays within ``SERIES_TOL``:
    for eps up to about 4.9.  Larger eps takes the quadrature paths.
    """

    name = "sine"

    def __init__(self, eps: float, wave):
        if eps < 0:
            raise ValueError("perturbation size eps must be >= 0")
        wave = np.atleast_1d(np.asarray(wave, dtype=float))
        self.eps = float(eps)
        self.wave = wave
        self.dim = wave.shape[0]
        with np.errstate(over="ignore"):  # an infinite beta is rejected below
            self._k2 = float(wave @ wave)
            self.beta = self.eps * self._k2
        if not np.isfinite(self.beta):
            raise ValueError(f"beta = eps * |wave|^2 is not finite ({self.beta})")
        # log Z = log I_0 + log1p(sum over even j >= 2 of w_j cos(j pi/2) e^{-j^2 |k|^2 / 2})
        terms = _jacobi_anger_weights(self.eps, self._k2, 1.0)[::2]
        terms[1::2] *= -1.0
        # the terms alternate in sign: a slow wave with large eps cancels
        if not len(terms) * _EPS_MACH * np.abs(terms).sum() <= SERIES_TOL * terms.sum():
            raise ValueError(f"the series for Z loses more than {SERIES_TOL:g} to cancellation")
        self._log_z_over_i0 = float(np.log1p(terms[1:].sum()))
        self.log_z = self.eps + float(np.log(ive(0, self.eps))) + self._log_z_over_i0
        self._weights = None  # the drift series, where its sums keep SERIES_TOL
        if 2.0 * self.eps <= np.log(SERIES_TOL / _EPS_MACH):
            weights = _jacobi_anger_weights(self.eps, self._k2, 0.0)
            if len(weights) * _EPS_MACH * np.exp(2.0 * self.eps) <= SERIES_TOL:
                self._weights = weights

    def log_f(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        return self.eps * np.sin(x @ self.wave) - self.log_z

    def grad_log_f(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        return self.eps * np.cos(x @ self.wave)[..., None] * self.wave

    @property
    def has_closed_heat(self) -> bool:
        return self._weights is not None

    def closed_heat_log_grad(self, s: float, x) -> tuple[np.ndarray, np.ndarray]:
        return self.closed_heat_at(x)(s)

    def closed_heat_at(self, x) -> Callable[[float], tuple[np.ndarray, np.ndarray]]:
        """The cosines cos(j theta - j pi/2) and the derivatives
        -j sin(j theta - j pi/2) at x, computed once; each bandwidth s is
        then one weighted sum over j of each."""
        if self._weights is None:
            raise ClosedFormUnavailableError(
                f"sine series too ill-conditioned at eps = {self.eps:g}")
        x = _as_points(x, self.dim)
        theta = x @ self.wave
        j = np.arange(len(self._weights))
        phase = np.multiply.outer(j, theta.ravel() - 0.5 * np.pi)  # (J + 1, points)
        cos_j = np.cos(phase)
        dcos_j = -j[:, None] * np.sin(phase)
        decay = -0.5 * self._k2 * j * j

        def at(s: float) -> tuple[np.ndarray, np.ndarray]:
            c = self._weights * np.exp(s * decay)
            a = c @ cos_j  # P_s e^{eps sin} / I_0, positive
            k = np.log(a) - self._log_z_over_i0
            v = np.multiply.outer(c @ dcos_j / a, self.wave)
            return k.reshape(theta.shape), v.reshape(theta.shape + (self.dim,))

        return at


def _jacobi_anger_weights(eps: float, k2: float, s: float) -> np.ndarray:
    """w_j = (2 - [j = 0]) I_j(eps) / I_0(eps) e^{-s j^2 k2 / 2} for j = 0..J,
    J the first j >= 1 with w_j below machine epsilon (the weights decrease
    in j).  Raises ValueError when no J below ``MAX_SERIES_TERMS`` qualifies
    (or scipy's I_j(eps) is NaN, for eps beyond about 2e9)."""
    j = np.arange(MAX_SERIES_TERMS)
    w = 2.0 * ive(j, eps) / ive(0, eps) * np.exp(-0.5 * s * k2 * j * j)
    w[0] = 1.0
    small = np.flatnonzero(w[1:] < _EPS_MACH)
    if small.size == 0:
        raise ValueError(f"the Bessel weights at eps = {eps:g} do not fall below machine "
                         f"epsilon within {MAX_SERIES_TERMS} terms")
    return w[: small[0] + 2]


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
