"""Density families relative to the standard Gaussian measure.

Every family models a probability density f with respect to gamma_n
(so integral of f d(gamma_n) = 1), exposes log f and its gradient, and
carries a weak-convexity certificate beta with

    Hessian(log f) >= -beta * id   pointwise.

Families are exponentials by construction, hence strictly positive
everywhere.  The tilt and the sine are ridges, f(x) = g(<k, x>), so they
are 1-D: gamma_n is rotation invariant, and every law the lab checks is the
1-D profile's (``cli.build_density`` builds an n-D ridge as the member with
vector (|k|,)).  Every family has a closed heat image (``closed_heat_at``; the
sine's is a Bessel series) and its Ornstein-Uhlenbeck image as a member of
the family (``closed_ou``); the log-linear tilt also has its exact
super-level tail.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ive, logsumexp

from .errors import DimensionMismatchError, NonFiniteValueError
from .numeric import fd_hessian, log_gauss_tail
from .quadrature import QuadratureRule

# Relative precision the Jacobi-Anger sums of the sine family must keep.
SERIES_TOL = 1e-10
MAX_SERIES_TERMS = 4096
_EPS_MACH = float(np.finfo(float).eps)
# A term below this cannot move a float sum that stays in [0.5, 1.5].
_ROUNDS_AWAY = 2.0**-56


def _as_points(x, dim: int) -> np.ndarray:
    """Coerce input to shape (..., dim); bare arrays are allowed when dim=1."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        if dim == 1:
            return x[..., None]
        raise DimensionMismatchError(f"points have last axis {x.shape[-1]}, expected {dim}")
    return x


class DensityModel:
    """Base class for densities relative to gamma_n.

    Subclasses set ``dim`` and ``beta`` and implement ``closed_ou`` and, on
    arrays of shape (..., dim), ``log_f``, ``grad_log_f`` and ``closed_heat_at``.
    """

    dim: int
    beta: float
    name: str = "density"
    # Whether grad log P_s f is one finite vector for every s and x: such a
    # drift needs no tables, and the discrete K equals its Ito reconstruction.
    constant_drift = False

    def log_f(self, x) -> np.ndarray:
        raise NotImplementedError

    def grad_log_f(self, x) -> np.ndarray:
        raise NotImplementedError

    def closed_heat_at(self, x) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
        """(s, cells=...) -> (log P_s f(x[cells]), grad log P_s f(x[cells]))
        for s > 0 at the fixed points x, ``cells`` indexing their leading
        axis (every point by default); a part of the form that depends on x
        alone is computed once for all of x, for tables over many
        bandwidths and over parts of x."""
        raise NotImplementedError

    def closed_ou(self, t: float) -> "DensityModel":
        """The density of Q_t f for t > 0, a member of the same family."""
        raise NotImplementedError

    # An optional closed form, a method where a family has it, else None:
    # closed_tail(r) -> float, gamma_n({f > r}); the caller does without.
    closed_tail = None

    @property
    def has_closed_tail(self) -> bool:
        """Whether closed_tail is defined (the benchmark keys tails on it)."""
        return self.closed_tail is not None


@dataclass(frozen=True)
class TiltDensity(DensityModel):
    """Log-linear density f_u(x) = exp(u x - u^2 / 2) on the line.

    The zero tilt is the constant density 1.  All transforms are closed:
    the heat semigroup multiplies by exp(s u^2/2), the OU semigroup shrinks
    the tilt to u*exp(-t), and super-level sets are half-lines.  A tilt
    whose u^2 / 2 is not finite is rejected.
    """

    u: np.ndarray
    name: str = field(default="tilt", init=False)
    alpha: float = field(init=False, repr=False)  # tilt magnitude |u|
    dim = 1
    beta = 0.0
    constant_drift = True

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float).reshape(1))
        with np.errstate(over="ignore"):  # an overflow gives |u| = inf, rejected below
            object.__setattr__(self, "alpha", float(np.linalg.norm(self.u)))
        if not np.isfinite(0.5 * np.square(self.alpha)):
            raise ValueError(f"|u|^2 / 2 is not finite (|u| = {self.alpha:g})")

    def log_f(self, x) -> np.ndarray:
        # x u without BLAS: the product added to 0 - u^2/2, which is bit for
        # bit the matmul's sum from +0 minus u^2/2, even at -0
        return _as_points(x, 1)[..., 0] * self.u[0] + (0.0 - 0.5 * self.alpha**2)

    def grad_log_f(self, x) -> np.ndarray:
        g = np.empty(_as_points(x, 1).shape)
        g[...] = self.u
        return g

    def closed_ou(self, t: float) -> "TiltDensity":
        return TiltDensity(self.u * np.exp(-t))

    def closed_heat_at(self, x) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
        x = _as_points(x, 1)
        return lambda s, cells=...: (self.log_f(x[cells]) + 0.5 * s * self.alpha**2,
                                     self.grad_log_f(x[cells]))

    def closed_tail(self, r: float) -> float:
        if r <= 1.0:
            raise ValueError("tail threshold must satisfy r > 1")
        a = self.alpha
        if a == 0.0:
            return 0.0
        return float(np.exp(log_gauss_tail(np.log(r) / a + 0.5 * a)))


class MixtureDensity(DensityModel):
    """Mixture of isotropic Gaussians N(a_j, spread*id), as a density
    relative to gamma_n.

    Each component is itself normalized against gamma_n, so the mixture is
    too.  The Hessian of log f is (1 - 1/s) id + Cov_p(a) / s^2, with p the
    posterior component weights and s the spread; the covariance is positive
    semi-definite, so beta = 1/s - 1 is a valid certificate, and it is
    approached far from the means.  A spread so small that this beta is not
    finite is rejected.  Spread 1, the limit of the OU images (reached from
    t = 18.4 at spread 0.5), is a mixture of tilts, with beta = 0.

    Heat and OU images stay inside the Gaussian-mixture class, giving
    closed drift and semigroup evaluations.
    """

    name = "mixture"

    def __init__(self, weights, means, spread: float):
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
        if not 0.0 < spread <= 1.0:
            raise ValueError("per-component spread must lie in (0, 1]")
        self.weights = weights / weights.sum()
        self.means = means
        self.spread = float(spread)
        self.dim = means.shape[1]
        self.log_weights = np.log(self.weights)
        self.beta = 1.0 / self.spread - 1.0
        if not np.isfinite(self.beta):
            raise ValueError(f"beta = 1/spread - 1 is not finite ({self.beta})")

    def _by_component(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Means (J, 1, ..., n) and log weights (J, 1, ...) that broadcast
        against points x of shape (..., n) into components-major arrays."""
        lead = (1,) * (x.ndim - 1)
        return (self.means.reshape((-1,) + lead + (self.dim,)),
                self.log_weights.reshape((-1,) + lead))

    @staticmethod
    def _log_sum_exp(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log sum_j e^{l_j}, posterior p_j = e^{l_j} / sum_i e^{l_i}) of
        finite component logs laid out components-major, (J, ...).

        The max-shifted log-sum-exp and softmax (Blanchard, Higham & Higham,
        IMA J. Numer. Anal. 41, 2021) with scipy's arithmetic: the m tied
        maxima are left out of the sum s, the result is
        log1p(s/m) + log(m) + max, and every sum runs over j in index order.
        That is numpy's order for a last-axis sum of fewer than 8 terms, so
        with J < 8 both results equal scipy's ``logsumexp`` and ``softmax``
        bit for bit; from 8 components on, numpy sums pairwise and the last
        bit may differ.  The posterior comes back components-last, (..., J)
        and C-contiguous, the layout the gradient contractions read.
        """
        top = logs[0]
        for row in logs[1:]:
            top = np.maximum(top, row)
        shifted = np.exp(logs - top)
        is_top = logs == top
        rest = np.where(is_top, 0.0, shifted)
        s, total = rest[0], shifted[0]
        for j in range(1, len(logs)):
            s = s + rest[j]
            total = total + shifted[j]
        m = is_top.sum(0)
        post = np.empty(top.shape + (len(logs),))
        np.divide(shifted, total, out=np.moveaxis(post, -1, 0))
        return np.log1p(s / m) + np.log(m) + top, post

    # log w_j + log f_j(x), shape (J, ...), with
    # log f_j(x) = -(n/2) log s - |x - a_j|^2 / (2s) + |x|^2 / 2
    def _component_logs(self, x: np.ndarray) -> np.ndarray:
        s = self.spread
        means, log_weights = self._by_component(x)
        diff = x - means  # (J, ..., n)
        sq = (diff * diff).sum(-1)
        return (
            -0.5 * self.dim * np.log(s)
            - 0.5 * sq / s
            + 0.5 * (x * x).sum(-1)
            + log_weights
        )

    def log_f(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        return self._log_sum_exp(self._component_logs(x))[0]

    def grad_log_f(self, x) -> np.ndarray:
        x = _as_points(x, self.dim)
        p = self._log_sum_exp(self._component_logs(x))[1]
        abar = p @ self.means  # (..., n)
        return x - (x - abar) / self.spread

    def closed_ou(self, t: float) -> "MixtureDensity":
        # Q_t maps N(a, s) relative densities to N(a e^-t, s_t), s_t = 1 +
        # e^-2t (s-1)
        rho = np.exp(-t)
        s_t = 1.0 + rho**2 * (self.spread - 1.0)
        return MixtureDensity(self.weights, self.means * rho, s_t)

    def _heat_component_logs(self, s: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log w_j + log P_s f_j(x), shape (J, ...), and b_j = a_j / spread
        + x / s, shape (J, ..., n), which the gradient of component j reuses."""
        sp = self.spread
        means, log_weights = self._by_component(x)
        a_over = 1.0 / sp + 1.0 / s - 1.0
        b = means / sp + x / s
        per_coord = (
            -0.5 * np.log(sp * s * a_over)
            + 0.5 * (b * b) / a_over
            - 0.5 * (means * means) / sp
            - 0.5 * (x * x) / s
        )
        return per_coord.sum(-1) + log_weights, b

    def closed_heat_at(self, x) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
        points = _as_points(x, self.dim)

        def at(s: float, cells=...) -> tuple[np.ndarray, np.ndarray]:
            x = points[cells]
            # The outputs come first: drift tables keep them for the whole
            # run, and allocated after the temporaries below they would pin
            # one freed temporary each in the heap.
            k, v = np.empty(x.shape[:-1]), np.empty(x.shape)
            logs, b = self._heat_component_logs(s, x)
            lse, p = self._log_sum_exp(logs)
            k[...] = lse
            a_over = 1.0 / self.spread + 1.0 / s - 1.0
            # einsum on components-last operands, as the posterior comes:
            # with n = 1 and J >= 3 its summation order depends on the layout
            comp_grad = np.ascontiguousarray(np.moveaxis((b / a_over - x) / s, 0, -2))
            np.einsum("...j,...jn->...n", p, comp_grad, out=v)
            return k, v

        return at


class SinePerturbationDensity(DensityModel):
    """Bounded perturbation f(x) = exp(eps * sin(k x)) / Z on the line.

    The convexity certificate is exact: the second derivative of the
    exponent is -eps k^2 sin(k x), so beta = eps * k^2.

    With theta = k x, the Jacobi-Anger expansion (Abramowitz & Stegun
    9.6.34) writes e^{eps sin theta} as I_0(eps) + 2 sum_{j>=1} I_j(eps)
    cos(j theta - j pi/2), and the heat semigroup P_s multiplies frequency j
    by exp(-s j^2 k^2 / 2).  Z is that series at s = 1 and x = 0, where
    only even j survive.  The drift series keeps j = 0..J, J the first
    frequency with 2 I_J / I_0 below machine epsilon (J = 11 at eps = 0.3).
    Its sums lose up to (J + 1) * eps_mach * e^{2 eps} relative precision to
    cancellation (e^{eps sin theta} can be e^{-2 eps} times the largest
    term), so an eps for which that bound exceeds ``SERIES_TOL`` is
    rejected: eps above about 4.88.  The Z series has fewer terms, each
    bounded by the drift series' at s = 0, and a sum of at least
    e^{-2 eps} times theirs, so it keeps ``SERIES_TOL`` too.  A heat
    transform that stays accurate at every eps is ROADMAP item 5.

    The OU image is the smoothed member x -> P_{s0} f(rho x) (f has rho = 1,
    s0 = 0): by Mehler's formula Q_t takes it to rho e^{-t} and
    s0 + rho^2 (1 - e^{-2t}), and P_s to P_{s0 + rho^2 s} f(rho x).  Its beta
    is beta_t = e^{-2t} beta / (1 + (1 - e^{-2t}) beta), the Cramer-Rao bound
    on the heat posterior, which a Gaussian mixture's image attains.
    """

    name = "sine"
    dim = 1
    _rho, _s0 = 1.0, 0.0

    def __init__(self, eps: float, wave):
        if eps < 0:
            raise ValueError("perturbation size eps must be >= 0")
        self.eps = float(eps)
        self.wave = wave = np.asarray(wave, dtype=float).reshape(1)
        with np.errstate(over="ignore"):  # an infinite beta is rejected below
            self._k2 = float(wave @ wave)
            self.beta = self.eps * self._k2
        if not np.isfinite(self.beta):
            raise ValueError(f"beta = eps * wave^2 is not finite ({self.beta})")
        # the drift series; an eps past the first test has NaN weights far out
        weights = None
        if 2.0 * self.eps <= np.log(SERIES_TOL / _EPS_MACH):
            weights = _jacobi_anger_weights(self.eps, self._k2, 0.0)
        if weights is None or len(weights) * _EPS_MACH * np.exp(2.0 * self.eps) > SERIES_TOL:
            raise ValueError(f"eps = {self.eps:g} is too large: the heat series loses more "
                             f"than SERIES_TOL = {SERIES_TOL:g} to cancellation")
        self._weights = weights
        if self._k2:
            # log Z = log I_0 + log1p(sum over even j >= 2 of w_j cos(j pi/2) e^{-j^2 k^2 / 2})
            terms = _jacobi_anger_weights(self.eps, self._k2, 1.0)[::2]
            terms[1::2] *= -1.0
            self._log_z_over_i0 = float(np.log1p(terms[1:].sum()))
            self.log_z = self.eps + float(np.log(ive(0, self.eps))) + self._log_z_over_i0
        else:  # the constant density 1: its series is the j = 0 term, 1, so log Z, K and v are 0
            self._weights, self._log_z_over_i0, self.log_z = weights[:1], 0.0, 0.0
        self._j = j = np.arange(len(self._weights))
        self._decay = -0.5 * self._k2 * j * j

    def _theta(self, x) -> np.ndarray:
        return _as_points(x, 1)[..., 0] * self._rho * self.wave[0] + 0.0  # k rho x, -0 as +0

    def _weights_at(self, s: float) -> np.ndarray:
        """The series weights c_j of P_{s0 + rho^2 s}: sum_j c_j cos(phase_j)
        is P_{s0 + rho^2 s} e^{eps sin}(rho x) / I_0, positive."""
        return self._weights * np.exp((self._s0 + self._rho**2 * s) * self._decay)

    def log_f(self, x) -> np.ndarray:
        """log f(x); on an image, the cosine sum of ``closed_heat_at(x)(0)``
        alone, added from 0 in order of j as einsum adds it, so with the
        same bits, over the terms that can move it.

        The weights c_j of j >= 1 decrease in j and c_0 cos(0) = 1, so when
        sum_{j>=1} c_j < 1/2 every partial sum lies in [0.5, 1.5], where half
        an ulp is at least 2^-54: a term with c_j < 2^-56 rounds away and
        the sum stops before it.  Otherwise every term is added.
        """
        theta = self._theta(x)
        if not self._s0:
            return self.eps * np.sin(theta) - self.log_z
        c = self._weights_at(0.0)
        if c[1:].sum() < 0.5:
            c = c[: np.flatnonzero(c >= _ROUNDS_AWAY)[-1] + 1]
        phase = np.multiply.outer(self._j[: c.size], theta.ravel() - 0.5 * np.pi)
        a = sum(map(np.multiply, c, np.cos(phase)))
        return (np.log(a) - self._log_z_over_i0).reshape(theta.shape)

    def grad_log_f(self, x) -> np.ndarray:
        if not self._s0:
            return self.eps * np.cos(self._theta(x))[..., None] * self.wave
        return self.closed_heat_at(x)(0.0)[1]

    def closed_ou(self, t: float) -> "SinePerturbationDensity":
        image, s = copy.copy(self), -np.expm1(-2.0 * t)  # s = 1 - e^{-2t}
        image._rho, image._s0 = self._rho * np.exp(-t), self._s0 + self._rho**2 * s
        image.beta = np.exp(-2.0 * t) * self.beta / (1.0 + s * self.beta)
        return image

    def closed_heat_at(self, x) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
        """The cosines cos(j theta - j pi/2) and the derivatives
        -j sin(j theta - j pi/2) at x, computed once; each bandwidth s is
        then one weighted sum over j of each, over the cells asked for."""
        theta = self._theta(x)
        phase = np.multiply.outer(self._j, theta.ravel() - 0.5 * np.pi)
        trig = np.stack([np.cos(phase), -self._j[:, None] * np.sin(phase)], 1)
        trig = trig.reshape(trig.shape[:2] + theta.shape)  # (J + 1, 2, *points)

        def at(s: float, cells=...) -> tuple[np.ndarray, np.ndarray]:
            part = trig[:, :, cells]
            shape = part.shape[2:]
            # einsum adds each point's terms in order of j, so a point's
            # bits do not depend on how many points the call holds, as a
            # BLAS gemv's do; the pair axis keeps one point off einsum's
            # dot kernel, which sums in another order
            sums = np.einsum("j,jkp->kp", self._weights_at(s), part.reshape(part.shape[:2] + (-1,)))
            k = np.log(sums[0]) - self._log_z_over_i0
            v = sums[1] / sums[0] * self.wave[0] * self._rho
            return k.reshape(shape), v.reshape(shape + (1,))

        return at


def _jacobi_anger_weights(eps: float, k2: float, s: float) -> np.ndarray:
    """w_j = (2 - [j = 0]) I_j(eps) / I_0(eps) e^{-s j^2 k2 / 2} for j = 0..J,
    J the first j >= 1 with w_j below machine epsilon (the weights decrease
    in j; J = 25 at the largest eps the sine family accepts)."""
    j = np.arange(MAX_SERIES_TERMS)
    w = 2.0 * ive(j, eps) / ive(0, eps) * np.exp(-0.5 * s * k2 * j * j)
    w[0] = 1.0
    return w[: np.flatnonzero(w[1:] < _EPS_MACH)[0] + 2]


class Family(NamedTuple):
    """A density family: its constructor, the keyword parameters of its
    default member and the name of its ridge vector ("" if none).  Vector
    parameters are tuples; ``means`` is a tuple of points."""

    build: Callable[..., DensityModel]
    defaults: dict
    ridge: str


FAMILIES: dict[str, Family] = {
    "tilt": Family(TiltDensity, {"u": (2.0,)}, "u"),
    "mixture": Family(
        MixtureDensity, {"weights": (0.5, 0.5), "means": ((-1.0,), (1.0,)), "spread": 0.5}, ""
    ),
    "sine": Family(SinePerturbationDensity, {"eps": 0.3, "wave": (2.0,)}, "wave"),
}


def validate_normalization(density: DensityModel, rule: QuadratureRule) -> float:
    """|integral of f d(gamma_n) - 1| by quadrature.

    Raises on a dimension mismatch; the caller compares the residual
    against its own tolerance.
    """
    if rule.dim != density.dim:
        raise DimensionMismatchError(
            f"rule dim {rule.dim} != density dim {density.dim}"
        )
    logs = density.log_f(rule.nodes)
    return float(abs(np.exp(logsumexp(rule.log_weights + logs)) - 1.0))


def beta_probe(density: DensityModel, points) -> float:
    """Worst finite-difference convexity margin over the probe points.

    Returns min over points of lambda_min(Hessian log f) + beta, from one
    ``fd_hessian`` over all points; a value >= -O(FD_HESS_STEP^2) certifies
    the declared beta on the probe set.  Negative margins flag an
    understated certificate.
    """
    points = _as_points(points, density.dim).reshape(-1, density.dim)
    if not np.isfinite(points).all():
        raise NonFiniteValueError("probe points must be finite")
    hess = fd_hessian(density.log_f, points)
    return float((np.linalg.eigvalsh(hess)[:, 0] + density.beta).min())
