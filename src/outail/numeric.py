"""Shared numerics: central finite differences and log-space Gaussian tails."""

from __future__ import annotations

import numpy as np
from scipy.special import erfcx, ndtr

from .errors import NonFiniteValueError

# Default relative step for first-derivative checks: cbrt(machine epsilon).
FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)
# Second-derivative stencils use a larger step, balancing truncation against
# roundoff amplified by 1/h^2.
FD_HESS_STEP = 1e-4

_LOG_HALF = float(np.log(0.5))
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _steps(x: np.ndarray, h: float) -> np.ndarray:
    return h * np.maximum(1.0, np.abs(x))


def fd_gradient(fn, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Second-order central-difference gradient of a scalar field.

    ``fn`` must accept a stacked array of points with shape (..., dim) and
    return values of shape (...,); all stencil points are evaluated in one
    call.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    hs = _steps(x, h)
    eye = np.eye(n)
    pts = np.concatenate(
        [x[..., None, :] + hs[..., None, :] * eye, x[..., None, :] - hs[..., None, :] * eye],
        axis=-2,
    )  # (..., 2n, n)
    vals = fn(pts)
    return (vals[..., :n] - vals[..., n:]) / (2.0 * hs)


def fd_hessian(fn, x: np.ndarray) -> np.ndarray:
    """Central-difference Hessians, symmetrized, at points of shape (..., n);
    the result has shape (..., n, n).

    Uses the standard 3-point diagonal and 4-point cross stencils with a
    per-coordinate step FD_HESS_STEP*max(1, |x_i|).  ``fn`` is called once,
    on the stencils of all points, shape (..., 1 + 2n^2, n); each point
    keeps the stencil and quotients of a one-point call, so the stack equals
    the one-point Hessians bit for bit when ``fn`` is pointwise.  Raises
    NonFiniteValueError when a Hessian is not finite.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    hs = _steps(x, FD_HESS_STEP)
    vals = np.asarray(fn(x[..., None, :] + _hessian_stencil(n) * hs[..., None, :]))
    f0, base = vals[..., :1], 1 + 2 * n
    hess = np.empty(x.shape + (n,))
    diag = (vals[..., 1:base:2] - 2.0 * f0 + vals[..., 2:base:2]) / hs**2
    hess[..., np.arange(n), np.arange(n)] = diag
    i, j = np.triu_indices(n, 1)
    fpp, fpm, fmp, fmm = (vals[..., base + q::4] for q in range(4))
    hess[..., i, j] = hess[..., j, i] = (fpp - fpm - fmp + fmm) / (4.0 * hs[..., i] * hs[..., j])
    hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
    if not np.isfinite(hess).all():
        raise NonFiniteValueError("finite-difference Hessian non-finite")
    return hess


def _hessian_stencil(n: int) -> np.ndarray:
    """Step multipliers in {-1, 0, 1}, shape (1 + 2n^2, n): the point, then
    +e_i and -e_i for each i, then e_i + e_j, e_i - e_j, -e_i + e_j,
    -e_i - e_j for each pair i < j in row-major order."""
    eye = np.eye(n)
    i, j = np.triu_indices(n, 1)
    cross = [eye[i] + eye[j], eye[i] - eye[j], -eye[i] + eye[j], -eye[i] - eye[j]]
    return np.concatenate([np.zeros((1, n)), np.stack([eye, -eye], 1).reshape(-1, n),
                           np.stack(cross, 1).reshape(-1, n)])


def log_gauss_tail(z) -> np.ndarray:
    """log P(G > z) for a standard Gaussian, stable arbitrarily far right.

    Right tail via the scaled complementary error function:
    P(G > z) = 0.5 * erfcx(z/sqrt(2)) * exp(-z^2/2).  NaN maps to NaN.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.full_like(z, np.nan)
    right = z >= 0
    zr = z[right]
    out[right] = _LOG_HALF + np.log(erfcx(zr * _INV_SQRT2)) - 0.5 * zr * zr
    left = z < 0
    if left.any():
        out[left] = np.log1p(-np.exp(log_gauss_tail(-z[left])))
    return float(out[0]) if scalar else out


def gauss_interval_mass(a, b) -> np.ndarray:
    """P(a < G <= b) elementwise, each computed on the better-conditioned
    side of the mode; 0 where b <= a."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    mass = np.where(a >= 0.0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))
    return np.where(b <= a, 0.0, mass)
