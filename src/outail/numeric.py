"""Shared numerics: central finite differences and log-space Gaussian tails."""

from __future__ import annotations

import numpy as np
from scipy.special import erfcx, ndtr

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


def fd_hessian(fn, x: np.ndarray, h: float = FD_HESS_STEP) -> np.ndarray:
    """Central-difference Hessian, symmetrized.

    Uses the standard 3-point diagonal and 4-point cross stencils with a
    per-coordinate step h*max(1, |x_i|).  ``fn`` is called once on the full
    stencil batch.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("fd_hessian expects a single point of shape (dim,)")
    n = x.shape[0]
    hs = _steps(x, h)
    pts = [x]
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = hs[i]
        pts.append(x + ei)
        pts.append(x - ei)
    cross = []
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = hs[i]
            ej[j] = hs[j]
            pts.extend([x + ei + ej, x + ei - ej, x - ei + ej, x - ei - ej])
            cross.append((i, j))
    vals = np.asarray(fn(np.stack(pts)))
    f0 = vals[0]
    hess = np.empty((n, n))
    for i in range(n):
        fp, fm = vals[1 + 2 * i], vals[2 + 2 * i]
        hess[i, i] = (fp - 2.0 * f0 + fm) / hs[i] ** 2
    base = 1 + 2 * n
    for k, (i, j) in enumerate(cross):
        fpp, fpm, fmp, fmm = vals[base + 4 * k: base + 4 * k + 4]
        hij = (fpp - fpm - fmp + fmm) / (4.0 * hs[i] * hs[j])
        hess[i, j] = hess[j, i] = hij
    return 0.5 * (hess + hess.T)


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


def gauss_interval_mass(a: float, b: float) -> float:
    """P(a < G <= b), computed on the better-conditioned side of the mode."""
    if b <= a:
        return 0.0
    if a >= 0.0:
        return float(ndtr(-a) - ndtr(-b))
    return float(ndtr(b) - ndtr(a))
