"""Tensorized Gauss-Hermite rules for integration against the standard
Gaussian measure.

The 1-D rule uses the probabilists' weight exp(-x^2/2)/sqrt(2*pi), so the
weights form a probability vector and a rule with m nodes per axis
integrates polynomials of degree <= 2m-1 exactly in each coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError

MAX_QUADRATURE_DIM = 3


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and probability weights for integration against gamma_n, as
    ``gauss_hermite`` builds them."""

    dim: int
    nodes: np.ndarray        # (M, dim)
    weights: np.ndarray      # (M,), positive, sums to 1
    log_weights: np.ndarray = field(repr=False)

    @classmethod
    def gauss_hermite(cls, dim: int, n_nodes: int) -> "QuadratureRule":
        """Tensor product of 1-D probabilists' Gauss-Hermite rules.

        Parameters
        ----------
        dim : int
            Ambient dimension, 1 <= dim <= 3 (node count grows as n_nodes**dim).
        n_nodes : int
            Nodes per axis.
        """
        if not 1 <= dim <= MAX_QUADRATURE_DIM:
            raise DimensionMismatchError(
                f"tensorized quadrature supports 1 <= dim <= {MAX_QUADRATURE_DIM}, got {dim}"
            )
        x, w = np.polynomial.hermite_e.hermegauss(n_nodes)
        w = w / np.sqrt(2.0 * np.pi)
        grids = np.meshgrid(*([x] * dim), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1)
        wgrids = np.meshgrid(*([w] * dim), indexing="ij")
        weights = reduce(np.multiply, [g.ravel() for g in wgrids])
        return cls(dim, nodes, weights, np.log(weights))

    @property
    def n_nodes(self) -> int:
        return len(self.weights)
