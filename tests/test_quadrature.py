import numpy as np
import pytest
from scipy.special import factorial2

from outail.errors import DimensionMismatchError
from outail.quadrature import QuadratureRule


def gaussian_moment(k):
    # E[G^k] = (k-1)!! for even k, 0 for odd
    if k % 2 == 1:
        return 0.0
    return 1.0 if k == 0 else float(factorial2(k - 1))


class TestGaussHermite:
    def test_weights_are_probability(self):
        for dim in (1, 2, 3):
            rule = QuadratureRule.gauss_hermite(dim, 8)
            assert abs(rule.weights.sum() - 1.0) < 1e-14
            assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_polynomial_exactness(self, m):
        rule = QuadratureRule.gauss_hermite(1, m)
        x = rule.nodes[:, 0]
        for k in range(2 * m):
            got = float(rule.weights @ x**k)
            # roundoff scales with the largest moment the sum touches
            scale = max(1.0, gaussian_moment(k), gaussian_moment(k + 1))
            assert got == pytest.approx(gaussian_moment(k), abs=1e-10 * scale)

    def test_tensor_cross_moments(self):
        rule = QuadratureRule.gauss_hermite(2, 6)
        x, y = rule.nodes[:, 0], rule.nodes[:, 1]
        assert float(rule.weights @ (x**2 * y**2)) == pytest.approx(1.0, abs=1e-12)
        assert float(rule.weights @ (x**4 * y**2)) == pytest.approx(3.0, abs=1e-12)
        assert float(rule.weights @ (x * y**3)) == pytest.approx(0.0, abs=1e-12)

    def test_node_counts(self):
        assert QuadratureRule.gauss_hermite(3, 5).n_nodes == 125

    def test_dim_bounds(self):
        with pytest.raises(DimensionMismatchError):
            QuadratureRule.gauss_hermite(4, 8)
        with pytest.raises(DimensionMismatchError):
            QuadratureRule.gauss_hermite(0, 8)
