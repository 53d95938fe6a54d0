import numpy as np
import pytest
from scipy.special import logsumexp
from hypothesis import given, settings
from hypothesis import strategies as st

from outail import (
    MixtureDensity,
    QuadratureRule,
    SinePerturbationDensity,
    TiltDensity,
    beta_probe,
    constant_density,
    validate_normalization,
)
from outail.errors import ClosedFormUnavailableError, DimensionMismatchError, NonFiniteValueError
from outail.measures import SERIES_TOL
from outail.numeric import FD_STEP, fd_gradient

RULE64 = QuadratureRule.gauss_hermite(1, 64)


def probe_grid(lo=-3.0, hi=3.0, step=0.25):
    return np.arange(lo, hi + 1e-9, step)


class TestNormalization:
    def test_tilt_exact(self):
        assert validate_normalization(TiltDensity([1.0]), RULE64) < 1e-12

    def test_constant_density_weight_sum(self):
        # f = 1: residual reduces to the weight-sum error
        assert validate_normalization(constant_density(1), RULE64) < 1e-14

    def test_mixture(self):
        # every component is a Gaussian relative density of mass exactly 1
        mix = MixtureDensity([0.5, 0.5], [-1.0, 1.0], 0.5)
        assert validate_normalization(mix, RULE64) < 1e-10

    def test_sine(self):
        sine = SinePerturbationDensity(0.3, [2.0])
        assert validate_normalization(sine, RULE64) < 1e-10

    def test_2d(self):
        rule = QuadratureRule.gauss_hermite(2, 32)
        mix = MixtureDensity([0.3, 0.7], [[-1.0, 0.5], [1.0, -0.5]], 0.4)
        assert validate_normalization(mix, rule) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            validate_normalization(TiltDensity([1.0, 0.0]), RULE64)


class TestBetaProbe:
    def test_tilt_flat(self):
        # linear log-density: zero Hessian everywhere
        assert abs(beta_probe(TiltDensity([2.0]), probe_grid())) < 1e-8

    def test_mixture_certificate_holds(self):
        mix = MixtureDensity([0.5, 0.5], [-1.0, 1.0], 0.5)
        assert beta_probe(mix, probe_grid()) >= -1e-6

    def test_sine_certificate_holds(self):
        sine = SinePerturbationDensity(0.3, [2.0])
        assert beta_probe(sine, probe_grid(-4, 4, 0.1)) >= -1e-6

    def test_understated_beta_is_flagged(self):
        # single Gaussian component with spread 1/2 has constant log-Hessian
        # -id; claiming beta = 0 must produce a margin close to -1
        dishonest = MixtureDensity([1.0], [0.0], 0.5, beta=0.0)
        margin = beta_probe(dishonest, probe_grid())
        assert margin == pytest.approx(-1.0, abs=1e-5)

    def test_mixture_ou_image_has_exact_certificate(self, monkeypatch):
        # the image's beta is 1/s_t - 1, so no tail at t > 0 probes a Hessian
        from outail.verify import HESSIAN_PROBES, tail_probability

        mix = MixtureDensity([0.5, 0.5], [-1.0, 1.0], 0.5)
        probes = []
        monkeypatch.setattr(MixtureDensity, "_probe_beta", lambda self: probes.append(self) or 0.0)
        for t in (0.02, 0.1, 0.5, 1.0, 3.0):
            for r in (1.1, 1.5, np.e):
                tail_probability(mix, t, r)
            image = mix.closed_ou(t)
            s_t = 1.0 + np.exp(-2.0 * t) * (mix.spread - 1.0)
            assert image.beta == pytest.approx(1.0 / s_t - 1.0, rel=1e-15)
            assert beta_probe(image, HESSIAN_PROBES) >= -1e-6
        assert probes == []

    def test_nonfinite_probe_rejected(self):
        with pytest.raises(NonFiniteValueError):
            beta_probe(TiltDensity([1.0]), [np.inf])


class TestGradients:
    @pytest.mark.parametrize("name", ["tilt", "mixture", "sine"])
    def test_grad_matches_finite_differences(self, name, rng):
        density = {
            "tilt": TiltDensity([1.3]),
            "mixture": MixtureDensity([0.4, 0.6], [-1.0, 1.5], 0.45),
            "sine": SinePerturbationDensity(0.4, [1.7]),
        }[name]
        x = rng.normal(size=(100, 1)) * 2.0
        grad = density.grad_log_f(x)
        fd = fd_gradient(density.log_f, x, h=FD_STEP)
        np.testing.assert_allclose(grad, fd, atol=5e-9, rtol=1e-7)

    def test_grad_2d(self, rng):
        mix = MixtureDensity([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.5]], 0.5)
        x = rng.normal(size=(50, 2))
        np.testing.assert_allclose(
            mix.grad_log_f(x), fd_gradient(mix.log_f, x), atol=1e-8, rtol=1e-6
        )

    def test_mixture_hessian_analytic_vs_fd(self, rng):
        from outail.numeric import fd_hessian

        mix = MixtureDensity([0.5, 0.5], [-1.0, 1.0], 0.5)
        for x in rng.normal(size=(20, 1)) * 2:
            np.testing.assert_allclose(
                mix.hessian_log_f(x), fd_hessian(mix.log_f, x), atol=1e-6
            )


class TestTiltClosedForms:
    @given(
        alpha=st.floats(0.1, 3.0),
        x=st.floats(-4.0, 4.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_log_density_formula(self, alpha, x):
        tilt = TiltDensity([alpha])
        expected = alpha * x - alpha**2 / 2.0
        assert float(tilt.log_f(np.array([x]))) == pytest.approx(expected, rel=1e-12)

    def test_zero_tilt_is_constant_one(self):
        d = constant_density(1)
        xs = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(d.log_f(xs), 0.0, atol=0.0)
        assert d.closed_tail(2.0) == 0.0

    def test_ou_image_shrinks_tilt(self):
        tilt = TiltDensity([2.0])
        img = tilt.closed_ou(0.7)
        assert img.alpha == pytest.approx(2.0 * np.exp(-0.7), rel=1e-15)

    def test_beta_zero(self):
        assert TiltDensity([3.0]).beta == 0.0


class TestMixtureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureDensity([0.5, 0.6], [-1.0, 1.0], 0.5)

    def test_spread_bounds(self):
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                MixtureDensity([1.0], [0.0], bad)

    def test_probed_beta_bounded_by_asymptote(self):
        # the defect approaches 1/s - 1 from below, so the inflated probe
        # value must land within 10% above it
        mix = MixtureDensity([0.5, 0.5], [-1.0, 1.0], 0.5)
        assert 0.9 <= mix.beta <= 1.1 * (1.0 / 0.5 - 1.0) + 1e-12

    def test_strict_positivity(self, rng):
        mix = MixtureDensity([0.2, 0.8], [-2.0, 1.0], 0.3)
        assert np.isfinite(mix.log_f(rng.normal(size=(200, 1)) * 3)).all()


class TestSineFamily:
    def test_beta_is_exact(self):
        assert SinePerturbationDensity(0.5, [2.0]).beta == pytest.approx(2.0)
        assert SinePerturbationDensity(0.25, [1.0, 2.0]).beta == pytest.approx(1.25)

    @pytest.mark.parametrize("eps, wave", [(0.3, [2.0]), (0.3, [1.0, 0.7]), (2.0, [0.5]), (8.0, [0.5])])
    def test_series_log_z_matches_quadrature(self, eps, wave):
        # Z = E[exp(eps sin(|k| G))] with G a standard 1-D Gaussian
        sine = SinePerturbationDensity(eps, wave)
        rule = QuadratureRule.gauss_hermite(1, 150)
        quad = logsumexp(rule.log_weights + eps * np.sin(np.linalg.norm(wave) * rule.nodes[:, 0]))
        assert sine.log_z == pytest.approx(quad, abs=1e-13)

    def test_series_length_follows_eps(self):
        # 2 I_11(0.3) / I_0(0.3) is the first weight below machine epsilon
        assert len(SinePerturbationDensity(0.3, [2.0])._weights) == 12
        assert len(SinePerturbationDensity(2.0, [2.0])._weights) > 12

    def test_closed_heat_stops_at_the_cancellation_cutoff(self):
        # (J + 1) eps_mach e^{2 eps} crosses SERIES_TOL between eps = 4.8 and 4.9
        below, above = SinePerturbationDensity(4.8, [2.0]), SinePerturbationDensity(4.9, [2.0])
        assert below.has_closed_heat and not above.has_closed_heat
        assert len(below._weights) * np.finfo(float).eps * np.exp(9.6) <= SERIES_TOL
        with pytest.raises(ClosedFormUnavailableError):
            above.closed_heat_log_grad(0.5, np.zeros(1))

    @pytest.mark.parametrize("eps, wave", [(0.3, [1e308]), (1e10, [2.0]), (20.0, [0.1])],
                             ids=["beta_inf", "bessel_nan", "z_cancels"])
    def test_unrepresentable_parameters_rejected(self, eps, wave):
        with pytest.raises(ValueError):
            SinePerturbationDensity(eps, wave)

    def test_eps_zero_is_constant(self):
        flat = SinePerturbationDensity(0.0, [2.0])
        assert abs(flat.log_z) < 1e-14
        np.testing.assert_allclose(flat.log_f(np.linspace(-3, 3, 7)), 0.0, atol=1e-14)
