from types import SimpleNamespace

import numpy as np
import pytest

from outail import semigroup
from outail.foellmer import DriftField, PathConfig, simulate_batch
from outail.measures import MixtureDensity, SinePerturbationDensity, TiltDensity
from outail.numeric import fd_gradient, fd_hessian
from outail.quadrature import QuadratureRule
from outail.rng import gaussian_sample
from outail.semigroup import (
    default_rule,
    hypercontractivity_check,
    log_lp_norm,
    nelson_exponent,
    ou_image,
    ou_log,
)
from outail.stats import batch_means, superlevel_gamma_mass
from outail.verify import HESSIAN_PROBES, HESSIAN_TOL, hessian_floor_report, tail_probability

RULE = QuadratureRule.gauss_hermite(1, 64)
MIX = MixtureDensity([0.5, 0.5], [-1.0, 1.0], 0.5)
SINE = SinePerturbationDensity(0.3, [2.0])
CONSTANTS = (TiltDensity(np.zeros(1)), SinePerturbationDensity(0.0, [2.0]))


def ou_value(density, t, x):
    """Q_t f(x) by the default quadrature."""
    return float(np.exp(ou_log(density, t, np.array([x]))))


def ou_apply_mc(density, t, x, n_samples, seed):
    """Monte Carlo Q_t f(x) with its batch-means standard error: the
    Gaussian average sampled directly, the reference for ``ou_log``."""
    y = gaussian_sample(seed, n_samples, density.dim)
    rho = np.exp(-t)
    tau = np.sqrt(-np.expm1(-2.0 * t))
    return batch_means(np.exp(density.log_f(rho * x + tau * y)))


def closed_heat(density, s, x):
    """(log P_s f(x), grad log P_s f(x)) at one 1-D point by the closed form."""
    k, v = density.closed_heat_at(np.array([[x]]))(s)
    return float(k[0]), float(v[0, 0])


class TestOuApply:
    def test_constant_is_fixed_point(self):
        for t in (0.05, 0.5, 2.0):
            for x in (-1.0, 0.0, 2.5):
                assert ou_value(TiltDensity(np.zeros(1)), t, x) == pytest.approx(1.0, abs=1e-13)

    def test_tilt_half_life_value(self):
        # alpha e^-t = 1/2 at alpha = 1, t = log 2; value at 0 is e^{-1/8}
        assert ou_value(TiltDensity([1.0]), np.log(2.0), 0.0) == pytest.approx(
            np.exp(-0.125), rel=1e-10
        )

    def test_closed_matches_quadrature_on_grid(self):
        for alpha in (0.5, 1.5, 3.0):
            tilt = TiltDensity([alpha])
            for t in (0.1, 0.7, 2.0):
                for x in (-2.0, 0.3, 1.7):
                    closed = float(np.exp(tilt.closed_ou(t).log_f(np.array([x]))))
                    assert ou_value(tilt, t, x) == pytest.approx(closed, rel=1e-10)

    def test_mixture_quadrature_vs_monte_carlo(self):
        x = np.array([0.3])
        quad = ou_value(MIX, 0.5, 0.3)
        mc, se = ou_apply_mc(MIX, 0.5, x, n_samples=10**6, seed=3)
        assert abs(mc - quad) <= 3.0 * se

    def test_closed_form_unavailable(self):
        assert SINE.closed_tail is None and not ou_image(SINE, 0.5).has_closed_tail

    @pytest.mark.parametrize("density", [TiltDensity([2.0]), MIX, SINE], ids=["tilt", "mixture", "sine"])
    def test_time_zero_is_log_f(self, density, rng):
        x = rng.normal(size=(9, 1)) * 2.0
        assert np.array_equal(ou_log(density, 0.0, x), density.log_f(x))
        assert ou_image(density, 0.0) is density
        with pytest.raises(ValueError):
            ou_image(density, -0.1)

    def test_mc_deterministic(self):
        x = np.array([0.1])
        a = ou_apply_mc(MIX, 0.3, x, 10**4, seed=9)
        b = ou_apply_mc(MIX, 0.3, x, 10**4, seed=9)
        assert a == b


FAMILY_MEMBERS = [TiltDensity([2.0]), MIX, SINE]
FAMILY_IDS = ["tilt", "mixture", "sine"]


class TestOuImage:
    """``ou_image`` is the family's ``closed_ou``: a full density of the
    family, checked against the quadrature reference ``ou_log``."""

    @pytest.mark.parametrize("density", FAMILY_MEMBERS, ids=FAMILY_IDS)
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_image_matches_quadrature_and_its_gradient(self, density, t):
        image, x = ou_image(density, t), np.linspace(-4.0, 4.0, 33)[:, None]
        assert type(image) is type(density)
        np.testing.assert_allclose(image.log_f(x), ou_log(density, t, x), rtol=0, atol=1e-10)
        np.testing.assert_allclose(image.grad_log_f(x), fd_gradient(image.log_f, x),
                                   rtol=0, atol=1e-8)

    @pytest.mark.parametrize("density", FAMILY_MEMBERS, ids=FAMILY_IDS)
    @pytest.mark.parametrize("a, b", [(0.1, 0.4), (0.7, 1.3)])
    def test_images_compose(self, density, a, b):
        """Q_b Q_a f = Q_{a+b} f: log f, its gradient and beta."""
        twice, once = density.closed_ou(a).closed_ou(b), density.closed_ou(a + b)
        x = np.linspace(-5.0, 5.0, 41)[:, None]
        np.testing.assert_allclose(twice.log_f(x), once.log_f(x), rtol=0, atol=1e-13)
        np.testing.assert_allclose(twice.grad_log_f(x), once.grad_log_f(x), rtol=0, atol=1e-13)
        assert twice.beta == pytest.approx(once.beta, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("density", FAMILY_MEMBERS, ids=FAMILY_IDS)
    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_image_heat_form_matches_the_heat_kernel(self, density, t, heat_kernel):
        """P_s Q_t f by the image's ``closed_heat_at`` against Gauss-Hermite
        quadrature of the image's own log f."""
        image, x = ou_image(density, t), np.linspace(-3.0, 3.0, 13)[:, None]
        for s in (1.0, 0.3, 0.01):
            k, v = image.closed_heat_at(x)(s)
            k_q, v_q = heat_kernel(image, s, x, RULE)
            np.testing.assert_allclose(k, k_q, rtol=0, atol=1e-11)
            np.testing.assert_allclose(v, v_q, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("t", [0.02, 0.5, 3.0])
    def test_sine_image_log_f_is_mehler_bit_for_bit(self, t, rng):
        """The smoothed sine's log f is its heat form at s = 0, cosine sum
        alone, with the bits of Mehler's P_{1 - e^{-2t}} f(e^{-t} x) over
        f's heat form, at any batch size."""
        image, x = SINE.closed_ou(t), rng.normal(size=(40, 1)) * 4.0
        mehler = SINE.closed_heat_at(np.exp(-t) * x)(-np.expm1(-2.0 * t))[0]
        assert np.array_equal(image.closed_heat_at(x)(0.0)[0], mehler)
        for n in (1, 3, 40):
            parts = np.concatenate([image.log_f(x[i:i + n]) for i in range(0, len(x), n)])
            assert np.array_equal(parts, mehler)


class TestHeatApply:
    def test_tiny_bandwidth_recovers_f(self):
        for d in (MIX, SINE):
            for x in (-1.2, 0.4):
                val = np.exp(closed_heat(d, 1e-6, x)[0])
                assert val == pytest.approx(float(np.exp(d.log_f(np.array([x])))), abs=1e-4)

    def test_tilt_closed_formula(self, heat_kernel):
        alpha, s, x = 1.4, 0.6, 0.8
        tilt = TiltDensity([alpha])
        expected = np.exp(alpha * x - alpha**2 / 2 + alpha**2 * s / 2)
        quad = np.exp(heat_kernel(tilt, s, np.array([[x]]), RULE)[0][0])
        assert np.exp(closed_heat(tilt, s, x)[0]) == pytest.approx(expected, rel=1e-14)
        assert quad == pytest.approx(expected, rel=1e-10)

    def test_mass_conserved_for_constant(self, heat_kernel):
        for flat in CONSTANTS:
            assert np.exp(closed_heat(flat, 1.0, 3.0)[0]) == pytest.approx(1.0, abs=1e-13)
            k, _ = heat_kernel(flat, 1.0, np.array([[3.0]]), RULE)
            assert np.exp(k[0]) == pytest.approx(1.0, abs=1e-13)

    def test_heat_at_4d_mixture_is_closed_and_builds_no_rule(self, monkeypatch, rng):
        """A 4-D mixture's drift is its closed heat form, bit for bit, and
        neither the field nor a batch asks for a tensor rule, which exists
        only up to 3 dimensions."""
        def no_rule(*args, **kwargs):
            raise AssertionError("a quadrature rule was built for the drift")

        monkeypatch.setattr(QuadratureRule, "gauss_hermite", no_rule)
        mix4 = MixtureDensity([0.5, 0.5], [[1.0, 0, 0, 0], [-1.0, 0.5, 0, 0]], 0.5)
        x = rng.normal(size=(20, 4))
        field, closed_x = DriftField(mix4, 100), mix4.closed_heat_at(x)
        for i in (0, 70, 99):
            for got, want in zip(field.eval(i, x), closed_x(1.0 - i * field.dt)):
                assert np.array_equal(got, want)
        assert np.isfinite(simulate_batch(PathConfig(100, 3), 8, [(mix4, ())])[0].x1).all()


class TestHeatGradLog:
    def test_tilt_gradient_is_constant(self, heat_kernel):
        tilt = TiltDensity([1.7])
        x = np.array([[-2.0], [0.0], [1.3]])
        for s in (0.01, 0.5, 1.0):
            assert np.all(tilt.closed_heat_at(x)(s)[1] == 1.7)
            np.testing.assert_allclose(heat_kernel(tilt, s, x, RULE)[1], 1.7, rtol=1e-9)

    def test_constant_density_zero_gradient(self, heat_kernel):
        for flat in CONSTANTS:
            assert abs(closed_heat(flat, 0.5, 1.0)[1]) < 1e-12
            assert abs(heat_kernel(flat, 0.5, np.array([[1.0]]), RULE)[1][0, 0]) < 1e-12

    def test_matches_finite_differences_of_heat_log(self, rng):
        for density in (MIX, SINE, SinePerturbationDensity(0.3, [np.hypot(1.0, 0.7)])):
            x = rng.normal(size=(9, density.dim))
            for s in (1.0, 0.5, 0.05):
                grad = fd_gradient(lambda y: density.closed_heat_at(y)(s)[0], x)
                np.testing.assert_allclose(density.closed_heat_at(x)(s)[1], grad, atol=1e-6)

    def test_closed_form_bypasses_floor(self):
        g = MIX.closed_heat_at(np.array([0.4]))(1e-5)[1]
        expected = np.ravel(MIX.grad_log_f(np.array([0.4])))[0]
        assert np.ravel(g)[0] == pytest.approx(expected, abs=1e-4)


class TestSineHeatSeries:
    """The Jacobi-Anger series against a 150-node Gauss-Hermite heat kernel."""

    @pytest.mark.parametrize("wave", [[2.0], [1.0, 0.7]], ids=["1d", "2d"])
    @pytest.mark.parametrize("s", [1.0, 0.5, 0.1, 1e-3])
    def test_series_matches_high_node_quadrature(self, wave, s, rng, heat_kernel):
        """The heat kernel of the ridge f(x) = g(<wave, x>) in len(wave)
        dimensions is the 1-D profile's series at theta = <unit, x>, the
        gradient along the unit vector: the reduction ``cli.build_density``
        makes."""
        norm = np.linalg.norm(wave)
        unit, sine = np.array(wave) / norm, SinePerturbationDensity(0.3, [norm])
        ridge = SimpleNamespace(log_f=lambda y: sine.log_f(y @ unit))
        x = rng.normal(size=(30, len(wave))) * 2.0
        k, v = sine.closed_heat_at(x @ unit)(s)
        k_q, v_q = heat_kernel(ridge, s, x, QuadratureRule.gauss_hermite(len(wave), 150))
        assert np.abs(k - k_q).max() < 1e-13
        assert np.abs(v * unit - v_q).max() < 1e-13

    def test_zero_bandwidth_is_log_f(self, rng):
        x = rng.normal(size=(7, 1)) * 3.0
        k0, v0 = SINE.closed_heat_at(x)(0.0)
        np.testing.assert_allclose(k0, SINE.log_f(x), atol=1e-15)
        np.testing.assert_allclose(v0, SINE.grad_log_f(x), atol=1e-15)

    def test_mehler_tail_matches_quadrature(self):
        # the t and log r grid of the benchmark's analytic workload
        for t in (0.02, 0.1, 0.3, 0.6, 1.0):
            quad = lambda xs: ou_log(SINE, t, xs)
            for log_r in (0.01, 0.03, 0.08, 0.2, 0.45, 1.0, 4.0, 16.0):
                mehler, _ = tail_probability(SINE, t, np.exp(log_r))
                assert abs(mehler - superlevel_gamma_mass(quad, log_r)) < 1e-9


class TestLogHessianFloor:
    def test_constant_density_margin_is_floor(self):
        for t in (0.1, 0.5, 1.0):
            rep = hessian_floor_report(TiltDensity(np.zeros(1)), t)
            assert rep.estimate == pytest.approx(-0.5 / t, abs=1e-6 / t)

    def test_tilt_margin_is_floor(self):
        rep = hessian_floor_report(TiltDensity([2.0]), 0.5)
        assert rep.estimate == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("density", [MIX, SINE], ids=["mixture", "sine"])
    @pytest.mark.parametrize("t", [0.05, 0.1, 0.5, 1.0])
    def test_smoothed_families_respect_floor(self, density, t):
        # the image's beta_t, far sharper than 1/(2t), bounds Hess log Q_t f
        beta_t = ou_image(density, t).beta
        assert beta_t < 0.5 / t
        assert -hessian_floor_report(density, t).estimate - 0.5 / t >= -beta_t - 1e-5

    def test_t_positive_required(self):
        with pytest.raises(ValueError):
            hessian_floor_report(MIX, 0.0)


class TestNelsonExponent:
    def test_doubling_time(self):
        assert nelson_exponent(2.0, np.log(2.0)) == pytest.approx(5.0, rel=1e-14)

    def test_zero_time_limit(self):
        assert nelson_exponent(2.0, 1e-12) == pytest.approx(2.0, abs=1e-10)

    def test_direct_value(self):
        assert nelson_exponent(1.5, 1.0) == pytest.approx(1.0 + np.exp(2.0) * 0.5, rel=1e-14)

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError):
            nelson_exponent(1.0, 0.5)


class TestHypercontractivity:
    def test_constant_density_both_norms_one(self):
        rep = hypercontractivity_check(TiltDensity(np.zeros(1)), 2.0, 0.5)
        assert rep.estimate == pytest.approx(1.0, abs=1e-12)
        assert rep.bound == pytest.approx(1.0, abs=1e-12)
        assert rep.passed

    def test_tilt_is_the_equality_case(self):
        # ||f_a||_p = e^{a^2 (p-1)/2} and the critical exponent exactly
        # compensates the OU shrinkage of the tilt
        alpha, p, t = 1.0, 2.0, 0.5
        tilt = TiltDensity([alpha])
        rep = hypercontractivity_check(tilt, p, t)
        expected = np.exp(alpha**2 * (p - 1) / 2)
        assert rep.bound == pytest.approx(expected, rel=1e-10)
        assert rep.estimate == pytest.approx(expected, rel=1e-8)
        assert rep.passed

    def test_mixture_contracts_strictly(self):
        rep = hypercontractivity_check(MIX, 2.0, 0.3)
        assert rep.passed and rep.margin > 0

    def test_lp_norm_closed_form(self):
        tilt = TiltDensity([1.2])
        for p in (1.5, 2.0, 4.0):
            got = log_lp_norm(tilt.log_f, p, RULE)
            assert got == pytest.approx(1.2**2 * (p - 1) / 2, rel=1e-9)


class TestClosedFormChecks:
    @pytest.mark.parametrize("density", [TiltDensity([2.0]), MIX, SINE],
                             ids=["tilt", "mixture", "sine"])
    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_checks_skip_quadrature_and_agree_with_it(self, density, t, monkeypatch):
        # reference: both checks on log Q_t f from ou_log quadrature
        quad = lambda xs: ou_log(density, t, xs)
        worst = min(float(np.linalg.eigvalsh(fd_hessian(quad, x))[0]) + 0.5 / t
                    for x in np.tile(HESSIAN_PROBES[:, None], density.dim))
        norm = np.exp(log_lp_norm(quad, nelson_exponent(2.0, t), default_rule(density.dim)))

        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature called for a family with closed forms")

        monkeypatch.setattr(semigroup, "ou_log", no_quadrature)
        floor = hessian_floor_report(density, t)
        hyper = hypercontractivity_check(density, 2.0, t)
        assert floor.margin == pytest.approx(HESSIAN_TOL + worst, abs=1e-6)
        assert hyper.estimate == pytest.approx(norm, rel=1e-9)


class TestSemigroupAlgebra:
    def test_flow_property_tilt(self):
        # Q_{t+s} f = Q_t (Q_s f): inner image closed, outer by quadrature
        tilt = TiltDensity([2.0])
        t, s = 0.4, 0.9
        inner = tilt.closed_ou(s)
        for x in (-1.0, 0.2, 2.0):
            lhs = float(ou_log(tilt, t + s, np.array([x])))
            rhs = float(ou_log(inner, t, np.array([x])))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("density", [TiltDensity([1.0]), MIX, SINE],
                             ids=["tilt", "mixture", "sine"])
    @pytest.mark.parametrize("t", [0.1, 1.0, 3.0])
    def test_mass_conservation(self, density, t):
        vals = np.exp(ou_log(density, t, RULE.nodes))
        assert float(RULE.weights @ vals) == pytest.approx(1.0, abs=1e-9)

    def test_markov_baseline_tilt_tails(self):
        for alpha in (0.8, 2.0, 4.0):
            tilt = TiltDensity([alpha])
            for t in (0.0, 0.5):
                for r in (1.5, np.e, np.e**2, np.e**4):
                    assert ou_image(tilt, t).closed_tail(r) <= 1.0 / r + 1e-15
