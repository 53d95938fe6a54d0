import numpy as np
import pytest
from scipy.special import logsumexp, softmax
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from outail.errors import DimensionMismatchError, NonFiniteValueError
from outail.foellmer import DriftField
from outail.measures import (
    FAMILIES,
    SERIES_TOL,
    DensityModel,
    MixtureDensity,
    SinePerturbationDensity,
    TiltDensity,
    beta_probe,
    validate_normalization,
)
from outail.numeric import FD_STEP, fd_gradient
from outail.quadrature import QuadratureRule

RULE64 = QuadratureRule.gauss_hermite(1, 64)


def probe_grid(lo=-3.0, hi=3.0, step=0.25):
    return np.arange(lo, hi + 1e-9, step)


class TestNormalization:
    def test_tilt_exact(self):
        assert validate_normalization(TiltDensity([1.0]), RULE64) < 1e-12

    def test_constant_density_weight_sum(self):
        # f = 1: residual reduces to the weight-sum error
        assert validate_normalization(TiltDensity(np.zeros(1)), RULE64) < 1e-14

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
            validate_normalization(TiltDensity([1.0]), QuadratureRule.gauss_hermite(2, 8))


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
        dishonest = MixtureDensity([1.0], [0.0], 0.5)
        dishonest.beta = 0.0
        margin = beta_probe(dishonest, probe_grid())
        assert margin == pytest.approx(-1.0, abs=1e-5)

    def test_mixture_ou_image_has_exact_certificate(self):
        # the image is Q_t f, its beta is 1/s_t - 1, and that is the beta_t
        # which smoothing certifies for any f with the mixture's beta
        from outail.semigroup import ou_log
        from outail.verify import HESSIAN_PROBES, tail_probability

        mix = MixtureDensity([0.5, 0.5], [-1.0, 1.0], 0.5)
        x = HESSIAN_PROBES[:, None]
        for t in (0.02, 0.1, 0.5, 1.0, 3.0):
            for r in (1.1, 1.5, np.e):
                tail_probability(mix, t, r)
            image = mix.closed_ou(t)
            np.testing.assert_allclose(image.log_f(x), ou_log(mix, t, x), rtol=0, atol=1e-10)
            s_t = 1.0 + np.exp(-2.0 * t) * (mix.spread - 1.0)
            assert image.beta == pytest.approx(1.0 / s_t - 1.0, rel=1e-15)
            assert beta_probe(image, HESSIAN_PROBES) >= -1e-6
            beta_t = np.exp(-2.0 * t) * mix.beta / (1.0 - np.expm1(-2.0 * t) * mix.beta)
            assert beta_t == pytest.approx(image.beta, rel=1e-14)

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

    @given(
        u=st.floats(-1e154, 1e154),
        x=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(1)),
                     elements=st.floats(allow_nan=True, allow_infinity=True)),
    )
    @settings(max_examples=200, deadline=None)
    @example(u=0.0, x=np.array([[-0.0], [0.0], [np.inf], [-np.inf], [np.nan]]))
    @example(u=-2.0, x=np.array([[-0.0], [0.0], [np.inf], [-np.inf], [np.nan]]))
    @example(u=-0.0, x=np.array([[-1.0], [1.0], [-0.0]]))
    @example(u=1e-200, x=np.array([[-0.0], [-1e-200]]))
    def test_1d_log_density_is_the_matmul_bit_for_bit(self, u, x):
        """The product path equals ``x @ u - |u|^2 / 2`` in every bit:
        signed zeros, infinities and NaN included."""
        tilt = TiltDensity([u])
        with np.errstate(all="ignore"):
            want = x @ tilt.u - 0.5 * tilt.alpha**2
            got = tilt.log_f(x)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_zero_tilt_is_constant_one(self):
        d = TiltDensity(np.zeros(1))
        xs = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(d.log_f(xs), 0.0, atol=0.0)
        assert d.closed_tail(2.0) == 0.0

    def test_ou_image_shrinks_tilt(self):
        tilt = TiltDensity([2.0])
        img = tilt.closed_ou(0.7)
        assert img.alpha == pytest.approx(2.0 * np.exp(-0.7), rel=1e-15)

    def test_beta_zero(self):
        assert TiltDensity([3.0]).beta == 0.0

    @pytest.mark.parametrize("u", [1e155, -1e155, np.inf, np.nan])
    def test_infinite_half_square_rejected(self, u):
        with pytest.raises(ValueError, match="not finite"):
            TiltDensity([u])

    def test_one_entry_only(self):
        with pytest.raises(ValueError):
            TiltDensity([1.3, 0.7])


class TestMixtureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureDensity([0.5, 0.6], [-1.0, 1.0], 0.5)

    def test_spread_bounds(self):
        for bad in (0.0, np.nextafter(1.0, 2.0), 1.5, -0.2, 5e-324):  # 1/5e-324 overflows
            with pytest.raises(ValueError):
                MixtureDensity([1.0], [0.0], bad)

    def test_spread_one_is_the_tilt_mixture(self, heat_kernel):
        """Spread 1, the limit of every OU image, is sum_j w_j
        e^{a_j x - a_j^2 / 2}: beta 0, the heat image multiplies each tilt
        by e^{s a_j^2 / 2}, and the OU image stays at spread 1."""
        w, a = np.array([0.3, 0.7]), np.array([-1.2, 0.8])
        mix, x = MixtureDensity(w, a, 1.0), np.linspace(-4.0, 4.0, 17)[:, None]
        assert mix.beta == 0.0
        for s in (0.0, 0.4, 1.0):
            logs = np.log(w) + a * x - 0.5 * a**2 + 0.5 * s * a**2  # (points, J)
            p = np.exp(logs - logsumexp(logs, axis=1, keepdims=True))
            k, v = mix.closed_heat_at(x)(s) if s else (mix.log_f(x), mix.grad_log_f(x))
            np.testing.assert_allclose(k, logsumexp(logs, axis=1), rtol=0, atol=1e-13)
            np.testing.assert_allclose(v[:, 0], p @ a, rtol=0, atol=1e-13)
        image = mix.closed_ou(0.5)
        assert image.spread == 1.0 and np.array_equal(image.means[:, 0], a * np.exp(-0.5))
        k_q = heat_kernel(mix, 0.4, x, RULE64)[0]
        np.testing.assert_allclose(mix.closed_heat_at(x)(0.4)[0], k_q, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mix", [
        MixtureDensity([0.5, 0.5], [-1.0, 1.0], 0.5),
        MixtureDensity([0.5, 0.5], [-0.3, 0.3], 0.97),
        MixtureDensity([0.5, 0.5], [-0.3, 0.3], 0.9),
        MixtureDensity([0.5, 0.5], [-1.0, 1.0], 0.5).closed_ou(1.0),
    ], ids=["default", "spread_0.97", "spread_0.9", "default_ou_t1"])
    def test_beta_is_exact_and_certified(self, mix):
        # Hess log f = (1 - 1/s) id + Cov_p(a) / s^2 with Cov_p(a) >= 0, and
        # the defect approaches 1/s - 1 far from the means
        assert mix.beta == 1.0 / mix.spread - 1.0
        assert beta_probe(mix, probe_grid(-8.0, 8.0, 0.1)) >= -1e-6

    def test_strict_positivity(self, rng):
        mix = MixtureDensity([0.2, 0.8], [-2.0, 1.0], 0.3)
        assert np.isfinite(mix.log_f(rng.normal(size=(200, 1)) * 3)).all()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _scipy_heat_log_grad(mix, s, x):
    """(log P_s f, grad log P_s f) of a mixture from components-last arrays
    (..., J) and (..., J, n), reduced by scipy and contracted by einsum."""
    sp = mix.spread
    a_over = 1.0 / sp + 1.0 / s - 1.0
    b = mix.means / sp + x[..., None, :] / s
    per_coord = (
        -0.5 * np.log(sp * s * a_over)
        + 0.5 * (b * b) / a_over
        - 0.5 * (mix.means * mix.means) / sp
        - 0.5 * (x * x)[..., None, :] / s
    )
    logs = per_coord.sum(-1) + mix.log_weights
    comp_grad = (b / a_over - x[..., None, :]) / s
    return logsumexp(logs, axis=-1), np.einsum("...j,...jn->...n", softmax(logs, axis=-1), comp_grad)


def _scipy_log_grad(mix, x):
    """(log f, grad log f) of a mixture from components-last logs, by scipy."""
    diff = x[..., None, :] - mix.means
    logs = (-0.5 * mix.dim * np.log(mix.spread) - 0.5 * (diff * diff).sum(-1) / mix.spread
            + 0.5 * (x * x).sum(-1)[..., None] + mix.log_weights)
    abar = softmax(logs, axis=-1) @ mix.means
    return logsumexp(logs, axis=-1), x - (x - abar) / mix.spread


# close logs, whose sums round differently in another order, exact ties,
# and gaps above 700 (shifted terms near e^-745 go subnormal or vanish)
LOG_VALUES = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([-800.0, -745.5, -700.25, -1.0, -0.0, 0.0, 0.5, 3.0, 710.0]),
    st.floats(-1e4, 1e4),
)


class TestMixtureLogSumExp:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(logs=st.integers(1, 7).flatmap(lambda j: hnp.arrays(
        float, st.tuples(st.just(j), st.integers(1, 6), st.integers(1, 3)), elements=LOG_VALUES)))
    @example(logs=np.zeros((3, 1, 1)))
    @example(logs=np.array([5.0, -800.0]).reshape(2, 1, 1))
    @example(logs=np.array([-800.0, 5.0, 5.0]).reshape(3, 1, 1))
    def test_matches_scipy_bit_for_bit(self, logs):
        lse, post = MixtureDensity._log_sum_exp(logs)
        last = np.ascontiguousarray(np.moveaxis(logs, 0, -1))  # scipy's components-last input
        assert _same_bits(lse, logsumexp(last, axis=-1))
        assert _same_bits(post, softmax(last, axis=-1))
        assert post.flags.c_contiguous

    @pytest.mark.parametrize("mix", [
        MixtureDensity([1.0], [0.5], 0.6),
        MixtureDensity([0.5, 0.5], [-1.0, 1.0], 0.5),
        MixtureDensity([0.2, 0.5, 0.3], [-2.0, 0.5, 1.5], 0.4),
    ], ids=["J1", "J2", "J3"])
    def test_drift_tables_match_scipy(self, mix, rng):
        """Every stored table window, built by a first evaluation and
        widened by a second, wider one, equals the reference at its cells."""
        field = DriftField(mix, 128)
        assert len(field.tables) == 128
        for i in range(128):
            for spread in (1.0, 3.0):
                field.eval(i, rng.normal(size=(50, 1)) * spread)
        for i, (first, k, v) in enumerate(field.tables):
            assert 0 < len(k) < len(field.grid)
            cells = field.grid[first:first + len(k), None]
            k_ref, v_ref = _scipy_heat_log_grad(mix, 1.0 - i / 128, cells)
            assert np.array_equal(k, k_ref) and np.array_equal(v, v_ref[:, 0])

    @pytest.mark.parametrize("mix", [
        MixtureDensity([1.0], [[0.5, -0.5]], 0.6),
        MixtureDensity([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.5]], 0.5),
        MixtureDensity([0.2, 0.5, 0.3], [[-2.0, 0.0], [0.5, 1.0], [1.5, -1.0]], 0.4),
        MixtureDensity([0.2, 0.5, 0.3], [-2.0, 0.5, 1.5], 0.4),
    ], ids=["J1_2d", "J2_2d", "J3_2d", "J3_1d"])
    def test_closed_forms_match_scipy(self, mix, rng):
        x = rng.normal(size=(3, 40, mix.dim)) * 3.0
        for s in (1.0, 0.3, 1e-3):
            k, v = mix.closed_heat_at(x)(s)
            k_ref, v_ref = _scipy_heat_log_grad(mix, s, x)
            assert np.array_equal(k, k_ref) and np.array_equal(v, v_ref)
        log_ref, grad_ref = _scipy_log_grad(mix, x)
        assert np.array_equal(mix.log_f(x), log_ref) and np.array_equal(mix.grad_log_f(x), grad_ref)


class TestSineFamily:
    def test_beta_is_exact(self):
        assert SinePerturbationDensity(0.5, [2.0]).beta == pytest.approx(2.0)
        assert SinePerturbationDensity(0.25, [np.sqrt(5.0)]).beta == pytest.approx(1.25)

    @pytest.mark.parametrize("eps, wave", [(0.3, [2.0]), (0.3, [np.hypot(1.0, 0.7)]), (2.0, [0.5]),
                                           (4.8, [0.5])])
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
        # (J + 1) eps_mach e^{2 eps} crosses SERIES_TOL between eps = 4.8 and 4.9,
        # and an eps past it is rejected rather than evaluated wrongly
        below = SinePerturbationDensity(4.8, [2.0])
        assert len(below._weights) * np.finfo(float).eps * np.exp(9.6) <= SERIES_TOL
        for eps in (4.9, 6.0):
            with pytest.raises(ValueError, match=r"eps = .* SERIES_TOL"):
                SinePerturbationDensity(eps, [2.0])

    @pytest.mark.parametrize("eps, wave", [(0.3, [1e308]), (1e10, [2.0]), (20.0, [0.1])],
                             ids=["beta_inf", "bessel_nan", "z_cancels"])
    def test_unrepresentable_parameters_rejected(self, eps, wave):
        with pytest.raises(ValueError):
            SinePerturbationDensity(eps, wave)

    def test_eps_zero_is_constant(self):
        flat = SinePerturbationDensity(0.0, [2.0])
        assert abs(flat.log_z) < 1e-14
        np.testing.assert_allclose(flat.log_f(np.linspace(-3, 3, 7)), 0.0, atol=1e-14)


@pytest.mark.parametrize("density", [
    TiltDensity([1.3]),
    MixtureDensity([0.2, 0.3, 0.5], [[-1.3, 0.4], [0.9, -0.2], [0.1, 1.1]], 0.6),
    SinePerturbationDensity(0.3, [2.0]),
    SinePerturbationDensity(0.3, [2.0]).closed_ou(0.5),
    MixtureDensity([0.2, 0.3, 0.5], [[-1.3, 0.4], [0.9, -0.2], [0.1, 1.1]], 0.6).closed_ou(0.5),
], ids=["tilt1d", "mixture2d", "sine1d", "sine1d_ou", "mixture2d_ou"])
def test_values_do_not_depend_on_the_batch(density):
    """log f, grad log f and the closed heat form at each point equal one
    call over all points, bit for bit, in batches of 1, 2 and 7: the drift
    and the endpoint values of a path must not depend on the chunk that
    holds it."""
    x = 3.0 * np.random.default_rng(5).normal(size=(70, density.dim))
    fns = (density.log_f, density.grad_log_f,
           lambda x: density.closed_heat_at(x)(0.5)[0], lambda x: density.closed_heat_at(x)(0.5)[1])
    for fn in fns:
        whole = fn(x)
        for n in (1, 2, 7):
            parts = np.concatenate([fn(x[i:i + n]) for i in range(0, len(x), n)])
            np.testing.assert_array_equal(parts, whole)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_implements_the_density_contract(name):
    """Each registered family overrides every required method: log f, its
    gradient, the closed heat form and the in-family OU image."""
    cls = FAMILIES[name].build
    for method in ("log_f", "grad_log_f", "closed_heat_at", "closed_ou"):
        assert getattr(cls, method) is not getattr(DensityModel, method), method
