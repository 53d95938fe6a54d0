import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from outail.errors import NonFiniteValueError
from outail.measures import MixtureDensity, SinePerturbationDensity, TiltDensity
from outail.numeric import fd_hessian, gauss_interval_mass, log_gauss_tail
from outail.rng import _U_MIN, gaussian_sample, path_normals, words_per_path
from outail.semigroup import ou_image
from outail.stats import (
    GRID_HALFWIDTH,
    KS_CRIT,
    LEVEL_SET_GRID,
    LEVEL_SET_XTOL,
    N_BATCHES,
    DenseCdf,
    batch_means,
    ks_one_sample,
    ks_two_sample,
    superlevel_gamma_mass,
)


class TestBatchMeans:
    def test_constant_sample_has_zero_se(self):
        m, se = batch_means(np.full(3200, 2.5))
        assert m == 2.5 and se == 0.0

    def test_iid_normal_se_scale(self, rng):
        x = rng.normal(size=32000)
        m, se = batch_means(x)
        assert se == pytest.approx(1.0 / np.sqrt(32000), rel=0.35)
        assert abs(m) < 4 * se

    def test_small_samples_fall_back(self):
        m, se = batch_means(np.array([1.0, 3.0]))
        assert m == 2.0 and se == pytest.approx(np.sqrt(2.0) / np.sqrt(2), rel=1e-12)

    def test_deterministic_given_array(self, rng):
        x = rng.normal(size=10000)
        assert batch_means(x) == batch_means(x.copy())

    @pytest.mark.parametrize("n", [64, 100, 6000, 6001, 20000, 99999, 100000])
    @pytest.mark.parametrize("law", ["normal", "lognormal", "bernoulli"])
    def test_matches_array_split_batches(self, rng, n, law):
        """Bit for bit the batches of np.array_split, the first n % 32 of
        them one sample longer, whether or not 32 divides n."""
        x = {"normal": lambda: rng.normal(size=n), "lognormal": lambda: rng.lognormal(size=n),
             "bernoulli": lambda: (rng.random(n) < 0.3).astype(float)}[law]()
        batches = np.array_split(x, N_BATCHES)
        bmeans = np.array([b.mean() for b in batches])
        sizes = np.array([b.size for b in batches], dtype=float)
        grand = float(bmeans @ sizes / n)
        var_bm = float(((bmeans - grand) ** 2 * sizes).sum() / (N_BATCHES - 1))
        assert batch_means(x) == (float(x.mean()), float(np.sqrt(var_bm / n)))


class TestKolmogorovSmirnov:
    def test_one_sample_hand_case(self):
        # samples {0.25, 0.75} against U(0,1): D = 1/4
        d = ks_one_sample(np.array([0.25, 0.75]), lambda x: x)
        assert d == pytest.approx(0.25, abs=1e-15)

    def test_one_sample_uniform_below_critical(self, rng):
        n = 20000
        d = ks_one_sample(rng.random(n), lambda x: np.clip(x, 0, 1))
        assert d < KS_CRIT / np.sqrt(n)

    def test_two_sample_identical_is_zero(self, rng):
        x = rng.normal(size=500)
        assert ks_two_sample(x, x) == 0.0

    def test_two_sample_disjoint_is_one(self):
        assert ks_two_sample(np.arange(5.0), np.arange(10.0, 15.0)) == 1.0

    def test_two_sample_symmetry(self, rng):
        a, b = rng.normal(size=300), rng.normal(size=400) + 0.3
        assert ks_two_sample(a, b) == ks_two_sample(b, a)


class TestDenseCdf:
    def test_constant_density_recovers_gaussian_cdf(self):
        cdf = DenseCdf(TiltDensity(np.zeros(1)).log_f)
        xs = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(cdf(xs), ndtr(xs), atol=1e-8)

    def test_mixture_matches_closed_cdf(self):
        mix = MixtureDensity([0.3, 0.7], [-1.0, 1.5], 0.4)
        cdf = DenseCdf(mix.log_f)
        xs = np.linspace(-4, 4, 81)
        closed = 0.3 * ndtr((xs + 1.0) / np.sqrt(0.4)) + 0.7 * ndtr((xs - 1.5) / np.sqrt(0.4))
        np.testing.assert_allclose(cdf(xs), closed, atol=1e-7)


MIX = MixtureDensity([0.5, 0.5], [-1.0, 1.0], 0.5)
TWO_BUMPS = MixtureDensity([0.5, 0.5], [-2.0, 2.0], 0.25)
SINE = SinePerturbationDensity(0.3, [2.0])
# the t and log r grids of the benchmark's ``analytic`` workload
ANALYTIC_T = (0.02, 0.1, 0.3, 0.6, 1.0)
ANALYTIC_LOG_R = np.array([0.01, 0.03, 0.08, 0.2, 0.45, 1.0, 4.0, 16.0])


def brentq_superlevel_mass(log_value_fn, log_level) -> float:
    """The scalar level-set mass, the reference of the array path: the
    grid's sign changes refined one at a time by ``brentq`` on one-point
    evaluations, and the masses of the intervals above the level added in
    increasing x, an end still above the level closed at 10 grid
    half-widths."""
    xs = np.linspace(-GRID_HALFWIDTH, GRID_HALFWIDTH, LEVEL_SET_GRID)
    above = np.asarray(log_value_fn(xs)) > log_level
    f = lambda x: float(np.ravel(log_value_fn(np.atleast_1d(x)))[0]) - log_level
    edges = [brentq(f, xs[i], xs[i + 1], xtol=LEVEL_SET_XTOL)
             for i in np.nonzero(above[1:] != above[:-1])[0]]
    bounds = [-10 * GRID_HALFWIDTH] + edges + [10 * GRID_HALFWIDTH]
    mass, state = 0.0, bool(above[0])
    for a, b in zip(bounds[:-1], bounds[1:]):
        if state:
            mass += float(gauss_interval_mass(a, b))
        state = not state
    return mass


def counted(log_value_fn):
    """``log_value_fn`` with a list of the sizes of its calls."""
    sizes = []

    def fn(x):
        sizes.append(np.size(x))
        return log_value_fn(x)

    return fn, sizes


class TestSuperlevelMass:
    def test_half_space_matches_closed_tail(self):
        tilt = TiltDensity([1.5])
        for r in (1.2, 2.0, np.e**2):
            mass = superlevel_gamma_mass(tilt.log_f, np.log(r))
            assert mass == pytest.approx(tilt.closed_tail(r), rel=1e-9, abs=1e-12)

    def test_union_of_intervals(self, rng):
        # peaky two-bump mixture: the super-level set splits in two
        level = 2.0
        mass = superlevel_gamma_mass(TWO_BUMPS.log_f, np.log(level))
        x = rng.standard_normal(400000)
        hit = np.ravel(TWO_BUMPS.log_f(x)) > np.log(level)
        mc = hit.mean()
        assert mass == pytest.approx(mc, abs=4 * np.sqrt(mc / 400000))

    def test_empty_set(self):
        assert superlevel_gamma_mass(TiltDensity(np.zeros(1)).log_f, np.log(2.0)) == 0.0

    @pytest.mark.parametrize("log_value_fn, log_levels", [
        (TiltDensity([1.5]).log_f, np.log([1.2, 2.0, np.e**2])),
        (TiltDensity([-1.5]).log_f, np.log([1.2, 2.0, np.e**2])),  # open on the left
        (MIX.log_f, ANALYTIC_LOG_R),
        (TWO_BUMPS.log_f, np.log([1.01, 1.5, 2.0, 3.0])),
        (SINE.log_f, ANALYTIC_LOG_R),
        (lambda x: x * x - 4.0, np.array([0.0])),  # open at both ends
        (SINE.log_f, np.array([-1.0, 1.0])),  # below the minimum, above the maximum
    ], ids=["tilt+", "tilt-", "mixture", "two-bumps", "sine", "both-ends", "all-or-nothing"])
    def test_matches_scalar_brentq(self, log_value_fn, log_levels):
        got = superlevel_gamma_mass(log_value_fn, log_levels)
        want = [brentq_superlevel_mass(log_value_fn, level) for level in log_levels]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("density", [MIX, SINE], ids=["mixture", "sine"])
    def test_ou_images_match_scalar_brentq(self, density):
        """On the ``analytic`` t and log r grid, the OU images: each
        family's in-family image ``closed_ou``."""
        for t in ANALYTIC_T:
            image = ou_image(density, t)
            got = superlevel_gamma_mass(image.log_f, ANALYTIC_LOG_R)
            want = [brentq_superlevel_mass(image.log_f, level) for level in ANALYTIC_LOG_R]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_edge_cases(self):
        assert superlevel_gamma_mass(lambda x: x * x - 4.0, 0.0) == pytest.approx(
            2.0 * ndtr(-2.0), rel=0.0, abs=1e-12)
        assert superlevel_gamma_mass(SINE.log_f, -1.0) == 1.0
        assert superlevel_gamma_mass(SINE.log_f, 1.0) == 0.0
        mass = superlevel_gamma_mass(MIX.log_f, np.float64(0.1))
        assert isinstance(mass, np.ndarray) and mass.shape == ()

    @pytest.mark.parametrize("log_levels", [np.array([0.1]), np.linspace(-0.5, 0.5, 8)],
                             ids=["one", "eight"])
    def test_one_call_per_halving(self, log_levels):
        """One grid evaluation, then one call per halving on the midpoints of
        all brackets: ceil(log2(grid step / LEVEL_SET_XTOL)) = 32 halvings."""
        fn, sizes = counted(MIX.log_f)
        superlevel_gamma_mass(fn, log_levels)
        assert len(sizes) == 1 + 32 and sizes[0] == LEVEL_SET_GRID
        assert set(sizes[1:]) == {4 * len(log_levels)}  # four crossings per level

    def test_no_crossing_evaluates_the_grid_only(self):
        fn, sizes = counted(SINE.log_f)
        assert (superlevel_gamma_mass(fn, [-1.0, 1.0]) == [1.0, 0.0]).all()
        assert sizes == [LEVEL_SET_GRID]

    @pytest.mark.parametrize("image, log_levels", [
        (MIX, np.linspace(-0.5, 0.5, 8)),
        (ou_image(SINE, 0.5), np.linspace(-0.07, 0.07, 8)),
    ], ids=["mixture", "sine-mehler"])
    def test_curve_equals_single_levels(self, image, log_levels):
        """A curve of 8 levels, each crossed, equals 8 one-level calls bit
        for bit."""
        curve = superlevel_gamma_mass(image.log_f, log_levels)
        single = [superlevel_gamma_mass(image.log_f, level) for level in log_levels]
        assert 0.0 < curve.min() and curve.max() < 1.0
        np.testing.assert_array_equal(curve, single)


class TestGaussianTails:
    @given(z=st.floats(-8.0, 8.0))
    @settings(max_examples=80, deadline=None)
    def test_log_tail_matches_reference(self, z):
        assert float(log_gauss_tail(z)) == pytest.approx(norm.logsf(z), rel=1e-11, abs=1e-12)

    def test_far_right_tail_finite(self):
        lt = float(log_gauss_tail(200.0))
        assert np.isfinite(lt)
        assert lt == pytest.approx(norm.logsf(200.0), rel=1e-11)

    def test_interval_mass_conditioning(self):
        # right-tail interval computed on the complementary side
        a, b = 6.0, 7.0
        exact = norm.sf(a) - norm.sf(b)
        assert gauss_interval_mass(a, b) == pytest.approx(exact, rel=1e-12)
        assert gauss_interval_mass(3.0, 2.0) == 0.0

    def test_interval_mass_arrays_are_scalar_calls(self):
        """Elementwise over arrays, bit for bit: pairs on either side of
        the mode, straddling it, and empty (b <= a)."""
        a = np.array([-3.0, -1.0, -0.5, 0.0, 0.2, 6.0, 2.0, 1.0, -1.0, -120.0])
        b = np.array([-2.0, 1.5, 0.0, 0.7, 4.0, 7.0, 2.0, -1.0, -2.0, 120.0])
        want = [float(gauss_interval_mass(float(x), float(y))) for x, y in zip(a, b)]
        np.testing.assert_array_equal(gauss_interval_mass(a, b), want)
        assert (gauss_interval_mass(a, b)[6:9] == 0.0).all()

    def test_nan_maps_to_nan(self):
        assert np.isnan(log_gauss_tail(float("nan")))
        out = log_gauss_tail(np.array([-1.0, np.nan, 2.5]))
        assert np.isnan(out[1])
        np.testing.assert_allclose(out[[0, 2]], norm.logsf([-1.0, 2.5]), rtol=1e-12)


class TestHessianStencil:
    def test_quadratic_is_exact(self):
        a = np.array([[2.0, 0.5], [0.5, -1.0]])
        fn = lambda x: np.einsum("...i,ij,...j->...", x, a, x)
        h = fd_hessian(fn, np.array([0.3, -0.7]))
        np.testing.assert_allclose(h, 2 * a, atol=1e-6)

    @pytest.mark.parametrize("fn", [
        lambda x: np.einsum("...i,ij,...j->...", x, [[2.0, 0.5], [0.5, -1.0]], x),
        MixtureDensity([0.5, 0.5], [[-1.0, 0.5], [1.0, 0.0]], 0.5).log_f,
    ], ids=["quadratic", "mixture"])
    @pytest.mark.parametrize("lead", [(7,), (3, 4)])
    def test_stacked_points_are_single_point_hessians(self, fn, lead, rng):
        """One call over points of shape (..., n) gives the stack of the
        single-point Hessians, bit for bit."""
        x = 3.0 * rng.normal(size=lead + (2,))
        single = np.array([fd_hessian(fn, p) for p in x.reshape(-1, 2)]).reshape(lead + (2, 2))
        got = fd_hessian(fn, x)
        assert got.shape == lead + (2, 2)
        np.testing.assert_array_equal(got, single)

    def test_nan_value_raises(self):
        fn = lambda x: np.where(x[..., 0] > 0.5, np.nan, (x * x).sum(-1))
        with pytest.raises(NonFiniteValueError):
            fd_hessian(fn, np.array([[0.0, 0.0], [1.0, 0.0]]))


class TestPathStreams:
    def test_stride_block_alignment(self):
        assert words_per_path(2048) == 2048
        assert words_per_path(129) == 132

    def test_path_normals_chunk_invariance(self):
        whole = path_normals(7, 0, 10, 128, 1)
        parts = np.concatenate(
            [path_normals(7, 0, 3, 128, 1), path_normals(7, 3, 7, 128, 1)]
        )
        np.testing.assert_array_equal(whole, parts)

    @pytest.mark.parametrize("steps, dim", [(128, 1), (129, 1), (101, 2)])
    def test_path_normals_match_out_of_place_formula(self, steps, dim, reference_normals):
        # (129, 1) and (101, 2) have stride > steps * dim: padding words skipped
        expected = reference_normals(5, 3, 4, steps, dim)
        got = path_normals(5, 3, 4, steps, dim)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("steps, dim", [(128, 1), (101, 2)])
    def test_scale_multiplies_the_normals(self, steps, dim):
        c = np.sqrt(1.0 / steps)
        expected = c * path_normals(5, 3, 4, steps, dim)
        assert np.array_equal(path_normals(5, 3, 4, steps, dim, scale=c), expected)

    def test_gaussian_sample_matches_out_of_place_formula(self):
        u = np.random.Generator(np.random.Philox(key=9).jumped(3)).random(500 * 2)
        expected = ndtri(np.maximum(u, _U_MIN)).reshape(500, 2)
        assert np.array_equal(gaussian_sample(9, 500, 2, stream=2), expected)

    def test_normals_are_standard(self):
        z = path_normals(11, 0, 100, 512, 1).ravel()
        assert abs(z.mean()) < 4 / np.sqrt(z.size)
        assert z.std() == pytest.approx(1.0, abs=0.01)
