import re

import numpy as np
import pytest
from scipy.stats import norm

from outail import cli, verify
from outail.errors import ResolutionError
from outail.foellmer import MIN_STEPS, PathConfig, perturbation_arrays, simulate_batch
from outail.measures import FAMILIES, MixtureDensity, TiltDensity
from outail.reports import ROWS, BoundReport
from outail.stats import batch_means
from outail.verify import (
    DEFAULT_R_GRID,
    composite_reports,
    deviation_reports,
    drift_energy_report,
    entropy_identity_report,
    exp_moment_report,
    girsanov_reports,
    hessian_floor_report,
    martingale_gap_reports,
    canonical_delta,
    relative_entropy_quadrature,
    sharpness_report,
    sharpness_values,
    shell_shift_report,
    tail_curve,
    tail_probability,
    tv_reports,
    z_suite_reports,
)

E = float(np.e)


def deviation_bound_report(z):
    """The ``deviation_bound`` row of ``z`` alone, at placeholder r, delta
    and beta that only the ``deviation_budget`` row reads."""
    return deviation_reports(z, r=E, delta=0.0, beta=0.0)[0]


def on_record(builder, stats, density, r, delta):
    """``builder``'s rows on the perturbation record at (r, delta) and the
    density's own beta."""
    return builder(stats, density, perturbation_arrays(stats, density, r, delta, density.beta))


class TestBoundReport:
    def test_pass_is_pure_function_of_fields(self):
        rep = BoundReport(name="exp_moment", estimate=1.0, ci_half_width=0.2, bound=0.9)
        assert rep.margin == pytest.approx(-0.1)
        assert rep.passed
        rep2 = BoundReport(name="exp_moment", estimate=1.0, ci_half_width=0.05, bound=0.9)
        assert not rep2.passed

    def test_nan_fails(self):
        rep = BoundReport(name="tail_markov", estimate=float("nan"), ci_half_width=0.0, bound=1.0)
        assert not rep.passed

    def test_negative_ci_rejected(self):
        with pytest.raises(ValueError):
            BoundReport(name="girsanov_mean_gap", estimate=0.0, ci_half_width=-1.0, bound=0.0)

    @pytest.mark.parametrize("name", ["x", "tail_markov_2", "!exact_required", "@0.5", ""])
    def test_a_name_outside_the_row_table_is_rejected(self, name):
        """No row bypasses ``reports.ROWS``: a base name without an entry
        cannot be built."""
        with pytest.raises(ValueError, match="reports.ROWS"):
            BoundReport(name=name, estimate=0.0, ci_half_width=0.0, bound=1.0)

    @pytest.mark.parametrize("name, bound, vacuous", [
        ("tail_markov", 1.0, True), ("tail_markov", 0.5, False),
        ("tail_markov", float("nan"), False), ("tail_markov!exact_required", float("nan"), False),
        ("tv_pinsker", 1.5, True), ("drift_energy", 50.0, False),
        ("drift_martingale_gap@0.5", 2.0, False),
    ])
    def test_vacuous_is_a_bound_at_or_above_the_cap(self, name, bound, vacuous):
        rep = BoundReport(name=name, estimate=0.0, ci_half_width=0.0, bound=bound)
        assert rep.vacuous is vacuous


class TestTailProbability:
    def test_constant_density_has_no_tail(self):
        est, ci = tail_probability(TiltDensity(np.zeros(1)), 0.5, 2.0, "exact")
        assert est == 0.0 and ci == 0.0

    def test_matched_tilt_at_e8(self):
        # alpha = sqrt(2 log r) puts the threshold at the alpha-sigma line
        r = E**8
        tilt = TiltDensity([np.sqrt(2.0 * np.log(r))])
        est, _ = tail_probability(tilt, 0.0, r, "exact")
        assert est == pytest.approx(norm.sf(4.0), rel=1e-12)
        assert est * r * np.sqrt(np.log(r)) == pytest.approx(0.26703, abs=2e-5)

    def test_unit_tilt_at_e(self):
        est, _ = tail_probability(TiltDensity([1.0]), 0.0, E, "exact")
        assert est == pytest.approx(norm.sf(1.5), rel=1e-12)
        assert est <= 1.0 / E

    def test_quadrature_matches_exact_for_tilt(self):
        tilt = TiltDensity([1.2])
        for t, r in [(0.0, 2.0), (0.5, 1.5)]:
            q, _ = tail_probability(tilt, t, r, "quadrature")
            e, _ = tail_probability(tilt, t, r, "exact")
            assert q == pytest.approx(e, rel=1e-8, abs=1e-12)

    def test_monte_carlo_agrees_with_quadrature(self):
        mix = MixtureDensity([0.5, 0.5], [-1.0, 1.0], 0.5)
        q, _ = tail_probability(mix, 0.5, 1.2, "quadrature")
        m, ci = tail_probability(mix, 0.5, 1.2, "monte_carlo", n_samples=10**5, seed=5)
        assert abs(m - q) <= ci

    def test_resolution_guard(self):
        mix = MixtureDensity([0.5, 0.5], [-1.0, 1.0], 0.5)
        with pytest.raises(ResolutionError):
            tail_probability(mix, 0.0, 40.0, "monte_carlo", n_samples=2000, seed=1)

    def test_r_must_exceed_one(self):
        with pytest.raises(ValueError):
            tail_probability(TiltDensity([1.0]), 0.0, 1.0)

    def test_exact_needs_a_closed_tail(self):
        mix = MixtureDensity([0.5, 0.5], [-1.0, 1.0], 0.5)
        with pytest.raises(ValueError, match="mixture"):
            tail_probability(mix, 0.5, 2.0, "exact")

    @pytest.mark.parametrize("density, t, method, match", [
        (FAMILIES["sine"].build(**FAMILIES["sine"].defaults), 0.5, "exact", "sine has no exact tail"),
        (MixtureDensity([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], 0.5), 0.5, "quadrature", "1-D only"),
        (TiltDensity([1.0]), 0.0, "simpson", "unknown tail method 'simpson'"),
    ], ids=["exact_on_a_mehler_image", "quadrature_in_2d", "unknown_method"])
    def test_a_method_that_does_not_apply_is_rejected(self, density, t, method, match):
        for tails in (lambda: tail_probability(density, t, 2.0, method),
                      lambda: tail_curve(density, t, (2.0, 3.0), method)):
            with pytest.raises(ValueError, match=match):
                tails()


def markov_ok(r, tail, ci) -> bool:
    """Every tail within the Markov envelope 1/r, up to its half-width."""
    return bool(np.all(tail <= 1.0 / r + ci + 1e-12))


class TestTailCurve:
    def test_matched_tilt_ratios_stay_bounded(self):
        t = 1.0
        for r in (E**2, E**4, E**6, E**8):
            alpha = np.sqrt(2.0 * np.log(r)) * np.exp(t)
            rs, tail, ci = tail_curve(TiltDensity([alpha]), t, (r,), "exact")
            assert float(tail[0] * r * np.sqrt(np.log(r)) * min(1.0, t)) <= 0.3
            assert markov_ok(rs, tail, ci)

    def test_constant_density_all_zero(self):
        _, tail, ci = tail_curve(TiltDensity(np.zeros(1)), 0.5, DEFAULT_R_GRID, "exact")
        assert np.all(tail == 0.0) and np.all(ci == 0.0)

    def test_peaky_mixture_markov_and_ceiling(self):
        peaky = MixtureDensity([0.5, 0.5], [-2.0, 2.0], 0.25)
        r, tail, ci = tail_curve(peaky, 0.5, (2.0, 5.0, 10.0), "quadrature")
        assert markov_ok(r, tail, ci)
        assert np.all(tail * r * np.sqrt(np.log(r)) / max(peaky.beta, 1.0) <= 20.0)
        # non-increasing along the grid, up to the half-widths
        assert np.all(np.diff(tail) <= ci[:-1] + ci[1:] + 1e-12)

    def test_grid_must_increase(self):
        # an unsorted grid comes back in increasing order; a repeat is refused
        r, tail, _ = tail_curve(TiltDensity([1.0]), 0.0, (5.0, 2.0), "exact")
        assert list(r) == [2.0, 5.0] and tail[0] > tail[1]
        with pytest.raises(ValueError):
            tail_curve(TiltDensity([1.0]), 0.0, (2.0, 2.0), "exact")


class TestSharpness:
    def test_exact_values(self):
        vals = sharpness_values((E**2, E**4, E**8, E**16))
        # oracle: direct Gaussian tail computation at moderate thresholds
        for v, r in zip(vals, (E**2, E**4, E**8, E**16)):
            a = np.sqrt(2 * np.log(r))
            assert v == pytest.approx(norm.sf(a) * r * np.sqrt(np.log(r)), rel=1e-10)
        assert vals[0] == pytest.approx(0.23773, abs=2e-5)
        assert vals[2] == pytest.approx(0.26703, abs=2e-5)

    def test_limit_approaches_inverse_two_root_pi(self):
        huge = sharpness_values((float(np.exp(64.0)),))
        assert huge[0] == pytest.approx(1.0 / (2.0 * np.sqrt(np.pi)), abs=5e-3)

    def test_report_passes_floor(self):
        rep = sharpness_report()
        assert rep.passed and not rep.anchored


class TestEntropy:
    def test_tilt_closed_form(self):
        assert relative_entropy_quadrature(TiltDensity([2.0])) == pytest.approx(2.0, abs=1e-10)
        assert relative_entropy_quadrature(TiltDensity([1.0])) == pytest.approx(0.5, abs=1e-10)

    def test_constant_density_zero(self):
        assert relative_entropy_quadrature(TiltDensity(np.zeros(1))) == pytest.approx(0.0, abs=1e-12)

    def test_identity_reports_pass(self, batches, families):
        for name, stats in batches.items():
            rep = entropy_identity_report(stats, families[name])
            assert rep.passed, f"{name}: gap {rep.estimate} ci {rep.ci_half_width}"

    def test_tilt_value_is_two(self, batches, families):
        stats = batches["tilt"]
        assert 0.5 * stats.energy_full.mean() == pytest.approx(2.0, abs=1e-12)


class TestEnergyBound:
    def test_all_cells(self, batches, families):
        for name, stats in batches.items():
            for r in DEFAULT_R_GRID:
                rep = drift_energy_report(stats, families[name], r)
                assert rep.passed, f"{name} r={r}: {rep.estimate} vs {rep.bound}"

    def test_constant_density_trivial(self):
        flat = TiltDensity(np.zeros(1))
        (stats,) = simulate_batch(PathConfig(steps=128, seed=2), 500, [(flat, (E,))])
        rep = drift_energy_report(stats, flat, E)
        assert rep.estimate == 0.0 and rep.passed


class TestSyntheticDeviationBattery:
    """Closed-form distributions with E[e^Z] <= 1 exercising the
    P(Z <= -2) <= -E[Z] bound."""

    def test_shifted_exponential_closed_forms(self, rng):
        # Z = log 2 - Exp(1): E[e^Z] = 1 exactly
        c = np.log(2.0)
        assert np.exp(c) * 0.5 == 1.0
        p_exact = np.exp(-(2.0 + c))          # P(Z <= -2)
        mean_exact = c - 1.0                  # E[Z]
        assert p_exact <= -mean_exact
        z = c - rng.exponential(size=200000)
        rep_exp = exp_moment_report(z)
        rep_dev = deviation_bound_report(z)
        assert rep_exp.passed
        assert rep_dev.passed
        assert rep_dev.estimate == pytest.approx(p_exact, abs=0.005)
        assert rep_dev.bound == pytest.approx(-mean_exact, abs=0.01)

    @pytest.mark.parametrize("m", [-0.1, -0.5, -2.0])
    def test_shifted_gaussian_family(self, m, rng):
        # Z ~ N(m, -2m) has E[e^Z] = 1 for every m < 0
        sigma = np.sqrt(-2.0 * m)
        p_exact = norm.cdf((-2.0 - m) / sigma)
        assert p_exact <= -m + 1e-15
        z = rng.normal(m, sigma, size=200000)
        assert exp_moment_report(z).passed
        assert deviation_bound_report(z).passed

    def test_two_point_law(self, rng):
        # Z in {-3, b} with P(-3) = 0.3 and b tuned so E[e^Z] = 1
        p = 0.3
        b = np.log((1.0 - p * np.exp(-3.0)) / (1.0 - p))
        mean_exact = p * (-3.0) + (1.0 - p) * b
        assert p <= -mean_exact
        z = np.where(rng.random(100000) < p, -3.0, b)
        assert exp_moment_report(z).passed
        assert deviation_bound_report(z).passed

    def test_delta_zero_degenerate(self):
        z = np.zeros(5000)
        rep = exp_moment_report(z)
        dev = deviation_bound_report(z)
        assert rep.estimate == 1.0 and rep.passed
        assert dev.estimate == 0.0 and dev.bound == 0.0 and dev.passed


class TestZSuiteOnPaths:
    def test_tilt_cell(self, batches, families):
        reps = on_record(z_suite_reports, batches["tilt"], families["tilt"], E**2, 0.1)
        for rep in reps:
            assert rep.passed, rep.name

    def test_matrix(self, batches, families):
        for name, stats in batches.items():
            for r in DEFAULT_R_GRID:
                for rep in on_record(z_suite_reports, stats, families[name], r, canonical_delta(r)):
                    assert rep.passed, f"{name} r={r} {rep.name}"

    def test_martingale_gaps(self, batches, families):
        for name, stats in batches.items():
            for rep in martingale_gap_reports(stats, families[name], E):
                assert rep.passed, f"{name} {rep.name}: {rep.estimate}"


class TestGirsanovSuite:
    def test_tilt_reference_cell(self, batches, families):
        reps = on_record(girsanov_reports, batches["tilt"], families["tilt"], E**2, 0.1)
        by_name = {r.name: r for r in reps}
        assert by_name["girsanov_mean_gap"].passed
        assert by_name["girsanov_product_gap"].passed
        assert by_name["pathwise_product_floor"].passed
        assert by_name["convexity_floor"].passed

    def test_curved_families_floors(self, batches, families):
        # state-dependent drifts report the convexity floor, not the product floor
        for name in ("mixture", "sine"):
            reps = on_record(girsanov_reports, batches[name], families[name], E, 0.1)
            assert "pathwise_product_floor" not in {rep.name for rep in reps}
            for rep in reps:
                assert rep.passed, f"{name} {rep.name}"


class TestPerturbationRecord:
    def test_rows_carry_the_record_identity(self, batches, families):
        stats, mix = batches["mixture"], families["mixture"]
        pert = perturbation_arrays(stats, mix, E**2, 0.2, 0.5)
        rows = [*girsanov_reports(stats, mix, pert), *z_suite_reports(stats, mix, pert),
                *tv_reports(stats, mix, pert), shell_shift_report(stats, mix, pert)]
        for row in rows:
            assert (row.family, row.dim, row.n_samples, row.seed) == (
                "mixture", 1, stats.n_paths, stats.seed)
            if row.name.startswith("drift_martingale_gap@"):
                assert row.r == E**2 and row.beta == mix.beta and np.isnan(row.delta)
            else:
                assert (row.r, row.delta, row.beta) == (E**2, 0.2, 0.5), row.name


class TestTvAndShellShift:
    def test_delta_zero_gap_within_envelope(self, batches, families):
        rep = on_record(tv_reports, batches["mixture"], families["mixture"], E, 0.0)[0]
        assert rep.estimate <= rep.ci_half_width
        assert rep.passed

    def test_tilt_small_delta_cell(self, batches, families):
        # bound 0.05 * sqrt(log r) = 0.1 at r = e^4
        reps = on_record(tv_reports, batches["tilt"], families["tilt"], E**4, 0.05)
        assert reps[0].bound == pytest.approx(0.1, rel=1e-12)
        assert reps[0].passed

    def test_matrix_with_paper_rule(self, batches, families):
        for name, stats in batches.items():
            for r in DEFAULT_R_GRID:
                for rep in on_record(tv_reports, stats, families[name], r, canonical_delta(r)):
                    assert rep.passed, f"{name} r={r} {rep.name}"

    def test_shell_shift_delta_zero_monotone(self, batches, families):
        rep = on_record(shell_shift_report, batches["mixture"], families["mixture"], E, 0.0)
        # nested events: the difference of indicators has mean <= 0
        assert rep.estimate <= 0.0 + 1e-12
        assert rep.passed

    def test_shell_shift_matrix(self, batches, families):
        for name, stats in batches.items():
            for r in DEFAULT_R_GRID:
                rep = on_record(shell_shift_report, stats, families[name], r, canonical_delta(r))
                assert rep.passed, f"{name} r={r}"


class TestComposite:
    def test_tilt_shell_probability_oracle(self, batches, families):
        # under the path law, f(X_1) > s iff X_1 > log s / a + a/2
        tilt = families["tilt"]
        a = tilt.alpha
        r = E**4
        upper = lambda s: norm.sf(np.log(s) / a + a / 2 - a)
        exact = upper(r) - upper(E * r)
        stats = batches["tilt"]
        gap = stats.k_final - np.log(r)
        shell = ((gap > 0) & (gap <= 1.0)).astype(float)
        se = shell.std(ddof=1) / np.sqrt(len(shell))
        assert shell.mean() == pytest.approx(exact, abs=3 * se)

    def test_reports_pass(self, batches, families):
        for name, stats in batches.items():
            for r in DEFAULT_R_GRID:
                for rep in composite_reports(stats, families[name], r):
                    assert rep.passed, f"{name} r={r} {rep.name}"

    @pytest.mark.parametrize("r", [np.exp(0.25), np.exp(0.5)], ids=["log_r_0.25", "log_r_0.5"])
    def test_reduction_ci_carries_the_direct_tail_ci(self, r):
        """A Monte Carlo direct tail (a 2-D mixture) adds its half-width to
        that of the per-shell sum."""
        mix2 = MixtureDensity([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], 0.5)
        (stats,) = simulate_batch(PathConfig(128, 4), 4000, [(mix2, (r,))])
        row = next(rep for rep in composite_reports(stats, mix2, r) if rep.name == "tail_reduction")
        gap = stats.k_final - np.log(r)
        weights = np.where(gap > 0.0, np.exp(-np.floor(np.maximum(gap, 0.0)) - np.log(r)), 0.0)
        _, w_se = batch_means(weights)
        _, _, (tail_ci,) = tail_curve(mix2, 0.0, (r,), seed=stats.seed)
        assert tail_ci > 0.0
        assert row.ci_half_width == verify.CI_STANDARD_ERRORS * w_se + tail_ci

    def test_reduction_dominates_direct_tail_for_tilt(self, batches, families):
        reps = composite_reports(batches["tilt"], families["tilt"], E)
        red = next(r for r in reps if r.name == "tail_reduction")
        assert red.estimate <= red.bound + red.ci_half_width
        assert red.estimate > 0.0


class TestHessianFloorReport:
    def test_mixture_and_sine(self, families):
        for name in ("mixture", "sine"):
            rep = hessian_floor_report(families[name], 0.5)
            assert rep.passed and rep.n_samples == 50


# Restated apart from ``reports.ROWS``, so that a flipped entry fails a test.
UNANCHORED_ROWS = {"tail_curve_ceiling", "sharpness_floor", "tv_pinsker", "shell_ratio"}
CAPPED_ROWS = {"tail_markov", "deviation_bound", "deviation_budget", "tv_lower_bound",
               "tv_pinsker", "shell_shift", "tail_reduction"}


class TestRowTable:
    def test_every_emitted_row_is_in_the_table(self):
        """Every family with every check token, at the smallest scale: each
        row's anchoring is the restated one (a row cannot be built without a
        ``ROWS`` entry), and each entry names a row some default family emits."""
        emitted = set()
        for family, fam in FAMILIES.items():
            cfg = cli.ExperimentConfig(family, fam.defaults, paths=cli.MIN_MC_PATHS,
                                       steps=MIN_STEPS)
            assert cfg.checks == cli.CHECK_TOKENS
            (stats,) = simulate_batch(PathConfig(cfg.steps, cfg.seed), cfg.paths,
                                      [(cli.build_density(cfg), cfg.r_values)])
            for row in cli.collect_rows(cfg, stats):
                base = re.split("[!@]", row.name)[0]
                # a ``!`` row is an unanchored NaN stand-in
                assert row.anchored == (base not in UNANCHORED_ROWS and "!" not in row.name), \
                    row.name
                emitted.add(base)
        assert emitted == set(ROWS)

    def test_anchoring_and_caps_are_as_restated(self):
        assert {name for name, row in ROWS.items() if not row.anchored} == UNANCHORED_ROWS
        assert {name: row.cap for name, row in ROWS.items() if row.cap is not None} == \
            dict.fromkeys(CAPPED_ROWS, 1.0)
