import contextlib
import dataclasses
import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from outail import foellmer
from outail import rng as rng_module
from outail.foellmer import (
    MIN_CHUNK_PATHS,
    NORMALS_BUDGET_WORDS,
    DriftField,
    PathConfig,
    _chunk_size,
    _path_arrays,
    _Passages,
    perturbation_arrays,
    simulate_batch,
    simulate_batches,
    simulate_path,
)
from outail.measures import DensityModel, MixtureDensity, SinePerturbationDensity, TiltDensity
from outail.quadrature import QuadratureRule
from outail.rng import words_per_path

E = float(np.e)
TILT = TiltDensity([2.0])
MIX = MixtureDensity([0.5, 0.5], [-1.0, 1.0], 0.5)
SINE = SinePerturbationDensity(0.3, [2.0])


def small_cfg(steps=256, seed=1234):
    return PathConfig(steps, seed)


def small_batch(density, cfg, r, delta, beta, n_paths=16):
    """A batch stopped at r and its perturbation arrays at delta and beta;
    ``simulate_path`` reproduces any of its paths node by node."""
    stats = simulate_batch(density, cfg, n_paths, r_values=(r,))
    return stats, perturbation_arrays(stats, density, r, delta, beta)


def first_passage(traj, r):
    """First grid node whose K value strictly exceeds log r, else m."""
    above = traj.k > np.log(r)
    return int(np.argmax(above)) if above.any() else traj.steps


class TestPathConfigValidation:
    def test_minimum_steps(self):
        with pytest.raises(ValueError):
            PathConfig(steps=50)

    def test_threshold_above_one(self):
        # thresholds are an argument of simulate_batch, not of the config
        with pytest.raises(ValueError):
            simulate_batch(TILT, small_cfg(), 16, r_values=(E, 1.0))

    def test_needs_a_path(self):
        with pytest.raises(ValueError, match="at least one path"):
            simulate_batch(TILT, small_cfg(), 0)


class TestTiltPaths:
    def test_drift_is_constant_and_endpoint_shifts(self):
        traj = simulate_path(TILT, small_cfg())
        np.testing.assert_allclose(traj.v, 2.0, atol=0.0)
        # X_1 = B_1 + alpha exactly under Euler with constant drift
        b1 = traj.db.sum(axis=0)
        assert traj.x[-1, 0] == pytest.approx(b1[0] + 2.0, abs=1e-12)

    def test_endpoint_mean(self):
        stats = simulate_batch(TILT, small_cfg(), 20000)
        assert abs(stats.x1.mean() - 2.0) <= 3.0 / np.sqrt(20000)

    def test_energy_is_deterministic(self):
        stats = simulate_batch(TILT, small_cfg(), 100)
        np.testing.assert_allclose(stats.energy_full, 4.0, atol=1e-12)

    def test_reconstruction_is_exact(self):
        traj = simulate_path(TILT, small_cfg())
        assert np.abs(traj.reconstruction_residual()).max() < 1e-9


class TestConstantDensityPaths:
    def test_pure_brownian(self):
        flat = TiltDensity(np.zeros(1))
        cfg = small_cfg()
        traj = simulate_path(flat, cfg)
        np.testing.assert_allclose(traj.v, 0.0, atol=0.0)
        np.testing.assert_allclose(traj.k, 0.0, atol=0.0)
        assert traj.x[-1, 0] == pytest.approx(float(traj.db.sum()), abs=1e-14)
        _, arr = small_batch(flat, cfg, E, 0.0, 0.0)
        np.testing.assert_allclose(np.exp(arr.log_d), 1.0, atol=1e-14)
        assert np.all(arr.z == 0.0)


class TestValueProcess:
    def test_k0_is_log_heat_at_origin(self):
        # P_1 f(0) integrates f against gamma, so K_0 vanishes for any
        # normalized family (up to quadrature/interpolation error)
        for density in (TILT, MIX, SINE):
            stats = simulate_batch(density, small_cfg(), 16)
            assert abs(stats.k0) < 1e-4

    def test_final_node_is_exact_log_f(self):
        stats = simulate_batch(MIX, small_cfg(), 64)
        np.testing.assert_allclose(
            stats.k_final, np.ravel(MIX.log_f(stats.x1)), atol=0.0
        )
        np.testing.assert_allclose(stats.v1, MIX.grad_log_f(stats.x1), atol=0.0)

    @pytest.mark.parametrize("density", [MIX, SINE], ids=["mixture", "sine"])
    def test_reconstruction_residual_scale(self, density):
        # Ito reconstruction of K drifts by O(sqrt(dt)) for curved drifts
        cfg = PathConfig(steps=2048, seed=5)
        traj = simulate_path(density, cfg)
        assert np.abs(traj.reconstruction_residual()).max() < 0.25


class RaisedTilt(DensityModel):
    """The unit tilt times e^10: not normalized, so K_0 = 10 > log e."""

    name, dim, beta = "raised", 1, 0.0

    def log_f(self, x):
        return TiltDensity([1.0]).log_f(x) + 10.0

    def grad_log_f(self, x):
        return TiltDensity([1.0]).grad_log_f(x)

    def closed_heat_at(self, x):
        heat = TiltDensity([1.0]).closed_heat_at(x)
        return lambda s: (heat(s)[0] + 10.0, heat(s)[1])


class TestStopping:
    def test_never_stopped_convention(self):
        cfg = small_cfg()
        r = float(np.exp(50.0))
        stats, _ = small_batch(TILT, cfg, r, 0.0, 0.0)
        assert np.all(stats.stopped[r].t_index == cfg.steps)

    def test_immediate_stop_when_k0_exceeds(self):
        cfg = PathConfig(steps=128)
        stats, _ = small_batch(RaisedTilt(), cfg, E, 0.0, 0.0)
        sl = stats.stopped[E]
        assert stats.k0 > 1.0
        assert np.all(sl.t_index == 0)
        assert np.all(sl.stoch == 0.0) and np.all(sl.energy == 0.0)

    def test_first_passage_definition(self):
        cfg = small_cfg()
        stats, _ = small_batch(TILT, cfg, E, 0.0, 0.0)
        t_index = stats.stopped[E].t_index
        for idx in range(len(t_index)):
            traj = simulate_path(TILT, cfg, path_index=idx)
            assert t_index[idx] == first_passage(traj, E)
            if t_index[idx] < cfg.steps:
                assert traj.k[t_index[idx]] > 1.0
                assert np.all(traj.k[: t_index[idx]] <= 1.0)

    def test_tilt_first_passage_oracle(self):
        # for the tilt the value process is exactly the drifted Brownian
        # walk a*B_t + a^2 t / 2; rebuild it from the raw increments and
        # confirm, for every threshold of one batch, the passage index, the
        # one-step overshoot cap and K_1 for the paths that never stop
        alpha = 3.0
        r_values = (float(np.exp(0.5)), E, float(np.exp(2.5)), float(np.exp(50.0)))
        tilt3 = TiltDensity([alpha])
        cfg = small_cfg(steps=512)
        stats = simulate_batch(tilt3, cfg, 40, r_values=r_values)
        stopped = dict.fromkeys(r_values, 0)
        for idx in range(40):
            traj = simulate_path(tilt3, cfg, path_index=idx)
            b = np.concatenate([[0.0], np.cumsum(traj.db[:, 0])])
            walk = alpha * b + 0.5 * alpha**2 * traj.times
            np.testing.assert_allclose(traj.k, walk, atol=1e-10)
            step_bound = np.abs(np.diff(walk)).max()
            for r in r_values:
                sl = stats.stopped[r]
                oracle = np.argmax(walk > np.log(r)) if (walk > np.log(r)).any() else cfg.steps
                assert sl.t_index[idx] == oracle
                if sl.t_index[idx] < cfg.steps:
                    stopped[r] += 1
                    assert np.log(r) < sl.k_at_stop[idx] <= np.log(r) + step_bound
                else:
                    assert sl.k_at_stop[idx] == traj.k[-1]
        # drift 4.5/unit time crosses log r <= 2.5 often, log r = 50 never
        assert all(stopped[r] > 20 for r in r_values[:3]) and stopped[r_values[3]] == 0

    def test_stopped_cap_with_overshoot(self, batches, families):
        # sum_{i<T} <v,dB> + energy/2 reconstructs K at the passage node,
        # which exceeds log r by at most the recorded overshoot
        for name, stats in batches.items():
            resid_tol = 1e-9 if name == "tilt" else 0.25
            for r, sl in stats.stopped.items():
                recon = sl.stoch + 0.5 * sl.energy
                cap = np.log(r) + sl.overshoot() + resid_tol - stats.k0
                stopped = sl.t_index < stats.steps
                assert np.all(recon[stopped] <= cap[stopped])


def scan_passages(log_rs, k):
    """Brute-force (T, S_T, E_T, I_T, K_T) of every (threshold, path) pair
    for K values ``k`` (m + 1 nodes, paths), with the running integrals of
    ``node_integrals``."""
    n_nodes, n_paths = k.shape
    m = n_nodes - 1
    _, expect = _path_arrays(n_paths, 2, len(log_rs))
    for j, lr in enumerate(log_rs):
        for p in range(n_paths):
            t = next((i for i in range(m) if k[i, p] > lr), m)
            stoch, energy, vds = node_integrals(t, n_paths)
            expect[0][j, p] = t
            expect[1][j, p], expect[2][j, p] = stoch[p], energy[p]
            expect[3][j, p] = vds[p]
            expect[4][j, p] = k[t, p]
    return expect


def node_integrals(i, n_paths):
    """Running integrals (S, E, I) at node i, distinct per node and path."""
    stoch = i * 10.0 + np.arange(n_paths)
    return stoch, -stoch, np.stack([stoch, 0.5 * stoch], axis=1)


LOG_R_LEVELS = (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
K_LEVELS = (np.nan, -np.inf, -2.0, -1.0, 0.0, 0.5, 0.75, 1.0, 2.0, 3.5, np.inf)


class TestPassageBookkeeping:
    @settings(max_examples=300, deadline=None)
    @given(
        log_rs=st.lists(st.sampled_from(LOG_R_LEVELS), max_size=6, unique=True).map(sorted),
        k=hnp.arrays(np.float64, st.tuples(st.integers(1, 7), st.integers(1, 5)),
                     elements=st.sampled_from(K_LEVELS)),
    )
    # K equal to log r stops nothing; 3.5 jumps every level at once; NaN
    # stops nothing
    @example(log_rs=[0.0, 1.0, 3.0], k=np.array([[1.0, 0.0, np.nan], [3.5, 1.0, np.nan],
                                                [0.5, 1.0, 0.5]]))
    @example(log_rs=[-1.0, 0.5, 2.0], k=np.array([[-2.0], [0.75], [0.0], [3.5]]))
    def test_matches_brute_force_scan(self, log_rs, k):
        log_rs = np.array(log_rs, dtype=float)
        n_nodes, n_paths = k.shape
        m = n_nodes - 1
        _, frozen = _path_arrays(n_paths, 2, len(log_rs))
        passages = _Passages(log_rs, n_paths)
        for i in range(m):
            passages.check(frozen, i, *node_integrals(i, n_paths), k[i])
        passages.finish(frozen, m, *node_integrals(m, n_paths), k[m])
        for got, want in zip(frozen, scan_passages(log_rs, k)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("density", [
        TILT, MixtureDensity([0.5, 0.5], [[-1.0, 0.5], [1.0, -0.5]], 0.5),
    ], ids=["tilt_1d", "mixture_2d"])
    def test_many_thresholds_equal_one_at_a_time(self, density):
        """16 thresholds, unsorted, on one batch give bit for bit the slices
        of 16 one-threshold batches."""
        cfg = small_cfg(steps=128, seed=11)
        log_rs = np.random.default_rng(3).permutation(np.linspace(0.02, 2.5, 16))
        r_values = tuple(float(r) for r in np.exp(log_rs))
        many = simulate_batch(density, cfg, 300, r_values=r_values)
        crossed = 0
        for r in r_values:
            one = simulate_batch(density, cfg, 300, r_values=(r,)).stopped[r]
            for name in ("t_index", "stoch", "energy", "vds", "k_at_stop"):
                assert np.array_equal(getattr(many.stopped[r], name), getattr(one, name)), name
            crossed += bool((one.t_index < cfg.steps).any())
        assert crossed >= 8

    def test_unsorted_repeated_thresholds_equal_sorted(self):
        cfg = small_cfg(steps=128, seed=11)
        r_values = (E**2, E**0.5, E, E**0.5, E**1.5)
        given_order = simulate_batch(MIX, cfg, 300, r_values=r_values)
        ordered = simulate_batch(MIX, cfg, 300, r_values=sorted(set(r_values)))
        assert list(given_order.stopped) == list(ordered.stopped) == sorted(set(r_values))
        for r in r_values:
            for name in ("t_index", "stoch", "energy", "vds", "k_at_stop"):
                got, want = getattr(given_order.stopped[r], name), getattr(ordered.stopped[r], name)
                assert np.array_equal(got, want), name


class TestPerturbation:
    def test_delta_zero_is_identity(self):
        cfg = small_cfg()
        stats, arr = small_batch(MIX, cfg, E, 0.0, MIX.beta)
        np.testing.assert_allclose(arr.x_delta, stats.x1, atol=0.0)
        assert np.all(arr.z == 0.0)
        traj = simulate_path(MIX, cfg, path_index=4)
        expected_log_d = -traj.stoch_int[-1] - 0.5 * traj.energy[-1]
        assert arr.log_d[4] == pytest.approx(expected_log_d, abs=1e-12)

    def test_endpoint_shift_formula(self):
        cfg = small_cfg()
        _, arr = small_batch(MIX, cfg, E, 0.2, MIX.beta)
        traj = simulate_path(MIX, cfg, path_index=9)
        t_idx = first_passage(traj, E)
        shift = 0.2 * traj.v[:t_idx].sum(axis=0) / cfg.steps
        np.testing.assert_allclose(arr.x_delta[9], traj.x[-1] + shift, atol=1e-14)

    def test_reweighted_mass_is_one(self):
        # E[f(X^d) D^d] = 1 holds exactly under the discrete measure change
        cfg = PathConfig(steps=512, seed=3)
        stats = simulate_batch(TILT, cfg, 30000, r_values=(E**2,))
        arr = perturbation_arrays(stats, TILT, E**2, 0.1, 0.0)
        vals = np.exp(arr.log_f_xd + arr.log_d)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) <= 3.0 * se


class TestConvexityMargin:
    def test_tilt_margin_vanishes(self):
        _, arr = small_batch(TILT, small_cfg(), E, 0.25, 0.0)
        np.testing.assert_allclose(arr.convexity_margin, 0.0, atol=1e-12)

    def test_delta_zero_margin_vanishes(self):
        _, arr = small_batch(MIX, small_cfg(), E, 0.0, MIX.beta)
        np.testing.assert_allclose(arr.convexity_margin, 0.0, atol=1e-13)

    def test_mixture_batch_margins_nonnegative(self, batches, families):
        mix = families["mixture"]
        arr = perturbation_arrays(batches["mixture"], mix, E, 0.1, mix.beta)
        assert float(arr.convexity_margin.min()) >= -1e-6

    def test_understated_beta_breaks_margin(self, batches, families):
        mix = families["mixture"]
        arr = perturbation_arrays(batches["mixture"], mix, E, 0.3, mix.beta / 10.0)
        assert float(arr.convexity_margin.min()) < -1e-6


class TestDeterminism:
    def test_single_path_equals_batch_path(self):
        cfg = small_cfg()
        stats = simulate_batch(MIX, cfg, 16, r_values=(E,))
        traj = simulate_path(MIX, cfg, path_index=13)
        assert float(traj.x[-1, 0]) == stats.x1[13, 0]
        assert float(traj.k[-1]) == stats.k_final[13]
        assert float(traj.stoch_int[-1]) == stats.stoch_full[13]
        normals = foellmer.path_normals(cfg.seed, 0, 16, cfg.steps, 1)
        assert np.array_equal(traj.db, np.sqrt(1.0 / cfg.steps) * normals[13])

    def test_chunk_layout_independence(self):
        # sine paths cross log r < 0.66 and never E: both stop rules covered
        cfg = small_cfg()
        r_values = (1.05, 1.2, 1.5, E)
        a = simulate_batch(SINE, cfg, 3000, r_values=r_values, chunk_paths=271)
        b = simulate_batch(SINE, cfg, 3000, r_values=r_values, chunk_paths=3000)
        assert np.array_equal(a.x1, b.x1)
        assert np.array_equal(a.stoch_full, b.stoch_full)
        for r in r_values:
            sa, sb = a.stopped[r], b.stopped[r]
            for name in ("t_index", "stoch", "energy", "vds", "k_at_stop"):
                assert np.array_equal(getattr(sa, name), getattr(sb, name)), (r, name)
        assert (a.stopped[1.05].t_index < cfg.steps).any()
        assert (a.stopped[E].t_index == cfg.steps).all()

    @pytest.mark.parametrize("n_steps, dim", [(101, 1), (128, 2), (100, 3), (129, 1), (101, 2)])
    def test_normals_into_a_step_major_buffer(self, monkeypatch, reference_normals, n_steps, dim):
        # 10 paths from path 5 in blocks of 3, the last block partial, with
        # stream strides that are and are not n_steps * dim
        monkeypatch.setattr(rng_module, "_OUT_BLOCK_WORDS", 3 * words_per_path(n_steps * dim))
        buf = np.empty((n_steps, 10, dim))
        by_path = buf.transpose(1, 0, 2)
        assert foellmer.path_normals(7, 5, 10, n_steps, dim, out=by_path) is by_path
        assert np.array_equal(by_path, reference_normals(7, 5, 10, n_steps, dim))
        with pytest.raises(ValueError, match="out has shape"):
            foellmer.path_normals(7, 5, 9, n_steps, dim, out=by_path)

    @pytest.mark.parametrize("chunk", [0, -5])
    def test_chunk_paths_must_be_positive(self, chunk):
        with pytest.raises(ValueError, match="chunk_paths"):
            simulate_batch(TILT, small_cfg(), 100, chunk_paths=chunk)

    def test_seed_changes_paths(self):
        a = simulate_batch(TILT, small_cfg(seed=1), 32)
        b = simulate_batch(TILT, small_cfg(seed=2), 32)
        assert not np.array_equal(a.x1, b.x1)


def chunk_sizes(n_paths, chunk):
    return [min(chunk, n_paths - start) for start in range(0, n_paths, chunk)]


def assert_same_batch(a, b):
    """Every array of two BatchStats, and of their stopped slices, agrees bit for bit."""
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if f.name == "stopped":
            assert va.keys() == vb.keys()
            for r in va:
                for g in dataclasses.fields(va[r]):
                    assert np.array_equal(getattr(va[r], g.name), getattr(vb[r], g.name)), (r, g.name)
        elif isinstance(va, dict):
            assert va.keys() == vb.keys()
            for key in va:
                assert np.array_equal(va[key], vb[key]), (f.name, key)
        else:
            assert np.array_equal(va, vb), f.name


class TestChunking:
    @pytest.mark.parametrize("n_paths, steps, dim", [
        (10**5, 2048, 1), (20000, 2048, 1), (8193, 2048, 1), (10**6, 2048, 1),
        (200000, 129, 1), (30000, 1000, 3),
    ])
    def test_balanced_chunks_within_budget(self, n_paths, steps, dim):
        stride = words_per_path(steps * dim)
        sizes = chunk_sizes(n_paths, _chunk_size(n_paths, steps, dim))
        assert len(sizes) > 1
        assert sum(sizes) == n_paths
        assert max(sizes) - min(sizes) < len(sizes)
        assert min(sizes) >= MIN_CHUNK_PATHS
        per_budget = NORMALS_BUDGET_WORDS // stride
        assert max(sizes) <= per_budget
        assert n_paths > (len(sizes) - 1) * per_budget  # the fewest such chunks

    def test_path_floor_overrides_budget(self):
        # 335 paths of 50000 steps fill the budget: three chunks would hold
        # fewer than MIN_CHUNK_PATHS paths each, so two larger ones run
        assert NORMALS_BUDGET_WORDS // words_per_path(50000) == 335
        assert chunk_sizes(700, _chunk_size(700, 50000, 1)) == [350, 350]

    @pytest.mark.parametrize("n_paths, steps, dim", [
        (6000, 2048, 1), (8192, 2048, 1), (2000, 128, 2), (100, 50000, 1), (1, 100, 1),
    ])
    def test_batch_within_budget_is_one_chunk(self, n_paths, steps, dim):
        assert _chunk_size(n_paths, steps, dim) == n_paths

    def test_budget_chunks_match_one_chunk_2d(self, monkeypatch):
        mix2 = MixtureDensity([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], 0.5)
        cfg = PathConfig(steps=128, seed=3)
        r_values = (1.05, 1.5, E)
        whole = simulate_batch(mix2, cfg, 800, r_values=r_values)
        drawn = []
        draw = foellmer.path_normals

        def spy(seed, first, n_paths, *rest, **kw):
            drawn.append(n_paths)
            return draw(seed, first, n_paths, *rest, **kw)

        monkeypatch.setattr(foellmer, "path_normals", spy)
        monkeypatch.setattr(foellmer, "NORMALS_BUDGET_WORDS", 300 * words_per_path(128 * 2))
        split = simulate_batch(mix2, cfg, 800, r_values=r_values)
        # each chunk is drawn as two halves, in either order
        assert [sorted(drawn[j:j + 2]) for j in (0, 2, 4)] == [[133, 134], [133, 134], [133, 133]]
        assert (whole.stopped[1.05].t_index < cfg.steps).any()
        assert_same_batch(whole, split)

    @pytest.mark.parametrize("density, n_paths, chunk", [
        (MIX, 1, None), (SINE, 2, 1), (MIX, 777, 259), (MIX, 777, 101),
        (MixtureDensity([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], 0.5), 777, 333),
        (MixtureDensity([0.2, 0.5, 0.3], [-2.0, 0.5, 1.5], 0.4), 777, 259),
    ], ids=["one_path", "one_path_chunks", "odd_chunks", "uneven_chunks", "mixture_2d", "mixture_3"])
    def test_split_draws_match_one_chunk(self, density, n_paths, chunk):
        """Odd chunk sizes, one-path halves and the empty half of a one-path
        chunk all reproduce the batch drawn as one chunk."""
        cfg = PathConfig(steps=128, seed=11)
        r_values = (1.05, 1.5)
        whole = simulate_batch(density, cfg, n_paths, r_values=r_values, chunk_paths=n_paths)
        split = simulate_batch(density, cfg, n_paths, r_values=r_values, chunk_paths=chunk)
        assert_same_batch(whole, split)
        normals = foellmer.path_normals(cfg.seed, 0, n_paths, cfg.steps, density.dim)
        paths = [simulate_path(density, cfg, j) for j in (0, n_paths - 1)]
        for j, traj in zip((0, n_paths - 1), paths):
            assert np.array_equal(traj.db, np.sqrt(1.0 / cfg.steps) * normals[j])
            assert np.array_equal(traj.x[-1], whole.x1[j])


class TestPrefetch:
    def test_step_error_propagates_and_joins_worker(self, monkeypatch):
        drawn = []
        draw = foellmer.path_normals

        def spy(seed, first, *rest, **kw):
            drawn.append(first)
            return draw(seed, first, *rest, **kw)

        def fail(self, i, x):
            raise RuntimeError("step failed")

        monkeypatch.setattr(foellmer, "path_normals", spy)
        monkeypatch.setattr(DriftField, "eval", fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="step failed"):
            simulate_batch(TILT, small_cfg(), 900, chunk_paths=300)
        assert threading.active_count() == before
        # the halves of chunk 1, then those of chunk 2, drawn while chunk 1 failed
        assert [sorted(drawn[:2]), sorted(drawn[2:])] == [[0, 150], [300, 450]]

    def test_draw_error_propagates_and_joins_worker(self, monkeypatch):
        draw = foellmer.path_normals
        failing = None

        def fail_at(seed, first, *rest, **kw):
            if first == failing:
                raise RuntimeError("draw failed")
            return draw(seed, first, *rest, **kw)

        monkeypatch.setattr(foellmer, "path_normals", fail_at)
        before = threading.active_count()
        # either half of the first chunk (drawn beside the tables), or of a later one
        for failing in (0, 150, 450):
            with pytest.raises(RuntimeError, match="draw failed"):
                simulate_batch(MIX, small_cfg(), 900, chunk_paths=300)
            assert threading.active_count() == before

    def test_table_error_propagates_and_joins_worker(self, monkeypatch):
        raw = DriftField.raw
        built = []

        def fail_late(self, s, x=None):
            if x is None:
                built.append(s)
                if len(built) == 100:
                    raise RuntimeError("table failed")
            return raw(self, s, x)

        monkeypatch.setattr(DriftField, "raw", fail_late)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="table failed"):
            simulate_batch(MIX, small_cfg(), 900, chunk_paths=300)
        assert threading.active_count() == before

    def test_tables_are_built_once_per_step(self, monkeypatch):
        raw = DriftField.raw
        built = []

        def count(self, s, x=None):
            if x is None:
                built.append((id(self), s))
            return raw(self, s, x)

        monkeypatch.setattr(DriftField, "raw", count)
        for density in (MIX, SINE):
            built.clear()
            simulate_batch(density, PathConfig(steps=1000, seed=5), 600, chunk_paths=250)
            assert len(built) == len(set(built)) == 1000
        built.clear()
        simulate_batch(TILT, PathConfig(steps=1000, seed=5), 600, chunk_paths=250)
        assert built == []


MIX2 = MixtureDensity([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], 0.5)
# batches of different dims, chunk sizes and thresholds, with distinct seeds
PIPELINE_JOBS = (
    (TILT, small_cfg(128, seed=3), 700, (E, E**2), 300),
    (MIX2, small_cfg(100, seed=4), 500, (E,), None),
    (SINE, small_cfg(128, seed=5), 400, (), 128),
)


def assert_stats_equal(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "checkpoints":
            assert x.keys() == y.keys()
            assert all(np.array_equal(x[t], y[t]) for t in x)
        elif f.name == "stopped":
            assert x.keys() == y.keys()
            for r in x:
                for g in dataclasses.fields(x[r]):
                    assert np.array_equal(getattr(x[r], g.name), getattr(y[r], g.name)), g.name
        else:
            assert np.array_equal(x, y), f.name


class TestPipeline:
    def test_run_equals_separate_batches(self):
        before = threading.active_count()
        with contextlib.closing(simulate_batches(PIPELINE_JOBS)) as batches:
            run = list(batches)
        assert threading.active_count() == before
        assert len(run) == len(PIPELINE_JOBS)
        for job, stats in zip(PIPELINE_JOBS, run):
            assert_stats_equal(stats, simulate_batch(*job))

    def test_jobs_are_checked_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(foellmer, "path_normals", lambda *a, **kw: drawn.append(a))
        with pytest.raises(ValueError, match="thresholds must exceed 1"):
            list(simulate_batches(PIPELINE_JOBS + ((TILT, small_cfg(), 10, (0.5,)),)))
        assert drawn == []

    def test_check_error_joins_the_prefetching_workers(self, monkeypatch):
        """An error in the caller's work on batch 0, while batch 1's first
        chunk is being drawn, leaves no worker behind."""
        draw = foellmer.path_normals
        prefetching = threading.Event()

        def slow_next_batch(seed, first, *rest, **kw):
            if seed == PIPELINE_JOBS[1][1].seed and first == 0:
                prefetching.set()
                time.sleep(0.2)
            return draw(seed, first, *rest, **kw)

        monkeypatch.setattr(foellmer, "path_normals", slow_next_batch)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="check failed"):
            with contextlib.closing(simulate_batches(PIPELINE_JOBS)) as batches:
                for _ in batches:
                    assert prefetching.wait(5.0)
                    raise RuntimeError("check failed")
        assert threading.active_count() == before

    def test_prefetched_draw_error_propagates_and_joins(self, monkeypatch):
        draw = foellmer.path_normals

        def fail_next_batch(seed, first, *rest, **kw):
            if seed == PIPELINE_JOBS[1][1].seed:
                raise RuntimeError("draw failed")
            return draw(seed, first, *rest, **kw)

        monkeypatch.setattr(foellmer, "path_normals", fail_next_batch)
        before = threading.active_count()
        done = []
        with pytest.raises(RuntimeError, match="draw failed"):
            with contextlib.closing(simulate_batches(PIPELINE_JOBS)) as batches:
                for stats in batches:
                    done.append(stats)
        assert len(done) == 1
        assert threading.active_count() == before

    def test_at_most_two_chunk_buffers(self, monkeypatch):
        """Counted at every draw and while the caller holds each batch."""
        draw = foellmer.path_normals
        buffers = []  # a weak reference per chunk buffer, both halves share one
        lock = threading.Lock()

        def live():
            gc.collect()
            return sum(ref() is not None for ref in buffers)

        def track(seed, first, *rest, out=None, scale=1.0, done=None):
            with lock:
                if not any(ref() is out.base for ref in buffers):
                    buffers.append(weakref.ref(out.base))
                at_draw.append(live())
            return draw(seed, first, *rest, out=out, scale=scale, done=done)

        at_draw, at_yield = [], []
        monkeypatch.setattr(foellmer, "path_normals", track)
        with contextlib.closing(simulate_batches(PIPELINE_JOBS)) as batches:
            for _ in batches:
                with lock:
                    at_yield.append(live())
        assert len(buffers) == 3 + 1 + 4  # chunks of the three batches
        assert max(at_draw) == 2 and at_yield == [1, 1, 0]

    def test_drift_tables_go_with_their_batch(self, monkeypatch):
        fields = []
        init = DriftField.__init__

        def track(self, *args):
            init(self, *args)
            fields.append(weakref.ref(self))

        monkeypatch.setattr(DriftField, "__init__", track)
        with contextlib.closing(simulate_batches(PIPELINE_JOBS)) as batches:
            for k, _ in enumerate(batches, start=1):
                gc.collect()
                assert len(fields) == k and all(ref() is None for ref in fields)


class TestTiledDraws:
    """A draw writes its uniforms first and turns them into normals one tile
    of steps at a time, reporting each tile; the step loop waits per tile."""

    @pytest.mark.parametrize("n_steps, dim, tile", [(100, 1, 7), (129, 1, 10), (100, 2, 9), (129, 2, 64)])
    def test_tiles_keep_the_bytes(self, monkeypatch, reference_normals, n_steps, dim, tile):
        """Tiles that do not divide the steps, from path 5 on: the draw that
        reports equals the one-tile draw without a callback, bit for bit;
        each report covers final steps only, and the steps after it still
        hold uniforms."""
        n_paths = 6
        whole = foellmer.path_normals(7, 5, n_paths, n_steps, dim, scale=0.25)
        assert np.array_equal(whole, 0.25 * reference_normals(7, 5, n_paths, n_steps, dim))
        monkeypatch.setattr(rng_module, "_OUT_BLOCK_WORDS", tile * n_paths * dim)
        buf = np.empty((n_steps, n_paths, dim))
        by_path = buf.transpose(1, 0, 2)
        reports = []
        foellmer.path_normals(7, 5, n_paths, n_steps, dim, out=by_path, scale=0.25,
                              done=lambda k: reports.append((k, by_path.copy())))
        assert np.array_equal(by_path, whole)
        assert [k for k, _ in reports] == [0, *range(tile, n_steps, tile), n_steps]
        for k, seen in reports[1:]:
            assert np.array_equal(seen[:, :k], whole[:, :k]), k
            assert ((seen[:, k:] >= 0.0) & (seen[:, k:] < 1.0)).all(), k

    def test_late_tiles_give_the_batch(self, monkeypatch):
        """The second half reports each tile after a sleep, so the first
        half runs ahead: the batch is the one drawn in one tile, and
        ``simulate_path`` reproduces its paths; the loop steps the first tile
        before either half reports its last.  The tilt builds no tables, so
        the loop starts at once."""
        cfg = PathConfig(steps=128, seed=9)
        r_values = (E, E**2)
        whole = simulate_batch(TILT, cfg, 300, r_values=r_values)
        paths = {j: simulate_path(TILT, cfg, j) for j in (0, 151, 299)}
        draw, evaluate = foellmer.path_normals, DriftField.eval
        first_step = threading.Event()
        early = []

        def step(self, i, x):
            if i == 0:
                first_step.set()
            return evaluate(self, i, x)

        def late(seed, first, *rest, done=None, **kw):
            def report(k):
                if first == 150:
                    time.sleep(0.005)
                if k == cfg.steps:
                    early.append(first_step.wait(10.0))
                done(k)

            return draw(seed, first, *rest, done=report, **kw)

        monkeypatch.setattr(rng_module, "_OUT_BLOCK_WORDS", 150 * 10)  # 10-step tiles
        monkeypatch.setattr(foellmer, "path_normals", late)
        monkeypatch.setattr(DriftField, "eval", step)
        tiled = simulate_batch(TILT, cfg, 300, r_values=r_values)
        assert early == [True, True]
        assert (whole.stopped[E].t_index < cfg.steps).any()
        assert_same_batch(whole, tiled)
        for j, traj in paths.items():
            assert np.array_equal(traj.x[-1], tiled.x1[j])
            assert np.array_equal(traj.k[-1], tiled.k_final[j])

    def test_concurrent_runs_under_fast_switching(self, monkeypatch):
        """Three runs at once (six draw workers on fewer cores), tiles of 5
        to 7 steps and a 10 us switch interval: every run, three chunks
        each, gives the batch of a run on its own."""
        cfg = PathConfig(steps=100, seed=21)
        ref = simulate_batch(MIX, cfg, 400, r_values=(1.05,), chunk_paths=150)
        monkeypatch.setattr(rng_module, "_OUT_BLOCK_WORDS", 75 * 5)
        runs = [None] * 3

        def run(k):
            runs[k] = simulate_batch(MIX, cfg, 400, r_values=(1.05,), chunk_paths=150)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for stats in runs:
            assert_same_batch(ref, stats)

    def test_draw_failing_after_some_tiles(self, monkeypatch):
        """A half that raises after reporting steps below 20: the error
        propagates, no step from 20 on is taken, and no thread is left."""
        draw, evaluate = foellmer.path_normals, DriftField.eval
        stepped = []

        def step(self, i, x):
            stepped.append(i)
            return evaluate(self, i, x)

        def fail_late(seed, first, *rest, done=None, **kw):
            def report(k):
                if first == 150 and k > 20:
                    raise RuntimeError("draw failed")
                done(k)

            return draw(seed, first, *rest, done=report, **kw)

        monkeypatch.setattr(rng_module, "_OUT_BLOCK_WORDS", 150 * 10)  # 10-step tiles
        monkeypatch.setattr(foellmer, "path_normals", fail_late)
        monkeypatch.setattr(DriftField, "eval", step)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            simulate_batch(MIX, small_cfg(128), 300)
        assert threading.active_count() == before
        assert max(stepped, default=-1) < 20


class TestDriftTabulation:
    @pytest.mark.parametrize("density", [MIX, SINE], ids=["mixture", "sine"])
    def test_table_matches_direct_evaluation(self, density, rng):
        # eval interpolates table i of the field, raw evaluates its bandwidth
        # s = 1 - i/m directly: s = 1, 0.5, about 0.05 and 1/256
        m = 256
        drift = DriftField(density, m)
        assert drift.grid is not None and len(drift.tables) == m
        x = rng.normal(size=(2000, 1)) * 2.5
        for i in (0, m // 2, 243, m - 1):
            k_t, v_t = drift.eval(i, x)
            k_d, v_d = drift.raw(1.0 - i / m, x)
            assert np.abs(k_t - k_d).max() < 2e-4
            assert np.abs(v_t - v_d).max() < 5e-4

    def test_final_node_bypasses_table(self):
        stats = simulate_batch(MIX, small_cfg(), 32)
        np.testing.assert_allclose(stats.k_final, np.ravel(MIX.log_f(stats.x1)), atol=0.0)


class TestTwoDimensional:
    def test_tilt_2d_endpoint_mean(self):
        tilt2 = TiltDensity([1.0, -0.5])
        cfg = PathConfig(steps=128, seed=6)
        stats = simulate_batch(tilt2, cfg, 4000)
        err = np.abs(stats.x1.mean(axis=0) - np.array([1.0, -0.5]))
        assert np.all(err <= 3.0 / np.sqrt(4000))

    def test_mixture_2d_quadrature_drift_runs(self, heat_kernel):
        """The closed 2-D mixture drift agrees with the heat-kernel
        quadrature on a 24-node rule at the endpoints of a batch."""
        mix2 = MixtureDensity([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], 0.5)
        stats = simulate_batch(mix2, PathConfig(steps=128, seed=8), 256)
        assert np.isfinite(stats.x1).all()
        rule = QuadratureRule.gauss_hermite(2, 24)
        for s in (1.0, 0.5, 1.0 / 128):
            for closed, quad in zip(mix2.closed_heat_at(stats.x1)(s),
                                    heat_kernel(mix2, s, stats.x1, rule)):
                assert np.abs(closed - quad).max() < 1e-10
