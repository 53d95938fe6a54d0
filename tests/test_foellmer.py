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
from outail import verify
from outail.errors import NonFiniteValueError
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
    the ``reference_path`` fixture reproduces any of its paths node by node."""
    (stats,) = simulate_batch(cfg, n_paths, [(density, (r,))])
    return stats, perturbation_arrays(stats, density, r, delta, beta)


def first_passage(traj, r):
    """First grid node whose K value strictly exceeds log r, else m."""
    above = traj.k > np.log(r)
    return int(np.argmax(above)) if above.any() else len(traj.k) - 1


def reconstruction_residual(traj):
    """K_i - K_0 - S_i - E_i/2 at every node of a reference path."""
    return traj.k - traj.k[0] - traj.stoch - 0.5 * traj.energy


class TestPathConfigValidation:
    def test_minimum_steps(self):
        with pytest.raises(ValueError):
            PathConfig(steps=50)

    def test_threshold_above_one(self):
        # thresholds are an argument of simulate_batch, not of the config
        with pytest.raises(ValueError):
            simulate_batch(small_cfg(), 16, [(TILT, (E, 1.0))])

    def test_needs_a_path(self):
        with pytest.raises(ValueError, match="at least one path"):
            simulate_batch(small_cfg(), 0, [(TILT, ())])

    def test_no_jobs_draw_nothing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(foellmer, "path_normals", lambda *a, **kw: drawn.append(a))
        assert simulate_batch(small_cfg(), 100, []) == []
        assert drawn == []


class TestTiltPaths:
    def test_drift_is_constant_and_endpoint_shifts(self, reference_path):
        traj = reference_path(TILT, small_cfg())
        np.testing.assert_allclose(traj.v, 2.0, atol=0.0)
        # X_1 = B_1 + alpha exactly under Euler with constant drift
        b1 = traj.db.sum(axis=0)
        assert traj.x[-1, 0] == pytest.approx(b1[0] + 2.0, abs=1e-12)
        (stats,) = simulate_batch(small_cfg(), 1, [(TILT, ())])
        assert stats.x1[0, 0] == pytest.approx(b1[0] + 2.0, abs=1e-12)

    def test_endpoint_mean(self):
        (stats,) = simulate_batch(small_cfg(), 20000, [(TILT, ())])
        assert abs(stats.x1.mean() - 2.0) <= 3.0 / np.sqrt(20000)

    def test_energy_is_deterministic(self):
        (stats,) = simulate_batch(small_cfg(), 100, [(TILT, ())])
        np.testing.assert_allclose(stats.energy_full, 4.0, atol=1e-12)

    def test_reconstruction_is_exact(self, reference_path):
        traj = reference_path(TILT, small_cfg())
        assert np.abs(reconstruction_residual(traj)).max() < 1e-9
        (stats,) = simulate_batch(small_cfg(), 100, [(TILT, ())])
        assert np.abs(stats.fvt_residual()).max() < 1e-9


class TestConstantDensityPaths:
    def test_pure_brownian(self, reference_path):
        flat = TiltDensity(np.zeros(1))
        cfg = small_cfg()
        traj = reference_path(flat, cfg)
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
            (stats,) = simulate_batch(small_cfg(), 16, [(density, ())])
            assert abs(stats.k0) < 1e-4

    def test_final_node_is_exact_log_f(self):
        (stats,) = simulate_batch(small_cfg(), 64, [(MIX, ())])
        np.testing.assert_allclose(
            stats.k_final, np.ravel(MIX.log_f(stats.x1)), atol=0.0
        )
        np.testing.assert_allclose(stats.v1, MIX.grad_log_f(stats.x1), atol=0.0)

    @pytest.mark.parametrize("density", [MIX, SINE], ids=["mixture", "sine"])
    def test_reconstruction_residual_scale(self, reference_path, density):
        # Ito reconstruction of K drifts by O(sqrt(dt)) for curved drifts
        cfg = PathConfig(steps=2048, seed=5)
        traj = reference_path(density, cfg)
        assert np.abs(reconstruction_residual(traj)).max() < 0.25


class RaisedTilt(DensityModel):
    """The unit tilt times e^10: not normalized, so K_0 = 10 > log e."""

    name, dim, beta = "raised", 1, 0.0

    def log_f(self, x):
        return TiltDensity([1.0]).log_f(x) + 10.0

    def grad_log_f(self, x):
        return TiltDensity([1.0]).grad_log_f(x)

    def closed_heat_at(self, x):
        heat = TiltDensity([1.0]).closed_heat_at(x)
        return lambda s, cells=...: (heat(s, cells)[0] + 10.0, heat(s, cells)[1])


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

    def test_first_passage_definition(self, reference_path):
        cfg = small_cfg()
        stats, _ = small_batch(TILT, cfg, E, 0.0, 0.0)
        t_index = stats.stopped[E].t_index
        for idx in range(len(t_index)):
            traj = reference_path(TILT, cfg, idx)
            assert t_index[idx] == first_passage(traj, E)
            if t_index[idx] < cfg.steps:
                assert traj.k[t_index[idx]] > 1.0
                assert np.all(traj.k[: t_index[idx]] <= 1.0)

    def test_tilt_first_passage_oracle(self, reference_path):
        # for the tilt the value process is exactly the drifted Brownian
        # walk a*B_t + a^2 t / 2; rebuild it from the raw increments and
        # confirm, for every threshold of one batch, the passage index, the
        # one-step overshoot cap and K_1 for the paths that never stop
        alpha = 3.0
        r_values = (float(np.exp(0.5)), E, float(np.exp(2.5)), float(np.exp(50.0)))
        tilt3 = TiltDensity([alpha])
        cfg = small_cfg(steps=512)
        (stats,) = simulate_batch(cfg, 40, [(tilt3, r_values)])
        stopped = dict.fromkeys(r_values, 0)
        for idx in range(40):
            traj = reference_path(tilt3, cfg, idx)
            b = np.concatenate([[0.0], np.cumsum(traj.db[:, 0])])
            walk = alpha * b + 0.5 * alpha**2 * np.arange(cfg.steps + 1) / cfg.steps
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
        (many,) = simulate_batch(cfg, 300, [(density, r_values)])
        crossed = 0
        for r in r_values:
            one = simulate_batch(cfg, 300, [(density, (r,))])[0].stopped[r]
            for name in ("t_index", "stoch", "energy", "vds", "k_at_stop"):
                assert np.array_equal(getattr(many.stopped[r], name), getattr(one, name)), name
            crossed += bool((one.t_index < cfg.steps).any())
        assert crossed >= 8

    def test_unsorted_repeated_thresholds_equal_sorted(self):
        cfg = small_cfg(steps=128, seed=11)
        r_values = (E**2, E**0.5, E, E**0.5, E**1.5)
        (given_order,) = simulate_batch(cfg, 300, [(MIX, r_values)])
        (ordered,) = simulate_batch(cfg, 300, [(MIX, sorted(set(r_values)))])
        assert list(given_order.stopped) == list(ordered.stopped) == sorted(set(r_values))
        for r in r_values:
            for name in ("t_index", "stoch", "energy", "vds", "k_at_stop"):
                got, want = getattr(given_order.stopped[r], name), getattr(ordered.stopped[r], name)
                assert np.array_equal(got, want), name


class TestPerturbation:
    def test_delta_zero_is_identity(self, reference_path):
        cfg = small_cfg()
        stats, arr = small_batch(MIX, cfg, E, 0.0, MIX.beta)
        assert np.array_equal(arr.log_f_xd, MIX.log_f(stats.x1 + 0.0 * stats.stopped[E].vds))
        assert np.all(arr.z == 0.0)
        traj = reference_path(MIX, cfg, 4)
        expected_log_d = -traj.stoch[-1] - 0.5 * traj.energy[-1]
        assert arr.log_d[4] == pytest.approx(expected_log_d, abs=1e-12)

    def test_endpoint_shift_formula(self, reference_path):
        """log f is read at X_1 + delta sum_{i<T} v_i dt, the drift summed
        up to the passage index; path 9 stops, path 11 does not."""
        cfg = small_cfg()
        stats, arr = small_batch(MIX, cfg, 1.5, 0.2, MIX.beta)
        sl = stats.stopped[1.5]
        assert np.array_equal(arr.log_f_xd, MIX.log_f(stats.x1 + 0.2 * sl.vds))
        for p in (9, 11):
            traj = reference_path(MIX, cfg, p)
            t_idx = first_passage(traj, 1.5)
            assert (t_idx < cfg.steps) == (p == 9)
            np.testing.assert_allclose(sl.vds[p], traj.v[:t_idx].sum(axis=0) / cfg.steps,
                                       atol=1e-14)

    def test_reweighted_mass_is_one(self):
        # E[f(X^d) D^d] = 1 holds exactly under the discrete measure change
        cfg = PathConfig(steps=512, seed=3)
        (stats,) = simulate_batch(cfg, 30000, [(TILT, (E**2,))])
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
    def test_single_path_equals_batch_path(self, reference_path, families):
        """Paths of a batch of each default family in chunks of 13, stopped
        at two thresholds, are the reference paths bit for bit: endpoint,
        integrals, K_0 and passage indices."""
        cfg, r_values = small_cfg(), (1.2, E)
        for name, density in families.items():
            (stats,) = simulate_batch(cfg, 30, [(density, r_values)], 13)
            normals = foellmer.path_normals(cfg.seed, 0, 30, cfg.steps, density.dim)
            for p in (0, 12, 13, 29):
                traj = reference_path(density, cfg, p)
                assert np.array_equal(traj.db, np.sqrt(1.0 / cfg.steps) * normals[p])
                assert stats.k0 == traj.k[0]
                for got, want in zip((stats.x1, stats.v1, stats.k_final, stats.stoch_full,
                                      stats.energy_full),
                                     (traj.x, traj.v, traj.k, traj.stoch, traj.energy)):
                    assert np.array_equal(got[p], want[-1]), (name, p)
                for r in r_values:
                    assert stats.stopped[r].t_index[p] == first_passage(traj, r), (name, p, r)

    @pytest.mark.parametrize("name", ["mixture", "sine", "tilt"])
    def test_checkpoints_are_the_reference_drift(self, reference_path, families, name):
        """The drift recorded at each checkpoint is the reference path's v
        at the checkpoint's node, bit for bit, for two chunk layouts."""
        density, cfg = families[name], small_cfg()
        paths = {p: reference_path(density, cfg, p) for p in (0, 5, 13, 39)}
        for chunk in (13, 40):
            (stats,) = simulate_batch(cfg, 40, [(density, ())], chunk)
            assert sorted(stats.checkpoint_indices.values()) == [64, 128, 192]
            for p, traj in paths.items():
                for tc, i in stats.checkpoint_indices.items():
                    assert np.array_equal(stats.checkpoints[tc][p], traj.v[i]), (chunk, p, tc)

    def test_chunk_layout_independence(self):
        # sine paths cross log r < 0.66 and never E: both stop rules covered
        cfg = small_cfg()
        r_values = (1.05, 1.2, 1.5, E)
        (a,) = simulate_batch(cfg, 3000, [(SINE, r_values)], 271)
        (b,) = simulate_batch(cfg, 3000, [(SINE, r_values)], 3000)
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
            simulate_batch(small_cfg(), 100, [(TILT, ())], chunk)

    def test_seed_changes_paths(self):
        (a,) = simulate_batch(small_cfg(seed=1), 32, [(TILT, ())])
        (b,) = simulate_batch(small_cfg(seed=2), 32, [(TILT, ())])
        assert not np.array_equal(a.x1, b.x1)


def chunk_sizes(n_paths, chunk):
    return [min(chunk, n_paths - start) for start in range(0, n_paths, chunk)]


def assert_same_batch(a, b):
    """Every array of two BatchStats, and of their stopped slices, agrees bit
    for bit.  ``k_steps`` counts (chunk, step) pairs and the table windows
    span the cells each chunk reached, so ``k_steps`` and
    ``drift_table_bytes`` are compared only by the tests that fix the chunk
    layout."""
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if f.name in ("k_steps", "drift_table_bytes"):
            continue
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
        (whole,) = simulate_batch(cfg, 800, [(mix2, r_values)])
        drawn = []
        draw = foellmer.path_normals

        def spy(seed, first, n_paths, *rest, **kw):
            drawn.append(n_paths)
            return draw(seed, first, n_paths, *rest, **kw)

        monkeypatch.setattr(foellmer, "path_normals", spy)
        monkeypatch.setattr(foellmer, "NORMALS_BUDGET_WORDS", 300 * words_per_path(128 * 2))
        (split,) = simulate_batch(cfg, 800, [(mix2, r_values)])
        # each chunk is drawn as two halves, in either order
        assert [sorted(drawn[j:j + 2]) for j in (0, 2, 4)] == [[133, 134], [133, 134], [133, 133]]
        assert (whole.stopped[1.05].t_index < cfg.steps).any()
        assert_same_batch(whole, split)

    @pytest.mark.parametrize("density, n_paths, chunk", [
        (MIX, 1, None), (SINE, 2, 1), (MIX, 777, 259), (MIX, 777, 101),
        (MixtureDensity([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], 0.5), 777, 333),
        (MixtureDensity([0.2, 0.5, 0.3], [-2.0, 0.5, 1.5], 0.4), 777, 259),
        (MIX, 2000, 384), (MIX, 2000, 1000), (SINE, 2000, 384), (SINE, 2000, 1000),
    ], ids=["one_path", "one_path_chunks", "odd_chunks", "uneven_chunks", "mixture_2d", "mixture_3",
            "mixture_384", "mixture_1000", "sine_384", "sine_1000"])
    def test_split_draws_match_one_chunk(self, reference_path, density, n_paths, chunk):
        """Odd chunk sizes, one-path halves and the empty half of a one-path
        chunk all reproduce the batch drawn as one chunk, and so do later
        chunks that widen the drift table windows."""
        cfg = PathConfig(steps=128, seed=11)
        r_values = (1.05, 1.5)
        (whole,) = simulate_batch(cfg, n_paths, [(density, r_values)], n_paths)
        (split,) = simulate_batch(cfg, n_paths, [(density, r_values)], chunk)
        assert_same_batch(whole, split)
        normals = foellmer.path_normals(cfg.seed, 0, n_paths, cfg.steps, density.dim)
        paths = [reference_path(density, cfg, j) for j in (0, n_paths - 1)]
        for j, traj in zip((0, n_paths - 1), paths):
            assert np.array_equal(traj.db, np.sqrt(1.0 / cfg.steps) * normals[j])
            assert np.array_equal(traj.x[-1], whole.x1[j])


class TestPrefetch:
    """The draw runs ahead of the step loop: each chunk's tiles ahead of its
    steps, which build the drift tables as they reach new cells.  An error
    on either side propagates, and the workers are joined."""

    def test_step_error_propagates_and_joins_worker(self, monkeypatch):
        drawn = []
        draw = foellmer.path_normals

        def spy(seed, first, *rest, **kw):
            drawn.append(first)
            return draw(seed, first, *rest, **kw)

        def fail(self, *args):
            raise RuntimeError("step failed")

        monkeypatch.setattr(foellmer, "path_normals", spy)
        monkeypatch.setattr(DriftField, "eval", fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="step failed"):
            simulate_batch(small_cfg(), 900, [(TILT, ())], 300)
        assert threading.active_count() == before
        # the halves of chunk 1 only: no chunk is drawn before the one ahead of it is dropped
        assert sorted(drawn) == [0, 150]

    def test_draw_error_propagates_and_joins_worker(self, monkeypatch):
        draw = foellmer.path_normals
        failing = None

        def fail_at(seed, first, *rest, **kw):
            if first == failing:
                raise RuntimeError("draw failed")
            return draw(seed, first, *rest, **kw)

        monkeypatch.setattr(foellmer, "path_normals", fail_at)
        before = threading.active_count()
        # either half of the first chunk, or of a later one
        for failing in (0, 150, 450):
            with pytest.raises(RuntimeError, match="draw failed"):
                simulate_batch(small_cfg(), 900, [(MIX, ())], 300)
            assert threading.active_count() == before

    def test_table_error_propagates_and_joins_worker(self, monkeypatch):
        """An error while a step's table window is built, during the first
        chunk's steps, propagates."""
        raw = DriftField.raw
        built = []

        def fail_late(self, s, cells=slice(None)):
            built.append(s)
            if len(built) == 100:
                raise RuntimeError("table failed")
            return raw(self, s, cells)

        monkeypatch.setattr(DriftField, "raw", fail_late)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="table failed"):
            simulate_batch(small_cfg(), 900, [(MIX, ())], 300)
        assert threading.active_count() == before

    def test_tables_are_built_once_per_step(self, monkeypatch):
        """Each (step, cell) of a table is computed at most once across the
        chunks, every step has a table, and later chunks widen some."""
        raw = DriftField.raw
        built = []

        def count(self, s, cells=slice(None)):
            built.append((id(self), s, cells))
            return raw(self, s, cells)

        monkeypatch.setattr(DriftField, "raw", count)
        for density in (MIX, SINE):
            built.clear()
            simulate_batch(PathConfig(steps=1000, seed=5), 600, [(density, ())], 250)
            cells = [(field, s, c) for field, s, sl in built
                     for c in range(*sl.indices(foellmer.DRIFT_GRID_POINTS))]
            assert len(cells) == len(set(cells))
            assert len({(field, s) for field, s, _ in built}) == 1000 < len(built)
        built.clear()
        simulate_batch(PathConfig(steps=1000, seed=5), 600, [(TILT, ())], 250)
        assert built == []


PIPELINE_CFG = small_cfg(100, seed=4)
PIPELINE_PATHS = 2000
# batches of one dim with different drift tables and thresholds
PIPELINE_JOBS = ((TILT, (E, E**2)), (MIX, (1.05, E)), (SINE, ()))


def draw_spy(monkeypatch, fail_at=None):
    """Record the first path of every ``path_normals`` call, raising for the
    call whose first path is ``fail_at``."""
    drawn = []

    def spy(seed, first, *rest, **kw):
        drawn.append(first)
        if first == fail_at:
            raise RuntimeError("draw failed")
        return rng_module.path_normals(seed, first, *rest, **kw)

    monkeypatch.setattr(foellmer, "path_normals", spy)
    return drawn


class TestPipeline:
    """One ``simulate_batch`` call draws each chunk once, steps it for
    every batch and drops it before the next chunk is drawn."""

    def test_run_equals_separate_batches(self):
        for chunk in (None, 384, 1000):
            before = threading.active_count()
            run = simulate_batch(PIPELINE_CFG, PIPELINE_PATHS, PIPELINE_JOBS, chunk)
            assert threading.active_count() == before
            assert len(run) == len(PIPELINE_JOBS)
            for (density, r_values), stats in zip(PIPELINE_JOBS, run):
                (alone,) = simulate_batch(PIPELINE_CFG, PIPELINE_PATHS, [(density, r_values)],
                                          chunk)
                assert_same_batch(stats, alone)
            assert (run[1].stopped[1.05].t_index < PIPELINE_CFG.steps).any()

    def test_one_draw_per_chunk(self, monkeypatch):
        """Two ``path_normals`` calls per chunk, one per half, whatever the
        number of batches."""
        drawn = draw_spy(monkeypatch)
        halves = sorted(lo + h for lo in range(0, PIPELINE_PATHS, 384)
                        for h in (0, min(384, PIPELINE_PATHS - lo) // 2))
        for k in range(1, len(PIPELINE_JOBS) + 1):
            drawn.clear()
            simulate_batch(PIPELINE_CFG, PIPELINE_PATHS, PIPELINE_JOBS[:k], 384)
            assert sorted(drawn) == halves and len(drawn) == 2 * 6

    def test_jobs_are_checked_before_any_draw(self, monkeypatch):
        drawn = draw_spy(monkeypatch)
        with pytest.raises(ValueError, match="thresholds must exceed 1"):
            simulate_batch(PIPELINE_CFG, 10, PIPELINE_JOBS + ((TILT, (0.5,)),))
        assert drawn == []

    def test_dims_must_agree_before_any_draw(self, monkeypatch):
        drawn = draw_spy(monkeypatch)
        mix2 = MixtureDensity([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], 0.5)
        with pytest.raises(ValueError, match=r"one dim; got dims \[1, 2\]"):
            simulate_batch(PIPELINE_CFG, 10, PIPELINE_JOBS + ((mix2, (E,)),))
        assert drawn == []

    def test_step_error_in_a_later_batch_propagates_and_joins(self, monkeypatch):
        """The second batch fails on the first chunk, after the first batch
        stepped it: the error propagates, no later chunk is drawn, and no
        worker is left."""
        drawn = draw_spy(monkeypatch)
        evaluate = DriftField.eval

        def fail_mixture(self, *args):
            if self.density is MIX:
                raise RuntimeError("step failed")
            return evaluate(self, *args)

        monkeypatch.setattr(DriftField, "eval", fail_mixture)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="step failed"):
            simulate_batch(PIPELINE_CFG, PIPELINE_PATHS, PIPELINE_JOBS, 384)
        assert threading.active_count() == before
        assert sorted(drawn) == [0, 192]

    def test_draw_error_propagates_and_joins(self, monkeypatch):
        """Either half of the first chunk, or the second half of a later one."""
        before = threading.active_count()
        for failing in (0, 192, 384 + 192):
            draw_spy(monkeypatch, fail_at=failing)
            with pytest.raises(RuntimeError, match="draw failed"):
                simulate_batch(PIPELINE_CFG, PIPELINE_PATHS, PIPELINE_JOBS, 384)
            assert threading.active_count() == before

    def test_at_most_one_chunk_buffer(self, monkeypatch):
        """Counted as each chunk submits its draws, at every draw, and after
        the call returns."""
        draw, init = foellmer.path_normals, foellmer._Chunk.__init__
        buffers = []  # a weak reference per chunk buffer, both halves share one
        lock = threading.Lock()

        def live():
            gc.collect()
            return sum(ref() is not None for ref in buffers)

        def allocate(self, *args):
            init(self, *args)
            with lock:
                buffers.append(weakref.ref(self.incs))
                at_allocation.append(live())

        def track(*args, **kw):
            with lock:
                at_draw.append(live())
            return draw(*args, **kw)

        at_allocation, at_draw = [], []
        monkeypatch.setattr(foellmer._Chunk, "__init__", allocate)
        monkeypatch.setattr(foellmer, "path_normals", track)
        run = simulate_batch(PIPELINE_CFG, PIPELINE_PATHS, PIPELINE_JOBS, 384)
        assert len(run) == len(PIPELINE_JOBS)
        assert at_allocation == [1] * 6 and len(at_draw) == 12
        assert max(at_draw) == 1 and live() == 0

    def test_drift_tables_go_with_their_batch(self, monkeypatch):
        """Every batch builds one field, and none is alive once the call
        returns, while the stats are held."""
        fields = []
        init = DriftField.__init__

        def track(self, *args):
            init(self, *args)
            fields.append(weakref.ref(self))

        monkeypatch.setattr(DriftField, "__init__", track)
        run = simulate_batch(PIPELINE_CFG, PIPELINE_PATHS, PIPELINE_JOBS, 384)
        gc.collect()
        assert len(run) == len(fields) == len(PIPELINE_JOBS)
        assert all(ref() is None for ref in fields)


class TestTiledDraws:
    """A draw writes its uniforms first and turns them into normals one tile
    of steps at a time, reporting each tile; the step loop waits per tile."""

    @pytest.mark.parametrize("n_steps, dim, tile", [(100, 1, 7), (129, 1, 10), (100, 2, 9), (129, 2, 64)])
    def test_tiles_keep_the_bytes(self, monkeypatch, reference_normals, n_steps, dim, tile):
        """Tiles that do not divide the steps, from path 5 on: the draw that
        reports equals the one-tile draw without a callback, bit for bit;
        each report covers final steps only, and the steps after it still
        hold uniforms.  The first report comes after the first tile."""
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
        assert [k for k, _ in reports] == [*range(tile, n_steps, tile), n_steps]
        for k, seen in reports:
            assert np.array_equal(seen[:, :k], whole[:, :k]), k
            assert ((seen[:, k:] >= 0.0) & (seen[:, k:] < 1.0)).all(), k

    def test_late_tiles_give_the_batch(self, monkeypatch, reference_path):
        """The second half reports each tile after a sleep, so the first
        half runs ahead: the batch is the one drawn in one tile, and
        ``reference_path`` reproduces its paths; the loop steps the first tile
        before either half reports its last.  The tilt builds no tables, so
        the loop starts at once."""
        cfg = PathConfig(steps=128, seed=9)
        r_values = (E, E**2)
        (whole,) = simulate_batch(cfg, 300, [(TILT, r_values)])
        paths = {j: reference_path(TILT, cfg, j) for j in (0, 151, 299)}
        draw, evaluate = foellmer.path_normals, DriftField.eval
        first_step = threading.Event()
        early = []

        def step(self, i, *args):
            if i == 0:
                first_step.set()
            return evaluate(self, i, *args)

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
        (tiled,) = simulate_batch(cfg, 300, [(TILT, r_values)])
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
        (ref,) = simulate_batch(cfg, 400, [(MIX, (1.05,))], 150)
        monkeypatch.setattr(rng_module, "_OUT_BLOCK_WORDS", 75 * 5)
        runs = [None] * 3

        def run(k):
            (runs[k],) = simulate_batch(cfg, 400, [(MIX, (1.05,))], 150)

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

        def step(self, i, *args):
            stepped.append(i)
            return evaluate(self, i, *args)

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
            simulate_batch(small_cfg(128), 300, [(MIX, ())])
        assert threading.active_count() == before
        assert max(stepped, default=-1) < 20


class TestDriftTabulation:
    @pytest.mark.parametrize("density", [MIX, SINE], ids=["mixture", "sine"])
    def test_table_matches_direct_evaluation(self, density, rng):
        # eval interpolates table i of the field, closed_heat_at evaluates
        # its bandwidth s = 1 - i/m directly: s = 1, 0.5, about 0.05 and 1/256
        m = 256
        drift = DriftField(density, m)
        assert drift.grid is not None and len(drift.tables) == m
        x = rng.normal(size=(2000, 1)) * 2.5
        for i in (0, m // 2, 243, m - 1):
            k_t, v_t = drift.eval(i, x)
            k_d, v_d = density.closed_heat_at(x)(1.0 - i / m)
            assert np.abs(k_t - k_d).max() < 2e-4
            assert np.abs(v_t - v_d).max() < 5e-4

    @pytest.mark.parametrize("density", [MIX, SINE], ids=["mixture", "sine"])
    def test_windows_interpolate_as_the_full_grid(self, density, rng):
        """eval on table windows equals the interpolation on the full grid
        bit for bit, in a call sequence that builds a window, widens it on
        the right and on the left, and reaches beyond the grid, where the
        points clamp to its edge and are counted."""
        m = 128
        drift = DriftField(density, m)
        grid = drift.grid
        inv_h = (len(grid) - 1) / (grid[-1] - grid[0])

        def full_grid(i, x):
            k_tab, v_tab = drift.raw(1.0 - i / m)
            pos = (x[..., 0] - grid[0]) * inv_h
            np.clip(pos, 0.0, len(grid) - 1.000001, out=pos)
            idx = pos.astype(np.int64)
            frac = pos - idx
            return (k_tab[idx] * (1.0 - frac) + k_tab[idx + 1] * frac,
                    (v_tab[idx, 0] * (1.0 - frac) + v_tab[idx + 1, 0] * frac)[..., None])

        beyond = np.array([[-50.0], [-12.01], [12.01], [13.0], [-12.0], [12.0]])
        calls = [rng.normal(size=(300, 1)) * 0.5, rng.normal(size=(300, 1)) * 0.5 + 3.0,
                 rng.normal(size=(300, 1)) * 0.5 - 4.0, rng.normal(size=(300, 1)) * 0.5, beyond]
        for i in (0, 1, 77, m - 1):
            widths = []
            for x in calls:
                got, want = drift.eval(i, x.copy()), full_grid(i, x)
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), i
                first, k_tab, _ = drift.tables[i]
                widths.append((first, first + len(k_tab)))
            (lo0, hi0), (lo1, hi1), (lo2, hi2), (lo3, hi3), (lo4, hi4) = widths
            assert lo1 == lo0 and hi1 > hi0 and lo2 < lo1 and hi2 == hi1 and (lo3, hi3) == (lo2, hi2)
            assert (lo4, hi4) == (0, len(grid))
        assert drift.clamps == 4 * 4

    def test_tables_hold_the_reached_cells_only(self, monkeypatch):
        """At the default steps, 2000 paths of the default mixture and sine
        leave their tables under 40% of the full grid."""
        fields = []
        init = DriftField.__init__

        def keep(self, *args):
            init(self, *args)
            fields.append(self)

        monkeypatch.setattr(DriftField, "__init__", keep)
        for density in (MIX, SINE):
            simulate_batch(PathConfig(foellmer.DEFAULT_STEPS, seed=11), 2000, [(density, ())])
        for field in fields:
            cells = sum(len(v) for _, _, v in field.tables)
            assert cells < 0.4 * foellmer.DEFAULT_STEPS * foellmer.DRIFT_GRID_POINTS

    def test_final_node_bypasses_table(self):
        (stats,) = simulate_batch(small_cfg(), 32, [(MIX, ())])
        np.testing.assert_allclose(stats.k_final, np.ravel(MIX.log_f(stats.x1)), atol=0.0)


class TestLazyK:
    """The step loop evaluates K only on the steps whose table can reach the
    lowest next log r of any path; the passages are those of K at every
    node."""

    @pytest.mark.parametrize("density", [MIX, SINE], ids=["mixture", "sine"])
    def test_lazy_k_never_moves_a_passage(self, reference_path, density):
        """Thresholds just below, at and just above the largest K the paths
        reach before the final node: the early steps skip K, later ones
        cross, and every frozen value is the reference path's at its
        passage node, bit for bit, for two chunk layouts."""
        cfg, n_paths = small_cfg(), 300
        drift = DriftField(density, cfg.steps)
        paths = [reference_path(density, cfg, p, drift) for p in range(n_paths)]
        r_top = float(np.exp(max(traj.k[:-1].max() for traj in paths)))
        r_values = (r_top * 0.95, np.nextafter(r_top, 0.0), r_top, np.nextafter(r_top, np.inf))
        dt = 1.0 / cfg.steps
        for chunk in (n_paths, 71):
            (stats,) = simulate_batch(cfg, n_paths, [(density, r_values)], chunk)
            n_chunks = len(chunk_sizes(n_paths, chunk))
            assert n_chunks < stats.k_steps < n_chunks * cfg.steps
            assert (stats.stopped[r_values[0]].t_index < cfg.steps).any()
            for p, traj in enumerate(paths):
                vds = np.concatenate([[0.0], np.cumsum(traj.v[:-1, 0] * dt)])
                for r in r_values:
                    sl, t = stats.stopped[r], first_passage(traj, r)
                    assert sl.t_index[p] == t, (chunk, p, r)
                    for got, want in ((sl.k_at_stop, traj.k), (sl.stoch, traj.stoch),
                                      (sl.energy, traj.energy), (sl.vds[:, 0], vds)):
                        assert got[p] == want[t], (chunk, p, r)

    @pytest.mark.parametrize("density", [MIX, SINE], ids=["mixture", "sine"])
    def test_no_k_only_where_no_point_exceeds_the_floor(self, density, rng):
        """Whenever ``eval(i, x, floor)`` leaves K out, the K of the same
        call without a floor is at most floor; otherwise both calls agree,
        and v always does.  The floors hug each window's largest K, on a
        window built far out and on the same window widened."""
        m = 128
        drift = DriftField(density, m)
        skipped = evaluated = 0
        for i in (0, 40, 100, m - 1):
            for x in (rng.normal(size=(50, 1)) * 0.1 + 3.0, rng.normal(size=(500, 1)) * 1.5):
                drift.eval(i, x.copy())
                top = float(drift.tables[i][1].max())
                for floor in (top - 1e-3, np.nextafter(top, -np.inf), top,
                              np.nextafter(top, np.inf), top + 1e-15, top + 1e-12, top + 1.0):
                    (k, v), (k_all, v_all) = drift.eval(i, x.copy(), floor), drift.eval(i, x.copy())
                    assert np.array_equal(v, v_all)
                    if k is None:
                        skipped += 1
                        assert k_all.max() <= floor
                    else:
                        evaluated += 1
                        assert np.array_equal(k, k_all)
        assert skipped and evaluated

    @pytest.mark.parametrize("name, r_values, n_kept", [
        ("mixture", verify.DEFAULT_R_GRID, 1), ("sine", verify.DEFAULT_R_GRID, 1),
        ("mixture", (1.05,), 128), ("mixture", (1.5, E), None),
    ], ids=["mixture", "sine", "mixture_r1.05", "mixture_r1.5"])
    def test_k_is_kept_where_a_step_can_read_it(self, reference_path, families, monkeypatch,
                                                name, r_values, n_kept):
        """At 2000 paths x 128 steps a window keeps K at step 0 and on
        exactly the steps whose ceiling reaches the lowest log r: step 0
        alone for the default thresholds, whose log r is above sup log f,
        every step for the mixture at r = 1.05 (log r 0.049, below every
        ceiling), and the later steps at r = 1.5.  The batch equals the
        reference paths bit for bit, passages included."""
        fields = []
        init = DriftField.__init__

        def keep(self, *args):
            init(self, *args)
            fields.append(self)

        monkeypatch.setattr(DriftField, "__init__", keep)
        density, cfg = families[name], PathConfig(128, 42)
        (stats,) = simulate_batch(cfg, 2000, [(density, r_values)])
        (drift,) = fields
        low = np.log(min(r_values))
        kept = [i for i, (_, k, _) in enumerate(drift.tables) if k is not None]
        assert kept == [0] + [i for i in range(1, 128) if not drift.k_ceilings[i] < low]
        assert len(kept) == n_kept if n_kept else 1 < len(kept) < 127
        # the paths cross before the final node exactly where K is kept later
        assert (stats.stopped[min(r_values)].t_index < 128).any() == (len(kept) > 1)
        shared = DriftField(density, 128)
        for p in range(0, 2000, 97):
            traj = reference_path(density, cfg, p, shared)
            assert stats.k0 == traj.k[0]
            for got, want in zip((stats.x1, stats.v1, stats.k_final, stats.stoch_full,
                                  stats.energy_full),
                                 (traj.x, traj.v, traj.k, traj.stoch, traj.energy)):
                assert np.array_equal(got[p], want[-1]), p
            for r in r_values:
                sl, t = stats.stopped[r], first_passage(traj, r)
                assert sl.t_index[p] == t and sl.k_at_stop[p] == traj.k[t], (p, r)

    def test_widening_rebuilds_k_with_one_raw_call(self, monkeypatch, rng):
        """A window that keeps no K and is widened keeps the extremes of the
        whole window; once its ceiling reaches the lowest log r, one ``raw``
        call over the whole window rebuilds K.  Either way the table equals a
        fresh build of the window bit for bit."""
        m, i = 128, 100
        near, far = rng.normal(size=(50, 1)) * 0.05, rng.normal(size=(50, 1)) * 0.05 + 1.0
        probe = DriftField(MIX, m)
        probe.eval(i, near.copy())
        c_near = probe.k_ceilings[i]
        probe.eval(i, far.copy())
        c_far = probe.k_ceilings[i]
        assert c_near < c_far
        calls = []
        raw = DriftField.raw

        def count(self, s, cells=slice(None)):
            calls.append(cells)
            return raw(self, s, cells)

        monkeypatch.setattr(DriftField, "raw", count)
        for lowest, rebuilt in ((np.nextafter(c_far, np.inf), False), (c_far, True)):
            drift = DriftField(MIX, m, lowest)
            assert drift.eval(i, near.copy(), lowest)[0] is None
            calls.clear()
            k, _ = drift.eval(i, far.copy(), lowest)
            assert (k is not None) == rebuilt
            first, k_tab, v_tab = drift.tables[i]
            whole = slice(first, first + len(v_tab))
            assert (calls[-1] == whole) == rebuilt and len(calls) == 1 + rebuilt
            k_fresh, v_fresh = raw(drift, 1.0 - i / m, whole)
            assert np.array_equal(v_tab, v_fresh[:, 0])
            assert rebuilt == (k_tab is not None) and (k_tab is None or np.array_equal(k_tab, k_fresh))
            assert np.array_equal(drift.k_extremes[i], foellmer._k_extremes(k_fresh))
            assert drift.k_ceilings[i] == c_far

    def test_nan_or_infinite_tables_never_skip(self):
        def ceiling(k):
            return foellmer._k_ceiling(foellmer._k_extremes(np.array(k)))

        assert np.isnan(ceiling([0.0, np.nan, 1.0]))
        assert ceiling([-np.inf, 0.0]) == np.inf
        assert np.isnan(ceiling([-np.inf, -np.inf]))


class WildDrift(DensityModel):
    """log f = 0, with a heat form whose drift is ``drift`` at every point
    on the steps of bandwidth at most ``s_max``, and 0 elsewhere: an
    overflowed (inf) or NaN drift.  Of dim 1 it is tabulated, of dim 2
    not."""

    name, beta = "wild", 0.0

    def __init__(self, drift, dim, s_max=1.0):
        self.drift, self.dim, self.s_max = drift, dim, s_max

    def log_f(self, x):
        return np.zeros(np.shape(x)[:-1])

    def grad_log_f(self, x):
        return np.zeros(np.shape(x))

    def closed_heat_at(self, x):
        def at(s, cells=slice(None)):
            points = x[cells]
            return (np.zeros(points.shape[:-1]),
                    np.full(points.shape, self.drift if s <= self.s_max else 0.0))

        return at


class TestNonFiniteState:
    @pytest.mark.parametrize("dim", [1, 2], ids=["tabulated", "untabulated"])
    @pytest.mark.parametrize("drift, s_max, step", [
        (np.inf, 1.0, 1), (np.nan, 1.0, 1), (np.inf, 1.5 / 128, 128), (np.nan, 1.5 / 128, 128),
    ], ids=["overflow", "nan", "overflow_last_step", "nan_last_step"])
    def test_a_non_finite_state_raises(self, dim, drift, s_max, step):
        """A drift that makes the state non-finite on the first step raises
        before the step sums it, if untabulated, or when the next step
        evaluates the state; on the last step, before or after the loop.
        Each names the non-finite node, no arithmetic on the non-finite
        values warns (the suite turns a RuntimeWarning into an error), and
        no worker is left."""
        density = WildDrift(drift, dim, s_max)
        assert (DriftField(density, 128).grid is None) == (dim == 2)
        before = threading.active_count()
        with pytest.raises(NonFiniteValueError, match=f"path state non-finite at step {step}$"):
            simulate_batch(PathConfig(128, 3), 300, [(density, (E,))], 100)
        assert threading.active_count() == before


class TestTwoDimensional:
    def test_mixture_2d_quadrature_drift_runs(self, heat_kernel):
        """The closed 2-D mixture drift agrees with the heat-kernel
        quadrature on a 24-node rule at the endpoints of a batch."""
        mix2 = MixtureDensity([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], 0.5)
        (stats,) = simulate_batch(PathConfig(steps=128, seed=8), 256, [(mix2, ())])
        assert np.isfinite(stats.x1).all()
        rule = QuadratureRule.gauss_hermite(2, 24)
        for s in (1.0, 0.5, 1.0 / 128):
            for closed, quad in zip(mix2.closed_heat_at(stats.x1)(s),
                                    heat_kernel(mix2, s, stats.x1, rule)):
                assert np.abs(closed - quad).max() < 1e-10
