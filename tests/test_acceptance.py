"""Acceptance suite: one test per release criterion.

Each test prints a `[PASS]`/`[FAIL]` line (run with -s to stream them) and
asserts the criterion at its stated tolerance.  The heavy path batches come
from the session fixtures (10^5 paths, 2048 steps per family).
"""

import csv
import io
from pathlib import Path

import numpy as np
from scipy.special import ndtr
from scipy.stats import norm

from outail.cli import verify_all
from outail.foellmer import perturbation_arrays
from outail.measures import MixtureDensity, TiltDensity
from outail.semigroup import ou_log
from outail.stats import KS_CRIT, DenseCdf, ks_one_sample
from outail.verify import (
    DEFAULT_R_GRID,
    HESSIAN_PROBES,
    composite_reports,
    drift_energy_report,
    entropy_identity_report,
    girsanov_reports,
    hessian_floor_report,
    canonical_delta,
    relative_entropy_quadrature,
    sharpness_values,
    shell_shift_report,
    tail_curve,
    tv_reports,
    z_suite_reports,
)

E = float(np.e)
# seed-42 verify-all CSV at 2000 paths x 128 steps; a change to these bytes
# is a re-baseline and must be stated with its reason
GOLDEN_CSV = Path(__file__).parent / "data" / "verify_all_seed42_2000x128.csv"


def csv_mismatch(got: bytes, want: bytes, shown: int = 5) -> str:
    """The first rows where CSV ``got`` differs from ``want``, each named by
    (name, family, t, r) with the columns that changed."""
    got_rows, want_rows = (list(csv.DictReader(io.StringIO(b.decode()))) for b in (got, want))
    pairs = [(g, w) for g, w in zip(got_rows, want_rows) if g != w]
    lines = [f"{len(pairs)} rows differ, {len(got_rows)} rows against {len(want_rows)}"]
    for g, w in pairs[:shown]:
        key = tuple(w[k] for k in ("name", "family", "t", "r"))
        lines.append(f"  {key}: {', '.join(c for c in w if g.get(c) != w[c])}")
    return "\n".join(lines)


def on_record(builder, stats, density, r, delta):
    """``builder``'s rows on the perturbation record at (r, delta) and the
    density's own beta."""
    return builder(stats, density, perturbation_arrays(stats, density, r, delta, density.beta))


def criterion(n, description, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {n:>2}: {description}")
    assert ok, f"criterion {n}: {description}"


def test_01_tilt_semigroup_closed_form():
    """Quadrature OU transform of the tilt equals the shrunk tilt to 1e-8."""
    worst = 0.0
    for alpha in np.linspace(0.25, 3.0, 5):
        tilt = TiltDensity([alpha])
        for t in (0.05, 0.25, 0.5, 1.0, 2.0):
            image = tilt.closed_ou(t)
            xs = np.linspace(-3.0, 3.0, 5)
            got = ou_log(tilt, t, xs)
            expected = image.log_f(xs)
            # relative error of the values, computed in log scale
            worst = max(worst, float(np.abs(np.expm1(got - expected)).max()))
    criterion(1, f"tilt OU closed form, worst rel err {worst:.2e} < 1e-8", worst < 1e-8)


def test_02_log_hessian_floor(families):
    """lambda_min(Hess log Q_t f) + 1/(2t) >= -1e-5 on 50-point probes."""
    assert np.array_equal(HESSIAN_PROBES, np.linspace(-4.0, 4.0, 50))
    worst = min(-hessian_floor_report(families[name], t).estimate
                for name in ("mixture", "sine") for t in (0.1, 0.5, 1.0))
    criterion(2, f"log-Hessian floor margin {worst:.2e} >= -1e-5", worst >= -1e-5)


def test_03_law_of_endpoint(batches, families):
    """KS distance of 10^5 endpoints vs the quadrature CDF of f dgamma."""
    n = batches["tilt"].n_paths
    crit = KS_CRIT / np.sqrt(n)
    cdfs = {
        "tilt": lambda x: ndtr(x - 2.0),
        "mixture": lambda x: 0.5 * ndtr((x + 1) / np.sqrt(0.5)) + 0.5 * ndtr((x - 1) / np.sqrt(0.5)),
        "sine": DenseCdf(families["sine"].log_f),
    }
    worst, results = 0.0, []
    for name, stats in batches.items():
        d = ks_one_sample(stats.x1[:, 0], cdfs[name])
        results.append(f"{name} {d:.5f}")
        worst = max(worst, d)
    criterion(3, f"endpoint law KS ({', '.join(results)}) < {crit:.5f}", worst < crit)


def test_04_entropy_identity(batches, families):
    """Half the expected drift energy equals the relative entropy."""
    tilt_mc = 0.5 * batches["tilt"].energy_full.mean()
    ok = abs(tilt_mc - 2.0) < 1e-10  # constant drift: zero-variance estimate
    gaps = [f"tilt {abs(tilt_mc - 2.0):.2e}"]
    for name in ("mixture", "sine"):
        rep = entropy_identity_report(batches[name], families[name])
        gaps.append(f"{name} {rep.estimate:.2e}<= {rep.ci_half_width:.2e}")
        ok = ok and rep.passed
    criterion(4, f"entropy identity ({'; '.join(gaps)})", ok)


def test_05_drift_energy_budget(batches, families):
    """E[stopped drift energy] <= 2 log r + 3 SE on the default matrix."""
    ok = True
    worst = np.inf
    for name, stats in batches.items():
        for r in DEFAULT_R_GRID:
            rep = drift_energy_report(stats, families[name], r)
            worst = min(worst, rep.margin + rep.ci_half_width)
            ok = ok and rep.passed
    criterion(5, f"drift energy budget, worst slack {worst:.4f} >= 0", ok)


def test_06_girsanov_suite(batches, families):
    """E[D] = 1, E[f(X^d) D] = 1 (3 SE), pathwise product floor on 10^5 paths."""
    reps = on_record(girsanov_reports, batches["tilt"], families["tilt"], E**2, 0.1)
    by = {r.name: r for r in reps}
    arr = perturbation_arrays(batches["tilt"], families["tilt"], E**2, 0.1, 0.0)
    floor_fraction = float((arr.product_excess >= np.log1p(-1e-6)).mean())
    ok = (
        by["girsanov_mean_gap"].passed
        and by["girsanov_product_gap"].passed
        and floor_fraction == 1.0
    )
    # curved families: same pathwise content net of the Ito reconstruction
    # residual, i.e. the convexity floor
    for name in ("mixture", "sine"):
        stats = batches[name]
        arr = perturbation_arrays(stats, families[name], E**2, 0.1, families[name].beta)
        excess = arr.product_excess - stats.fvt_residual() - stats.k0
        ok = ok and bool((excess >= np.log1p(-1e-6)).all())
    criterion(6, f"Girsanov suite (pathwise floor on {floor_fraction:.2%} of paths)", ok)


def test_07_deviation_variable_suite(batches, families, rng):
    """E[e^Z] <= 1; P(Z <= -2) <= min(-E[Z], budget); synthetic battery."""
    reps = on_record(z_suite_reports, batches["tilt"], families["tilt"], E**2, 0.1)
    ok = all(r.passed for r in reps if not r.name.startswith("drift_martingale"))

    # closed-form battery for the deviation lemma
    c = np.log(2.0)
    p_exp, m_exp = np.exp(-(2.0 + c)), c - 1.0
    ok = ok and p_exp <= -m_exp
    for m in (-0.1, -0.5, -2.0):
        sigma = np.sqrt(-2.0 * m)
        ok = ok and norm.cdf((-2.0 - m) / sigma) <= -m
    p2 = 0.3
    b = np.log((1.0 - p2 * np.exp(-3.0)) / (1.0 - p2))
    ok = ok and p2 <= -(p2 * (-3.0) + (1.0 - p2) * b)
    criterion(7, "deviation-variable suite incl. closed-form battery", ok)


def test_08_tv_budget(batches, families):
    """Empirical TV lower bound <= delta sqrt((beta+1) log r) + envelope."""
    ok = True
    for name, stats in batches.items():
        for r in DEFAULT_R_GRID:
            rep = on_record(tv_reports, stats, families[name], r, canonical_delta(r))[0]
            ok = ok and rep.passed
    # non-vacuous fixed-delta cell
    rep = on_record(tv_reports, batches["tilt"], families["tilt"], E**4, 0.05)[0]
    ok = ok and rep.passed and rep.bound < 1.0
    criterion(8, "total-variation budget across matrix + fixed-delta cell", ok)


def test_09_shell_shift(batches, families):
    """Perturbed shell inequality margin >= -3 SE across the matrix."""
    worst = np.inf
    ok = True
    for name, stats in batches.items():
        for r in DEFAULT_R_GRID:
            rep = on_record(shell_shift_report, stats, families[name], r, canonical_delta(r))
            worst = min(worst, rep.margin + rep.ci_half_width)
            ok = ok and rep.passed
    criterion(9, f"shell-shift inequality, worst slack {worst:.4f}", ok)


def test_10_sharpness_floor():
    """Matched-tilt constants stay above 0.1; value at e^8 is ~0.267."""
    vals = sharpness_values((E**2, E**4, E**8, E**16))
    oracle = norm.sf(4.0) * E**8 * np.sqrt(8.0)
    ok = bool(np.all(vals >= 0.1)) and abs(vals[2] - oracle) < 1e-12 and abs(vals[2] - 0.267) < 1e-3
    criterion(10, f"sharpness values {np.round(vals, 4)} >= 0.1", ok)


def test_11_tail_curve_envelopes(families):
    """Normalized tail ratios stay under the ceiling and Markov envelope."""
    def markov_ok(r, tail, ci):
        return bool(np.all(tail <= 1.0 / r + ci + 1e-12))

    ok = True
    trend_flags = []
    for r in (E**2, E**4, E**6, E**8):
        alpha = np.sqrt(2.0 * np.log(r)) * np.exp(1.0)
        rs, tail, ci = tail_curve(TiltDensity([alpha]), 1.0, (r,))
        ok = ok and markov_ok(rs, tail, ci) and float(tail[0] * r * np.sqrt(np.log(r))) <= 20.0
    peaky = MixtureDensity([0.5, 0.5], [-2.0, 2.0], 0.25)
    for t in (0.1, 0.5, 1.0):
        r, tail, ci = tail_curve(peaky, t, (1.5, 2.0, 5.0, 10.0))
        ratio = tail * r * np.sqrt(np.log(r)) / max(peaky.beta, 1.0)
        ok = ok and markov_ok(r, tail, ci) and bool(np.all(ratio <= 20.0))
        # a flag, not an assertion: the tail is non-increasing along the grid
        trend_flags.append(bool(np.all(np.diff(tail) <= ci[:-1] + ci[1:] + 1e-12)))
    r, tail, ci = tail_curve(families["sine"], 0.5, DEFAULT_R_GRID)
    ok = ok and markov_ok(r, tail, ci) and bool(np.all(tail == 0.0))
    criterion(11, f"tail ratios <= 20 and Markov envelope (trend flags {trend_flags})", ok)


def test_12_negative_control(batches, families):
    """Understating beta by 10x must break at least one check."""
    mix = families["mixture"]
    bad_beta = mix.beta / 10.0
    stats = batches["mixture"]
    failing = []
    arr = perturbation_arrays(stats, mix, E, 0.3, bad_beta)
    if float(arr.convexity_margin.min()) < -1e-6:
        failing.append("convexity_floor")
    for r in DEFAULT_R_GRID:
        pert = perturbation_arrays(stats, mix, r, canonical_delta(r), bad_beta)
        rep = shell_shift_report(stats, mix, pert)
        if not rep.passed:
            failing.append(f"shell_shift r={r:g}")
    criterion(12, f"negative control trips {failing or 'nothing'}", len(failing) > 0)


def test_13_determinism(tmp_path):
    """verify-all reproduces byte-identical CSV across runs and chunkings,
    and matches the committed seed-42 CSV.

    A change that moves these bytes on purpose re-pins the golden file with
    the ``verify_all.csv`` written by
    ``outail verify-all --seed 42 --paths 2000 --steps 128``.
    """
    r1 = verify_all(seed=42, out_dir=tmp_path / "a", paths=2000, steps=128)
    r2 = verify_all(seed=42, out_dir=tmp_path / "b", paths=2000, steps=128)
    r3 = verify_all(seed=42, out_dir=tmp_path / "c", paths=2000, steps=128, chunk_paths=307)
    got = r1.csv_path.read_bytes()
    others = {"second run": r2.csv_path.read_bytes(), "chunk_paths=307": r3.csv_path.read_bytes(),
              "golden file": GOLDEN_CSV.read_bytes()}
    diffs = [f"\nagainst the {label}: {csv_mismatch(got, want)}"
             for label, want in others.items() if got != want]
    criterion(13, "byte-identical verify-all CSV across runs, chunkings and the golden file"
              + "".join(diffs), not diffs and r1.exit_code == 0)
