"""Output checks made outside the program under test.

Every expected row is one operation.  A row fails when it is missing, when
its ``pass`` column disagrees with ``bound - estimate + ci >= 0``, when it is
anchored and fails (except the seed-dependent rows below), or when it fails
an independent check computed here with scipy.  Every row of a process fails
when its reports are unreadable or disagree with each other or with its exit
status (0 exactly when no anchored row fails, 1 otherwise).
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import logsumexp
from scipy.stats import norm

from bench_workloads import Invocation, expected_rows

CSV_COLUMNS = [
    "name", "family", "dim", "t", "r", "delta", "beta",
    "estimate", "ci", "bound", "margin", "pass", "n_samples", "seed",
]
SHARPNESS_LOG_R = (2.0, 4.0, 8.0, 16.0)
# Monte Carlo rows that test an identity (or a bound the identity attains)
# at a 3-standard-error half-width.  Their verdict changes with the seed,
# so it is reported but not counted; every other check still applies.
SEED_DEPENDENT = frozenset({
    "girsanov_mean_gap", "girsanov_product_gap", "exp_moment",
    "entropy_identity_gap", "drift_energy",
})
SEED_DEPENDENT_PREFIX = "drift_martingale_gap@"

REL_TOL = 1e-10
HYPER_REL_TOL = 1e-8      # the program's own relative tolerance for the row
HESSIAN_TOL = 1e-5        # the program's finite-difference tolerance
ENERGY_REL_TOL = 1e-9     # rounding of 2048 Euler sums of |u|^2 dt
TAIL_ABS_TOL = 1e-9
MONOTONE_TOL = 1e-12


def seed_dependent(name: str) -> bool:
    return name in SEED_DEPENDENT or name.startswith(SEED_DEPENDENT_PREFIX)


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    whole_ok: bool = True        # False when a process wrote rows the workload does not expect
    seed_dependent_misses: int = 0
    problems: list = field(default_factory=list)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.whole_ok &= other.whole_ok
        self.seed_dependent_misses += other.seed_dependent_misses
        self.problems += other.problems


def _float(text: str) -> float:
    return float(text) if text else math.nan


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= abs_tol + rel * abs(b)


def read_reports(out_dir: Path, stem: str):
    """CSV rows as dicts and the strictly parsed JSON summary."""
    with open(out_dir / f"{stem}.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_COLUMNS:
            raise ValueError(f"CSV header {header} is not the documented column order")
        rows = [dict(zip(header, rec)) for rec in reader]
    summary = json.loads((out_dir / f"{stem}.json").read_text(encoding="utf-8"),
                         parse_constant=_reject_constant)
    return rows, summary


def check_invocation(inv: Invocation, out_dir: Path, exit_code: int) -> CheckResult:
    expected = [key for spec in inv.specs for key in expected_rows(spec)]
    res = CheckResult(attempted=len(expected))
    try:
        if exit_code not in (0, 1):
            raise ValueError(f"exit status {exit_code}")
        rows, summary = read_reports(out_dir, inv.stem)
        _check_summary(rows, summary, exit_code)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        res.failed = len(expected)
        res.problems.append(f"{inv.label}: {exc}")
        return res

    bad = Counter()
    got = Counter()
    for i, row in enumerate(rows):
        key = (row["name"], row["family"], row["t"], row["r"])
        got[key] += 1
        reason = _row_problem(row, summary["rows"][i]["anchored"])
        if reason == "seed-dependent":
            res.seed_dependent_misses += 1
        elif reason:
            bad[key] += 1
            res.problems.append(f"{inv.label}: {key}: {reason}")
    specs = {spec.family: spec for spec in inv.specs}
    for key, reason in _independent_problems(rows, specs):
        bad[key] += 1
        res.problems.append(f"{inv.label}: {key}: {reason}")

    want = Counter(expected)
    missing = want - got
    extra = got - want
    if extra:
        res.whole_ok = False
        res.problems.append(f"{inv.label}: unexpected rows {sorted(extra)[:5]}")
    if missing:
        res.problems.append(f"{inv.label}: missing rows {sorted(missing)[:5]}")
    # a key appears more than once only for the per-family sharpness rows
    res.failed = sum(missing.values()) + sum(min(n, want[k]) for k, n in bad.items() if k in want)
    return res


def _check_summary(rows: list, summary: dict, exit_code: int) -> None:
    """The JSON agrees with the CSV, and the exit status is 0 exactly when no
    anchored row fails (1 otherwise), as the CLI documents."""
    n_pass = sum(row["pass"] == "True" for row in rows)
    counts = (summary["n_rows"], summary["n_pass"], summary["n_fail"])
    if counts != (len(rows), n_pass, len(rows) - n_pass):
        raise ValueError(f"JSON counts {counts} disagree with the CSV")
    names = [(r["name"], r["family"]) for r in summary["rows"]]
    if names != [(r["name"], r["family"]) for r in rows]:
        raise ValueError("JSON rows do not follow the CSV rows")
    failing = [js["name"] for js, row in zip(summary["rows"], rows)
               if js["anchored"] and row["pass"] != "True"]
    if summary["anchored_failures"] != failing:
        raise ValueError("JSON anchored_failures disagree with the rows")
    if exit_code != (1 if failing else 0):
        raise ValueError(f"exit status {exit_code} with {len(failing)} anchored failures")


def _row_problem(row: dict, anchored: bool) -> str:
    est, ci, bound = _float(row["estimate"]), _float(row["ci"]), _float(row["bound"])
    total = bound - est + ci
    recomputed = total >= 0.0  # False for NaN, as in BoundReport.passed
    if row["pass"] != str(recomputed):
        return f"pass={row['pass']} but bound - estimate + ci = {total!r}"
    if anchored and not recomputed:
        return "seed-dependent" if seed_dependent(row["name"]) else "anchored row fails"
    return ""


# -- independent checks ---------------------------------------------------------


def _independent_problems(rows: list, specs: dict):
    """Yield (key, reason) for rows that disagree with a computation made here."""
    by_family: dict = {}
    for row in rows:
        by_family.setdefault(row["family"], []).append(row)
    for row in rows:
        if row["name"] == "sharpness_floor":
            want = -min(norm.sf(math.sqrt(2.0 * lr)) * math.exp(lr) * math.sqrt(lr)
                        for lr in SHARPNESS_LOG_R)
            if not _close(_float(row["estimate"]), want, REL_TOL):
                yield _key(row), f"sharpness floor {row['estimate']} != {want!r}"
    for fam, fam_rows in by_family.items():
        spec = specs.get(fam)
        if spec is None:
            continue
        if fam == "tilt":
            yield from _tilt_problems(fam_rows, spec)
        elif fam == "mixture":
            yield from _mixture_problems(fam_rows, spec)
        elif fam == "sine":
            yield from _monotone_tail_problems(fam_rows)


def _key(row: dict) -> tuple:
    return (row["name"], row["family"], row["t"], row["r"])


def tilt_tail(u: float, t: float, r: float) -> float:
    """gamma({Q_t f > r}) for the tilt: the Gaussian tail at log r / a + a / 2."""
    a = abs(u) * math.exp(-t)
    return float(norm.sf(math.log(r) / a + 0.5 * a))


def _tilt_problems(rows: list, spec):
    u = math.sqrt(sum(c * c for c in spec.params["u"]))
    energies = []
    for row in rows:
        name, est = row["name"], _float(row["estimate"])
        t, r = _float(row["t"]), _float(row["r"])
        if name == "tail_markov":
            want = tilt_tail(u, t, r)
            if not _close(est, want, REL_TOL):
                yield _key(row), f"tilt tail {est!r} != {want!r}"
        elif name == "tail_reduction":
            want = tilt_tail(u, 0.0, r)
            if not _close(est, want, REL_TOL):
                yield _key(row), f"t = 0 tail {est!r} != {want!r}"
        elif name == "hypercontractivity":
            want = math.exp((spec.p - 1.0) * u * u / 2.0)
            if not (_close(est, want, HYPER_REL_TOL) and _close(_float(row["bound"]), want, HYPER_REL_TOL)):
                yield _key(row), f"equality case {est!r} / {row['bound']} != {want!r}"
        elif name == "log_hessian_floor":
            if not _close(est, -0.5 / t, 0.0, HESSIAN_TOL):
                yield _key(row), f"Hessian floor {est!r} != {-0.5 / t!r}"
        elif name == "entropy_identity_gap":
            if not _close(est, 0.0, 0.0, ENERGY_REL_TOL * max(1.0, u * u / 2.0)):
                yield _key(row), f"entropy gap {est!r} against H = |u|^2/2"
        elif name == "drift_energy":
            energies.append((r, est, row))
    energies.sort(key=lambda item: item[0])
    for i, (r, est, row) in enumerate(energies):
        if not est <= u * u * (1.0 + ENERGY_REL_TOL):
            yield _key(row), f"stopped energy {est!r} above |u|^2 = {u * u!r}"
        if i and est < energies[i - 1][1]:
            yield _key(row), f"stopped energy decreases in r ({energies[i - 1][1]!r} -> {est!r})"


def mixture_log_ou(params: dict, t: float, x: np.ndarray) -> np.ndarray:
    """log Q_t f for a 1-D Gaussian mixture: its OU image stays a mixture
    with means a_j e^-t and spread 1 + e^-2t (s - 1)."""
    rho = math.exp(-t)
    s = 1.0 + rho * rho * (params["spread"] - 1.0)
    w = np.asarray(params["weights"], dtype=float)
    m = rho * np.asarray(params["means"], dtype=float)
    x = np.asarray(x, dtype=float)[..., None]
    comp = np.log(w / w.sum()) - 0.5 * math.log(s) - (x - m) ** 2 / (2.0 * s) + 0.5 * x * x
    return logsumexp(comp, axis=-1)


def superlevel_masses(fn, levels, lo: float = -20.0, hi: float = 20.0,
                      n: int = 100001) -> list:
    """gamma_1 mass of {fn > level} for each level, for a function that tends
    to -inf at both ends of [lo, hi]."""
    xs = np.linspace(lo, hi, n)
    g = fn(xs)
    one = lambda z: float(fn(np.array([z]))[0])
    # refine the local maxima, which a grid cell could hide, before bracketing
    peaks = np.nonzero((g[1:-1] >= g[:-2]) & (g[1:-1] >= g[2:]))[0] + 1
    pts, vals = list(xs), list(g)
    for i in peaks:
        opt = minimize_scalar(lambda z: -one(z), bounds=(xs[i - 1], xs[i + 1]),
                              method="bounded", options={"xatol": 1e-13})
        pts.append(opt.x)
        vals.append(-opt.fun)
    order = np.argsort(pts)
    pts, vals = np.asarray(pts)[order], np.asarray(vals)[order]
    masses = []
    for level in levels:
        above = vals > level
        if above[0] or above[-1]:
            raise ValueError("super-level set reaches the edge of the search range")
        edges = [brentq(lambda z: one(z) - level, pts[i], pts[i + 1], xtol=1e-14)
                 for i in np.nonzero(above[1:] != above[:-1])[0]]
        masses.append(float(sum(norm.cdf(b) - norm.cdf(a)
                                for a, b in zip(edges[::2], edges[1::2]))))
    return masses


def _mixture_problems(rows: list, spec):
    by_t: dict = {}
    for row in rows:
        if row["name"] == "tail_markov":
            by_t.setdefault(_float(row["t"]), []).append(row)
    for t, t_rows in by_t.items():
        levels = [math.log(_float(row["r"])) for row in t_rows]
        try:
            wants = superlevel_masses(lambda x: mixture_log_ou(spec.params, t, x), levels)
        except ValueError as exc:
            for row in t_rows:
                yield _key(row), f"mixture tail not computed: {exc}"
            continue
        for row, want in zip(t_rows, wants):
            est = _float(row["estimate"])
            if not _close(est, want, 1e-7, TAIL_ABS_TOL):
                yield _key(row), f"mixture tail {est!r} != {want!r}"


def _monotone_tail_problems(rows: list):
    by_t: dict = {}
    for row in rows:
        if row["name"] == "tail_markov":
            by_t.setdefault(row["t"], []).append((_float(row["r"]), _float(row["estimate"]), row))
    for series in by_t.values():
        series.sort(key=lambda item: item[0])
        for (_, prev, _), (_, est, row) in zip(series, series[1:]):
            if not est <= prev + MONOTONE_TOL:
                yield _key(row), f"tail rises with r ({prev!r} -> {est!r})"
