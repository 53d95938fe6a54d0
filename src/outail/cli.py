"""Batch experiment runner.

Reads a flat INI-style config, simulates the requested family once, runs the
selected checks against the shared path batch, and writes a CSV of bound
reports plus a JSON summary.  CSV bodies are byte-identical for a fixed
(config, seed) regardless of worker chunking; timestamps live only in the
JSON.  Exit status is 0 iff every anchored check passes.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, OutailError, ResolutionError
from .foellmer import MIN_STEPS
from .measures import FAMILIES, DensityModel
from .reports import CSV_COLUMNS, BoundReport, TailCurve
from .semigroup import hypercontractivity_check
from . import verify
from .verify import (
    DEFAULT_R_GRID,
    DEFAULT_T_GRID,
    canonical_delta,
    simulate_family_batch,
)

CHECK_TOKENS = (
    "tail", "sharpness", "entropy", "energy", "z", "tv",
    "prop2", "composite", "hessian", "hyper",
)
OUT_ENV_VAR = "OUTAIL_OUT"
MIN_MC_PATHS = 1000
# The e^Z and Girsanov identities hold for every delta, but the naive mean
# of an exponential martingale is only estimable while log D has moderate
# variance; equality rows cap delta there.  Inequality rows are one-sided
# (their Monte Carlo bias is conservative) and keep the configured rule.
GIRSANOV_EQ_DELTA_MAX = 0.25
# Philox keys are 128-bit.
SEED_LIMIT = 2**128


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    params: dict
    dim: int
    t_values: tuple[float, ...]
    r_values: tuple[float, ...]
    delta_rule: str          # "paper_rule" or "fixed"
    delta_value: float       # used when delta_rule == "fixed"
    beta_override: float | None
    paths: int
    steps: int
    seed: int
    checks: tuple[str, ...]
    out_dir: str
    p: float = 2.0

    def __post_init__(self):
        """Every value check of a config, for parsed files and verify-all alike."""
        if any(t < 0 for t in self.t_values):
            raise ConfigError("t", "times must be >= 0")
        if any(r <= 1.0 for r in self.r_values):
            raise ConfigError("r", "all thresholds must exceed 1")
        if len(set(self.r_values)) != len(self.r_values):
            raise ConfigError("r", "thresholds must be distinct")
        if self.delta_rule == "fixed" and not self.delta_value >= 0:
            raise ConfigError("delta", "fixed delta must be >= 0")
        if self.beta_override is not None and not self.beta_override >= 0:
            raise ConfigError("beta", "beta override must be >= 0")
        if self.paths < MIN_MC_PATHS:
            raise ConfigError("paths", f"need >= {MIN_MC_PATHS} paths for MC checks")
        if self.steps < MIN_STEPS:
            raise ConfigError("steps", f"need >= {MIN_STEPS} time steps")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError("seed", "seed must lie in [0, 2**128)")
        if not self.p > 1.0:
            raise ConfigError("p", "hypercontractivity needs p > 1")

    def delta_for(self, r: float) -> float:
        return canonical_delta(r) if self.delta_rule == "paper_rule" else self.delta_value


def _parse_floats(field_name: str, raw: str) -> tuple[float, ...]:
    """A list of finite numbers; ``e<k>`` or ``e^<k>`` is e to the k."""
    vals = []
    for tok in raw.replace(";", ",").split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            if tok in ("e", "E"):
                vals.append(float(np.e))
            elif tok[0] in "eE" and tok[1:].lstrip("^").strip():
                with np.errstate(over="ignore"):  # an overflow is rejected below
                    vals.append(float(np.exp(float(tok[1:].lstrip("^")))))
            else:
                vals.append(float(tok))
        except ValueError as exc:
            raise ConfigError(field_name, f"cannot parse value {tok!r}") from exc
        if not math.isfinite(vals[-1]):
            raise ConfigError(field_name, f"value {tok!r} is not finite")
    if not vals:
        raise ConfigError(field_name, "list must be non-empty")
    return tuple(vals)


def _parse_float(field_name: str, raw: str) -> float:
    vals = _parse_floats(field_name, raw)
    if len(vals) != 1:
        raise ConfigError(field_name, f"expected one value, got {len(vals)}")
    return vals[0]


def _parse_int(field_name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(field_name, f"cannot parse integer {raw!r}") from exc


def _parse_param(field_name: str, raw: str, default):
    """A family parameter in the shape of its default: a scalar, a vector,
    or a tuple of points.  Points are separated by ';'; a single row lists
    1-D points."""
    if not isinstance(default, tuple):
        return _parse_float(field_name, raw)
    if not isinstance(default[0], tuple):
        return _parse_floats(field_name, raw)
    rows = [_parse_floats(field_name, row) for row in raw.split(";") if row.strip()]
    if len(rows) == 1:
        return tuple((v,) for v in rows[0])
    if len({len(row) for row in rows}) != 1:
        raise ConfigError(field_name, "rows must share one dimension")
    return tuple(rows)


def parse_config(path) -> ExperimentConfig:
    """Parse the flat key = value config (one [experiment] section).

    Validation failures raise ConfigError naming the offending field and,
    when the key appears in the file, its line number.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        parser.read_string(text)
    except (OSError, configparser.Error) as exc:
        raise ConfigError("experiment", f"config does not parse: {exc}") from exc
    try:
        return _build_experiment(parser)
    except ConfigError as exc:
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.split("=", 1)[0].strip() == exc.field:
                raise ConfigError(exc.field, f"line {lineno}: {exc.message}") from None
        raise


def _build_experiment(parser: configparser.ConfigParser) -> ExperimentConfig:
    if "experiment" not in parser:
        raise ConfigError("experiment", "missing [experiment] section")
    sec = parser["experiment"]

    family = sec.get("family", "").strip().lower()
    if family not in FAMILIES:
        raise ConfigError("family", f"unknown family {family!r}")
    params = {
        key: default if key not in sec else _parse_param(key, sec[key], default)
        for key, default in FAMILIES[family].defaults.items()
    }

    t_values = _parse_floats("t", sec.get("t", "0.1, 0.5, 1.0"))
    r_values = tuple(sorted(_parse_floats("r", sec.get("r", "e1, e2, e4"))))

    delta_raw = sec.get("delta", "paper_rule").strip()
    if delta_raw == "paper_rule":
        delta_rule, delta_value = "paper_rule", float("nan")
    elif delta_raw.startswith("fixed:"):
        delta_rule = "fixed"
        delta_value = _parse_float("delta", delta_raw.split(":", 1)[1])
    else:
        raise ConfigError("delta", "expected 'paper_rule' or 'fixed:<value>'")

    beta_raw = sec.get("beta", "auto").strip().lower()
    beta_override = None if beta_raw == "auto" else _parse_float("beta", beta_raw)

    raw_checks = [c.strip().lower() for c in sec.get("checks", "all").split(",") if c.strip()]
    if not raw_checks:
        raise ConfigError("checks", "list must be non-empty")
    checks: list[str] = []
    for tok in raw_checks:
        if tok == "all":
            checks.extend(c for c in CHECK_TOKENS if c not in checks)
        elif tok in CHECK_TOKENS:
            if tok not in checks:
                checks.append(tok)
        else:
            raise ConfigError("checks", f"unknown check {tok!r}")

    out_dir = sec.get("out", "") or os.environ.get(OUT_ENV_VAR, "reports")
    cfg = ExperimentConfig(
        family=family,
        params=params,
        dim=_parse_int("dim", sec.get("dim", "0")),
        t_values=t_values,
        r_values=r_values,
        delta_rule=delta_rule,
        delta_value=delta_value,
        beta_override=beta_override,
        paths=_parse_int("paths", sec.get("paths", "100000")),
        steps=_parse_int("steps", sec.get("steps", "2048")),
        seed=_parse_int("seed", sec.get("seed", "42")),
        checks=tuple(checks),
        out_dir=out_dir,
        p=_parse_float("p", sec.get("p", "2.0")),
    )
    try:
        density = build_density(cfg)  # validates family parameters early
    except ValueError as exc:
        raise ConfigError("family", f"{family} parameters rejected: {exc}") from exc
    if cfg.dim and density.dim != cfg.dim:
        raise ConfigError("dim", f"family parameters imply dim {density.dim}, config says {cfg.dim}")
    return cfg


def build_density(cfg: ExperimentConfig) -> DensityModel:
    return FAMILIES[cfg.family].build(**cfg.params)


@dataclass
class RunResult:
    rows: list[BoundReport] = field(default_factory=list)
    csv_path: Path | None = None
    json_path: Path | None = None
    exit_code: int = 0


_NEEDS_PATHS = {"entropy", "energy", "z", "tv", "prop2", "composite"}


def collect_rows(cfg: ExperimentConfig, chunk_paths: int | None = None) -> list[BoundReport]:
    """Run the selected checks for one family config, in config order."""
    density = build_density(cfg)
    beta = density.beta if cfg.beta_override is None else cfg.beta_override
    stats = None
    if any(tok in _NEEDS_PATHS for tok in cfg.checks):
        stats = simulate_family_batch(
            density, n_paths=cfg.paths, steps=cfg.steps, seed=cfg.seed,
            r_values=cfg.r_values, chunk_paths=chunk_paths,
        )
    rows: list[BoundReport] = []
    for tok in cfg.checks:
        if tok == "tail":
            for t in cfg.t_values:
                tails = [_tail_row(density, t, r, cfg) for r in cfg.r_values]
                rows.extend(tails)
                rows.append(_ceiling_row(density, t, tails, cfg))
        elif tok == "sharpness":
            rows.append(verify.sharpness_report(seed=cfg.seed))
        elif tok == "entropy":
            rows.append(verify.entropy_identity_report(stats, density))
        elif tok == "energy":
            rows.extend(verify.drift_energy_report(stats, density, r) for r in cfg.r_values)
        elif tok == "z":
            for r in cfg.r_values:
                d = cfg.delta_for(r)
                d_eq = min(d, GIRSANOV_EQ_DELTA_MAX)
                rows.extend(verify.girsanov_reports(stats, density, r, d_eq, beta=beta))
                rows.extend(verify.z_suite_reports(stats, density, r, d, beta=beta))
        elif tok == "tv":
            for r in cfg.r_values:
                rows.extend(verify.tv_reports(stats, density, r, cfg.delta_for(r), beta=beta))
        elif tok == "prop2":
            for r in cfg.r_values:
                rows.append(verify.shell_shift_report(stats, density, r, cfg.delta_for(r), beta=beta))
        elif tok == "composite":
            for r in cfg.r_values:
                rows.extend(verify.composite_reports(stats, density, r))
        elif tok == "hessian":
            for t in cfg.t_values:
                if t > 0:
                    rows.append(verify.hessian_floor_report(density, t))
        elif tok == "hyper":
            if density.dim <= 2:
                for t in cfg.t_values:
                    if t > 0:
                        rows.append(hypercontractivity_check(density, cfg.p, t))
    return rows


def _tail_row(density: DensityModel, t: float, r: float, cfg: ExperimentConfig) -> BoundReport:
    meta = dict(family=density.name, dim=density.dim, t=t, r=r,
                beta=density.beta, seed=cfg.seed)
    try:
        est, ci = verify.tail_probability(
            density, t, r, method="auto", n_samples=cfg.paths, seed=cfg.seed
        )
    except ResolutionError:
        return BoundReport(
            name="tail_markov!exact_required", estimate=float("nan"),
            ci_half_width=float("nan"), bound=float("nan"),
            n_samples=cfg.paths, anchored=False, **meta,
        )
    return BoundReport(
        name="tail_markov", estimate=est, ci_half_width=ci, bound=1.0 / r,
        n_samples=cfg.paths, **meta,
    )


def _ceiling_row(
    density: DensityModel, t: float, tails: list[BoundReport], cfg: ExperimentConfig
) -> BoundReport:
    """Largest OU-tail constant over the resolved ``tail_markov`` rows at t;
    NaN when no threshold resolves."""
    resolved = [row for row in tails if row.name == "tail_markov"]
    est = ci = float("nan")
    if resolved:
        curve = TailCurve(
            family=density.name, t=t, r_grid=np.array([row.r for row in resolved]),
            tail=np.array([row.estimate for row in resolved]),
            ci=np.array([row.ci_half_width for row in resolved]),
            method="auto", beta=density.beta,
        )
        est, ci = curve.c_hat, float(curve.ci.max(initial=0.0))
    return BoundReport(
        name="tail_curve_ceiling", family=density.name, dim=density.dim,
        t=t, beta=density.beta, estimate=est, ci_half_width=ci,
        bound=verify.DESK_RATIO_CEILING,
        n_samples=len(cfg.r_values), seed=cfg.seed, anchored=False,
    )


def rows_to_csv_text(rows: list[BoundReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.csv_row())
    return buf.getvalue()


def write_reports(rows: list[BoundReport], out_dir, stem: str, seed: int) -> RunResult:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{stem}.csv"
    csv_path.write_text(rows_to_csv_text(rows), encoding="utf-8")
    anchored_failures = [r.name for r in rows if r.anchored and not r.passed]
    finite = [r for r in rows if math.isfinite(r.margin + r.ci_half_width)]
    worst = min(finite, key=lambda r: r.margin + r.ci_half_width, default=None)
    summary = {
        "created": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "n_rows": len(rows),
        "n_pass": sum(r.passed for r in rows),
        "n_fail": sum(not r.passed for r in rows),
        "anchored_failures": anchored_failures,
        "worst_margin": (
            {"name": worst.name, "family": worst.family,
             "slack": worst.margin + worst.ci_half_width}
            if worst else None
        ),
        "rows": [
            {"name": r.name, "family": r.family, "pass": r.passed,
             "anchored": r.anchored,
             "margin": r.margin if math.isfinite(r.margin) else None}  # JSON has no NaN
            for r in rows
        ],
    }
    json_path = out / f"{stem}.json"
    json_path.write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    return RunResult(
        rows=rows, csv_path=csv_path, json_path=json_path,
        exit_code=0 if not anchored_failures else 1,
    )


def run(config_path, out_dir=None, chunk_paths: int | None = None) -> RunResult:
    cfg = parse_config(config_path)
    rows = collect_rows(cfg, chunk_paths=chunk_paths)
    return write_reports(rows, out_dir or cfg.out_dir, "report", cfg.seed)


def verify_all(
    seed: int = 42,
    out_dir=None,
    paths: int = 10**5,
    steps: int = 2048,
    chunk_paths: int | None = None,
) -> RunResult:
    """Default experiment matrix: every family, check, t, and r.  Every
    config is checked before the first simulation starts."""
    cfgs = [
        ExperimentConfig(
            family=name,
            params=dict(FAMILIES[name].defaults),
            dim=0,
            t_values=DEFAULT_T_GRID,
            r_values=DEFAULT_R_GRID,
            delta_rule="paper_rule",
            delta_value=float("nan"),
            beta_override=None,
            paths=paths,
            steps=steps,
            seed=seed + offset,
            checks=CHECK_TOKENS,
            out_dir="",
        )
        for offset, name in enumerate(sorted(FAMILIES))
    ]
    rows = [row for cfg in cfgs for row in collect_rows(cfg, chunk_paths=chunk_paths)]
    return write_reports(rows, out_dir or os.environ.get(OUT_ENV_VAR, "reports"), "verify_all", seed)


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(raw: str) -> int:
    value = int(raw)
    if not 0 <= value < SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**128), got {value}")
    return value


def _time(raw: str) -> float:
    value = float(raw)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {raw}")
    return value


def _threshold(raw: str) -> float:
    value = float(raw)
    if not (math.isfinite(value) and value > 1.0):
        raise argparse.ArgumentTypeError(f"must be finite and exceed 1, got {raw}")
    return value


def _thresholds(raw: str) -> tuple[float, ...]:
    """Thresholds in config syntax, each above 1."""
    try:
        r_grid = _parse_floats("r", raw)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(exc.message) from None
    if not all(r > 1.0 for r in r_grid):
        raise argparse.ArgumentTypeError(f"thresholds must exceed 1, got {raw}")
    return r_grid


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="outail", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the checks described by a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--chunk-size", type=_positive_int, default=None)

    p_all = sub.add_parser("verify-all", help="run the default experiment matrix")
    p_all.add_argument("--seed", type=int, default=42)
    p_all.add_argument("--out", default=None)
    p_all.add_argument("--paths", type=int, default=10**5)
    p_all.add_argument("--steps", type=int, default=2048)
    p_all.add_argument("--chunk-size", type=_positive_int, default=None)

    p_tail = sub.add_parser("tail", help="one tail probability")
    p_tail.add_argument("--family", choices=tuple(FAMILIES), default="tilt")
    p_tail.add_argument("--t", type=_time, default=0.0)
    p_tail.add_argument("--r", type=_threshold, required=True)
    p_tail.add_argument("--method", default="auto",
                        choices=("auto", "exact", "quadrature", "monte_carlo"))
    p_tail.add_argument("--paths", type=_positive_int, default=10**5)
    p_tail.add_argument("--seed", type=_seed, default=42)

    p_sharp = sub.add_parser("sharpness", help="matched-tilt lower-bound constants")
    p_sharp.add_argument("--r", type=_thresholds, default="e2, e4, e8, e16")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            result = run(args.config, out_dir=args.out, chunk_paths=args.chunk_size)
            _emit_summary(result)
            return result.exit_code
        if args.command == "verify-all":
            result = verify_all(
                seed=args.seed, out_dir=args.out, paths=args.paths,
                steps=args.steps, chunk_paths=args.chunk_size,
            )
            _emit_summary(result)
            return result.exit_code
        if args.command == "tail":
            density = verify.default_families()[args.family]
            est, ci = verify.tail_probability(
                density, args.t, args.r, method=args.method,
                n_samples=args.paths, seed=args.seed,
            )
            print(f"tail({args.family}, t={args.t:g}, r={args.r:g}) = {est:.6e} +- {ci:.2e}")
            return 0
        if args.command == "sharpness":
            for r, c in zip(args.r, verify.sharpness_values(args.r)):
                print(f"r={r:.6g}  c_hat={c:.6f}")
            return 0
    except OutailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _emit_summary(result: RunResult) -> None:
    for row in result.rows:
        status = "PASS" if row.passed else "FAIL"
        tags = [row.family]
        if not np.isnan(row.t):
            tags.append(f"t={row.t:g}")
        if not np.isnan(row.r):
            tags.append(f"r={row.r:g}")
        print(f"[{status}] {row.name:<28} {' '.join(tags)}")
    print(f"reports: {result.csv_path}")
    print(f"summary: {result.json_path}")


if __name__ == "__main__":
    sys.exit(main())
