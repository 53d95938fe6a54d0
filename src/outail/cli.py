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
import functools
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, OutailError
from .foellmer import DEFAULT_STEPS, MIN_STEPS, BatchStats, PathConfig
from .measures import FAMILIES, DensityModel, MixtureDensity, validate_normalization
from .quadrature import MAX_QUADRATURE_DIM
from .reports import CSV_COLUMNS, BoundReport
from .semigroup import DEFAULT_NODES, default_rule, hypercontractivity_check
from . import verify
from .verify import DEFAULT_R_GRID, DEFAULT_T_GRID, canonical_delta

CHECK_TOKENS = (
    "tail", "sharpness", "entropy", "energy", "z", "tv",
    "prop2", "composite", "hessian", "hyper",
)
OUT_ENV_VAR = "OUTAIL_OUT"
DEFAULT_PATHS = 10**5
DEFAULT_SEED = 42
MIN_MC_PATHS = 1000
# The e^Z and Girsanov identities hold for every delta, but the naive mean
# of an exponential martingale is only estimable while log D has moderate
# variance; equality rows cap delta there.  Inequality rows are one-sided
# (their Monte Carlo bias is conservative) and keep the configured rule.
GIRSANOV_EQ_DELTA_MAX = 0.25
# Philox keys are 128-bit.
SEED_LIMIT = 2**128
# The largest fixed delta whose square, in the Girsanov weight and Z, is a
# finite float.
DELTA_MAX = math.sqrt(sys.float_info.max)
# Largest |integral of f d(gamma) - 1| a configured mixture may show on the
# rule the quadrature checks integrate with.  A narrow spread puts the mass
# of each component between the nodes, and a far mean beyond the last one,
# so the checks would integrate a density they cannot see.
NORMALIZATION_TOL = 1e-6


_NEEDS_PATHS = {"entropy", "energy", "z", "tv", "prop2", "composite"}
# Checks that integrate on ``default_rule(dim)``, which exists only up to
# ``MAX_QUADRATURE_DIM``.
_NEEDS_QUADRATURE = {"entropy", "hyper"}


@dataclass(frozen=True)
class ExperimentConfig:
    """The one experiment schema: the field defaults are the defaults of
    config files, ``verify-all`` and ``tail``, and ``__post_init__`` holds
    every range check."""

    family: str
    params: dict
    t_values: tuple[float, ...] = DEFAULT_T_GRID
    r_values: tuple[float, ...] = DEFAULT_R_GRID
    delta: float | None = None          # None: the paper rule ``canonical_delta(r)``
    beta_override: float | None = None  # None: the density's own beta
    paths: int = DEFAULT_PATHS
    steps: int = DEFAULT_STEPS
    seed: int = DEFAULT_SEED
    checks: tuple[str, ...] = CHECK_TOKENS
    out_dir: str = ""                   # "": $OUTAIL_OUT, else reports
    p: float = 2.0

    def __post_init__(self):
        if any(t < 0 for t in self.t_values):
            raise ConfigError("t", "times must be >= 0")
        if any(r <= 1.0 for r in self.r_values):
            raise ConfigError("r", "all thresholds must exceed 1")
        if len(set(self.r_values)) != len(self.r_values):
            raise ConfigError("r", "thresholds must be distinct")
        if self.delta is not None and not 0 <= self.delta <= DELTA_MAX:
            raise ConfigError("delta", f"fixed delta must lie in [0, {DELTA_MAX:.4g}], "
                              "where its square is finite")
        if self.beta_override is not None and not self.beta_override >= 0:
            raise ConfigError("beta", "beta override must be >= 0")
        if self.paths < MIN_MC_PATHS:
            raise ConfigError("paths", f"need >= {MIN_MC_PATHS} paths for MC checks")
        if self.steps < MIN_STEPS:
            raise ConfigError("steps", f"need >= {MIN_STEPS} time steps")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError("seed", "seed must lie in [0, 2**128)")
        if not self.checks:
            raise ConfigError("checks", "list must be non-empty")
        for tok in self.checks:
            if tok not in CHECK_TOKENS:
                raise ConfigError("checks", f"unknown check {tok!r}")
        if not self.p > 1.0:
            raise ConfigError("p", "hypercontractivity needs p > 1")

    def delta_for(self, r: float) -> float:
        return canonical_delta(r) if self.delta is None else self.delta


def _parse_floats(field_name: str, raw: str) -> tuple[float, ...]:
    """A list of finite numbers, separated by ','; ``e<k>`` or ``e^<k>`` is
    e to the k.  ';' separates points, so it is not a separator here."""
    vals = []
    for tok in raw.split(","):
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


def _parse_delta(field_name: str, raw: str) -> float | None:
    if raw == "paper_rule":
        return None
    if not raw.startswith("fixed:"):
        raise ConfigError(field_name, "expected 'paper_rule' or 'fixed:<value>'")
    return _parse_float(field_name, raw[len("fixed:"):])


def _parse_checks(field_name: str, raw: str) -> tuple[str, ...]:
    """Check tokens in order, repeats dropped; ``all`` is every token."""
    tokens = [tok.strip().lower() for tok in raw.split(",") if tok.strip()]
    return tuple(dict.fromkeys(
        check for tok in tokens for check in (CHECK_TOKENS if tok == "all" else (tok,))
    ))


# Config key -> (ExperimentConfig field, parser(key, raw text)).  ``family``
# and the parameters of the chosen family are the only other keys.
CONFIG_KEYS = {
    "t": ("t_values", _parse_floats),
    "r": ("r_values", lambda key, raw: tuple(sorted(_parse_floats(key, raw)))),
    "delta": ("delta", _parse_delta),
    "beta": ("beta_override",
             lambda key, raw: None if raw.lower() == "auto" else _parse_float(key, raw)),
    "paths": ("paths", _parse_int),
    "steps": ("steps", _parse_int),
    "seed": ("seed", _parse_int),
    "checks": ("checks", _parse_checks),
    "out": ("out_dir", lambda key, raw: raw),
    "p": ("p", _parse_float),
}


def parse_config(path) -> ExperimentConfig:
    """Parse the flat key = value config (one [experiment] section).

    Validation failures raise ConfigError naming the offending field and,
    when the key appears in the file, its line number.
    """
    # ';' separates points, so only '#' starts an inline comment
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        parser.read_string(text, source=str(path))
    except (OSError, configparser.Error) as exc:
        # configparser's message spans lines; one line keeps its path and line number
        message = " ".join(str(exc).split())
        raise ConfigError("experiment", f"config does not parse: {message}") from exc
    try:
        return _build_experiment(parser)
    except ConfigError as exc:
        for lineno, line in enumerate(text.splitlines(), start=1):
            # configparser splits at the first '=' or ':' and lower-cases keys
            if re.split("[=:]", line, maxsplit=1)[0].strip().lower() == exc.field:
                raise ConfigError(exc.field, f"line {lineno}: {exc.message}") from None
        raise


def _build_experiment(parser: configparser.ConfigParser) -> ExperimentConfig:
    if "experiment" not in parser:
        raise ConfigError("experiment", "missing [experiment] section")
    sec = parser["experiment"]

    family = sec.get("family", "").strip().lower()
    if family not in FAMILIES:
        raise ConfigError("family", f"unknown family {family!r}")
    defaults = FAMILIES[family].defaults
    params = {
        key: default if key not in sec else _parse_param(key, sec[key], default)
        for key, default in defaults.items()
    }
    fields = {
        name: parse(key, sec[key])
        for key, (name, parse) in CONFIG_KEYS.items() if key in sec
    }
    cfg = ExperimentConfig(family, params, **fields)
    try:
        density = build_density(cfg)  # validates family parameters early
    except ValueError as exc:
        raise ConfigError("family", f"{family} parameters rejected: {exc}") from exc
    too_wide = [tok for tok in cfg.checks if tok in _NEEDS_QUADRATURE]
    if density.dim > MAX_QUADRATURE_DIM and too_wide:
        raise ConfigError("checks", f"{too_wide[0]!r} integrates on the tensorized quadrature "
                          f"rule, which supports dim <= {MAX_QUADRATURE_DIM}; {family} has "
                          f"dim {density.dim}")
    if isinstance(density, MixtureDensity) and density.dim <= MAX_QUADRATURE_DIM:
        residual = validate_normalization(density, default_rule(density.dim))
        if not residual <= NORMALIZATION_TOL:
            raise ConfigError("family", f"mixture has normalization residual {residual:.3g} on the "
                              f"{DEFAULT_NODES}-node rule (limit {NORMALIZATION_TOL:g}): "
                              f"spread {density.spread:g} or largest |mean| "
                              f"{np.abs(density.means).max():g} puts the mass out of its reach")
    unknown = [key for key in sec if key != "family" and key not in CONFIG_KEYS
               and key not in defaults]
    if unknown:
        raise ConfigError(unknown[0], f"unknown key(s) {', '.join(unknown)}")
    return cfg


def build_density(cfg: ExperimentConfig) -> DensityModel:
    """The config's member; a ridge vector v of n > 1 entries becomes (|v|,)."""
    family, params = FAMILIES[cfg.family], dict(cfg.params)
    if len(params.get(family.ridge, ())) > 1:
        with np.errstate(over="ignore"):  # an overflow gives inf, which the family rejects
            params[family.ridge] = (float(np.linalg.norm(params[family.ridge])),)
    return family.build(**params)


@dataclass
class RunResult:
    rows: list[BoundReport] = field(default_factory=list)
    csv_path: Path | None = None
    json_path: Path | None = None
    exit_code: int = 0


def collect_rows(cfg: ExperimentConfig, stats: BatchStats | None = None) -> list[BoundReport]:
    """Run the selected checks for one family config, in config order.

    ``stats`` is the config's path batch, which ``_run_configs`` simulates;
    None when no check reads paths.  The ``tail`` rows at each t come from one
    ``verify.tail_curve``, in increasing r."""
    density = build_density(cfg)
    beta = density.beta if cfg.beta_override is None else cfg.beta_override
    # one perturbation record per distinct (r, delta), read by all its rows
    pert = functools.cache(lambda r, d: verify.perturbation_arrays(stats, density, r, d, beta))
    rows: list[BoundReport] = []
    for tok in cfg.checks:
        if tok == "tail":
            for t in cfg.t_values:
                curve = verify.tail_curve(density, t, cfg.r_values,
                                          n_samples=cfg.paths, seed=cfg.seed)
                tails = [_tail_row(density, t, *point, cfg) for point in zip(*curve)]
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
                rows.extend(verify.girsanov_reports(
                    stats, density, pert(r, min(d, GIRSANOV_EQ_DELTA_MAX))))
                rows.extend(verify.z_suite_reports(stats, density, pert(r, d)))
        elif tok == "tv":
            for r in cfg.r_values:
                rows.extend(verify.tv_reports(stats, density, pert(r, cfg.delta_for(r))))
        elif tok == "prop2":
            for r in cfg.r_values:
                rows.append(verify.shell_shift_report(stats, density, pert(r, cfg.delta_for(r))))
        elif tok == "composite":
            for r in cfg.r_values:
                rows.extend(verify.composite_reports(stats, density, r))
        elif tok == "hessian":
            for t in cfg.t_values:
                if t > 0:
                    rows.append(verify.hessian_floor_report(density, t))
        elif tok == "hyper":
            for t in cfg.t_values:
                if t > 0:
                    rows.append(hypercontractivity_check(density, cfg.p, t))
    n = len(cfg.params.get(FAMILIES[cfg.family].ridge, ()))  # the dim of a ridge config
    return [replace(row, dim=n) for row in rows] if n > 1 else rows


def _tail_row(density: DensityModel, t: float, r: float, est: float, ci: float,
              cfg: ExperimentConfig) -> BoundReport:
    """The ``tail_markov`` row of one point of the tail curve at t; a NaN
    estimate, a tail Monte Carlo cannot resolve, gives the unanchored
    ``tail_markov!exact_required`` row."""
    meta = dict(family=density.name, dim=density.dim, t=t, r=r,
                beta=density.beta, seed=cfg.seed, n_samples=cfg.paths)
    if math.isnan(est):
        nan = float("nan")
        return BoundReport(name="tail_markov!exact_required", estimate=nan,
                           ci_half_width=nan, bound=nan, **meta)
    return BoundReport(name="tail_markov", estimate=est, ci_half_width=ci, bound=1.0 / r, **meta)


def _ceiling_row(
    density: DensityModel, t: float, tails: list[BoundReport], cfg: ExperimentConfig
) -> BoundReport:
    """Largest OU-tail constant ``tail * r * sqrt(log r) * min(1, t)`` over
    the resolved ``tail_markov`` rows at t; NaN when no threshold resolves.
    Its half-width is the largest tail half-width in the same units, each
    scaled by its row's factor."""
    resolved = [row for row in tails if row.name == "tail_markov"]
    est = ci = float("nan")
    if resolved:
        r = np.array([row.r for row in resolved])
        scaled = lambda values: float((np.array(values) * r * np.sqrt(np.log(r)) * min(1.0, t)).max())
        est = scaled([row.estimate for row in resolved])
        ci = scaled([row.ci_half_width for row in resolved])
    return BoundReport(
        name="tail_curve_ceiling", family=density.name, dim=density.dim,
        t=t, beta=density.beta, estimate=est, ci_half_width=ci,
        bound=verify.DESK_RATIO_CEILING,
        n_samples=len(cfg.r_values), seed=cfg.seed,
    )


def rows_to_csv_text(rows: list[BoundReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.csv_row())
    return buf.getvalue()


def passage_diagnostics(stats: BatchStats) -> list[dict]:
    """Per threshold of a batch: the fraction of paths whose K never
    exceeds log r, up to the final node included, and the median and
    largest overshoot of K over log r at the stop, over the other paths;
    JSON null for a non-finite value and for the overshoot when none."""
    def num(v) -> float | None:
        return float(v) if math.isfinite(v) else None

    out = []
    for r, sl in stats.stopped.items():
        never = (sl.t_index == stats.steps) & (sl.k_at_stop <= np.log(r))
        over = sl.overshoot()[~never]
        out.append({"r": r, "never_stopped": num(np.mean(never)),
                    "overshoot_median": num(np.median(over)) if over.size else None,
                    "overshoot_max": num(over.max()) if over.size else None})
    return out


def _out_dir(out_dir) -> Path:
    """``out_dir``, or ``$OUTAIL_OUT`` if empty, else ``reports``, created;
    a ConfigError naming ``out`` if it cannot be."""
    out = Path(out_dir or os.environ.get(OUT_ENV_VAR, "reports"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out", f"cannot create directory {str(out)!r}: {exc.strerror}") from exc
    return out


def write_reports(
    rows: list[BoundReport], out_dir, stem: str, seed: int, batches: dict | None = None,
) -> RunResult:
    """Write ``<stem>.csv`` and ``<stem>.json`` into ``_out_dir(out_dir)``;
    ``batches`` maps each simulated family to its ``BatchStats``, whose
    ``passage_diagnostics``, drift grid clamps, ``k_steps`` and drift table
    bytes the JSON carries."""
    batches = batches or {}
    out = _out_dir(out_dir)
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
             "anchored": r.anchored, "vacuous": r.vacuous,
             "margin": r.margin if math.isfinite(r.margin) else None}  # JSON has no NaN
            for r in rows
        ],
        "diagnostics": {family: passage_diagnostics(stats) for family, stats in batches.items()},
        "drift_grid_clamps": {family: stats.drift_grid_clamps for family, stats in batches.items()},
        "k_steps": {family: stats.k_steps for family, stats in batches.items()},
        "drift_table_bytes": {family: dict(zip(("K", "v"), stats.drift_table_bytes))
                              for family, stats in batches.items()},
    }
    json_path = out / f"{stem}.json"
    json_path.write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    return RunResult(
        rows=rows, csv_path=csv_path, json_path=json_path,
        exit_code=0 if not anchored_failures else 1,
    )


def _run_configs(cfgs: list[ExperimentConfig], out: Path, stem: str,
                 chunk_paths: int | None) -> RunResult:
    """Run the checks of ``cfgs``, of distinct families that share
    ``paths``, ``steps`` and ``seed``, and write their rows in config order
    as ``stem`` in ``out``.  The configs whose checks read paths share one
    ``verify.simulate_batch`` call; none is made when no config's do."""
    first = cfgs[0]
    simulated = [cfg for cfg in cfgs if not _NEEDS_PATHS.isdisjoint(cfg.checks)]
    jobs = [(build_density(cfg), cfg.r_values) for cfg in simulated]
    stats = verify.simulate_batch(PathConfig(first.steps, first.seed), first.paths, jobs,
                                  chunk_paths) if jobs else []
    batches = {cfg.family: batch for cfg, batch in zip(simulated, stats)}
    rows = [row for cfg in cfgs for row in collect_rows(cfg, batches.get(cfg.family))]
    return write_reports(rows, out, stem, first.seed, batches)


def run(config_path, out_dir=None, chunk_paths: int | None = None) -> RunResult:
    cfg = parse_config(config_path)
    out = _out_dir(out_dir or cfg.out_dir)  # a bad directory fails before the batch
    return _run_configs([cfg], out, "report", chunk_paths)


def verify_all(
    seed: int = DEFAULT_SEED,
    out_dir=None,
    paths: int = DEFAULT_PATHS,
    steps: int = DEFAULT_STEPS,
    chunk_paths: int | None = None,
) -> RunResult:
    """Default experiment matrix: every family, check, t, and r.  Every
    config is checked before the first simulation starts.  Every family
    runs with ``seed``, on the same paths: one ``simulate_batch`` call
    draws each chunk of normals once and steps it for every family."""
    cfgs = [
        ExperimentConfig(name, FAMILIES[name].defaults, paths=paths, steps=steps, seed=seed)
        for name in sorted(FAMILIES)
    ]
    return _run_configs(cfgs, _out_dir(out_dir), "verify_all", chunk_paths)


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="outail", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the checks described by a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--chunk-size", type=_positive_int, default=None)

    p_all = sub.add_parser("verify-all", help="run the default experiment matrix")
    p_all.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_all.add_argument("--out", default=None)
    p_all.add_argument("--paths", type=int, default=DEFAULT_PATHS)
    p_all.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p_all.add_argument("--chunk-size", type=_positive_int, default=None)

    # tail and sharpness read their values as config text, so one parser
    # and one set of range checks cover every entry point
    p_tail = sub.add_parser("tail", help="one tail probability of a default family member")
    p_tail.add_argument("--family", choices=tuple(FAMILIES), default="tilt")
    p_tail.add_argument("--t", default="0")
    p_tail.add_argument("--r", required=True)

    p_sharp = sub.add_parser("sharpness", help="matched-tilt lower-bound constants")
    p_sharp.add_argument("--r", default=verify.SHARPNESS_R_GRID)

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
            cfg = ExperimentConfig(
                args.family, FAMILIES[args.family].defaults,
                t_values=(_parse_float("t", args.t),), r_values=(_parse_float("r", args.r),),
            )
            (t,), (r,) = cfg.t_values, cfg.r_values
            est, ci = verify.tail_probability(build_density(cfg), t, r)
            print(f"tail({args.family}, t={t:g}, r={r:g}) = {est:.6e} +- {ci:.2e}")
            return 0
        # sharpness, the one command left
        r_grid = _parse_floats("r", args.r) if isinstance(args.r, str) else args.r
        cfg = ExperimentConfig("tilt", FAMILIES["tilt"].defaults, r_values=r_grid)
        for r, c in zip(cfg.r_values, verify.sharpness_values(cfg.r_values)):
            print(f"r={r:.6g}  c_hat={c:.6f}")
        return 0
    except OutailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _emit_summary(result: RunResult) -> None:
    for row in result.rows:
        # only an anchored failure fails the run; an unanchored miss is a note
        status = "PASS" if row.passed else "FAIL" if row.anchored else "NOTE"
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
