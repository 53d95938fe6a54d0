"""Benchmark workloads: inputs generated from a seed, and the rows each run owes.

Every workload is a list of CLI invocations (``outail verify-all`` or
``outail run <config>``).  Each invocation carries the family specs it
covers, from which the benchmark derives, on its own, the report rows the
run must produce.  Nothing here imports the package under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

E = math.e
PATH_TOKENS = ("entropy", "energy", "z", "tv", "prop2", "composite")
ANALYTIC_TOKENS = ("tail", "sharpness", "hessian", "hyper")
ALL_TOKENS = (
    "tail", "sharpness", "entropy", "energy", "z", "tv",
    "prop2", "composite", "hessian", "hyper",
)
CHECKPOINT_TIMES = (0.25, 0.5, 0.75)

VERIFY_ALL_PATHS = 20000
VERIFY_ALL_STEPS = 2048
RSWEEP_PATHS = 6000
RSWEEP_STEPS = 2048
# Path and step counts of the analytic configs: only path checks and the
# Monte Carlo tail method read them, and none runs (every family is 1-D).
ANALYTIC_PATHS, ANALYTIC_STEPS = 1000, 2048
ANALYTIC_T_GRID = (0.0, 0.02, 0.1, 0.3, 0.6, 1.0)
# log r from just above 0 to 16: the low end lies inside the range of log f
# for mixture and sine, the high end probes the far tilt tail.
ANALYTIC_LOG_R = (0.01, 0.03, 0.08, 0.2, 0.45, 1.0, 4.0, 16.0)
RSWEEP_LOG_R_LO, RSWEEP_LOG_R_HI, RSWEEP_N_R = 0.25, 6.0, 16

WORKLOADS = ("verify-all", "analytic", "r-sweep")
# The documented default families.  The seed moves thresholds and Monte Carlo
# seeds only: the wave number and tilt size set how many level-set crossings
# and passages there are, so varying them would vary the work per round.
DEFAULT_PARAMS = {
    "mixture": {"weights": (0.5, 0.5), "means": (-1.0, 1.0), "spread": 0.5},
    "sine": {"eps": 0.3, "wave": (2.0,)},
    "tilt": {"u": (2.0,)},
}


@dataclass(frozen=True)
class FamilySpec:
    """One family run as the CLI sees it: parameters, grids and checks."""

    family: str
    params: dict
    t_values: tuple
    r_values: tuple
    checks: tuple
    paths: int
    steps: int
    seed: int
    p: float = 2.0

    def config_text(self) -> str:
        def floats(vals):
            return ", ".join(repr(float(v)) for v in vals)

        lines = ["[experiment]", f"family = {self.family}"]
        for key, val in self.params.items():
            lines.append(f"{key} = {floats(val) if isinstance(val, tuple) else repr(float(val))}")
        lines += [
            f"t = {floats(self.t_values)}",
            f"r = {floats(self.r_values)}",
            "delta = paper_rule",
            "beta = auto",
            f"paths = {self.paths}",
            f"steps = {self.steps}",
            f"seed = {self.seed}",
            f"checks = {', '.join(self.checks)}",
            f"p = {self.p!r}",
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Invocation:
    """One CLI process: its arguments and the family runs it covers."""

    label: str
    command: str            # "verify-all" or "run"
    specs: tuple            # FamilySpec, in CLI order
    seed: int = 0           # verify-all --seed
    paths: int = 0          # verify-all --paths
    steps: int = 0          # verify-all --steps

    @property
    def stem(self) -> str:
        return "verify_all" if self.command == "verify-all" else "report"

    def argv(self, out_dir: Path, config_path: Path | None = None,
             chunk_size: int | None = None) -> list:
        if self.command == "verify-all":
            args = ["verify-all", "--seed", str(self.seed), "--paths", str(self.paths),
                    "--steps", str(self.steps), "--out", str(out_dir)]
        else:
            args = ["run", str(config_path), "--out", str(out_dir)]
        if chunk_size is not None:
            args += ["--chunk-size", str(chunk_size)]
        return args


def verify_all_invocation(seed: int, paths: int, steps: int) -> Invocation:
    """The default matrix, as ``outail verify-all`` documents it.

    Families run in name order with seeds seed, seed+1, seed+2.
    """
    specs = tuple(
        FamilySpec(
            family=name, params=DEFAULT_PARAMS[name], t_values=(0.1, 0.5, 1.0),
            r_values=(E, E ** 2, E ** 4), checks=ALL_TOKENS,
            paths=paths, steps=steps, seed=seed + offset,
        )
        for offset, name in enumerate(sorted(DEFAULT_PARAMS))
    )
    return Invocation("verify-all", "verify-all", specs, seed=seed, paths=paths, steps=steps)


def make_workload(name: str, seed: int, scale: float = 1.0) -> list:
    """The invocations of one workload round for a benchmark seed.

    ``scale`` shrinks path counts and step counts for the self-test only.
    """
    rng = random.Random(f"{name}:{seed}")
    prog_seed = rng.randrange(1, 2 ** 31)
    if name == "verify-all":
        paths = max(1000, int(VERIFY_ALL_PATHS * scale))
        steps = max(100, int(VERIFY_ALL_STEPS * scale))
        return [verify_all_invocation(prog_seed, paths, steps)]
    if name == "analytic":
        log_r = tuple(x * rng.uniform(0.98, 1.02) for x in ANALYTIC_LOG_R)
        r_values = tuple(math.exp(x) for x in log_r)
        t_values = ANALYTIC_T_GRID
        if scale < 1.0:
            r_values, t_values = r_values[::3], t_values[::2]
        return [
            Invocation(f"analytic-{fam}", "run", (FamilySpec(
                family=fam, params=DEFAULT_PARAMS[fam], t_values=t_values,
                r_values=r_values, checks=ANALYTIC_TOKENS,
                paths=ANALYTIC_PATHS, steps=ANALYTIC_STEPS, seed=prog_seed,
            ),))
            for fam in ("tilt", "mixture", "sine")
        ]
    if name == "r-sweep":
        n_r = RSWEEP_N_R if scale >= 1.0 else 4
        step = (RSWEEP_LOG_R_HI - RSWEEP_LOG_R_LO) / (n_r - 1)
        log_r = [RSWEEP_LOG_R_LO + i * step for i in range(n_r)]
        # small jitter inside each cell keeps the grid increasing and its ends fixed
        log_r = [x + (rng.uniform(-0.1, 0.1) * step if 0 < i < n_r - 1 else 0.0)
                 for i, x in enumerate(log_r)]
        spec = FamilySpec(
            family="tilt", params=DEFAULT_PARAMS["tilt"], t_values=(0.5,),
            r_values=tuple(math.exp(x) for x in log_r), checks=PATH_TOKENS,
            paths=max(1000, int(RSWEEP_PATHS * scale)),
            steps=max(100, int(RSWEEP_STEPS * scale)), seed=prog_seed,
        )
        return [Invocation("r-sweep", "run", (spec,))]
    raise ValueError(f"unknown workload {name!r}")


# -- expected rows ------------------------------------------------------------


def fkey(v) -> str:
    """A float as the CSV writes it ('' for a missing value)."""
    return "" if v is None else repr(float(v))


def expected_rows(spec: FamilySpec) -> list:
    """(name, family, t, r) of every row the CLI documents for this spec."""
    fam = spec.family
    out = []

    def add(name, t=None, r=None, family=fam):
        out.append((name, family, fkey(t), fkey(r)))

    positive_t = [t for t in spec.t_values if t > 0]
    for tok in spec.checks:
        if tok == "tail":
            for t in spec.t_values:
                for r in sorted(spec.r_values):
                    add("tail_markov", t, r)
                add("tail_curve_ceiling", t)
        elif tok == "sharpness":
            add("sharpness_floor", family="tilt")
        elif tok == "entropy":
            add("entropy_identity_gap")
        elif tok == "energy":
            for r in spec.r_values:
                add("drift_energy", r=r)
        elif tok == "z":
            for r in spec.r_values:
                for name in ("girsanov_mean_gap", "girsanov_product_gap", "convexity_floor"):
                    add(name, r=r)
                if fam == "tilt":
                    add("pathwise_product_floor", r=r)
                for name in ("exp_moment", "deviation_bound", "deviation_budget"):
                    add(name, r=r)
                for tc in CHECKPOINT_TIMES:
                    add(f"drift_martingale_gap@{tc:g}", t=tc, r=r)
        elif tok == "tv":
            for r in spec.r_values:
                add("tv_lower_bound", r=r)
                add("tv_pinsker", r=r)
        elif tok == "prop2":
            for r in spec.r_values:
                add("shell_shift", r=r)
        elif tok == "composite":
            for r in spec.r_values:
                add("shell_ratio", r=r)
                add("tail_reduction", r=r)
        elif tok == "hessian":
            for t in positive_t:
                add("log_hessian_floor", t)
        elif tok == "hyper":
            for t in positive_t:
                add("hypercontractivity", t)
    return out
