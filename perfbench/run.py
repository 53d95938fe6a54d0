"""Benchmark of the outail verification lab.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 15 --trace 0

Run from the repository root.  Each run generates the workload's inputs from
--seed, checks once at small scale that the verify-all CSV does not depend on
--chunk-size, times the set-up of a CLI process several times, then runs whole
rounds of the workload through the CLI (one process at a time) until --seconds
have passed, checking every output.  The last line of standard output is one
JSON object: with --trace 0 the end-to-end metrics (medians over rounds), with
--trace 1 the per-layer metrics of a traced run.  --workload all runs every
workload in turn and prints a table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_checks import CheckResult, check_invocation  # noqa: E402
from bench_spans import PER_LAYER, layer_metrics, unit_of  # noqa: E402
from bench_workloads import WORKLOADS, make_workload, verify_all_invocation  # noqa: E402

SETUP_PROBES = 5
DETERMINISM_PATHS, DETERMINISM_STEPS, DETERMINISM_CHUNKS = 1000, 128, (1000, 384)
RUN_DEADLINE_S = 170.0
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


class Runner:
    """Spawns CLI processes for one benchmark run inside the checkout."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def spawn(self, argv: list) -> tuple:
        """Run one process to its end: (exit code, peak RSS in MiB)."""
        with open(self.work / "stderr.log", "ab") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=self.root)
            while True:
                pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    proc.kill()
                    _, status, ru = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, ru.ru_maxrss / 1024.0

    def child(self, tag: str, cli_args: list, *opts) -> tuple:
        """bench_child.py around ``outail.cli.main``: (report dict, peak MiB)."""
        report = self.work / f"{tag}.report.json"
        code, peak = self.spawn([sys.executable, str(HERE / "bench_child.py"), str(report),
                                 *opts, "--", *cli_args])
        info = json.loads(report.read_text()) if report.exists() else {}
        info["exit"] = code
        return info, peak


def determinism_check(runner: Runner, seed: int) -> str:
    """'' when the small verify-all CSV is identical under two chunk sizes."""
    inv = verify_all_invocation(seed, DETERMINISM_PATHS, DETERMINISM_STEPS)
    texts = []
    for chunk in DETERMINISM_CHUNKS:
        out = runner.work / f"determinism-{chunk}"
        code, _ = runner.spawn([sys.executable, "-m", "outail", *inv.argv(out, chunk_size=chunk)])
        csv_path = out / "verify_all.csv"
        if code not in (0, 1) or not csv_path.exists():
            return f"determinism run with --chunk-size {chunk} exited {code}"
        texts.append(csv_path.read_bytes())
    return "" if texts[0] == texts[1] else "verify-all CSV differs between chunk sizes"


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, probes: int = SETUP_PROBES, determinism: bool = True) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    ``scale``, ``probes`` and ``determinism`` shrink the run for the self-test only.
    """
    if not (root / "src" / "outail" / "cli.py").is_file():
        raise BenchError(f"no outail sources under {root / 'src'}; run from the repository root")
    work = root / ".perfbench" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_in(Runner(root, work, time.monotonic() + RUN_DEADLINE_S), name, seed,
                       seconds, trace, scale, probes, determinism)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(runner: Runner, name, seed, seconds, trace, scale, probes, determinism) -> dict:
    work = runner.work
    invocations = make_workload(name, seed, scale)
    configs = {}
    for inv in invocations:
        if inv.command == "run":
            configs[inv.label] = work / f"{inv.label}.ini"
            configs[inv.label].write_text(inv.specs[0].config_text())

    deterministic = determinism_check(runner, seed) if determinism else ""
    problems = [deterministic] if deterministic else []

    setup = []
    if not trace:
        for k in range(probes):
            inv = invocations[k % len(invocations)]
            t_spawn = time.monotonic()
            info, _ = runner.child(f"setup{k}", inv.argv(work, configs.get(inv.label)), "--setup-only")
            if info.get("exit") != 0 or "ready" not in info:
                raise BenchError(f"set-up probe of {inv.label} failed (exit {info.get('exit')})")
            setup.append(info["ready"] - t_spawn)

    checks = CheckResult()
    rounds = []
    timed_from = time.monotonic()
    while True:
        k = len(rounds)
        wall = cpu = peak = 0.0
        layers: dict = {}
        for inv in invocations:
            out = work / f"round{k}-{inv.label}"
            trace_path = work / f"round{k}-{inv.label}.trace.json"
            opts = ("--trace", str(trace_path)) if trace else ()
            info, rss = runner.child(f"round{k}-{inv.label}",
                                     inv.argv(out, configs.get(inv.label)), *opts)
            checks.add(check_invocation(inv, out, info["exit"]))
            peak = max(peak, rss)
            if "end" in info:
                wall += info["end"] - info["start"]
                cpu += info["cpu_s"]
                if trace:
                    _merge_layers(layers, layer_metrics(json.loads(trace_path.read_text())))
        rounds.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak, **layers})
        if time.monotonic() - timed_from >= seconds or time.monotonic() > runner.deadline:
            break

    problems += checks.problems
    if trace:
        kept = {inv.label: json.loads(p.read_text()) for inv in invocations
                if (p := work / f"round0-{inv.label}.trace.json").exists()}
        (work.parent / f"trace-{name}.json").write_text(json.dumps(kept))
        metrics = {m: _median(rounds, m) for m in PER_LAYER}
    else:
        metrics = {m: _median(rounds, m) for m, _ in END_TO_END[:3]}
        metrics["setup_s"] = statistics.median(setup)
    units = dict(END_TO_END)
    return {
        "correct": checks.whole_ok and not deterministic,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m: {"value": v, "unit": units.get(m) or unit_of(m)} for m, v in metrics.items()},
        "rounds": len(rounds),
        "seed_dependent_misses": checks.seed_dependent_misses,
        "problems": problems[:20],
    }


def _merge_layers(acc: dict, one: dict) -> None:
    for metric, value in one.items():
        if metric.endswith("_peak_mb"):
            acc[metric] = max(acc.get(metric, 0.0), value)
        else:
            acc[metric] = acc.get(metric, 0) + value


def _median(rounds: list, metric: str):
    return statistics.median(r.get(metric, 0) for r in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, res in results.items():
        for problem in res.pop("problems"):
            print(f"{name}: {problem}", file=sys.stderr)
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"rounds {res.pop('rounds')}, seed-dependent misses "
              f"{res.pop('seed_dependent_misses')}, correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"{name}:   {metric} = {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
