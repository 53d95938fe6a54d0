"""In-memory spans and counters around the package's public functions.

``install`` rebinds each traced function under the name its caller looks it
up by (``path_normals`` inside ``foellmer``, ``ou_log`` inside ``semigroup``
and ``verify``, ``verify.*`` as ``cli`` calls them), so no source file of the
package changes.  A span is (name, start, end, parent index); a layer's self
time is its span minus the spans directly under it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# token -> functions the CLI calls for it, by span name
TOKEN_SPANS = {
    "tail": ("cli._tail_row", "verify.tail_curve"),
    "sharpness": ("verify.sharpness_report",),
    "entropy": ("verify.entropy_identity_report",),
    "energy": ("verify.drift_energy_report",),
    "z": ("verify.girsanov_reports", "verify.z_suite_reports"),
    "tv": ("verify.tv_reports",),
    "prop2": ("verify.shell_shift_report",),
    "composite": ("verify.composite_reports",),
    "hessian": ("verify.hessian_floor_report",),
    "hyper": ("semigroup.hypercontractivity",),
}
# per-layer metric -> span name whose inclusive time it reports
SPAN_METRICS = {
    "rng.path_normals_s": "rng.path_normals",
    "foellmer.simulate_batch_s": "foellmer.simulate_batch",
    "foellmer.drift_raw_s": "foellmer.drift_raw",
    "foellmer.drift_eval_s": "foellmer.drift_eval",
    "foellmer.perturbation_arrays_s": "foellmer.perturbation_arrays",
    "quadrature.gauss_hermite_s": "quadrature.gauss_hermite",
    "semigroup.ou_log_s": "semigroup.ou_log",
    "semigroup.hypercontractivity_s": "semigroup.hypercontractivity",
    "stats.superlevel_gamma_mass_s": "stats.superlevel_gamma_mass",
    "stats.ks_two_sample_s": "stats.ks_two_sample",
    "stats.batch_means_s": "stats.batch_means",
    "verify.tail_probability_s": "verify.tail_probability",
    "cli.parse_config_s": "cli.parse_config",
    "cli.write_reports_s": "cli.write_reports",
    "cli.main_s": "cli.main",
}
COUNT_METRICS = (
    "rng.normals_drawn", "rng.path_normals_minflt", "foellmer.path_steps",
    "foellmer.drift_raw_calls", "foellmer.perturbation_arrays_calls",
    "foellmer.perturbation_arrays_distinct", "measures.log_f_points",
    "quadrature.gauss_hermite_calls", "quadrature.gauss_hermite_distinct",
    "semigroup.ou_log_calls", "semigroup.ou_log_minflt",
    "verify.tail_probability_calls", "verify.tail_probability_distinct",
)
PER_LAYER = (
    tuple(SPAN_METRICS) + COUNT_METRICS
    + ("foellmer.step_loop_self_s", "foellmer.simulate_batch_peak_mb")
    + tuple(f"verify.token.{tok}_s" for tok in TOKEN_SPANS)
)
MIB = 1024.0 * 1024.0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    return "count"


PAGE = os.sysconf("SC_PAGE_SIZE")
SAMPLE_S = 0.002


def _rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * PAGE


class PeakSampler:
    """Highest resident size above the level at start, sampled by a thread.

    tracemalloc would give the allocation peak exactly, but hooking every
    allocation of the step loop made it two thirds slower; sampling costs almost
    nothing, and the arrays the step loop allocates are written at once, so
    their pages are resident.
    """

    def __init__(self):
        self.base = self.peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(SAMPLE_S):
            self.peak = max(self.peak, _rss_bytes())

    def stop(self) -> int:
        """Stop sampling; the growth in bytes."""
        self._stop.set()
        self._thread.join()
        return max(self.peak, _rss_bytes()) - self.base


class Tracer:
    """Spans, counters and distinct-argument sets, kept in memory."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent]
        self.counters: Counter = Counter()
        self.distinct: dict = defaultdict(set)
        self.peak_bytes = 0
        self._stack: list = []

    def wrap(self, name, fn, count=None, key=None, minflt=False, rss_peak=False):
        """``fn`` wrapped in a span; ``count(bound)`` returns counter increments,
        ``key(bound)`` a hashable argument key for the distinct-call count,
        ``rss_peak`` samples the resident growth while the span is open."""
        sig = inspect.signature(fn) if (count or key) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if count is not None:
                    self.counters.update(count(bound.arguments))
                if key is not None:
                    self.distinct[name].add(key(bound.arguments))
            self.counters[name + "_calls"] += 1
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [name, 0.0, 0.0, parent]
            self.spans.append(span)
            self._stack.append(idx)
            if minflt:
                flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            sampler = PeakSampler() if rss_peak else None
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if sampler is not None:
                    self.peak_bytes = max(self.peak_bytes, sampler.stop())
                if minflt:
                    self.counters[name + "_minflt"] += (
                        resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0)

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": self.spans,
                "counters": dict(self.counters),
                "distinct": {k: len(v) for k, v in self.distinct.items()},
                "peak_bytes": self.peak_bytes,
            }, fh)


def _points(args) -> dict:
    """Points in a log_f call: x has shape (..., dim), or (...) when dim is 1."""
    return {"measures.log_f_points": np.size(args["x"]) // args["self"].dim}


def _tail_key(args) -> tuple:
    """What a tail depends on: the sample size and seed only for Monte Carlo,
    which "auto" picks for a family with neither a closed tail nor dim 1."""
    d, method = args["density"], args["method"]
    mc = method == "monte_carlo" or (method == "auto" and not d.has_closed_tail and d.dim != 1)
    key = (id(d), args["t"], args["r"], method, id(args["rule"]))
    return key + (args["n_samples"], args["seed"]) if mc else key


def install(tracer: Tracer) -> None:
    """Rebind the traced functions of the imported package to span wrappers."""
    from outail import cli, foellmer, measures, quadrature, semigroup, verify

    w = tracer.wrap
    foellmer.path_normals = w(
        "rng.path_normals", foellmer.path_normals, minflt=True,
        count=lambda a: {"rng.normals_drawn": a["n_paths"] * a["n_steps"] * a["dim"]})
    verify.simulate_batch = w(
        "foellmer.simulate_batch", verify.simulate_batch, rss_peak=True,
        count=lambda a: {"foellmer.path_steps": a["n_paths"] * a["cfg"].steps})
    foellmer.DriftField.raw = w("foellmer.drift_raw", foellmer.DriftField.raw)
    foellmer.DriftField.eval = w("foellmer.drift_eval", foellmer.DriftField.eval)
    verify.perturbation_arrays = w(
        "foellmer.perturbation_arrays", verify.perturbation_arrays,
        key=lambda a: (id(a["stats"]), a["r"], a["delta"], a["beta"]))
    for cls in (measures.TiltDensity, measures.MixtureDensity, measures.SinePerturbationDensity):
        cls.log_f = w("measures.log_f", cls.log_f, count=_points)
        cls.grad_log_f = w("measures.grad_log_f", cls.grad_log_f)
    gh = quadrature.QuadratureRule.__dict__["gauss_hermite"].__func__
    quadrature.QuadratureRule.gauss_hermite = classmethod(w(
        "quadrature.gauss_hermite", gh, key=lambda a: (a["dim"], a["n_nodes"])))
    semigroup.ou_log = verify.ou_log = w("semigroup.ou_log", semigroup.ou_log, minflt=True)
    cli.hypercontractivity_check = w("semigroup.hypercontractivity", cli.hypercontractivity_check)
    verify.superlevel_gamma_mass = w("stats.superlevel_gamma_mass", verify.superlevel_gamma_mass)
    verify.ks_two_sample = w("stats.ks_two_sample", verify.ks_two_sample)
    verify.batch_means = w("stats.batch_means", verify.batch_means)
    verify.tail_probability = w("verify.tail_probability", verify.tail_probability,
                                key=_tail_key)
    cli._tail_row = w("cli._tail_row", cli._tail_row)
    for fn_name in ("tail_curve", "sharpness_report", "entropy_identity_report",
                    "drift_energy_report", "girsanov_reports", "z_suite_reports",
                    "tv_reports", "shell_shift_report", "composite_reports",
                    "hessian_floor_report"):
        setattr(verify, fn_name, w(f"verify.{fn_name}", getattr(verify, fn_name)))
    cli.parse_config = w("cli.parse_config", cli.parse_config)
    cli.write_reports = w("cli.write_reports", cli.write_reports)


# -- reduction ------------------------------------------------------------------


def span_times(spans: list) -> tuple:
    """(inclusive, self) seconds per span name.

    Inclusive time counts a span only when no ancestor has the same name, so
    recursion is not counted twice; self time is a span minus its children.
    """
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        self_time[name] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] += end - start
    return inclusive, self_time


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced process."""
    inclusive, self_time = span_times(trace["spans"])
    counters, distinct = trace["counters"], trace["distinct"]
    out = {metric: inclusive.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
    for metric in COUNT_METRICS:
        if metric.endswith("_distinct"):
            out[metric] = distinct.get(metric[: -len("_distinct")], 0)
        else:
            out[metric] = counters.get(metric, 0)
    out["foellmer.step_loop_self_s"] = self_time.get("foellmer.simulate_batch", 0.0)
    out["foellmer.simulate_batch_peak_mb"] = trace["peak_bytes"] / MIB
    for tok, names in TOKEN_SPANS.items():
        out[f"verify.token.{tok}_s"] = sum(inclusive.get(n, 0.0) for n in names)
    return out
