"""Fast self-test of the benchmark: every workload at tiny scale through the
same code path as a timed run, the checker against a corrupted report, and
the span arithmetic behind the per-layer metrics."""

import csv
from pathlib import Path

import pytest

import bench_checks
import bench_spans
import run
from bench_workloads import WORKLOADS, make_workload

ROOT = Path(__file__).resolve().parent.parent
TINY = 0.05


@pytest.mark.parametrize("name", ["verify-all", "analytic"])
def test_workload_runs_clean_at_tiny_scale(name):
    res = run.run_workload(ROOT, name, seed=3, seconds=0, trace=False, scale=TINY,
                           probes=1, determinism=name == "verify-all")
    assert res["correct"] and res["failed"] == 0, res["problems"]
    assert res["attempted"] > 0 and res["rounds"] == 1
    assert set(res["metrics"]) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_r_sweep_reports_every_layer():
    res = run.run_workload(ROOT, "r-sweep", seed=3, seconds=0, trace=True, scale=TINY,
                           determinism=False)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, res["problems"]
    assert set(res["metrics"]) == set(bench_spans.PER_LAYER)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["foellmer.path_steps"] == m["rng.normals_drawn"] > 0
    assert 0 < m["foellmer.step_loop_self_s"] < m["foellmer.simulate_batch_s"] < m["cli.main_s"]


def test_inputs_follow_the_seed():
    for name in WORKLOADS:
        assert make_workload(name, 5) == make_workload(name, 5)
        assert make_workload(name, 5) != make_workload(name, 6)


def test_checker_flags_a_wrong_tail(tmp_path):
    inv = make_workload("analytic", 4, TINY)[0]
    cfg = tmp_path / "tilt.ini"
    cfg.write_text(inv.specs[0].config_text())
    runner = run.Runner(ROOT, tmp_path, deadline=float("inf"))
    info, _ = runner.child("tilt", inv.argv(tmp_path / "out", cfg))
    assert bench_checks.check_invocation(inv, tmp_path / "out", info["exit"]).failed == 0

    path = tmp_path / "out" / "report.csv"
    rows = list(csv.reader(path.open()))
    i = next(k for k, row in enumerate(rows) if row[0] == "tail_markov")
    rows[i][7] = repr(float(rows[i][7]) * 0.5)  # still passes its Markov bound
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    res = bench_checks.check_invocation(inv, tmp_path / "out", info["exit"])
    assert res.failed == 1 and "tilt tail" in res.problems[0]


def test_span_self_and_inclusive_times():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["foellmer.simulate_batch", 1.0, 7.0, 0],
        ["rng.path_normals", 1.0, 3.0, 1],
        ["foellmer.drift_eval", 3.0, 5.0, 1],
        ["foellmer.drift_raw", 3.5, 4.0, 3],
        ["measures.log_f", 8.0, 9.0, 0],
        ["measures.log_f", 8.2, 8.6, 5],  # nested in itself: counted once inclusive
    ]
    inclusive, self_time = bench_spans.span_times(spans)
    assert inclusive["cli.main"] == 10.0
    assert inclusive["measures.log_f"] == 1.0
    assert self_time["foellmer.simulate_batch"] == 2.0
    assert self_time["foellmer.drift_eval"] == 1.5
    assert self_time["cli.main"] == 3.0
    assert sum(self_time.values()) == pytest.approx(inclusive["cli.main"])
