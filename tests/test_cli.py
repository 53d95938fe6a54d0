import csv
import inspect
import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from outail import cli, foellmer, verify
from outail.cli import (
    CHECK_TOKENS,
    CONFIG_KEYS,
    DEFAULT_PATHS,
    DEFAULT_SEED,
    ExperimentConfig,
    build_density,
    collect_rows,
    main,
    parse_config,
    rows_to_csv_text,
    run,
    verify_all,
    write_reports,
)
from outail.errors import ConfigError, ResolutionError
from outail.foellmer import DEFAULT_STEPS, PathConfig
from outail.measures import FAMILIES, MixtureDensity, SinePerturbationDensity, TiltDensity
from outail.reports import CSV_COLUMNS, BoundReport
from outail.stats import LEVEL_SET_GRID
from outail.verify import canonical_delta, default_families

E = math.e
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOOD_CONFIG = """
[experiment]
family = mixture
weights = 0.5, 0.5
means = -1, 1
spread = 0.5
t = 0.5, 1.0
r = e1, e2
delta = fixed:0.1
paths = 2000
steps = 128
seed = 7
checks = energy, z, prop2
out = {out}
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def empty_batches(jobs):
    """A stand-in for the batches of ``jobs`` where the checks are recorded,
    not run: no thresholds, no clamps and no K steps, all the reports read
    of them."""
    return [SimpleNamespace(stopped={}, drift_grid_clamps=0, k_steps=0) for _ in jobs]


def path_batch(cfg):
    """The config's path batch, as ``run`` simulates it."""
    (stats,) = verify.simulate_batch(PathConfig(cfg.steps, cfg.seed), cfg.paths,
                                     [(build_density(cfg), cfg.r_values)])
    return stats


class TestConfigParsing:
    def test_full_roundtrip(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, GOOD_CONFIG.format(out=tmp_path)))
        assert cfg.family == "mixture"
        assert cfg.r_values == (float(np.e), float(np.exp(2.0)))
        assert cfg.delta == 0.1 and cfg.delta_for(np.e) == 0.1
        assert cfg.checks == ("energy", "z", "prop2")
        assert build_density(cfg).dim == 1

    def test_paper_rule_is_no_fixed_delta(self, tmp_path):
        text = GOOD_CONFIG.format(out=tmp_path).replace("delta = fixed:0.1", "delta = paper_rule")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.delta is None
        assert cfg.delta_for(np.e**2) == canonical_delta(np.e**2)

    def test_e_tokens(self, tmp_path):
        text = GOOD_CONFIG.format(out=tmp_path).replace("r = e1, e2", "r = e, e^2, 10.5")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.r_values == tuple(sorted((float(np.e), float(np.exp(2.0)), 10.5)))

    def test_empty_r_names_field(self, tmp_path):
        text = GOOD_CONFIG.format(out=tmp_path).replace("r = e1, e2", "r = ")
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, text))
        assert exc.value.field == "r"

    def test_r_at_most_one_rejected(self, tmp_path):
        text = GOOD_CONFIG.format(out=tmp_path).replace("r = e1, e2", "r = 0.9")
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, text))
        assert exc.value.field == "r"

    def test_unknown_family(self, tmp_path):
        text = GOOD_CONFIG.format(out=tmp_path).replace("family = mixture", "family = cauchy")
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, text))
        assert exc.value.field == "family"

    def test_bad_delta(self, tmp_path):
        text = GOOD_CONFIG.format(out=tmp_path).replace("delta = fixed:0.1", "delta = huge")
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, text))
        assert exc.value.field == "delta"

    def test_too_few_paths(self, tmp_path):
        text = GOOD_CONFIG.format(out=tmp_path).replace("paths = 2000", "paths = 10")
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, text))
        assert exc.value.field == "paths"

    @pytest.mark.parametrize("line", ["paths = 10", "paths: 10", "Paths = 10", "PATHS:10"])
    def test_error_names_the_line(self, tmp_path, line):
        """Every key form configparser reads, ':' and mixed case included,
        gets the line number of the key in the message."""
        text = GOOD_CONFIG.format(out=tmp_path).replace("paths = 2000", line)
        lineno = text.splitlines().index(line) + 1
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, text))
        assert exc.value.field == "paths"
        assert exc.value.message.startswith(f"line {lineno}: need >= ")

    def test_unknown_check(self, tmp_path):
        text = GOOD_CONFIG.format(out=tmp_path).replace("checks = energy, z, prop2", "checks = spectral")
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, text))
        assert exc.value.field == "checks"

    @pytest.mark.parametrize("old, new, field", [
        ("seed = 7", "seed = 7\nbeta = abc", "beta"),
        ("means = -1, 1", "means = a, b", "means"),
        ("r = e1, e2", "r = e1, e1", "r"),
        ("weights = 0.5, 0.5", "weights = 0.3, 0.3", "family"),
        ("paths = 2000", "paths = lots", "paths"),
        ("steps = 128", "steps = abc", "steps"),
        ("seed = 7", "seed = x", "seed"),
        ("seed = 7", "seed = 7\ndim = q", "dim"),
        ("seed = 7", "seed = 7\ndim = 2", "dim"),
        ("steps = 128", "steps = 50", "steps"),
        ("seed = 7", "seed = -1", "seed"),
        ("seed = 7", "seed = 7\np = 0.5", "p"),
        ("seed = 7", "seed = 7\np = abc", "p"),
        ("seed = 7", "seed = 7\nbeta = -1", "beta"),
        ("delta = fixed:0.1", "delta = fixed:-0.1", "delta"),
        ("r = e1, e2", "r = nan", "r"),
        ("t = 0.5, 1.0", "t = nan", "t"),
        ("seed = 7", "seed = 7\nbeta = inf", "beta"),
        ("seed = 7", "seed = 7\np = inf", "p"),
        ("r = e1, e2", "r = e1, e1000", "r"),
        ("family = mixture", "family = sine\neps = nan", "eps"),
        ("family = mixture", "family = sine\nwave = inf", "wave"),
        ("delta = fixed:0.1", "delta = fixed:inf", "delta"),
        ("delta = fixed:0.1", "delta = fixed:1e155", "delta"),
        ("seed = 7", f"seed = {2**128}", "seed"),
        ("family = mixture", "family = sine\nwave = 1e308", "family"),
        ("family = mixture", "family = sine\neps = 1e10", "family"),
        ("family = mixture", "family = tilt\nu = 1e155", "family"),
        ("family = mixture", "family = tilt\nu = 1e200, 1e200", "family"),
        ("family = mixture", "family = tilt\nu = 1, 2; 3, 4", "u"),
        ("family = mixture", "family = sine\nwave = 1; 2", "wave"),
        ("weights = 0.5, 0.5", "weights = 0.5; 0.5", "weights"),
        ("spread = 0.5", "spread = 5e-324", "family"),
        ("spread = 0.5", "spread = 1e-5", "family"),
        ("spread = 0.5", "spread = 0.01", "family"),
        ("means = -1, 1\nspread = 0.5", "means = -1, 0; 1, 0\nspread = 1e-3", "family"),
        ("means = -1, 1", "means = 1, 2; 3", "means"),
        ("seed = 7", "seed = 7\nseed = 8", "experiment"),
        ("[experiment]", "[other]", "experiment"),
        ("weights = 0.5, 0.5", "weights = -0.5, 1.5", "family"),
        # the entropy and hyper checks integrate on a rule that stops at dim 3
        (GOOD_CONFIG[GOOD_CONFIG.index("means"):GOOD_CONFIG.index("\nout")],
         "means = -1, 0, 0, 0; 1, 0, 0, 0\nchecks = energy, entropy", "checks"),
        (GOOD_CONFIG[GOOD_CONFIG.index("means"):GOOD_CONFIG.index("\nout")],
         "means = -1, 0, 0, 0; 1, 0, 0, 0\nchecks = tail, hyper", "checks"),
    ], ids=["beta", "means", "duplicate_r", "rejected_by_family", "paths_not_int",
            "steps_not_int", "seed_not_int", "dim_not_int", "dim_mismatch", "too_few_steps",
            "negative_seed",
            "p_at_most_one", "p_not_float", "negative_beta", "negative_delta", "r_nan", "t_nan",
            "beta_inf", "p_inf", "r_overflow", "eps_nan", "wave_inf", "delta_inf",
            "delta_square_inf", "seed_2_128", "sine_beta_inf", "sine_log_z_nan", "tilt_half_square_inf",
            "tilt_2d_norm_inf", "tilt_points", "wave_points", "weights_points", "mixture_beta_inf",
            "mixture_not_normalized", "mixture_residual_0.53", "mixture_2d_not_normalized",
            "ragged_means", "unreadable", "no_experiment_section", "negative_weight",
            "entropy_above_quadrature_dim", "hyper_above_quadrature_dim"])
    def test_bad_value_names_field(self, tmp_path, old, new, field):
        text = GOOD_CONFIG.format(out=tmp_path).replace(old, new)
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, text))
        assert exc.value.field == field

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_only_config_builds_default(self, tmp_path, name):
        density = build_density(parse_config(write_cfg(tmp_path, f"[experiment]\nfamily = {name}\n")))
        default = default_families()[name]
        assert type(density) is type(default) and density.beta == default.beta
        xs = np.linspace(-3.0, 3.0, 13)[:, None]
        assert np.array_equal(density.log_f(xs), default.log_f(xs))
        assert np.array_equal(density.grad_log_f(xs), default.grad_log_f(xs))

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_only_config_is_the_schema_default(self, tmp_path, monkeypatch, name):
        """A config that names only its family is the dataclass default, and
        that is the config verify-all runs for the family."""
        cfg = parse_config(write_cfg(tmp_path, f"[experiment]\nfamily = {name}\n"))
        assert cfg == ExperimentConfig(name, FAMILIES[name].defaults)
        ran, jobs = {}, []

        def record(c, stats):
            ran[c.family] = c
            return []

        def no_paths(path_cfg, n_paths, batch_jobs, chunk_paths=None):
            # the checks are recorded, not run, so no batch is simulated
            jobs.extend((density, path_cfg, n_paths, r_values) for density, r_values in batch_jobs)
            return empty_batches(batch_jobs)

        monkeypatch.setattr(cli, "collect_rows", record)
        monkeypatch.setattr(verify, "simulate_batch", no_paths)
        verify_all(seed=DEFAULT_SEED, out_dir=tmp_path, paths=DEFAULT_PATHS, steps=DEFAULT_STEPS)
        assert ran[name] == cfg
        density, path_cfg, n_paths, r_values = jobs[sorted(FAMILIES).index(name)]
        assert (density.name, path_cfg, n_paths, r_values) == (
            name, PathConfig(cfg.steps, cfg.seed), cfg.paths, cfg.r_values)

    def test_unknown_keys_are_named(self, tmp_path):
        text = GOOD_CONFIG.format(out=tmp_path).replace("steps = 128", "step = 128").replace(
            "checks = energy, z, prop2", "check = tail")
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, text))
        assert exc.value.field == "step" and "check" in exc.value.message
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, "[experiment]\nfamily = tilt\neps = 0.3\n"))
        assert exc.value.field == "eps"

    @pytest.mark.parametrize("means, spread", [("-1, 1", 0.5), ("-8, 8", 0.5), ("-8, 8", 0.2)])
    def test_normalized_mixtures_parse(self, tmp_path, means, spread):
        """Residuals 0, 1e-15 and 6e-9 on the 64-node rule are within the tolerance."""
        text = f"[experiment]\nfamily = mixture\nmeans = {means}\nspread = {spread}\n"
        assert parse_config(write_cfg(tmp_path, text)).params["spread"] == spread

    @pytest.mark.parametrize("means", ["-1, 0; 1, 0", "-1, 0 ; 1, 0"])
    def test_semicolon_separates_points(self, tmp_path, means):
        cfg = parse_config(write_cfg(tmp_path, f"[experiment]\nfamily = mixture\nmeans = {means}\n"))
        assert cfg.params["means"] == ((-1.0, 0.0), (1.0, 0.0))

    def test_all_expands_in_order(self, tmp_path):
        text = GOOD_CONFIG.format(out=tmp_path).replace("checks = energy, z, prop2", "checks = all")
        assert parse_config(write_cfg(tmp_path, text)).checks == CHECK_TOKENS


# every key the parser knows, every family parameter, and misspellings
FUZZ_KEYS = ("family", *CONFIG_KEYS, *sorted({key for fam in FAMILIES.values() for key in fam.defaults}),
             "step", "seeds", "check", "dim")
NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.floats().map(lambda v: f"fixed:{v!r}"),
    st.sampled_from(["e", "e2", "e^-3", "e1000", "1e309", "auto", "paper_rule", "all", "tail"]),
)
VALUE_TEXT = st.one_of(
    NUMBER_TEXT,
    st.lists(NUMBER_TEXT, min_size=1, max_size=3).map(", ".join),
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=12),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(sorted(FAMILIES)), key=st.sampled_from(FUZZ_KEYS), value=VALUE_TEXT)
@example(family="tilt", key="r", value="nan")
@example(family="tilt", key="t", value="nan")
@example(family="tilt", key="beta", value="inf")
@example(family="sine", key="eps", value="nan")
@example(family="tilt", key="delta", value="fixed:inf")
@example(family="tilt", key="t", value="50%")
@example(family="tilt", key="u", value="1e155")
@example(family="tilt", key="delta", value="fixed:1e155")
def test_parse_config_rejects_or_returns_finite_in_range(tmp_path_factory, family, key, value):
    """Any text under any key is a ConfigError or a config whose numbers are
    finite and in range, and whose density has a finite log f and heat
    transform at the origin; no other exception escapes."""
    fields = {"family": family, "paths": "2000", "steps": "128", key: value}
    path = tmp_path_factory.getbasetemp() / "property.cfg"
    path.write_text("[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items()),
                    encoding="utf-8")
    try:
        cfg = parse_config(path)
    except ConfigError:
        return
    numbers = [*cfg.t_values, *cfg.r_values, cfg.p]
    numbers += [x for v in cfg.params.values() for x in np.ravel(np.asarray(v, dtype=float))]
    numbers += [] if cfg.beta_override is None else [cfg.beta_override]
    numbers += [] if cfg.delta is None else [cfg.delta, cfg.delta ** 2]
    assert all(math.isfinite(x) for x in numbers)
    assert min(cfg.t_values) >= 0 and min(cfg.r_values) > 1 and cfg.p > 1
    assert len(set(cfg.r_values)) == len(cfg.r_values)
    assert cfg.paths >= 1000 and cfg.steps >= 100 and 0 <= cfg.seed < 2**128
    assert cfg.delta is None or cfg.delta >= 0
    assert cfg.beta_override is None or cfg.beta_override >= 0
    density = build_density(cfg)
    origin = np.zeros((1, density.dim))
    assert np.isfinite(density.log_f(origin)).all()
    assert all(np.isfinite(part).all() for part in density.closed_heat_at(origin)(0.5))


class TestRun:
    def test_report_files_and_exit(self, tmp_path):
        cfg_path = write_cfg(tmp_path, GOOD_CONFIG.format(out=tmp_path / "reports"))
        result = run(cfg_path)
        assert result.exit_code == 0
        assert result.csv_path.exists() and result.json_path.exists()
        with result.csv_path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) > 5

    def test_pass_recomputable_from_columns(self, tmp_path):
        cfg_path = write_cfg(tmp_path, GOOD_CONFIG.format(out=tmp_path / "reports"))
        result = run(cfg_path)
        with result.csv_path.open() as fh:
            for row in csv.DictReader(fh):
                est = float(row["estimate"]) if row["estimate"] else math.nan
                ci = float(row["ci"]) if row["ci"] else math.nan
                bound = float(row["bound"]) if row["bound"] else math.nan
                margin = bound - est
                expected = (margin + ci >= 0) if not math.isnan(margin + ci) else False
                assert (row["pass"] == "True") == expected
                assert float(row["margin"]) == pytest.approx(margin, rel=1e-12, abs=1e-300)

    def test_tilt_tail_column_monotone(self, tmp_path):
        text = """
[experiment]
family = tilt
u = 2.0
t = 0.5
r = 1.5, e1, e2, e3
paths = 2000
steps = 128
seed = 3
checks = tail
out = {out}
""".format(out=tmp_path / "reports")
        result = run(write_cfg(tmp_path, text))
        assert result.exit_code == 0
        tails = [float(r.estimate) for r in result.rows if r.name == "tail_markov"]
        assert len(tails) == 4
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_2d_mixture_tail_writes_reports(self, tmp_path):
        text = """
[experiment]
family = mixture
means = -1, 0; 1, 0
checks = tail
t = 0.5
r = e1
out = {out}
""".format(out=tmp_path / "reports")
        result = run(write_cfg(tmp_path, text))
        assert result.csv_path.exists() and result.json_path.exists()
        assert result.exit_code == int(any(r.anchored and not r.passed for r in result.rows))
        # no Monte Carlo hit at r = e: the ceiling has no resolved tail either
        assert [r.name for r in result.rows] == ["tail_markov!exact_required", "tail_curve_ceiling"]
        assert math.isnan(result.rows[1].estimate)
        summary = json.loads(result.json_path.read_text(), parse_constant=_reject_constant)
        assert summary["worst_margin"] is None
        assert [row["margin"] for row in summary["rows"]] == [None, None]

    def test_mixture_at_large_t_runs(self, tmp_path):
        """At t = 20 the default mixture's OU image has spread 1 to the last
        bit, the mixture of tilts; the run writes its rows and exits 0."""
        assert build_density(parse_config(write_cfg(
            tmp_path, "[experiment]\nfamily = mixture\n"))).closed_ou(20.0).spread == 1.0
        cfg = write_cfg(tmp_path, "[experiment]\nfamily = mixture\nt = 20\n"
                                  "checks = tail, hessian, hyper\n")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        with (tmp_path / "report.csv").open() as fh:
            names = [row["name"] for row in csv.DictReader(fh)]
        assert names == ["tail_markov"] * 3 + ["tail_curve_ceiling", "log_hessian_floor",
                                               "hypercontractivity"]

    def test_3d_mixture_hyper_writes_rows(self, tmp_path):
        """``hyper`` integrates on the tensor rule, so it runs wherever
        ``entropy`` does: a 3-D mixture writes one row per positive t."""
        cfg = write_cfg(tmp_path, "[experiment]\nfamily = mixture\nmeans = -1, 0, 0; 1, 0.5, 0\n"
                                  "checks = hyper, hessian\nt = 0, 0.5, 1\n")
        rows = collect_rows(parse_config(cfg))
        assert [(row.name, row.t, row.dim) for row in rows] == [
            ("hypercontractivity", 0.5, 3), ("hypercontractivity", 1.0, 3),
            ("log_hessian_floor", 0.5, 3), ("log_hessian_floor", 1.0, 3)]
        assert all(row.passed for row in rows)

    def test_ceiling_half_width_in_ratio_units(self, tmp_path):
        """The ceiling's half-width is the largest tail half-width times its
        row's factor r sqrt(log r) min(1, t), the factor of its estimate."""
        text = """
[experiment]
family = mixture
means = -1, 0; 1, 0
checks = tail
t = 0.5
r = 1.2, 1.5, 2
paths = 20000
"""
        rows = collect_rows(parse_config(write_cfg(tmp_path, text)))
        tails = [row for row in rows if row.name == "tail_markov"]
        ceiling = rows[-1]
        assert ceiling.name == "tail_curve_ceiling" and min(row.ci_half_width for row in tails) > 0
        factors = [row.r * math.sqrt(math.log(row.r)) * 0.5 for row in tails]
        assert ceiling.estimate == pytest.approx(max(row.estimate * f for row, f in zip(tails, factors)))
        assert ceiling.ci_half_width == pytest.approx(
            max(row.ci_half_width * f for row, f in zip(tails, factors)))

    @pytest.mark.parametrize("family, image", [
        ("sine", SinePerturbationDensity),
        ("mixture", MixtureDensity),
    ], ids=["sine", "mixture"])
    def test_tail_evaluates_the_level_set_grid_once_per_t(self, tmp_path, monkeypatch,
                                                          family, image):
        """A ``tail`` run with 8 thresholds evaluates log Q_t f on the
        level-set grid once per t: f itself at t = 0, else the family's
        ``closed_ou``.  Only grid-sized inputs count; the bisection
        evaluates the midpoints of the brackets."""
        grid_calls = []
        for cls in (SinePerturbationDensity, MixtureDensity):
            def counted(self, x, cls=cls, log_f=cls.log_f):
                if np.size(x) == LEVEL_SET_GRID:
                    grid_calls.append(cls)
                return log_f(self, x)
            monkeypatch.setattr(cls, "log_f", counted)
        t_values = (0.0, 0.1, 0.5, 1.0)
        text = (f"[experiment]\nfamily = {family}\nchecks = tail\n"
                f"t = {', '.join(map(str, t_values))}\n"
                "r = e0.01, e0.03, e0.08, e0.2, e0.45, e1, e4, e16\n")
        rows = collect_rows(parse_config(write_cfg(tmp_path, text)))
        assert [row.name for row in rows].count("tail_markov") == 8 * len(t_values)
        assert grid_calls == [image] * len(t_values)

    @pytest.mark.parametrize("params", [
        "family = tilt\nu = 1.3, 0.7",
        "family = mixture\nmeans = -1, 0; 1, 0",
        "family = sine\nwave = 1.5, 1.0",
    ], ids=["tilt", "mixture", "sine"])
    def test_2d_csv_does_not_depend_on_the_chunk_size(self, tmp_path, params):
        """A 2-D family evaluates its drift on whole chunks of paths, so
        each point's drift must not depend on the chunk that holds it: one
        chunk, seven uneven ones, and one that ends with a single path."""
        cfg = write_cfg(tmp_path, f"[experiment]\n{params}\npaths = 2000\nsteps = 128\n")
        csvs = [run(cfg, out_dir=tmp_path / str(chunk), chunk_paths=chunk).csv_path.read_bytes()
                for chunk in (2000, 333, 1999)]
        assert csvs[0] == csvs[1] == csvs[2]

    @pytest.mark.parametrize("family, key, vector", [
        ("tilt", "u", (1.3, -0.7)),
        ("sine", "wave", (1.5, 1.0)),
        ("sine", "wave", (1.0, -0.5, 0.5, 1.0)),
    ], ids=["tilt-2d", "sine-2d", "sine-4d"])
    def test_a_ridge_config_runs_its_profile(self, tmp_path, family, key, vector):
        """An n-D tilt or sine config runs the 1-D member whose vector is
        its norm: with every check, entropy and hyper included, it writes
        the 1-D config's CSV but for ``dim``, which is n in every row, and
        the same exit code and JSON."""
        results = {}
        for v in (vector, (float(np.linalg.norm(vector)),)):
            cfg = write_cfg(tmp_path, f"[experiment]\nfamily = {family}\n"
                                      f"{key} = {', '.join(map(repr, v))}\nchecks = all\n"
                                      "paths = 1000\nsteps = 100\n", f"{len(v)}.cfg")
            result = run(cfg, out_dir=tmp_path / str(len(v)))
            with result.csv_path.open() as fh:
                rows = list(csv.DictReader(fh))
            summary = json.loads(result.json_path.read_text())
            del summary["created"]
            results[len(v)] = result.exit_code, rows, summary
        (code_n, rows_n, json_n), (code_1, rows_1, json_1) = results[len(vector)], results[1]
        assert all(row["dim"] == str(len(vector)) for row in rows_n)
        assert [{**row, "dim": "1"} for row in rows_n] == rows_1
        assert code_n == code_1 and json_n == json_1
        assert {"entropy_identity_gap", "hypercontractivity"} <= {row["name"] for row in rows_1}

    @pytest.mark.parametrize("family, image", [
        ("sine", SinePerturbationDensity),
        ("mixture", MixtureDensity),
    ])
    def test_hessian_evaluates_the_image_once_per_t(self, tmp_path, monkeypatch, family, image):
        """A ``hessian`` run over three t calls the image's log_f once per t,
        on the stencils of every probe: the image is the family's
        ``closed_ou``.  The config is parsed before counting, so its
        normalization check on the rule nodes does not count."""
        t_values = (0.1, 0.5, 1.0)
        cfg = parse_config(write_cfg(tmp_path, f"[experiment]\nfamily = {family}\nchecks = hessian\n"
                                               f"t = {', '.join(map(str, t_values))}\n"))
        calls = []
        for cls in (SinePerturbationDensity, MixtureDensity):
            def counted(self, x, cls=cls, log_f=cls.log_f):
                calls.append(cls)
                return log_f(self, x)
            monkeypatch.setattr(cls, "log_f", counted)
        rows = collect_rows(cfg)
        assert [(row.name, row.t) for row in rows] == [("log_hessian_floor", t) for t in t_values]
        assert calls == [image] * len(t_values)

    @pytest.mark.parametrize("family, t, r", [
        ("sine", "0, 0.5", "e0.01, e0.08, e0.2, e1"),
        ("mixture", "0, 0.5", "e0.01, e0.08, e0.2, e1"),
        ("tilt", "0, 0.5", "1.5, e1, e2, e4"),
        ("mixture\nmeans = -1, 0; 1, 0\npaths = 20000", "0.5", "1.1, 1.2, 1.5, e1"),
    ], ids=["sine-quadrature", "mixture-quadrature", "tilt-exact", "mixture2d-monte-carlo"])
    def test_tail_rows_equal_per_threshold_tails(self, tmp_path, family, t, r):
        """Each ``tail_markov`` row of the one-curve-per-t path carries the
        bits of ``verify.tail_probability`` at its (t, r); a threshold that
        Monte Carlo cannot resolve, and only that one, becomes
        ``tail_markov!exact_required``, and the ceiling reads the rest."""
        cfg = parse_config(write_cfg(tmp_path, f"[experiment]\nfamily = {family}\n"
                                               f"checks = tail\nt = {t}\nr = {r}\n"))
        density = build_density(cfg)
        rows = collect_rows(cfg)
        for ceiling_at in range(len(cfg.r_values), len(rows), len(cfg.r_values) + 1):
            tails, ceiling = rows[ceiling_at - len(cfg.r_values):ceiling_at], rows[ceiling_at]
            resolved = []
            for row in tails:
                try:
                    est, ci = verify.tail_probability(density, row.t, row.r,
                                                      n_samples=cfg.paths, seed=cfg.seed)
                except ResolutionError:
                    assert row.name == "tail_markov!exact_required" and not row.anchored
                    assert math.isnan(row.estimate) and math.isnan(row.ci_half_width)
                    continue
                assert row.name == "tail_markov"
                assert (row.estimate, row.ci_half_width, row.bound) == (est, ci, 1.0 / row.r)
                resolved.append(row)
            assert ceiling.name == "tail_curve_ceiling" and ceiling.t == tails[0].t
            ratio = max(row.estimate * row.r * math.sqrt(math.log(row.r)) * min(1.0, row.t)
                        for row in resolved)
            assert ceiling.estimate == pytest.approx(ratio, rel=1e-14, abs=0.0)
        names = [row.name for row in rows]
        if density.dim == 2:
            assert names.count("tail_markov!exact_required") == 1
            assert rows[names.index("tail_markov!exact_required")].r == E
        else:
            assert "tail_markov!exact_required" not in names
            assert any(row.estimate > 0.0 for row in rows if row.name == "tail_markov")

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path, GOOD_CONFIG.format(out=tmp_path / "reports"))
        a = run(cfg_path, out_dir=tmp_path / "a").csv_path.read_bytes()
        b = run(cfg_path, out_dir=tmp_path / "b").csv_path.read_bytes()
        assert a == b

    def test_negative_control_exits_nonzero(self, tmp_path):
        text = GOOD_CONFIG.format(out=tmp_path / "reports").replace(
            "delta = fixed:0.1", "delta = fixed:0.3"
        )
        text = text.replace("seed = 7", "seed = 7\nbeta = 0.11")
        result = run(write_cfg(tmp_path, text))
        assert result.exit_code == 1
        failing = [r for r in result.rows if not r.passed]
        assert any(r.name == "convexity_floor" for r in failing)

    @pytest.mark.parametrize("delta, calls", [("paper_rule", 6), ("fixed:0.1", 3)])
    def test_one_perturbation_record_per_r_and_delta(self, tmp_path, monkeypatch, delta, calls):
        # paper rule: every delta exceeds the equality cap, so each r needs
        # the capped and the configured record; fixed 0.1 shares one
        text = f"""
[experiment]
family = tilt
r = e1, e2, e4
delta = {delta}
paths = 1000
steps = 128
checks = z, tv, prop2
"""
        keys = []
        record = verify.perturbation_arrays

        def counting(stats, density, r, delta, beta):
            keys.append((r, delta, beta))
            return record(stats, density, r, delta, beta)

        monkeypatch.setattr(verify, "perturbation_arrays", counting)
        cfg = parse_config(write_cfg(tmp_path, text))
        rows = collect_rows(cfg, path_batch(cfg))
        assert len(keys) == len(set(keys)) == calls
        assert {(row.r, row.delta) for row in rows if not math.isnan(row.delta)} == {
            (r, delta) for r, delta, _ in keys
        }

    def test_shipped_negative_control(self, tmp_path, capsys):
        """The shipped config exits 1 on its convexity floor; perturbation
        rows carry the declared beta 0.11, martingale rows the density's."""
        path = CONFIGS / "negative-control.ini"
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1
        failed = [line.split()[1] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("[FAIL]")]
        summary = json.loads((tmp_path / "report.json").read_text())
        assert "convexity_floor" in failed and failed == summary["anchored_failures"]
        with (tmp_path / "report.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        perturbed = ("girsanov_", "convexity_floor", "exp_moment", "deviation_", "shell_shift")
        density_beta = build_density(parse_config(path)).beta
        assert density_beta == 1.0
        for row in rows:
            if row["name"].startswith(perturbed):
                assert float(row["beta"]) == 0.11, row["name"]
            elif row["name"].startswith("drift_martingale_gap@"):
                assert float(row["beta"]) == density_beta, row["name"]
        names = {row["name"] for row in rows}
        assert {"convexity_floor", "shell_shift", "drift_martingale_gap@0.5"} <= names


    def test_json_carries_passage_diagnostics(self, tmp_path):
        """Per threshold, the never-stopped fraction and the median and largest
        overshoot over the paths that stopped, of the batch the checks read;
        the CSV is that of the rows."""
        cfg_path = write_cfg(tmp_path, f"""
[experiment]
family = tilt
r = e0.5, e2
paths = 1000
steps = 128
checks = energy, tv
out = {tmp_path}
""")
        result = run(cfg_path)
        summary = json.loads(result.json_path.read_text(), parse_constant=_reject_constant)
        cfg = parse_config(cfg_path)
        stats = path_batch(cfg)
        diag = summary["diagnostics"]["tilt"]
        assert list(summary["diagnostics"]) == ["tilt"]
        assert [row["r"] for row in diag] == list(cfg.r_values)
        for row in diag:
            sl = stats.stopped[row["r"]]
            stopped = (sl.t_index < cfg.steps) | (sl.k_at_stop > np.log(row["r"]))
            assert row["never_stopped"] == np.mean(~stopped)
            assert row["overshoot_median"] == np.median(sl.overshoot()[stopped])
            assert row["overshoot_max"] == sl.overshoot()[stopped].max()
            # a path that never stopped would count as overshoot 0
            assert row["overshoot_median"] > 0.0
        # a higher threshold stops no more paths
        assert 0.0 < diag[0]["never_stopped"] < 1.0
        assert diag[0]["never_stopped"] <= diag[1]["never_stopped"]
        assert result.csv_path.read_text() == rows_to_csv_text(collect_rows(cfg, stats))

    def test_json_counts_states_beyond_the_drift_grid(self, tmp_path):
        """Mixture paths that end near +-12 leave the drift tables' grid on
        their last steps: the count of those states is in the JSON, the
        batch's ``drift_grid_clamps``."""
        cfg_path = write_cfg(tmp_path, f"""
[experiment]
family = mixture
weights = 0.5, 0.5
means = -12, 12
spread = 0.5
r = e
paths = 1000
steps = 128
checks = energy
out = {tmp_path}
""")
        summary = json.loads(run(cfg_path).json_path.read_text(), parse_constant=_reject_constant)
        stats = path_batch(parse_config(cfg_path))
        assert summary["drift_grid_clamps"] == {"mixture": stats.drift_grid_clamps}
        assert stats.drift_grid_clamps > 0

    def test_a_passage_at_the_final_node_is_a_stop(self, reference_path):
        """T = steps also means that K first exceeds log r at the final node:
        such a path passed, so it counts in the overshoot and not as never
        stopped.  The threshold is picked from the batch: between a path's
        largest K before the final node and its K_1."""
        density, cfg = TiltDensity([2.0]), PathConfig(128, 3)
        for i in range(200):
            traj = reference_path(density, cfg, i)
            if traj.k[-1] > traj.k[:-1].max():
                break
        r = float(np.exp(0.5 * (traj.k[:-1].max() + traj.k[-1])))
        (stats,) = verify.simulate_batch(cfg, i + 1, [(density, (r,))])
        sl = stats.stopped[r]
        assert sl.t_index[i] == cfg.steps and sl.k_at_stop[i] > np.log(r)
        passed = (sl.t_index < cfg.steps) | (sl.k_at_stop > np.log(r))
        (row,) = cli.passage_diagnostics(stats)
        assert row["never_stopped"] == np.mean(~passed) < np.mean(sl.t_index == cfg.steps)
        assert row["overshoot_max"] == sl.overshoot()[passed].max()

    def test_passage_diagnostics_null_when_not_finite(self):
        (stats,) = verify.simulate_batch(PathConfig(128, 3), 50, [(TiltDensity([2.0]), (E,))])
        stats.stopped[E].k_at_stop[3] = math.nan
        (row,) = cli.passage_diagnostics(stats)
        assert row["overshoot_median"] is None and row["overshoot_max"] is None
        assert json.loads(json.dumps(row, allow_nan=False)) == row

    def test_passage_diagnostics_null_when_no_path_stops(self):
        (stats,) = verify.simulate_batch(PathConfig(128, 3), 50,
                                         [(TiltDensity([2.0]), (E, E**40))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no empty-median RuntimeWarning
            low, high = cli.passage_diagnostics(stats)
        assert (stats.stopped[E**40].t_index == 128).all()
        assert high == {"r": E**40, "never_stopped": 1.0,
                        "overshoot_median": None, "overshoot_max": None}
        assert low["overshoot_median"] is not None and low["never_stopped"] < 1.0
        assert json.loads(json.dumps(high, allow_nan=False)) == high

    def test_analytic_run_has_no_diagnostics(self, tmp_path):
        text = GOOD_CONFIG.format(out=tmp_path).replace("checks = energy, z, prop2", "checks = tail")
        result = run(write_cfg(tmp_path, text))
        summary = json.loads(result.json_path.read_text())
        assert summary["diagnostics"] == summary["drift_grid_clamps"] == summary["k_steps"] == {}

    @pytest.mark.parametrize("wave", ["0", "0, 0"], ids=["1d", "2d"])
    def test_a_zero_wave_sine_is_exact(self, tmp_path, capsys, wave):
        """With wave 0 the sine is the constant density 1: log Z and log f
        are 0 exactly, so no row fails on a rounded log Z, and the run
        exits 0."""
        path = write_cfg(tmp_path, f"[experiment]\nfamily = sine\nwave = {wave}\n"
                                   "paths = 1000\nsteps = 128\n")
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        assert "[FAIL]" not in capsys.readouterr().out
        density = build_density(parse_config(path))
        assert density.log_z == 0.0
        x = np.linspace(-5.0, 5.0, 11)[:, None]
        assert (density.log_f(x) == 0.0).all()
        # its heat transform and OU image are exact too: the parent read
        # K = -1.39e-16 at every x and s, and so did the image's log f
        for s in (0.0, 0.5, 1.0):
            k, v = density.closed_heat_at(x)(s)
            assert (k == 0.0).all() and (v == 0.0).all()
        assert (density.closed_ou(1.0).log_f(x) == 0.0).all()
        # so K starts at 0 and the value process closes exactly on every path
        (stats,) = foellmer.simulate_batch(PathConfig(128, 42), 1000, [(density, (E,))])
        assert stats.k0 == 0.0 and (stats.fvt_residual() == 0.0).all()

    @pytest.mark.parametrize("family", ["family = mixture\nmeans = 1,0,0,0; -1,0,0,0",
                                        "family = sine\nwave = 2,0,0,0"], ids=["mixture", "sine"])
    def test_4d_composite_unresolved_tail_is_a_row(self, tmp_path, capsys, family):
        """A direct tail below Monte Carlo resolution gives an unanchored NaN
        ``tail_reduction!exact_required`` row, not an exit-2 error, and stdout
        marks it [NOTE], not [FAIL], since it cannot fail the run.  The 4-D
        sine runs its 1-D profile, whose tail is a level-set mass, so its
        rows resolve."""
        cfg = write_cfg(tmp_path, f"[experiment]\n{family}\nchecks = composite\n"
                                  "paths = 1000\nsteps = 100\n")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert not any(line.startswith("[FAIL]") for line in out)
        with (tmp_path / "report.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["name"] for row in rows].count("shell_ratio") == 3
        if "sine" in family:
            assert [row["name"] for row in rows].count("tail_reduction") == 3
            assert all(row["dim"] == "4" and row["pass"] == "True" for row in rows)
            return
        assert any(line.startswith("[NOTE] tail_reduction!exact_required") for line in out)
        unresolved = [row for row in rows if row["name"] == "tail_reduction!exact_required"]
        assert unresolved
        assert all(row["estimate"] == row["ci"] == row["bound"] == "" for row in unresolved)
        summary = json.loads((tmp_path / "report.json").read_text())
        assert not any(row["anchored"] for row in summary["rows"]
                       if row["name"] == "tail_reduction!exact_required")

    def test_direct_tail_draws_the_configured_paths(self, tmp_path):
        """The Monte Carlo tail of ``tail_reduction`` draws ``paths`` points,
        as its ``n_samples`` column says, like ``tail_markov``: each resolved
        estimate is the ``tail_markov`` estimate at t = 0 bit for bit, and
        r = e is unresolved in both."""
        cfg = write_cfg(tmp_path, "[experiment]\nfamily = mixture\nmeans = -1, 0; 1, 0\n"
                                  "t = 0, 0.5\nr = 1.1, 1.2, 1.5, e1\npaths = 20000\n"
                                  "steps = 100\nchecks = tail, composite\n")
        rows = run(cfg, out_dir=tmp_path).rows
        markov = [row for row in rows if row.name.startswith("tail_markov") and row.t == 0.0]
        direct = [row for row in rows if row.name.startswith("tail_reduction")]
        assert [row.r for row in markov] == [row.r for row in direct] == [1.1, 1.2, 1.5, E]
        for tail, row in zip(markov, direct):
            assert row.n_samples == tail.n_samples == 20000
            if tail.r == E:
                assert tail.name == "tail_markov!exact_required"
                assert row.name == "tail_reduction!exact_required"
            else:
                assert tail.name == "tail_markov" and row.name == "tail_reduction"
                assert row.estimate == tail.estimate


class TestVerifyAll:
    def test_exit_zero_and_determinism(self, tmp_path):
        r1 = verify_all(seed=42, out_dir=tmp_path / "w1", paths=2000, steps=128)
        r2 = verify_all(seed=42, out_dir=tmp_path / "w2", paths=2000, steps=128, chunk_paths=613)
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert r1.csv_path.read_bytes() == r2.csv_path.read_bytes()
        # K is evaluated on every step of the tilt, which has no tables, and
        # at step 0 only for the mixture and sine, whose K stays below log e
        for result, n_chunks in ((r1, 1), (r2, 4)):
            summary = json.loads(result.json_path.read_text(), parse_constant=_reject_constant)
            assert list(summary["diagnostics"]) == sorted(FAMILIES)
            assert summary["drift_grid_clamps"] == {name: 0 for name in sorted(FAMILIES)}
            assert summary["k_steps"] == {"mixture": n_chunks, "sine": n_chunks,
                                          "tilt": n_chunks * 128}
            for diag in summary["diagnostics"].values():
                assert [row["r"] for row in diag] == list(verify.DEFAULT_R_GRID)
                assert all(0.0 <= row["never_stopped"] <= 1.0 for row in diag)
        # A row is ``vacuous`` when its bound reaches its cap (1 for the
        # probability and TV rows).  Here the anchored vacuous rows are every
        # ``tv_lower_bound``, ``shell_shift`` and ``deviation_budget`` row and
        # three ``deviation_bound`` rows.
        summary = json.loads(r1.json_path.read_text(), parse_constant=_reject_constant)
        with r1.csv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(isinstance(js["vacuous"], bool) for js in summary["rows"])
        # every flagged row has a bound of 1 or more, whatever its cap
        assert all(float(row["bound"]) >= 1.0 for row, js in zip(rows, summary["rows"])
                   if js["vacuous"])
        flagged = {(row["name"], row["family"], float(row["r"]))
                   for row, js in zip(rows, summary["rows"]) if js["anchored"] and js["vacuous"]}
        expected = {(name, family, r)
                    for name in ("tv_lower_bound", "shell_shift", "deviation_budget")
                    for family in FAMILIES for r in verify.DEFAULT_R_GRID}
        expected |= {("deviation_bound", "mixture", E), ("deviation_bound", "tilt", E),
                     ("deviation_bound", "tilt", E**2)}
        assert flagged == expected

    def test_seed_changes_estimates(self, tmp_path):
        r1 = verify_all(seed=1, out_dir=tmp_path / "s1", paths=2000, steps=128)
        r2 = verify_all(seed=2, out_dir=tmp_path / "s2", paths=2000, steps=128)
        assert r1.csv_path.read_bytes() != r2.csv_path.read_bytes()


class TestOneDriver:
    """``run`` and ``verify-all`` simulate through the module attribute
    ``verify.simulate_batch``, the name a tracer wraps: one call per
    command, with a job for every config whose checks read paths, and no
    call when none does."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The arguments of each driver call, bound by name as a tracer
        binds them."""
        driver, calls = verify.simulate_batch, []
        sig = inspect.signature(driver)

        def counted(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            return driver(*args, **kwargs)

        monkeypatch.setattr(verify, "simulate_batch", counted)
        return calls

    def test_verify_all_is_one_call_for_every_family(self, tmp_path, calls):
        verify_all(seed=3, out_dir=tmp_path, paths=1000, steps=100, chunk_paths=400)
        (call,) = calls
        assert (call["cfg"], call["n_paths"], call["chunk_paths"]) == (PathConfig(100, 3), 1000, 400)
        assert [(density.name, r_values) for density, r_values in call["jobs"]] == [
            (name, verify.DEFAULT_R_GRID) for name in sorted(FAMILIES)]

    def test_run_is_one_call(self, tmp_path, calls):
        path = write_cfg(tmp_path, GOOD_CONFIG.format(out=tmp_path))
        run(path)
        cfg = parse_config(path)
        (call,) = calls
        assert (call["cfg"], call["n_paths"]) == (PathConfig(cfg.steps, cfg.seed), cfg.paths)
        ((density, r_values),) = call["jobs"]
        assert (density.name, r_values) == ("mixture", cfg.r_values)

    def test_a_run_whose_checks_read_no_paths_makes_no_call(self, tmp_path, calls):
        text = GOOD_CONFIG.format(out=tmp_path).replace("checks = energy, z, prop2", "checks = tail")
        assert run(write_cfg(tmp_path, text)).exit_code == 0
        assert calls == []


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestCsvFormatting:
    def test_missing_params_serialize_empty(self):
        text = rows_to_csv_text([BoundReport(name="sharpness_floor", estimate=1.0,
                                             ci_half_width=0.0, bound=2.0)])
        line = text.splitlines()[1].split(",")
        assert line[3] == "" and line[4] == "" and line[5] == ""

    def test_worst_margin_skips_nonfinite_rows(self, tmp_path):
        rows = [
            BoundReport(name="tail_reduction!exact_required", estimate=math.nan,
                        ci_half_width=math.nan, bound=math.nan),
            BoundReport(name="drift_energy", estimate=1.5, ci_half_width=0.0, bound=2.0),
            BoundReport(name="exp_moment", estimate=0.0, ci_half_width=0.0, bound=2.0),
        ]
        result = write_reports(rows, tmp_path, "summary", seed=0)
        summary = json.loads(result.json_path.read_text(), parse_constant=_reject_constant)
        assert summary["worst_margin"] == {"name": "drift_energy", "family": "", "slack": 0.5}
        assert summary["rows"][0]["margin"] is None


class TestMainEntry:
    def test_tail_subcommand(self, capsys):
        code = main(["tail", "--r", "7.389", "--t", "0.0"])
        assert code == 0
        assert "tail(tilt" in capsys.readouterr().out
        assert main(["tail", "--family", "sine", "--r", "e2"]) == 0
        assert "tail(sine, t=0, r=7.38906)" in capsys.readouterr().out

    def test_sharpness_subcommand(self, capsys):
        code = main(["sharpness", "--r", "e2, e8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.2377" in out and "0.2670" in out

    def test_config_error_exit_code(self, tmp_path, capsys, monkeypatch):
        bad = write_cfg(tmp_path, "[experiment]\nfamily = unknown\n")
        assert main(["run", str(bad)]) == 2
        assert "family" in capsys.readouterr().err
        # ragged points, a file configparser cannot read, one without the
        # section and a negative weight: an error naming the field, no traceback
        for text, named in (
            ("[experiment]\nfamily = mixture\nmeans = 1, 2; 3\n",
             "'means': line 3: rows must share one dimension"),
            ("family = tilt\n", "'experiment': config does not parse"),
            ("[other]\nfamily = tilt\n", "'experiment': missing [experiment] section"),
            ("[experiment]\nfamily = mixture\nweights = -0.5, 1.5\n",
             "'family': line 2: mixture parameters rejected: mixture weights must be positive"),
        ):
            assert main(["run", str(write_cfg(tmp_path, text, name="outside.cfg"))]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: config field {named}") and "Traceback" not in err, err
        # what configparser cannot read is one stderr line naming the file and the line
        for text, line in (("family = tilt\n", "line: 1"),
                           ("[experiment]\nfamily = tilt\nfamily = sine\n", "[line 3]")):
            path = write_cfg(tmp_path, text, name="unread.cfg")
            assert main(["run", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and str(path) in err and line in err, err
        # a narrow spread and far means both put the mass out of the rule's
        # reach, and the message names both
        for params, named in (("spread = 1e-5", "spread 1e-05 or largest |mean| 1 "),
                              ("means = 1e150; -1e150", "spread 0.5 or largest |mean| 1e+150 ")):
            narrow = write_cfg(tmp_path, f"[experiment]\nfamily = mixture\n{params}\n",
                               name="narrow.cfg")
            assert main(["run", str(narrow)]) == 2
            err = capsys.readouterr().err
            assert "error: config field 'family'" in err
            assert named + "puts the mass out of its reach" in err
        # a 4-D mixture under the default checks (entropy among them) fails
        # at parse time, before any path is drawn
        drawn = []
        monkeypatch.setattr(foellmer, "path_normals", lambda *a, **kw: drawn.append(a))
        wide = write_cfg(tmp_path, "[experiment]\nfamily = mixture\nmeans = 1,0,0,0; -1,0,0,0\n"
                         "paths = 1000\nsteps = 100\n", name="wide.cfg")
        assert main(["run", str(wide), "--out", str(tmp_path)]) == 2
        assert "error: config field 'checks': 'entropy'" in capsys.readouterr().err
        assert drawn == []
        for flag, value in (("--paths", "10"), ("--steps", "50"), ("--seed", "-1"),
                            ("--seed", str(2**128))):
            assert main(["verify-all", flag, value, "--out", str(tmp_path)]) == 2
            assert f"'{flag[2:]}'" in capsys.readouterr().err
        # tail and sharpness report a bad value in the same format
        for argv in (["tail", "--r", "0.5"], ["tail", "--r", "nan"], ["tail", "--r", "5", "--t", "-1"],
                     ["tail", "--r", "e2, e4"], ["tail", "--r", "5", "--t", "abc"],
                     ["sharpness", "--r", "0.5"], ["sharpness", "--r", "1"],
                     ["sharpness", "--r", "e2, e2"], ["sharpness", "--r", ""]):
            assert main(argv) == 2
            assert f"error: config field '{argv[-2][2:]}'" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["verify-all", "run"])
    def test_an_output_dir_that_cannot_be_made_exits_2_first(self, tmp_path, capsys, monkeypatch,
                                                              entry):
        """``--out`` below a regular file, or a config ``out`` that is one,
        exits 2 with one error line naming ``out`` before any path is drawn."""
        drawn = []
        monkeypatch.setattr(foellmer, "path_normals", lambda *a, **kw: drawn.append(a))
        blocker = tmp_path / "file"
        blocker.write_text("")
        if entry == "verify-all":
            argv = ["verify-all", "--paths", "1000", "--steps", "100", "--out", str(blocker / "sub")]
        else:
            argv = ["run", str(write_cfg(tmp_path, f"[experiment]\nfamily = tilt\npaths = 1000\n"
                                                   f"steps = 100\nout = {blocker}\n"))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'out': cannot create directory")
        assert err.count("\n") == 1 and drawn == []

    def test_sine_beyond_its_series_exits_2_first(self, tmp_path, capsys, monkeypatch):
        """A sine eps whose heat series cannot keep SERIES_TOL is a parse-time
        error naming eps, before any path is drawn; eps = 4.8 runs."""
        real_draw, drawn = foellmer.path_normals, []
        monkeypatch.setattr(foellmer, "path_normals",
                            lambda *a, **kw: drawn.append(a) or real_draw(*a, **kw))
        cfg = "[experiment]\nfamily = sine\neps = {}\npaths = 1000\nsteps = 100\nchecks = energy\n"
        assert main(["run", str(write_cfg(tmp_path, cfg.format(6))), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'family'") and err.count("\n") == 1
        assert "eps = 6 is too large" in err and "SERIES_TOL" in err and drawn == []
        assert main(["run", str(write_cfg(tmp_path, cfg.format(4.8))), "--out", str(tmp_path)]) == 0
        assert drawn

    def test_verify_all_seed_range_covers_every_family(self, tmp_path, capsys, monkeypatch):
        """verify-all runs every family with the one seed it is given, so it
        takes any seed of the 128-bit Philox key range, and the next is the
        ordinary seed error."""
        seeds = []
        monkeypatch.setattr(cli, "collect_rows", lambda cfg, stats: seeds.append(cfg.seed) or [])
        monkeypatch.setattr(verify, "simulate_batch",
                            lambda cfg, n_paths, jobs, chunk_paths=None: empty_batches(jobs))
        assert main(["verify-all", "--seed", str(2**128 - 1), "--out", str(tmp_path)]) == 0
        assert seeds == [2**128 - 1] * len(FAMILIES)
        capsys.readouterr()
        assert main(["verify-all", "--seed", str(2**128), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config field 'seed': seed must lie in [0, 2**128)" in err

    def test_out_env_var_sets_the_default_directory(self, tmp_path, monkeypatch):
        """With neither --out nor an ``out`` key, reports go to $OUTAIL_OUT."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("OUTAIL_OUT", str(tmp_path / "from_env"))
        cfg = write_cfg(tmp_path, "[experiment]\nfamily = tilt\nchecks = sharpness\n")
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "from_env" / "report.csv").exists()
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("argv", [
        ["verify-all", "--chunk-size", "-5"],
        ["verify-all", "--chunk-size", "0"],
        ["run", "exp.cfg", "--chunk-size", "0"],
    ], ids=["verify_all_negative", "verify_all_zero", "run_zero"])
    def test_chunk_size_must_be_positive(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--chunk-size" in capsys.readouterr().err
