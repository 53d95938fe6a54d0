import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from outail import cli, foellmer, semigroup, verify
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
        ("seed = 7", f"seed = {2**128}", "seed"),
        ("family = mixture", "family = sine\nwave = 1e308", "family"),
        ("family = mixture", "family = sine\neps = 1e10", "family"),
        ("spread = 0.5", "spread = 5e-324", "family"),
        ("spread = 0.5", "spread = 1e-5", "family"),
        ("spread = 0.5", "spread = 0.01", "family"),
        ("means = -1, 1\nspread = 0.5", "means = -1, 0; 1, 0\nspread = 1e-3", "family"),
        # the entropy check integrates on a rule that stops at dim 3
        (GOOD_CONFIG[GOOD_CONFIG.index("means"):GOOD_CONFIG.index("\nout")],
         "means = -1, 0, 0, 0; 1, 0, 0, 0\nchecks = energy, entropy", "checks"),
    ], ids=["beta", "means", "duplicate_r", "rejected_by_family", "paths_not_int",
            "steps_not_int", "seed_not_int", "dim_not_int", "dim_mismatch", "too_few_steps",
            "negative_seed",
            "p_at_most_one", "p_not_float", "negative_beta", "negative_delta", "r_nan", "t_nan",
            "beta_inf", "p_inf", "r_overflow", "eps_nan", "wave_inf", "delta_inf",
            "seed_2_128", "sine_beta_inf", "sine_log_z_nan", "mixture_beta_inf",
            "mixture_not_normalized", "mixture_residual_0.53", "mixture_2d_not_normalized",
            "entropy_above_quadrature_dim"])
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

        def no_paths(batch_jobs):
            # the checks are recorded, not run, so no batch is simulated
            for job in batch_jobs:
                jobs.append(job)
                yield None

        monkeypatch.setattr(cli, "collect_rows", record)
        monkeypatch.setattr(cli, "simulate_batches", no_paths)
        verify_all(seed=DEFAULT_SEED - sorted(FAMILIES).index(name), out_dir=tmp_path,
                   paths=DEFAULT_PATHS, steps=DEFAULT_STEPS)
        assert ran[name] == cfg
        density, path_cfg, n_paths, r_values, _ = jobs[sorted(FAMILIES).index(name)]
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
def test_parse_config_rejects_or_returns_finite_in_range(tmp_path_factory, family, key, value):
    """Any text under any key is a ConfigError or a config whose numbers are
    finite and in range; no other exception escapes."""
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
    numbers += [] if cfg.delta is None else [cfg.delta]
    assert all(math.isfinite(x) for x in numbers)
    assert min(cfg.t_values) >= 0 and min(cfg.r_values) > 1 and cfg.p > 1
    assert len(set(cfg.r_values)) == len(cfg.r_values)
    assert cfg.paths >= 1000 and cfg.steps >= 100 and 0 <= cfg.seed < 2**128
    assert cfg.delta is None or cfg.delta >= 0
    assert cfg.beta_override is None or cfg.beta_override >= 0


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

    @pytest.mark.parametrize("family, per_t", [
        ("sine", lambda t: SinePerturbationDensity if t == 0 else semigroup._MehlerImage),
        ("mixture", lambda t: MixtureDensity),
    ])
    def test_tail_evaluates_the_level_set_grid_once_per_t(self, tmp_path, monkeypatch,
                                                          family, per_t):
        """A ``tail`` run with 8 thresholds evaluates log Q_t f on the
        level-set grid once per t: f itself at t = 0, else the sine's Mehler
        image or the mixture's ``closed_ou``.  Only grid-sized inputs count;
        the bisection evaluates the midpoints of the brackets."""
        grid_calls = []
        for cls in (SinePerturbationDensity, semigroup._MehlerImage, MixtureDensity):
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
        assert grid_calls == [per_t(t) for t in t_values]

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

    @pytest.mark.parametrize("family, image", [
        ("sine", semigroup._MehlerImage),
        ("mixture", MixtureDensity),
    ])
    def test_hessian_evaluates_the_image_once_per_t(self, tmp_path, monkeypatch, family, image):
        """A ``hessian`` run over three t calls the image's log_f once per t,
        on the stencils of every probe: the sine's Mehler image or the
        mixture's ``closed_ou``.  The config is parsed before counting, so
        its normalization check on the rule nodes does not count."""
        t_values = (0.1, 0.5, 1.0)
        cfg = parse_config(write_cfg(tmp_path, f"[experiment]\nfamily = {family}\nchecks = hessian\n"
                                               f"t = {', '.join(map(str, t_values))}\n"))
        calls = []
        for cls in (SinePerturbationDensity, semigroup._MehlerImage, MixtureDensity):
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
        rows = collect_rows(cfg, cli._family_batch(cfg))
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
        stats = cli._family_batch(cfg)
        diag = summary["diagnostics"]["tilt"]
        assert list(summary["diagnostics"]) == ["tilt"]
        assert [row["r"] for row in diag] == list(cfg.r_values)
        for row in diag:
            sl = stats.slice_for(row["r"])
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

    def test_a_passage_at_the_final_node_is_a_stop(self):
        """T = steps also means that K first exceeds log r at the final node:
        such a path passed, so it counts in the overshoot and not as never
        stopped.  The threshold is picked from the batch: between a path's
        largest K before the final node and its K_1."""
        density, cfg = TiltDensity([2.0]), PathConfig(128, 3)
        for i in range(200):
            traj = foellmer.simulate_path(density, cfg, i)
            if traj.k[-1] > traj.k[:-1].max():
                break
        r = float(np.exp(0.5 * (traj.k[:-1].max() + traj.k[-1])))
        stats = verify.simulate_batch(density, cfg, i + 1, r_values=(r,))
        sl = stats.stopped[r]
        assert sl.t_index[i] == cfg.steps and sl.k_at_stop[i] > np.log(r)
        passed = (sl.t_index < cfg.steps) | (sl.k_at_stop > np.log(r))
        (row,) = cli.passage_diagnostics(stats)
        assert row["never_stopped"] == np.mean(~passed) < np.mean(sl.t_index == cfg.steps)
        assert row["overshoot_max"] == sl.overshoot()[passed].max()

    def test_passage_diagnostics_null_when_not_finite(self):
        stats = verify.simulate_batch(TiltDensity([2.0]), PathConfig(128, 3), 50, r_values=(E,))
        stats.stopped[E].k_at_stop[3] = math.nan
        (row,) = cli.passage_diagnostics(stats)
        assert row["overshoot_median"] is None and row["overshoot_max"] is None
        assert json.loads(json.dumps(row, allow_nan=False)) == row

    def test_passage_diagnostics_null_when_no_path_stops(self):
        stats = verify.simulate_batch(TiltDensity([2.0]), PathConfig(128, 3), 50,
                                      r_values=(E, E**40))
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
        assert json.loads(result.json_path.read_text())["diagnostics"] == {}

    @pytest.mark.parametrize("family", ["family = mixture\nmeans = 1,0,0,0; -1,0,0,0",
                                        "family = sine\nwave = 2,0,0,0"], ids=["mixture", "sine"])
    def test_4d_composite_unresolved_tail_is_a_row(self, tmp_path, capsys, family):
        """A direct tail below Monte Carlo resolution gives an unanchored NaN
        ``tail_reduction!exact_required`` row, not an exit-2 error, and stdout
        marks it [NOTE], not [FAIL], since it cannot fail the run."""
        cfg = write_cfg(tmp_path, f"[experiment]\n{family}\nchecks = composite\n"
                                  "paths = 1000\nsteps = 100\n")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert not any(line.startswith("[FAIL]") for line in out)
        assert any(line.startswith("[NOTE] tail_reduction!exact_required") for line in out)
        with (tmp_path / "report.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["name"] for row in rows].count("shell_ratio") == 3
        unresolved = [row for row in rows if row["name"] == "tail_reduction!exact_required"]
        assert unresolved
        assert all(row["estimate"] == row["ci"] == row["bound"] == "" for row in unresolved)
        summary = json.loads((tmp_path / "report.json").read_text())
        assert not any(row["anchored"] for row in summary["rows"]
                       if row["name"] == "tail_reduction!exact_required")


class TestVerifyAll:
    def test_exit_zero_and_determinism(self, tmp_path):
        r1 = verify_all(seed=42, out_dir=tmp_path / "w1", paths=2000, steps=128)
        r2 = verify_all(seed=42, out_dir=tmp_path / "w2", paths=2000, steps=128, chunk_paths=613)
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert r1.csv_path.read_bytes() == r2.csv_path.read_bytes()
        for result in (r1, r2):
            summary = json.loads(result.json_path.read_text(), parse_constant=_reject_constant)
            assert list(summary["diagnostics"]) == sorted(FAMILIES)
            for diag in summary["diagnostics"].values():
                assert [row["r"] for row in diag] == list(verify.DEFAULT_R_GRID)
                assert all(0.0 <= row["never_stopped"] <= 1.0 for row in diag)

    def test_seed_changes_estimates(self, tmp_path):
        r1 = verify_all(seed=1, out_dir=tmp_path / "s1", paths=2000, steps=128)
        r2 = verify_all(seed=2, out_dir=tmp_path / "s2", paths=2000, steps=128)
        assert r1.csv_path.read_bytes() != r2.csv_path.read_bytes()


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestCsvFormatting:
    def test_missing_params_serialize_empty(self):
        text = rows_to_csv_text([BoundReport(name="x", estimate=1.0, ci_half_width=0.0, bound=2.0)])
        line = text.splitlines()[1].split(",")
        assert line[3] == "" and line[4] == "" and line[5] == ""

    def test_worst_margin_skips_nonfinite_rows(self, tmp_path):
        rows = [
            BoundReport(name="nan_row", estimate=math.nan, ci_half_width=math.nan, bound=math.nan),
            BoundReport(name="tight", estimate=1.5, ci_half_width=0.0, bound=2.0),
            BoundReport(name="loose", estimate=0.0, ci_half_width=0.0, bound=2.0),
        ]
        result = write_reports(rows, tmp_path, "summary", seed=0)
        summary = json.loads(result.json_path.read_text(), parse_constant=_reject_constant)
        assert summary["worst_margin"] == {"name": "tight", "family": "", "slack": 0.5}
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
        narrow = write_cfg(tmp_path, "[experiment]\nfamily = mixture\nspread = 1e-5\n", name="narrow.cfg")
        assert main(["run", str(narrow)]) == 2
        assert "error: config field 'family'" in capsys.readouterr().err
        # a 4-D mixture under the default checks (entropy among them) fails
        # at parse time, before any path is drawn
        drawn = []
        monkeypatch.setattr(foellmer, "path_normals", lambda *a, **kw: drawn.append(a))
        wide = write_cfg(tmp_path, "[experiment]\nfamily = mixture\nmeans = 1,0,0,0; -1,0,0,0\n"
                         "paths = 1000\nsteps = 100\n", name="wide.cfg")
        assert main(["run", str(wide), "--out", str(tmp_path)]) == 2
        assert "error: config field 'checks': 'entropy'" in capsys.readouterr().err
        assert drawn == []
        # 2**128 - 1 reaches the limit at the second family, before any simulation
        for flag, value in (("--paths", "10"), ("--steps", "50"), ("--seed", "-1"),
                            ("--seed", str(2**128)), ("--seed", str(2**128 - 1))):
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
        """verify-all seeds family k with seed + k, so the largest seed it
        takes puts the last family at 2**128 - 1, and the next is rejected
        with the range it checks."""
        last = len(FAMILIES) - 1
        seeds = []
        monkeypatch.setattr(cli, "collect_rows", lambda cfg, stats: seeds.append(cfg.seed) or [])
        monkeypatch.setattr(cli, "simulate_batches", lambda jobs: (None for _ in jobs))
        assert main(["verify-all", "--seed", str(2**128 - 1 - last), "--out", str(tmp_path)]) == 0
        assert seeds[-1] == 2**128 - 1
        capsys.readouterr()
        assert main(["verify-all", "--seed", str(2**128 - last), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert (f"config field 'seed': verify-all seeds its families with seed, ..., "
                f"seed + {last}, so seed must lie in [0, 2**128 - {last})") in err

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
