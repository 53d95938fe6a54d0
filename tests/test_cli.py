import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from outail import cli, verify
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
from outail.errors import ConfigError
from outail.foellmer import DEFAULT_STEPS
from outail.measures import FAMILIES
from outail.reports import CSV_COLUMNS, BoundReport
from outail.verify import canonical_delta, default_families

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
    ], ids=["beta", "means", "duplicate_r", "rejected_by_family", "paths_not_int",
            "steps_not_int", "seed_not_int", "dim_not_int", "dim_mismatch", "too_few_steps",
            "negative_seed",
            "p_at_most_one", "p_not_float", "negative_beta", "negative_delta", "r_nan", "t_nan",
            "beta_inf", "p_inf", "r_overflow", "eps_nan", "wave_inf", "delta_inf",
            "seed_2_128", "sine_beta_inf", "sine_log_z_nan", "mixture_beta_inf"])
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
        ran = {}

        def record(c, chunk_paths):
            ran[c.family] = c
            return []

        monkeypatch.setattr(cli, "collect_rows", record)
        verify_all(seed=DEFAULT_SEED - sorted(FAMILIES).index(name), out_dir=tmp_path,
                   paths=DEFAULT_PATHS, steps=DEFAULT_STEPS)
        assert ran[name] == cfg

    def test_unknown_keys_are_named(self, tmp_path):
        text = GOOD_CONFIG.format(out=tmp_path).replace("steps = 128", "step = 128").replace(
            "checks = energy, z, prop2", "check = tail")
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, text))
        assert exc.value.field == "step" and "check" in exc.value.message
        with pytest.raises(ConfigError) as exc:
            parse_config(write_cfg(tmp_path, "[experiment]\nfamily = tilt\neps = 0.3\n"))
        assert exc.value.field == "eps"

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
        rows = collect_rows(parse_config(write_cfg(tmp_path, text)))
        assert len(keys) == len(set(keys)) == calls
        assert {(row.r, row.delta) for row in rows if not math.isnan(row.delta)} == {
            (r, delta) for r, delta, _ in keys
        }

    def test_shipped_negative_control(self, tmp_path, capsys):
        """The shipped config exits 1 on its convexity floor; perturbation
        rows carry the declared beta 0.11, martingale rows the density's."""
        path = CONFIGS / "negative-control.ini"
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1
        capsys.readouterr()
        summary = json.loads((tmp_path / "report.json").read_text())
        assert "convexity_floor" in summary["anchored_failures"]
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


class TestVerifyAll:
    def test_exit_zero_and_determinism(self, tmp_path):
        r1 = verify_all(seed=42, out_dir=tmp_path / "w1", paths=2000, steps=128)
        r2 = verify_all(seed=42, out_dir=tmp_path / "w2", paths=2000, steps=128, chunk_paths=613)
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert r1.csv_path.read_bytes() == r2.csv_path.read_bytes()

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

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, "[experiment]\nfamily = unknown\n")
        assert main(["run", str(bad)]) == 2
        assert "family" in capsys.readouterr().err
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
