import csv
from dataclasses import fields

import numpy as np
import pytest

from shaploc import ConfigError, ExperimentSpec, GaussianModel, SuiteConfig, parse_config, run_suite
from shaploc import suite
from shaploc.harness import GridSpec, analytic_pe_gaussian
from shaploc.suite import (
    COLUMNS,
    bench,
    preset_table1,
    preset_table2,
    render_rows,
)

MINIMAL = """\
[experiment.basic]
attack_type = A
am = 10
"""


def write(tmp_path, text, name="suite.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ----------------------------------------------------------------------
# parsing


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert len(cfg.experiments) == 1
    name, spec = cfg.experiments[0]
    assert name == "basic"
    assert spec.attack_prior == 0.5
    assert spec.threshold_mode == "exact"
    assert spec.targets == (1,)
    assert spec.sensor_under_test == 1
    assert spec.rho == 0.0
    assert cfg.seed == 0


def test_suite_section(tmp_path):
    cfg = parse_config(write(tmp_path, "[suite]\nseed = 7\nformat = markdown\n" + MINIMAL))
    assert cfg.seed == 7
    assert cfg.fmt == "markdown"


def test_correlation_out_of_range(tmp_path):
    bad = MINIMAL + "rho = 1.2\n"
    with pytest.raises(ConfigError, match="correlation out of range"):
        parse_config(write(tmp_path, bad))


def test_missing_sigma_a_for_type_b(tmp_path):
    bad = "[experiment.b]\nattack_type = B\nam = 10\n"
    with pytest.raises(ConfigError, match="sigma_a"):
        parse_config(write(tmp_path, bad))


def test_unknown_key_rejected(tmp_path):
    bad = MINIMAL + "wibble = 3\n"
    with pytest.raises(ConfigError, match="wibble"):
        parse_config(write(tmp_path, bad))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(write(tmp_path, "[nonsense]\nx = 1\n"))


def test_default_section_rejected(tmp_path):
    # configparser's [DEFAULT] would reach [suite] and every experiment
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        parse_config(write(tmp_path, "[DEFAULT]\ntrials = 5\n" + MINIMAL))


def test_parse_error_carries_line_number(tmp_path):
    with pytest.raises(ConfigError, match="line"):
        parse_config(write(tmp_path, "[experiment.a]\nattack_type = A\n???\n"))


def test_grid_mode_keys(tmp_path):
    text = MINIMAL + "threshold_mode = grid\ngrid_lo = 0\ngrid_hi = 30\ngrid_steps = 100\n"
    cfg = parse_config(write(tmp_path, text))
    _, spec = cfg.experiments[0]
    assert spec.threshold_mode == GridSpec(0.0, 30.0, 100)


def test_grid_mode_requires_bounds(tmp_path):
    text = MINIMAL + "threshold_mode = grid\n"
    with pytest.raises(ConfigError, match="grid_lo"):
        parse_config(write(tmp_path, text))


def test_suite_section_applies_wherever_it_sits(tmp_path):
    # its trials once reached only the experiments after it
    cfg = parse_config(write(tmp_path, MINIMAL + "\n[suite]\ntrials = 1000\n"))
    assert cfg.experiments[0][1].trials == 1000


@pytest.mark.parametrize("keys", ["grid_lo = 0\ngrid_hi = 30\ngrid_steps = 100", "grid_steps = 100"])
@pytest.mark.parametrize("mode", ["", "threshold_mode = exact-sort\n"])
def test_grid_keys_need_grid_mode(tmp_path, keys, mode):
    # they were dropped without a word, running the exact search instead
    with pytest.raises(ConfigError, match=r"^\[experiment\.basic\] grid_.*threshold_mode = grid"):
        parse_config(write(tmp_path, MINIMAL + mode + keys + "\n"))


@pytest.mark.parametrize("sigma, message", [
    ("sigma1 = 1e200", "sigma1: its square overflows"),
    ("sigma2 = 1e200", "sigma2: its square overflows"),
    ("sigma1 = 1e-300", "covariance is not positive definite"),
])
def test_a_covariance_that_cannot_be_built_is_a_config_error(tmp_path, sigma, message):
    # both ran into a FAILED row at run time
    with pytest.raises(ConfigError, match=f"^\\[experiment\\.basic\\] {message}"):
        parse_config(write(tmp_path, MINIMAL + sigma + "\n"))


def test_every_spec_field_is_a_config_key_and_back():
    # a field the reader cannot fill, or a key with no field, fails here
    keys = set(suite._EXPERIMENT_KEYS) - set(suite._GRID_KEYS)
    assert keys == {f.name for f in fields(ExperimentSpec)}


@pytest.mark.parametrize("body, key", [
    ("attack_type = B\nam = 1\nsigma_a = abc", "sigma_a"),
    ("attack_type = C\nam = 1\num = abc", "um"),
    ("attack_type = B\nam = 1\nsigma_a = nan", "sigma_a"),
    ("attack_type = A\nam = 1\nsigma1 = inf", "sigma1"),
    ("attack_type = A\nam = 1\nmu1 = nan", "mu1"),
    ("attack_type = A\nam = -inf", "am"),
    ("attack_type = A\nam = 1\nattack_prior = nan", "attack_prior"),
])
def test_float_keys_must_be_finite_numbers(tmp_path, body, key):
    with pytest.raises(ConfigError, match=key):
        parse_config(write(tmp_path, f"[experiment.x]\n{body}\n"))


@pytest.mark.parametrize("bounds", ["grid_lo = 0\ngrid_hi = inf", "grid_lo = -inf\ngrid_hi = 1", "grid_lo = nan\ngrid_hi = 1"])
def test_grid_bounds_must_be_finite(tmp_path, bounds):
    text = MINIMAL + f"threshold_mode = grid\n{bounds}\ngrid_steps = 10\n"
    with pytest.raises(ConfigError, match="grid_"):
        parse_config(write(tmp_path, text))


@pytest.mark.parametrize("field, value", [
    ("trials", 1000.5),
    ("sensor_under_test", 1.0),
    ("targets", (1.0,)),
    ("am", float("nan")),
    ("rho", float("nan")),
    ("sigma1", float("nan")),
    ("sigma2", float("inf")),
    ("mu1", float("inf")),
    ("mu2", float("-inf")),
    ("attack_prior", "0.5"),
    ("threshold_mode", "grid"),
    ("threshold_mode", None),
])
def test_spec_refuses_values_it_cannot_run(field, value):
    with pytest.raises(ConfigError, match=f"^{field}: "):
        ExperimentSpec(**{"attack_type": "A", "am": 1.0, field: value})


def test_spec_reads_integer_fields_as_python_ints():
    spec = ExperimentSpec(
        attack_type="A", am=1.0, trials=np.int64(50), sensor_under_test=np.int8(2),
        targets=[np.int64(2)],
    )
    assert (spec.trials, spec.sensor_under_test, spec.targets) == (50, 2, (2,))
    assert type(spec.trials) is int and type(spec.targets[0]) is int


def test_duplicate_names_rejected():
    spec = ExperimentSpec(attack_type="A", am=1.0)
    with pytest.raises(ConfigError, match="unique"):
        SuiteConfig(experiments=(("a", spec), ("a", spec)))


def test_round_trip_canonical_config(tmp_path):
    # every suite and experiment key written out, one per line, parses back
    # to the suite it spells
    text = """\
[suite]
seed = 11
format = markdown
out = results.md
trials = 321

[experiment.b]
rho = -0.25
sigma1 = 1.5
sigma2 = 0.75
mu1 = 0.5
mu2 = -2
attack_type = B
am = 3
sigma_a = 0.2
targets = 1, 2
sensor_under_test = 2
trials = 123
attack_prior = 0.25
threshold_mode = exact-sort

[experiment.c]
attack_type = C
am = 9.95
um = 0.1
"""
    b = ExperimentSpec(
        attack_type="B", am=3.0, rho=-0.25, sigma1=1.5, sigma2=0.75,
        mu1=0.5, mu2=-2.0, sigma_a=0.2, targets=(1, 2), sensor_under_test=2,
        trials=123, attack_prior=0.25,
    )
    c = ExperimentSpec(attack_type="C", am=9.95, um=0.1, trials=321)
    assert parse_config(write(tmp_path, text)) == SuiteConfig(
        experiments=(("b", b), ("c", c)), seed=11, fmt="markdown", out="results.md",
    )


def test_round_trip_with_grid_mode(tmp_path):
    text = """\
[experiment.g]
attack_type = C
am = 9.95
um = 0.1
trials = 123
threshold_mode = grid
grid_lo = -1
grid_hi = 25
grid_steps = 999
"""
    g = ExperimentSpec(
        attack_type="C", am=9.95, um=0.1, trials=123,
        threshold_mode=GridSpec(-1.0, 25.0, 999),
    )
    assert parse_config(write(tmp_path, text)) == SuiteConfig(experiments=(("g", g),))


def test_keys_a_file_leaves_out_take_the_dataclass_defaults(tmp_path):
    spec = ExperimentSpec(attack_type="A", am=10.0)
    assert parse_config(write(tmp_path, MINIMAL)) == SuiteConfig(experiments=(("basic", spec),))


# ----------------------------------------------------------------------
# presets


def test_table1_preset_shape():
    cfg = preset_table1(trials=1000)
    assert len(cfg.experiments) == 12
    assert all(spec.rho == 0.0 for _, spec in cfg.experiments)
    kinds = [spec.attack_type for _, spec in cfg.experiments]
    assert kinds.count("A") == 3 and kinds.count("B") == 6 and kinds.count("C") == 3


def test_table2_preset_shape():
    cfg = preset_table2(trials=1000)
    assert len(cfg.experiments) == 6
    rhos = sorted(spec.rho for _, spec in cfg.experiments)
    assert rhos == [-0.8, -0.5, -0.2, 0.2, 0.5, 0.8]
    assert all(spec.attack_type == "A" and spec.am == 1.0 for _, spec in cfg.experiments)


# ----------------------------------------------------------------------
# suite execution


def test_run_suite_rows_and_columns():
    cfg = preset_table2(trials=2000, seed=1)
    status, rows = run_suite(cfg)
    assert status == 0
    assert len(rows) == 6
    for row in rows:
        assert 0.0 <= row["Pe_v"] <= 1.0
        # the single term reads sensor 1 alone, so the closed form holds at any rho
        assert row["analytic_Pe"] == analytic_pe_gaussian(2.0, 1.0, 0.5)
        assert row["analytic_Pe"] == pytest.approx(0.4709705671, abs=1e-10)
    text = render_rows(cfg, rows)
    header = text.splitlines()[1]
    assert header == ",".join(COLUMNS)


def test_independent_suite_pe_equality_and_oracle_column():
    cfg = preset_table1(trials=2000, seed=2)
    status, rows = run_suite(cfg)
    assert status == 0
    for row in rows:
        assert row["Pe_v"] == row["Pe_phi"]
    # oracle applies to the type-A rows only
    for row in rows:
        if row["attack_type"] == "A":
            assert row["analytic_Pe"] is not None
        else:
            assert row["analytic_Pe"] is None


def test_empty_suite_renders_header_only():
    cfg = SuiteConfig(experiments=())
    status, rows = run_suite(cfg)
    assert status == 0
    lines = render_rows(cfg, rows).splitlines()
    assert lines[-1] == ",".join(COLUMNS)


def test_failed_experiment_marker_row():
    # a prior this small yields no attacked trials: threshold optimization
    # fails and the row must carry a FAILED marker
    bad = ExperimentSpec(attack_type="A", am=1.0, trials=50, attack_prior=1e-12)
    good = ExperimentSpec(attack_type="A", am=10.0, trials=500)
    cfg = SuiteConfig(experiments=(("bad", bad), ("good", good)))
    status, rows = run_suite(cfg)
    assert status == 2
    assert "FAILED" in rows[0]["name"]
    assert rows[1]["Pe_v"] is not None


def test_names_with_commas_keep_the_columns(tmp_path):
    text = """\
[experiment.a,b]
attack_type = A
am = 1
trials = 50

[experiment.one "trial", failing]
attack_type = A
am = 1
trials = 1
"""
    cfg = parse_config(write(tmp_path, text))
    status, rows = run_suite(cfg)
    assert status == 2
    lines = [ln for ln in render_rows(cfg, rows).splitlines() if not ln.startswith("#")]
    records = list(csv.reader(lines))
    assert [len(r) for r in records] == [len(COLUMNS)] * 3
    assert records[1][0] == "a,b"
    assert records[2][0].startswith('one "trial", failing FAILED: ')


def test_markdown_escapes_pipes():
    cfg = SuiteConfig(experiments=(), fmt="markdown")
    text = render_rows(cfg, [{"name": "a|b", "Pe_v": 0.5}])
    row = text.splitlines()[-1]
    assert row.startswith("| a\\|b | ")
    assert row.replace("\\|", "").count("|") == len(COLUMNS) + 1


def test_render_is_deterministic():
    cfg = preset_table2(trials=2000, seed=4)
    out1 = render_rows(cfg, run_suite(cfg)[1])
    out2 = render_rows(cfg, run_suite(cfg)[1])
    assert out1 == out2


def test_markdown_rendering():
    cfg = SuiteConfig(experiments=(), fmt="markdown")
    text = render_rows(cfg, [])
    assert text.splitlines()[1].startswith("| name |")


def test_timestamp_header_is_optional():
    cfg = SuiteConfig(experiments=())
    assert "generated=" not in render_rows(cfg, [], timestamp=False)
    assert "generated=" in render_rows(cfg, [], timestamp=True)


# ----------------------------------------------------------------------
# bench


def test_bench_rows():
    rows = bench(range(1, 5))
    assert [row["n"] for row in rows] == [1, 2, 3, 4]
    for row in rows:
        assert row["t_shapley"] > 0
        assert row["t_single"] > 0


def test_bench_scores_a_table_on_every_timed_call(monkeypatch):
    # a repeat on one observation would read the kept table and time no scoring
    import shaploc.suite as suite

    tables, calls = [], []
    score, explain = GaussianModel._coalition_values, suite.all_shapley

    def counted_score(self, x):
        tables.append(self)
        return score(self, x)

    def counted_explain(vf, x):
        calls.append(vf)
        return explain(vf, x)

    monkeypatch.setattr(GaussianModel, "_coalition_values", counted_score)
    monkeypatch.setattr(suite, "all_shapley", counted_explain)
    bench([13, 14])
    assert len(calls) > 2 * 9
    assert len(tables) == len(calls)


def test_seed_gives_reproducible_suite():
    cfg = preset_table2(trials=2000, seed=5)
    _, rows1 = run_suite(cfg)
    _, rows2 = run_suite(cfg)
    assert rows1 == rows2
    _, rows3 = run_suite(preset_table2(trials=2000, seed=6))
    assert any(
        r1["Pe_v"] != r3["Pe_v"] for r1, r3 in zip(rows1, rows3)
    )
