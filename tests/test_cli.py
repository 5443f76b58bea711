from pathlib import Path

import pytest

import shaploc.cli
from shaploc.cli import main

GOOD = """\
[suite]
seed = 3

[experiment.small]
attack_type = A
am = 10
sigma1 = 2
sigma2 = 2
trials = 2000
"""


def test_run_config(tmp_path, capsys):
    cfg = tmp_path / "suite.ini"
    cfg.write_text(GOOD)
    assert main(["run", str(cfg), "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert "seed=3" in out
    assert "small" in out


def test_run_writes_output_file(tmp_path):
    cfg = tmp_path / "suite.ini"
    cfg.write_text(GOOD)
    out = tmp_path / "results.csv"
    assert main(["run", str(cfg), "--out", str(out), "--no-timestamp"]) == 0
    assert "small" in out.read_text()


def test_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment.x]\nattack_type = A\nam = 10\nrho = 2\n")
    assert main(["run", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


def test_non_finite_config_numbers_exit_code(tmp_path, capsys):
    for extra in ("sigma1 = inf", "mu1 = nan", "threshold_mode = grid\ngrid_lo = 0\ngrid_hi = inf\ngrid_steps = 10"):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[experiment.x]\nattack_type = A\nam = 1\ntrials = 200\n{extra}\n")
        assert main(["run", str(cfg), "--no-timestamp"]) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""


def test_config_error_names_its_section_once(tmp_path, capsys):
    for extra in (
        "sigma1 = inf",                # a float reader's error
        "trials = many",               # an integer reader's error
        "rho = 2",                     # ExperimentSpec's error
        "threshold_mode = grid\ngrid_lo = 0\ngrid_hi = inf\ngrid_steps = 10",
        "threshold_mode = grid\ngrid_lo = 1\ngrid_hi = 0\ngrid_steps = 10",
        "sigma1 = 1e200",              # a model that cannot be built, once a FAILED row
        "sigma2 = 1e-300",
    ):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[experiment.x]\nattack_type = A\nam = 1\n{extra}\n")
        assert main(["run", str(cfg), "--no-timestamp"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [experiment.x] ")
        assert err.count("[experiment.x]") == 1


def test_missing_file_exit_code(tmp_path):
    assert main(["run", str(tmp_path / "nope.ini")]) == 1


def test_runtime_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "degenerate.ini"
    cfg.write_text(
        "[experiment.x]\nattack_type = A\nam = 1\ntrials = 20\n"
        "attack_prior = 1e-12\n"
    )
    assert main(["run", str(cfg), "--no-timestamp"]) == 2
    assert "FAILED" in capsys.readouterr().out


def test_preset_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["preset", "table2", "--trials", "2000", "--seed", "42", "--no-timestamp"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


DATA = Path(__file__).parent / "data"
GOLDEN = {
    "table1.csv": ["preset", "table1", "--trials", "20000", "--seed", "7"],
    "table2.csv": ["preset", "table2", "--trials", "20000", "--seed", "7"],
    "mixed.csv": ["run", str(DATA / "mixed.ini")],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_keep_the_committed_bits(tmp_path, name):
    # the committed CSVs pin the trial stream: a change that moves any bit
    # of any trial's scores moves a threshold or an error rate here, and
    # regenerates these files on purpose
    out = tmp_path / name
    assert main(GOLDEN[name] + ["--no-timestamp", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_the_means_change_no_row(tmp_path):
    # both statistics read x - mean, so moving every experiment's mean
    # prints the zero-mean rows
    text = (DATA / "mixed.ini").read_text()
    assert "mu1" not in text and "mu2" not in text
    cfg = tmp_path / "moved.ini"
    cfg.write_text(text.replace("trials = ", "mu1 = 1e15\nmu2 = -3e8\ntrials = "))
    out = tmp_path / "moved.csv"
    assert main(["run", str(cfg), "--no-timestamp", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "mixed.csv").read_bytes()


def test_seed_outside_the_stream_key_range_exit_code(tmp_path, capsys):
    # such a seed would otherwise wrap round to another seed's rows
    for seed in (-1, 2**64, 2**64 + 1):
        assert main(["preset", "table2", "--trials", "50", "--seed", str(seed)]) == 1
        assert "config error: seed" in capsys.readouterr().err
        cfg = tmp_path / "seed.ini"
        cfg.write_text(f"[suite]\nseed = {seed}\n\n[experiment.x]\nattack_type = A\nam = 1\n")
        assert main(["run", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "config error: seed" in captured.err
        assert captured.out == ""
    args = ["preset", "table2", "--trials", "50", "--seed", str(2**64 - 1), "--no-timestamp"]
    assert main(args) == 0
    assert capsys.readouterr().out.startswith(f"# shaploc suite, seed={2**64 - 1}\n")


def test_preset_table1_markdown(tmp_path, capsys):
    assert main([
        "preset", "table1", "--trials", "500", "--no-timestamp",
        "--format", "markdown",
    ]) == 0
    out = capsys.readouterr().out
    # seed line + header row + separator + 12 experiment rows
    assert out.count("\n") == 3 + 12
    assert "| name |" in out


def test_bench_small(capsys):
    assert main(["bench", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n,t_shapley_s")
    assert len(out.strip().splitlines()) == 4


def test_bench_bad_max_n(capsys):
    assert main(["bench", "--max-n", "0"]) == 1


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran although the output path cannot be written")


@pytest.mark.parametrize("command", ["preset", "run", "run-config-out", "bench"])
def test_unwritable_out_is_refused_before_the_run(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(shaploc.cli, "run_suite", _must_not_run)
    monkeypatch.setattr(shaploc.cli, "bench", _must_not_run)
    out = tmp_path / "missing" / "x.csv"
    cfg = tmp_path / "suite.ini"
    cfg.write_text(GOOD)
    argv = {
        "preset": ["preset", "table2", "--trials", "200000", "--out", str(out)],
        "run": ["run", str(cfg), "--out", str(out)],
        "run-config-out": ["run", str(cfg)],
        "bench": ["bench", "--max-n", "3", "--out", str(out)],
    }[command]
    if command == "run-config-out":
        cfg.write_text(GOOD.replace("seed = 3\n", f"seed = 3\nout = {out}\n"))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}")
    assert captured.err.count("\n") == 1
    assert not out.parent.exists()


def test_an_existing_out_keeps_its_contents_until_the_output_replaces_them(tmp_path, monkeypatch):
    out = tmp_path / "results.csv"
    out.write_text("old\n")
    seen = []
    run_suite = shaploc.cli.run_suite

    def watch(cfg):
        seen.append(out.read_text())
        return run_suite(cfg)

    monkeypatch.setattr(shaploc.cli, "run_suite", watch)
    cfg = tmp_path / "suite.ini"
    cfg.write_text(GOOD)
    assert main(["run", str(cfg), "--out", str(out), "--no-timestamp"]) == 0
    assert seen == ["old\n"]
    assert out.read_text().startswith("# shaploc suite, seed=3\n")


@pytest.mark.parametrize("option", [["--format", "markdown"], ["--no-timestamp"]])
def test_bench_refuses_suite_output_options(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--max-n", "3", *option])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
