"""Config-driven experiment suites, table presets and the complexity bench.

A suite is a list of named two-sensor experiments described either in an
INI-style config file or by one of the built-in presets (the independent
and correlated parameter grids).  Each experiment is run through the Monte
Carlo harness and reported as one row of a CSV or markdown table.
"""

from __future__ import annotations

import configparser
import csv
import gc
import io
import math
import operator
import time
from dataclasses import dataclass
from itertools import cycle
from numbers import Real

import numpy as np

from .attacks import AttackSpec
from .coalitions import Coalition
from .gaussian import GaussianModel, GaussianValueFunction
from .harness import (
    ExperimentConfig,
    GridSpec,
    analytic_pe_gaussian,
    run_experiment,
)
from .shapley import all_shapley

COLUMNS = (
    "name", "rho", "sigma1", "sigma2", "attack_type", "sigma_a", "AM", "UM",
    "M", "prior", "Pe_v", "Pe_phi", "CI_v", "CI_phi", "tau_v", "tau_phi",
    "analytic_Pe",
)


class ConfigError(ValueError):
    """Config file could not be parsed or validated."""


def _integer(key: str, value) -> int:
    """``value`` as a Python int, or a ConfigError naming ``key``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{key}: must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ExperimentSpec:
    """Scalar description of one two-sensor experiment.

    Sensor numbering is 1-based here, matching the config file syntax; the
    harness works with 0-based indices.
    """

    attack_type: str
    am: float
    rho: float = 0.0
    sigma1: float = 1.0
    sigma2: float = 1.0
    mu1: float = 0.0
    mu2: float = 0.0
    sigma_a: float | None = None
    um: float | None = None
    targets: tuple[int, ...] = (1,)
    sensor_under_test: int = 1
    trials: int = 10_000
    attack_prior: float = 0.5
    threshold_mode: GridSpec | str = "exact"

    def __post_init__(self) -> None:
        for key in ("trials", "sensor_under_test"):
            object.__setattr__(self, key, _integer(key, getattr(self, key)))
        try:
            targets = tuple(self.targets)
        except TypeError:
            raise ConfigError(f"targets: not a sensor list: {self.targets!r}") from None
        object.__setattr__(self, "targets", tuple(_integer("targets", t) for t in targets))
        for key in ("am", "rho", "sigma1", "sigma2", "mu1", "mu2", "attack_prior"):
            value = getattr(self, key)
            if not (isinstance(value, Real) and math.isfinite(value)):
                raise ConfigError(f"{key}: must be a finite number, got {value!r}")
        if not abs(self.rho) < 1:
            raise ConfigError("rho: correlation out of range (need |rho| < 1)")
        for key in ("sigma1", "sigma2"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key}: must be positive")
        if self.sensor_under_test not in (1, 2):
            raise ConfigError("sensor_under_test: must be 1 or 2")
        if not self.targets or any(t not in (1, 2) for t in self.targets):
            raise ConfigError("targets: must be a non-empty subset of {1, 2}")
        # AttackSpec re-validates; surface its message under the field name
        try:
            self.attack()
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if self.trials < 1:
            raise ConfigError("trials: must be at least 1")
        if not 0.0 < self.attack_prior < 1.0:
            raise ConfigError("attack_prior: must lie strictly inside (0, 1)")

    def model(self) -> GaussianModel:
        c = self.rho * self.sigma1 * self.sigma2
        cov = [[self.sigma1 ** 2, c], [c, self.sigma2 ** 2]]
        return GaussianModel([self.mu1, self.mu2], cov)

    def attack(self) -> AttackSpec:
        return AttackSpec(
            kind=self.attack_type,
            am=self.am,
            targets=Coalition.of([t - 1 for t in self.targets], 2),
            sigma_a=self.sigma_a,
            um=self.um,
        )

    def to_config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            model=self.model(),
            attack=self.attack(),
            sensor_under_test=self.sensor_under_test - 1,
            trials=self.trials,
            attack_prior=self.attack_prior,
            seed=seed,
            threshold_mode=self.threshold_mode,
        )

    def analytic_pe(self) -> float | None:
        """Closed-form single-term error probability where the oracle applies.

        That is every type-A experiment that attacks the sensor under test,
        at any rho and means: the single term reads that sensor alone.
        """
        i = self.sensor_under_test
        if self.attack_type == "A" and i in self.targets:
            sigma_i = self.sigma1 if i == 1 else self.sigma2
            return analytic_pe_gaussian(sigma_i, self.am, self.attack_prior)
        return None


@dataclass(frozen=True)
class SuiteConfig:
    experiments: tuple[tuple[str, ExperimentSpec], ...]
    seed: int = 0
    fmt: str = "csv"
    out: str | None = None

    def __post_init__(self) -> None:
        names = [name for name, _ in self.experiments]
        if len(set(names)) != len(names):
            raise ConfigError("experiment names must be unique")
        if self.fmt not in ("csv", "markdown"):
            raise ConfigError(f"format: unknown output format {self.fmt!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError("seed: must lie in [0, 2**64)")


# ----------------------------------------------------------------------
# config file parsing

_SUITE_KEYS = {"seed", "format", "out", "trials"}
_EXPERIMENT_KEYS = {
    "rho", "sigma1", "sigma2", "mu1", "mu2", "attack_type", "am", "sigma_a",
    "um", "targets", "sensor_under_test", "trials", "attack_prior",
    "threshold_mode", "grid_lo", "grid_hi", "grid_steps",
}


# the numeric experiment keys besides am, in the order their errors are reported
_EXPERIMENT_NUMBERS = (
    "rho", "sigma1", "sigma2", "mu1", "mu2", "sigma_a", "um",
    "sensor_under_test", "trials", "attack_prior",
)
_EXPERIMENT_INTEGERS = {"sensor_under_test", "trials"}


def _get_float(section, key):
    raw = section.get(key)
    if raw is None:
        raise ConfigError(f"[{section.name}] missing required key {key!r}")
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section.name}] {key}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section.name}] {key}: not a finite number: {raw!r}")
    return value


def _get_int(section, key):
    raw = section[key]  # no integer key is required
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section.name}] {key}: not an integer: {raw!r}") from None


def _parse_experiment(section, defaults: dict) -> ExperimentSpec:
    """The section's experiment; keys it leaves out take ``defaults``, then ExperimentSpec's."""
    unknown = set(section.keys()) - _EXPERIMENT_KEYS
    if unknown:
        raise ConfigError(f"[{section.name}] unknown keys: {sorted(unknown)}")
    attack_type = section.get("attack_type")
    if attack_type is None:
        raise ConfigError(f"[{section.name}] missing required key 'attack_type'")
    fields = dict(defaults, attack_type=attack_type.strip())
    mode = section.get("threshold_mode")
    if mode == "exact-sort":
        fields["threshold_mode"] = "exact"
    elif mode == "grid":
        # the getters' errors already name the section: prefix only GridSpec's
        lo = _get_float(section, "grid_lo")
        hi = _get_float(section, "grid_hi")
        steps = _get_int(section, "grid_steps") if "grid_steps" in section else 0  # refused below
        try:
            fields["threshold_mode"] = GridSpec(lo=lo, hi=hi, steps=steps)
        except ValueError as exc:
            raise ConfigError(f"[{section.name}] {exc}") from None
    elif mode is not None:
        raise ConfigError(
            f"[{section.name}] threshold_mode: expected 'exact-sort' or 'grid', "
            f"got {mode!r}"
        )
    if "targets" in section:
        targets = section["targets"]
        try:
            fields["targets"] = tuple(int(t) for t in targets.replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"[{section.name}] targets: not a sensor list: {targets!r}") from None
    fields["am"] = _get_float(section, "am")
    for key in _EXPERIMENT_NUMBERS:
        if key in section:
            fields[key] = (_get_int if key in _EXPERIMENT_INTEGERS else _get_float)(section, key)
    try:
        return ExperimentSpec(**fields)
    except ConfigError as exc:
        raise ConfigError(f"[{section.name}] {exc}") from None


def parse_config(path) -> SuiteConfig:
    """Parse and validate a suite config file; keys it leaves out take the dataclass defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except configparser.Error as exc:
        # configparser messages already carry the offending line number
        raise ConfigError(str(exc)) from None

    suite = {}
    experiment_defaults = {}  # [suite] trials, for the experiments after it
    experiments = []
    for name in parser.sections():
        section = parser[name]
        if name == "suite":
            unknown = set(section.keys()) - _SUITE_KEYS
            if unknown:
                raise ConfigError(f"[suite] unknown keys: {sorted(unknown)}")
            if "seed" in section:
                suite["seed"] = _get_int(section, "seed")
            if "format" in section:
                suite["fmt"] = section["format"]
            if "out" in section:
                suite["out"] = section["out"]
            if "trials" in section:
                experiment_defaults["trials"] = _get_int(section, "trials")
        elif name.startswith("experiment."):
            exp_name = name[len("experiment."):]
            if not exp_name:
                raise ConfigError(f"empty experiment name in section [{name}]")
            experiments.append((exp_name, _parse_experiment(section, experiment_defaults)))
        else:
            raise ConfigError(
                f"unknown section [{name}]; expected [suite] or [experiment.<name>]"
            )
    return SuiteConfig(experiments=tuple(experiments), **suite)


# ----------------------------------------------------------------------
# presets (the published parameter grids)

_TABLE1_ATTACKS = (
    ("A", dict(am=10.0)),
    ("B", dict(am=10.0, sigma_a=0.1)),
    ("B", dict(am=10.0, sigma_a=1.0)),
    ("C", dict(am=9.95, um=0.1)),
)


def preset_table1(trials: int = 1_000_000, seed: int = 0) -> SuiteConfig:
    """Independent-sensor grid: sigma in {1, 1.5, 2} x four attack setups."""
    experiments = []
    for kind, params in _TABLE1_ATTACKS:
        for sigma in (1.0, 1.5, 2.0):
            tag = f"{kind}_s{sigma:g}" + (
                f"_sa{params['sigma_a']:g}" if kind == "B" else ""
            )
            experiments.append((
                tag,
                ExperimentSpec(
                    attack_type=kind, rho=0.0, sigma1=sigma, sigma2=sigma,
                    trials=trials, **params,
                ),
            ))
    return SuiteConfig(experiments=tuple(experiments), seed=seed)


def preset_table2(trials: int = 1_000_000, seed: int = 0) -> SuiteConfig:
    """Correlated-sensor grid: rho in {+-0.2, +-0.5, +-0.8}, type-A, AM=1."""
    experiments = []
    for rho in (0.2, -0.2, 0.5, -0.5, 0.8, -0.8):
        experiments.append((
            f"A_rho{rho:+g}",
            ExperimentSpec(
                attack_type="A", am=1.0, rho=rho, sigma1=2.0, sigma2=2.0,
                trials=trials,
            ),
        ))
    return SuiteConfig(experiments=tuple(experiments), seed=seed)


# ----------------------------------------------------------------------
# suite execution and rendering


def experiment_seed(suite_seed: int, index: int) -> int:
    """Derived 64-bit stream key for the index-th experiment of a suite."""
    ss = np.random.SeedSequence((suite_seed, index))
    return int(ss.generate_state(1, np.uint64)[0])


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".10g")


def run_suite(cfg: SuiteConfig) -> tuple[int, list[dict]]:
    """Run every experiment; returns (exit status, one result row each).

    A failing experiment contributes a FAILED marker row and flips the exit
    status to 2; the remaining experiments still run.
    """
    rows: list[dict] = []
    status = 0
    for index, (name, spec) in enumerate(cfg.experiments):
        base = {
            "name": name, "rho": spec.rho, "sigma1": spec.sigma1,
            "sigma2": spec.sigma2, "attack_type": spec.attack_type,
            "sigma_a": spec.sigma_a, "AM": spec.am, "UM": spec.um,
            "M": spec.trials, "prior": spec.attack_prior,
        }
        try:
            config = spec.to_config(experiment_seed(cfg.seed, index))
            shap, single = run_experiment(config)
            rows.append(base | {
                "Pe_v": single.pe, "Pe_phi": shap.pe,
                "CI_v": single.ci_halfwidth, "CI_phi": shap.ci_halfwidth,
                "tau_v": single.threshold, "tau_phi": shap.threshold,
                "analytic_Pe": spec.analytic_pe(),
            })
        except Exception as exc:  # noqa: BLE001 - marker row per contract
            rows.append(base | {"name": f"{name} FAILED: {exc}"})
            status = 2
    return status, rows


def render_rows(
    cfg: SuiteConfig, rows: list[dict], timestamp: bool = False
) -> str:
    """Render result rows as CSV or a markdown table, with a seed header."""
    header = [f"# shaploc suite, seed={cfg.seed}"]
    if timestamp:
        header.append(f"# generated={time.strftime('%Y-%m-%dT%H:%M:%S')}")
    cells = [[_fmt(row.get(col)) for col in COLUMNS] for row in rows]
    if cfg.fmt == "markdown":
        lines = header
        lines.append("| " + " | ".join(COLUMNS) + " |")
        lines.append("|" + "---|" * len(COLUMNS))
        lines.extend(
            "| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |"
            for row in cells
        )
        return "\n".join(lines) + "\n"
    # names and FAILED messages may hold commas or quotes
    body = io.StringIO()
    writer = csv.writer(body, lineterminator="\n")
    writer.writerow(COLUMNS)
    writer.writerows(cells)
    return "\n".join(header) + "\n" + body.getvalue()


# ----------------------------------------------------------------------
# complexity bench


def _seconds_per_call(fn, min_seconds: float = 0.05) -> float:
    """Mean wall time of ``fn()``, repeated until the repeats span ``min_seconds``."""
    calls = 0
    tic = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - tic
        if elapsed >= min_seconds:
            return elapsed / calls


def bench(n_list, reps: int = 2, seed: int = 0) -> list[dict]:
    """Wall-time comparison of full enumeration vs the single-term score.

    For each universe size, times ``all_shapley`` and the n single-sensor
    scores on a random independent model, and reports each statistic's
    median over ``reps`` rounds (at least 9).  Each timing repeats its call
    until it is measurable, and the sizes take turns within every round, so
    a slow or fast phase of the machine reaches all of them; the median
    ignores the phases that a best-of would pick up.  ``all_shapley`` takes
    two observations in turn, so every call scores its table rather than
    reading the one its previous call kept.
    """
    cases = []
    for n in n_list:
        rng = np.random.default_rng((seed, n))
        variances = rng.uniform(0.5, 2.0, n)
        vf = GaussianValueFunction(GaussianModel(np.zeros(n), np.diag(variances)))
        x, y = vf.model.sample(rng), vf.model.sample(rng)
        singles = [Coalition.of([i], n) for i in range(n)]
        all_shapley(vf, y)  # factorize the model outside the timings
        cases.append((n, vf, x, cycle((x, y)), singles))

    def single_terms(vf, x, singles):
        for s in singles:
            vf(s, x)

    samples = [([], []) for _ in cases]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(reps, 9)):
            for (shapley_s, single_s), (n, vf, x, observations, singles) in zip(samples, cases):
                shapley_s.append(_seconds_per_call(lambda: all_shapley(vf, next(observations))))
                single_s.append(_seconds_per_call(lambda: single_terms(vf, x, singles)))
    finally:
        if gc_was_enabled:
            gc.enable()
    return [
        {"n": n, "t_shapley": float(np.median(shapley_s)), "t_single": float(np.median(single_s))}
        for (n, *_), (shapley_s, single_s) in zip(cases, samples)
    ]


def render_bench(rows: list[dict]) -> str:
    lines = ["n,t_shapley_s,t_single_s,shapley_ratio,single_ratio"]
    prev = None
    for row in rows:
        shap_ratio = row["t_shapley"] / prev["t_shapley"] if prev else None
        single_ratio = row["t_single"] / prev["t_single"] if prev else None
        lines.append(",".join([
            str(row["n"]), _fmt(row["t_shapley"]), _fmt(row["t_single"]),
            _fmt(shap_ratio), _fmt(single_ratio),
        ]))
        prev = row
    return "\n".join(lines) + "\n"
