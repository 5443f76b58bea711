"""Config-driven experiment suites, table presets and the complexity bench.

A suite is a list of named two-sensor experiments described either in an
INI-style config file or by one of the built-in presets (the independent
and correlated parameter grids).  Each experiment is run through the Monte
Carlo harness and reported as one row of a CSV or markdown table.

A config file is read through one table per section, mapping each key to
its reader.  ``ExperimentSpec`` checks only what its scalar, 1-based form
adds, then builds its harness objects once, so that their own checks
refuse the rest when the config is parsed rather than when it runs.
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
        # only what the scalar, 1-based form adds; the harness objects
        # that to_config builds check the rest
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
            sigma = getattr(self, key)
            if sigma <= 0:
                raise ConfigError(f"{key}: must be positive")
            if not sigma * sigma < math.inf:
                raise ConfigError(f"{key}: its square overflows float64")
        if self.sensor_under_test not in (1, 2):
            raise ConfigError("sensor_under_test: must be 1 or 2")
        if not self.targets or any(t not in (1, 2) for t in self.targets):
            raise ConfigError("targets: must be a non-empty subset of {1, 2}")
        try:
            self.to_config(0)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ConfigError(str(exc)) from None

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

def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _sensors(raw: str) -> tuple[int, ...]:
    return tuple(int(t) for t in raw.replace(",", " ").split())


# each section's keys and their readers; what a reader reads, for its errors
_READS = {_finite: "a finite number", int: "an integer", _sensors: "a sensor list"}
_SUITE_KEYS = {"seed": int, "format": str, "out": str, "trials": int}
_GRID_KEYS = ("grid_lo", "grid_hi", "grid_steps")
_EXPERIMENT_KEYS = {
    "rho": _finite, "sigma1": _finite, "sigma2": _finite, "mu1": _finite,
    "mu2": _finite, "attack_type": str, "am": _finite, "sigma_a": _finite,
    "um": _finite, "targets": _sensors, "sensor_under_test": int, "trials": int,
    "attack_prior": _finite, "threshold_mode": str,
    "grid_lo": _finite, "grid_hi": _finite, "grid_steps": int,
}


def _read(section, keys: dict, required=()) -> dict:
    """Each of the section's keys through its reader in ``keys``.

    Unknown keys, missing ``required`` ones and values a reader refuses
    are a ConfigError naming the section and the key.
    """
    unknown = set(section) - keys.keys()
    if unknown:
        raise ConfigError(f"[{section.name}] unknown keys: {sorted(unknown)}")
    for key in required:
        if key not in section:
            raise ConfigError(f"[{section.name}] missing required key {key!r}")
    values = {}
    for key, raw in section.items():
        try:
            values[key] = keys[key](raw)
        except ValueError:
            raise ConfigError(
                f"[{section.name}] {key}: not {_READS[keys[key]]}: {raw!r}"
            ) from None
    return values


def _parse_experiment(section, defaults: dict) -> ExperimentSpec:
    """The section's experiment; keys it leaves out take ``defaults``, then ExperimentSpec's."""
    grid = section.get("threshold_mode") == "grid"
    required = ("attack_type", "am") + (_GRID_KEYS if grid else ())
    fields = defaults | _read(section, _EXPERIMENT_KEYS, required)
    mode = fields.pop("threshold_mode", "exact-sort")
    try:
        if grid:
            fields["threshold_mode"] = GridSpec(*(fields.pop(key) for key in _GRID_KEYS))
        elif mode != "exact-sort":
            raise ConfigError(f"threshold_mode: expected 'exact-sort' or 'grid', got {mode!r}")
        elif stray := [key for key in _GRID_KEYS if key in fields]:
            raise ConfigError(f"{', '.join(stray)}: apply only with threshold_mode = grid")
        return ExperimentSpec(**fields)
    except ValueError as exc:  # ConfigError included
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

    # [suite] first, so that its trials reach every experiment wherever it sits
    suite = _read(parser["suite"], _SUITE_KEYS) if parser.has_section("suite") else {}
    defaults = {"trials": suite.pop("trials")} if "trials" in suite else {}
    if "format" in suite:
        suite["fmt"] = suite.pop("format")
    experiments = []
    for name in parser.sections():
        if name.startswith("experiment."):
            exp_name = name[len("experiment."):]
            if not exp_name:
                raise ConfigError(f"empty experiment name in section [{name}]")
            experiments.append((exp_name, _parse_experiment(parser[name], defaults)))
        elif name != "suite":
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


_BENCH_ROUNDS = 9


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


def bench(n_list, seed: int = 0) -> list[dict]:
    """Wall-time comparison of full enumeration vs the single-term score.

    For each universe size, times ``all_shapley`` and the n single-sensor
    scores on a random independent model, and reports each statistic's
    median over _BENCH_ROUNDS rounds.  Each timing repeats its call
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
        for _ in range(_BENCH_ROUNDS):
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
