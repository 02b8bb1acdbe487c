"""Strict parsing of experiment configuration files.

The on-disk format is INI-style key-value text with one section per config
group ([simulation], [initial_condition], [training], [output]). Every key
is validated against the schema; unknown sections or keys are hard errors
so that typos cannot silently change an experiment.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .grid import Grid1D, HatProfile, make_grid
from .optimizer import OptimizerConfig
from .schemes import SCHEME_NAMES, SchemeConfig


class ConfigError(ValueError):
    """Invalid, missing, or unknown configuration content."""


@dataclass(frozen=True)
class InitialCondition:
    kind: str = "hat"  # "hat" | "sine"
    lo: float = 0.4
    hi: float = 0.6
    amplitude: float = 1.0
    wavenumber: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("hat", "sine"):
            raise ConfigError(f"initial_condition kind must be 'hat' or 'sine', got {self.kind!r}")
        if self.kind == "sine" and (self.wavenumber < 1 or int(self.wavenumber) != self.wavenumber):
            raise ConfigError("sine wavenumber must be a positive integer")
        if not np.isfinite(self.amplitude):
            raise ConfigError("initial_condition amplitude must be finite")

    def hat_profile(self) -> HatProfile:
        return HatProfile(lo=self.lo, hi=self.hi, amplitude=self.amplitude)


@dataclass(frozen=True)
class TrainingSettings:
    mode: str = "per_step"  # "per_step" | "global"
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        if self.mode not in ("per_step", "global"):
            raise ConfigError(f"training mode must be 'per_step' or 'global', got {self.mode!r}")


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "out"
    write_solution: bool = True
    write_error: bool = True
    write_entropy: bool = True
    write_mu: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment: physics, scheme, IC, training, outputs."""

    scheme: str = "ftcs_mu"
    n_cells: int = 100
    length: float = 1.0
    c: float = 1.0
    dt: float = 1e-3
    t_final: float = 0.15
    mu: float | None = None  # constant face viscosity for plain ftcs_mu runs
    ic: InitialCondition = field(default_factory=InitialCondition)
    training: TrainingSettings | None = None
    output: OutputSettings = field(default_factory=OutputSettings)

    def __post_init__(self) -> None:
        if self.scheme not in SCHEME_NAMES:
            raise ConfigError(f"scheme must be one of {SCHEME_NAMES}, got {self.scheme!r}")
        if self.n_cells < 3:
            raise ConfigError("n_cells must be >= 3")
        for name in ("length", "dt", "t_final"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        for name in ("length", "dt"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.t_final < 0:
            raise ConfigError("t_final must be non-negative")
        if not np.isfinite(self.c):
            raise ConfigError("c must be finite")
        ratio = self.t_final / self.dt
        n = round(ratio)
        if abs(ratio - n) > 0.5 * np.spacing(max(abs(ratio), 1.0)):
            raise ConfigError(
                f"t_final/dt = {ratio!r} is not a whole number of steps"
            )
        if self.ic.kind == "hat" and not (0.0 <= self.ic.lo < self.ic.hi <= self.length):
            raise ConfigError(
                f"hat edges must satisfy 0 <= lo < hi <= length = {self.length!r}, "
                f"got lo = {self.ic.lo!r}, hi = {self.ic.hi!r}"
            )
        if self.mu is not None and not np.isfinite(self.mu):
            raise ConfigError("mu must be finite")
        if self.mu is not None and self.scheme != "ftcs_mu":
            raise ConfigError(f"'mu' only applies to scheme ftcs_mu, not {self.scheme!r}")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    def grid(self) -> Grid1D:
        return make_grid(self.n_cells, self.length)

    def scheme_config(self) -> SchemeConfig:
        return SchemeConfig(c=self.c, dt=self.dt, grid=self.grid())

    def with_output_dir(self, directory: str) -> "ExperimentConfig":
        return replace(self, output=replace(self.output, directory=directory))

    def with_seed(self, seed: int) -> "ExperimentConfig":
        if self.training is None:
            return self
        opt = replace(self.training.optimizer, seed=seed)
        return replace(self, training=replace(self.training, optimizer=opt))


_SIMULATION_KEYS = {"scheme", "n_cells", "length", "c", "dt", "t_final", "mu"}
_IC_KEYS = {"kind", "lo", "hi", "amplitude", "wavenumber"}
_TRAINING_KEYS = {
    "mode", "learning_rate", "n_iters", "mu_min", "mu_max",
    "l2_penalty", "smooth_penalty", "init_mu", "seed", "warm_start",
}
_OUTPUT_KEYS = {"directory", "write_solution", "write_error", "write_entropy", "write_mu"}
_SECTIONS = {
    "simulation": _SIMULATION_KEYS,
    "initial_condition": _IC_KEYS,
    "training": _TRAINING_KEYS,
    "output": _OUTPUT_KEYS,
}


def _get(section, key: str, convert, default=None, required: bool = False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key '{key}'")
        return default
    raw = section[key]
    try:
        return convert(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid value for '{key}': {raw!r}") from err


def _to_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


def _to_int(raw: str) -> int:
    value = float(raw)
    if value != int(value):
        raise ValueError(raw)
    return int(value)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate configuration text; raises ConfigError on any problem."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"malformed config file: {err}") from err

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    for required in ("simulation", "output"):
        if required not in parser:
            raise ConfigError(f"missing required section [{required}]")

    sim = parser["simulation"]
    ic_section = parser["initial_condition"] if "initial_condition" in parser else {}
    kind = _get(ic_section, "kind", str, default="hat")
    ic = InitialCondition(
        kind=kind,
        lo=_get(ic_section, "lo", float, default=0.4),
        hi=_get(ic_section, "hi", float, default=0.6),
        amplitude=_get(ic_section, "amplitude", float, default=1.0),
        wavenumber=_get(ic_section, "wavenumber", _to_int, default=1),
    )

    training = None
    if "training" in parser:
        tr = parser["training"]
        try:
            optimizer = OptimizerConfig(
                learning_rate=_get(tr, "learning_rate", float, default=1e-2),
                n_iters=_get(tr, "n_iters", _to_int, default=200),
                mu_min=_get(tr, "mu_min", float, default=-5e-3),
                mu_max=_get(tr, "mu_max", float, default=9.5e-2),
                l2_penalty=_get(tr, "l2_penalty", float, default=0.0),
                smooth_penalty=_get(tr, "smooth_penalty", float, default=0.0),
                init_mu=_get(tr, "init_mu", float, default=None),
                seed=_get(tr, "seed", _to_int, default=0),
                warm_start=_get(tr, "warm_start", _to_bool, default=True),
            )
        except ValueError as err:
            raise ConfigError(f"invalid training settings: {err}") from err
        training = TrainingSettings(mode=_get(tr, "mode", str, default="per_step"),
                                    optimizer=optimizer)

    out_section = parser["output"]
    output = OutputSettings(
        directory=_get(out_section, "directory", str, required=True),
        write_solution=_get(out_section, "write_solution", _to_bool, default=True),
        write_error=_get(out_section, "write_error", _to_bool, default=True),
        write_entropy=_get(out_section, "write_entropy", _to_bool, default=True),
        write_mu=_get(out_section, "write_mu", _to_bool, default=True),
    )

    try:
        return ExperimentConfig(
            scheme=_get(sim, "scheme", str, required=True),
            n_cells=_get(sim, "n_cells", _to_int, required=True),
            length=_get(sim, "length", float, required=True),
            c=_get(sim, "c", float, required=True),
            dt=_get(sim, "dt", float, required=True),
            t_final=_get(sim, "t_final", float, required=True),
            mu=_get(sim, "mu", float, default=None),
            ic=ic,
            training=training,
            output=output,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a config file; missing files raise ConfigError."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text())


def config_from_dict(data: dict) -> ExperimentConfig:
    """Rebuild a config from a manifest echo produced by config_to_dict."""
    try:
        sim = data["simulation"]
        ic_d = data.get("initial_condition", {})
        out_d = data.get("output", {})
        ic = InitialCondition(**ic_d) if ic_d else InitialCondition()
        training = None
        if "training" in data:
            tr = dict(data["training"])
            mode = tr.pop("mode")
            training = TrainingSettings(mode=mode, optimizer=OptimizerConfig(**tr))
        return ExperimentConfig(
            scheme=sim["scheme"],
            n_cells=sim["n_cells"],
            length=sim["length"],
            c=sim["c"],
            dt=sim["dt"],
            t_final=sim["t_final"],
            mu=sim.get("mu"),
            ic=ic,
            training=training,
            output=OutputSettings(**out_d) if out_d else OutputSettings(),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"invalid config echo: {err}") from err


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Flatten a config into the manifest echo (sufficient for a bit-identical re-run)."""
    out: dict = {
        "simulation": {
            "scheme": cfg.scheme,
            "n_cells": cfg.n_cells,
            "length": cfg.length,
            "c": cfg.c,
            "dt": cfg.dt,
            "t_final": cfg.t_final,
        },
        "initial_condition": {
            "kind": cfg.ic.kind,
            "lo": cfg.ic.lo,
            "hi": cfg.ic.hi,
            "amplitude": cfg.ic.amplitude,
            "wavenumber": cfg.ic.wavenumber,
        },
        "output": {
            "directory": cfg.output.directory,
            "write_solution": cfg.output.write_solution,
            "write_error": cfg.output.write_error,
            "write_entropy": cfg.output.write_entropy,
            "write_mu": cfg.output.write_mu,
        },
    }
    if cfg.mu is not None:
        out["simulation"]["mu"] = cfg.mu
    if cfg.training is not None:
        opt = cfg.training.optimizer
        out["training"] = {
            "mode": cfg.training.mode,
            "learning_rate": opt.learning_rate,
            "n_iters": opt.n_iters,
            "mu_min": opt.mu_min,
            "mu_max": opt.mu_max,
            "l2_penalty": opt.l2_penalty,
            "smooth_penalty": opt.smooth_penalty,
            "init_mu": opt.init_mu,
            "seed": opt.seed,
            "warm_start": opt.warm_start,
        }
    return out
