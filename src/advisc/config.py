"""Strict parsing of experiment configuration files.

The on-disk format is INI-style key-value text with one section per config
group ([simulation], [initial_condition], [training], [output]). The settings
dataclasses are the schema: a section's keys are their scalar fields.
``config_from_dict`` builds every config from typed section dicts: a parsed
file, the manifest echo, which carries the same sections and keys as JSON,
and the presets, which are section overrides (``presets.PRESETS``).
Each setting is checked once, by the object that uses it: the grid checks
n_cells and length, ``schemes.SchemeConfig`` dt and c,
``grid.InitialCondition`` its own fields and, in ``check_inside``, the
hat edge against the length, and ``ExperimentConfig`` what needs the whole
config: t_final, and the one rule of what a run is. An ftcs_mu config has
either ``mu``, a plain run at that viscosity, or [training], which learns
the viscosity over at least one step; no other scheme has either. A
ValueError from any of them is reported as a ConfigError. Unknown sections
or keys are hard errors so that typos cannot silently change an experiment.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .grid import InitialCondition, make_grid
from .optimizer import OptimizerConfig
from .schemes import SCHEME_NAMES, SchemeConfig


class ConfigError(ValueError):
    """Invalid, missing, or unknown configuration content."""


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


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment: physics, scheme, IC, training, outputs."""

    scheme: str = "upwind"
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
        try:  # n_cells, length, dt, c and the hat edge are checked where they are used
            self.scheme_config()
            self.ic.check_inside(self.length)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        if not np.isfinite(self.t_final):
            raise ConfigError("t_final must be finite")
        if self.t_final < 0:
            raise ConfigError("t_final must be non-negative")
        ratio = self.t_final / self.dt
        if ratio == np.inf or (round(ratio) + 1) * self.n_cells > np.iinfo(np.intp).max:
            raise ConfigError(f"t_final/dt = {ratio!r} steps of {self.n_cells} cells are more "
                              "values than one array can index")
        n = round(ratio)
        if abs(ratio - n) > 0.5 * np.spacing(max(abs(ratio), 1.0)):
            raise ConfigError(
                f"t_final/dt = {ratio!r} is not a whole number of steps"
            )
        if self.mu is not None and not np.isfinite(self.mu):
            raise ConfigError("mu must be finite")
        if (self.mu is not None) + (self.training is not None) != (self.scheme == "ftcs_mu"):
            raise ConfigError(f"scheme {self.scheme!r}: ftcs_mu takes either 'mu' or a "
                              "[training] section, and no other scheme takes either")
        if self.training is not None and self.n_steps < 1:
            raise ConfigError("training requires t_final >= dt (at least one step)")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    def scheme_config(self) -> SchemeConfig:
        return SchemeConfig(c=self.c, dt=self.dt, grid=make_grid(self.n_cells, self.length))


def _to_int(raw: str) -> int:
    value = float(raw)
    if not value.is_integer():  # also rejects inf and nan
        raise ValueError(raw)
    return int(value)


# INI converter per field annotation (annotations are strings under
# ``from __future__ import annotations``). Fields with any other annotation
# are nested settings, not keys.
_CONVERTERS = {"str": str, "int": _to_int, "float": float, "float | None": float}


def _keys(cls) -> dict:
    """The scalar fields of a settings dataclass, mapped to their INI converters."""
    return {f.name: _CONVERTERS[f.type] for f in fields(cls) if f.type in _CONVERTERS}


# The config schema: each section's keys are the scalar fields of its
# dataclasses, in echo order. [training] holds ``mode`` plus the optimizer.
_SECTIONS = {
    "simulation": _keys(ExperimentConfig),
    "initial_condition": _keys(InitialCondition),
    "output": _keys(OutputSettings),
    "training": {**_keys(TrainingSettings), **_keys(OptimizerConfig)},
}
_REQUIRED = {
    "simulation": ("scheme", "n_cells", "length", "c", "dt", "t_final"),
    "output": ("directory",),
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate configuration text; raises ConfigError on any problem."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"malformed config file: {err}") from err

    data: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        data[section] = {}
        for key, raw in parser[section].items():
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            try:
                data[section][key] = _SECTIONS[section][key](raw)
            except ValueError as err:
                raise ConfigError(f"invalid value for '{key}': {raw!r}") from err
    return config_from_dict(data)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a config file; a missing file or one that is not UTF-8
    text raises ConfigError."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {p} is not UTF-8 text: {err}") from err
    return parse_config_text(text)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from typed section dicts: a parsed config file, a manifest
    echo, or a preset with its overrides.

    Keys left out take the dataclass defaults; a config without a
    ``training`` section has no training settings.
    """
    try:
        for section in data:
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]")
        for section, keys in _REQUIRED.items():
            if section not in data:
                raise ConfigError(f"missing required section [{section}]")
            for key in keys:
                if key not in data[section]:
                    raise ConfigError(f"missing required key '{key}'")
        training = None
        if "training" in data:
            tr = data["training"]
            mode = {k: v for k, v in tr.items() if k in _keys(TrainingSettings)}
            opt = {k: v for k, v in tr.items() if k not in mode}
            training = TrainingSettings(**mode, optimizer=OptimizerConfig(**opt))
        return ExperimentConfig(
            **data["simulation"],
            ic=InitialCondition(**data.get("initial_condition", {})),
            training=training,
            output=OutputSettings(**data["output"]),
        )
    except ConfigError:
        raise
    except (AttributeError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"invalid settings: {err}") from err


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Flatten a config into the manifest echo (sufficient for a bit-identical re-run).

    ``mu`` is left out when unset; every other key is always written.
    """
    sources = {"simulation": [cfg], "initial_condition": [cfg.ic], "output": [cfg.output]}
    if cfg.training is not None:
        sources["training"] = [cfg.training, cfg.training.optimizer]
    out = {
        section: {key: getattr(obj, key) for obj in objs for key in _keys(type(obj))}
        for section, objs in sources.items()
    }
    if cfg.mu is None:
        del out["simulation"]["mu"]
    return out
