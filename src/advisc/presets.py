"""Named experiment presets and the studies the reproduce command runs.

An experiment has one form here, the form a config file has: section dicts
that ``config.config_from_dict`` builds. PAPER_HAT is the reference
experiment: N=100 cells on a unit periodic domain, c=1, dt=1e-3 (CFL 0.1),
hat initial data on (0.4, 0.6), per-step training to T=0.15 under bounds
[-5e-3, 9.5e-2]. Each preset, and each run of a study, is a dict of section
overrides applied over it, key by key: paper-hat-nonneg clamps the lower
bound to zero; sine-smooth swaps in a smooth sine profile (with a larger
learning rate, since smooth-profile gradients are orders of magnitude
smaller) for the amplitude-decay comparison.
"""

from __future__ import annotations

from .config import ConfigError, ExperimentConfig, config_from_dict

# The reference experiment, as the sections of a config file; its output
# directory is a parameter of ``preset_config``.
PAPER_HAT = {
    "simulation": {"scheme": "ftcs_mu", "n_cells": 100, "length": 1.0, "c": 1.0,
                   "dt": 1e-3, "t_final": 0.15},
    "initial_condition": {"kind": "hat", "lo": 0.4, "hi": 0.6, "amplitude": 1.0},
    "training": {"mode": "per_step", "learning_rate": 1e-2, "n_iters": 200,
                 "mu_min": -5e-3, "mu_max": 9.5e-2},
}

# The viscosity constrained to be non-negative.
NONNEG = {"training": {"mu_min": 0.0}}

# Each preset's overrides of PAPER_HAT.
PRESETS = {
    "paper-hat": {},
    "paper-hat-nonneg": NONNEG,
    "sine-smooth": {"initial_condition": {"kind": "sine", "wavenumber": 1},
                    "training": {"learning_rate": 10.0}},
}


def _overridden(sections: dict, overrides: dict) -> dict:
    """``sections`` with each key of ``overrides`` set, section by section."""
    return {name: {**sections.get(name, {}), **overrides.get(name, {})}
            for name in {**sections, **overrides}}


def preset_config(name: str, out_dir: str = "out",
                  overrides: dict | None = None) -> ExperimentConfig:
    """The config of preset ``name`` writing into ``out_dir``, with ``overrides``,
    section dicts like the preset's own, applied last. An unknown preset,
    section or key raises ConfigError."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")
    sections = PAPER_HAT
    for layer in ({"output": {"directory": out_dir}}, PRESETS[name], overrides or {}):
        sections = _overridden(sections, layer)
    return config_from_dict(sections)


def _mu_min(c: dict, run: str) -> float:
    return c[run]["mu"]["mu_min"]


def _amplitude(c: dict, run: str) -> float:
    return c[run]["stats"]["max_abs_final"]


# What `reproduce` runs for each preset: preset -> (runs, claims). A run is
# (subdirectory, preset, overrides), built by ``preset_config``; the runs of
# each study share one problem and training mode, so ``cli.cmd_train`` trains
# them as one group, in one call of the mode's trainer.
# A claim is (name, predicate over the comparison dict); that dict holds the
# oracles' errors under "oracles" and each run's summary under its
# subdirectory name, with "-" read as "_".
STUDIES: dict[str, tuple[tuple, tuple]] = {
    "paper-hat": (
        (("learned", "paper-hat", {}),),
        (("mse_learned_below_upwind",
          lambda c: c["learned"]["stats"]["mse_final"] < c["oracles"]["mse_upwind"]),
         ("min_mu_negative", lambda c: _mu_min(c, "learned") < 0),
         ("entropy_nonincreasing_global",
          lambda c: c["learned"]["verdicts"]["entropy_nonincreasing_global"])),
    ),
    "paper-hat-nonneg": (
        (("learned-nonneg", "paper-hat", NONNEG), ("learned-signed", "paper-hat", {})),
        (("nonneg_amplitude_not_above_signed",
          lambda c: _amplitude(c, "learned_nonneg") <= _amplitude(c, "learned_signed")),
         ("nonneg_mu_min_nonnegative", lambda c: _mu_min(c, "learned_nonneg") >= 0.0)),
    ),
    "sine-smooth": (
        (("signed", "sine-smooth", {}), ("nonneg", "sine-smooth", NONNEG)),
        (("constrained_amplitude_below_signed",
          lambda c: _amplitude(c, "nonneg") < _amplitude(c, "signed")),
         ("signed_mu_min_negative", lambda c: _mu_min(c, "signed") < 0)),
    ),
}

PRESET_NAMES = tuple(PRESETS)
