"""Named experiment presets for the reproduce command.

paper-hat is the reference experiment: N=100 cells on a unit periodic
domain, c=1, dt=1e-3 (CFL 0.1), hat initial data on (0.4, 0.6), per-step
training to T=0.15 under bounds [-5e-3, 9.5e-2]. paper-hat-nonneg clamps
the lower bound to zero; sine-smooth swaps in a smooth sine profile (with a
larger learning rate, since smooth-profile gradients are orders of
magnitude smaller) for the amplitude-decay comparison.
"""

from __future__ import annotations

from dataclasses import replace

from .config import ExperimentConfig, InitialCondition, OutputSettings, TrainingSettings
from .optimizer import OptimizerConfig

def preset_config(name: str, out_dir: str = "out") -> ExperimentConfig:
    paper_hat = ExperimentConfig(
        scheme="ftcs_mu",
        n_cells=100,
        length=1.0,
        c=1.0,
        dt=1e-3,
        t_final=0.15,
        ic=InitialCondition(kind="hat", lo=0.4, hi=0.6, amplitude=1.0),
        training=TrainingSettings(
            mode="per_step",
            optimizer=OptimizerConfig(learning_rate=1e-2, n_iters=200,
                                      mu_min=-5e-3, mu_max=9.5e-2),
        ),
        output=OutputSettings(directory=out_dir),
    )
    if name == "paper-hat":
        return paper_hat
    if name == "paper-hat-nonneg":
        return nonneg_variant(paper_hat)
    if name == "sine-smooth":
        sine = replace(paper_hat, ic=InitialCondition(kind="sine", wavenumber=1, amplitude=1.0))
        return _with_optimizer(sine, learning_rate=10.0)
    raise KeyError(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")


def nonneg_variant(cfg: ExperimentConfig) -> ExperimentConfig:
    """Same experiment with the viscosity constrained to be non-negative."""
    return _with_optimizer(cfg, mu_min=0.0)


def _with_optimizer(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    opt = replace(cfg.training.optimizer, **changes)
    return replace(cfg, training=replace(cfg.training, optimizer=opt))


def _mu_min(c: dict, run: str) -> float:
    return c[run]["mu"]["mu_min"]


def _amplitude(c: dict, run: str) -> float:
    return c[run]["stats"]["max_abs_final"]


# What `reproduce` runs for each preset: preset -> (runs, claims). A run is
# (subdirectory, preset, constrained non-negative?). A claim is (name, predicate
# over the comparison dict); that dict holds the oracles' errors under "oracles"
# and each run's summary under its subdirectory name, with "-" read as "_".
STUDIES: dict[str, tuple[tuple, tuple]] = {
    "paper-hat": (
        (("learned", "paper-hat", False),),
        (("mse_learned_below_upwind",
          lambda c: c["learned"]["stats"]["mse_final"] < c["oracles"]["mse_upwind"]),
         ("min_mu_negative", lambda c: _mu_min(c, "learned") < 0),
         ("entropy_nonincreasing_global",
          lambda c: c["learned"]["verdicts"]["entropy_nonincreasing_global"])),
    ),
    "paper-hat-nonneg": (
        (("learned-nonneg", "paper-hat", True), ("learned-signed", "paper-hat", False)),
        (("nonneg_amplitude_not_above_signed",
          lambda c: _amplitude(c, "learned_nonneg") <= _amplitude(c, "learned_signed")),
         ("nonneg_mu_min_nonnegative", lambda c: _mu_min(c, "learned_nonneg") >= 0.0)),
    ),
    "sine-smooth": (
        (("signed", "sine-smooth", False), ("nonneg", "sine-smooth", True)),
        (("constrained_amplitude_below_signed",
          lambda c: _amplitude(c, "nonneg") < _amplitude(c, "signed")),
         ("signed_mu_min_negative", lambda c: _mu_min(c, "signed") < 0)),
    ),
}

PRESET_NAMES = tuple(STUDIES)
