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

PRESET_NAMES = ("paper-hat", "paper-hat-nonneg", "sine-smooth")


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
