"""The benchmark's workloads: which advisc commands one pass runs, on which inputs.

Each workload stresses a different layer:

- paper-presets: the paper's own experiment (per-step training at N=100).
  Time goes to ~30k small kernel and instantaneous-gradient calls per
  training run, so fixed per-call costs dominate. Fixed presets, so the
  workload does not depend on the seed.
- global-train: whole-horizon training of a hat at N=1000. Time goes to the
  forward sweeps, the adjoint reverse sweep and the loss; the per-step path
  is not used.
- large-grid-io: three plain runs at N=10^4 and their analyses. Writing and
  reading 17-digit CSVs dominates; nothing is trained.

The seed picks the hat position of global-train and the sine wavenumber and
amplitude of large-grid-io; those configs are generated into the pass's
working directory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("paper-presets", "global-train", "large-grid-io")
DEFAULT_SEED = 0


@dataclass
class Plan:
    """Commands of one pass, run from its working directory.

    ``runs`` maps each run directory the commands produce to the key of its
    stored reference values, or None where no reference applies.
    """

    commands: list[list[str]]
    runs: dict[str, str | None]
    params: dict = field(default_factory=dict)


def _config_text(sim: dict, ic: dict, directory: str, training: dict | None = None) -> str:
    sections = [("simulation", sim), ("initial_condition", ic)]
    if training is not None:
        sections.append(("training", training))
    sections.append(("output", {"directory": directory}))
    lines = []
    for name, values in sections:
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
    return "\n".join(lines) + "\n"


def _simulation(scheme: str, n_cells: int, dt: float, n_steps: int) -> dict:
    return {"scheme": scheme, "n_cells": n_cells, "length": 1.0, "c": 1.0,
            "dt": dt, "t_final": n_steps * dt}


def paper_presets(seed: int, size: str, workdir: Path) -> Plan:
    if size == "smoke":
        return Plan(
            commands=[["reproduce", "--preset", "paper-hat", "--out", "hat"],
                      ["analyze", "hat/learned"]],
            runs={"hat/learned": "paper-hat"},
            params={"seed_independent": True, "n_cells": 100},
        )
    runs = {
        "hat/learned-nonneg": "paper-hat-nonneg",
        "hat/learned-signed": "paper-hat",
        "sine/signed": "sine-smooth",
        "sine/nonneg": "sine-smooth-nonneg",
    }
    commands = [["reproduce", "--preset", "paper-hat-nonneg", "--out", "hat"],
                ["reproduce", "--preset", "sine-smooth", "--out", "sine"]]
    commands += [["analyze", run] for run in runs]
    return Plan(commands=commands, runs=runs, params={"seed_independent": True, "n_cells": 100})


def global_train(seed: int, size: str, workdir: Path) -> Plan:
    rng = random.Random(seed)
    lo = round(0.1 + 0.5 * rng.random(), 4)
    # Bounds are the paper's [-5e-3, 9.5e-2] at dx = 1e-2, scaled with dx.
    n_cells, dt, n_steps, n_iters = (1000, 1e-4, 150, 100) if size == "full" else (50, 2e-3, 10, 5)
    dx = 1.0 / n_cells
    text = _config_text(
        _simulation("ftcs_mu", n_cells, dt, n_steps),
        {"kind": "hat", "lo": lo, "hi": round(lo + 0.2, 4), "amplitude": 1.0},
        "train",
        {"mode": "global", "learning_rate": 1e-2, "n_iters": n_iters,
         "mu_min": -0.5 * dx, "mu_max": 9.5 * dx},
    )
    (workdir / "global.cfg").write_text(text)
    key = "global-train" if size == "full" and seed == DEFAULT_SEED else None
    return Plan(
        commands=[["train", "--config", "global.cfg"], ["analyze", "train"]],
        runs={"train": key},
        params={"hat_lo": lo, "n_cells": n_cells},
    )


def large_grid_io(seed: int, size: str, workdir: Path) -> Plan:
    rng = random.Random(seed)
    wavenumber = rng.randint(1, 8)
    amplitude = round(0.5 + rng.random(), 4)
    n_cells, dt, n_steps = (10_000, 5e-5, 150) if size == "full" else (200, 2.5e-3, 10)
    dx = 1.0 / n_cells
    # Diffusion number mu*dt/dx^2 = 0.375 keeps ftcs_mu stable at CFL 0.5.
    mu = 0.375 * dx * dx / dt
    ic = {"kind": "sine", "wavenumber": wavenumber, "amplitude": amplitude}
    commands, runs = [], {}
    for scheme in ("ftcs_mu", "upwind", "lax_wendroff"):
        sim = _simulation(scheme, n_cells, dt, n_steps)
        if scheme == "ftcs_mu":
            sim["mu"] = mu
        (workdir / f"{scheme}.cfg").write_text(_config_text(sim, ic, scheme))
        commands += [["run", "--config", f"{scheme}.cfg"], ["analyze", scheme]]
        runs[scheme] = (f"large-grid-io/{scheme}"
                        if size == "full" and seed == DEFAULT_SEED else None)
    return Plan(commands=commands, runs=runs,
                params={"wavenumber": wavenumber, "amplitude": amplitude, "n_cells": n_cells})


PLANS = {"paper-presets": paper_presets, "global-train": global_train,
         "large-grid-io": large_grid_io}


def build(name: str, seed: int, size: str, workdir: Path) -> Plan:
    """Write the workload's generated inputs into ``workdir`` and return its plan."""
    return PLANS[name](seed, size, workdir)
