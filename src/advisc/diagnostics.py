"""Post-hoc analyses: error norms, entropy budget, total variation,
viscosity sign statistics, and the conservative/dissipative flux split.

Everything here is read-only over immutable trajectories, so analyses can
run concurrently on shared data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import HatProfile
from .schemes import SchemeConfig, Trajectory, _next


def mse(u: np.ndarray, exact: np.ndarray) -> float:
    """Mean squared pointwise difference (1/N) * sum (u_i - e_i)^2 of two arrays."""
    if u.shape != exact.shape:
        raise ValueError("arrays have mismatched shapes")
    diff = u - exact
    return float(np.mean(diff * diff))


def entropy_series(states: np.ndarray, dx: float) -> np.ndarray:
    """Quadratic entropy S = (1/2) * sum_i u_i^2 * dx of each state along the last axis.

    Given the (M + 1, N) states of a run, returns S^0 .. S^M.
    """
    return 0.5 * np.sum(states * states, axis=-1) * dx


@dataclass(frozen=True)
class EntropyReport:
    """Discrete quadratic-entropy series of a trajectory.

    total_entropy holds S^n = (1/2) * sum_i (u_i^n)^2 * dx for every recorded
    state; per_step_delta holds S^{n+1} - S^n. spatial_dissipation, when
    viscosity data is available, holds the face-viscosity channel

        D^n = sum_faces mu^n_{i+1/2} * ((u^n_{i+1} - u^n_i)/dx)^2 * dx,

    evaluated at the pre-step state. The temporal/truncation channel is not
    computed; it is derivable as delta + dissipation residual.
    """

    total_entropy: np.ndarray
    per_step_delta: np.ndarray
    spatial_dissipation: np.ndarray | None


def entropy_report(traj: Trajectory) -> EntropyReport:
    """Entropy series of a trajectory, with the dissipation series exactly
    when the trajectory recorded its viscosities."""
    dx = traj.config.grid.dx
    states = traj.states
    s = entropy_series(states, dx)
    dissipation = None
    if traj.viscosity_history is not None:
        jumps = (_next(states[:-1]) - states[:-1]) / dx
        dissipation = np.sum(traj.viscosity_history * jumps * jumps, axis=1) * dx
    return EntropyReport(total_entropy=s, per_step_delta=np.diff(s), spatial_dissipation=dissipation)


def total_variation(u: np.ndarray) -> float:
    """Sum of |u_{i+1} - u_i| with periodic wrap; growth flags oscillation."""
    return float(np.sum(np.abs(_next(u) - u)))


def summary_stats(states: np.ndarray, exact_final: np.ndarray, dx: float) -> dict:
    """The ``stats`` block of a run summary, from the run's (M + 1, N) states.

    The run writers and ``analyze`` both compute the block here, from the
    trajectory and from the stored CSVs respectively.
    """
    final = states[-1]
    entropy = entropy_series(states, dx)
    return {
        "mse_final": mse(final, exact_final),
        "entropy_initial": float(entropy[0]),
        "entropy_final": float(entropy[-1]),
        "total_variation_final": total_variation(final),
        "mass_initial": float(np.sum(states[0])) * dx,
        "mass_final": float(np.sum(final)) * dx,
        "max_abs_final": float(np.max(np.abs(final))),
        "max_per_step_entropy_increase": float(np.max(np.diff(entropy), initial=0.0)),
    }


def mu_summary(values: np.ndarray) -> dict:
    """Extremes and negative fraction of a viscosity array."""
    return {
        "mu_min": float(np.min(values)),
        "mu_max": float(np.max(values)),
        "fraction_negative": float(np.mean(values < 0)),
    }


def mu_stats(traj: Trajectory, profile: HatProfile, radius: float) -> dict:
    """``mu_summary`` of the trajectory's viscosity, plus the localization of
    its negative entries under ``"negative_mass_near_discontinuity"``.

    The localization score restricts attention to negative entries: per step,
    the |mu| mass of negative faces lying within ``radius`` of either moving
    hat edge (positions lo + c*t and hi + c*t mod length at the pre-step
    time) divided by the total negative |mu| mass; steps without negative
    entries are skipped, and the score is the average over the remaining
    steps (0.0 if no step has a negative entry).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    cfg = traj.config
    length = cfg.grid.length
    faces = cfg.grid.face_positions
    values = traj.viscosity_history

    ratios = []
    for n, row in enumerate(values):
        neg = row < 0
        neg_mass = float(np.sum(np.abs(row[neg])))
        if neg_mass == 0.0:
            continue
        t = n * cfg.dt
        near = np.zeros(len(faces), dtype=bool)
        for edge in ((profile.lo + cfg.c * t) % length, (profile.hi + cfg.c * t) % length):
            d = np.abs(faces - edge) % length
            d = np.minimum(d, length - d)
            near |= d <= radius
        ratios.append(float(np.sum(np.abs(row[neg & near]))) / neg_mass)

    out = mu_summary(values)
    out["negative_mass_near_discontinuity"] = float(np.mean(ratios)) if ratios else 0.0
    return out


def ec_es_split(u: np.ndarray, mu: np.ndarray, cfg: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Split the numerical flux into conservative and dissipative parts.

    Per face: ec = c*(u_i + u_{i+1})/2 (the entropy-neutral central flux for
    a linear scalar) and es = (mu_{i+1/2}/dx)*(u_{i+1} - u_i), the scalar
    degenerate dissipative correction. ec - es is, entrywise, the face flux
    F_{i+1/2} that ``ftcs_update`` differences. ``u`` (cells) and ``mu``
    (faces) are arrays of length n_cells.
    """
    up = _next(u)
    ec = cfg.c * 0.5 * (u + up)
    es = (mu / cfg.grid.dx) * (up - u)
    return ec, es
