"""Post-hoc analyses: error norms, the entropy series and its dissipation
channel, total variation, and viscosity sign statistics.

Everything here is read-only over immutable trajectories, so analyses can
run concurrently on shared data.
"""

from __future__ import annotations

import numpy as np

from .grid import InitialCondition
from .schemes import Trajectory


def mse(u: np.ndarray, exact: np.ndarray) -> float:
    """Mean squared pointwise difference (1/N) * sum (u_i - e_i)^2 of two arrays."""
    if u.shape != exact.shape:
        raise ValueError("arrays have mismatched shapes")
    diff = u - exact
    return float(np.mean(diff * diff))


# Entries of the squares that row_sums_of_squares holds at once: 64 KB of
# doubles.
_ROW_BLOCK = 1 << 13


def row_sums_of_squares(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """sum((a - b)^2) along the last axis of each row of ``a`` (b = 0 when None),
    for an ``a`` of two or more dimensions and a ``b`` of its shape.

    The squares are formed a block of rows at a time, so no temporary as
    large as ``a`` exists; each row is still reduced by one sum along the
    last axis, so the values are those of reducing the whole array at once.
    """
    out = np.empty(a.shape[:-1])
    rows = max(1, _ROW_BLOCK // max(a[:1].size, 1))  # a may have no rows
    for start in range(0, len(a), rows):
        if b is None:
            sq = np.square(a[start:start + rows])
        else:
            sq = np.subtract(a[start:start + rows], b[start:start + rows])
            np.square(sq, out=sq)
        out[start:start + rows] = np.sum(sq, axis=-1)
    return out


def step_losses(states: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """The per-step losses of a run's (M + 1, N) ``states``: the ``mse`` of each
    state after the first against the exact state of its time, bit for bit."""
    return row_sums_of_squares(states[1:], exact[1:]) / states.shape[-1]


def entropy_series(states: np.ndarray, dx: float) -> np.ndarray:
    """Quadratic entropy S = (1/2) * sum_i u_i^2 * dx of each state along the last axis.

    Given the (M + 1, N) states of a run, returns S^0 .. S^M, through
    ``row_sums_of_squares``.
    """
    if states.ndim < 2:
        return 0.5 * np.sum(states * states, axis=-1) * dx
    return 0.5 * row_sums_of_squares(states) * dx


def dissipation_series(states: np.ndarray, mu: np.ndarray, dx: float) -> np.ndarray:
    """The face-viscosity channel of the entropy budget of each step.

    Given the (M + 1, N) states of a run and the (M, N) face viscosity of its
    steps, returns D^0 .. D^{M-1}, evaluated at each pre-step state:

        D^n = sum_faces mu^n_{i+1/2} * ((u^n_{i+1} - u^n_i)/dx)^2 * dx.
    """
    jumps = (np.roll(states[:-1], -1, axis=-1) - states[:-1]) / dx
    return np.sum(mu * jumps * jumps, axis=1) * dx


def total_variation(u: np.ndarray) -> float:
    """Sum of |u_{i+1} - u_i| with periodic wrap; growth flags oscillation."""
    return float(np.sum(np.abs(np.roll(u, -1) - u)))


def summary_stats(states: np.ndarray, entropy: np.ndarray, exact_final: np.ndarray,
                  dx: float) -> dict:
    """The ``stats`` block of a run summary, from the run's (M + 1, N) states
    and their ``entropy_series``, which the caller computes once for this
    block and entropy.csv alike.

    The run writers and ``analyze`` both compute the block here, from the
    trajectory and from the stored CSVs respectively.
    """
    final = states[-1]
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


# How far from a hat edge a face counts as near the discontinuity.
NEGATIVE_MASS_RADIUS = 0.05


def mu_stats(traj: Trajectory, ic: InitialCondition) -> dict:
    """The extremes and negative fraction of the trajectory's viscosity, and
    for a hat ``ic`` the localization of its negative entries under
    ``"negative_mass_near_discontinuity"``.

    The localization score restricts attention to negative entries: per step,
    the |mu| mass of negative faces lying within NEGATIVE_MASS_RADIUS of
    either moving edge of the hat (positions lo + c*t and hi + c*t mod
    length at the pre-step time) divided by the total negative |mu| mass;
    steps without negative entries are skipped, and the score is the average
    over the remaining steps (0.0 if no step has a negative entry).
    """
    values = traj.viscosity_history
    out = {
        "mu_min": float(np.min(values)),
        "mu_max": float(np.max(values)),
        "fraction_negative": float(np.mean(values < 0)),
    }
    if ic.kind != "hat":
        return out

    cfg = traj.config
    length = cfg.grid.length
    faces = cfg.grid.face_positions
    ratios = []
    for n, row in enumerate(values):
        neg = row < 0
        # Sum each row's selected entries alone: summing a row with the
        # others zeroed would change the pairwise order, and the bits.
        neg_mass = float(np.sum(np.abs(row[neg])))
        if neg_mass == 0.0:
            continue
        shift = cfg.c * (n * cfg.dt)
        near = np.zeros(row.shape, dtype=bool)  # faces within the radius of an edge
        for edge in (ic.lo, ic.hi):
            # Faces and edges lie in [0, length], so d <= length: ``d % length``
            # would only turn d == length into 0, where the minimum is 0 as well.
            d = np.abs(faces - np.remainder(edge + shift, length))
            near |= np.minimum(d, length - d, out=d) <= NEGATIVE_MASS_RADIUS
        ratios.append(float(np.sum(np.abs(row[neg & near]))) / neg_mass)
    out["negative_mass_near_discontinuity"] = float(np.mean(ratios)) if ratios else 0.0
    return out
