"""Exact gradients of the discrete tracking loss with respect to face viscosity.

The forward step is linear in the state u and bilinear in (mu, u), so the
gradient of a quadratic tracking loss is available in closed form: one
forward sweep records the states, one reverse sweep propagates adjoint
variables through the transposed step operator, and each per-step gradient
is the adjoint contracted against the step's mu-sensitivity at the recorded
state. A central finite-difference oracle is provided for verification.
"""

from __future__ import annotations

import numpy as np

from .grid import CellField, SpaceTimeViscosity
from .schemes import SchemeConfig, Trajectory, _next, _prev, ftcs_update, simulate


def _check_exact(traj: Trajectory, exact: np.ndarray) -> None:
    if exact.shape != traj.states.shape:
        raise ValueError(
            f"exact has shape {exact.shape}, the trajectory's states {traj.states.shape}"
        )


def loss_value(traj: Trajectory, exact: np.ndarray) -> float:
    """Mean squared error of a complete trajectory against ``exact``, row m of
    which is the exact state at time m*dt (the shape of ``traj.states``).

    The mean runs over the cells and the steps 1 .. M; the initial condition
    is mu-independent and excluded.
    """
    _check_exact(traj, exact)
    n_steps = traj.n_steps
    if n_steps == 0:
        return 0.0
    coef = 1.0 / (traj.config.grid.n_cells * n_steps)
    total = 0.0
    for m in range(1, n_steps + 1):
        err = traj.states[m] - exact[m]
        total += coef * float(np.sum(err * err))
    return total


def grad_mu_instantaneous(
    u: np.ndarray, exact_next: np.ndarray, mu: np.ndarray, cfg: SchemeConfig
) -> np.ndarray:
    """Gradient of the one-step mean-squared error with respect to each face mu.

    Takes plain arrays: the state ``u``, the target ``exact_next`` and the face
    viscosity ``mu``, each of length n_cells. With u' = ftcs_update(u, mu) and
    r_i = (2/N)*(u'_i - e_i), face i+1/2 enters the updates of cells i and
    i+1 with opposite signs, giving

        dL/dmu_{i+1/2} = (dt/dx^2) * (u_{i+1} - u_i) * (r_i - r_{i+1}).
    """
    if exact_next.shape != u.shape:
        raise ValueError(f"exact_next has shape {exact_next.shape}, u has {u.shape}")
    u_next = ftcs_update(u, mu, cfg)
    r = (2.0 / cfg.grid.n_cells) * (u_next - exact_next)
    return _mu_contraction(u, r, cfg)


def step_transpose_update(v: np.ndarray, mu: np.ndarray, cfg: SchemeConfig) -> np.ndarray:
    """Apply the transpose of the (state-linear) step operator to the array v.

    The transpose is the same stencil with the advection direction reversed
    and the viscous part unchanged:

        (A^T v)_j = v_j + (cfl/2)*(v_{j+1} - v_{j-1})
                    + (dt/dx^2)*[mu_{j+1/2}*(v_{j+1} - v_j) - mu_{j-1/2}*(v_j - v_{j-1})].

    ``v`` (cells) and ``mu`` (faces) are plain arrays of length n_cells; the
    adjoint reverse sweep steps through here.
    """
    vp = _next(v)
    vm = _prev(v)
    k = cfg.dt / cfg.grid.dx**2
    return v + 0.5 * cfg.cfl * (vp - vm) + k * (mu * (vp - v) - _prev(mu) * (v - vm))


def _mu_contraction(u_n: np.ndarray, lam_next: np.ndarray, cfg: SchemeConfig) -> np.ndarray:
    """d(step)/dmu at state u^n contracted against the incoming adjoint."""
    du = _next(u_n) - u_n
    return (cfg.dt / cfg.grid.dx**2) * du * (lam_next - _next(lam_next))


def grad_mu_global(traj: Trajectory, exact: np.ndarray) -> np.ndarray:
    """Gradient of ``loss_value`` with respect to every face/step viscosity.

    ``traj`` is the recorded forward sweep u^0 .. u^M of an ftcs_mu run, with
    the viscosities that produced it; ``exact`` has the shape of its states.
    The reverse sweep runs

        lambda^M = dJ/du^M,   lambda^n = A^T(mu^n) lambda^{n+1} + dJ/du^n,

    and the gradient at step n is lambda^{n+1} contracted against the step's
    mu-sensitivity at u^n. Returns the (n_steps, n_faces) gradient array.
    """
    n_steps = traj.n_steps
    if traj.viscosity_history is None or n_steps == 0:
        raise ValueError("grad_mu_global needs a trajectory of at least one step "
                         "that recorded its viscosities")
    _check_exact(traj, exact)
    cfg = traj.config
    n = cfg.grid.n_cells
    states = traj.states
    mu = traj.viscosity_history.values
    coef = 1.0 / (n * n_steps)

    def dj_du(m: int) -> np.ndarray:
        err = states[m] - exact[m]
        return 2.0 * coef * err

    grad = np.empty((n_steps, n))
    lam = dj_du(n_steps)
    grad[n_steps - 1] = _mu_contraction(states[n_steps - 1], lam, cfg)
    for m in range(n_steps - 1, 0, -1):
        lam = step_transpose_update(lam, mu[m], cfg) + dj_du(m)
        grad[m - 1] = _mu_contraction(states[m - 1], lam, cfg)
    return grad


def fd_gradient(
    u0: CellField,
    mu_st: SpaceTimeViscosity,
    cfg: SchemeConfig,
    exact: np.ndarray,
    h: float | None = None,
) -> np.ndarray:
    """Central-difference gradient oracle: O(n_steps * n_faces) full simulations.

    Perturbs each coordinate by +/- h_c with h_c = 1e-6 * max(1, |mu_c|) unless
    a fixed h is given. Test-scale only; the loss is quadratic in each mu
    coordinate, so central differences are exact up to round-off.
    """
    if h is not None and h <= 0:
        raise ValueError("h must be positive")
    base = np.array(mu_st.values, copy=True)
    grad = np.empty_like(base)

    def evaluate(values: np.ndarray) -> float:
        traj = simulate(u0, mu_st.n_steps, cfg, scheme="ftcs_mu",
                        mu=SpaceTimeViscosity(values, cfg.grid))
        return loss_value(traj, exact)

    for idx in np.ndindex(base.shape):
        hc = h if h is not None else 1e-6 * max(1.0, abs(base[idx]))
        plus = base.copy()
        plus[idx] += hc
        minus = base.copy()
        minus[idx] -= hc
        grad[idx] = (evaluate(plus) - evaluate(minus)) / (2.0 * hc)
    return grad
