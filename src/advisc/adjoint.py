"""Exact gradients of the discrete tracking loss with respect to face viscosity.

The forward step is linear in the state u and bilinear in (mu, u), so the
gradient of the quadratic tracking loss is available in closed form: one
forward sweep records the states, one reverse sweep propagates adjoint
variables through the transposed step operator, and each per-step gradient
is the adjoint contracted against the step's mu-sensitivity at the recorded
state. The transposed step is the forward FTCS step with the advection
reversed, A^T(c, mu) = A(-c, mu), so the sweep loads each adjoint into the
same binder as ``simulate``, ``schemes._row_stepper``, and the jumps that
loading forms serve both the contraction and the next transposed step. The
per-step trainer's one-step gradient is the same contraction, inlined in
``optimizer._descend``. A central finite-difference oracle is provided for
verification.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .diagnostics import row_sums_of_squares
from .schemes import SchemeConfig, Trajectory, _row_stepper, simulate


def _check_exact(traj: Trajectory, exact: np.ndarray) -> None:
    if exact.shape != traj.states.shape:
        raise ValueError(
            f"exact has shape {exact.shape}, the trajectory's states {traj.states.shape}"
        )


def loss_value(traj: Trajectory, exact: np.ndarray) -> float:
    """Mean squared error of a complete trajectory against ``exact``, row m of
    which is the exact state at time m*dt (the shape of ``traj.states``).

    The mean runs over the cells and the steps 1 .. M; the initial condition
    is mu-independent and excluded. Each row's squared error is summed alone,
    by ``diagnostics.row_sums_of_squares``, and the row sums are added in
    step order.
    """
    _check_exact(traj, exact)
    n_steps = traj.n_steps
    if n_steps == 0:
        return 0.0
    coef = 1.0 / (traj.config.grid.n_cells * n_steps)
    total = 0.0
    for row_sum in row_sums_of_squares(traj.states[1:], exact[1:]).tolist():
        total += coef * row_sum
    return total


def grad_mu_global(traj: Trajectory, exact: np.ndarray) -> np.ndarray:
    """Gradient of ``loss_value`` with respect to every face/step viscosity.

    ``traj`` is the recorded forward sweep u^0 .. u^M of an ftcs_mu run, with
    the viscosities that produced it; ``exact`` has the shape of its states.
    The reverse sweep runs

        lambda^M = dJ/du^M,   lambda^n = A^T(mu^n) lambda^{n+1} + dJ/du^n,

    and the gradient at step n is lambda^{n+1} contracted against the step's
    mu-sensitivity at u^n. Returns the (n_steps, n_faces) gradient array.
    A^T(c, mu) = A(-c, mu): the central difference is skew-symmetric and the
    viscous part symmetric, so the sweep steps through the forward kernel,
    ``schemes._row_stepper`` bound once at -c, between two rows that swap.
    Each gradient row starts negated, as (dt/dx^2)*(u_i - u_{i+1}), and is
    multiplied by the jumps lambda_{i+1} - lambda_i that loading lambda^{n+1}
    returns; the product is the same, bit for bit, but for the sign of a zero.
    """
    n_steps = traj.n_steps
    if traj.viscosity_history is None or n_steps == 0:
        raise ValueError("grad_mu_global needs a trajectory of at least one step "
                         "that recorded its viscosities")
    _check_exact(traj, exact)
    cfg = traj.config
    n = cfg.grid.n_cells
    states = traj.states
    mu = traj.viscosity_history
    coef = 1.0 / (n * n_steps)
    two_coef = np.array(2.0 * coef)

    # Row n: the mu-sensitivity at u^n, negated: (dt/dx^2)*(u_i - u_{i+1}).
    grad = np.empty((n_steps, n))
    np.subtract(states[:-1, :-1], states[:-1, 1:], grad[:, :-1])
    np.subtract(states[:-1, -1], states[:-1, 0], grad[:, -1])
    np.multiply(cfg.dt / cfg.grid.dx**2, grad, grad)
    load, step_transposed = _row_stepper(replace(cfg, c=-cfg.c))
    lam, lam_after, t = np.empty(n), np.empty(n), np.empty(n)
    for m in range(n_steps, 0, -1):
        np.subtract(states[m], exact[m], t)
        np.multiply(two_coef, t, t)  # dJ/du^m
        if m == n_steps:
            lam[...] = t
        else:
            step_transposed(lam, lam_after, mu[m])
            np.add(lam, t, lam)
        np.multiply(grad[m - 1], load(lam), grad[m - 1])
        lam, lam_after = lam_after, lam
    return grad


def fd_gradient(
    u0: np.ndarray,
    mu: np.ndarray,
    cfg: SchemeConfig,
    exact: np.ndarray,
    h: float | None = None,
) -> np.ndarray:
    """Central-difference gradient oracle: O(n_steps * n_faces) full simulations.

    ``u0`` is the initial state and ``mu`` the (n_steps, n_faces) viscosity
    at which the gradient is taken. Perturbs each coordinate by +/- h_c with
    h_c = 1e-6 * max(1, |mu_c|) unless a fixed h is given. Test-scale only;
    the loss is quadratic in each mu coordinate, so central differences are
    exact up to round-off.
    """
    if h is not None and h <= 0:
        raise ValueError("h must be positive")
    base = np.array(mu, dtype=float)
    grad = np.empty_like(base)

    def evaluate(values: np.ndarray) -> float:
        return loss_value(simulate(u0, len(values), cfg, mu=values), exact)

    for idx in np.ndindex(base.shape):
        hc = h if h is not None else 1e-6 * max(1.0, abs(base[idx]))
        plus = base.copy()
        plus[idx] += hc
        minus = base.copy()
        minus[idx] -= hc
        grad[idx] = (evaluate(plus) - evaluate(minus)) / (2.0 * hc)
    return grad
