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

from .schemes import SchemeConfig, Trajectory, _next, ftcs_update, simulate


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
    err = traj.states[1:] - exact[1:]
    np.multiply(err, err, out=err)
    total = 0.0
    for row_sum in np.sum(err, axis=1).tolist():  # each row summed as on its own
        total += coef * row_sum
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
    return (cfg.dt / cfg.grid.dx**2) * (_next(u) - u) * (r - _next(r))


def _transposer(g: np.ndarray, t: np.ndarray, cfg: SchemeConfig):
    """transpose(out, ve, mu): out <- step_transpose_update(v, mu) in place, with v
    between ghosts v_{N-1} and v_0 in ``ve``. Column 0 of ``g``, one column wider
    than v, repeats G_{N-1/2} ahead of G_{j+1/2} = mu_{j+1/2}*(v_{j+1} - v_j); ``t``
    and ``out`` are scratch. Bound once, with dt/dx^2 and cfl/2 as 0-d arrays and
    the outputs passed positionally, as the reverse sweep applies it every step."""
    g_here, g_before = g[..., 1:], g[..., :-1]
    k = np.array(cfg.dt / cfg.grid.dx**2)
    half_cfl = np.array(0.5 * cfg.cfl)

    def transpose(out: np.ndarray, ve: np.ndarray, mu: np.ndarray) -> None:
        vm, v, vp = ve[..., :-2], ve[..., 1:-1], ve[..., 2:]
        np.subtract(vp, v, g_here)
        np.multiply(mu, g_here, g_here)
        g[..., 0] = g[..., -1]
        np.subtract(g_here, g_before, t)  # the viscous bracket, G_{j+1/2} - G_{j-1/2}
        np.multiply(k, t, t)
        np.subtract(vp, vm, out)
        np.multiply(half_cfl, out, out)
        np.add(v, out, out)
        np.add(out, t, out)

    return transpose


def step_transpose_update(v: np.ndarray, mu: np.ndarray, cfg: SchemeConfig) -> np.ndarray:
    """Apply the transpose of the (state-linear) step operator to the array v.

    The transpose is the same stencil with the advection direction reversed
    and the viscous part unchanged:

        (A^T v)_j = v_j + (cfl/2)*(v_{j+1} - v_{j-1})
                    + (dt/dx^2)*[mu_{j+1/2}*(v_{j+1} - v_j) - mu_{j-1/2}*(v_j - v_{j-1})].

    ``v`` (cells) and ``mu`` (faces) are plain arrays of length n_cells. It
    allocates the buffers of ``_transposer``, the one transposed stencil.
    """
    ve = np.concatenate((v[..., -1:], v, v[..., :1]), axis=-1)
    out, t, g = np.empty(v.shape), np.empty(v.shape), np.empty(ve[..., 1:].shape)
    _transposer(g, t, cfg)(out, ve, mu)
    return out


def grad_mu_global(traj: Trajectory, exact: np.ndarray) -> np.ndarray:
    """Gradient of ``loss_value`` with respect to every face/step viscosity.

    ``traj`` is the recorded forward sweep u^0 .. u^M of an ftcs_mu run, with
    the viscosities that produced it; ``exact`` has the shape of its states.
    The reverse sweep runs

        lambda^M = dJ/du^M,   lambda^n = A^T(mu^n) lambda^{n+1} + dJ/du^n,

    and the gradient at step n is lambda^{n+1} contracted against the step's
    mu-sensitivity at u^n. Returns the (n_steps, n_faces) gradient array.
    The sweep runs in preallocated buffers, in step_transpose_update's order.
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

    # Row n: the mu-sensitivity (dt/dx^2)*(u_{i+1} - u_i) at u^n, times lambda_i - lambda_{i+1}.
    grad = np.empty((n_steps, n))
    np.subtract(states[:-1, 1:], states[:-1, :-1], grad[:, :-1])
    np.subtract(states[:-1, 0], states[:-1, -1], grad[:, -1])
    np.multiply(cfg.dt / cfg.grid.dx**2, grad, grad)
    # The rows take turns holding lambda^{m+1} and lambda^m between ghost columns.
    lam = np.empty((2, n + 2))
    g, t, dj = np.empty(n + 1), np.empty(n), np.empty(n)
    transpose = _transposer(g, t, cfg)
    for m in range(n_steps, 0, -1):
        here, after = lam[m % 2], lam[(m + 1) % 2]
        inner = here[1:-1]
        np.subtract(states[m], exact[m], dj)
        np.multiply(two_coef, dj, dj)  # dJ/du^m
        if m == n_steps:
            inner[...] = dj
        else:
            transpose(inner, after, mu[m])
            np.add(inner, dj, inner)
        here[0], here[-1] = here[-2], here[1]
        np.subtract(inner, here[2:], t)
        np.multiply(grad[m - 1], t, grad[m - 1])
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
