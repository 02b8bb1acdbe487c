"""Independent brute-force reference implementations for the test suite.

Everything here is deliberately written with plain Python loops and lists,
not numpy stencils, so it shares no code path with the package under test.
The exceptions are the np.roll oracles ``reference_ftcs_flux`` (the face
flux) and ``reference_grad_mu_step`` (the exact one-step gradient), and the
``reference_train_per_step``, ``reference_grad_mu_global``, ``reference_loss``
and ``reference_train_global`` built on them. They pin the trainers and the
adjoint sweep bit for bit, so they repeat the library's numpy operations in
their original order, with np.roll for every periodic neighbour.
So does ``reference_negative_mass_near_discontinuity``, the per-step loop
that ``diagnostics.mu_stats`` must match bit for bit.
``reference_step_transpose`` is the textbook formula of the transposed step,
written out term by term with np.roll; it pins nothing bit for bit.
``reference_write_columns_csv`` is the CSV writer's ground truth: Python's
``%`` operator formats every value.
"""

from __future__ import annotations

import math

import numpy as np


def reference_write_columns_csv(path, header, rows) -> None:
    """The header line, then each row as its values printed by ``'%.17g' %``,
    comma-separated, one line per row."""
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(line % tuple(row))


def naive_hat(n: int, dx: float, t: float, c: float = 1.0,
              lo: float = 0.4, hi: float = 0.6, amplitude: float = 1.0) -> list[float]:
    length = n * dx
    out = []
    for i in range(n):
        x = ((i + 0.5) * dx - c * t) % length
        out.append(amplitude if lo < x < hi else 0.0)
    return out


def naive_ftcs_mu_step(u: list[float], mu: list[float], c: float, dt: float, dx: float) -> list[float]:
    """Direct per-cell evaluation of the conservative viscous update."""
    n = len(u)
    out = []
    for i in range(n):
        ip = (i + 1) % n
        im = (i - 1) % n
        f_right = c * (u[ip] + u[i]) / 2.0 - (mu[i] / dx) * (u[ip] - u[i])
        f_left = c * (u[i] + u[im]) / 2.0 - (mu[im] / dx) * (u[i] - u[im])
        out.append(u[i] - (dt / dx) * (f_right - f_left))
    return out


def naive_upwind_step(u: list[float], cfl: float) -> list[float]:
    n = len(u)
    return [u[i] - cfl * (u[i] - u[(i - 1) % n]) for i in range(n)]


def naive_lax_wendroff_step(u: list[float], cfl: float) -> list[float]:
    n = len(u)
    out = []
    for i in range(n):
        ip = (i + 1) % n
        im = (i - 1) % n
        out.append(
            u[i]
            - 0.5 * cfl * (u[ip] - u[im])
            + 0.5 * cfl * cfl * (u[ip] - 2.0 * u[i] + u[im])
        )
    return out


def naive_upwind_states(u0: list[float], n_steps: int, cfl: float) -> list[list[float]]:
    states = [list(u0)]
    u = list(u0)
    for _ in range(n_steps):
        u = naive_upwind_step(u, cfl)
        states.append(list(u))
    return states


def naive_mse(a: list[float], b: list[float]) -> float:
    return sum((x - y) ** 2 for x, y in zip(a, b)) / len(a)


def naive_global_loss(states: list[list[float]], exacts: list[list[float]]) -> float:
    """Mean over cells and steps 1..M of squared error (initial state excluded)."""
    n_steps = len(states) - 1
    n = len(states[0])
    total = 0.0
    for m in range(1, n_steps + 1):
        total += sum((a - b) ** 2 for a, b in zip(states[m], exacts[m]))
    return total / (n * n_steps)


def naive_entropy(u: list[float], dx: float) -> float:
    return 0.5 * sum(v * v for v in u) * dx


def naive_total_variation(u: list[float]) -> float:
    n = len(u)
    return sum(abs(u[(i + 1) % n] - u[i]) for i in range(n))


def naive_amplification_magnitude(theta: float, cfl: float, d: float) -> float:
    real = 1.0 - 4.0 * d * math.sin(theta / 2.0) ** 2
    imag = -cfl * math.sin(theta)
    return math.hypot(real, imag)


def reference_ftcs_flux(u, mu, c, dx):
    """The face flux F_{i+1/2} = c*(u_{i+1} + u_i)/2 - (mu_{i+1/2}/dx)*(u_{i+1} - u_i)."""
    up = np.roll(u, -1)
    return c * 0.5 * (up + u) - (mu / dx) * (up - u)


def _roll_step(u, mu, c, dt, dx):
    """One FTCS step in the library's operation order, with np.roll."""
    flux = reference_ftcs_flux(u, mu, c, dx)
    return u - (dt / dx) * (flux - np.roll(flux, 1))


def reference_grad_mu_step(u, target, mu, c, dt, dx):
    """Exact gradient of the one-step mean squared error mean((u' - target)^2),
    u' the FTCS step of ``u`` at the face viscosity ``mu``, with respect to mu.

    With r = (2/N)*(u' - target), face i+1/2 enters the updates of cells i and
    i+1 with opposite signs: dL/dmu_{i+1/2} = (dt/dx^2)*(u_{i+1} - u_i)*(r_i - r_{i+1}).
    """
    r = (2.0 / len(u)) * (_roll_step(u, mu, c, dt, dx) - target)
    du = np.roll(u, -1) - u
    return (dt / dx**2) * du * (r - np.roll(r, -1))


def reference_step_transpose(v, mu, c, dt, dx):
    """The transpose of the (state-linear) FTCS step at ``mu``, applied to ``v``:

        (A^T v)_j = v_j + (cfl/2)*(v_{j+1} - v_{j-1})
                    + (dt/dx^2)*[mu_{j+1/2}*(v_{j+1} - v_j) - mu_{j-1/2}*(v_j - v_{j-1})].
    """
    vp, vm = np.roll(v, -1), np.roll(v, 1)
    return (v + 0.5 * (c * dt / dx) * (vp - vm)
            + (dt / dx**2) * (mu * (vp - v) - np.roll(mu, 1) * (v - vm)))


def reference_train_per_step(u0, exacts, c, dt, dx, learning_rate, n_iters, mu_min, mu_max,
                             init_mu):
    """Per-step projected gradient descent, written out with np.roll.

    ``exacts[m]`` is the target state of step m. Returns the (n_steps, n)
    viscosity history and the (n_steps + 1, n) states. No divergence guard.
    Each step's rate is ``learning_rate`` capped at 1/L, L = (8/n)*max K^2
    with K = (dt/dx^2)*(u_{i+1} - u_i), unless every jump is zero.
    """
    n = len(u0)
    u = np.array(u0, dtype=float)
    mu = np.full(n, init_mu)
    history, states = [], [u]
    for m in range(1, len(exacts)):
        k = (dt / dx**2) * (np.roll(u, -1) - u)
        peak = np.max(k * k)
        rate = min(learning_rate, n / (8 * peak)) if peak > 0 else learning_rate
        for _ in range(n_iters):
            g = reference_grad_mu_step(u, exacts[m], mu, c, dt, dx)
            mu = np.clip(mu - rate * g, mu_min, mu_max)
        u = _roll_step(u, mu, c, dt, dx)
        history.append(mu)
        states.append(u)
    return np.array(history), np.array(states)


def reference_grad_mu_global(states, mu, exacts, c, dt, dx):
    """Gradient of the whole-horizon mean squared error with respect to the
    (n_steps, n) viscosity ``mu`` of the recorded ``states``: the adjoint
    reverse sweep, one step at a time with np.roll. It steps the adjoint with
    the forward step at -c, as the library does, since A^T(c, mu) = A(-c, mu);
    ``reference_step_transpose`` stays the independent textbook form of A^T,
    against which the tests check that identity."""
    n_steps, n = mu.shape
    coef = 1.0 / (n * n_steps)
    grad = np.empty((n_steps, n))
    lam = 2.0 * coef * (states[n_steps] - exacts[n_steps])
    for m in range(n_steps, 0, -1):
        if m < n_steps:
            lam = _roll_step(lam, mu[m], -c, dt, dx) + 2.0 * coef * (states[m] - exacts[m])
        du = np.roll(states[m - 1], -1) - states[m - 1]
        grad[m - 1] = (dt / dx**2) * du * (lam - np.roll(lam, -1))
    return grad


def reference_loss(states, exacts):
    """The whole-horizon mean squared error over the cells and the steps
    1 .. n_steps, one step at a time: each step's squared error is summed
    alone and the sums are added, times 1/(n*n_steps), in step order."""
    n_steps, n = len(states) - 1, len(states[0])
    coef, total = 1.0 / (n * n_steps), 0.0
    for m in range(1, n_steps + 1):
        err = states[m] - exacts[m]
        total += coef * float(np.sum(err * err))
    return total


def reference_train_global(u0, exacts, c, dt, dx, learning_rate, n_iters, mu_min, mu_max,
                           init_mu):
    """Whole-horizon projected gradient descent, written out with np.roll.

    ``exacts`` holds the exact states at steps 0 .. n_steps. A candidate
    whose sweep leaves the magnitude guard 1e6*max(1, max|u0|) or goes
    non-finite is rejected and retried at half the step size, which persists.
    Returns the loss of each accepted iterate (the initial one first), the
    lowest-loss iterate's (n_steps, n) viscosity and (n_steps + 1, n) states,
    and the number of rejected candidates. Never gives up halving.
    """
    n_steps, n = len(exacts) - 1, len(u0)
    bound = 1e6 * max(float(np.max(np.abs(u0))), 1.0)

    def sweep(mu):
        states = [np.array(u0, dtype=float)]
        for m in range(n_steps):
            u = _roll_step(states[-1], mu[m], c, dt, dx)
            peak = np.max(np.abs(u))
            if not np.isfinite(peak) or peak > bound:
                return None
            states.append(u)
        return np.array(states)

    mu = np.full((n_steps, n), init_mu)
    states = sweep(mu)
    losses = [reference_loss(states, exacts)]
    best = (losses[0], mu, states)
    lr, rejected = learning_rate, 0
    for _ in range(n_iters):
        grad = reference_grad_mu_global(states, mu, exacts, c, dt, dx)
        while True:
            candidate = np.clip(mu - lr * grad, mu_min, mu_max)
            candidate_states = sweep(candidate)
            if candidate_states is not None:
                break
            rejected += 1
            lr *= 0.5
        mu, states = candidate, candidate_states
        losses.append(reference_loss(states, exacts))
        if losses[-1] < best[0]:
            best = (losses[-1], mu, states)
    return losses, best[1], best[2], rejected


def reference_negative_mass_near_discontinuity(values, faces, length, lo, hi, c, dt, radius):
    """The share of negative |mu| mass within ``radius`` of a moving hat edge,
    averaged over the steps that have negative entries, one step at a time."""
    ratios = []
    for n, row in enumerate(values):
        neg = row < 0
        neg_mass = float(np.sum(np.abs(row[neg])))
        if neg_mass == 0.0:
            continue
        t = n * dt
        near = np.zeros(len(faces), dtype=bool)
        for edge in ((lo + c * t) % length, (hi + c * t) % length):
            d = np.abs(faces - edge) % length
            d = np.minimum(d, length - d)
            near |= d <= radius
        ratios.append(float(np.sum(np.abs(row[neg & near]))) / neg_mass)
    return float(np.mean(ratios)) if ratios else 0.0
