"""Independent brute-force reference implementations for the test suite.

Everything here is deliberately written with plain Python loops and lists,
not numpy stencils, so it shares no code path with the package under test.
The one exception is ``reference_train_per_step``: it pins the per-step
trainer bit for bit, so it repeats the trainer's numpy operations in their
original order, with np.roll for every periodic neighbour.
"""

from __future__ import annotations

import math

import numpy as np


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


def reference_train_per_step(u0, exacts, c, dt, dx, learning_rate, n_iters, mu_min, mu_max,
                             init_mu):
    """Per-step projected gradient descent, written out with np.roll.

    ``exacts[m]`` is the target state of step m. Returns the (n_steps, n)
    viscosity history and the (n_steps + 1, n) states. No divergence guard.
    """
    def step(u, mu):
        up = np.roll(u, -1)
        flux = c * 0.5 * (up + u) - (mu / dx) * (up - u)
        return u - (dt / dx) * (flux - np.roll(flux, 1))

    n = len(u0)
    u = np.array(u0, dtype=float)
    mu = np.full(n, init_mu)
    history, states = [], [u]
    for m in range(1, len(exacts)):
        for _ in range(n_iters):
            r = (2.0 / n) * (step(u, mu) - exacts[m])
            du = np.roll(u, -1) - u
            g = (dt / dx**2) * du * (r - np.roll(r, -1))
            mu = np.clip(mu - learning_rate * g, mu_min, mu_max)
        u = step(u, mu)
        history.append(mu)
        states.append(u)
    return np.array(history), np.array(states)
