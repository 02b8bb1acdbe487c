"""Time-stepping operators for periodic 1D linear advection.

The workhorse is forward-Euler time stepping of the central flux with a
per-face viscosity, written in conservative form:

    u_i' = u_i - (dt/dx) * (F_{i+1/2} - F_{i-1/2})
    F_{i+1/2} = c*(u_{i+1} + u_i)/2 - (mu_{i+1/2}/dx)*(u_{i+1} - u_i)

Classical schemes are special cases with a constant mu, given for every
layer by one table, ``CLASSICAL_MU``: mu = |c|*dx/2 gives first-order
upwind for either sign of c, mu = c^2*dt/2 gives Lax-Wendroff, mu = 0 gives
the bare (unstable) forward-time centered-space update.

The stencil exists once, in ``_row_stepper``: every caller binds it, loads a
state, which forms the mu-independent face terms, and steps the loaded state
at one viscosity or at many.

The scheme is unstable without its viscosity, so divergence is an outcome,
not a fault: a run that diverges returns the trajectory up to its last state
within the magnitude guard, and ``n_steps`` says how far it got.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid1D


# A run diverges once a state is non-finite or larger in magnitude than
# MAGNITUDE_GUARD * max(1, max|u0|), u0 being the run's initial state.
MAGNITUDE_GUARD = 1e6


def _guard_bound(u0: np.ndarray) -> float:
    """The largest magnitude a state of a run from ``u0`` may reach."""
    return MAGNITUDE_GUARD * max(float(np.max(np.abs(u0))), 1.0)


def _diverged(u: np.ndarray, bound: float) -> bool:
    """Whether the state ``u`` is non-finite or exceeds ``bound`` in magnitude."""
    peak = np.maximum.reduce(np.abs(u), axis=None)  # NaN or inf when any entry is
    return not math.isfinite(peak) or peak > bound


def _checked(values, shape: tuple | None, what: str) -> np.ndarray:
    """A read-only float view of ``values``; raises ValueError unless it has
    ``shape`` (any shape for None) and only finite entries."""
    out = np.asarray(values, dtype=float).view()
    if shape is not None and out.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"non-finite entries in {what} violate the finite-value contract")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SchemeConfig:
    """Advection speed, time step and grid; cfl = c*dt/dx is derived."""

    c: float
    dt: float
    grid: Grid1D

    def __post_init__(self) -> None:
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if not np.isfinite(self.c):
            raise ValueError("c must be finite")

    @property
    def cfl(self) -> float:
        return self.c * self.dt / self.grid.dx


@dataclass(frozen=True)
class Trajectory:
    """States u^0 .. u^M of one simulation plus the viscosities that produced it.

    ``states`` is a finite float array of shape (M + 1, n_cells); row n is
    u^n. ``viscosity_history``, when present, is a finite float array of
    shape (M, n_cells); row n is the face viscosity that advanced states[n]
    to states[n+1]. Neither is copied: the constructor keeps read-only
    views, so a caller holding a writeable reference must not modify it.
    """

    states: np.ndarray
    config: SchemeConfig
    viscosity_history: np.ndarray | None = None

    def __post_init__(self) -> None:
        states = _checked(self.states, None, "states")
        n_cells = self.config.grid.n_cells
        if states.ndim != 2 or states.shape[0] < 1 or states.shape[1] != n_cells:
            raise ValueError(
                f"states must have shape (n_steps + 1, {n_cells}), got {states.shape}"
            )
        object.__setattr__(self, "states", states)
        if self.viscosity_history is not None:
            mu = _checked(self.viscosity_history, (self.n_steps, n_cells), "viscosity_history")
            object.__setattr__(self, "viscosity_history", mu)

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.config.dt


def _checked_trajectory(states: np.ndarray, cfg: SchemeConfig,
                        mu: np.ndarray | None) -> Trajectory:
    """A Trajectory of arrays its caller has already checked to be finite and
    of the constructor's shapes: it keeps read-only views of them without
    scanning them again, as ``simulate`` has guarded every state and checked mu."""
    traj = object.__new__(Trajectory)
    object.__setattr__(traj, "config", cfg)
    for name, values in (("states", states), ("viscosity_history", mu)):
        if values is not None:
            values = values.view()
            values.setflags(write=False)
        object.__setattr__(traj, name, values)
    return traj


def _row_stepper(cfg: SchemeConfig, batch: tuple = ()):
    """The one binder of the FTCS kernel: (load, step) over buffers of shape
    (N, *batch), one row by default, or (N, B) for B = batch[0] states held
    cells-major, so every shifted view is one contiguous block.

    load(u) writes u and its ghost u_0 as row N into the flux buffer, forms
    the mu-independent face terms a = c*(u_{i+1} + u_i)/2 and
    d = u_{i+1} - u_i, and returns d. step(out, u, mu) writes into out the
    step u - (dt/dx)*(F_{i+1/2} - F_{i-1/2}) of the state u last loaded, with
    F_{i+1/2} = a_i - (mu_{i+1/2}/dx)*d_i; row 0 of the flux buffer repeats
    F_{N-1/2}, and out is scratch too. A loaded state steps at any number of
    viscosities: ``simulate``, ``ftcs_update``, the adjoint's reverse sweep
    (bound at -c) and ``_first_mismatch`` load each state and step it once;
    the per-step trainer's ``_descend`` steps it every inner iteration.
    dx and dt/dx are 0-d arrays and the outputs are passed positionally, as
    the trainer steps so often."""
    n = cfg.grid.n_cells
    a, d, flux = np.empty((n, *batch)), np.empty((n, *batch)), np.empty((n + 1, *batch))
    behind, ahead, first, last = flux[:-1], flux[1:], flux[:1], flux[-1:]
    dx = np.array(cfg.grid.dx)
    dt_dx = np.array(cfg.dt / cfg.grid.dx)
    half_c = cfg.c * 0.5

    def load(u: np.ndarray) -> np.ndarray:
        behind[...] = u
        flux[-1] = u[0]
        np.add(ahead, behind, a)
        np.multiply(half_c, a, a)
        np.subtract(ahead, behind, d)
        return d

    def step(out: np.ndarray, u: np.ndarray, mu: np.ndarray) -> None:
        np.divide(mu, dx, out)
        np.multiply(out, d, out)
        np.subtract(a, out, ahead)
        first[...] = last
        np.subtract(ahead, behind, out)
        np.multiply(dt_dx, out, out)
        np.subtract(u, out, out)

    return load, step


def ftcs_update(u: np.ndarray, mu: np.ndarray, cfg: SchemeConfig) -> np.ndarray:
    """The FTCS kernel on plain arrays: u' = u - (dt/dx)*(F_{i+1/2} - F_{i-1/2}).

    ``u`` (cells) and ``mu`` (faces) are float arrays of shape (n_cells,);
    the new state is returned as a fresh array, stepped by ``_row_stepper``.
    """
    n = cfg.grid.n_cells
    if u.shape != (n,) or mu.shape != (n,):
        raise ValueError(f"u and mu must have shape ({n},), got {u.shape} and {mu.shape}")
    out = np.empty(n)
    load, step = _row_stepper(cfg)
    load(u)
    step(out, u, mu)
    return out


# The constant face viscosity at which ftcs_update is each classical scheme.
CLASSICAL_MU = {
    "upwind": lambda cfg: abs(cfg.c) * cfg.grid.dx / 2.0,
    "lax_wendroff": lambda cfg: cfg.c**2 * cfg.dt / 2.0,
    "ftcs_bare": lambda cfg: 0.0,
}
SCHEME_NAMES = ("ftcs_mu", *CLASSICAL_MU)


def _lax_wendroff_step(u: np.ndarray, cfg: SchemeConfig) -> np.ndarray:
    """Second-order-in-time step of u, (N,) or (N, B); equals ftcs_update at mu = c^2*dt/2.

    The one classical scheme that does not step through ``_row_stepper``:
    that reorders the arithmetic and moves the final MSE of the benchmark's
    N = 10^4 Lax-Wendroff run (5.03e-13) by 5e-11 relative, while
    bench/reference.json pins it to 1e-12 relative.
    """
    up = np.roll(u, -1, axis=0)
    um = np.roll(u, 1, axis=0)
    s = cfg.cfl
    return u - 0.5 * s * (up - um) + 0.5 * s * s * (up - 2.0 * u + um)


def amplification_factor(theta, cfl: float, diffusion_number: float):
    """Per-step Fourier multiplier G(theta) for uniform viscosity.

    G = 1 - i*cfl*sin(theta) - 4*d*sin^2(theta/2) with d = mu*dt/dx^2.
    Accepts scalar or array theta. Only meaningful for spatially uniform mu.
    """
    theta = np.asarray(theta, dtype=float)
    g = 1.0 - 1j * cfl * np.sin(theta) - 4.0 * diffusion_number * np.sin(0.5 * theta) ** 2
    return complex(g) if np.ndim(g) == 0 else g


def _viscosity_rows(cfg: SchemeConfig, scheme: str, mu, n_steps: int) -> np.ndarray:
    """Each step's face viscosity as a read-only (n_steps, n_cells) broadcast:
    of ``mu`` for "ftcs_mu", and of the scheme's CLASSICAL_MU otherwise."""
    value = mu if scheme == "ftcs_mu" else CLASSICAL_MU[scheme](cfg)
    return np.broadcast_to(value, (n_steps, cfg.grid.n_cells))


def simulate(
    u0: np.ndarray,
    n_steps: int,
    cfg: SchemeConfig,
    scheme: str = "ftcs_mu",
    mu: float | np.ndarray | None = None,
) -> Trajectory:
    """March ``n_steps`` steps of the chosen scheme from ``u0``, recording every state.

    ``mu`` supplies the face viscosity of the "ftcs_mu" scheme, and only of
    it: a scalar or an (n_cells,) row held constant, or an (n_steps, n_cells)
    stack with one row per step; it is copied once and broadcast to
    (n_steps, n_cells), and recorded as the viscosity history. The other
    schemes record none: each steps the FTCS stencil at its CLASSICAL_MU,
    except Lax-Wendroff, which keeps its own stencil. A state that goes
    non-finite or exceeds the magnitude guard ends the run: the trajectory
    returned stops at the state before it, so its ``n_steps`` is below the
    ``n_steps`` asked for, and its viscosity history is cut to match; both
    are copies of the rows kept.
    """
    if n_steps < 0 or int(n_steps) != n_steps:
        raise ValueError("n_steps must be a non-negative integer")
    if scheme not in SCHEME_NAMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose one of {SCHEME_NAMES}")
    n_steps, n_cells = int(n_steps), cfg.grid.n_cells
    u0 = _checked(u0, (n_cells,), "u0")
    if (scheme == "ftcs_mu") != (mu is not None):
        raise ValueError("scheme 'ftcs_mu' requires a mu, and no other scheme takes one")
    if mu is not None:
        mu = _checked(np.array(mu, dtype=float), None, "mu")
    rows = _viscosity_rows(cfg, scheme, mu, n_steps)
    mu = None if mu is None else rows

    bound = _guard_bound(u0)
    states = np.empty((n_steps + 1, n_cells))
    states[0] = u0
    load, ftcs_step = _row_stepper(cfg)
    for n in range(n_steps):
        if scheme == "lax_wendroff":
            states[n + 1] = _lax_wendroff_step(states[n], cfg)
        else:
            load(states[n])
            ftcs_step(states[n + 1], states[n], rows[n])
        if _diverged(states[n + 1], bound):  # copied, so they do not pin the whole horizon
            states, mu = states[: n + 1].copy(), None if mu is None else mu[:n].copy()
            break
    return _checked_trajectory(states, cfg, mu)


# The values in each block buffer of ``_first_mismatch``: 10 steps at N = 100,
# one at N >= 1024. Eight times as many replay no faster and hold more memory.
REPLAY_BLOCK_VALUES = 1024


def _first_mismatch(u0, states, cfg: SchemeConfig, scheme: str, mu) -> int | None:
    """The first n at which ``states`` differ, bit for bit, from the states
    of ``simulate(u0, len(states) - 1, cfg, scheme, mu)``, or None. Row 0 is
    compared with u0 and each later row with the scheme's step from the row
    before it, so a non-finite step differs. B = max(1, REPLAY_BLOCK_VALUES
    // N) steps (or all) are stepped at once, as transposed (N, B) views; a
    last block that would be short overlaps the one before."""
    if not np.array_equal(states[0], u0):
        return 0
    n_steps, n_cells = len(states) - 1, cfg.grid.n_cells
    rows = _viscosity_rows(cfg, scheme, mu, n_steps)
    width = max(1, min(REPLAY_BLOCK_VALUES // n_cells, n_steps))
    out, differs = np.empty((n_cells, width)), np.empty((n_cells, width), dtype=bool)
    load, ftcs_step = _row_stepper(cfg, (width,))
    for start in range(0, n_steps, width):
        start = min(start, n_steps - width)
        u, after = states[start:start + width].T, states[start + 1:start + width + 1].T
        if scheme == "lax_wendroff":
            out = _lax_wendroff_step(u, cfg)
        else:
            load(u)
            ftcs_step(out, u, rows[start:start + width].T)
        if np.not_equal(out, after, differs).any():
            return start + 1 + int(np.argmax(differs.any(axis=0)))
    return None
