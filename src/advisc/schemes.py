"""Time-stepping operators for periodic 1D linear advection.

The workhorse is forward-Euler time stepping of the central flux with a
per-face viscosity, written in conservative form:

    u_i' = u_i - (dt/dx) * (F_{i+1/2} - F_{i-1/2})
    F_{i+1/2} = c*(u_{i+1} + u_i)/2 - (mu_{i+1/2}/dx)*(u_{i+1} - u_i)

Classical schemes are special cases with a constant mu, given for every
layer by one table, ``CLASSICAL_MU``: mu = |c|*dx/2 gives first-order
upwind for either sign of c, mu = c^2*dt/2 gives Lax-Wendroff, mu = 0 gives
the bare (unstable) forward-time centered-space update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid1D


class DivergenceError(RuntimeError):
    """Raised when a simulated state goes non-finite or trips the magnitude guard.

    ``trajectory`` holds the states recorded before the failure, so the step
    whose output violated the guard is its ``n_steps``.
    """

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


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


def _face_terms_into(a: np.ndarray, d: np.ndarray, u: np.ndarray, ue: np.ndarray,
                     cfg: SchemeConfig) -> None:
    """a <- c*(u_{i+1} + u_i)/2 and d <- u_{i+1} - u_i, the mu-independent face terms
    of a step from u, whose cells run along axis 0. ``ue``, one row longer, is
    scratch for u and its ghost u_0 as row N."""
    ue[:-1] = u
    ue[-1] = u[0]
    here, after = ue[:-1], ue[1:]
    np.add(after, here, a)
    np.multiply(cfg.c * 0.5, a, a)
    np.subtract(after, here, d)


def _ftcs_stepper(a: np.ndarray, d: np.ndarray, flux: np.ndarray, cfg: SchemeConfig):
    """step(out, u, mu): out <- u - (dt/dx)*(F_{i+1/2} - F_{i-1/2}) in place, with
    F_{i+1/2} = a_i - (mu_{i+1/2}/dx)*d_i from ``_face_terms_into``. Cells run
    along axis 0, so a batch held as (N, B) C-order buffers steps through
    contiguous row blocks. Row 0 of ``flux``, one row longer than u, repeats
    F_{N-1/2}; ``out`` is scratch too. Bound once, with dx and dt/dx as 0-d
    arrays and the outputs passed positionally, as the per-step trainer steps
    every inner iteration."""
    f_here, f_before, f_ghost, f_last = flux[1:], flux[:-1], flux[:1], flux[-1:]
    dx = np.array(cfg.grid.dx)
    dt_dx = np.array(cfg.dt / cfg.grid.dx)

    def step(out: np.ndarray, u: np.ndarray, mu: np.ndarray) -> None:
        np.divide(mu, dx, out)
        np.multiply(out, d, out)
        np.subtract(a, out, f_here)
        f_ghost[...] = f_last
        np.subtract(f_here, f_before, out)
        np.multiply(dt_dx, out, out)
        np.subtract(u, out, out)

    return step


def _row_stepper(cfg: SchemeConfig):
    """step(out, u, mu): one FTCS step of the state row u at the face viscosity
    row mu into out, through ``_face_terms_into`` and ``_ftcs_stepper`` bound
    once over one row of buffers. The binder for a state that changes from
    call to call: ``simulate``, ``analyze``'s replay and ``ftcs_update`` step
    through it, while the per-step trainer's ``_descend`` binds its fixed
    state's face terms once."""
    n = cfg.grid.n_cells
    a, d, flux = np.empty(n), np.empty(n), np.empty(n + 1)
    ftcs_step = _ftcs_stepper(a, d, flux, cfg)

    def step(out: np.ndarray, u: np.ndarray, mu: np.ndarray) -> None:
        _face_terms_into(a, d, u, flux, cfg)
        ftcs_step(out, u, mu)

    return step


def ftcs_update(u: np.ndarray, mu: np.ndarray, cfg: SchemeConfig) -> np.ndarray:
    """The FTCS kernel on plain arrays: u' = u - (dt/dx)*(F_{i+1/2} - F_{i-1/2}).

    ``u`` (cells) and ``mu`` (faces) are float arrays of shape (n_cells,);
    the new state is returned as a fresh array, stepped by ``_row_stepper``.
    """
    n = cfg.grid.n_cells
    if u.shape != (n,) or mu.shape != (n,):
        raise ValueError(f"u and mu must have shape ({n},), got {u.shape} and {mu.shape}")
    out = np.empty(n)
    _row_stepper(cfg)(out, u, mu)
    return out


# The constant face viscosity at which ftcs_update is each classical scheme.
CLASSICAL_MU = {
    "upwind": lambda cfg: abs(cfg.c) * cfg.grid.dx / 2.0,
    "lax_wendroff": lambda cfg: cfg.c**2 * cfg.dt / 2.0,
    "ftcs_bare": lambda cfg: 0.0,
}
SCHEME_NAMES = ("ftcs_mu", *CLASSICAL_MU)


def _lax_wendroff_step(u: np.ndarray, cfg: SchemeConfig) -> np.ndarray:
    """Second-order-in-time step; equals ftcs_update with mu = c^2*dt/2.

    The one classical scheme ``simulate`` does not step through ftcs_update:
    that reorders the arithmetic and moves the final MSE of the benchmark's
    N = 10^4 Lax-Wendroff run (5.03e-13) by 5e-11 relative, while
    bench/reference.json pins it to 1e-12 relative.
    """
    up = np.roll(u, -1)
    um = np.roll(u, 1)
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
    except Lax-Wendroff, which keeps its own stencil. Raises DivergenceError
    (partial trajectory attached) when a state goes non-finite or exceeds
    the magnitude guard.
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
        mu = np.broadcast_to(_checked(np.array(mu, dtype=float), None, "mu"), (n_steps, n_cells))
    rows = mu if mu is not None else np.broadcast_to(CLASSICAL_MU[scheme](cfg), (n_steps, n_cells))

    bound = _guard_bound(u0)
    states = np.empty((n_steps + 1, n_cells))
    states[0] = u0
    ftcs_step = _row_stepper(cfg)
    for n in range(n_steps):
        if scheme == "lax_wendroff":
            states[n + 1] = _lax_wendroff_step(states[n], cfg)
        else:
            ftcs_step(states[n + 1], states[n], rows[n])
        if _diverged(states[n + 1], bound):
            raise DivergenceError(f"state diverged at step {n} (magnitude guard {bound:g})",
                                  _checked_trajectory(states[: n + 1], cfg,
                                                      None if mu is None else mu[:n]))
    return _checked_trajectory(states, cfg, mu)
