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

    ``step`` is the 0-based index of the step whose output violated the guard;
    ``trajectory`` holds the states recorded before the failure (may be None
    for single-step operations).
    """

    def __init__(self, message: str, step: int | None = None, trajectory: "Trajectory | None" = None):
        super().__init__(message)
        self.step = step
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


def _next(a: np.ndarray) -> np.ndarray:
    """Periodic neighbour along the last axis: out[..., i] = a[..., (i + 1) % n].

    Equal to np.roll(a, -1, axis=-1), built from two slice copies.
    """
    out = np.empty_like(a)
    out[..., :-1] = a[..., 1:]
    out[..., -1] = a[..., 0]
    return out


def _prev(a: np.ndarray) -> np.ndarray:
    """Periodic neighbour along the last axis: out[..., i] = a[..., (i - 1) % n].

    Equal to np.roll(a, 1, axis=-1), built from two slice copies.
    """
    out = np.empty_like(a)
    out[..., 1:] = a[..., :-1]
    out[..., 0] = a[..., -1]
    return out


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


def ftcs_update(u: np.ndarray, mu: np.ndarray, cfg: SchemeConfig) -> np.ndarray:
    """The FTCS kernel on plain arrays: u' = u - (dt/dx)*(F_{i+1/2} - F_{i-1/2}).

    ``u`` (cells) and ``mu`` (faces) are float arrays of one shape (..., n_cells):
    a state, or a stack of states stepped row by row, each row bit for bit as
    if stepped alone. The new state is returned as a fresh array. It steps the
    transposes, whose cells run along axis 0, through buffers of
    ``_ftcs_stepper``, the one FTCS stencil of the package, and returns the
    transpose of the result; ``.T`` rather than ``np.moveaxis``, which costs
    ~5 us a call, as ``analyze`` replays a run one call per step.
    """
    n = cfg.grid.n_cells
    if u.shape[-1:] != (n,) or mu.shape != u.shape:
        raise ValueError(f"u and mu must have one shape (..., {n}), got {u.shape} and {mu.shape}")
    u, mu = u.T, mu.T
    a, d, out = np.empty(u.shape), np.empty(u.shape), np.empty(u.shape)
    flux = np.empty((n + 1,) + u.shape[1:])
    _face_terms_into(a, d, u, flux, cfg)
    _ftcs_stepper(a, d, flux, cfg)(out, u, mu)
    return out.T


# The constant face viscosity at which ftcs_update is each classical scheme.
CLASSICAL_MU = {
    "upwind": lambda cfg: abs(cfg.c) * cfg.grid.dx / 2.0,
    "lax_wendroff": lambda cfg: cfg.c**2 * cfg.dt / 2.0,
    "ftcs_bare": lambda cfg: 0.0,
}
SCHEME_NAMES = ("ftcs_mu", *CLASSICAL_MU)


def lax_wendroff_step(u: np.ndarray, cfg: SchemeConfig) -> np.ndarray:
    """Second-order-in-time step; equals ftcs_update with mu = c^2*dt/2.

    The one classical scheme ``simulate`` does not step through ftcs_update:
    that reorders the arithmetic and moves the final MSE of the benchmark's
    N = 10^4 Lax-Wendroff run (5.03e-13) by 5e-11 relative, while
    bench/reference.json pins it to 1e-12 relative.
    """
    up = _next(u)
    um = _prev(u)
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
    a, d, flux = np.empty(n_cells), np.empty(n_cells), np.empty(n_cells + 1)
    ftcs_step = _ftcs_stepper(a, d, flux, cfg)
    for n in range(n_steps):
        if scheme == "lax_wendroff":
            states[n + 1] = lax_wendroff_step(states[n], cfg)
        else:
            _face_terms_into(a, d, states[n], flux, cfg)
            ftcs_step(states[n + 1], states[n], rows[n])
        if _diverged(states[n + 1], bound):
            raise DivergenceError(f"state diverged at step {n} (magnitude guard {bound:g})",
                                  step=n, trajectory=Trajectory(
                                      states[: n + 1], cfg, None if mu is None else mu[:n]))
    return Trajectory(states=states, config=cfg, viscosity_history=mu)
