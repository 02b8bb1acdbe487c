"""Time-stepping operators for periodic 1D linear advection.

The workhorse is forward-Euler time stepping of the central flux with a
per-face viscosity, written in conservative form:

    u_i' = u_i - (dt/dx) * (F_{i+1/2} - F_{i-1/2})
    F_{i+1/2} = c*(u_{i+1} + u_i)/2 - (mu_{i+1/2}/dx)*(u_{i+1} - u_i)

Classical schemes are special cases: mu = c*dx/2 gives first-order upwind
(for c > 0), mu = c^2*dt/2 gives Lax-Wendroff, mu = 0 gives the bare
(unstable) forward-time centered-space update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import CellField, FaceViscosity, Grid1D, SpaceTimeViscosity


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

    ``states`` is one read-only float array of shape (M + 1, n_cells); row n
    is u^n. It is not copied: the constructor takes a read-only view, so a
    caller that keeps a writeable reference must not modify it.
    ``viscosity_history``, when present, has exactly M rows; row n is the
    field used to advance states[n] to states[n+1].
    """

    states: np.ndarray
    config: SchemeConfig
    viscosity_history: SpaceTimeViscosity | None = None

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=float).view()
        n_cells = self.config.grid.n_cells
        if states.ndim != 2 or states.shape[0] < 1 or states.shape[1] != n_cells:
            raise ValueError(
                f"states must have shape (n_steps + 1, {n_cells}), got {states.shape}"
            )
        if not np.isfinite(states).all():
            raise ValueError("non-finite entries violate the finite-value contract")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)
        if self.viscosity_history is not None:
            if self.viscosity_history.n_steps != self.n_steps:
                raise ValueError(
                    "viscosity_history must have one entry per step "
                    f"({self.n_steps}), got {self.viscosity_history.n_steps}"
                )

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.config.dt


def _check_grid(field, cfg: SchemeConfig) -> None:
    if field.grid.n_cells != cfg.grid.n_cells or field.grid.dx != cfg.grid.dx:
        raise ValueError("field grid does not match scheme configuration grid")


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


def _flux(u: np.ndarray, mu: np.ndarray, cfg: SchemeConfig) -> np.ndarray:
    """Entry i is F_{i+1/2} = c*(u_{i+1} + u_i)/2 - (mu_{i+1/2}/dx)*(u_{i+1} - u_i)."""
    up = _next(u)
    return cfg.c * 0.5 * (up + u) - (mu / cfg.grid.dx) * (up - u)


def ftcs_update(u: np.ndarray, mu: np.ndarray, cfg: SchemeConfig) -> np.ndarray:
    """The FTCS kernel on plain arrays: u' = u - (dt/dx)*(F_{i+1/2} - F_{i-1/2}).

    ``u`` (cells) and ``mu`` (faces) are float arrays of length n_cells; the
    new state is returned as a fresh array. ``simulate``, both trainers, the
    instantaneous gradient and ``analyze`` all step through here. Raises
    DivergenceError if an entry of the new state is non-finite.
    """
    n = cfg.grid.n_cells
    if u.shape != (n,) or mu.shape != (n,):
        raise ValueError(f"u and mu must have shape ({n},), got {u.shape} and {mu.shape}")
    flux = _flux(u, mu, cfg)
    out = u - (cfg.dt / cfg.grid.dx) * (flux - _prev(flux))
    if not np.isfinite(out).all():
        raise DivergenceError("FTCS update produced a non-finite state")
    return out


def upwind_step(u: CellField, cfg: SchemeConfig) -> CellField:
    """First-order upwind step; stencil side follows the sign of c."""
    _check_grid(u, cfg)
    uv = u.values
    if cfg.c >= 0:
        out = uv - cfg.cfl * (uv - np.roll(uv, 1))
    else:
        out = uv - cfg.cfl * (np.roll(uv, -1) - uv)
    return CellField(out, u.grid)


def lax_wendroff_step(u: CellField, cfg: SchemeConfig) -> CellField:
    """Second-order-in-time step; equals ftcs_update with mu = c^2*dt/2."""
    _check_grid(u, cfg)
    uv = u.values
    up = np.roll(uv, -1)
    um = np.roll(uv, 1)
    s = cfg.cfl
    out = uv - 0.5 * s * (up - um) + 0.5 * s * s * (up - 2.0 * uv + um)
    return CellField(out, u.grid)


def ftcs_bare_step(u: CellField, cfg: SchemeConfig) -> CellField:
    """Unstabilized forward-time centered-space step (linearly unstable)."""
    _check_grid(u, cfg)
    uv = u.values
    out = uv - 0.5 * cfg.cfl * (np.roll(uv, -1) - np.roll(uv, 1))
    return CellField(out, u.grid)


def amplification_factor(theta, cfl: float, diffusion_number: float):
    """Per-step Fourier multiplier G(theta) for uniform viscosity.

    G = 1 - i*cfl*sin(theta) - 4*d*sin^2(theta/2) with d = mu*dt/dx^2.
    Accepts scalar or array theta. Only meaningful for spatially uniform mu.
    """
    theta = np.asarray(theta, dtype=float)
    g = 1.0 - 1j * cfl * np.sin(theta) - 4.0 * diffusion_number * np.sin(0.5 * theta) ** 2
    return complex(g) if np.ndim(g) == 0 else g


SCHEME_NAMES = ("ftcs_mu", "upwind", "lax_wendroff", "ftcs_bare")


def simulate(
    u0: CellField,
    n_steps: int,
    cfg: SchemeConfig,
    scheme: str = "ftcs_mu",
    mu: FaceViscosity | SpaceTimeViscosity | None = None,
    magnitude_guard: float = 1e6,
) -> Trajectory:
    """March ``n_steps`` steps of the chosen scheme, recording every state.

    ``mu`` supplies the face viscosity for the "ftcs_mu" scheme: a single
    FaceViscosity (held constant) or a SpaceTimeViscosity (one row per step).
    Raises DivergenceError (partial trajectory attached) if a state goes
    non-finite or its magnitude exceeds magnitude_guard * max(1, max|u0|).
    """
    if n_steps < 0 or int(n_steps) != n_steps:
        raise ValueError("n_steps must be a non-negative integer")
    if scheme not in SCHEME_NAMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose one of {SCHEME_NAMES}")
    _check_grid(u0, cfg)
    n_steps = int(n_steps)
    grid = cfg.grid

    uses_mu = scheme == "ftcs_mu"
    if uses_mu and not isinstance(mu, (FaceViscosity, SpaceTimeViscosity)):
        raise ValueError("scheme 'ftcs_mu' requires a FaceViscosity or SpaceTimeViscosity mu")
    if not uses_mu and mu is not None:
        raise ValueError(f"scheme {scheme!r} does not accept a mu provider")
    history = None
    if uses_mu:
        _check_grid(mu, cfg)
        if isinstance(mu, FaceViscosity):
            mu = SpaceTimeViscosity(np.broadcast_to(mu.values, (n_steps, grid.n_cells)), grid)
        elif mu.n_steps != n_steps:
            raise ValueError(f"space-time viscosity has {mu.n_steps} rows, need {n_steps}")
        history, mu_rows = mu, mu.values

    threshold = magnitude_guard * max(float(np.max(np.abs(u0.values))), 1.0)
    states = np.empty((n_steps + 1, grid.n_cells))
    states[0] = u0.values
    for n in range(n_steps):
        try:
            if uses_mu:
                states[n + 1] = ftcs_update(states[n], mu_rows[n], cfg)
            elif scheme == "upwind":
                states[n + 1] = upwind_step(CellField(states[n], grid), cfg).values
            elif scheme == "lax_wendroff":
                states[n + 1] = lax_wendroff_step(CellField(states[n], grid), cfg).values
            else:
                states[n + 1] = ftcs_bare_step(CellField(states[n], grid), cfg).values
        except DivergenceError as err:
            raise DivergenceError(
                f"state went non-finite at step {n}", step=n,
                trajectory=_partial(states, history, n, cfg),
            ) from err
        if float(np.max(np.abs(states[n + 1]))) > threshold:
            raise DivergenceError(
                f"magnitude guard ({threshold:g}) tripped at step {n}",
                step=n,
                trajectory=_partial(states, history, n, cfg),
            )
    return Trajectory(states=states, config=cfg, viscosity_history=history)


def _partial(
    states: np.ndarray, history: SpaceTimeViscosity | None, n_done: int, cfg: SchemeConfig
) -> Trajectory:
    """The first n_done steps of a run that failed on step n_done."""
    vh = None if history is None else SpaceTimeViscosity(history.values[:n_done], cfg.grid)
    return Trajectory(states=states[: n_done + 1], config=cfg, viscosity_history=vh)
