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
from typing import Callable, Union

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

    def diffusion_number(self, mu: float) -> float:
        """Stability-governing scale mu*dt/dx^2 of a (uniform) viscosity."""
        return mu * self.dt / self.grid.dx**2


@dataclass(frozen=True)
class Trajectory:
    """States u^0 .. u^M of one simulation plus the viscosities that produced it.

    ``viscosity_history``, when present, has exactly M entries; entry n is the
    field used to advance states[n] to states[n+1].
    """

    states: tuple[CellField, ...]
    config: SchemeConfig
    viscosity_history: SpaceTimeViscosity | None = None

    def __post_init__(self) -> None:
        if len(self.states) < 1:
            raise ValueError("trajectory needs at least the initial state")
        if self.viscosity_history is not None:
            if self.viscosity_history.n_steps != len(self.states) - 1:
                raise ValueError(
                    "viscosity_history must have one entry per step "
                    f"({len(self.states) - 1}), got {self.viscosity_history.n_steps}"
                )

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1

    @property
    def array(self) -> np.ndarray:
        """States stacked into shape (n_steps + 1, n_cells)."""
        return np.stack([s.values for s in self.states])

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
    up = _next(u)
    return cfg.c * 0.5 * (up + u) - (mu / cfg.grid.dx) * (up - u)


def ftcs_flux(u: CellField, mu: FaceViscosity, cfg: SchemeConfig) -> np.ndarray:
    """Central advective flux minus face-viscosity jump term, per face.

    Entry i is F_{i+1/2} = c*(u_{i+1} + u_i)/2 - (mu_{i+1/2}/dx)*(u_{i+1} - u_i).
    """
    _check_grid(u, cfg)
    _check_grid(mu, cfg)
    return _flux(u.values, mu.values, cfg)


def ftcs_update(u: np.ndarray, mu: np.ndarray, cfg: SchemeConfig) -> np.ndarray:
    """The FTCS kernel on plain arrays: u' = u - (dt/dx)*(F_{i+1/2} - F_{i-1/2}).

    ``u`` (cells) and ``mu`` (faces) are float arrays of length n_cells; the
    new state is returned as a fresh array. ``ftcs_step`` and the
    instantaneous gradient both step through here. Raises DivergenceError if
    an entry of the new state is non-finite.
    """
    n = cfg.grid.n_cells
    if u.shape != (n,) or mu.shape != (n,):
        raise ValueError(f"u and mu must have shape ({n},), got {u.shape} and {mu.shape}")
    flux = _flux(u, mu, cfg)
    out = u - (cfg.dt / cfg.grid.dx) * (flux - _prev(flux))
    if not np.isfinite(out).all():
        raise DivergenceError("FTCS update produced a non-finite state")
    return out


def ftcs_step(u: CellField, mu: FaceViscosity, cfg: SchemeConfig) -> CellField:
    """One conservative forward-Euler step u' = u - (dt/dx)*(F_{i+1/2} - F_{i-1/2})."""
    _check_grid(u, cfg)
    _check_grid(mu, cfg)
    return CellField(ftcs_update(u.values, mu.values, cfg), u.grid)


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
    """Second-order-in-time step; equals ftcs_step with mu = c^2*dt/2."""
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

MuProvider = Union[FaceViscosity, SpaceTimeViscosity, Callable[[int, CellField], FaceViscosity], None]


def simulate(
    u0: CellField,
    n_steps: int,
    cfg: SchemeConfig,
    scheme: str = "ftcs_mu",
    mu: MuProvider = None,
    magnitude_guard: float = 1e6,
) -> Trajectory:
    """March ``n_steps`` steps of the chosen scheme, recording every state.

    ``mu`` supplies the face viscosity for the "ftcs_mu" scheme: a single
    FaceViscosity (held constant), a SpaceTimeViscosity (one row per step),
    or a callable (step index, state) -> FaceViscosity. Raises
    DivergenceError (partial trajectory attached) if a state goes non-finite
    or its magnitude exceeds magnitude_guard * max(1, max|u0|).
    """
    if n_steps < 0 or int(n_steps) != n_steps:
        raise ValueError("n_steps must be a non-negative integer")
    if scheme not in SCHEME_NAMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose one of {SCHEME_NAMES}")
    _check_grid(u0, cfg)

    uses_mu = scheme == "ftcs_mu"
    if uses_mu and mu is None:
        raise ValueError("scheme 'ftcs_mu' requires a mu provider")
    if not uses_mu and mu is not None:
        raise ValueError(f"scheme {scheme!r} does not accept a mu provider")
    if isinstance(mu, SpaceTimeViscosity) and mu.n_steps != n_steps:
        raise ValueError(f"space-time viscosity has {mu.n_steps} rows, need {n_steps}")

    def mu_at(n: int, state: CellField) -> FaceViscosity:
        if isinstance(mu, FaceViscosity):
            return mu
        if isinstance(mu, SpaceTimeViscosity):
            return mu.at_step(n)
        return mu(n, state)

    scale = float(np.max(np.abs(u0.values)))
    threshold = magnitude_guard * max(scale, 1.0)

    states = [u0]
    history: list[np.ndarray] = []
    u = u0
    for n in range(int(n_steps)):
        try:
            if uses_mu:
                mu_n = mu_at(n, u)
                u_next = ftcs_step(u, mu_n, cfg)
                history.append(mu_n.values)
            elif scheme == "upwind":
                u_next = upwind_step(u, cfg)
            elif scheme == "lax_wendroff":
                u_next = lax_wendroff_step(u, cfg)
            else:
                u_next = ftcs_bare_step(u, cfg)
        except DivergenceError as err:
            raise DivergenceError(
                f"state went non-finite at step {n}", step=n, trajectory=_partial(states, history, cfg)
            ) from err
        if float(np.max(np.abs(u_next.values))) > threshold:
            raise DivergenceError(
                f"magnitude guard ({threshold:g}) tripped at step {n}",
                step=n,
                trajectory=_partial(states, history, cfg),
            )
        states.append(u_next)
        u = u_next

    vh = None
    if uses_mu:
        vh = SpaceTimeViscosity(
            np.array(history).reshape(len(history), cfg.grid.n_cells), cfg.grid
        )
    return Trajectory(states=tuple(states), config=cfg, viscosity_history=vh)


def _partial(states: list[CellField], history: list[np.ndarray], cfg: SchemeConfig) -> Trajectory:
    vh = None
    n_done = len(states) - 1
    if history:
        vh = SpaceTimeViscosity(np.array(history[:n_done]), cfg.grid)
    return Trajectory(states=tuple(states), config=cfg, viscosity_history=vh)
