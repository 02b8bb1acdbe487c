"""Exact gradients of the discrete tracking loss with respect to face viscosity.

The forward step is linear in the state u and bilinear in (mu, u), so the
gradient of a quadratic tracking loss is available in closed form: one
forward sweep records the states, one reverse sweep propagates adjoint
variables through the transposed step operator, and each per-step gradient
is the adjoint contracted against the step's mu-sensitivity at the recorded
state. A central finite-difference oracle is provided for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import CellField, ExactProvider, FaceViscosity, SpaceTimeViscosity
from .schemes import SchemeConfig, Trajectory, _next, _prev, ftcs_update, simulate

_MODES = ("global", "instantaneous")
_NORMALIZATIONS = ("mean", "sum")


@dataclass(frozen=True)
class LossSpec:
    """Which tracking loss to evaluate.

    mode "global" compares every recorded step n = 1 .. M against the exact
    solution; mode "instantaneous" compares a single step. Normalization
    "mean" divides by the cell count (and, in global mode, the step count);
    "sum" applies no normalization. Optional non-negative per-step weights
    (length M) rescale each step's contribution in global mode.
    """

    mode: str = "global"
    weights: tuple[float, ...] | None = None
    normalization: str = "mean"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if self.normalization not in _NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {_NORMALIZATIONS}")
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if any(not np.isfinite(x) or x < 0 for x in w):
                raise ValueError("weights must be finite and non-negative")
            object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class AdjointState:
    """Adjoint fields lambda^0 .. lambda^M produced by the reverse sweep."""

    lambdas: tuple[CellField, ...]


def _step_coefficients(spec: LossSpec, n_steps: int, n_cells: int) -> np.ndarray:
    """Multiplier of sum_i (u_i^n - e_i^n)^2 for each step n = 1 .. M."""
    if spec.weights is not None and len(spec.weights) != n_steps:
        raise ValueError(f"weights must have length n_steps = {n_steps}")
    w = np.ones(n_steps) if spec.weights is None else np.asarray(spec.weights)
    if spec.normalization == "mean":
        return w / (n_cells * n_steps)
    return w.copy()


def loss_value(
    traj: Trajectory,
    exact_provider: ExactProvider,
    spec: LossSpec = LossSpec(),
    step: int | None = None,
) -> float:
    """Tracking loss of a complete trajectory.

    Global mode sums coefficient-weighted squared errors over steps 1 .. M
    (the initial condition is mu-independent and excluded). Instantaneous
    mode evaluates a single compared step (default: the last recorded one).
    """
    n_steps = traj.n_steps
    dt = traj.config.dt
    n = traj.config.grid.n_cells
    if spec.mode == "instantaneous":
        m = n_steps if step is None else step
        if not 1 <= m <= n_steps:
            raise ValueError(f"step must be in 1 .. {n_steps}")
        err = traj.states[m].values - exact_provider(m * dt).values
        total = float(np.sum(err * err))
        return total / n if spec.normalization == "mean" else total
    if step is not None:
        raise ValueError("step selection only applies to instantaneous mode")
    if n_steps == 0:
        return 0.0
    coefs = _step_coefficients(spec, n_steps, n)
    total = 0.0
    for m in range(1, n_steps + 1):
        err = traj.states[m].values - exact_provider(m * dt).values
        total += coefs[m - 1] * float(np.sum(err * err))
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


def step_transpose_apply(v: CellField, mu: FaceViscosity, cfg: SchemeConfig) -> CellField:
    """Apply the transpose of the (state-linear) step operator to v.

    The transpose is the same stencil with the advection direction reversed
    and the viscous part unchanged:

        (A^T v)_j = v_j + (cfl/2)*(v_{j+1} - v_{j-1})
                    + (dt/dx^2)*[mu_{j+1/2}*(v_{j+1} - v_j) - mu_{j-1/2}*(v_j - v_{j-1})].
    """
    vv = v.values
    vp = _next(vv)
    vm = _prev(vv)
    k = cfg.dt / cfg.grid.dx**2
    out = (
        vv
        + 0.5 * cfg.cfl * (vp - vm)
        + k * (mu.values * (vp - vv) - _prev(mu.values) * (vv - vm))
    )
    return CellField(out, v.grid)


def _mu_contraction(u_n: np.ndarray, lam_next: np.ndarray, cfg: SchemeConfig) -> np.ndarray:
    """d(step)/dmu at state u^n contracted against the incoming adjoint."""
    du = _next(u_n) - u_n
    return (cfg.dt / cfg.grid.dx**2) * du * (lam_next - _next(lam_next))


def grad_mu_global(
    u0: CellField,
    mu_st: SpaceTimeViscosity,
    cfg: SchemeConfig,
    exact_provider: ExactProvider,
    spec: LossSpec = LossSpec(),
    return_adjoint: bool = False,
):
    """Gradient of the global loss with respect to every face/step viscosity.

    One forward sweep records states u^0 .. u^M; the reverse sweep runs

        lambda^M = dJ/du^M,   lambda^n = A^T(mu^n) lambda^{n+1} + dJ/du^n,

    and the gradient at step n is lambda^{n+1} contracted against the step's
    mu-sensitivity at u^n. Raises DivergenceError if the forward sweep blows
    up. Returns the (n_steps, n_faces) gradient array, plus the AdjointState
    when return_adjoint is set.
    """
    if spec.mode != "global":
        raise ValueError("grad_mu_global requires a global-mode LossSpec")
    n_steps = mu_st.n_steps
    if n_steps == 0:
        raise ValueError("mu_st must cover at least one step")
    n = cfg.grid.n_cells
    dt = cfg.dt
    traj = simulate(u0, n_steps, cfg, scheme="ftcs_mu", mu=mu_st)
    coefs = _step_coefficients(spec, n_steps, n)

    def dj_du(m: int) -> np.ndarray:
        err = traj.states[m].values - exact_provider(m * dt).values
        return 2.0 * coefs[m - 1] * err

    grad = np.empty((n_steps, n))
    lam = dj_du(n_steps)
    lambdas = [lam]
    grad[n_steps - 1] = _mu_contraction(traj.states[n_steps - 1].values, lam, cfg)
    for m in range(n_steps - 1, 0, -1):
        lam_field = step_transpose_apply(CellField(lam, cfg.grid), mu_st.at_step(m), cfg)
        lam = lam_field.values + dj_du(m)
        lambdas.append(lam)
        grad[m - 1] = _mu_contraction(traj.states[m - 1].values, lam, cfg)
    if not return_adjoint:
        return grad
    lam0 = step_transpose_apply(CellField(lam, cfg.grid), mu_st.at_step(0), cfg)
    lambdas.append(lam0.values)
    fields = tuple(CellField(x, cfg.grid) for x in reversed(lambdas))
    return grad, AdjointState(lambdas=fields)


def fd_gradient(
    u0: CellField,
    mu_st: SpaceTimeViscosity,
    cfg: SchemeConfig,
    exact_provider: ExactProvider,
    spec: LossSpec = LossSpec(),
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
        return loss_value(traj, exact_provider, spec)

    for idx in np.ndindex(base.shape):
        hc = h if h is not None else 1e-6 * max(1.0, abs(base[idx]))
        plus = base.copy()
        plus[idx] += hc
        minus = base.copy()
        minus[idx] -= hc
        grad[idx] = (evaluate(plus) - evaluate(minus)) / (2.0 * hc)
    return grad
