"""Projected gradient descent over the viscosity field.

Two training modes: per-step greedy optimization of the instantaneous error
while the numerical state marches forward, and global optimization of the
full space-time field against the whole-horizon loss. Both respect box
constraints via projection and support Tikhonov and smoothness penalties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import LossSpec, grad_mu_global, grad_mu_instantaneous, loss_value
from .grid import CellField, ExactProvider, FaceViscosity, SpaceTimeViscosity
from .schemes import DivergenceError, SchemeConfig, Trajectory, _next, _prev, ftcs_step, simulate


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters for projected gradient descent.

    ``init_mu = None`` resolves at train time to the upwind-equivalent value
    c*dx/2 clipped into the bounds (a stable starting scheme); pass 0.0 to
    cold-start from zero viscosity. ``warm_start`` controls whether per-step
    training reuses the previous step's optimum as the next initial guess.
    """

    learning_rate: float = 1e-2
    n_iters: int = 200
    mu_min: float = -5e-3
    mu_max: float = 9.5e-2
    l2_penalty: float = 0.0
    smooth_penalty: float = 0.0
    init_mu: float | None = None
    seed: int = 0
    warm_start: bool = True

    def __post_init__(self) -> None:
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")
        if self.n_iters < 1 or int(self.n_iters) != self.n_iters:
            raise ValueError("n_iters must be a positive integer")
        if not (np.isfinite(self.mu_min) and np.isfinite(self.mu_max)):
            raise ValueError("bounds must be finite")
        if self.mu_min > self.mu_max:
            raise ValueError("mu_min must not exceed mu_max")
        if self.l2_penalty < 0 or self.smooth_penalty < 0:
            raise ValueError("penalties must be non-negative")
        if self.init_mu is not None and not (self.mu_min <= self.init_mu <= self.mu_max):
            raise ValueError("init_mu must lie within [mu_min, mu_max]")

    def resolve_init(self, cfg: SchemeConfig) -> float:
        if self.init_mu is not None:
            return float(self.init_mu)
        return float(np.clip(cfg.c * cfg.grid.dx / 2.0, self.mu_min, self.mu_max))


@dataclass(frozen=True)
class TrainingReport:
    """Outcome of one training run.

    ``loss_history`` records the per-step optimized loss in per-step mode and
    the loss of each accepted iterate (initial point included) in global
    mode. ``converged`` means the run completed its planned steps/iterations
    without halting. ``trajectory`` is produced by ``final_mu``.
    """

    final_mu: SpaceTimeViscosity
    loss_history: tuple[float, ...]
    trajectory: Trajectory
    converged: bool
    divergence_events: int


def project_bounds(mu: FaceViscosity, mu_min: float, mu_max: float) -> FaceViscosity:
    """Entrywise clamp onto [mu_min, mu_max] (identity on the feasible set)."""
    if mu_min > mu_max:
        raise ValueError("mu_min must not exceed mu_max")
    return FaceViscosity(np.clip(mu.values, mu_min, mu_max), mu.grid)


def regularizer_gradient(mu: np.ndarray, opt: OptimizerConfig) -> np.ndarray:
    """Gradient of l2*sum(mu^2) + smooth*sum((mu_{f+1} - mu_f)^2) per face.

    The smoothness kernel is periodic and acts along the last axis, so a
    space-time stack is penalized slice by slice; constants contribute zero.
    """
    g = 2.0 * opt.l2_penalty * mu
    if opt.smooth_penalty > 0:
        g = g + 2.0 * opt.smooth_penalty * (
            2.0 * mu - _prev(mu) - _next(mu)
        )
    return g


def train_per_step(
    u0: CellField,
    n_steps: int,
    cfg: SchemeConfig,
    opt: OptimizerConfig,
    exact_provider: ExactProvider,
    magnitude_guard: float = 1e6,
) -> TrainingReport:
    """Greedy training: optimize each step's viscosity against the next exact state.

    The state advanced between steps is the numerical one (never reset to
    exact), so error accumulation is visible to later steps. Each step's mu
    warm-starts from the previous optimum unless ``opt.warm_start`` is off.
    Divergence of the advancing state halts training at that step.
    """
    if n_steps < 1 or int(n_steps) != n_steps:
        raise ValueError("n_steps must be a positive integer")
    grid = cfg.grid
    init = opt.resolve_init(cfg)
    lr, lo, hi = opt.learning_rate, opt.mu_min, opt.mu_max
    threshold = magnitude_guard * max(float(np.max(np.abs(u0.values))), 1.0)

    mu = np.full(grid.n_cells, init)
    u = u0
    states = [u0]
    history: list[np.ndarray] = []
    losses: list[float] = []
    divergences = 0
    halted = False

    for n in range(int(n_steps)):
        if not opt.warm_start:
            mu = np.full(grid.n_cells, init)
        exact_next = exact_provider((n + 1) * cfg.dt)
        # Inner iterations dominate the run time, so they step plain arrays;
        # only the advancing step below builds (and validates) containers.
        uv, target = u.values, exact_next.values
        for _ in range(opt.n_iters):
            g = grad_mu_instantaneous(uv, target, mu, cfg)
            g += regularizer_gradient(mu, opt)
            mu = (mu - lr * g).clip(lo, hi)
        try:
            u_next = ftcs_step(u, FaceViscosity(mu, grid), cfg)
        except DivergenceError:
            divergences += 1
            halted = True
            break
        if float(np.max(np.abs(u_next.values))) > threshold:
            divergences += 1
            halted = True
            break
        err = u_next.values - exact_next.values
        losses.append(float(np.mean(err * err)))
        history.append(mu.copy())
        states.append(u_next)
        u = u_next

    if not history:
        raise DivergenceError("training diverged on the very first step", step=0)
    mu_st = SpaceTimeViscosity(np.array(history), grid)
    traj = Trajectory(states=tuple(states), config=cfg, viscosity_history=mu_st)
    return TrainingReport(
        final_mu=mu_st,
        loss_history=tuple(losses),
        trajectory=traj,
        converged=not halted,
        divergence_events=divergences,
    )


def train_global(
    u0: CellField,
    n_steps: int,
    cfg: SchemeConfig,
    opt: OptimizerConfig,
    exact_provider: ExactProvider,
    loss_spec: LossSpec = LossSpec(),
    max_halvings: int = 30,
) -> TrainingReport:
    """Whole-horizon training: one decision vector of shape (n_steps, n_faces).

    Plain projected gradient descent; an iterate whose forward sweep diverges
    is rejected and retried at half the step size (the reduction persists).
    Returns the best (lowest-loss) iterate seen, with its trajectory.
    """
    if n_steps < 1 or int(n_steps) != n_steps:
        raise ValueError("n_steps must be a positive integer")
    grid = cfg.grid
    init = opt.resolve_init(cfg)
    lr = opt.learning_rate

    def evaluate(values: np.ndarray) -> tuple[float, Trajectory]:
        traj = simulate(u0, n_steps, cfg, scheme="ftcs_mu",
                        mu=SpaceTimeViscosity(values, grid))
        return loss_value(traj, exact_provider, loss_spec), traj

    current = np.full((int(n_steps), grid.n_cells), init)
    loss_cur, traj_cur = evaluate(current)  # initial sweep failure is unrecoverable
    best_mu, best_loss, best_traj = current, loss_cur, traj_cur
    losses = [loss_cur]
    divergences = 0
    halvings = 0
    completed = True

    for _ in range(opt.n_iters):
        grad = grad_mu_global(
            u0, SpaceTimeViscosity(current, grid), cfg, exact_provider, loss_spec
        )
        grad += regularizer_gradient(current, opt)
        while True:
            candidate = np.clip(current - lr * grad, opt.mu_min, opt.mu_max)
            try:
                loss_cand, traj_cand = evaluate(candidate)
            except DivergenceError:
                divergences += 1
                halvings += 1
                lr *= 0.5
                if halvings > max_halvings:
                    completed = False
                    break
                continue
            current, loss_cur = candidate, loss_cand
            losses.append(loss_cur)
            if loss_cand < best_loss:
                best_mu, best_loss, best_traj = candidate, loss_cand, traj_cand
            break
        if not completed:
            break

    return TrainingReport(
        final_mu=SpaceTimeViscosity(best_mu, grid),
        loss_history=tuple(losses),
        trajectory=best_traj,
        converged=completed,
        divergence_events=divergences,
    )


def constant_mu_grid_search(
    u0: CellField,
    n_steps: int,
    cfg: SchemeConfig,
    exact_provider: ExactProvider,
    mu_min: float,
    mu_max: float,
    n_samples: int = 200,
    loss_spec: LossSpec = LossSpec(),
) -> tuple[float, float]:
    """Brute-force 1D search over space-time-constant viscosities.

    Returns (best_mu, best_loss); diverging candidates are skipped. Serves as
    the baseline the space-time trainer must beat.
    """
    best_mu = np.nan
    best_loss = np.inf
    for mu_c in np.linspace(mu_min, mu_max, n_samples):
        try:
            traj = simulate(
                u0, n_steps, cfg, scheme="ftcs_mu",
                mu=FaceViscosity(np.full(cfg.grid.n_cells, mu_c), cfg.grid),
            )
        except DivergenceError:
            continue
        loss = loss_value(traj, exact_provider, loss_spec)
        if loss < best_loss:
            best_mu, best_loss = float(mu_c), loss
    return best_mu, best_loss
