"""Projected gradient descent over the viscosity field.

Two training modes: per-step greedy optimization of the instantaneous error
while the numerical state marches forward, and global optimization of the
full space-time field against the whole-horizon loss. Both respect box
constraints via projection and support Tikhonov and smoothness penalties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import grad_mu_global, grad_mu_instantaneous, loss_value
from .schemes import (
    DivergenceError,
    SchemeConfig,
    Trajectory,
    _diverged,
    _guard_bound,
    _next,
    _prev,
    ftcs_update,
    simulate,
)


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
        if not all(np.isfinite(p) and p >= 0 for p in (self.l2_penalty, self.smooth_penalty)):
            raise ValueError("penalties must be finite and non-negative")
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
    without halting. ``trajectory`` is the run of the learned viscosity; its
    ``viscosity_history`` is that viscosity.
    """

    loss_history: tuple[float, ...]
    trajectory: Trajectory
    converged: bool
    divergence_events: int


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


def _horizon(exact: np.ndarray, cfg: SchemeConfig) -> int:
    """The step count M >= 1 of an (M + 1, n_cells) array of exact states."""
    if exact.ndim != 2 or exact.shape[0] < 2 or exact.shape[1] != cfg.grid.n_cells:
        raise ValueError(f"exact must have shape (n_steps + 1, {cfg.grid.n_cells}) "
                         f"with n_steps >= 1, got {exact.shape}")
    return exact.shape[0] - 1


def train_per_step(cfg: SchemeConfig, opt: OptimizerConfig, exact: np.ndarray) -> TrainingReport:
    """Greedy training: optimize each step's viscosity against the next exact state.

    Row m of ``exact`` is the exact state at time m*dt; row 0 is the initial
    state and the M + 1 rows set the M steps trained. The state advanced
    between steps is the numerical one (never reset to exact), so error
    accumulation is visible to later steps. Each step's mu warm-starts from
    the previous optimum unless ``opt.warm_start`` is off. Divergence of the
    advancing state halts training at that step; on the first step it raises
    DivergenceError with the initial state as the partial trajectory.
    """
    n_steps = _horizon(exact, cfg)
    grid = cfg.grid
    init = opt.resolve_init(cfg)
    lr, lo, hi = opt.learning_rate, opt.mu_min, opt.mu_max
    bound = _guard_bound(exact[0])

    mu = np.full(grid.n_cells, init)
    states = np.empty((n_steps + 1, grid.n_cells))
    states[0] = exact[0]
    mu_rows = np.empty((n_steps, grid.n_cells))
    losses: list[float] = []
    halted = False

    for n in range(n_steps):
        if not opt.warm_start:
            mu = np.full(grid.n_cells, init)
        u, target = states[n], exact[n + 1]
        for _ in range(opt.n_iters):
            g = grad_mu_instantaneous(u, target, mu, cfg)
            g += regularizer_gradient(mu, opt)
            mu = (mu - lr * g).clip(lo, hi)
        u_next = ftcs_update(u, mu, cfg)
        halted = _diverged(u_next, bound)
        if halted:
            break
        err = u_next - target
        losses.append(float(np.mean(err * err)))
        mu_rows[n] = mu
        states[n + 1] = u_next

    if not losses:
        raise DivergenceError("training diverged on the very first step", step=0,
                              trajectory=Trajectory(states[:1], cfg, mu_rows[:0]))
    n_done = len(losses)
    traj = Trajectory(states=states[: n_done + 1], config=cfg, viscosity_history=mu_rows[:n_done])
    return TrainingReport(
        loss_history=tuple(losses),
        trajectory=traj,
        converged=not halted,
        divergence_events=int(halted),
    )


def train_global(
    cfg: SchemeConfig, opt: OptimizerConfig, exact: np.ndarray, max_halvings: int = 30
) -> TrainingReport:
    """Whole-horizon training: one decision vector of shape (n_steps, n_faces).

    ``exact`` is as for ``train_per_step``. Plain projected gradient descent;
    the gradient reuses the accepted iterate's forward sweep, so each
    iteration runs one sweep, of its candidate. A candidate whose sweep
    diverges is rejected and retried at half the step size (the reduction
    persists). Returns the best (lowest-loss) iterate seen, with its trajectory.
    """
    n_steps = _horizon(exact, cfg)
    init = opt.resolve_init(cfg)
    lr = opt.learning_rate

    def evaluate(values: np.ndarray) -> tuple[float, Trajectory]:
        traj = simulate(exact[0], n_steps, cfg, mu=values)
        return loss_value(traj, exact), traj

    current = np.full((n_steps, cfg.grid.n_cells), init)
    best_loss, traj_cur = evaluate(current)  # initial sweep failure is unrecoverable
    best_traj = traj_cur
    losses = [best_loss]
    divergences = 0
    halvings = 0
    completed = True

    for _ in range(opt.n_iters):
        grad = grad_mu_global(traj_cur, exact)
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
            current, traj_cur = candidate, traj_cand
            losses.append(loss_cand)
            if loss_cand < best_loss:
                best_loss, best_traj = loss_cand, traj_cand
            break
        if not completed:
            break

    return TrainingReport(
        loss_history=tuple(losses),
        trajectory=best_traj,
        converged=completed,
        divergence_events=divergences,
    )


def constant_mu_grid_search(
    cfg: SchemeConfig, exact: np.ndarray, mu_min: float, mu_max: float, n_samples: int = 200
) -> tuple[float, float]:
    """Brute-force 1D search over space-time-constant viscosities.

    Returns (best_mu, best_loss); diverging candidates are skipped. Serves as
    the baseline the space-time trainer must beat. ``exact`` is as for
    ``train_per_step``.
    """
    n_steps = _horizon(exact, cfg)
    best_mu = np.nan
    best_loss = np.inf
    for mu_c in np.linspace(mu_min, mu_max, n_samples):
        try:
            traj = simulate(exact[0], n_steps, cfg, mu=mu_c)
        except DivergenceError:
            continue
        loss = loss_value(traj, exact)
        if loss < best_loss:
            best_mu, best_loss = float(mu_c), loss
    return best_mu, best_loss
