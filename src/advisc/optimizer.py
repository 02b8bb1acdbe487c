"""Projected gradient descent over the viscosity field.

Two training modes: per-step greedy optimization of the instantaneous error
while the numerical state marches forward, and global optimization of the
full space-time field against the whole-horizon loss. Both are plain
gradient descent on the unpenalized loss, projected onto box constraints.
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
    ftcs_update,
    simulate,
)


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters for projected gradient descent.

    Training starts from the upwind-equivalent viscosity c*dx/2 clipped into
    [mu_min, mu_max] (a stable starting scheme); per-step training then
    starts each step from the previous step's optimum.
    """

    learning_rate: float = 1e-2
    n_iters: int = 200
    mu_min: float = -5e-3
    mu_max: float = 9.5e-2

    def __post_init__(self) -> None:
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")
        if self.n_iters < 1 or int(self.n_iters) != self.n_iters:
            raise ValueError("n_iters must be a positive integer")
        if not (np.isfinite(self.mu_min) and np.isfinite(self.mu_max)):
            raise ValueError("bounds must be finite")
        if self.mu_min > self.mu_max:
            raise ValueError("mu_min must not exceed mu_max")

    def resolve_init(self, cfg: SchemeConfig) -> float:
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
    accumulation is visible to later steps. Each step's mu starts from the
    previous step's optimum. Divergence of the
    advancing state halts training at that step; on the first step it raises
    DivergenceError with the initial state as the partial trajectory.
    """
    n_steps = _horizon(exact, cfg)
    grid = cfg.grid
    lr, lo, hi = opt.learning_rate, opt.mu_min, opt.mu_max
    bound = _guard_bound(exact[0])

    mu = np.full(grid.n_cells, opt.resolve_init(cfg))
    states = np.empty((n_steps + 1, grid.n_cells))
    states[0] = exact[0]
    mu_rows = np.empty((n_steps, grid.n_cells))
    losses: list[float] = []
    halted = False

    for n in range(n_steps):
        u, target = states[n], exact[n + 1]
        for _ in range(opt.n_iters):
            g = grad_mu_instantaneous(u, target, mu, cfg)
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
    lr = opt.learning_rate

    def evaluate(values: np.ndarray) -> tuple[float, Trajectory]:
        traj = simulate(exact[0], n_steps, cfg, mu=values)
        return loss_value(traj, exact), traj

    current = np.full((n_steps, cfg.grid.n_cells), opt.resolve_init(cfg))
    best_loss, traj_cur = evaluate(current)  # initial sweep failure is unrecoverable
    best_traj = traj_cur
    losses = [best_loss]
    divergences = 0
    halvings = 0
    completed = True

    for _ in range(opt.n_iters):
        grad = grad_mu_global(traj_cur, exact)
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
