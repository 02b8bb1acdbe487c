"""Projected gradient descent over the viscosity field.

Two training modes: per-step greedy optimization of the instantaneous error
while the numerical state marches forward, and global optimization of the
full space-time field against the whole-horizon loss. Both are plain
gradient descent on the unpenalized loss, projected onto box constraints.

The per-step trainer takes a batch of optimizer configs on one problem and
trains them together: each step hoists its mu-independent factors once, and
the inner iterations run only in-place ufuncs over cells-major (N, batch)
C-order buffers, whose shifted views are contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import grad_mu_global, loss_value
from .schemes import (
    CLASSICAL_MU,
    DivergenceError,
    SchemeConfig,
    Trajectory,
    _diverged,
    _face_terms_into,
    _ftcs_stepper,
    _guard_bound,
    ftcs_update,
    simulate,
)


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters for projected gradient descent.

    Training starts from the upwind viscosity |c|*dx/2, for either sign of
    c, clipped into [mu_min, mu_max] (a stable starting scheme); per-step
    training then starts each step from the previous step's optimum.
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
        return float(np.clip(CLASSICAL_MU["upwind"](cfg), self.mu_min, self.mu_max))


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


def _descend(u: np.ndarray, target: np.ndarray, mu: np.ndarray, lr: np.ndarray,
             lo: np.ndarray, hi: np.ndarray, cfg: SchemeConfig, n_iters: int) -> None:
    """Run ``n_iters`` projected gradient steps on each column's one-step loss, in place on ``mu``.

    The arrays are cells-major (N, B) C-order buffers: column b of ``u``,
    ``target``, ``mu``, ``lr``, ``lo`` and ``hi`` is one problem, so every
    shifted view of a face or flux buffer is one contiguous block. Each
    iteration is grad_mu_instantaneous followed by mu <- clip(mu - lr*g, lo, hi),
    with every elementwise operation in the same order, so the iterates are
    those of that gradient bit for bit. The mu-independent factors A = c*(u_{i+1}
    + u_i)/2, D = u_{i+1} - u_i and K = (dt/dx^2)*D are formed once per call;
    the loop runs the FTCS stepper and ufuncs into preallocated buffers, with
    2/N as a 0-d array and the outputs passed positionally.
    """
    n, b = u.shape
    two_n = np.array(2.0 / n)
    a, d, t = np.empty((n, b)), np.empty((n, b)), np.empty((n, b))
    flux, res = np.empty((n + 1, b)), np.empty((n + 1, b))
    _face_terms_into(a, d, u, flux, cfg)
    ftcs_step = _ftcs_stepper(a, d, flux, cfg)
    k = (cfg.dt / cfg.grid.dx**2) * d
    # A ghost row turns the periodic difference into a fixed view: row N of
    # ``res`` repeats r_0 after r_0 .. r_{N-1}.
    r_here, r_after, r_ghost, r_first = res[:n], res[1:], res[n:], res[:1]
    for _ in range(n_iters):
        ftcs_step(t, u, mu)  # u' = FTCS step of u at mu
        np.subtract(t, target, r_here)
        np.multiply(two_n, r_here, r_here)  # r = (2/N)*(u' - target)
        r_ghost[...] = r_first
        np.subtract(r_here, r_after, t)
        np.multiply(k, t, t)  # g = K*(r_i - r_{i+1})
        np.multiply(lr, t, t)
        np.subtract(mu, t, mu)
        # clip(lo, hi) as its two ufuncs; ndarray.clip goes through Python.
        # These two take out= by keyword: a positional output is deprecated.
        np.maximum(mu, lo, out=mu)
        np.minimum(mu, hi, out=mu)


def train_per_step(
    cfg: SchemeConfig,
    opt: OptimizerConfig | tuple[OptimizerConfig, ...],
    exact: np.ndarray,
) -> TrainingReport | list[TrainingReport | DivergenceError]:
    """Greedy training: optimize each step's viscosity against the next exact state.

    Row m of ``exact`` is the exact state at time m*dt; row 0 is the initial
    state and the M + 1 rows set the M steps trained. The state advanced
    between steps is the numerical one (never reset to exact), so error
    accumulation is visible to later steps. Each step's mu starts from the
    previous step's optimum.

    Given one config, returns its TrainingReport. Divergence of the advancing
    state halts training at that step; on the first step it raises
    DivergenceError with the initial state as the partial trajectory.

    Given a tuple of configs sharing ``n_iters``, trains them together as
    one batch on the same problem and returns one outcome per config: its
    TrainingReport, or the DivergenceError of a run whose first step
    diverged. A run that diverges leaves the batch at that step; the others
    go on. Each outcome equals that of training its config alone, bit for
    bit, and the single form is a batch of one.
    """
    single = isinstance(opt, OptimizerConfig)
    batch = (opt,) if single else tuple(opt)
    if not batch:
        raise ValueError("train_per_step needs at least one optimizer config")
    n_iters = batch[0].n_iters
    if any(o.n_iters != n_iters for o in batch):
        raise ValueError("the configs of one batch must share n_iters")
    n_steps = _horizon(exact, cfg)
    n = cfg.grid.n_cells
    bound = _guard_bound(exact[0])

    def per_face(values) -> np.ndarray:
        # Cells-major (N, B): row i holds face i of every run in the batch.
        return np.repeat(np.array(values, dtype=float)[None, :], n, axis=0)

    lr = per_face([o.learning_rate for o in batch])
    lo = per_face([o.mu_min for o in batch])
    hi = per_face([o.mu_max for o in batch])
    mu = per_face([o.resolve_init(cfg) for o in batch])
    states = np.empty((len(batch), n_steps + 1, n))
    states[:, 0] = exact[0]
    mu_rows = np.empty((len(batch), n_steps, n))
    losses: list[list[float]] = [[] for _ in batch]
    rows = np.arange(len(batch))  # the runs still training, one per column of mu

    for step in range(n_steps):
        target = exact[step + 1]
        u = states[rows, step].T.copy()
        _descend(u, np.repeat(target[:, None], rows.size, axis=1), mu, lr, lo, hi, cfg, n_iters)
        u_next = ftcs_update(u.T, mu.T, cfg)
        going = [j for j in range(len(rows)) if not _diverged(u_next[j], bound)]
        for j in going:
            err = u_next[j] - target
            losses[rows[j]].append(float(np.mean(err * err)))
        states[rows[going], step + 1] = u_next[going]
        mu_rows[rows[going], step] = mu.T[going]
        if len(going) < len(rows):
            rows = rows[going]
            if rows.size == 0:
                break
            mu, lr, lo, hi = (x[:, going].copy() for x in (mu, lr, lo, hi))

    outcomes: list[TrainingReport | DivergenceError] = []
    for b, run_losses in enumerate(losses):
        n_done = len(run_losses)
        if n_done == 0:
            outcomes.append(DivergenceError(
                "training diverged on the very first step", step=0,
                trajectory=Trajectory(states[b, :1], cfg, mu_rows[b, :0])))
            continue
        halted = n_done < n_steps
        traj = Trajectory(states=states[b, : n_done + 1], config=cfg,
                          viscosity_history=mu_rows[b, :n_done])
        outcomes.append(TrainingReport(
            loss_history=tuple(run_losses),
            trajectory=traj,
            converged=not halted,
            divergence_events=int(halted),
        ))
    if single:
        if isinstance(outcomes[0], DivergenceError):
            raise outcomes[0]
        return outcomes[0]
    return outcomes


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

    # simulate copies its mu, so this one buffer can hold every candidate.
    candidate = np.full((n_steps, cfg.grid.n_cells), opt.resolve_init(cfg))
    best_loss, traj_cur = evaluate(candidate)  # initial sweep failure is unrecoverable
    best_traj = traj_cur
    losses = [best_loss]
    divergences = 0
    halvings = 0
    completed = True

    for _ in range(opt.n_iters):
        grad = grad_mu_global(traj_cur, exact)
        while True:
            np.multiply(lr, grad, out=candidate)
            np.subtract(traj_cur.viscosity_history, candidate, out=candidate)
            np.clip(candidate, opt.mu_min, opt.mu_max, out=candidate)
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
            traj_cur = traj_cand
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
