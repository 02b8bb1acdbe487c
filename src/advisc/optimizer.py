"""Projected gradient descent over the viscosity field.

Two training modes: per-step greedy optimization of the instantaneous error
while the numerical state marches forward, and global optimization of the
full space-time field against the whole-horizon loss. Both are plain
gradient descent on the unpenalized loss, projected onto box constraints.

Both trainers take a tuple of optimizer configs on one problem and return
one ``TrainingReport`` per config, whose ``status`` says how the run ended;
a run that diverges is reported, not raised. The per-step trainer trains
its configs together: each step hoists its mu-independent factors once, and
the inner iterations run only in-place ufuncs over cells-major (N, batch)
C-order buffers, whose shifted views are contiguous. The global trainer
trains its configs one after another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import grad_mu_global, loss_value
from .diagnostics import mse
from .schemes import (
    CLASSICAL_MU,
    DivergenceError,
    SchemeConfig,
    Trajectory,
    _diverged,
    _face_terms_into,
    _ftcs_stepper,
    _guard_bound,
    simulate,
)

# train_global halts once more than this many of its candidates have diverged.
MAX_HALVINGS = 30


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
            raise ValueError("learning_rate must be positive and finite")
        if self.n_iters < 1 or int(self.n_iters) != self.n_iters:
            raise ValueError("n_iters must be a positive integer")
        if not (np.isfinite(self.mu_min) and np.isfinite(self.mu_max)):
            raise ValueError("mu_min and mu_max must be finite")
        if self.mu_min > self.mu_max:
            raise ValueError("mu_min must not exceed mu_max")

    def resolve_init(self, cfg: SchemeConfig) -> float:
        return float(np.clip(CLASSICAL_MU["upwind"](cfg), self.mu_min, self.mu_max))


@dataclass(frozen=True)
class TrainingReport:
    """Outcome of one training run.

    ``loss_history`` records the per-step optimized loss in per-step mode and
    the loss of each accepted iterate (initial point included) in global
    mode; it is empty when the first step or the initial sweep diverged.
    ``status`` says how the run ended: "ok" once it completed its planned
    steps or iterations, "divergence" when the advancing state or the initial
    sweep diverged, and "no_convergence" when global training halted after
    MAX_HALVINGS diverged candidates. ``trajectory`` is the run of the
    learned viscosity, partial when the run diverged; its
    ``viscosity_history`` is that viscosity.
    """

    loss_history: tuple[float, ...]
    trajectory: Trajectory
    status: str
    divergence_events: int


def _horizon(exact: np.ndarray, cfg: SchemeConfig) -> int:
    """The step count M >= 1 of an (M + 1, n_cells) array of exact states."""
    if exact.ndim != 2 or exact.shape[0] < 2 or exact.shape[1] != cfg.grid.n_cells:
        raise ValueError(f"exact must have shape (n_steps + 1, {cfg.grid.n_cells}) "
                         f"with n_steps >= 1, got {exact.shape}")
    return exact.shape[0] - 1


def _descend(u: np.ndarray, target: np.ndarray, mu: np.ndarray, lr: np.ndarray,
             lo: np.ndarray, hi: np.ndarray, cfg: SchemeConfig, n_iters: int) -> np.ndarray:
    """Run ``n_iters`` projected gradient steps on each column's one-step loss, in
    place on ``mu``; return the advanced state, the FTCS step of ``u`` at the final ``mu``.

    The arrays are cells-major (N, B) C-order buffers: column b of ``u``,
    ``target``, ``mu``, ``lr``, ``lo`` and ``hi`` is one problem, so every
    shifted view of a face or flux buffer is one contiguous block. Each
    iteration takes the exact gradient of the one-step mean-squared error,
    with u' the FTCS step of u at mu and r = (2/N)*(u' - target),

        g_{i+1/2} = (dt/dx^2) * (u_{i+1} - u_i) * (r_i - r_{i+1}),

    then sets mu <- clip(mu - lr*g, lo, hi). The mu-independent factors
    A = c*(u_{i+1} + u_i)/2, D = u_{i+1} - u_i and K = (dt/dx^2)*D are formed
    once per call; the loop runs the FTCS stepper and ufuncs into preallocated
    buffers, with 2/N as a 0-d array and the outputs passed positionally.
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
    ftcs_step(t, u, mu)
    return t


def train_per_step(
    cfg: SchemeConfig, opts: tuple[OptimizerConfig, ...], exact: np.ndarray
) -> list[TrainingReport]:
    """Greedy training: optimize each step's viscosity against the next exact state.

    Row m of ``exact`` is the exact state at time m*dt; row 0 is the initial
    state and the M + 1 rows set the M steps trained. The state advanced
    between steps is the numerical one (never reset to exact), so error
    accumulation is visible to later steps. Each step's mu starts from the
    previous step's optimum.

    The configs share ``n_iters`` and train together as one batch on the
    same problem; returns one TrainingReport per config. Divergence of a
    run's advancing state halts that run at that step with status
    "divergence", its trajectory ending at the last finite state (the
    initial state alone, with no losses, when the first step diverged); the
    others go on. Each report equals that of training its config alone, bit
    for bit.
    """
    if not opts:
        raise ValueError("train_per_step needs at least one optimizer config")
    n_iters = opts[0].n_iters
    if any(o.n_iters != n_iters for o in opts):
        raise ValueError("the configs of one batch must share n_iters")
    n_steps = _horizon(exact, cfg)
    n = cfg.grid.n_cells
    bound = _guard_bound(exact[0])

    def per_face(values) -> np.ndarray:
        # Cells-major (N, B): row i holds face i of every run in the batch.
        return np.repeat(np.array(values, dtype=float)[None, :], n, axis=0)

    lr = per_face([o.learning_rate for o in opts])
    lo = per_face([o.mu_min for o in opts])
    hi = per_face([o.mu_max for o in opts])
    mu = per_face([o.resolve_init(cfg) for o in opts])
    states = np.empty((len(opts), n_steps + 1, n))
    states[:, 0] = exact[0]
    mu_rows = np.empty((len(opts), n_steps, n))
    losses: list[list[float]] = [[] for _ in opts]
    rows = np.arange(len(opts))  # the runs still training, one per column of mu

    for step in range(n_steps):
        target = exact[step + 1]
        u = states[rows, step].T.copy()
        u_next = _descend(u, np.repeat(target[:, None], rows.size, axis=1),
                          mu, lr, lo, hi, cfg, n_iters).T
        going = [j for j in range(len(rows)) if not _diverged(u_next[j], bound)]
        for j in going:
            losses[rows[j]].append(mse(u_next[j], target))
        states[rows[going], step + 1] = u_next[going]
        mu_rows[rows[going], step] = mu.T[going]
        if len(going) < len(rows):
            rows = rows[going]
            if rows.size == 0:
                break
            mu, lr, lo, hi = (x[:, going].copy() for x in (mu, lr, lo, hi))

    reports = []
    for b, run_losses in enumerate(losses):
        n_done = len(run_losses)
        halted = n_done < n_steps
        reports.append(TrainingReport(
            loss_history=tuple(run_losses),
            trajectory=Trajectory(states[b, : n_done + 1], cfg, mu_rows[b, :n_done]),
            status="divergence" if halted else "ok",
            divergence_events=int(halted),
        ))
    return reports


def train_global(
    cfg: SchemeConfig, opts: tuple[OptimizerConfig, ...], exact: np.ndarray
) -> list[TrainingReport]:
    """Whole-horizon training: one decision vector of shape (n_steps, n_faces) per config.

    ``exact`` is as for ``train_per_step``. Trains each config in turn and
    returns one TrainingReport per config.
    """
    return [_train_global_one(cfg, opt, exact) for opt in opts]


def _train_global_one(cfg: SchemeConfig, opt: OptimizerConfig,
                      exact: np.ndarray) -> TrainingReport:
    """Plain projected gradient descent of one config; the gradient reuses the
    accepted iterate's forward sweep, so each iteration runs one sweep, of its
    candidate. A candidate whose sweep diverges is rejected and retried at half
    the step size (the reduction persists); once more than MAX_HALVINGS
    candidates have diverged, training halts with status "no_convergence". An
    initial sweep that diverges ends the run with status "divergence" and its
    partial trajectory. Reports the best (lowest-loss) iterate seen, with its
    trajectory.
    """
    n_steps = _horizon(exact, cfg)
    lr = opt.learning_rate

    def evaluate(values: np.ndarray) -> tuple[float, Trajectory]:
        traj = simulate(exact[0], n_steps, cfg, mu=values)
        return loss_value(traj, exact), traj

    # simulate copies its mu, so this one buffer can hold every candidate.
    candidate = np.full((n_steps, cfg.grid.n_cells), opt.resolve_init(cfg))
    try:
        best_loss, traj_cur = evaluate(candidate)
    except DivergenceError as err:
        return TrainingReport((), err.trajectory, "divergence", 1)
    best_traj = traj_cur
    losses = [best_loss]
    divergences = 0

    for _ in range(opt.n_iters):
        grad = grad_mu_global(traj_cur, exact)
        while True:
            np.multiply(lr, grad, out=candidate)
            np.subtract(traj_cur.viscosity_history, candidate, out=candidate)
            np.clip(candidate, opt.mu_min, opt.mu_max, out=candidate)
            try:
                loss_cand, traj_cur = evaluate(candidate)
                break
            except DivergenceError:
                divergences += 1
                lr *= 0.5
                if divergences > MAX_HALVINGS:
                    return TrainingReport(tuple(losses), best_traj, "no_convergence",
                                          divergences)
        losses.append(loss_cand)
        if loss_cand < best_loss:
            best_loss, best_traj = loss_cand, traj_cur

    return TrainingReport(tuple(losses), best_traj, "ok", divergences)


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
