"""Projected gradient descent over the viscosity field.

Two training modes: per-step greedy optimization of the instantaneous error
while the numerical state marches forward, and global optimization of the
full space-time field against the whole-horizon loss. Both are plain
gradient descent on the unpenalized loss, projected onto box constraints.

Both trainers take a tuple of optimizer configs on one problem and return
one ``TrainingReport`` per config, whose ``status`` says how the run ended.
A run that diverges is reported, never raised, as ``simulate`` reports it:
its trajectory stops at its last state within the magnitude guard, short of
the horizon. The per-step trainer trains its configs together: each step
loads its states into the one FTCS binder, ``schemes._row_stepper``, once,
and the inner iterations step them at each new mu, running only in-place
ufuncs over cells-major (N, batch) C-order buffers, whose shifted views are
contiguous. The global trainer trains its configs one after another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import grad_mu_global, loss_value
from .diagnostics import step_losses
from .schemes import (
    CLASSICAL_MU,
    SchemeConfig,
    Trajectory,
    _diverged,
    _guard_bound,
    _row_stepper,
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

    then sets mu <- clip(mu - lr*g, lo, hi). ``schemes._row_stepper`` loads u
    once per call, forming the mu-independent face terms and D = u_{i+1} - u_i,
    and K = (dt/dx^2)*D; the loop steps the loaded state and runs ufuncs into
    preallocated buffers, with 2/N as a 0-d array and the outputs passed
    positionally.

    The one-step loss has the Hessian (2/N)*B^T*B, B = (I - S^-1)*diag(K) for
    the periodic shift S, whose largest eigenvalue is at most
    L = (8/N)*max K^2. Each column's rate is capped at 1/L, so the descent
    cannot overshoot however large its jumps are; a column whose jumps are all
    zero has no gradient and keeps its rate. The caller's ``lr`` is not changed.
    """
    n, b = u.shape
    two_n = np.array(2.0 / n)
    t, res = np.empty((n, b)), np.empty((n + 1, b))
    load, ftcs_step = _row_stepper(cfg, (b,))
    k = (cfg.dt / cfg.grid.dx**2) * load(u)
    peak = np.max(k * k, axis=0)
    lr = np.minimum(lr, np.divide(n, 8 * peak, out=np.full(b, np.inf), where=peak > 0))
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
    previous step's optimum. A run's loss history is the ``step_losses`` of
    the states it stored, taken once its steps are done.

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
    n_done = np.zeros(len(opts), dtype=int)  # the steps each run has completed
    rows = np.arange(len(opts))  # the runs still training, one per column of mu

    for step in range(n_steps):
        u = states[rows, step].T.copy()
        u_next = _descend(u, np.repeat(exact[step + 1][:, None], rows.size, axis=1),
                          mu, lr, lo, hi, cfg, n_iters).T
        going = [j for j in range(len(rows)) if not _diverged(u_next[j], bound)]
        n_done[rows[going]] = step + 1
        states[rows[going], step + 1] = u_next[going]
        mu_rows[rows[going], step] = mu.T[going]
        if len(going) < len(rows):
            rows = rows[going]
            if rows.size == 0:
                break
            mu, lr, lo, hi = (x[:, going].copy() for x in (mu, lr, lo, hi))

    reports = []
    for b, done in enumerate(n_done.tolist()):
        halted = done < n_steps
        reports.append(TrainingReport(
            loss_history=tuple(step_losses(states[b, :done + 1], exact[:done + 1]).tolist()),
            trajectory=Trajectory(states[b, :done + 1], cfg, mu_rows[b, :done]),
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
    candidate. A sweep diverged when its trajectory is shorter than the
    horizon. A candidate whose sweep diverged is rejected and retried at half
    the step size (the reduction persists); once more than MAX_HALVINGS
    candidates have diverged, training halts with status "no_convergence". An
    initial sweep that diverged ends the run with status "divergence" and its
    partial trajectory.

    Reports the best (lowest-loss) iterate seen, with its trajectory. An
    accepted iterate's states are dropped once its gradient is taken, so a
    candidate's sweep runs beside only that iterate's viscosity and gradient.
    The best iterate is kept by reference to its trajectory's viscosity, so
    it costs no copy, and one more array only while it is not the current
    iterate. When the best is the last accepted iterate, the report carries
    that iterate's sweep. Otherwise, and whenever training halts with
    "no_convergence", one more ``simulate`` of the best viscosity rebuilds its
    trajectory at the end; the sweep is deterministic, so that is the
    trajectory the iterate had, bit for bit.
    """
    n_steps = _horizon(exact, cfg)
    lr = opt.learning_rate
    candidate = np.full((n_steps, cfg.grid.n_cells), opt.resolve_init(cfg))
    traj = simulate(exact[0], n_steps, cfg, mu=candidate)
    if traj.n_steps < n_steps:
        return TrainingReport((), traj, "divergence", 1)
    losses = [loss_value(traj, exact)]
    best_loss, best_mu = losses[0], traj.viscosity_history
    divergences = 0

    for _ in range(opt.n_iters):
        grad = grad_mu_global(traj, exact)
        mu, traj = traj.viscosity_history, None
        while traj is None and divergences <= MAX_HALVINGS:
            np.multiply(lr, grad, out=candidate)
            np.subtract(mu, candidate, out=candidate)
            np.clip(candidate, opt.mu_min, opt.mu_max, out=candidate)
            traj = simulate(exact[0], n_steps, cfg, mu=candidate)
            if traj.n_steps < n_steps:
                traj = None
                divergences += 1
                lr *= 0.5
        if traj is None:
            break
        del grad  # the next gradient is not formed beside this one
        losses.append(loss_value(traj, exact))
        if losses[-1] < best_loss:
            best_loss, best_mu = losses[-1], traj.viscosity_history

    halted = traj is None  # then the states of every accepted iterate were dropped
    if halted or traj.viscosity_history is not best_mu:
        traj = grad = candidate = mu = None  # re-sweep beside the best viscosity alone
        traj = simulate(exact[0], n_steps, cfg, mu=best_mu)
    return TrainingReport(tuple(losses), traj, "no_convergence" if halted else "ok",
                          divergences)


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
        traj = simulate(exact[0], n_steps, cfg, mu=mu_c)
        if traj.n_steps < n_steps:
            continue
        loss = loss_value(traj, exact)
        if loss < best_loss:
            best_mu, best_loss = float(mu_c), loss
    return best_mu, best_loss
