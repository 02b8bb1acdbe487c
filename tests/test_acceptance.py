"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from advisc.adjoint import fd_gradient, grad_mu_global, loss_value
from advisc.cli import main
from advisc.diagnostics import entropy_series, mse, mu_stats
from advisc.grid import (
    InitialCondition,
    exact_solution,
    make_grid,
)
from advisc.optimizer import (
    OptimizerConfig,
    constant_mu_grid_search,
    train_global,
    train_per_step,
)
from advisc.presets import NONNEG, preset_config
from advisc.schemes import (
    CLASSICAL_MU,
    SCHEME_NAMES,
    SchemeConfig,
    amplification_factor,
    simulate,
)

from oracles import naive_upwind_step


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_adjoint_matches_fd_oracle():
    grid = make_grid(16, 1.0)
    cfg = SchemeConfig(c=1.0, dt=0.1 * grid.dx, grid=grid)
    exact = exact_solution(InitialCondition(), grid, cfg.c, np.arange(6) * cfg.dt)
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u0 = rng.uniform(-1, 1, 16)
        mu_st = rng.uniform(-5e-3, 9.5e-2, (5, 16))
        g_adj = grad_mu_global(simulate(u0, 5, cfg, mu=mu_st), exact)
        g_fd = fd_gradient(u0, mu_st, cfg, exact)
        worst = max(worst, np.max(np.abs(g_adj - g_fd)) / (1e-12 + np.max(np.abs(g_fd))))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-6 and elapsed < 5.0,
        f"adjoint vs FD on N=16, 5 steps, 20 seeds: max rel err {worst:.3e} "
        f"(< 1e-6), runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_scheme_equivalence_identities():
    grid = make_grid(100, 1.0)
    cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
    mu_up = np.full(100, CLASSICAL_MU["upwind"](cfg))
    mu_lw = np.full(100, CLASSICAL_MU["lax_wendroff"](cfg))
    assert mu_up[0] == cfg.c * grid.dx / 2 and mu_lw[0] == cfg.c**2 * cfg.dt / 2
    rng = np.random.default_rng(42)
    worst_up = worst_lw = 0.0
    for _ in range(100):
        u = rng.uniform(-1, 1, 100)
        up_ref = np.array(naive_upwind_step(list(u), cfg.cfl))
        lw_ref = simulate(u, 1, cfg, scheme="lax_wendroff").states[1]
        worst_up = max(
            worst_up,
            np.max(np.abs(simulate(u, 1, cfg, mu=mu_up).states[1] - up_ref))
            / np.max(np.abs(up_ref)),
        )
        worst_lw = max(
            worst_lw,
            np.max(np.abs(simulate(u, 1, cfg, mu=mu_lw).states[1] - lw_ref))
            / np.max(np.abs(lw_ref)),
        )
    report(
        2,
        worst_up < 1e-13 and worst_lw < 1e-13,
        f"100 random fields: upwind identity err {worst_up:.3e}, "
        f"Lax-Wendroff identity err {worst_lw:.3e} (< 1e-13)",
    )


def test_criterion_3_ftcs_instability_reproduction():
    grid = make_grid(100, 1.0)
    cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
    start = time.perf_counter()
    u0 = exact_solution(InitialCondition(kind="sine"), grid, cfg.c, 0.0)
    traj = simulate(u0, 1000, cfg, scheme="ftcs_bare")
    norms = np.linalg.norm(traj.states, axis=1)
    monotone = bool(np.all(np.diff(norms) > 0))
    j = np.arange(512)
    thetas = 2 * np.pi * j / 512
    g = np.abs(amplification_factor(thetas, cfg.cfl, 0.0))
    growing = (j != 0) & (j != 256)  # sin(theta) = 0 exactly at theta = 0, pi
    unstable = bool(np.all(g[growing] > 1.0))
    elapsed = time.perf_counter() - start
    report(
        3,
        monotone and unstable and elapsed < 1.0,
        f"bare FTCS: L2 strictly increasing over 1000 steps ({monotone}), "
        f"|G|>1 for all growing modes on 512-point sweep ({unstable}), "
        f"runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_4_paper_experiment(paper_problem, paper_training_report):
    cfg, profile, u0, _ = paper_problem
    training, elapsed = paper_training_report
    exact_final = exact_solution(profile, cfg.grid, cfg.c, 0.15)
    mse_learned = mse(training.trajectory.states[-1], exact_final)
    upwind = simulate(u0, 150, cfg, scheme="upwind")
    mse_upwind = mse(upwind.states[-1], exact_final)
    max_abs = float(np.max(np.abs(training.trajectory.states)))
    passed = (
        training.status == "ok"
        and training.divergence_events == 0
        and max_abs <= 2.0
        and mse_learned < mse_upwind
        and elapsed < 60.0
    )
    report(
        4,
        passed,
        f"paper preset: no divergence ({training.divergence_events} events), "
        f"max|u| {max_abs:.3f} (<= 2), MSE learned {mse_learned:.3e} < "
        f"upwind oracle {mse_upwind:.3e}, training {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_sign_indefiniteness(paper_problem, paper_training_report):
    cfg, profile, u0, _ = paper_problem
    training, _ = paper_training_report
    stats = mu_stats(training.trajectory, profile)
    passed = (
        stats["mu_min"] < 0.0
        and stats["mu_max"] > 0.0
        and stats["mu_min"] >= -5e-3
        and stats["mu_max"] <= 9.5e-2
        and stats["negative_mass_near_discontinuity"] > 0.5
    )
    report(
        5,
        passed,
        f"learned mu in [{stats['mu_min']:.4g}, {stats['mu_max']:.4g}] (sign-indefinite, within "
        f"[-5e-3, 9.5e-2]); negative |mu| mass within 0.05 of moving edges: "
        f"{stats['negative_mass_near_discontinuity']:.3f} (> 0.5)",
    )


def test_criterion_6_entropy_nonincrease(paper_training_report):
    training, _ = paper_training_report
    traj = training.trajectory
    entropy = entropy_series(traj.states, traj.config.grid.dx)
    per_step_delta = np.diff(entropy)
    s0 = entropy[0]
    s_final = entropy[-1]
    max_increase = float(np.max(per_step_delta, initial=0.0))
    if max_increase > 1e-6 * s0:
        print(
            f"\nwarning: largest per-step entropy increase {max_increase:.3e} "
            f"exceeds 1e-6*S0 = {1e-6 * s0:.3e} (reported, not a failure)"
        )
    report(
        6,
        s_final <= s0,
        f"entropy S(T)={s_final:.6f} <= S(0)={s0:.6f}; per-step deltas exported "
        f"({len(per_step_delta)} entries, max increase {max_increase:.3e})",
    )


def test_criterion_7_positivity_constrained_amplitude():
    base = preset_config("sine-smooth")
    scheme_cfg = base.scheme_config()
    grid = scheme_cfg.grid
    times = np.arange(base.n_steps + 1) * base.dt
    exact = exact_solution(base.ic, grid, base.c, times)
    nonneg_opt = preset_config("sine-smooth", overrides=NONNEG).training.optimizer
    signed, nonneg = train_per_step(scheme_cfg, (base.training.optimizer, nonneg_opt), exact)
    amp_signed = float(np.max(np.abs(signed.trajectory.states[-1])))
    amp_nonneg = float(np.max(np.abs(nonneg.trajectory.states[-1])))
    report(
        7,
        amp_nonneg < amp_signed,
        f"sine preset at T: max|u| nonneg-constrained {amp_nonneg:.8f} < "
        f"sign-indefinite {amp_signed:.8f}",
    )


def test_criterion_8_conservation_and_constants(paper_training_report):
    training, _ = paper_training_report
    traj = training.trajectory
    dx = traj.config.grid.dx
    mass0 = float(np.sum(traj.states[0])) * dx
    drift = max(
        abs(float(np.sum(s)) * dx - mass0) for s in traj.states
    ) / max(abs(mass0), 1e-300)
    grid = make_grid(64, 1.0)
    cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
    const = np.full(64, 3.7)
    mu = np.linspace(-0.005, 0.09, 64)
    stepped = [simulate(const, 1, cfg, scheme=scheme, mu=mu if scheme == "ftcs_mu" else None)
               .states[1] for scheme in SCHEME_NAMES]
    preserved = all(np.allclose(u, 3.7, rtol=0, atol=1e-14) for u in stepped)
    report(
        8,
        drift < 1e-12 and preserved,
        f"mass drift over 150 trained steps {drift:.3e} (< 1e-12 relative); "
        f"constant states preserved by all steppers ({preserved})",
    )


def test_criterion_9_global_beats_constant_grid_search():
    grid = make_grid(16, 1.0)
    cfg = SchemeConfig(c=1.0, dt=0.1 * grid.dx, grid=grid)
    profile = InitialCondition()
    exact = exact_solution(profile, grid, cfg.c, np.arange(21) * cfg.dt)
    best_mu, best_constant = constant_mu_grid_search(cfg, exact, -5e-3, 9.5e-2, n_samples=200)
    opt = OptimizerConfig(learning_rate=0.5, n_iters=400, mu_min=-5e-3, mu_max=9.5e-2)
    (trained,) = train_global(cfg, (opt,), exact)
    best_trained = min(trained.loss_history)
    report(
        9,
        best_trained < best_constant,
        f"N=16 toy, 20 steps: global training loss {best_trained:.6e} < best "
        f"constant-mu (mu={best_mu:.4f}) grid-search loss {best_constant:.6e}",
    )


def test_criterion_10_determinism_and_round_trip(tmp_path):
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        code = main(["train", "--preset", "paper-hat", "--out", str(out)])
        assert code == 0
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("solution.csv", "mu.csv", "loss_history.csv",
                     "entropy.csv", "final_state.csv", "mu_final.csv", "summary.json")
    )
    analyze_code = main(["analyze", str(outs[0])])
    analysis = json.loads((outs[0] / "analysis.json").read_text())
    stat_checks = [c for c in analysis["checks"] if c["name"].startswith(("stat:", "mu:"))]
    report(
        10,
        identical and analyze_code == 0 and len(stat_checks) > 0,
        f"two identical cmd_train runs byte-identical ({identical}); analyze "
        f"reproduced {len(stat_checks)} summary statistics from CSVs within 1e-12 "
        f"(exit {analyze_code})",
    )
