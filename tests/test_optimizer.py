from dataclasses import replace

import numpy as np
import pytest

from advisc.adjoint import loss_value
from advisc.diagnostics import mse
from advisc.grid import InitialCondition, exact_solution, make_grid
from advisc.optimizer import (
    OptimizerConfig,
    _descend,
    constant_mu_grid_search,
    train_global,
    train_per_step,
)
from advisc.presets import NONNEG, preset_config
from advisc.schemes import SchemeConfig, simulate

from oracles import reference_train_global, reference_train_per_step

PAPER_BOUNDS = (-5e-3, 9.5e-2)


def hat_problem(cfg, steps, profile=InitialCondition()):
    """Initial state and exact states at times 0, dt, .., steps*dt of a hat."""
    exact = exact_solution(profile, cfg.grid, cfg.c, np.arange(steps + 1) * cfg.dt)
    return exact[0], exact


def toy_problem(n=16, c=1.0, steps=10):
    grid = make_grid(n, 1.0)
    cfg = SchemeConfig(c=c, dt=0.1 * grid.dx, grid=grid)
    u0, exact = hat_problem(cfg, steps)
    return cfg, u0, exact


class TestOptimizerConfig:
    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(mu_min=0.1, mu_max=0.0)

    def test_default_init_is_upwind_equivalent(self):
        for c in (1.0, -1.0):  # |c|*dx/2: a negative start is anti-diffusive
            cfg, _, _ = toy_problem(c=c)
            assert OptimizerConfig().resolve_init(cfg) == cfg.grid.dx / 2

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)


class TestMirrorSymmetry:
    @pytest.mark.parametrize("trainer", ["per_step", "global"])
    def test_negative_speed_trains_the_exact_mirror_image(self, trainer):
        # The paper hat on (0.4, 0.6) is symmetric about the domain's middle, so
        # advecting it at c = -1 is the mirror image of c = +1: cell i maps to
        # cell N-1-i and face i+1/2 to face N-2-i.
        runs = []
        for c in (1.0, -1.0):
            cfg = SchemeConfig(c=c, dt=1e-3, grid=make_grid(100, 1.0))
            _, exact = hat_problem(cfg, 150)
            if trainer == "per_step":
                (report,) = train_per_step(cfg, (OptimizerConfig(),), exact)
            else:
                opt = OptimizerConfig(learning_rate=1.0, n_iters=20)
                (report,) = train_global(cfg, (opt,), exact)
            runs.append(report.trajectory)
        right, left = runs
        assert np.array_equal(left.states, right.states[:, ::-1])
        assert np.array_equal(left.viscosity_history,
                              np.roll(right.viscosity_history[:, ::-1], -1, axis=-1))


class TestTrainPerStep:
    def test_self_target_keeps_mu_at_init(self):
        cfg, u0, _ = toy_problem()
        init = OptimizerConfig().resolve_init(cfg)
        base = simulate(u0, 10, cfg, scheme="ftcs_mu", mu=np.full(16, init))
        (report,) = train_per_step(cfg, (OptimizerConfig(n_iters=20),), base.states)
        assert all(loss == 0.0 for loss in report.loss_history)
        assert np.all(report.trajectory.viscosity_history == init)

    def test_degenerate_bounds_reduce_to_constant_simulation(self):
        cfg, u0, exact = toy_problem()
        opt = OptimizerConfig(mu_min=0.005, mu_max=0.005, n_iters=5)
        (report,) = train_per_step(cfg, (opt,), exact)
        reference = simulate(u0, 10, cfg, scheme="ftcs_mu", mu=np.full(16, 0.005))
        assert np.array_equal(report.trajectory.states, reference.states)
        assert np.all(report.trajectory.viscosity_history == 0.005)

    def test_iterates_respect_bounds(self):
        cfg, _, exact = toy_problem(steps=20)
        opt = OptimizerConfig(learning_rate=0.5, n_iters=50)
        (report,) = train_per_step(cfg, (opt,), exact)
        assert np.all(report.trajectory.viscosity_history >= opt.mu_min)
        assert np.all(report.trajectory.viscosity_history <= opt.mu_max)

    def test_divergence_halts_and_reports(self):
        # all-negative viscosity band forces blowup within a few steps
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        _, exact = hat_problem(cfg, 150)
        opt = OptimizerConfig(learning_rate=1e-12, n_iters=2, mu_min=-0.06, mu_max=-0.05)
        (report,) = train_per_step(cfg, (opt,), exact)
        assert report.status == "divergence"
        assert report.divergence_events == 1
        assert report.trajectory.n_steps < 150
        assert len(report.loss_history) == report.trajectory.n_steps

    def test_deterministic(self):
        cfg, _, exact = toy_problem()
        opt = OptimizerConfig(n_iters=30)
        (a,) = train_per_step(cfg, (opt,), exact)
        (b,) = train_per_step(cfg, (opt,), exact)
        assert np.array_equal(a.trajectory.viscosity_history,
                              b.trajectory.viscosity_history)
        assert a.loss_history == b.loss_history
        assert np.array_equal(a.trajectory.states, b.trajectory.states)

    def test_bit_identical_to_roll_reference(self):
        cfg, _, exact = toy_problem(n=20, steps=12)  # dx = 0.05: divisions by dx round
        opt = OptimizerConfig(learning_rate=0.5, n_iters=25)
        init = cfg.c * cfg.grid.dx / 2  # inside the default bounds
        (report,) = train_per_step(cfg, (opt,), exact)
        history, states = reference_train_per_step(
            exact[0], exact,
            cfg.c, cfg.dt, cfg.grid.dx, opt.learning_rate, opt.n_iters, opt.mu_min,
            opt.mu_max, init,
        )
        assert np.array_equal(report.trajectory.viscosity_history, history)
        assert np.array_equal(report.trajectory.states, states)
        assert report.loss_history == tuple(mse(u, e) for u, e in zip(states[1:], exact[1:]))
        # the projection is active on some faces and the gradient moves the rest
        assert np.any(history == opt.mu_min) or np.any(history == opt.mu_max)
        assert np.any((history > opt.mu_min) & (history < opt.mu_max) & (history != init))


def preset_pair(name, t_final):
    """Scheme config, exact states and the signed/non-negative optimizer pair of a preset."""
    cfg = replace(preset_config(name), t_final=t_final)
    nonneg = preset_config(name, overrides=NONNEG).training.optimizer
    scheme_cfg = cfg.scheme_config()
    exact = exact_solution(cfg.ic, scheme_cfg.grid, cfg.c, np.arange(cfg.n_steps + 1) * cfg.dt)
    return scheme_cfg, exact, (cfg.training.optimizer, nonneg)


def assert_same_report(batched, alone):
    assert np.array_equal(batched.trajectory.states, alone.trajectory.states)
    assert np.array_equal(batched.trajectory.viscosity_history,
                          alone.trajectory.viscosity_history)
    assert batched.loss_history == alone.loss_history
    assert (batched.status, batched.divergence_events) == \
        (alone.status, alone.divergence_events)


def trained_alone(trainer, cfg, opt, exact):
    (report,) = trainer(cfg, (opt,), exact)
    return report


@pytest.mark.parametrize("trainer", [train_per_step, train_global], ids=["per_step", "global"])
@pytest.mark.parametrize("case", ["guard", "overflow"])
def test_run_diverging_on_first_step_reports_its_initial_state(trainer, case):
    # The first step of the per-step trainer, or the initial sweep of the
    # global one, diverges; the run is reported with status "divergence", no
    # losses and the initial state alone, next to its partner's own report.
    cfg, _, _ = toy_problem()
    if case == "guard":  # a viscosity of -1e8 amplifies the hat's jumps past the guard at once
        profile, doomed = InitialCondition(), OptimizerConfig(n_iters=3, mu_min=-1e8, mu_max=-1e8)
    else:  # 1e308 overflows inside the first step
        profile, doomed = InitialCondition(amplitude=1e308), OptimizerConfig(n_iters=3)
    u0, exact = hat_problem(cfg, 10, profile)
    partner = OptimizerConfig(n_iters=3)
    with np.errstate(over="ignore", invalid="ignore"):
        report, other = trainer(cfg, (doomed, partner), exact)
        assert_same_report(report, trained_alone(trainer, cfg, doomed, exact))
        assert_same_report(other, trained_alone(trainer, cfg, partner, exact))
    assert report.status == "divergence" and report.divergence_events == 1
    assert report.loss_history == ()
    assert np.array_equal(report.trajectory.states, u0[None])
    assert report.trajectory.viscosity_history.shape == (0, 16)
    assert other.status == ("ok" if case == "guard" else "divergence")


class TestBatchedPerStep:
    @pytest.mark.parametrize("preset", ["paper-hat", "sine-smooth"])
    def test_pair_matches_separate_runs_bit_for_bit(self, preset):
        cfg, exact, pair = preset_pair(preset, t_final=0.02)
        batched = train_per_step(cfg, pair, exact)
        assert len(batched) == 2
        for report, opt in zip(batched, pair):
            assert_same_report(report, trained_alone(train_per_step, cfg, opt, exact))
        # the pair differs, so each row really trained with its own bounds
        assert not np.array_equal(batched[0].trajectory.viscosity_history,
                                  batched[1].trajectory.viscosity_history)

    def test_three_configs_match_separate_runs_bit_for_bit(self):
        # The batch is the contiguous axis of the inner loop's buffers; three runs
        # with distinct rates and bounds, one of them pinned to a single value.
        cfg, _, exact = toy_problem(n=20, steps=12)  # dx = 0.05: divisions by dx round
        batch = (OptimizerConfig(learning_rate=0.5, n_iters=25),
                 OptimizerConfig(learning_rate=2.0, n_iters=25, mu_min=0.0, mu_max=0.02),
                 OptimizerConfig(learning_rate=1.0, n_iters=25, mu_min=0.01, mu_max=0.01))
        batched = train_per_step(cfg, batch, exact)
        assert len(batched) == 3
        for report, opt in zip(batched, batch):
            assert_same_report(report, trained_alone(train_per_step, cfg, opt, exact))
        opt = batch[1]
        history, states = reference_train_per_step(
            exact[0], exact, cfg.c, cfg.dt, cfg.grid.dx, opt.learning_rate, opt.n_iters,
            opt.mu_min, opt.mu_max, opt.resolve_init(cfg),
        )
        assert np.array_equal(batched[1].trajectory.viscosity_history, history)
        assert np.array_equal(batched[1].trajectory.states, states)
        assert np.all(batched[2].trajectory.viscosity_history == 0.01)
        assert not np.array_equal(batched[0].trajectory.viscosity_history, history)

    def test_diverging_row_halts_while_partner_completes(self):
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        _, exact = hat_problem(cfg, 60)
        stable = OptimizerConfig(learning_rate=1e-12, n_iters=2)
        unstable = OptimizerConfig(learning_rate=1e-12, n_iters=2, mu_min=-0.06, mu_max=-0.05)
        diverging, completing = train_per_step(cfg, (unstable, stable), exact)
        assert diverging.status == "divergence" and diverging.divergence_events == 1
        assert 0 < diverging.trajectory.n_steps < 60
        assert completing.status == "ok" and completing.trajectory.n_steps == 60
        assert_same_report(diverging, trained_alone(train_per_step, cfg, unstable, exact))
        assert_same_report(completing, trained_alone(train_per_step, cfg, stable, exact))

    def test_configs_with_different_n_iters_rejected(self):
        cfg, _, exact = toy_problem()
        with pytest.raises(ValueError, match="n_iters"):
            train_per_step(cfg, (OptimizerConfig(n_iters=3), OptimizerConfig(n_iters=4)), exact)

    def test_empty_batch_rejected(self):
        cfg, _, exact = toy_problem()
        with pytest.raises(ValueError):
            train_per_step(cfg, (), exact)


class TestStepSizeCap:
    """Each step's rate is capped at 1/L, L = (8/N)*max K^2 bounding the
    one-step Hessian's largest eigenvalue, K = (dt/dx^2)*(u_{i+1} - u_i)."""

    @pytest.mark.parametrize("name, overrides", [
        ("sine-smooth", {"initial_condition": {"wavenumber": 3}}),
        ("sine-smooth", {"initial_condition": {"wavenumber": 5}}),
        ("paper-hat", {"training": {"learning_rate": 1.0}}),
    ], ids=["sine-k3", "sine-k5", "hat-lr1"])
    def test_runs_whose_rate_exceeds_the_cap_complete(self, name, overrides):
        # Uncapped, these diverge at steps 18, 85 and 93 of 150.
        cfg = preset_config(name, overrides=overrides)
        scheme_cfg = cfg.scheme_config()
        exact = exact_solution(cfg.ic, scheme_cfg.grid, cfg.c,
                               np.arange(cfg.n_steps + 1) * cfg.dt)
        (report,) = train_per_step(scheme_cfg, (cfg.training.optimizer,), exact)
        assert (report.status, report.divergence_events) == ("ok", 0)
        assert report.trajectory.n_steps == cfg.n_steps == 150
        lax_wendroff = simulate(exact[0], 150, scheme_cfg, scheme="lax_wendroff")
        assert (mse(report.trajectory.states[-1], exact[-1])
                < 0.2 * mse(lax_wendroff.states[-1], exact[-1]))

    def test_one_step_loss_never_rises_at_the_capped_rate(self):
        rng = np.random.default_rng(33)
        cfg, _, _ = toy_problem(n=16)
        u = rng.uniform(-1, 1, (16, 4))
        u[:, 0] = 0.3  # no jumps: no gradient, and no cap to divide out
        # targets the step reaches at another viscosity, but for column 0's
        target = np.stack([rng.uniform(-1, 1, 16)] + [
            simulate(u[:, j], 1, cfg, mu=rng.uniform(-0.05, 0.05, 16)).states[1]
            for j in (1, 2, 3)], axis=1)
        mu = rng.uniform(-0.05, 0.05, (16, 4))
        lr = np.full((16, 4), 1e6)  # far above 1/L, so the cap sets every rate
        lo, hi = np.full((16, 4), -0.1), np.full((16, 4), 0.1)
        losses = [np.mean((_descend(u, target, mu, lr, lo, hi, cfg, 1) - target) ** 2, axis=0)
                  for _ in range(60)]
        assert np.all(np.diff(losses, axis=0) <= 0)
        assert np.all(losses[-1][1:] < 0.1 * losses[0][1:])
        assert losses[-1][0] == losses[0][0]
        assert np.all(lr == 1e6)


class TestExactTargets:
    @pytest.mark.parametrize("trainer", ["per_step", "global", "grid_search"])
    def test_rejects_exact_without_a_step_or_of_another_width(self, trainer):
        cfg, _, exact = toy_problem()
        run = {
            "per_step": lambda e: train_per_step(cfg, (OptimizerConfig(n_iters=2),), e),
            "global": lambda e: train_global(cfg, (OptimizerConfig(n_iters=2),), e),
            "grid_search": lambda e: constant_mu_grid_search(cfg, e, *PAPER_BOUNDS),
        }[trainer]
        for wrong in (exact[:1], exact[:, :-1], exact[0]):
            with pytest.raises(ValueError, match="shape"):
                run(wrong)


class TestTrainGlobal:
    @pytest.mark.parametrize("second", [
        OptimizerConfig(learning_rate=2.0, n_iters=10, mu_min=0.0, mu_max=0.02),
        # -1e8 amplifies the hat's jumps past the guard in the initial sweep
        OptimizerConfig(n_iters=10, mu_min=-1e8, mu_max=-1e8),
    ], ids=["both_complete", "second_diverges"])
    def test_pair_matches_separate_runs_bit_for_bit(self, second):
        cfg, _, exact = toy_problem()
        pair = (OptimizerConfig(learning_rate=0.5, n_iters=25), second)
        reports = train_global(cfg, pair, exact)
        assert len(reports) == 2
        for report, opt in zip(reports, pair):
            assert_same_report(report, trained_alone(train_global, cfg, opt, exact))
        assert reports[0].status == "ok" and len(reports[0].loss_history) == 26
        assert reports[1].status == ("ok" if second.mu_min == 0.0 else "divergence")

    def test_single_step_agrees_with_per_step(self):
        cfg, _, exact = toy_problem(steps=1)
        opt = OptimizerConfig(n_iters=40)
        (per,) = train_per_step(cfg, (opt,), exact)
        (glob,) = train_global(cfg, (opt,), exact)
        assert np.allclose(per.trajectory.viscosity_history,
                           glob.trajectory.viscosity_history, rtol=1e-12, atol=1e-15)
        assert per.loss_history[-1] == pytest.approx(glob.loss_history[-1], rel=1e-12)

    def test_no_dynamics_keeps_mu_fixed(self):
        # c = 0 and constant initial data: any mu gives zero loss, zero gradient
        grid = make_grid(16, 1.0)
        cfg = SchemeConfig(c=0.0, dt=1e-3, grid=grid)
        exact = np.full((6, 16), 0.7)
        # c = 0 starts mu at 0 clipped into the bounds, here mu_min
        (report,) = train_global(cfg, (OptimizerConfig(n_iters=10, mu_min=0.02),), exact)
        assert set(report.loss_history) == {0.0}
        assert np.all(report.trajectory.viscosity_history == 0.02)

    def test_degenerate_bounds_constant_history(self):
        cfg, _, exact = toy_problem()
        opt = OptimizerConfig(mu_min=0.005, mu_max=0.005, n_iters=5)
        (report,) = train_global(cfg, (opt,), exact)
        assert len(set(report.loss_history)) == 1

    def test_beats_constant_viscosity_grid_search(self):
        cfg, _, exact = toy_problem()
        _, best_constant = constant_mu_grid_search(cfg, exact, *PAPER_BOUNDS, n_samples=50
        )
        (report,) = train_global(cfg, (OptimizerConfig(learning_rate=0.5, n_iters=150),), exact)
        assert min(report.loss_history) < best_constant

    @pytest.mark.parametrize("case", ["bound_binds", "candidate_rejected",
                                      "best_second_to_last", "best_first_step"])
    def test_matches_roll_oracle_bit_for_bit(self, monkeypatch, case):
        import advisc.optimizer

        sweeps = []

        def counting_simulate(*args, **kwargs):
            sweeps.append(1)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(advisc.optimizer, "simulate", counting_simulate)
        if case == "candidate_rejected":
            cfg = SchemeConfig(c=1.0, dt=1e-3, grid=make_grid(100, 1.0))
            _, exact = hat_problem(cfg, 60)
            opt = OptimizerConfig(learning_rate=20.0, n_iters=2, mu_min=-0.06, mu_max=9.5e-2)
        else:
            # At the two larger learning rates the projection onto the bounds
            # makes the iterates oscillate, so the lowest loss is not the last.
            cfg, _, exact = toy_problem()
            opt = OptimizerConfig(learning_rate={"bound_binds": 0.5, "best_second_to_last": 5.0,
                                                 "best_first_step": 500.0}[case],
                                  n_iters=25 if case == "bound_binds" else 10)
        (report,) = train_global(cfg, (opt,), exact)
        losses, mu, states, rejected = reference_train_global(
            exact[0], exact, cfg.c, cfg.dt, cfg.grid.dx, opt.learning_rate, opt.n_iters,
            opt.mu_min, opt.mu_max, opt.resolve_init(cfg),
        )
        assert report.loss_history == tuple(losses)
        assert np.array_equal(report.trajectory.viscosity_history, mu)
        assert np.array_equal(report.trajectory.states, states)
        assert report.divergence_events == rejected
        best = losses.index(min(losses))
        # The initial sweep, one per candidate, and one more when the best
        # iterate is not the last, to rebuild its dropped states.
        assert len(sweeps) == 1 + opt.n_iters + rejected + (best != opt.n_iters)
        if case == "bound_binds":
            assert rejected == 0
            assert np.any(mu == opt.mu_min) and np.any(mu == opt.mu_max)
        elif case == "candidate_rejected":
            assert rejected > 0
        else:
            assert rejected == 0
            assert best == {"best_second_to_last": 9, "best_first_step": 1}[case]
            assert len(sweeps) == opt.n_iters + 2

    def test_one_forward_sweep_per_iteration(self, monkeypatch):
        import advisc.optimizer

        sweeps = []

        def counting_simulate(*args, **kwargs):
            sweeps.append(1)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(advisc.optimizer, "simulate", counting_simulate)
        cfg, _, exact = toy_problem()
        (report,) = train_global(cfg, (OptimizerConfig(n_iters=7),), exact)
        assert report.divergence_events == 0
        assert len(report.loss_history) == 8
        # the initial sweep, then one candidate sweep per iteration
        assert len(sweeps) == 7 + 1

    def test_best_iterate_monotone(self):
        cfg, _, exact = toy_problem()
        (report,) = train_global(cfg, (OptimizerConfig(learning_rate=0.5, n_iters=60),), exact)
        best = np.minimum.accumulate(report.loss_history)
        assert np.all(np.diff(best) <= 0)
        assert min(report.loss_history) == best[-1]

    def test_divergent_iterates_recovered_by_halving(self):
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        u0, exact = hat_problem(cfg, 60)
        opt = OptimizerConfig(learning_rate=20.0, n_iters=2, mu_min=-0.06, mu_max=9.5e-2)
        (report,) = train_global(cfg, (opt,), exact)
        assert report.divergence_events > 0
        assert report.status == "ok"
        # report carries the best iterate seen, which stays feasible
        assert np.all(report.trajectory.viscosity_history >= -0.06)
        assert np.all(report.trajectory.viscosity_history <= 9.5e-2)
        from advisc.adjoint import loss_value

        replayed = simulate(u0, 60, cfg, scheme="ftcs_mu",
                            mu=report.trajectory.viscosity_history)
        assert loss_value(replayed, exact) == min(report.loss_history)

    def test_exhausted_halvings_yield_failure_report(self, monkeypatch):
        import advisc.optimizer
        from advisc.adjoint import loss_value

        monkeypatch.setattr(advisc.optimizer, "MAX_HALVINGS", 2)
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        u0, exact = hat_problem(cfg, 100)
        # The best iterate is the initial one: at 1e7 the first iteration
        # halts, so it is the current iterate; at 5 a worse iterate is
        # accepted first. A halted run has dropped the current iterate's
        # states, so either way the report is a fresh sweep of the best
        # viscosity.
        for learning_rate, n_accepted in ((1e7, 1), (5.0, 2)):
            opt = OptimizerConfig(learning_rate=learning_rate, n_iters=3, mu_min=-0.06,
                                  mu_max=9.5e-2)
            (report,) = train_global(cfg, (opt,), exact)
            assert report.status == "no_convergence"
            assert report.divergence_events == 3
            assert len(report.loss_history) == n_accepted
            assert min(report.loss_history) == report.loss_history[0]
            assert report.trajectory.n_steps == 100
            fresh = simulate(u0, 100, cfg, mu=report.trajectory.viscosity_history)
            assert np.array_equal(report.trajectory.states, fresh.states)
            assert loss_value(report.trajectory, exact) == min(report.loss_history)


class TestConstantMuGridSearch:
    """The paper's problem: N = 100, CFL 0.1, 150 steps. Over mu in
    [-0.05, 0.05] every negative candidate diverges."""

    @staticmethod
    def paper_problem():
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=0.1 * grid.dx, grid=grid)
        return cfg, hat_problem(cfg, 150)[1]

    def test_diverging_candidates_are_skipped(self):
        cfg, exact = self.paper_problem()
        candidates = np.linspace(-0.05, 0.05, 11)
        diverged = sum(simulate(exact[0], 150, cfg, mu=mu_c).n_steps < 150
                       for mu_c in candidates)
        assert diverged == 5
        best_mu, best_loss = constant_mu_grid_search(cfg, exact, -0.05, 0.05, n_samples=11)
        assert best_mu == candidates[6]  # 0.01
        assert best_loss == loss_value(simulate(exact[0], 150, cfg, mu=best_mu), exact)

    def test_every_candidate_diverging_gives_nan_and_inf(self):
        cfg, exact = self.paper_problem()
        best_mu, best_loss = constant_mu_grid_search(cfg, exact, -0.05, -0.01, n_samples=5)
        assert np.isnan(best_mu) and best_loss == np.inf
