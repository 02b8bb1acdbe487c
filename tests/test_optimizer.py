import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from advisc.grid import (
    CellField,
    FaceViscosity,
    HatProfile,
    exact_solution,
    hat_provider,
    make_grid,
)
from advisc.optimizer import (
    OptimizerConfig,
    constant_mu_grid_search,
    project_bounds,
    regularizer_gradient,
    train_global,
    train_per_step,
)
from advisc.schemes import DivergenceError, SchemeConfig, simulate

from oracles import reference_train_per_step

PAPER_BOUNDS = (-5e-3, 9.5e-2)


def toy_problem(n=16, c=1.0):
    grid = make_grid(n, 1.0)
    cfg = SchemeConfig(c=c, dt=0.1 * grid.dx, grid=grid)
    profile = HatProfile()
    u0 = exact_solution(profile, grid, c, 0.0)
    provider = hat_provider(profile, grid, c)
    return cfg, u0, provider


class TestProjectBounds:
    def test_identity_on_feasible_set(self):
        grid = make_grid(5, 1.0)
        mu = FaceViscosity([0.0, 0.01, -0.004, 0.09, 0.05], grid)
        out = project_bounds(mu, *PAPER_BOUNDS)
        assert np.array_equal(out.values, mu.values)

    def test_upper_clamp(self):
        grid = make_grid(4, 1.0)
        mu = FaceViscosity(np.ones(4), grid)
        assert np.all(project_bounds(mu, *PAPER_BOUNDS).values == 9.5e-2)

    def test_lower_clamp(self):
        grid = make_grid(4, 1.0)
        mu = FaceViscosity(-np.ones(4), grid)
        assert np.all(project_bounds(mu, *PAPER_BOUNDS).values == -5e-3)

    def test_inverted_bounds_rejected(self):
        grid = make_grid(4, 1.0)
        mu = FaceViscosity(np.zeros(4), grid)
        with pytest.raises(ValueError):
            project_bounds(mu, 1.0, -1.0)

    @given(st.lists(st.floats(-1, 1), min_size=3, max_size=10))
    def test_idempotent(self, values):
        grid = make_grid(len(values), 1.0)
        once = project_bounds(FaceViscosity(values, grid), *PAPER_BOUNDS)
        twice = project_bounds(once, *PAPER_BOUNDS)
        assert np.array_equal(once.values, twice.values)


class TestRegularizerGradient:
    def test_zero_penalties_zero_gradient(self):
        opt = OptimizerConfig()
        mu = np.array([0.5, -0.2, 0.1])
        assert np.array_equal(regularizer_gradient(mu, opt), np.zeros(3))

    def test_constant_in_smoothness_kernel(self):
        opt = OptimizerConfig(smooth_penalty=3.0)
        mu = np.full(6, 0.04)
        assert np.array_equal(regularizer_gradient(mu, opt), np.zeros(6))

    def test_l2_gradient(self):
        opt = OptimizerConfig(l2_penalty=1.0)
        mu = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(regularizer_gradient(mu, opt), [2.0, 0.0, 0.0, 0.0])

    def test_smoothness_acts_along_faces_of_spacetime_stack(self):
        opt = OptimizerConfig(smooth_penalty=1.0)
        stack = np.zeros((2, 4))
        stack[0] = [1.0, 0.0, 0.0, 0.0]
        g = regularizer_gradient(stack, opt)
        assert np.array_equal(g[1], np.zeros(4))
        assert np.array_equal(g[0], [4.0, -2.0, 0.0, -2.0])


class TestOptimizerConfig:
    def test_init_mu_must_be_within_bounds(self):
        with pytest.raises(ValueError):
            OptimizerConfig(init_mu=1.0)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(mu_min=0.1, mu_max=0.0)

    def test_default_init_is_upwind_equivalent(self):
        cfg, _, _ = toy_problem()
        assert OptimizerConfig().resolve_init(cfg) == cfg.c * cfg.grid.dx / 2

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)


class TestTrainPerStep:
    def test_self_target_keeps_mu_at_init(self):
        cfg, u0, _ = toy_problem()
        init = OptimizerConfig().resolve_init(cfg)
        base = simulate(
            u0, 10, cfg, scheme="ftcs_mu",
            mu=FaceViscosity(np.full(16, init), cfg.grid),
        )

        def self_provider(t):
            return base.states[round(t / cfg.dt)]

        report = train_per_step(u0, 10, cfg, OptimizerConfig(n_iters=20), self_provider)
        assert all(loss == 0.0 for loss in report.loss_history)
        assert np.all(report.final_mu.values == init)

    def test_degenerate_bounds_reduce_to_constant_simulation(self):
        cfg, u0, provider = toy_problem()
        opt = OptimizerConfig(mu_min=0.005, mu_max=0.005, init_mu=0.005, n_iters=5)
        report = train_per_step(u0, 10, cfg, opt, provider)
        reference = simulate(
            u0, 10, cfg, scheme="ftcs_mu",
            mu=FaceViscosity(np.full(16, 0.005), cfg.grid),
        )
        assert np.array_equal(report.trajectory.array, reference.array)
        assert np.all(report.final_mu.values == 0.005)

    def test_iterates_respect_bounds(self):
        cfg, u0, provider = toy_problem()
        opt = OptimizerConfig(learning_rate=0.5, n_iters=50)
        report = train_per_step(u0, 20, cfg, opt, provider)
        assert np.all(report.final_mu.values >= opt.mu_min)
        assert np.all(report.final_mu.values <= opt.mu_max)

    def test_divergence_halts_and_reports(self):
        # all-negative viscosity band forces blowup within a few steps
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        profile = HatProfile()
        u0 = exact_solution(profile, grid, 1.0, 0.0)
        provider = hat_provider(profile, grid, 1.0)
        opt = OptimizerConfig(
            learning_rate=1e-12, n_iters=2, mu_min=-0.06, mu_max=-0.05, init_mu=-0.055
        )
        report = train_per_step(u0, 150, cfg, opt, provider)
        assert not report.converged
        assert report.divergence_events == 1
        assert report.trajectory.n_steps < 150
        assert len(report.loss_history) == report.trajectory.n_steps

    def test_deterministic(self):
        cfg, u0, provider = toy_problem()
        opt = OptimizerConfig(n_iters=30)
        a = train_per_step(u0, 10, cfg, opt, provider)
        b = train_per_step(u0, 10, cfg, opt, provider)
        assert np.array_equal(a.final_mu.values, b.final_mu.values)
        assert a.loss_history == b.loss_history
        assert np.array_equal(a.trajectory.array, b.trajectory.array)

    @pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
    def test_bit_identical_to_roll_reference(self, warm_start):
        cfg, u0, provider = toy_problem(n=20)  # dx = 0.05: divisions by dx round
        opt = OptimizerConfig(learning_rate=0.5, n_iters=25, l2_penalty=1e-3,
                              smooth_penalty=1e-2, init_mu=0.01, warm_start=warm_start)
        n_steps = 12
        report = train_per_step(u0, n_steps, cfg, opt, provider)
        history, states = reference_train_per_step(
            u0.values, [provider(m * cfg.dt).values for m in range(n_steps + 1)],
            cfg.c, cfg.dt, cfg.grid.dx, opt.learning_rate, opt.n_iters, opt.mu_min,
            opt.mu_max, opt.l2_penalty, opt.smooth_penalty, opt.init_mu, warm_start,
        )
        assert np.array_equal(report.final_mu.values, history)
        assert np.array_equal(report.trajectory.array, states)
        # the projection is active on some faces and the penalties shape the rest
        assert np.any(history == opt.mu_min) or np.any(history == opt.mu_max)
        assert np.any((history > opt.mu_min) & (history < opt.mu_max) & (history != 0.01))

    def test_overflow_inside_inner_loop_raises_divergence(self):
        grid = make_grid(16, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        profile = HatProfile(amplitude=1e308)
        u0 = exact_solution(profile, grid, 1.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                train_per_step(u0, 3, cfg, OptimizerConfig(n_iters=2),
                               hat_provider(profile, grid, 1.0))

    def test_cold_start_differs_from_warm_start(self):
        cfg, u0, provider = toy_problem()
        warm = train_per_step(u0, 15, cfg, OptimizerConfig(n_iters=10), provider)
        cold = train_per_step(
            u0, 15, cfg, OptimizerConfig(n_iters=10, warm_start=False), provider
        )
        assert not np.array_equal(warm.final_mu.values, cold.final_mu.values)


class TestTrainGlobal:
    def test_single_step_agrees_with_per_step(self):
        cfg, u0, provider = toy_problem()
        opt = OptimizerConfig(n_iters=40)
        per = train_per_step(u0, 1, cfg, opt, provider)
        glob = train_global(u0, 1, cfg, opt, provider)
        assert np.allclose(per.final_mu.values, glob.final_mu.values, rtol=1e-12, atol=1e-15)
        assert per.loss_history[-1] == pytest.approx(glob.loss_history[-1], rel=1e-12)

    def test_no_dynamics_keeps_mu_fixed(self):
        # c = 0 and constant initial data: any mu gives zero loss, zero gradient
        grid = make_grid(16, 1.0)
        cfg = SchemeConfig(c=0.0, dt=1e-3, grid=grid)
        u0 = CellField(np.full(16, 0.7), grid)

        def provider(t):
            return CellField(np.full(16, 0.7), grid)

        report = train_global(u0, 5, cfg, OptimizerConfig(n_iters=10, init_mu=0.02), provider)
        assert set(report.loss_history) == {0.0}
        assert np.all(report.final_mu.values == 0.02)

    def test_degenerate_bounds_constant_history(self):
        cfg, u0, provider = toy_problem()
        opt = OptimizerConfig(mu_min=0.005, mu_max=0.005, init_mu=0.005, n_iters=5)
        report = train_global(u0, 10, cfg, opt, provider)
        assert len(set(report.loss_history)) == 1

    def test_beats_constant_viscosity_grid_search(self):
        cfg, u0, provider = toy_problem()
        _, best_constant = constant_mu_grid_search(
            u0, 10, cfg, provider, *PAPER_BOUNDS, n_samples=50
        )
        report = train_global(u0, 10, cfg, OptimizerConfig(learning_rate=0.5, n_iters=150), provider)
        assert min(report.loss_history) < best_constant

    def test_best_iterate_monotone(self):
        cfg, u0, provider = toy_problem()
        report = train_global(u0, 10, cfg, OptimizerConfig(learning_rate=0.5, n_iters=60), provider)
        best = np.minimum.accumulate(report.loss_history)
        assert np.all(np.diff(best) <= 0)
        assert min(report.loss_history) == best[-1]

    def test_divergent_iterates_recovered_by_halving(self):
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        profile = HatProfile()
        u0 = exact_solution(profile, grid, 1.0, 0.0)
        provider = hat_provider(profile, grid, 1.0)
        opt = OptimizerConfig(learning_rate=20.0, n_iters=2, mu_min=-0.06, mu_max=9.5e-2)
        report = train_global(u0, 60, cfg, opt, provider)
        assert report.divergence_events > 0
        assert report.converged
        # report carries the best iterate seen, which stays feasible
        assert np.all(report.final_mu.values >= -0.06)
        assert np.all(report.final_mu.values <= 9.5e-2)
        from advisc.adjoint import loss_value

        replayed = simulate(u0, 60, cfg, scheme="ftcs_mu", mu=report.final_mu)
        assert loss_value(replayed, provider) == min(report.loss_history)

    def test_exhausted_halvings_yield_failure_report(self):
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        profile = HatProfile()
        u0 = exact_solution(profile, grid, 1.0, 0.0)
        provider = hat_provider(profile, grid, 1.0)
        opt = OptimizerConfig(learning_rate=1e7, n_iters=3, mu_min=-0.06, mu_max=9.5e-2)
        report = train_global(u0, 100, cfg, opt, provider, max_halvings=2)
        assert not report.converged
        assert report.divergence_events == 3
        # best iterate (the initial one) is still returned with its trajectory
        assert report.trajectory.n_steps == 100
