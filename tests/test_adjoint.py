import numpy as np
import pytest

from advisc.adjoint import (
    LossSpec,
    fd_gradient,
    grad_mu_global,
    grad_mu_instantaneous,
    loss_value,
    step_transpose_apply,
)
from advisc.grid import (
    CellField,
    FaceViscosity,
    HatProfile,
    SpaceTimeViscosity,
    hat_provider,
    make_grid,
)
from advisc.schemes import SchemeConfig, ftcs_step, simulate

from oracles import naive_global_loss, naive_hat, naive_upwind_states

# Mean global loss of the first-order upwind scheme on the reference problem
# (N=100, c=1, dt=1e-3, hat IC, 150 steps), computed once with the pure-Python
# oracle in oracles.py and frozen as a regression constant.
UPWIND_GLOBAL_LOSS = 0.011542485625211167


def toy_problem(n=16, steps=5, seed=0):
    grid = make_grid(n, 1.0)
    cfg = SchemeConfig(c=1.0, dt=0.1 * grid.dx, grid=grid)
    rng = np.random.default_rng(seed)
    u0 = CellField(rng.uniform(-1, 1, n), grid)
    mu_st = SpaceTimeViscosity(rng.uniform(-5e-3, 9.5e-2, (steps, n)), grid)
    provider = hat_provider(HatProfile(), grid, cfg.c)
    return cfg, u0, mu_st, provider


def fd_relative_error(grad_adj, grad_fd):
    return np.max(np.abs(grad_adj - grad_fd)) / (1e-12 + np.max(np.abs(grad_fd)))


class TestLossValue:
    def test_zero_when_trajectory_matches_exact(self):
        grid = make_grid(20, 1.0)
        cfg = SchemeConfig(c=1.0, dt=grid.dx, grid=grid)  # cfl 1: nothing special
        provider = hat_provider(HatProfile(), grid, cfg.c)
        states = tuple(provider(n * cfg.dt) for n in range(4))
        from advisc.schemes import Trajectory

        traj = Trajectory(states=states, config=cfg)
        assert loss_value(traj, provider) == 0.0
        assert loss_value(traj, provider, LossSpec(mode="instantaneous")) == 0.0

    def test_uniform_offset_instantaneous(self):
        grid = make_grid(10, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        provider = hat_provider(HatProfile(), grid, cfg.c)
        eps = 0.003
        from advisc.schemes import Trajectory

        u1 = CellField(provider(cfg.dt).values + eps, grid)
        traj = Trajectory(states=(provider(0.0), u1), config=cfg)
        spec = LossSpec(mode="instantaneous")
        assert loss_value(traj, provider, spec) == pytest.approx(eps**2, rel=1e-12)

    def test_pinned_upwind_reference_value(self):
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        provider = hat_provider(HatProfile(), grid, cfg.c)
        u0 = CellField(naive_hat(100, 0.01, 0.0), grid)
        traj = simulate(u0, 150, cfg, scheme="upwind")
        value = loss_value(traj, provider)
        assert value > 0
        assert value == pytest.approx(UPWIND_GLOBAL_LOSS, rel=1e-12)

    def test_pinned_value_agrees_with_loop_oracle(self):
        states = naive_upwind_states(naive_hat(100, 0.01, 0.0), 150, 0.1)
        exacts = [naive_hat(100, 0.01, m * 1e-3) for m in range(151)]
        assert naive_global_loss(states, exacts) == pytest.approx(UPWIND_GLOBAL_LOSS, rel=1e-13)

    def test_sum_normalization_scales_mean(self):
        cfg, u0, mu_st, provider = toy_problem()
        traj = simulate(u0, 5, cfg, scheme="ftcs_mu", mu=mu_st)
        mean = loss_value(traj, provider, LossSpec(normalization="mean"))
        total = loss_value(traj, provider, LossSpec(normalization="sum"))
        assert total == pytest.approx(mean * 16 * 5, rel=1e-13)

    def test_weights_validation(self):
        cfg, u0, mu_st, provider = toy_problem()
        traj = simulate(u0, 5, cfg, scheme="ftcs_mu", mu=mu_st)
        with pytest.raises(ValueError):
            loss_value(traj, provider, LossSpec(weights=(1.0, 1.0)))
        with pytest.raises(ValueError):
            LossSpec(weights=(1.0, -2.0))

    def test_weighted_loss_matches_manual_sum(self):
        cfg, u0, mu_st, provider = toy_problem()
        traj = simulate(u0, 5, cfg, scheme="ftcs_mu", mu=mu_st)
        weights = (0.0, 1.0, 2.0, 0.5, 0.0)
        value = loss_value(traj, provider, LossSpec(weights=weights))
        manual = 0.0
        for m in range(1, 6):
            err = traj.states[m].values - provider(m * cfg.dt).values
            manual += weights[m - 1] * np.sum(err**2)
        assert value == pytest.approx(manual / (16 * 5), rel=1e-13)


class TestInstantaneousGradient:
    def test_constant_state_zero_gradient(self):
        grid = make_grid(12, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        u = CellField(np.full(12, 4.0), grid)
        mu = FaceViscosity(np.linspace(0, 0.09, 12), grid)
        target = CellField(np.zeros(12), grid)
        grad = grad_mu_instantaneous(u.values, target.values, mu.values, cfg)
        assert np.array_equal(grad, np.zeros(12))

    def test_zero_residual_zero_gradient(self):
        cfg, u0, mu_st, _ = toy_problem()
        mu = mu_st.at_step(0)
        target = ftcs_step(u0, mu, cfg)
        grad = grad_mu_instantaneous(u0.values, target.values, mu.values, cfg)
        assert np.array_equal(grad, np.zeros(16))

    def test_rejects_target_of_another_shape(self):
        cfg, u0, mu_st, _ = toy_problem()
        with pytest.raises(ValueError):
            grad_mu_instantaneous(u0.values, np.zeros(1), mu_st.values[0], cfg)

    def test_matches_central_differences(self):
        cfg, u0, mu_st, provider = toy_problem(seed=3)
        mu = mu_st.at_step(0)
        target = provider(cfg.dt)
        grad = grad_mu_instantaneous(u0.values, target.values, mu.values, cfg)
        n = cfg.grid.n_cells
        fd = np.zeros(n)
        for f in range(n):
            h = 1e-6 * max(1.0, abs(mu.values[f]))
            for sign, weight in ((1, 1.0), (-1, -1.0)):
                bumped = np.array(mu.values)
                bumped[f] += sign * h
                stepped = ftcs_step(u0, FaceViscosity(bumped, cfg.grid), cfg)
                loss = np.mean((stepped.values - target.values) ** 2)
                fd[f] += weight * loss / (2 * h)
        assert fd_relative_error(grad, fd) < 1e-6


class TestGlobalGradient:
    def test_single_step_reduces_to_instantaneous(self):
        cfg, u0, mu_st, provider = toy_problem()
        single = SpaceTimeViscosity(mu_st.values[:1], cfg.grid)
        g_inst = grad_mu_instantaneous(
            u0.values, provider(cfg.dt).values, single.values[0], cfg
        )
        g_glob = grad_mu_global(u0, single, cfg, provider)
        assert np.allclose(g_glob[0], g_inst, rtol=1e-13, atol=1e-18)

    def test_constant_initial_state_zero_gradient(self):
        grid = make_grid(16, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        u0 = CellField(np.zeros(16), grid)
        mu_st = SpaceTimeViscosity(np.full((4, 16), 0.01), grid)

        def zero_provider(t):
            return CellField(np.zeros(16), grid)

        grad = grad_mu_global(u0, mu_st, cfg, zero_provider)
        assert np.array_equal(grad, np.zeros((4, 16)))

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("steps", [1, 3, 5])
    def test_matches_fd_oracle(self, n, steps):
        for seed in range(3):
            cfg, u0, mu_st, provider = toy_problem(n=n, steps=steps, seed=seed)
            g_adj = grad_mu_global(u0, mu_st, cfg, provider)
            g_fd = fd_gradient(u0, mu_st, cfg, provider)
            assert fd_relative_error(g_adj, g_fd) < 1e-6

    def test_zero_gradient_when_trajectory_matches_target(self):
        cfg, u0, mu_st, _ = toy_problem(seed=9)
        traj = simulate(u0, 5, cfg, scheme="ftcs_mu", mu=mu_st)

        def self_provider(t):
            return traj.states[round(t / cfg.dt)]

        grad = grad_mu_global(u0, mu_st, cfg, self_provider)
        assert np.array_equal(grad, np.zeros((5, 16)))

    def test_gradient_linear_in_residual(self):
        cfg, u0, mu_st, _ = toy_problem(seed=11)
        traj = simulate(u0, 5, cfg, scheme="ftcs_mu", mu=mu_st)
        base = {n: traj.states[n].values for n in range(6)}
        rng = np.random.default_rng(12)
        offsets = {n: rng.uniform(-1, 1, 16) for n in range(6)}

        def provider_scaled(scale):
            def provider(t):
                n = round(t / cfg.dt)
                return CellField(base[n] - scale * offsets[n], cfg.grid)

            return provider

        g1 = grad_mu_global(u0, mu_st, cfg, provider_scaled(1.0))
        g2 = grad_mu_global(u0, mu_st, cfg, provider_scaled(2.0))
        assert np.allclose(g2, 2.0 * g1, rtol=1e-12, atol=1e-18)

    def test_adjoint_state_shape(self):
        cfg, u0, mu_st, provider = toy_problem()
        grad, adjoint = grad_mu_global(u0, mu_st, cfg, provider, return_adjoint=True)
        assert grad.shape == (5, 16)
        assert len(adjoint.lambdas) == 6  # lambda^0 .. lambda^M


class TestTransposeIdentity:
    def test_inner_product_identity(self):
        grid = make_grid(64, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        rng = np.random.default_rng(21)
        for _ in range(20):
            mu = FaceViscosity(rng.uniform(-0.005, 0.095, 64), grid)
            v = CellField(rng.uniform(-1, 1, 64), grid)
            w = CellField(rng.uniform(-1, 1, 64), grid)
            lhs = np.dot(ftcs_step(v, mu, cfg).values, w.values)
            rhs = np.dot(v.values, step_transpose_apply(w, mu, cfg).values)
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)


class TestFdGradient:
    def test_zero_field_zero_gradient(self):
        grid = make_grid(8, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        u0 = CellField(np.zeros(8), grid)
        mu_st = SpaceTimeViscosity(np.zeros((2, 8)), grid)

        def zero_provider(t):
            return CellField(np.zeros(8), grid)

        assert np.array_equal(fd_gradient(u0, mu_st, cfg, zero_provider), np.zeros((2, 8)))

    def test_quadratic_exactness_halving_h(self):
        # single-step loss is quadratic in mu, so central FD is h-independent
        cfg, u0, mu_st, provider = toy_problem(steps=1, seed=5)
        g_h = fd_gradient(u0, mu_st, cfg, provider, h=1e-5)
        g_h2 = fd_gradient(u0, mu_st, cfg, provider, h=5e-6)
        assert np.max(np.abs(g_h - g_h2)) / np.max(np.abs(g_h)) < 1e-9

    def test_rejects_bad_h(self):
        cfg, u0, mu_st, provider = toy_problem()
        with pytest.raises(ValueError):
            fd_gradient(u0, mu_st, cfg, provider, h=0.0)
