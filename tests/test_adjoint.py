import itertools
from dataclasses import replace

import numpy as np
import pytest

from advisc.adjoint import fd_gradient, grad_mu_global, loss_value
from advisc.grid import InitialCondition, exact_solution, make_grid
from advisc.schemes import SchemeConfig, Trajectory, ftcs_update, simulate

from oracles import (
    naive_global_loss,
    naive_hat,
    naive_upwind_states,
    reference_grad_mu_global,
    reference_grad_mu_step,
    reference_loss,
    reference_step_transpose,
)

# Mean global loss of the first-order upwind scheme on the reference problem
# (N=100, c=1, dt=1e-3, hat IC, 150 steps), computed once with the pure-Python
# oracle in oracles.py and frozen as a regression constant.
UPWIND_GLOBAL_LOSS = 0.011542485625211167


def toy_problem(n=16, steps=5, seed=0, c=1.0):
    grid = make_grid(n, 1.0)
    cfg = SchemeConfig(c=c, dt=0.1 * grid.dx, grid=grid)
    rng = np.random.default_rng(seed)
    u0 = rng.uniform(-1, 1, n)
    mu_st = rng.uniform(-5e-3, 9.5e-2, (steps, n))
    exact = hat_exact(cfg, steps)
    return cfg, u0, mu_st, exact


def hat_exact(cfg, steps):
    """Exact hat states at times 0, dt, .., steps*dt."""
    return exact_solution(InitialCondition(), cfg.grid, cfg.c, np.arange(steps + 1) * cfg.dt)


def grad_step(u, target, mu, cfg):
    """The exact one-step gradient of the roll oracle on ``cfg``'s problem."""
    return reference_grad_mu_step(u, target, mu, cfg.c, cfg.dt, cfg.grid.dx)


def fd_relative_error(grad_adj, grad_fd):
    return np.max(np.abs(grad_adj - grad_fd)) / (1e-12 + np.max(np.abs(grad_fd)))


class TestLossValue:
    def test_zero_when_trajectory_matches_exact(self):
        grid = make_grid(20, 1.0)
        cfg = SchemeConfig(c=1.0, dt=grid.dx, grid=grid)  # cfl 1: nothing special
        exact = hat_exact(cfg, 3)
        traj = Trajectory(states=exact, config=cfg)
        assert loss_value(traj, exact) == 0.0

    def test_zero_step_trajectory_has_zero_loss(self):
        grid = make_grid(10, 1.0)
        cfg = SchemeConfig(c=1.0, dt=0.1 * grid.dx, grid=grid)
        exact = hat_exact(cfg, 0)
        assert loss_value(simulate(exact[0] + 1.0, 0, cfg, mu=0.01), exact) == 0.0

    def test_uniform_offset_instantaneous(self):
        grid = make_grid(10, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        exact = hat_exact(cfg, 1)
        eps = 0.003
        traj = Trajectory(states=np.stack([exact[0], exact[1] + eps]), config=cfg)
        assert loss_value(traj, exact) == pytest.approx(eps**2, rel=1e-12)

    def test_pinned_upwind_reference_value(self):
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        traj = simulate(naive_hat(100, 0.01, 0.0), 150, cfg, scheme="upwind")
        value = loss_value(traj, hat_exact(cfg, 150))
        assert value > 0
        assert value == pytest.approx(UPWIND_GLOBAL_LOSS, rel=1e-12)

    def test_pinned_value_agrees_with_loop_oracle(self):
        states = naive_upwind_states(naive_hat(100, 0.01, 0.0), 150, 0.1)
        exacts = [naive_hat(100, 0.01, m * 1e-3) for m in range(151)]
        assert naive_global_loss(states, exacts) == pytest.approx(UPWIND_GLOBAL_LOSS, rel=1e-13)

    def test_rejects_exact_of_another_shape(self):
        cfg, u0, mu_st, exact = toy_problem()
        traj = simulate(u0, 5, cfg, scheme="ftcs_mu", mu=mu_st)
        for wrong in (exact[:-1], exact[:, :-1], exact[-1]):
            with pytest.raises(ValueError, match="shape"):
                loss_value(traj, wrong)

    @pytest.mark.parametrize("n, steps", [(1000, 20), (9000, 3)],
                             ids=["partial_last_block", "one_row_per_block"])
    def test_blocked_rows_match_per_row_oracle_bit_for_bit(self, n, steps):
        # loss_value squares a 64 KB block of rows at a time: 8 rows of 1000
        # cells, so 20 steps end in a partial block, or a single row once a
        # row alone passes 8192 cells.
        grid = make_grid(n, 1.0)
        cfg = SchemeConfig(c=1.0, dt=0.1 * grid.dx, grid=grid)
        rng = np.random.default_rng(n)
        states = rng.uniform(-1, 1, (steps + 1, n))
        exact = rng.uniform(-1, 1, (steps + 1, n))
        assert loss_value(Trajectory(states=states, config=cfg), exact) == \
            reference_loss(states, exact)


class TestInstantaneousGradient:
    """The one-step gradient oracle, which pins the per-step trainer's inner
    loop bit for bit (test_optimizer), is the exact gradient."""

    def test_constant_state_zero_gradient(self):
        grid = make_grid(12, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        u = np.full(12, 4.0)
        mu = np.linspace(0, 0.09, 12)
        grad = grad_step(u, np.zeros(12), mu, cfg)
        assert np.array_equal(grad, np.zeros(12))

    def test_zero_residual_zero_gradient(self):
        cfg, u0, mu_st, _ = toy_problem()
        mu = mu_st[0]
        target = ftcs_update(u0, mu, cfg)
        grad = grad_step(u0, target, mu, cfg)
        assert np.array_equal(grad, np.zeros(16))

    def test_matches_central_differences(self):
        cfg, u0, mu_st, exact = toy_problem(seed=3)
        mu = mu_st[0]
        target = exact[1]
        grad = grad_step(u0, target, mu, cfg)
        n = cfg.grid.n_cells
        fd = np.zeros(n)
        for f in range(n):
            h = 1e-6 * max(1.0, abs(mu[f]))
            for sign, weight in ((1, 1.0), (-1, -1.0)):
                bumped = np.array(mu)
                bumped[f] += sign * h
                stepped = ftcs_update(u0, bumped, cfg)
                loss = np.mean((stepped - target) ** 2)
                fd[f] += weight * loss / (2 * h)
        assert fd_relative_error(grad, fd) < 1e-6


class TestGlobalGradient:
    def test_single_step_reduces_to_instantaneous(self):
        cfg, u0, mu_st, exact = toy_problem()
        single = mu_st[:1]
        g_inst = grad_step(u0, exact[1], single[0], cfg)
        g_glob = grad_mu_global(simulate(u0, 1, cfg, mu=single), exact[:2])
        assert np.allclose(g_glob[0], g_inst, rtol=1e-13, atol=1e-18)

    def test_constant_initial_state_zero_gradient(self):
        grid = make_grid(16, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        grad = grad_mu_global(simulate(np.zeros(16), 4, cfg, mu=np.full((4, 16), 0.01)),
                              np.zeros((5, 16)))
        assert np.array_equal(grad, np.zeros((4, 16)))

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("steps", [1, 3, 5])
    def test_matches_fd_oracle(self, n, steps):
        # Both signs of c: the reverse sweep steps the forward kernel at -c.
        for c, seed in itertools.product((1.0, -0.7), range(3)):
            cfg, u0, mu_st, exact = toy_problem(n=n, steps=steps, seed=seed, c=c)
            g_adj = grad_mu_global(simulate(u0, steps, cfg, mu=mu_st), exact)
            g_fd = fd_gradient(u0, mu_st, cfg, exact)
            assert fd_relative_error(g_adj, g_fd) < 1e-6

    def test_matches_roll_oracle_bit_for_bit(self):
        cfg, u0, mu_st, exact = toy_problem(n=23, steps=7, seed=4)
        traj = simulate(u0, 7, cfg, mu=mu_st)
        expected = reference_grad_mu_global(traj.states, mu_st, exact, cfg.c, cfg.dt, cfg.grid.dx)
        assert np.array_equal(grad_mu_global(traj, exact), expected)

    def test_zero_gradient_when_trajectory_matches_target(self):
        cfg, u0, mu_st, _ = toy_problem(seed=9)
        traj = simulate(u0, 5, cfg, scheme="ftcs_mu", mu=mu_st)
        grad = grad_mu_global(traj, traj.states)
        assert np.array_equal(grad, np.zeros((5, 16)))

    def test_gradient_linear_in_residual(self):
        cfg, u0, mu_st, _ = toy_problem(seed=11)
        traj = simulate(u0, 5, cfg, scheme="ftcs_mu", mu=mu_st)
        rng = np.random.default_rng(12)
        offsets = np.stack([rng.uniform(-1, 1, 16) for _ in range(6)])

        g1 = grad_mu_global(traj, traj.states - 1.0 * offsets)
        g2 = grad_mu_global(traj, traj.states - 2.0 * offsets)
        assert np.allclose(g2, 2.0 * g1, rtol=1e-12, atol=1e-18)

    def test_gradient_shape(self):
        cfg, u0, mu_st, exact = toy_problem()
        grad = grad_mu_global(simulate(u0, 5, cfg, mu=mu_st), exact)
        assert grad.shape == (5, 16)

    def test_rejects_exact_of_another_shape(self):
        cfg, u0, mu_st, exact = toy_problem()
        traj = simulate(u0, 5, cfg, mu=mu_st)
        for wrong in (exact[:-1], exact[:, :-1], exact[-1]):
            with pytest.raises(ValueError, match="shape"):
                grad_mu_global(traj, wrong)

    def test_requires_viscosity_history(self):
        cfg, u0, _, exact = toy_problem()
        traj = simulate(u0, 5, cfg, scheme="upwind")
        with pytest.raises(ValueError, match="viscosities"):
            grad_mu_global(traj, exact)


def textbook_transpose(w, mu, cfg):
    return reference_step_transpose(w, mu, cfg.c, cfg.dt, cfg.grid.dx)


def reversed_step(w, mu, cfg):
    """The forward kernel at -c, through which grad_mu_global steps the adjoint."""
    return ftcs_update(w, mu, replace(cfg, c=-cfg.c))


class TestTransposeIdentity:
    def test_inner_product_identity(self):
        # <A(c) v, w> = <v, A^T w>, with A^T the textbook formula or A(-c),
        # at both signs of c.
        grid = make_grid(64, 1.0)
        rng = np.random.default_rng(21)
        for c, transpose, _ in itertools.product((1.0, -0.7),
                                                 (textbook_transpose, reversed_step), range(20)):
            cfg = SchemeConfig(c=c, dt=1e-3, grid=grid)
            mu = rng.uniform(-0.005, 0.095, 64)
            v = rng.uniform(-1, 1, 64)
            w = rng.uniform(-1, 1, 64)
            lhs = np.dot(ftcs_update(v, mu, cfg), w)
            rhs = np.dot(v, transpose(w, mu, cfg))
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)


class TestFdGradient:
    def test_zero_field_zero_gradient(self):
        grid = make_grid(8, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        assert np.array_equal(fd_gradient(np.zeros(8), np.zeros((2, 8)), cfg, np.zeros((3, 8))),
                              np.zeros((2, 8)))

    def test_quadratic_exactness_halving_h(self):
        # single-step loss is quadratic in mu, so central FD is h-independent
        cfg, u0, mu_st, exact = toy_problem(steps=1, seed=5)
        g_h = fd_gradient(u0, mu_st, cfg, exact, h=1e-5)
        g_h2 = fd_gradient(u0, mu_st, cfg, exact, h=5e-6)
        assert np.max(np.abs(g_h - g_h2)) / np.max(np.abs(g_h)) < 1e-9

    def test_rejects_bad_h(self):
        cfg, u0, mu_st, exact = toy_problem()
        with pytest.raises(ValueError):
            fd_gradient(u0, mu_st, cfg, exact, h=0.0)
