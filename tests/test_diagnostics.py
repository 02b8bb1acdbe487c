import dataclasses
import tracemalloc

import numpy as np
import pytest

from advisc.diagnostics import (
    NEGATIVE_MASS_RADIUS,
    dissipation_series,
    entropy_series,
    mse,
    mu_stats,
    step_losses,
    total_variation,
)
from advisc.grid import (
    InitialCondition,
    exact_solution,
    make_grid,
)
from advisc.schemes import SchemeConfig, Trajectory, simulate

from oracles import naive_entropy, naive_hat, naive_mse, naive_total_variation

# Final-time mean squared error of first-order upwind on the reference
# problem (150 steps), computed once with the loop oracle and frozen.
UPWIND_FINAL_MSE = 0.017004448958157736


def paper_setup():
    grid = make_grid(100, 1.0)
    cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
    profile = InitialCondition()
    u0 = exact_solution(profile, grid, 1.0, 0.0)
    return cfg, profile, u0


class TestMse:
    def test_identical_fields(self):
        field = np.arange(8.0)
        assert mse(field, field) == 0.0

    def test_uniform_offset(self):
        a = np.zeros(8)
        b = np.full(8, 0.01)
        assert mse(a, b) == pytest.approx(1e-4, rel=1e-14)

    def test_shape_mismatch_rejected(self):
        a = np.zeros(8)
        b = np.zeros(9)
        with pytest.raises(ValueError):
            mse(a, b)

    def test_pinned_upwind_final_mse(self):
        cfg, profile, u0 = paper_setup()
        traj = simulate(u0, 150, cfg, scheme="upwind")
        value = mse(traj.states[-1], exact_solution(profile, cfg.grid, 1.0, 0.15))
        assert value == pytest.approx(UPWIND_FINAL_MSE, rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, 12)
        b = rng.uniform(-1, 1, 12)
        assert mse(a, b) == pytest.approx(
            naive_mse(list(a), list(b)), rel=1e-14
        )


class TestStepLosses:
    @pytest.mark.parametrize("shape", [(1, 7), (2, 5), (151, 100), (3, 10_000)])
    def test_each_step_loss_is_the_mse_of_its_state_bit_for_bit(self, shape):
        rng = np.random.default_rng(3)
        states, exact = rng.normal(size=shape), rng.normal(size=shape)
        expected = [mse(states[n], exact[n]) for n in range(1, shape[0])]
        assert step_losses(states, exact).tolist() == expected


class TestEntropy:
    def test_constant_field_static_entropy(self):
        grid = make_grid(10, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        field = np.full(10, 2.0)
        mu = np.full((3, 10), 0.01)
        traj = simulate(field, 3, cfg, scheme="ftcs_mu", mu=mu)
        entropy = entropy_series(traj.states, cfg.grid.dx)
        assert np.allclose(entropy, entropy[0], atol=1e-15)
        assert np.allclose(np.diff(entropy), 0.0, atol=1e-15)
        assert np.allclose(dissipation_series(traj.states, mu, cfg.grid.dx), 0.0, atol=1e-15)

    def test_initial_hat_entropy_is_one_tenth(self):
        # 20 unit cells of width 0.01: S = 0.5 * 20 * 1 * 0.01
        cfg, profile, u0 = paper_setup()
        entropy = entropy_series(u0, cfg.grid.dx)
        assert entropy == pytest.approx(0.1, abs=1e-15)
        assert entropy == pytest.approx(naive_entropy(list(u0), 0.01), abs=1e-16)

    @pytest.mark.parametrize("shape", [(40, 5000), (300, 100), (5, 20000), (3, 4, 1000), (257,)],
                             ids=["one_row_blocks", "many_row_blocks", "row_past_block",
                                  "3d", "1d"])
    def test_series_equals_one_reduction_bit_for_bit(self, shape):
        states = np.random.default_rng(3).normal(size=shape)
        for s in (states, np.concatenate([states[..., :1], states], axis=-1)[..., 1:]):
            expected = 0.5 * np.sum(s * s, axis=-1) * 0.01
            got = entropy_series(s, 0.01)
            assert np.shape(got) == np.shape(expected)
            assert np.array_equal(got, expected)

    def test_series_makes_no_temporary_of_the_states_size(self):
        states = np.random.default_rng(4).normal(size=(100, 4000))
        tracemalloc.start()
        try:
            entropy_series(states, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < states.nbytes / 4

    def test_forward_euler_step_increases_entropy_at_zero_mu(self):
        cfg, _, _ = paper_setup()
        u0 = exact_solution(InitialCondition(kind="sine"), cfg.grid, 1.0, 0.0)
        traj = simulate(u0, 5, cfg, scheme="ftcs_bare")
        assert np.all(np.diff(entropy_series(traj.states, cfg.grid.dx)) > 0)

    def test_positive_uniform_mu_dissipation_nonnegative(self):
        cfg, profile, u0 = paper_setup()
        mu = np.full((10, 100), 0.005)
        traj = simulate(u0, 10, cfg, scheme="ftcs_mu", mu=mu)
        assert np.all(dissipation_series(traj.states, mu, cfg.grid.dx) >= 0)

    def test_zero_mu_dissipation_exactly_zero(self):
        cfg, profile, u0 = paper_setup()
        mu = np.zeros((5, 100))
        traj = simulate(u0, 5, cfg, scheme="ftcs_mu", mu=mu)
        assert np.array_equal(dissipation_series(traj.states, mu, cfg.grid.dx), np.zeros(5))

    def test_dissipation_matches_direct_sum(self):
        cfg, profile, u0 = paper_setup()
        rng = np.random.default_rng(2)
        mu = rng.uniform(-0.005, 0.095, (4, 100))
        traj = simulate(u0, 4, cfg, scheme="ftcs_mu", mu=mu)
        dissipation = dissipation_series(traj.states, mu, cfg.grid.dx)
        n = 2
        u = traj.states[n]
        jumps = (np.roll(u, -1) - u) / cfg.grid.dx
        direct = np.sum(mu[n] * jumps**2) * cfg.grid.dx
        assert dissipation[n] == pytest.approx(direct, rel=1e-14)


class TestTotalVariation:
    def test_constant_field(self):
        assert total_variation(np.full(6, 1.5)) == 0.0

    def test_exact_hat_has_two_unit_jumps(self):
        cfg, profile, u0 = paper_setup()
        assert total_variation(u0) == 2.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(-1, 1, 15)
        assert total_variation(values) == pytest.approx(
            naive_total_variation(list(values)), rel=1e-14
        )

    def test_learned_solution_oscillation_bounded(self, paper_training_report):
        # learned run stays within TV(exact) + 0.5 slack at the final time
        training, _ = paper_training_report
        tv = total_variation(training.trajectory.states[-1])
        assert tv <= 2.0 + 0.5


def with_mu(traj, values):
    """The trajectory with its recorded viscosity replaced by ``values``."""
    return dataclasses.replace(traj, viscosity_history=values)


class TestMuStats:
    def make_traj(self, n_steps=4):
        cfg, profile, u0 = paper_setup()
        mu = np.full((n_steps, 100), 0.005)
        return cfg, profile, simulate(u0, n_steps, cfg, scheme="ftcs_mu", mu=mu)

    def test_uniform_positive_field(self):
        cfg, profile, traj = self.make_traj()
        stats = mu_stats(traj, profile)
        assert stats["mu_min"] == stats["mu_max"] == 0.005
        assert stats["fraction_negative"] == 0.0
        assert stats["negative_mass_near_discontinuity"] == 0.0

    def test_single_negative_entry_counted(self):
        cfg, profile, traj = self.make_traj()
        values = np.array(traj.viscosity_history)
        values[1, 3] = -5e-3
        stats = mu_stats(with_mu(traj, values), profile)
        assert stats["mu_min"] == -5e-3
        assert stats["fraction_negative"] == pytest.approx(1.0 / values.size)

    def test_negative_mass_localization_extremes(self):
        cfg, profile, traj = self.make_traj(n_steps=1)
        # hat edges at t=0 sit at x=0.4 and x=0.6; face index i is at (i+1)*dx
        near = np.full((1, 100), 0.005)
        near[0, 39] = -1e-3  # face at x = 0.40, on the lower edge
        stats = mu_stats(with_mu(traj, near), profile)
        assert stats["negative_mass_near_discontinuity"] == 1.0

        far = np.full((1, 100), 0.005)
        far[0, 89] = -1e-3  # face at x = 0.90, far from both edges
        stats = mu_stats(with_mu(traj, far), profile)
        assert stats["negative_mass_near_discontinuity"] == 0.0

    def test_split_mass_gives_fraction(self):
        cfg, profile, traj = self.make_traj(n_steps=1)
        values = np.full((1, 100), 0.005)
        values[0, 39] = -3e-3  # near lower edge
        values[0, 89] = -1e-3  # far away
        stats = mu_stats(with_mu(traj, values), profile)
        assert stats["negative_mass_near_discontinuity"] == pytest.approx(0.75)

    @pytest.mark.parametrize("c, profile", [
        (1.0, InitialCondition()), (-0.7, InitialCondition()),
        (1.0, InitialCondition(lo=0.0, hi=0.35)),  # an edge at 0: a face at distance length
    ])
    def test_score_equals_the_per_step_loop_bit_for_bit(self, c, profile):
        from oracles import reference_negative_mass_near_discontinuity

        cfg, _, _ = paper_setup()
        cfg = dataclasses.replace(cfg, c=c)
        rng = np.random.default_rng(11)
        n_steps = 700  # the edges travel across the periodic boundary
        values = rng.standard_normal((n_steps, 100)) * 1e-3
        values[rng.random(values.shape) < 0.3] = 0.0
        values[::9] = np.abs(values[::9])  # steps without negative entries are skipped
        states = np.zeros((n_steps + 1, 100))
        traj = Trajectory(states=states, config=cfg, viscosity_history=values)
        want = reference_negative_mass_near_discontinuity(
            values, cfg.grid.face_positions, cfg.grid.length, profile.lo, profile.hi,
            c, cfg.dt, NEGATIVE_MASS_RADIUS)
        assert 0.0 < want < 1.0
        assert mu_stats(traj, profile)["negative_mass_near_discontinuity"] == want
