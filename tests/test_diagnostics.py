import dataclasses

import numpy as np
import pytest

from advisc.diagnostics import (
    ec_es_split,
    entropy_report,
    entropy_series,
    mse,
    mu_stats,
    total_variation,
)
from advisc.grid import (
    HatProfile,
    exact_solution,
    make_grid,
    sine_solution,
)
from advisc.schemes import SchemeConfig, ftcs_update, simulate

from oracles import naive_entropy, naive_hat, naive_mse, naive_total_variation

# Final-time mean squared error of first-order upwind on the reference
# problem (150 steps), computed once with the loop oracle and frozen.
UPWIND_FINAL_MSE = 0.017004448958157736


def paper_setup():
    grid = make_grid(100, 1.0)
    cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
    profile = HatProfile()
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


class TestEntropy:
    def test_constant_field_static_entropy(self):
        grid = make_grid(10, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        field = np.full(10, 2.0)
        mu = np.full((3, 10), 0.01)
        traj = simulate(field, 3, cfg, scheme="ftcs_mu", mu=mu)
        report = entropy_report(traj)
        assert np.allclose(report.total_entropy, report.total_entropy[0], atol=1e-15)
        assert np.allclose(report.per_step_delta, 0.0, atol=1e-15)
        assert np.allclose(report.spatial_dissipation, 0.0, atol=1e-15)

    def test_initial_hat_entropy_is_one_tenth(self):
        # 20 unit cells of width 0.01: S = 0.5 * 20 * 1 * 0.01
        cfg, profile, u0 = paper_setup()
        entropy = entropy_series(u0, cfg.grid.dx)
        assert entropy == pytest.approx(0.1, abs=1e-15)
        assert entropy == pytest.approx(naive_entropy(list(u0), 0.01), abs=1e-16)

    def test_semi_discrete_central_flux_produces_no_entropy(self):
        # sum_i u_i (F_{i+1/2} - F_{i-1/2}) telescopes to zero at mu = 0
        cfg, _, _ = paper_setup()
        rng = np.random.default_rng(1)
        u = rng.uniform(-1, 1, 100)
        ec, es = ec_es_split(u, np.zeros(100), cfg)
        flux = ec - es
        production = np.sum(u * (flux - np.roll(flux, 1)))
        assert abs(production) < 1e-13

    def test_forward_euler_step_increases_entropy_at_zero_mu(self):
        cfg, _, _ = paper_setup()
        u0 = sine_solution(cfg.grid, 1.0, 0.0)
        traj = simulate(u0, 5, cfg, scheme="ftcs_bare")
        report = entropy_report(traj)
        assert np.all(report.per_step_delta > 0)

    def test_positive_uniform_mu_dissipation_nonnegative(self):
        cfg, profile, u0 = paper_setup()
        mu = np.full((10, 100), 0.005)
        traj = simulate(u0, 10, cfg, scheme="ftcs_mu", mu=mu)
        report = entropy_report(traj)
        assert np.all(report.spatial_dissipation >= 0)

    def test_zero_mu_dissipation_exactly_zero(self):
        cfg, profile, u0 = paper_setup()
        mu = np.zeros((5, 100))
        traj = simulate(u0, 5, cfg, scheme="ftcs_mu", mu=mu)
        report = entropy_report(traj)
        assert np.array_equal(report.spatial_dissipation, np.zeros(5))

    def test_dissipation_requires_history(self):
        cfg, profile, u0 = paper_setup()
        traj = simulate(u0, 5, cfg, scheme="upwind")
        report = entropy_report(traj)
        assert report.spatial_dissipation is None

    def test_dissipation_matches_direct_sum(self):
        cfg, profile, u0 = paper_setup()
        rng = np.random.default_rng(2)
        mu = rng.uniform(-0.005, 0.095, (4, 100))
        traj = simulate(u0, 4, cfg, scheme="ftcs_mu", mu=mu)
        report = entropy_report(traj)
        n = 2
        u = traj.states[n]
        jumps = (np.roll(u, -1) - u) / cfg.grid.dx
        direct = np.sum(mu[n] * jumps**2) * cfg.grid.dx
        assert report.spatial_dissipation[n] == pytest.approx(direct, rel=1e-14)


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
        stats = mu_stats(traj, profile, radius=0.05)
        assert stats["mu_min"] == stats["mu_max"] == 0.005
        assert stats["fraction_negative"] == 0.0
        assert stats["negative_mass_near_discontinuity"] == 0.0

    def test_single_negative_entry_counted(self):
        cfg, profile, traj = self.make_traj()
        values = np.array(traj.viscosity_history)
        values[1, 3] = -5e-3
        stats = mu_stats(with_mu(traj, values), profile, radius=0.05)
        assert stats["mu_min"] == -5e-3
        assert stats["fraction_negative"] == pytest.approx(1.0 / values.size)

    def test_negative_mass_localization_extremes(self):
        cfg, profile, traj = self.make_traj(n_steps=1)
        # hat edges at t=0 sit at x=0.4 and x=0.6; face index i is at (i+1)*dx
        near = np.full((1, 100), 0.005)
        near[0, 39] = -1e-3  # face at x = 0.40, on the lower edge
        stats = mu_stats(with_mu(traj, near), profile, radius=0.05)
        assert stats["negative_mass_near_discontinuity"] == 1.0

        far = np.full((1, 100), 0.005)
        far[0, 89] = -1e-3  # face at x = 0.90, far from both edges
        stats = mu_stats(with_mu(traj, far), profile, radius=0.05)
        assert stats["negative_mass_near_discontinuity"] == 0.0

    def test_split_mass_gives_fraction(self):
        cfg, profile, traj = self.make_traj(n_steps=1)
        values = np.full((1, 100), 0.005)
        values[0, 39] = -3e-3  # near lower edge
        values[0, 89] = -1e-3  # far away
        stats = mu_stats(with_mu(traj, values), profile, radius=0.05)
        assert stats["negative_mass_near_discontinuity"] == pytest.approx(0.75)

    def test_rejects_bad_radius(self):
        cfg, profile, traj = self.make_traj()
        with pytest.raises(ValueError):
            mu_stats(traj, profile, radius=0.0)


def ftcs_form(u, flux, cfg):
    """u - (dt/dx)*(F_{i+1/2} - F_{i-1/2}) for the face fluxes ``flux``."""
    return u - (cfg.dt / cfg.grid.dx) * (flux - np.roll(flux, 1))


class TestEcEsSplit:
    def test_constant_state(self):
        cfg, _, _ = paper_setup()
        u = np.full(100, 2.0)
        mu = np.full(100, 0.05)
        ec, es = ec_es_split(u, mu, cfg)
        assert np.allclose(ec, 2.0 * cfg.c, atol=1e-15)
        assert np.allclose(es, 0.0, atol=1e-15)

    def test_zero_mu_degenerates_to_central_flux(self):
        cfg, _, u0 = paper_setup()
        mu0 = np.zeros(100)
        ec, es = ec_es_split(u0, mu0, cfg)
        assert np.array_equal(es, np.zeros(100))
        assert np.allclose(ftcs_form(u0, ec - es, cfg), ftcs_update(u0, mu0, cfg),
                           rtol=0, atol=1e-14)

    def test_reconstruction_identity(self):
        cfg, _, _ = paper_setup()
        rng = np.random.default_rng(4)
        for _ in range(10):
            u = rng.uniform(-1, 1, 100)
            mu = rng.uniform(-0.005, 0.095, 100)
            ec, es = ec_es_split(u, mu, cfg)
            assert np.allclose(ftcs_form(u, ec - es, cfg), ftcs_update(u, mu, cfg),
                               rtol=0, atol=1e-14)
