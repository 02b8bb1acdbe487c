import numpy as np
import pytest

from advisc.grid import CellField, FaceViscosity, SpaceTimeViscosity, make_grid, sine_solution
from advisc.schemes import (
    DivergenceError,
    SchemeConfig,
    amplification_factor,
    ftcs_bare_step,
    ftcs_flux,
    ftcs_step,
    ftcs_update,
    lax_wendroff_step,
    simulate,
    upwind_step,
)

from oracles import (
    naive_amplification_magnitude,
    naive_ftcs_mu_step,
    naive_lax_wendroff_step,
    naive_upwind_step,
    naive_upwind_states,
)


def small_config(n=3, length=0.03, c=1.0, dt=1e-3):
    grid = make_grid(n, length)
    return SchemeConfig(c=c, dt=dt, grid=grid)


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-30)


class TestFtcsFlux:
    def test_constant_state_gives_advective_flux(self):
        cfg = small_config(n=5, length=0.05)
        u = CellField(np.full(5, 3.0), cfg.grid)
        mu = FaceViscosity(np.linspace(-0.005, 0.09, 5), cfg.grid)
        assert np.allclose(ftcs_flux(u, mu, cfg), 3.0 * cfg.c, atol=1e-15)

    def test_zero_viscosity_is_face_average(self):
        cfg = small_config()
        u = CellField([0.0, 1.0, 0.0], cfg.grid)
        mu = FaceViscosity(np.zeros(3), cfg.grid)
        assert np.allclose(ftcs_flux(u, mu, cfg), [0.5, 0.5, 0.0])

    def test_hand_evaluated_viscous_flux(self):
        # mu/dx = 1, jumps are (+1, -1, 0) across the three faces
        cfg = small_config()
        u = CellField([0.0, 1.0, 0.0], cfg.grid)
        mu = FaceViscosity(np.full(3, 0.01), cfg.grid)
        assert np.allclose(ftcs_flux(u, mu, cfg), [-0.5, 1.5, 0.0])

    def test_grid_mismatch_rejected(self):
        cfg = small_config()
        other = make_grid(4, 0.04)
        with pytest.raises(ValueError):
            ftcs_flux(CellField(np.zeros(4), other), FaceViscosity(np.zeros(3), cfg.grid), cfg)


class TestFtcsStep:
    def test_preserves_constants(self):
        cfg = small_config(n=8, length=0.08)
        u = CellField(np.full(8, 2.5), cfg.grid)
        mu = FaceViscosity(np.linspace(-0.004, 0.09, 8), cfg.grid)
        assert np.allclose(ftcs_step(u, mu, cfg).values, 2.5, atol=1e-15)

    def test_zero_mu_reduces_to_bare_ftcs(self):
        cfg = small_config(n=12, length=0.12)
        rng = np.random.default_rng(1)
        u = CellField(rng.uniform(-1, 1, 12), cfg.grid)
        mu0 = FaceViscosity(np.zeros(12), cfg.grid)
        assert np.array_equal(ftcs_step(u, mu0, cfg).values, ftcs_bare_step(u, cfg).values)

    def test_kernel_rejects_shapes_off_the_grid(self):
        cfg = small_config(n=5, length=0.05)
        with pytest.raises(ValueError):
            ftcs_update(np.zeros(5), np.zeros(1), cfg)  # would broadcast
        with pytest.raises(ValueError):
            ftcs_update(np.zeros(4), np.zeros(4), cfg)

    def test_matches_loop_oracle(self):
        cfg = small_config(n=9, length=0.09)
        rng = np.random.default_rng(2)
        uv = rng.uniform(-1, 1, 9)
        muv = rng.uniform(-0.005, 0.095, 9)
        stepped = ftcs_step(CellField(uv, cfg.grid), FaceViscosity(muv, cfg.grid), cfg)
        oracle = naive_ftcs_mu_step(list(uv), list(muv), cfg.c, cfg.dt, cfg.grid.dx)
        assert np.allclose(stepped.values, oracle, rtol=1e-14, atol=1e-16)

    def test_upwind_equivalence(self):
        cfg = small_config(n=20, length=0.2)
        rng = np.random.default_rng(3)
        mu = FaceViscosity(np.full(20, cfg.c * cfg.grid.dx / 2), cfg.grid)
        for _ in range(10):
            u = CellField(rng.uniform(-1, 1, 20), cfg.grid)
            assert rel_err(ftcs_step(u, mu, cfg).values, upwind_step(u, cfg).values) < 1e-13

    def test_single_step_mass_conservation_any_mu(self):
        # telescoping flux sum: |delta mass| <= 10*eps*n*max|F| even at signed mu
        cfg = small_config(n=100, length=1.0)
        rng = np.random.default_rng(4)
        u = CellField(rng.uniform(-1, 1, 100), cfg.grid)
        mu = FaceViscosity(rng.uniform(-0.005, 0.095, 100), cfg.grid)
        flux_scale = np.max(np.abs(ftcs_flux(u, mu, cfg)))
        mass0 = np.sum(u.values) * cfg.grid.dx
        mass1 = np.sum(ftcs_step(u, mu, cfg).values) * cfg.grid.dx
        assert abs(mass1 - mass0) <= 10 * np.finfo(float).eps * 100 * flux_scale

    def test_mass_conserved_over_many_stable_steps(self):
        cfg = small_config(n=100, length=1.0)
        u = CellField(naive_hat_initial(), cfg.grid)
        mu = FaceViscosity(np.full(100, 0.005), cfg.grid)  # upwind-equivalent, stable
        mass0 = np.sum(u.values) * cfg.grid.dx
        for _ in range(150):
            u = ftcs_step(u, mu, cfg)
        mass = np.sum(u.values) * cfg.grid.dx
        assert abs(mass - mass0) <= 1e-12 * max(abs(mass0), 1.0)

    @pytest.mark.parametrize("scheme", ["ftcs_mu", "upwind", "lax_wendroff", "ftcs_bare"])
    def test_every_stepper_is_linear_in_state(self, scheme):
        cfg = small_config(n=16, length=0.16)
        rng = np.random.default_rng(5)
        u = rng.uniform(-1, 1, 16)
        v = rng.uniform(-1, 1, 16)
        mu = FaceViscosity(rng.uniform(-0.005, 0.095, 16), cfg.grid)

        def step(values):
            field = CellField(values, cfg.grid)
            if scheme == "ftcs_mu":
                return ftcs_step(field, mu, cfg).values
            if scheme == "upwind":
                return upwind_step(field, cfg).values
            if scheme == "lax_wendroff":
                return lax_wendroff_step(field, cfg).values
            return ftcs_bare_step(field, cfg).values

        a, b = 1.7, -0.3
        combined = step(a * u + b * v)
        separate = a * step(u) + b * step(v)
        assert np.allclose(combined, separate, rtol=1e-13, atol=1e-15)


class TestUpwind:
    def test_preserves_constants(self):
        cfg = small_config(n=6, length=0.06)
        u = CellField(np.full(6, -1.2), cfg.grid)
        assert np.allclose(upwind_step(u, cfg).values, -1.2, atol=1e-15)

    def test_unit_cfl_is_exact_shift(self):
        grid = make_grid(8, 0.8)
        cfg = SchemeConfig(c=1.0, dt=0.1, grid=grid)  # cfl = 1
        rng = np.random.default_rng(8)
        u = CellField(rng.uniform(-1, 1, 8), grid)
        assert np.allclose(upwind_step(u, cfg).values, np.roll(u.values, 1), atol=1e-15)

    def test_hand_evaluated_stencil(self):
        cfg = small_config()
        u = CellField([0.0, 1.0, 0.0], cfg.grid)
        assert np.allclose(upwind_step(u, cfg).values, [0.0, 0.9, 0.1])

    def test_negative_speed_mirrors(self):
        grid = make_grid(8, 0.8)
        cfg = SchemeConfig(c=-1.0, dt=0.1, grid=grid)
        rng = np.random.default_rng(9)
        u = CellField(rng.uniform(-1, 1, 8), grid)
        assert np.allclose(upwind_step(u, cfg).values, np.roll(u.values, -1), atol=1e-15)

    def test_matches_loop_oracle(self):
        cfg = small_config(n=11, length=0.11)
        rng = np.random.default_rng(10)
        uv = rng.uniform(-1, 1, 11)
        stepped = upwind_step(CellField(uv, cfg.grid), cfg)
        assert np.allclose(stepped.values, naive_upwind_step(list(uv), cfg.cfl), atol=1e-15)


class TestLaxWendroff:
    def test_preserves_constants(self):
        cfg = small_config(n=6, length=0.06)
        u = CellField(np.full(6, 0.7), cfg.grid)
        assert np.allclose(lax_wendroff_step(u, cfg).values, 0.7, atol=1e-15)

    def test_equals_ftcs_with_lw_viscosity(self):
        cfg = small_config(n=25, length=0.25)
        rng = np.random.default_rng(11)
        mu_lw = cfg.c**2 * cfg.dt / 2.0
        assert mu_lw == 5e-4  # a^2*dt/2 at a=1, dt=1e-3
        mu = FaceViscosity(np.full(25, mu_lw), cfg.grid)
        for _ in range(10):
            u = CellField(rng.uniform(-1, 1, 25), cfg.grid)
            assert rel_err(lax_wendroff_step(u, cfg).values, ftcs_step(u, mu, cfg).values) < 1e-13

    def test_matches_loop_oracle(self):
        cfg = small_config(n=13, length=0.13)
        rng = np.random.default_rng(12)
        uv = rng.uniform(-1, 1, 13)
        stepped = lax_wendroff_step(CellField(uv, cfg.grid), cfg)
        assert np.allclose(stepped.values, naive_lax_wendroff_step(list(uv), cfg.cfl),
                           rtol=1e-14, atol=1e-16)


class TestAmplificationFactor:
    def test_constant_mode_is_neutral(self):
        for cfl, d in [(0.1, 0.0), (0.5, 0.2), (1.0, 0.05)]:
            assert amplification_factor(0.0, cfl, d) == 1.0

    def test_bare_ftcs_magnitude_at_quarter_wave(self):
        g = amplification_factor(np.pi / 2, cfl=0.1, diffusion_number=0.0)
        assert abs(g) == pytest.approx(np.sqrt(1.01), rel=1e-12)

    def test_matches_loop_oracle(self):
        thetas = np.linspace(0, 2 * np.pi, 17, endpoint=False)
        for theta in thetas:
            g = amplification_factor(theta, cfl=0.3, diffusion_number=0.07)
            assert abs(g) == pytest.approx(
                naive_amplification_magnitude(theta, 0.3, 0.07), rel=1e-13
            )

    def test_upwind_equivalent_viscosity_is_stable(self):
        thetas = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
        for cfl in (0.1, 0.5, 1.0):
            g = amplification_factor(thetas, cfl, diffusion_number=cfl / 2)
            assert np.max(np.abs(g)) <= 1.0 + 1e-12

    def test_lax_wendroff_viscosity_is_stable(self):
        thetas = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
        for cfl in (0.1, 0.6, 1.0):
            g = amplification_factor(thetas, cfl, diffusion_number=cfl**2 / 2)
            assert np.max(np.abs(g)) <= 1.0 + 1e-12


class TestSimulate:
    def test_zero_steps_returns_initial_state_only(self):
        cfg = small_config(n=10, length=0.1)
        u0 = CellField(np.arange(10.0), cfg.grid)
        traj = simulate(u0, 0, cfg, scheme="upwind")
        assert traj.n_steps == 0
        assert np.array_equal(traj.states[0].values, u0.values)

    def test_bare_ftcs_grows_on_sine(self):
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        traj = simulate(sine_solution(grid, 1.0, 0.0), 1000, cfg, scheme="ftcs_bare")
        norms = np.linalg.norm(traj.array, axis=1)
        assert np.all(np.diff(norms) > 0)

    def test_upwind_decays_hat_peak(self):
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        u0 = CellField(naive_hat_initial(), grid)
        traj = simulate(u0, 150, cfg, scheme="upwind")
        assert np.max(traj.states[-1].values) < 1.0

    def test_upwind_matches_loop_oracle_trajectory(self):
        grid = make_grid(50, 1.0)
        cfg = SchemeConfig(c=1.0, dt=2e-3, grid=grid)
        rng = np.random.default_rng(13)
        u0v = rng.uniform(-1, 1, 50)
        traj = simulate(CellField(u0v, grid), 20, cfg, scheme="upwind")
        oracle = naive_upwind_states(list(u0v), 20, cfg.cfl)
        assert np.allclose(traj.array, oracle, rtol=1e-13, atol=1e-15)

    def test_viscosity_history_recorded(self):
        cfg = small_config(n=10, length=0.1)
        rng = np.random.default_rng(14)
        mu_st = SpaceTimeViscosity(rng.uniform(0, 0.05, (5, 10)), cfg.grid)
        u0 = CellField(rng.uniform(-1, 1, 10), cfg.grid)
        traj = simulate(u0, 5, cfg, scheme="ftcs_mu", mu=mu_st)
        assert traj.viscosity_history is not None
        assert np.array_equal(traj.viscosity_history.values, mu_st.values)

    def test_divergence_carries_step_and_partial_trajectory(self):
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        u0 = sine_solution(grid, 1.0, 0.0)
        anti = FaceViscosity(np.full(100, -0.05), grid)  # d = -0.5, hard blowup
        with pytest.raises(DivergenceError) as excinfo:
            simulate(u0, 500, cfg, scheme="ftcs_mu", mu=anti)
        err = excinfo.value
        assert err.step is not None and 0 < err.step < 500
        assert err.trajectory is not None
        assert err.trajectory.n_steps == err.step
        assert err.trajectory.viscosity_history.n_steps == err.step

    def test_callable_mu_provider(self):
        cfg = small_config(n=10, length=0.1)
        rng = np.random.default_rng(15)
        u0 = CellField(rng.uniform(-1, 1, 10), cfg.grid)
        rows = rng.uniform(0, 0.05, (4, 10))

        def provider(n, state):
            return FaceViscosity(rows[n], cfg.grid)

        traj = simulate(u0, 4, cfg, scheme="ftcs_mu", mu=provider)
        reference = simulate(u0, 4, cfg, scheme="ftcs_mu",
                             mu=SpaceTimeViscosity(rows, cfg.grid))
        assert np.array_equal(traj.array, reference.array)
        assert np.array_equal(traj.viscosity_history.values, rows)

    def test_mu_provider_validation(self):
        cfg = small_config()
        u0 = CellField(np.zeros(3), cfg.grid)
        with pytest.raises(ValueError):
            simulate(u0, 1, cfg, scheme="ftcs_mu", mu=None)
        with pytest.raises(ValueError):
            simulate(u0, 1, cfg, scheme="upwind", mu=FaceViscosity(np.zeros(3), cfg.grid))
        with pytest.raises(ValueError):
            simulate(u0, 1, cfg, scheme="nonsense")


def naive_hat_initial():
    from oracles import naive_hat

    return naive_hat(100, 0.01, 0.0)
