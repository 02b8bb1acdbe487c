import numpy as np
import pytest

from advisc.grid import InitialCondition, exact_solution, make_grid
from advisc.schemes import (
    CLASSICAL_MU,
    MAGNITUDE_GUARD,
    SchemeConfig,
    Trajectory,
    _row_stepper,
    amplification_factor,
    ftcs_update,
    simulate,
)

from oracles import (
    naive_amplification_magnitude,
    naive_ftcs_mu_step,
    naive_lax_wendroff_step,
    naive_upwind_step,
    naive_upwind_states,
    reference_ftcs_flux,
)


def small_config(n=3, length=0.03, c=1.0, dt=1e-3):
    grid = make_grid(n, length)
    return SchemeConfig(c=c, dt=dt, grid=grid)


def one_step(u, cfg, scheme):
    """The state after one simulate step of a classical scheme from ``u``."""
    return simulate(u, 1, cfg, scheme=scheme).states[1]


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-30)


def flux(u, mu, cfg):
    """Face flux F_{i+1/2} of ftcs_update."""
    return reference_ftcs_flux(u, mu, cfg.c, cfg.grid.dx)


class TestFtcsFlux:
    def test_constant_state_gives_advective_flux(self):
        cfg = small_config(n=5, length=0.05)
        u = np.full(5, 3.0)
        mu = np.linspace(-0.005, 0.09, 5)
        assert np.allclose(flux(u, mu, cfg), 3.0 * cfg.c, atol=1e-15)

    def test_zero_viscosity_is_face_average(self):
        cfg = small_config()
        u = np.array([0.0, 1.0, 0.0])
        mu = np.zeros(3)
        assert np.allclose(flux(u, mu, cfg), [0.5, 0.5, 0.0])

    def test_hand_evaluated_viscous_flux(self):
        # mu/dx = 1, jumps are (+1, -1, 0) across the three faces
        cfg = small_config()
        u = np.array([0.0, 1.0, 0.0])
        mu = np.full(3, 0.01)
        assert np.allclose(flux(u, mu, cfg), [-0.5, 1.5, 0.0])


class TestFtcsStep:
    def test_preserves_constants(self):
        cfg = small_config(n=8, length=0.08)
        u = np.full(8, 2.5)
        mu = np.linspace(-0.004, 0.09, 8)
        assert np.allclose(ftcs_update(u, mu, cfg), 2.5, atol=1e-15)

    def test_zero_mu_reduces_to_bare_ftcs(self):
        cfg = small_config(n=12, length=0.12)
        rng = np.random.default_rng(1)
        u = rng.uniform(-1, 1, 12)
        oracle = naive_ftcs_mu_step(list(u), [0.0] * 12, cfg.c, cfg.dt, cfg.grid.dx)
        assert np.array_equal(ftcs_update(u, np.zeros(12), cfg), oracle)

    def test_kernel_rejects_shapes_off_the_grid(self):
        cfg = small_config(n=5, length=0.05)
        with pytest.raises(ValueError):
            ftcs_update(np.zeros(5), np.zeros(1), cfg)  # would broadcast
        with pytest.raises(ValueError):
            ftcs_update(np.zeros(4), np.zeros(4), cfg)
        with pytest.raises(ValueError):
            ftcs_update(np.zeros((2, 5)), np.zeros((2, 5)), cfg)  # a stack of states

    def test_matches_loop_oracle(self):
        cfg = small_config(n=9, length=0.09)
        rng = np.random.default_rng(2)
        uv = rng.uniform(-1, 1, 9)
        muv = rng.uniform(-0.005, 0.095, 9)
        stepped = ftcs_update(uv, muv, cfg)
        oracle = naive_ftcs_mu_step(list(uv), list(muv), cfg.c, cfg.dt, cfg.grid.dx)
        assert np.allclose(stepped, oracle, rtol=1e-14, atol=1e-16)

    def test_upwind_equivalence(self):
        cfg = small_config(n=20, length=0.2)
        rng = np.random.default_rng(3)
        mu = np.full(20, CLASSICAL_MU["upwind"](cfg))
        for _ in range(10):
            u = rng.uniform(-1, 1, 20)
            stepped = ftcs_update(u, mu, cfg)
            assert rel_err(stepped, naive_upwind_step(list(u), cfg.cfl)) < 1e-13

    def test_single_step_mass_conservation_any_mu(self):
        # telescoping flux sum: |delta mass| <= 10*eps*n*max|F| even at signed mu
        cfg = small_config(n=100, length=1.0)
        rng = np.random.default_rng(4)
        u = rng.uniform(-1, 1, 100)
        mu = rng.uniform(-0.005, 0.095, 100)
        flux_scale = np.max(np.abs(flux(u, mu, cfg)))
        mass0 = np.sum(u) * cfg.grid.dx
        mass1 = np.sum(ftcs_update(u, mu, cfg)) * cfg.grid.dx
        assert abs(mass1 - mass0) <= 10 * np.finfo(float).eps * 100 * flux_scale

    def test_mass_conserved_over_many_stable_steps(self):
        cfg = small_config(n=100, length=1.0)
        uv = np.array(naive_hat_initial())
        mu = np.full(100, 0.005)  # upwind-equivalent, stable
        mass0 = np.sum(uv) * cfg.grid.dx
        for _ in range(150):
            uv = ftcs_update(uv, mu, cfg)
        mass = np.sum(uv) * cfg.grid.dx
        assert abs(mass - mass0) <= 1e-12 * max(abs(mass0), 1.0)

    @pytest.mark.parametrize("scheme", ["ftcs_mu", "upwind", "lax_wendroff", "ftcs_bare"])
    def test_every_stepper_is_linear_in_state(self, scheme):
        cfg = small_config(n=16, length=0.16)
        rng = np.random.default_rng(5)
        u = rng.uniform(-1, 1, 16)
        v = rng.uniform(-1, 1, 16)
        mu = rng.uniform(-0.005, 0.095, 16)

        def step(values):
            if scheme == "ftcs_mu":
                return ftcs_update(values, mu, cfg)
            return one_step(values, cfg, scheme)

        a, b = 1.7, -0.3
        combined = step(a * u + b * v)
        separate = a * step(u) + b * step(v)
        assert np.allclose(combined, separate, rtol=1e-13, atol=1e-15)


class TestRowStepper:
    """``_row_stepper`` binds the kernel once: load(u) forms the face terms of
    u and returns its jumps, and step(out, u, mu) steps the loaded u."""

    @pytest.mark.parametrize("c", [1.0, -1.0])
    def test_a_state_loaded_once_steps_at_two_viscosities(self, c):
        cfg = small_config(n=12, length=0.12, c=c)
        rng = np.random.default_rng(6)
        u = rng.uniform(-1, 1, 12)
        load, step = _row_stepper(cfg)
        assert np.array_equal(load(u), np.roll(u, -1) - u)
        out = np.empty(12)
        for mu in (rng.uniform(-0.005, 0.095, 12), np.zeros(12)):
            step(out, u, mu)
            assert np.array_equal(out, ftcs_update(u, mu, cfg))

    def test_a_batch_binding_equals_single_rows_column_by_column(self):
        cfg = small_config(n=12, length=0.12)
        rng = np.random.default_rng(7)
        u = rng.uniform(-1, 1, (12, 4))
        mu = rng.uniform(-0.005, 0.095, (12, 4))
        load, step = _row_stepper(cfg, (4,))
        jumps, out = load(u).copy(), np.empty((12, 4))
        step(out, u, mu)
        for b in range(4):
            load_one, step_one = _row_stepper(cfg)
            assert np.array_equal(load_one(u[:, b]), jumps[:, b])
            column = np.empty(12)
            step_one(column, u[:, b], mu[:, b])
            assert np.array_equal(column, out[:, b])

    def test_loading_a_new_state_replaces_the_old(self):
        cfg = small_config(n=12, length=0.12)
        rng = np.random.default_rng(8)
        u, v = rng.uniform(-1, 1, 12), rng.uniform(-1, 1, 12)
        mu = rng.uniform(-0.005, 0.095, 12)
        load, step = _row_stepper(cfg)
        out = np.empty(12)
        load(u)
        step(out, u, mu)
        load(v)
        step(out, v, mu)
        assert np.array_equal(out, ftcs_update(v, mu, cfg))


class TestUpwind:
    def test_preserves_constants(self):
        cfg = small_config(n=6, length=0.06)
        u = np.full(6, -1.2)
        assert np.allclose(one_step(u, cfg, "upwind"), -1.2, atol=1e-15)

    def test_unit_cfl_is_exact_shift(self):
        grid = make_grid(8, 0.8)
        cfg = SchemeConfig(c=1.0, dt=0.1, grid=grid)  # cfl = 1
        rng = np.random.default_rng(8)
        u = rng.uniform(-1, 1, 8)
        assert np.allclose(one_step(u, cfg, "upwind"), np.roll(u, 1), atol=1e-15)

    def test_hand_evaluated_stencil(self):
        cfg = small_config()
        u = np.array([0.0, 1.0, 0.0])
        assert np.allclose(one_step(u, cfg, "upwind"), [0.0, 0.9, 0.1])

    def test_negative_speed_mirrors(self):
        grid = make_grid(8, 0.8)
        cfg = SchemeConfig(c=-1.0, dt=0.1, grid=grid)
        rng = np.random.default_rng(9)
        u = rng.uniform(-1, 1, 8)
        assert np.allclose(one_step(u, cfg, "upwind"), np.roll(u, -1), atol=1e-15)

    def test_matches_loop_oracle(self):
        cfg = small_config(n=11, length=0.11)
        rng = np.random.default_rng(10)
        uv = rng.uniform(-1, 1, 11)
        stepped = one_step(uv, cfg, "upwind")
        assert np.allclose(stepped, naive_upwind_step(list(uv), cfg.cfl), atol=1e-15)


class TestLaxWendroff:
    def test_preserves_constants(self):
        cfg = small_config(n=6, length=0.06)
        u = np.full(6, 0.7)
        assert np.allclose(one_step(u, cfg, "lax_wendroff"), 0.7, atol=1e-15)

    def test_equals_ftcs_with_lw_viscosity(self):
        cfg = small_config(n=25, length=0.25)
        rng = np.random.default_rng(11)
        mu_lw = cfg.c**2 * cfg.dt / 2.0
        assert mu_lw == 5e-4  # a^2*dt/2 at a=1, dt=1e-3
        mu = np.full(25, mu_lw)
        for _ in range(10):
            u = rng.uniform(-1, 1, 25)
            stepped = ftcs_update(u, mu, cfg)
            assert rel_err(one_step(u, cfg, "lax_wendroff"), stepped) < 1e-13

    def test_matches_loop_oracle(self):
        cfg = small_config(n=13, length=0.13)
        rng = np.random.default_rng(12)
        uv = rng.uniform(-1, 1, 13)
        stepped = one_step(uv, cfg, "lax_wendroff")
        assert np.allclose(stepped, naive_lax_wendroff_step(list(uv), cfg.cfl),
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
        u0 = np.arange(10.0)
        traj = simulate(u0, 0, cfg, scheme="upwind")
        assert traj.n_steps == 0
        assert np.array_equal(traj.states[0], u0)

    @pytest.mark.parametrize("n_steps", [-1, 2.5])
    def test_step_count_must_be_a_non_negative_integer(self, n_steps):
        cfg = small_config(n=10, length=0.1)
        with pytest.raises(ValueError):
            simulate(np.zeros(10), n_steps, cfg, scheme="upwind")

    def test_bare_ftcs_grows_on_sine(self):
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        u0 = exact_solution(InitialCondition(kind="sine"), grid, 1.0, 0.0)
        traj = simulate(u0, 1000, cfg, scheme="ftcs_bare")
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.all(np.diff(norms) > 0)

    def test_upwind_decays_hat_peak(self):
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        traj = simulate(naive_hat_initial(), 150, cfg, scheme="upwind")
        assert np.max(traj.states[-1]) < 1.0

    @pytest.mark.parametrize("shape", ["scalar", "row", "stack"])
    def test_ftcs_mu_matches_loop_oracle_bit_for_bit(self, shape):
        cfg = small_config(n=12, length=0.12)
        rng = np.random.default_rng(14)
        u0 = rng.uniform(-1, 1, 12)
        steps = 6
        mu = {"scalar": 0.02, "row": rng.uniform(-0.005, 0.095, 12),
              "stack": rng.uniform(-0.005, 0.095, (steps, 12))}[shape]
        rows = np.broadcast_to(mu, (steps, 12))
        expected = [list(u0)]
        for m in range(steps):
            expected.append(naive_ftcs_mu_step(expected[-1], list(rows[m]), cfg.c, cfg.dt,
                                               cfg.grid.dx))
        assert np.array_equal(simulate(u0, steps, cfg, mu=mu).states, np.array(expected))

    def test_upwind_matches_loop_oracle_trajectory(self):
        grid = make_grid(50, 1.0)
        cfg = SchemeConfig(c=1.0, dt=2e-3, grid=grid)
        rng = np.random.default_rng(13)
        u0v = rng.uniform(-1, 1, 50)
        traj = simulate(u0v, 20, cfg, scheme="upwind")
        oracle = naive_upwind_states(list(u0v), 20, cfg.cfl)
        assert np.allclose(traj.states, oracle, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("scheme", ["upwind", "lax_wendroff", "ftcs_bare"])
    def test_classical_states_equal_loop_oracle_bit_for_bit(self, scheme):
        # Lax-Wendroff keeps its own stencil's arithmetic order; the other
        # classical schemes are the FTCS loop at their table viscosity.
        for c in (1.0, -1.0):
            cfg = SchemeConfig(c=c, dt=2e-3, grid=make_grid(50, 1.0))
            mu = [CLASSICAL_MU[scheme](cfg)] * 50
            u = list(np.random.default_rng(16).uniform(-1, 1, 50))
            expected = [u]
            for _ in range(40):
                if scheme == "lax_wendroff":
                    u = naive_lax_wendroff_step(u, cfg.cfl)
                else:
                    u = naive_ftcs_mu_step(u, mu, cfg.c, cfg.dt, cfg.grid.dx)
                expected.append(u)
            traj = simulate(np.array(expected[0]), 40, cfg, scheme=scheme)
            assert np.array_equal(traj.states, np.array(expected))

    def test_viscosity_history_recorded(self):
        cfg = small_config(n=10, length=0.1)
        rng = np.random.default_rng(14)
        mu_st = rng.uniform(0, 0.05, (5, 10))
        u0 = rng.uniform(-1, 1, 10)
        traj = simulate(u0, 5, cfg, scheme="ftcs_mu", mu=mu_st)
        assert traj.viscosity_history is not None
        assert np.array_equal(traj.viscosity_history, mu_st)

    def test_divergence_carries_step_and_partial_trajectory(self):
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        u0 = exact_solution(InitialCondition(kind="sine"), grid, 1.0, 0.0)
        anti = np.full(100, -0.05)  # d = -0.5, hard blowup
        traj = simulate(u0, 500, cfg, scheme="ftcs_mu", mu=anti)
        step = traj.n_steps  # the step whose output tripped the guard
        assert 0 < step < 500
        bound = MAGNITUDE_GUARD * max(1.0, np.max(np.abs(u0)))
        assert np.max(np.abs(traj.states)) <= bound
        assert np.max(np.abs(ftcs_update(traj.states[-1], anti, cfg))) > bound
        assert traj.viscosity_history.shape == (step, 100)
        assert np.array_equal(traj.states, simulate(u0, step, cfg, mu=anti).states)

    def test_a_diverged_run_holds_only_the_rows_it_kept(self):
        grid = make_grid(100, 1.0)
        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
        u0 = exact_solution(InitialCondition(kind="sine"), grid, 1.0, 0.0)
        traj = simulate(u0, 20000, cfg, scheme="ftcs_mu", mu=np.full((20000, 100), -0.05))
        assert traj.n_steps < 100
        assert traj.states.base.nbytes == traj.states.nbytes
        assert traj.viscosity_history.base.nbytes == traj.viscosity_history.nbytes

    def test_classical_overflow_is_divergence_with_partial_trajectory(self):
        cfg = small_config(n=50, length=1.0)
        u0 = np.where(np.arange(50) % 7 == 0, 1e308, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = simulate(u0, 10, cfg, scheme="lax_wendroff")
        assert np.array_equal(traj.states, u0[None, :])
        assert traj.viscosity_history is None

    def test_magnitude_guard_on_first_step_gives_empty_partial(self):
        cfg = small_config(n=10, length=0.1)
        u0 = np.linspace(-1, 1, 10)
        # d = mu*dt/dx^2 = 1e7: finite, but far past MAGNITUDE_GUARD * max|u0| after one step
        mu = np.full(10, 1e6)
        traj = simulate(u0, 5, cfg, scheme="ftcs_mu", mu=mu)
        assert np.array_equal(traj.states, u0[None, :])
        assert traj.viscosity_history.shape == (0, 10)

    def test_constant_mu_matches_repeated_rows(self):
        cfg = small_config(n=10, length=0.1)
        rng = np.random.default_rng(15)
        u0 = rng.uniform(-1, 1, 10)
        row = rng.uniform(0, 0.05, 10)
        rows = np.tile(row, (4, 1))

        traj = simulate(u0, 4, cfg, scheme="ftcs_mu", mu=row)
        reference = simulate(u0, 4, cfg, scheme="ftcs_mu", mu=rows)
        assert np.array_equal(traj.states, reference.states)
        assert np.array_equal(traj.viscosity_history, rows)

    def test_scalar_mu_matches_constant_row(self):
        cfg = small_config(n=10, length=0.1)
        u0 = np.random.default_rng(17).uniform(-1, 1, 10)
        traj = simulate(u0, 4, cfg, mu=0.02)
        reference = simulate(u0, 4, cfg, mu=np.full(10, 0.02))
        assert np.array_equal(traj.states, reference.states)
        assert np.array_equal(traj.viscosity_history, np.full((4, 10), 0.02))

    @pytest.mark.parametrize("u0,mu", [
        (np.zeros(9), 0.01),                      # u0 off the grid
        (np.array([0.0, np.nan] + [0.0] * 8), 0.01),
        (np.zeros(10), np.zeros(9)),              # a row off the grid
        (np.zeros(10), np.zeros((3, 10))),        # rows != steps
        (np.zeros(10), np.full(10, np.inf)),
    ], ids=["u0_shape", "u0_nonfinite", "mu_row_length", "mu_rows", "mu_nonfinite"])
    def test_array_inputs_validated(self, u0, mu):
        cfg = small_config(n=10, length=0.1)
        with pytest.raises(ValueError):
            simulate(u0, 4, cfg, mu=mu)

    def test_mu_provider_validation(self):
        cfg = small_config()
        u0 = np.zeros(3)
        with pytest.raises(ValueError):
            simulate(u0, 1, cfg, scheme="ftcs_mu", mu=None)
        with pytest.raises(ValueError):
            simulate(u0, 1, cfg, scheme="upwind", mu=np.zeros(3))
        with pytest.raises(ValueError):
            simulate(u0, 1, cfg, scheme="nonsense")



class TestTrajectory:
    @pytest.mark.parametrize("shape", [(4,), (0, 10), (3, 9), (2, 10, 1)],
                             ids=["1d", "no_rows", "wrong_cells", "3d"])
    def test_wrong_shape_rejected(self, shape):
        cfg = small_config(n=10, length=0.1)
        with pytest.raises(ValueError):
            Trajectory(states=np.zeros(shape), config=cfg)

    @pytest.mark.parametrize("history", [np.zeros((2, 10)), np.zeros((3, 9)), np.zeros(10),
                                         np.full((3, 10), np.nan)],
                             ids=["rows", "faces", "1d", "nonfinite"])
    def test_bad_viscosity_history_rejected(self, history):
        cfg = small_config(n=10, length=0.1)
        with pytest.raises(ValueError):
            Trajectory(states=np.zeros((4, 10)), config=cfg, viscosity_history=history)

    def test_viscosity_history_keeps_its_values_when_the_caller_edits_mu(self):
        cfg = small_config(n=10, length=0.1)
        for mu in (np.full((3, 10), 0.01), np.full(10, 0.01)):
            traj = simulate(np.arange(10.0), 3, cfg, mu=mu)
            mu[...] = 0.02
            assert np.array_equal(traj.viscosity_history, np.full((3, 10), 0.01))

    def test_viscosity_history_is_read_only(self):
        cfg = small_config(n=10, length=0.1)
        traj = simulate(np.arange(10.0), 3, cfg, mu=np.full((3, 10), 0.01))
        with pytest.raises(ValueError):
            traj.viscosity_history[0, 0] = 0.0

    def test_simulate_checks_its_inputs_once(self, monkeypatch):
        import advisc.schemes

        checked = []
        original = advisc.schemes._checked

        def recording(values, shape, what):
            checked.append(what)
            return original(values, shape, what)

        monkeypatch.setattr(advisc.schemes, "_checked", recording)
        cfg = small_config(n=10, length=0.1)
        simulate(np.arange(10.0), 3, cfg, mu=np.full((3, 10), 0.01))
        assert checked == ["u0", "mu"]
        Trajectory(states=np.zeros((4, 10)), config=cfg, viscosity_history=np.zeros((3, 10)))
        assert checked == ["u0", "mu", "states", "viscosity_history"]

    def test_states_are_read_only(self):
        cfg = small_config(n=10, length=0.1)
        traj = simulate(np.arange(10.0), 3, cfg, scheme="upwind")
        assert traj.states.shape == (4, 10)
        with pytest.raises(ValueError):
            traj.states[1, 2] = 0.0

def naive_hat_initial():
    from oracles import naive_hat

    return naive_hat(100, 0.01, 0.0)
