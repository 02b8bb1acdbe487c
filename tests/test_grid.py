import numpy as np
import pytest

from advisc.grid import (
    CellField,
    FaceViscosity,
    Grid1D,
    PROFILES,
    InitialCondition,
    SpaceTimeViscosity,
    exact_solution,
    make_grid,
)

from oracles import naive_hat


class TestMakeGrid:
    @pytest.mark.parametrize(
        "n, length, dx",
        [(100, 1.0, 0.01), (3, 3.0, 1.0), (16, 1.0, 0.0625)],
    )
    def test_spacing(self, n, length, dx):
        grid = make_grid(n, length)
        assert grid.dx == dx
        assert grid.n_cells == n

    def test_cell_centers(self):
        grid = make_grid(4, 1.0)
        assert np.allclose(grid.cell_centers, [0.125, 0.375, 0.625, 0.875])

    def test_face_positions(self):
        grid = make_grid(4, 1.0)
        assert np.allclose(grid.face_positions, [0.25, 0.5, 0.75, 1.0])

    def test_length_is_n_times_dx(self):
        grid = make_grid(7, 2.5)
        assert grid.length == grid.n_cells * grid.dx

    @pytest.mark.parametrize("n, length", [(2, 1.0), (0, 1.0), (3.5, 1.0), (10, 0.0), (10, -1.0)])
    def test_rejects_bad_construction(self, n, length):
        with pytest.raises(ValueError):
            make_grid(n, length)

    @pytest.mark.parametrize("dx", [0.0, -0.1, np.inf])
    def test_grid_rejects_a_spacing_that_is_not_positive_and_finite(self, dx):
        with pytest.raises(ValueError):
            Grid1D(n_cells=10, dx=dx)

    def test_integral_float_cell_count_is_stored_as_int(self):
        for grid in (make_grid(4.0, 1.0), Grid1D(4.0, 0.25)):
            assert grid.n_cells == 4 and type(grid.n_cells) is int


class TestFieldContainers:
    def test_length_mismatch_rejected(self):
        grid = make_grid(4, 1.0)
        with pytest.raises(ValueError):
            CellField([1.0, 2.0], grid)
        with pytest.raises(ValueError):
            FaceViscosity([1.0, 2.0, 3.0], grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        grid = make_grid(3, 1.0)
        with pytest.raises(ValueError):
            CellField([0.0, bad, 0.0], grid)

    def test_values_are_immutable(self):
        grid = make_grid(3, 1.0)
        field = CellField([1.0, 2.0, 3.0], grid)
        with pytest.raises(ValueError):
            field.values[0] = 5.0

    def test_spacetime_shape_checked(self):
        grid = make_grid(4, 1.0)
        with pytest.raises(ValueError):
            SpaceTimeViscosity(np.zeros((2, 3)), grid)
        stack = SpaceTimeViscosity(np.zeros((5, 4)), grid)
        assert stack.n_steps == 5
        assert stack.values[2].shape == (4,)


class TestExactSolution:
    def test_initial_hat_occupies_cells_40_to_59(self):
        grid = make_grid(100, 1.0)
        field = exact_solution(InitialCondition(), grid, c=1.0, t=0.0)
        nonzero = np.nonzero(field)[0]
        assert nonzero.min() == 40 and nonzero.max() == 59
        assert np.all(field[nonzero] == 1.0)

    def test_matches_loop_oracle_at_random_times(self):
        grid = make_grid(100, 1.0)
        for t in (0.0, 0.0371, 0.15, 1.23):
            field = exact_solution(InitialCondition(), grid, c=1.0, t=t)
            assert np.array_equal(field, naive_hat(100, 0.01, t))

    def test_fifteen_cell_shift(self):
        # 0.15 / dx = 15 exact whole-cell shifts at c = 1
        grid = make_grid(100, 1.0)
        t0 = exact_solution(InitialCondition(), grid, c=1.0, t=0.0)
        t15 = exact_solution(InitialCondition(), grid, c=1.0, t=0.15)
        assert np.array_equal(t15, np.roll(t0, 15))

    def test_edges_are_strict(self):
        # center x_0 = 0.5 * 0.8 = 0.4 lands exactly on the lower edge
        grid = make_grid(5, 4.0)
        assert grid.cell_centers[0] == 0.4
        field = exact_solution(InitialCondition(), grid, c=1.0, t=0.0)
        assert field[0] == 0.0

    def test_mass_invariant_under_whole_cell_shifts(self):
        grid = make_grid(100, 1.0)
        mass0 = np.sum(exact_solution(InitialCondition(), grid, 1.0, 0.0)) * grid.dx
        for k in (1, 7, 50, 100):
            t = k * grid.dx  # c*t/dx integral
            mass = np.sum(exact_solution(InitialCondition(), grid, 1.0, t)) * grid.dx
            assert mass == pytest.approx(mass0, abs=1e-15)

    def test_sine_translation_matches_phase(self):
        grid = make_grid(50, 1.0)
        shifted = exact_solution(InitialCondition(kind="sine"), grid, c=2.0, t=0.25)
        expected = np.sin(2 * np.pi * (grid.cell_centers - 0.5))
        assert np.allclose(shifted, expected, atol=1e-14)


# A non-default initial condition of each kind in PROFILES.
EVERY_KIND = {
    "hat": InitialCondition(kind="hat", lo=0.13, hi=0.71, amplitude=0.7),
    "sine": InitialCondition(kind="sine", wavenumber=3, amplitude=1.3),
}


@pytest.mark.parametrize("kind", PROFILES)
class TestEveryProfile:
    @pytest.mark.parametrize("n", [100, 200, 1000, 10_000])
    def test_array_of_times_stacks_scalar_samples(self, kind, n):
        grid = make_grid(n, 1.0)
        times = np.arange(151) * 1e-3
        rows = exact_solution(EVERY_KIND[kind], grid, 1.0, times)
        assert rows.shape == (151, n)
        scalar = np.stack([exact_solution(EVERY_KIND[kind], grid, 1.0, t) for t in times])
        assert np.array_equal(rows, scalar)

    def test_full_period_translation_is_identity(self, kind):
        grid = make_grid(64, 1.0)
        t0 = exact_solution(EVERY_KIND[kind], grid, c=1.0, t=0.0)
        t1 = exact_solution(EVERY_KIND[kind], grid, c=1.0, t=1.0)
        assert np.allclose(t0, t1, rtol=0.0, atol=1e-12)

    def test_negative_time_rejected(self, kind):
        grid = make_grid(10, 1.0)
        with pytest.raises(ValueError):
            exact_solution(EVERY_KIND[kind], grid, c=1.0, t=-0.1)
        with pytest.raises(ValueError):
            exact_solution(EVERY_KIND[kind], grid, c=1.0, t=np.array([0.0, -0.1]))
