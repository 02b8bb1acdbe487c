"""Periodic 1D grid, field containers, and the initial conditions with
their translated exact solutions.

``InitialCondition`` validates the settings of every kind and, in
``check_inside``, that they fit a domain; ``exact_solution`` samples any
kind through the ``PROFILES`` table.

All containers are immutable after construction: the wrapped numpy arrays
are defensive copies with the writeable flag cleared, so instances can be
shared freely across threads. Nothing in the package uses the field
containers, and the package does not export them; the benchmark's tracer
hooks each of them here by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _frozen_array(values, n_expected: int | None = None) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    if out.ndim != 1:
        raise ValueError(f"expected a 1D sequence, got shape {out.shape}")
    if n_expected is not None and out.shape[0] != n_expected:
        raise ValueError(
            f"length {out.shape[0]} does not match grid with {n_expected} cells"
        )
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite entries violate the finite-value contract")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid of ``n_cells`` cells of width ``dx``.

    Cell center i sits at x_i = (i + 1/2) * dx; face i+1/2 (between cells
    i and i+1 mod n) sits at x = (i + 1) * dx. Indices wrap modulo n_cells.
    The domain length is defined as n_cells * dx.
    """

    n_cells: int
    dx: float

    def __post_init__(self) -> None:
        if int(self.n_cells) != self.n_cells or self.n_cells < 3:
            raise ValueError("n_cells must be an integer >= 3 (stencils need two neighbors)")
        object.__setattr__(self, "n_cells", int(self.n_cells))
        if not (np.isfinite(self.dx) and self.dx > 0):
            raise ValueError("dx must be positive and finite")

    @property
    def length(self) -> float:
        return self.n_cells * self.dx

    @property
    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def face_positions(self) -> np.ndarray:
        """Position of face i+1/2 for i = 0 .. n_cells-1."""
        return (np.arange(self.n_cells) + 1.0) * self.dx


def make_grid(n_cells: int, length: float) -> Grid1D:
    """Build a periodic grid with dx = length / n_cells; ``Grid1D`` checks n_cells."""
    if not (np.isfinite(length) and length > 0):
        raise ValueError("length must be positive and finite")
    # Grid1D rejects n_cells = 0 before it reads dx
    return Grid1D(n_cells=n_cells, dx=length / n_cells if n_cells else np.inf)


@dataclass(frozen=True)
class CellField:
    """Cell-centered values at one time level. Entries must be finite."""

    values: np.ndarray
    grid: Grid1D

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_array(self.values, self.grid.n_cells))


@dataclass(frozen=True)
class FaceViscosity:
    """Face viscosity coefficients; entry i holds mu at face i+1/2."""

    values: np.ndarray
    grid: Grid1D

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_array(self.values, self.grid.n_cells))


@dataclass(frozen=True)
class SpaceTimeViscosity:
    """Per-step stack of face viscosities: row n is the field applied at step n."""

    values: np.ndarray
    grid: Grid1D

    def __post_init__(self) -> None:
        out = np.array(self.values, dtype=float, copy=True)
        if out.ndim != 2 or out.shape[1] != self.grid.n_cells:
            raise ValueError(
                f"expected shape (n_steps, {self.grid.n_cells}), got {out.shape}"
            )
        if not np.all(np.isfinite(out)):
            raise ValueError("non-finite entries violate the finite-value contract")
        out.setflags(write=False)
        object.__setattr__(self, "values", out)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class InitialCondition:
    """Initial profile of a run: one of the kinds in ``PROFILES``.

    ``hat``: value ``amplitude`` strictly inside (lo, hi), else 0, with the
    edges in the physical domain; values at exactly lo or hi are 0.
    ``sine``: ``amplitude * sin(2 pi wavenumber x / length)``. Each kind
    reads only its own fields.
    """

    kind: str = "hat"
    lo: float = 0.4
    hi: float = 0.6
    amplitude: float = 1.0
    wavenumber: int = 1

    def __post_init__(self) -> None:
        if self.kind not in PROFILES:
            raise ValueError(
                f"initial_condition kind must be one of {tuple(PROFILES)}, got {self.kind!r}"
            )
        if not np.isfinite(self.amplitude):
            raise ValueError("initial_condition amplitude must be finite")
        if self.kind == "hat" and not (0.0 <= self.lo < self.hi < np.inf):
            raise ValueError(f"hat edges must satisfy 0 <= lo < hi, got lo = {self.lo!r}, "
                             f"hi = {self.hi!r}")
        if self.kind == "sine" and (self.wavenumber < 1 or int(self.wavenumber) != self.wavenumber):
            raise ValueError("sine wavenumber must be a positive integer")

    def check_inside(self, length: float) -> None:
        """Raise ValueError unless the profile fits a periodic domain of ``length``:
        a hat's upper edge may not lie past it."""
        if self.kind == "hat" and self.hi > length:
            raise ValueError(f"hat edge hi = {self.hi!r} lies past length = {length!r}")


def _hat(ic: InitialCondition, x: np.ndarray, length: float) -> np.ndarray:
    frac = np.mod(x, length, out=x)
    inside = ic.lo < frac
    inside &= frac < ic.hi
    x[...] = 0.0
    x[inside] = ic.amplitude
    return x


def _sine(ic: InitialCondition, x: np.ndarray, length: float) -> np.ndarray:
    np.multiply(2.0 * np.pi * ic.wavenumber, x, out=x)
    np.divide(x, length, out=x)
    return np.multiply(np.sin(x, out=x), ic.amplitude, out=x)


# The initial-condition kinds: each maps the cell centers translated back to
# t = 0, x_i - c*t, to the profile's values there. Each works in place on
# that fresh array, so a result is not held three times while it is formed.
PROFILES = {"hat": _hat, "sine": _sine}


def exact_solution(
    ic: InitialCondition, grid: Grid1D, c: float, t: float | np.ndarray
) -> np.ndarray:
    """The initial profile translated with speed c on the periodic domain,
    sampled at cell centers.

    ``t`` is a scalar or an array of non-negative times; the result has
    shape np.shape(t) + (n_cells,), one row per time.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be non-negative")
    ic.check_inside(grid.length)
    return PROFILES[ic.kind](ic, grid.cell_centers - c * t[..., None], grid.length)
