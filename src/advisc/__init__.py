"""Learned space-time artificial viscosity closures for 1D linear advection."""

from .adjoint import (
    fd_gradient,
    grad_mu_global,
    grad_mu_instantaneous,
    loss_value,
)
from .diagnostics import (
    EntropyReport,
    ec_es_split,
    entropy_report,
    mse,
    mu_stats,
    total_variation,
)
from .grid import (
    CellField,
    FaceViscosity,
    Grid1D,
    HatProfile,
    SpaceTimeViscosity,
    exact_solution,
    make_grid,
    sine_solution,
)
from .optimizer import (
    OptimizerConfig,
    TrainingReport,
    constant_mu_grid_search,
    regularizer_gradient,
    train_global,
    train_per_step,
)
from .schemes import (
    DivergenceError,
    SchemeConfig,
    Trajectory,
    amplification_factor,
    ftcs_bare_step,
    ftcs_update,
    lax_wendroff_step,
    simulate,
    upwind_step,
)

__version__ = "0.1.0"
