"""Learned space-time artificial viscosity closures for 1D linear advection."""

from .adjoint import (
    fd_gradient,
    grad_mu_global,
    loss_value,
)
from .diagnostics import (
    mse,
    mu_stats,
    total_variation,
)
from .grid import (
    Grid1D,
    InitialCondition,
    exact_solution,
    make_grid,
)
from .optimizer import (
    OptimizerConfig,
    TrainingReport,
    constant_mu_grid_search,
    train_global,
    train_per_step,
)
from .schemes import (
    SchemeConfig,
    Trajectory,
    amplification_factor,
    ftcs_update,
    simulate,
)

__version__ = "0.1.0"
