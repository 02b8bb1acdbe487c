"""Learned space-time artificial viscosity closures for 1D linear advection."""

from .adjoint import (
    AdjointState,
    LossSpec,
    fd_gradient,
    grad_mu_global,
    grad_mu_instantaneous,
    loss_value,
    step_transpose_apply,
)
from .diagnostics import (
    EntropyReport,
    MuStats,
    ec_es_split,
    entropy_report,
    error_field,
    mse,
    mu_stats,
    total_entropy,
    total_variation,
)
from .grid import (
    CellField,
    FaceViscosity,
    Grid1D,
    HatProfile,
    SpaceTimeViscosity,
    exact_solution,
    hat_provider,
    make_grid,
    periodic_shift,
    sine_provider,
    sine_solution,
)
from .optimizer import (
    OptimizerConfig,
    TrainingReport,
    constant_mu_grid_search,
    project_bounds,
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
    ftcs_flux,
    ftcs_step,
    ftcs_update,
    lax_wendroff_step,
    simulate,
    upwind_step,
)

__version__ = "0.1.0"
