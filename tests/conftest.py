import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np

from advisc.grid import InitialCondition, exact_solution, make_grid
from advisc.optimizer import OptimizerConfig, train_per_step
from advisc.presets import PAPER_HAT
from advisc.schemes import SchemeConfig


@pytest.fixture(scope="session")
def paper_problem():
    """Reference problem: N=100, unit domain, c=1, dt=1e-3, hat on (0.4, 0.6).

    ``exact`` holds the exact states of the 150-step horizon, one row per step;
    ``u0`` is its first row.
    """
    grid = make_grid(100, 1.0)
    cfg = SchemeConfig(c=1.0, dt=1e-3, grid=grid)
    profile = InitialCondition()
    exact = exact_solution(profile, grid, cfg.c, np.arange(151) * cfg.dt)
    return cfg, profile, exact[0], exact


@pytest.fixture(scope="session")
def paper_training_report(paper_problem):
    """One shared per-step training run of the reference experiment, with its runtime."""
    cfg, _, _, exact = paper_problem
    opt = OptimizerConfig(learning_rate=1e-2, n_iters=200, mu_min=-5e-3, mu_max=9.5e-2)
    start = time.perf_counter()
    report = train_per_step(cfg, opt, exact)
    elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.fixture
def short_presets(monkeypatch):
    """Every preset and study run cut to ten steps, T = 0.01, for the tests
    that need a study's files rather than its results."""
    monkeypatch.setitem(PAPER_HAT["simulation"], "t_final", 0.01)
