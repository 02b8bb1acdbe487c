"""Command-line harness: run simulations, train closures, analyze outputs,
and reproduce the reference experiments.

Exit codes: 0 success, 1 analysis check failure, 2 divergence,
3 configuration or command-line usage error, 4 I/O error, 5 optimizer
non-convergence.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
)
from .diagnostics import entropy_series, mse, mu_stats, mu_summary, summary_stats
from .grid import Grid1D, exact_solution, sine_solution
from .optimizer import TrainingReport, train_global, train_per_step
from .presets import PRESET_NAMES, STUDIES, nonneg_variant, preset_config
from .runio import (
    MANIFEST_NAME,
    read_json,
    read_manifest,
    read_matrix_csv,
    read_series_csv,
    write_columns_csv,
    write_json,
    write_manifest,
    write_matrix_csv,
    write_series_csv,
)
from .schemes import DivergenceError, SchemeConfig, Trajectory, ftcs_update, simulate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DIVERGENCE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_NO_CONVERGENCE = 5

ANALYSIS_NAME = "analysis.json"


def _exact(cfg: ExperimentConfig, grid: Grid1D, t: float | np.ndarray) -> np.ndarray:
    """The configured initial condition's exact solution at the time or times ``t``."""
    if cfg.ic.kind == "hat":
        return exact_solution(cfg.ic.hat_profile(), grid, cfg.c, t)
    return sine_solution(grid, cfg.c, t, cfg.ic.wavenumber, cfg.ic.amplitude)


def _build_problem(cfg: ExperimentConfig) -> tuple[SchemeConfig, np.ndarray]:
    """Scheme config and the (n_steps + 1, N) exact states of a run; row 0 is its initial state."""
    scheme_cfg = cfg.scheme_config()
    return scheme_cfg, _exact(cfg, scheme_cfg.grid, np.arange(cfg.n_steps + 1) * cfg.dt)


def _mu_summary(cfg: ExperimentConfig, traj: Trajectory) -> dict:
    if cfg.ic.kind == "hat":
        return mu_stats(traj, cfg.ic.hat_profile(), radius=0.05)
    return mu_summary(traj.viscosity_history)


def _is_plain_name(name: str) -> bool:
    """Whether a name from a manifest is a plain entry name, so that it cannot
    reach outside the manifest's directory."""
    return name not in ("", "..") and Path(name).name == name


def _clear_previous_run(out_dir: Path) -> None:
    """Delete the run or study last written into ``out_dir``.

    The manifest goes first, so a half-cleared directory never looks finished;
    then every file it listed, and analysis.json; then each subrun it listed,
    the same way, with its directory once that is empty. Files no manifest
    listed stay.
    """
    manifest_path = out_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        return
    manifest = read_json(manifest_path)
    manifest_path.unlink()

    def inside(names: list[str]) -> list[Path]:
        return [out_dir / n for n in names if _is_plain_name(n)]

    for path in inside([entry["name"] for entry in manifest.get("files", [])] + [ANALYSIS_NAME]):
        if path.is_file():
            path.unlink()
    for path in inside(manifest.get("subruns", [])):
        if path.is_dir():
            _clear_previous_run(path)
            if not any(path.iterdir()):
                path.rmdir()


def _mark_finished(out_dir: Path, files: list[dict], t_start: float, status: str,
                   **blocks) -> None:
    """Write the manifest, the completion marker, listing ``files`` and itself."""
    payload = {
        "version": __version__,
        "wall_clock_seconds": time.time() - t_start,
        "status": status,
        "files": files + [{"name": MANIFEST_NAME, "role": "manifest"}],
        **blocks,
    }
    write_manifest(out_dir, payload)


def _write_run(
    cfg: ExperimentConfig,
    out_dir: Path,
    traj: Trajectory,
    exact: np.ndarray,
    status: str,
    t_start: float,
    report: TrainingReport | None = None,
    extra: dict | None = None,
) -> None:
    """Write a run's CSVs, summary.json and manifest; a halted run's CSVs are partial."""
    grid = traj.config.grid
    times = traj.times
    exact = exact[: traj.n_steps + 1]
    files: list[dict] = []

    def record(name: str, role: str) -> None:
        files.append({"name": name, "role": role})

    write_matrix_csv(out_dir / "solution.csv", times, traj.states)
    record("solution.csv", "solution")
    final = traj.states[-1]
    exact_final = exact[-1]
    write_columns_csv(
        out_dir / "final_state.csv",
        ["x", "u", "exact", "error"],
        [grid.cell_centers, final, exact_final, final - exact_final],
    )
    record("final_state.csv", "final_state")
    write_matrix_csv(out_dir / "error.csv", times, traj.states - exact)
    record("error.csv", "error_field")
    write_series_csv(out_dir / "entropy.csv", "t", "entropy", times,
                     entropy_series(traj.states, grid.dx))
    record("entropy.csv", "entropy_series")

    stats = summary_stats(traj.states, exact_final, grid.dx)
    summary = {"stats": stats, "status": status}
    if report is not None:
        mu = traj.viscosity_history
        write_matrix_csv(out_dir / "mu.csv", times[:-1], mu)
        record("mu.csv", "mu_spacetime")
        mu_last = mu[-1]
        scale = float(np.max(np.abs(mu_last)))
        normalized = mu_last / scale if scale > 0 else np.zeros_like(mu_last)
        write_columns_csv(
            out_dir / "mu_final.csv",
            ["x_face", "mu_raw", "mu_normalized"],
            [grid.face_positions, mu_last, normalized],
        )
        record("mu_final.csv", "mu_snapshot")
        write_series_csv(
            out_dir / "loss_history.csv", "iter", "loss",
            np.arange(len(report.loss_history)), np.array(report.loss_history),
        )
        record("loss_history.csv", "loss_history")
        summary["mu"] = _mu_summary(cfg, traj)
        summary["training"] = {
            "mode": cfg.training.mode,
            "converged": report.converged,
            "divergence_events": report.divergence_events,
            "loss_first": report.loss_history[0],
            "loss_last": report.loss_history[-1],
            "loss_best": min(report.loss_history),
            "n_recorded_losses": len(report.loss_history),
        }
        summary["verdicts"] = {
            "entropy_nonincreasing_global": stats["entropy_final"] <= stats["entropy_initial"],
            "entropy_step_increase_warning":
                stats["max_per_step_entropy_increase"] > 1e-6 * stats["entropy_initial"],
        }
    write_json(out_dir / "summary.json", summary)

    if status != "ok":
        for entry in files:
            entry["partial"] = True
    files.append({"name": "summary.json", "role": "summary"})
    _mark_finished(out_dir, files, t_start, status,
                   config=config_to_dict(cfg), **(extra or {}))


def cmd_run(cfg: ExperimentConfig) -> int:
    """Simulate the configured scheme and write solution/error/entropy artifacts."""
    t_start = time.time()
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    scheme_cfg, exact = _build_problem(cfg)
    if cfg.scheme == "ftcs_mu" and cfg.mu is None:
        raise ConfigError("scheme 'ftcs_mu' requires the 'mu' key for plain runs")
    _clear_previous_run(out_dir)

    status, extra = "ok", None
    try:
        traj = simulate(exact[0], cfg.n_steps, scheme_cfg, scheme=cfg.scheme, mu=cfg.mu)
    except DivergenceError as err:
        status, extra, traj = "divergence", {"diverged_at_step": err.step}, err.trajectory
    _write_run(cfg, out_dir, traj, exact, status, t_start, extra=extra)
    return EXIT_OK if status == "ok" else EXIT_DIVERGENCE


def cmd_train(cfg: ExperimentConfig) -> int:
    """Train the viscosity closure per the config and write all artifacts."""
    t_start = time.time()
    if cfg.training is None:
        raise ConfigError("training requires a [training] section")
    if cfg.scheme != "ftcs_mu":
        raise ConfigError("training requires scheme = ftcs_mu")

    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    scheme_cfg, exact = _build_problem(cfg)
    if cfg.n_steps < 1:
        raise ConfigError("training requires t_final >= dt (at least one step)")
    _clear_previous_run(out_dir)

    trainer = train_per_step if cfg.training.mode == "per_step" else train_global
    try:
        report = trainer(scheme_cfg, cfg.training.optimizer, exact)
    except DivergenceError as err:  # the first step, or the first sweep, diverged
        _write_run(cfg, out_dir, err.trajectory, exact, "divergence", t_start,
                   extra={"diverged_at_step": err.step})
        return EXIT_DIVERGENCE

    if report.converged:
        status = "ok"
    elif cfg.training.mode == "per_step":
        status = "divergence"
    else:
        status = "no_convergence"
    extra = {"diverged_at_step": report.trajectory.n_steps} if status == "divergence" else None
    _write_run(cfg, out_dir, report.trajectory, exact, status, t_start, report, extra)
    if status == "ok":
        return EXIT_OK
    return EXIT_DIVERGENCE if status == "divergence" else EXIT_NO_CONVERGENCE


def _twin_viscosity(cfg: ExperimentConfig) -> tuple[str, float] | None:
    """The constant ftcs_mu viscosity a plain run's states must replay under, with its label."""
    grid = cfg.grid()
    if cfg.scheme == "upwind":
        mu_value = abs(cfg.c) * grid.dx / 2.0
        return f"upwind == ftcs_mu at mu={mu_value:g}", mu_value
    if cfg.scheme == "lax_wendroff":
        mu_value = cfg.c**2 * cfg.dt / 2.0
        return f"lax_wendroff == ftcs_mu at mu={mu_value:g}", mu_value
    if cfg.scheme == "ftcs_mu" and cfg.mu is not None:
        return f"stored states reproduce ftcs_mu at mu={cfg.mu:g}", cfg.mu
    return None


def _replay_error(states: np.ndarray, mu_rows: np.ndarray, cfg: SchemeConfig) -> float:
    """Largest error of one FTCS step from each stored state to the next.

    Row n of ``mu_rows`` steps states[n]; each step's error is relative to
    max(1, max|states[n + 1]|).
    """
    worst = 0.0
    for n, mu in enumerate(mu_rows):
        stepped = ftcs_update(states[n], mu, cfg)
        scale = max(float(np.max(np.abs(states[n + 1]))), 1.0)
        worst = max(worst, float(np.max(np.abs(stepped - states[n + 1]))) / scale)
    return worst


def _check_run(out_dir: Path, manifest: dict, listed: set[str], check) -> None:
    """Recompute a run's diagnostics from its stored CSVs and check them against
    its summary.json and its scheme."""
    cfg = config_from_dict(manifest["config"])
    summary = read_json(out_dir / "summary.json")
    scheme_cfg = cfg.scheme_config()
    grid = scheme_cfg.grid
    tolerance = 1e-12

    def compare(prefix: str, stored_block: dict, recomputed: dict) -> None:
        """Check each recomputed value against its stored one; a missing stored
        value fails, and equal values pass even where both are infinite."""
        for key, value in recomputed.items():
            stored = stored_block.get(key)
            ok = stored is not None and (
                stored == value or abs(stored - value) <= tolerance * max(1.0, abs(stored)))
            check(f"{prefix}:{key}", ok, f"stored={stored!r} recomputed={value!r}")

    times, states = read_matrix_csv(out_dir / "solution.csv")
    compare("stat", summary.get("stats", {}),
            summary_stats(states, _exact(cfg, grid, times[-1]), grid.dx))

    _, stored_entropy = read_series_csv(out_dir / "entropy.csv")
    entropy = entropy_series(states, grid.dx)
    if len(stored_entropy) == len(entropy):
        ok = np.allclose(stored_entropy, entropy, rtol=0, atol=tolerance)
        detail = f"max diff {np.max(np.abs(stored_entropy - entropy)):.3e}"
    else:
        ok, detail = False, f"{len(stored_entropy)} rows for {len(entropy)} states"
    check("entropy_series_consistent", ok, detail)

    twin = _twin_viscosity(cfg)
    if twin is not None:
        label, mu_value = twin
        mu_rows = np.broadcast_to(mu_value, (len(states) - 1, grid.n_cells))
        worst = _replay_error(states, mu_rows, scheme_cfg)
        check("scheme_equivalence", worst < 1e-13, f"{label}: max rel err {worst:.3e}")

    if "mu.csv" in listed and cfg.scheme == "ftcs_mu":
        _, mu_values = read_matrix_csv(out_dir / "mu.csv")
        if len(mu_values) == len(states) - 1:
            worst = _replay_error(states, mu_values, scheme_cfg)
            ok, detail = worst < 1e-13, f"max rel err {worst:.3e}"
        else:
            ok, detail = False, f"{len(mu_values)} rows for {len(states) - 1} steps"
        check("stored_steps_consistent", ok, detail)
        compare("mu", summary.get("mu", {}), mu_summary(mu_values))


def _check_study(out_dir: Path, manifest: dict, check) -> None:
    """Analyze each subrun of a ``reproduce`` study, then check that comparison.json
    holds each subrun's summary.json and the recomputed oracle MSEs, and that the
    study's claims give its verdicts."""
    if manifest["preset"] not in STUDIES:
        raise ValueError(f"{out_dir / MANIFEST_NAME} names no known study")
    comparison = read_json(out_dir / "comparison.json")
    for subrun in manifest["subruns"]:
        if not _is_plain_name(subrun):
            raise ValueError(f"{out_dir / MANIFEST_NAME} lists subrun {subrun!r}")
        code = cmd_analyze(out_dir / subrun)
        check(f"subrun:{subrun}", code == EXIT_OK, f"analyze exited {code}")
        key = subrun.replace("-", "_")
        check(f"summary_copied:{subrun}",
              comparison.get(key) == read_json(out_dir / subrun / "summary.json"),
              f"comparison.json[{key!r}] against {subrun}/summary.json")
    oracles = _oracle_mses(preset_config(manifest["preset"]))
    check("oracles", comparison.get("oracles") == oracles,
          f"stored={comparison.get('oracles')!r} recomputed={oracles!r}")
    stored = comparison.get("claims", {})
    for name, holds in STUDIES[manifest["preset"]][1]:
        try:
            verdict = holds(comparison)
        except (KeyError, TypeError) as err:  # a run's block is missing or malformed
            verdict = f"not computable: {err!r}"
        check(f"claim:{name}", stored.get(name) == verdict,
              f"stored={stored.get(name)!r} recomputed={verdict!r}")


def cmd_analyze(directory: str | Path) -> int:
    """Verify a finished run against its stored files, or a study and each of its runs."""
    out_dir = Path(directory)
    manifest = read_manifest(out_dir)
    is_study = "subruns" in manifest
    for block in ("preset" if is_study else "config", "files"):
        if block not in manifest:
            raise ValueError(f"{out_dir / MANIFEST_NAME} has no {block!r} block")
    listed = {entry["name"] for entry in manifest["files"]}

    checks: list[dict] = []

    def check(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    missing = sorted(name for name in listed if not (out_dir / name).is_file())
    unlisted = sorted(
        p.name for p in out_dir.iterdir()
        if p.is_file() and p.name not in listed and p.name != ANALYSIS_NAME
    )
    check("manifest_complete", not missing and not unlisted,
          f"missing={missing} unlisted={unlisted}")
    if is_study:
        _check_study(out_dir, manifest, check)
    else:
        _check_run(out_dir, manifest, listed, check)
    check("run_status_ok", manifest.get("status") == "ok",
          f"status={manifest.get('status')!r}")

    all_passed = all(entry["passed"] for entry in checks)
    write_json(out_dir / ANALYSIS_NAME, {"checks": checks, "all_passed": all_passed})
    width = max(len(entry["name"]) for entry in checks)
    for entry in checks:
        flag = "PASS" if entry["passed"] else "FAIL"
        print(f"{entry['name']:<{width}}  {flag}  {entry['detail']}")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _oracle_mses(cfg: ExperimentConfig) -> dict:
    """Final-time MSE of the classical baselines on the same problem."""
    scheme_cfg, exact = _build_problem(cfg)
    out = {}
    for scheme in ("upwind", "lax_wendroff"):
        traj = simulate(exact[0], cfg.n_steps, scheme_cfg, scheme=scheme)
        out[f"mse_{scheme}"] = mse(traj.states[-1], exact[-1])
    return out


def cmd_reproduce(preset: str, out_root: str | Path) -> int:
    """Train the preset's study, one subdirectory per run, and check its claims."""
    if preset not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {preset!r}; choose one of {PRESET_NAMES}")
    t_start = time.time()
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    _clear_previous_run(out_root)

    runs, claims = STUDIES[preset]
    comparison: dict = {"preset": preset, "oracles": _oracle_mses(preset_config(preset))}
    for subdir, name, nonneg in runs:
        config = preset_config(name, str(out_root / subdir))
        code = cmd_train(nonneg_variant(config) if nonneg else config)
        if code != EXIT_OK:
            raise DivergenceError(f"preset training run '{subdir}' failed with exit {code}")
        comparison[subdir.replace("-", "_")] = read_json(out_root / subdir / "summary.json")
    comparison["claims"] = {name: holds(comparison) for name, holds in claims}

    write_json(out_root / "comparison.json", comparison)
    _mark_finished(out_root, [{"name": "comparison.json", "role": "comparison"}],
                   t_start, "ok", preset=preset, subruns=[subdir for subdir, _, _ in runs])
    for name, passed in comparison["claims"].items():
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK


def _load_for(args: argparse.Namespace) -> ExperimentConfig:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("provide exactly one of --config PATH or --preset NAME")
    if args.config:
        cfg = load_config(args.config)
    else:
        if args.preset not in PRESET_NAMES:
            raise ConfigError(f"unknown preset {args.preset!r}; choose one of {PRESET_NAMES}")
        cfg = preset_config(args.preset)
    out_override = args.out or os.environ.get("ADVISC_OUT")
    if out_override:
        cfg = cfg.with_output_dir(out_override)
    return cfg


class _UsageError(Exception):
    """A command line that argparse rejects."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error to ``main``, which exits 3 like a configuration
    error, instead of exiting 2, the divergence code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="advisc",
        description="Learned artificial-viscosity closures for 1D linear advection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("run", "simulate a scheme and write CSV artifacts"),
        ("train", "train a viscosity closure and write CSV artifacts"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="path to an experiment config file")
        p.add_argument("--preset", help="named preset instead of a config file")
        p.add_argument("--out", help="output directory override")

    p = sub.add_parser("analyze", help="verify a finished run directory")
    p.add_argument("directory", help="run directory containing a manifest")

    p = sub.add_parser("reproduce", help="run a named preset end to end")
    p.add_argument("--preset", required=True, help=f"one of {', '.join(PRESET_NAMES)}")
    p.add_argument("--out", default=None, help="output directory (default: preset name)")

    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "run":
            return cmd_run(_load_for(args))
        if args.command == "train":
            return cmd_train(_load_for(args))
        if args.command == "analyze":
            return cmd_analyze(args.directory)
        out = args.out or os.environ.get("ADVISC_OUT") or args.preset
        return cmd_reproduce(args.preset, out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (OSError, FileNotFoundError, ValueError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
