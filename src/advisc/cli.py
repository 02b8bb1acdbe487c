"""Command-line harness: run simulations, train closures, analyze outputs,
and reproduce the reference experiments.

Exit codes: 0 success, 1 analysis check failure, 2 divergence,
3 configuration or command-line usage error, 4 unreadable or corrupt file,
5 optimizer non-convergence.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    OutputSettings,
    config_from_dict,
    config_to_dict,
    load_config,
)
from .diagnostics import entropy_series, mse, mu_stats, mu_summary, summary_stats
from .grid import exact_solution
from .optimizer import TrainingReport, train_global, train_per_step
from .presets import PRESET_NAMES, STUDIES, preset_config
from .runio import (
    MANIFEST_NAME,
    NON_FINITE_NAMES,
    CorruptRunError,
    matrix_header,
    read_columns_csv,
    read_json,
    read_manifest,
    write_columns_csv,
    write_json,
    write_manifest,
)
from .schemes import (
    CLASSICAL_MU,
    DivergenceError,
    SchemeConfig,
    Trajectory,
    _checked_trajectory,
    _row_stepper,
    simulate,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DIVERGENCE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_NO_CONVERGENCE = 5
# The exit code of a run, keyed by its status.
EXIT_CODES = {"ok": EXIT_OK, "divergence": EXIT_DIVERGENCE, "no_convergence": EXIT_NO_CONVERGENCE}

ANALYSIS_NAME = "analysis.json"
# Each CSV a run derives from its stored data (see _derived): its header and
# the analyze check that rebuilds it.
DERIVED_CSVS = {
    "final_state.csv": (["x", "u", "exact", "error"], "final_state_consistent"),
    "entropy.csv": (["t", "entropy"], "entropy_series_consistent"),
    "mu_final.csv": (["x_face", "mu_raw", "mu_normalized"], "mu_final_consistent"),
    "loss_history.csv": (["iter", "loss"], "loss_history_consistent"),
}
# The files analyze has a check for: each file a run, a training run or a
# study writes. A listed file outside its set fails manifest_complete.
RUN_FILES = {"solution.csv", "final_state.csv", "entropy.csv", "summary.json", MANIFEST_NAME}
TRAINING_FILES = {"mu.csv", "mu_final.csv", "loss_history.csv"}
STUDY_FILES = {"comparison.json", MANIFEST_NAME}


def _build_problem(cfg: ExperimentConfig) -> tuple[SchemeConfig, np.ndarray]:
    """Scheme config and the (n_steps + 1, N) exact states of a run; row 0 is its initial state."""
    scheme_cfg = cfg.scheme_config()
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    return scheme_cfg, exact_solution(cfg.ic, scheme_cfg.grid, cfg.c, times)


def _derived(cfg: ExperimentConfig, traj: Trajectory, times: np.ndarray,
             losses=None) -> tuple[dict, dict]:
    """What a run's primary data determine, for the writer to store and analyze
    to check: the columns of each derived CSV, keyed by file name as in
    DERIVED_CSVS, and the blocks of summary.json the data and config give.
    The exact state is sampled at the last of ``times`` only. ``losses``, a
    training run's loss history, is None or empty for a plain run and for a
    training run whose first step or sweep diverged, which are written alike."""
    grid = traj.config.grid
    final = traj.states[-1]
    exact_final = exact_solution(cfg.ic, grid, cfg.c, times[-1])
    entropy = entropy_series(traj.states, grid.dx)
    stats = summary_stats(traj.states, entropy, exact_final, grid.dx)
    csvs = {
        "final_state.csv": [grid.cell_centers, final, exact_final, final - exact_final],
        "entropy.csv": [times, entropy],
    }
    summary = {"stats": stats}
    if not losses:
        return csvs, summary

    mu = traj.viscosity_history
    scale = float(np.max(np.abs(mu[-1])))
    normalized = mu[-1] / scale if scale > 0 else np.zeros_like(mu[-1])
    csvs["mu_final.csv"] = [grid.face_positions, mu[-1], normalized]
    csvs["loss_history.csv"] = [np.arange(len(losses)), losses]
    summary["mu"] = mu_stats(traj, cfg.ic) if cfg.ic.kind == "hat" else mu_summary(mu)
    summary["training"] = {
        "mode": cfg.training.mode,
        "loss_first": losses[0],
        "loss_last": losses[-1],
        "loss_best": min(losses),
        "n_recorded_losses": len(losses),
    }
    summary["verdicts"] = {
        "entropy_nonincreasing_global": stats["entropy_final"] <= stats["entropy_initial"],
        "entropy_step_increase_warning":
            stats["max_per_step_entropy_increase"] > 1e-6 * stats["entropy_initial"],
    }
    return csvs, summary


def _matrix_rows(times: np.ndarray, matrix: np.ndarray):
    """The rows of a space-time matrix CSV, each a time and its matrix row
    as one float array, made one at a time."""
    return (np.concatenate(((t,), row)) for t, row in zip(times, matrix))


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
    manifest = read_manifest(out_dir)
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
        "files": files + [{"name": MANIFEST_NAME}],
        **blocks,
    }
    write_manifest(out_dir, payload)


def _write_run(
    cfg: ExperimentConfig,
    out_dir: Path,
    traj: Trajectory,
    status: str,
    t_start: float,
    report: TrainingReport | None = None,
) -> None:
    """Write a run's files, each of which analyze checks, then the manifest:
    solution.csv and a training run's mu.csv, then what ``_derived`` gives,
    plus the summary's status and the optimizer's report. A halted run's CSVs
    are partial, and a diverged run's manifest records the step that
    diverged, the trajectory's ``n_steps``. The full error field is not
    written: it is solution.csv minus the exact solution, which the config
    reproduces. Every CSV is written a row at a time."""
    grid = traj.config.grid
    times = traj.times
    losses = None if report is None else report.loss_history
    csvs, summary = _derived(cfg, traj, times, losses)
    files: list[dict] = []

    def write(name: str, header: list[str], rows) -> None:
        write_columns_csv(out_dir / name, header, rows)
        files.append({"name": name})

    write("solution.csv", matrix_header(grid.n_cells), _matrix_rows(times, traj.states))
    for name, columns in csvs.items():
        if name == "mu_final.csv":  # the manifest lists mu.csv before the files derived from it
            write("mu.csv", matrix_header(grid.n_cells),
                  _matrix_rows(times[:-1], traj.viscosity_history))
        write(name, DERIVED_CSVS[name][0], zip(*columns))

    summary["status"] = status
    if "training" in summary:
        summary["training"].update(converged=status == "ok",
                                   divergence_events=report.divergence_events)
    write_json(out_dir / "summary.json", summary)

    blocks = {"config": config_to_dict(cfg)}
    if status != "ok":
        for entry in files:
            entry["partial"] = True
    if status == "divergence":
        blocks["diverged_at_step"] = traj.n_steps
    files.append({"name": "summary.json"})
    _mark_finished(out_dir, files, t_start, status, **blocks)


def cmd_run(cfg: ExperimentConfig) -> int:
    """Simulate the configured scheme and write its solution, final state and
    entropy. The exact solution is sampled only at t = 0 and, for the final
    state, at the last time reached, so the states are the one space-time
    matrix the run holds. The run last written into the output directory is
    cleared only once ``simulate`` has returned or diverged, so a run that
    cannot allocate its states leaves that run in place."""
    if cfg.scheme == "ftcs_mu" and cfg.mu is None:
        raise ConfigError("scheme 'ftcs_mu' requires the 'mu' key for plain runs")
    t_start = time.time()
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    scheme_cfg = cfg.scheme_config()
    u0 = exact_solution(cfg.ic, scheme_cfg.grid, cfg.c, 0.0)

    status = "ok"
    try:
        traj = simulate(u0, cfg.n_steps, scheme_cfg, scheme=cfg.scheme, mu=cfg.mu)
    except DivergenceError as err:
        status, traj = "divergence", err.trajectory
    _clear_previous_run(out_dir)
    _write_run(cfg, out_dir, traj, status, t_start)
    return EXIT_CODES[status]


def _training_dir(cfg: ExperimentConfig) -> Path:
    """Check that ``cfg`` trains; create and return its output directory."""
    if cfg.training is None:
        raise ConfigError("training requires a [training] section")
    if cfg.scheme != "ftcs_mu":
        raise ConfigError("training requires scheme = ftcs_mu")
    if cfg.n_steps < 1:
        raise ConfigError("training requires t_final >= dt (at least one step)")
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def cmd_train(cfg: ExperimentConfig, *more: ExperimentConfig) -> int:
    """Train the viscosity closure of each config and write every run; return
    the exit code of the first failed run, or 0. The configs share one problem
    and mode, differing only in optimizer and output directory, so they train
    in one call of the mode's trainer."""
    t_start = time.time()
    configs = (cfg, *more)
    out_dirs = [_training_dir(config) for config in configs]
    scheme_cfg, exact = _build_problem(cfg)
    for out_dir in out_dirs:
        _clear_previous_run(out_dir)
    opts = tuple(config.training.optimizer for config in configs)
    trainer = train_per_step if cfg.training.mode == "per_step" else train_global
    reports = trainer(scheme_cfg, opts, exact)
    for config, out_dir, report in zip(configs, out_dirs, reports):
        _write_run(config, out_dir, report.trajectory, report.status, t_start, report)
    return next((EXIT_CODES[r.status] for r in reports if r.status != "ok"), EXIT_OK)


def _replay_error(states: np.ndarray, mu_rows: np.ndarray, cfg: SchemeConfig) -> float:
    """Largest error of one FTCS step from each stored state to the next.

    Row n of ``mu_rows`` steps states[n]; each step's error is relative to
    max(1, max|states[n + 1]|). Each step goes through one stepper and one
    row buffer, bound once, as in ``simulate``.
    """
    step = _row_stepper(cfg)
    stepped = np.empty(cfg.grid.n_cells)
    worst = 0.0
    for n, mu in enumerate(mu_rows):
        step(stepped, states[n], mu)
        scale = max(float(np.max(np.abs(states[n + 1]))), 1.0)
        worst = max(worst, float(np.max(np.abs(stepped - states[n + 1]))) / scale)
    return worst


def _read_run_matrix(path: Path, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """The times and values of a run's solution.csv or mu.csv, a space-time
    matrix with one column per cell or face. The values are a view of the
    parsed data, not a copy; each row is contiguous. Another header, no data
    rows or a non-finite entry, none of which a run writes, raise
    CorruptRunError."""
    data = read_columns_csv(path, matrix_header(n_cells))
    if data.shape[0] == 0:
        raise CorruptRunError(f"{path} has no data rows")
    if not np.isfinite(data).all():
        raise CorruptRunError(f"{path} has non-finite entries")
    return data[:, 0].copy(), data[:, 1:]


def _unnamed(value):
    """A stored JSON value with a non-finite float's name read back as that float."""
    return float(value) if value in NON_FINITE_NAMES else value


def _columns_match(path: Path, header: list[str], expected: list) -> tuple[bool, str]:
    """Whether a columns CSV holds exactly ``expected``, bit for bit; entries
    that are nan in both count as equal. Returns the verdict and its detail."""
    stored = read_columns_csv(path, header)
    if len(stored) != len(expected[0]):
        return False, f"{len(stored)} rows for {len(expected[0])} entries"
    bad = [name for name, column, want in zip(header, stored.T, expected)
           if not np.array_equal(column, want, equal_nan=True)]
    return not bad, f"mismatched columns {bad}"


def _check_run(out_dir: Path, manifest: dict, training: bool, check) -> None:
    """Check every file of a run against its config and its primary data:
    solution.csv and, for a training run, mu.csv and the losses of
    loss_history.csv. The steps are replayed on them: a plain run's as FTCS
    at its scheme's constant viscosity, and those of a training run whose
    first step or sweep diverged, which writes no mu.csv, at the optimizer's
    initial viscosity. ``_derived``, as the writer called it, rebuilds every
    other CSV and summary.json value, which must match exactly; the
    summary's status must be the manifest's.
    Its ``divergence_events`` comes only from the optimizer's report, and
    its ``converged`` only repeats the status, so both stay unchecked.
    Training outputs are not rebuilt without one mu.csv row per step and at
    least one loss. A CSV without its exact header, such as a solution.csv
    or mu.csv that is not n_cells wide, raises CorruptRunError, as does a
    stored config that does not load."""
    try:
        cfg = config_from_dict(manifest["config"])
    except ConfigError as err:
        raise CorruptRunError(f"{out_dir / MANIFEST_NAME} stores a bad config: {err}") from err
    summary = read_json(out_dir / "summary.json")
    scheme_cfg = cfg.scheme_config()
    grid = scheme_cfg.grid
    times, states = _read_run_matrix(out_dir / "solution.csv", grid.n_cells)

    mu_value = cfg.mu if cfg.scheme == "ftcs_mu" else CLASSICAL_MU[cfg.scheme](scheme_cfg)
    if mu_value is None and cfg.training is not None and not training:
        # a training run whose first step or sweep diverged ran at its initial mu
        mu_value = cfg.training.optimizer.resolve_init(scheme_cfg)
    if mu_value is not None:  # every step is FTCS at one constant mu
        mu_rows = np.broadcast_to(mu_value, (len(states) - 1, grid.n_cells))
        worst = _replay_error(states, mu_rows, scheme_cfg)
        check("scheme_equivalence", worst < 1e-13,
              f"{cfg.scheme} replayed as ftcs_mu at mu={mu_value:g}: max rel err {worst:.3e}")

    mu = losses = None
    if training:
        if cfg.training is None:
            raise CorruptRunError(f"{out_dir / MANIFEST_NAME} lists mu.csv, but no [training]")
        _, mu = _read_run_matrix(out_dir / "mu.csv", grid.n_cells)
        loss_header = DERIVED_CSVS["loss_history.csv"][0]
        losses = read_columns_csv(out_dir / "loss_history.csv", loss_header)[:, 1].tolist()
        if len(mu) == len(states) - 1:
            worst = _replay_error(states, mu, scheme_cfg)
            ok, detail = worst < 1e-13, f"max rel err {worst:.3e}"
        else:
            ok, detail = False, f"{len(mu)} rows for {len(states) - 1} steps"
        check("stored_steps_consistent", ok, detail)
        if not losses:
            check("loss_history_consistent", False, "0 rows")
        if len(mu) != len(states) - 1 or not losses:
            mu = losses = None

    # _read_run_matrix has checked states and mu to be finite; they are not scanned again.
    csvs, recomputed = _derived(cfg, _checked_trajectory(states, scheme_cfg, mu), times, losses)
    for name, columns in csvs.items():
        header, check_name = DERIVED_CSVS[name]
        check(check_name, *_columns_match(out_dir / name, header, columns))

    def check_equal(name: str, stored, value) -> None:
        stored = _unnamed(stored)
        same = type(stored) is type(value) and (  # so a stored 1 is not True
            stored == value or (stored != stored and value != value))  # nan equals nan
        check(name, same, f"stored={stored!r} recomputed={value!r}")

    for block, values in recomputed.items():
        stored_block = summary.get(block)
        stored_block = stored_block if isinstance(stored_block, dict) else {}
        prefix = "stat" if block == "stats" else block
        for key, value in values.items():
            check_equal(f"{prefix}:{key}", stored_block.get(key), value)
    check_equal("status", summary.get("status"), manifest.get("status"))


def _check_study(out_dir: Path, manifest: dict, check) -> None:
    """Analyze each subrun of a ``reproduce`` study, then check that comparison.json
    holds each subrun's summary.json and the recomputed oracle MSEs, and that the
    study's claims give its verdicts."""
    if manifest["preset"] not in STUDIES:
        raise CorruptRunError(f"{out_dir / MANIFEST_NAME} names no known study")
    comparison = read_json(out_dir / "comparison.json")
    for subrun in manifest["subruns"]:
        if not _is_plain_name(subrun):
            raise CorruptRunError(f"{out_dir / MANIFEST_NAME} lists subrun {subrun!r}")
        code = cmd_analyze(out_dir / subrun)
        check(f"subrun:{subrun}", code == EXIT_OK, f"analyze exited {code}")
        key = subrun.replace("-", "_")
        check(f"summary_copied:{subrun}",
              comparison.get(key) == read_json(out_dir / subrun / "summary.json"),
              f"comparison.json[{key!r}] against {subrun}/summary.json")
    oracles = _oracle_mses(preset_config(manifest["preset"]))
    check("oracles", comparison.get("oracles") == oracles,
          f"stored={comparison.get('oracles')!r} recomputed={oracles!r}")
    stored = comparison.get("claims")
    stored = stored if isinstance(stored, dict) else {}
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
            raise CorruptRunError(f"{out_dir / MANIFEST_NAME} has no {block!r} block")
    listed = {entry["name"] for entry in manifest["files"]}
    training = "mu.csv" in listed
    checked = STUDY_FILES if is_study else RUN_FILES | (TRAINING_FILES if training else set())

    checks: list[dict] = []

    def check(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    missing = sorted(name for name in listed if not (out_dir / name).is_file())
    unlisted = sorted(
        p.name for p in out_dir.iterdir()
        if p.is_file() and p.name not in listed and p.name != ANALYSIS_NAME
    )
    unchecked = sorted(listed - checked)  # e.g. an error.csv of an older version
    detail = f"missing={missing} unlisted={unlisted}"
    if unchecked:
        detail += f" unchecked={unchecked}"
    check("manifest_complete", not missing and not unlisted and not unchecked, detail)
    if is_study:
        _check_study(out_dir, manifest, check)
    else:
        _check_run(out_dir, manifest, training, check)
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
    """Train the preset's study through ``cmd_train``, one subdirectory per run,
    then write comparison.json from the runs' summaries and check its claims.
    Once every run is written, a failed run's exit code is returned, with a
    message on stderr, before comparison.json and the study's manifest."""
    t_start = time.time()
    base = preset_config(preset)
    out_root = Path(out_root)
    runs, claims = STUDIES[preset]
    configs = [preset_config(name, str(out_root / subdir), overrides)
               for subdir, name, overrides in runs]
    out_root.mkdir(parents=True, exist_ok=True)
    _clear_previous_run(out_root)

    comparison: dict = {"preset": preset, "oracles": _oracle_mses(base)}
    code = cmd_train(*configs)
    if code != EXIT_OK:
        print(f"reproduce: a training run of study {preset!r} failed with exit {code}; "
              "comparison.json is not written", file=sys.stderr)
        return code
    for subdir, _, _ in runs:
        comparison[subdir.replace("-", "_")] = read_json(out_root / subdir / "summary.json")
    comparison["claims"] = {name: holds(comparison) for name, holds in claims}

    write_json(out_root / "comparison.json", comparison)
    _mark_finished(out_root, [{"name": "comparison.json"}],
                   t_start, "ok", preset=preset, subruns=[subdir for subdir, _, _ in runs])
    for name, passed in comparison["claims"].items():
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK


def _load_for(args: argparse.Namespace) -> ExperimentConfig:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("provide exactly one of --config PATH or --preset NAME")
    cfg = load_config(args.config) if args.config else preset_config(args.preset)
    if args.out:
        cfg = replace(cfg, output=OutputSettings(args.out))
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
        p.add_argument("--config", required=name == "run", help="path to a config file")
        if name == "train":  # every preset trains, so only train takes one
            p.add_argument("--preset", help="named preset instead of a config file")
        p.set_defaults(preset=None)
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
        return cmd_reproduce(args.preset, args.out or args.preset)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (OSError, CorruptRunError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as err:
        print(f"out of memory: advisc {args.command} cannot allocate its arrays: {err}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
