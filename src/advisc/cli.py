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
from .adjoint import loss_value
from .config import (
    ConfigError,
    ExperimentConfig,
    OutputSettings,
    config_from_dict,
    config_to_dict,
    load_config,
)
from .diagnostics import entropy_series, mse, mu_stats, step_losses, summary_stats
from .grid import exact_solution
from .optimizer import TrainingReport, train_global, train_per_step
from .presets import PRESET_NAMES, STUDIES, preset_config
from .runio import (
    MANIFEST_NAME,
    CorruptRunError,
    _csv_matches,
    _formatting_beats_parsing,
    _json_value,
    matrix_header,
    read_columns_csv,
    read_json,
    read_manifest,
    write_columns_csv,
    write_json,
)
from .schemes import SchemeConfig, Trajectory, _checked_trajectory, _first_mismatch, simulate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DIVERGENCE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_NO_CONVERGENCE = 5
# The exit code of a run, keyed by its status.
EXIT_CODES = {"ok": EXIT_OK, "divergence": EXIT_DIVERGENCE, "no_convergence": EXIT_NO_CONVERGENCE}

ANALYSIS_NAME = "analysis.json"
# Each CSV a run derives from its stored data (see _derived): its header line
# and the analyze check that rebuilds it.
DERIVED_CSVS = {
    "final_state.csv": ("x,u,exact,error", "final_state_consistent"),
    "entropy.csv": ("t,entropy", "entropy_series_consistent"),
    "mu_final.csv": ("x_face,mu_raw,mu_normalized", "mu_final_consistent"),
    "loss_history.csv": ("iter,loss", "loss_history_consistent"),
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


def _derived(cfg: ExperimentConfig, traj: Trajectory, losses=None) -> tuple[dict, dict]:
    """What a run's primary data determine, for the writer to store and analyze
    to check: the columns of each derived CSV, keyed by file name as in
    DERIVED_CSVS, and the blocks of summary.json the data and config give.
    The exact state is sampled at the last of ``traj.times`` only. ``losses``,
    a training run's loss history, is None or empty for a plain run and for a
    training run whose first step or sweep diverged, which are written alike."""
    grid, times = traj.config.grid, traj.times
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

    mu_last = traj.viscosity_history[-1]
    scale = float(np.max(np.abs(mu_last)))
    normalized = mu_last / scale if scale > 0 else np.zeros_like(mu_last)
    csvs["mu_final.csv"] = [grid.face_positions, mu_last, normalized]
    csvs["loss_history.csv"] = [np.arange(len(losses)), losses]
    summary["mu"] = mu_stats(traj, cfg.ic)
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
    write_json(out_dir / MANIFEST_NAME, payload)


def _write_run(
    cfg: ExperimentConfig,
    traj: Trajectory,
    status: str,
    t_start: float,
    report: TrainingReport | None = None,
) -> int:
    """Create the run's output directory, clear the run last written into it,
    then write this run's files, each of which analyze checks, then the
    manifest: solution.csv, a training run's mu.csv if it has losses, then
    what ``_derived`` gives, plus the summary's status and the optimizer's
    report. Returns the run's exit code. ``run`` and ``train`` call this once
    their trajectory exists, so a run that cannot allocate one creates no
    directory and leaves the previous run in place. A diverged run's CSVs are
    partial, and its manifest records the step that diverged, the
    trajectory's ``n_steps``. The full error field is not written: it is
    solution.csv minus the exact solution, which the config reproduces. Every
    CSV is written from the columns the run holds, a block of rows at a time."""
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    _clear_previous_run(out_dir)
    grid = traj.config.grid
    times = traj.times
    files: list[dict] = []

    def write(name: str, header: str, columns: list) -> None:
        write_columns_csv(out_dir / name, header, columns)
        files.append({"name": name})

    write("solution.csv", matrix_header(grid.n_cells), [times, traj.states])
    losses = None if report is None else report.loss_history
    if losses:
        write("mu.csv", matrix_header(grid.n_cells), [times[:-1], traj.viscosity_history])
    csvs, summary = _derived(cfg, traj, losses)  # not held while the matrices are written
    for name, columns in csvs.items():
        write(name, DERIVED_CSVS[name][0], columns)

    summary["status"] = status
    if "training" in summary:
        summary["training"]["divergence_events"] = report.divergence_events
    write_json(out_dir / "summary.json", summary)

    blocks = {"config": config_to_dict(cfg)}
    if status == "divergence":  # a halted global run stores its best iterate's full horizon
        for entry in files:
            entry["partial"] = True
        blocks["diverged_at_step"] = traj.n_steps
    files.append({"name": "summary.json"})
    _mark_finished(out_dir, files, t_start, status, **blocks)
    return EXIT_CODES[status]


def cmd_run(cfg: ExperimentConfig) -> int:
    """Simulate the configured scheme and write its solution, final state and
    entropy. The exact solution is sampled only at t = 0 and, for the final
    state, at the last time reached, so the states are the one space-time
    matrix the run holds. A run whose trajectory stops short of ``n_steps``
    diverged. ``_write_run`` creates the output directory once the run is
    simulated and returns the exit code."""
    if cfg.training is not None:
        raise ConfigError("run simulates a plain scheme; a config with [training] is for train")
    t_start = time.time()
    scheme_cfg = cfg.scheme_config()
    u0 = exact_solution(cfg.ic, scheme_cfg.grid, cfg.c, 0.0)
    traj = simulate(u0, cfg.n_steps, scheme_cfg, scheme=cfg.scheme, mu=cfg.mu)
    status = "ok" if traj.n_steps == cfg.n_steps else "divergence"
    return _write_run(cfg, traj, status, t_start)


def _training_group(cfg: ExperimentConfig) -> tuple:
    """What the configs that train in one call of a trainer share: the problem
    (the fields of its scheme config, its step count and initial condition)
    and the mode, and in per-step mode the ``n_iters`` that ``train_per_step``
    requires of one batch."""
    mode = cfg.training.mode
    n_iters = cfg.training.optimizer.n_iters if mode == "per_step" else None
    return cfg.n_cells, cfg.length, cfg.c, cfg.dt, cfg.n_steps, cfg.ic, mode, n_iters


def _train_and_write(configs: list[ExperimentConfig], t_start: float) -> list[int]:
    """Train configs of one ``_training_group`` in one call of the mode's
    trainer, then write each run into its own output directory through
    ``_write_run``; return each run's exit code."""
    scheme_cfg, exact = _build_problem(configs[0])
    opts = tuple(config.training.optimizer for config in configs)
    trainer = train_per_step if configs[0].training.mode == "per_step" else train_global
    reports = trainer(scheme_cfg, opts, exact)
    return [_write_run(config, report.trajectory, report.status, t_start, report)
            for config, report in zip(configs, reports)]


def cmd_train(cfg: ExperimentConfig, *more: ExperimentConfig) -> int:
    """Train the viscosity closure of each config and write every run; return
    the exit code of the first failed run in config order, or 0. Configs of
    one ``_training_group`` differ only in optimizer and output directory,
    so each group trains in one call of its mode's trainer, on its problem.
    Every config is checked to have [training] before any trains; no output
    directory is made before its run has trained."""
    t_start = time.time()
    configs = (cfg, *more)
    if any(config.training is None for config in configs):
        raise ConfigError("training requires a [training] section")
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(_training_group(config), []).append(i)
    codes: dict[int, int] = {}
    for members in groups.values():
        codes.update(zip(members, _train_and_write([configs[i] for i in members], t_start)))
    return next((codes[i] for i in sorted(codes) if codes[i] != EXIT_OK), EXIT_OK)


def _read_run_matrix(path: Path, n_cells: int, dt: float) -> np.ndarray:
    """The values of a run's solution.csv or mu.csv, a space-time matrix with
    one column per cell or face, whose row n is at time n*dt. The values are
    a view of the parsed data, not a copy; each row is contiguous. Another
    header, no data rows, a non-finite entry, or times other than
    ``np.arange(rows) * dt`` bit for bit, none of which a run writes, raise
    CorruptRunError."""
    data = read_columns_csv(path, matrix_header(n_cells))
    if data.shape[0] == 0:
        raise CorruptRunError(f"{path} has no data rows")
    if not np.isfinite(data).all():
        raise CorruptRunError(f"{path} has non-finite entries")
    if not np.array_equal(data[:, 0], np.arange(len(data)) * dt):
        raise CorruptRunError(f"{path} has times other than n*dt for dt = {dt!r}")
    return data[:, 1:]


def _rebuilt_states(path: Path, cfg: ExperimentConfig, scheme_cfg: SchemeConfig,
                    u0: np.ndarray, mu) -> np.ndarray | None:
    """The states of a run, simulated from ``u0`` at the viscosity ``mu`` it
    stepped at, over ``len(mu)`` steps for a matrix of rows and the config's
    steps otherwise, if ``path`` holds exactly the bytes of the solution.csv
    ``_write_run`` writes for them; otherwise None, once they are freed.
    Only a run whose ``u0`` mostly prints from its digits is rebuilt
    (``_formatting_beats_parsing``): for other data, parsing the file costs
    less than formatting the states. Nor is one whose file holds fewer than
    2 bytes per value of that horizon, the least a matching file holds, so
    that a stored config that claims more steps than were stored cannot make
    analyze allocate more than the file's size."""
    n_cells = scheme_cfg.grid.n_cells
    n_steps = len(mu) if np.ndim(mu) == 2 else cfg.n_steps
    if (not _formatting_beats_parsing(u0)
            or path.stat().st_size < 2 * (n_steps + 1) * (n_cells + 1)):
        return None
    traj = simulate(u0, n_steps, scheme_cfg, cfg.scheme, mu)
    matches = _csv_matches(path, matrix_header(n_cells), [traj.times, traj.states])
    return traj.states if matches else None


def _columns_match(path: Path, header: str, expected: list) -> tuple[bool, str]:
    """Whether a columns CSV holds exactly ``expected``, bit for bit; entries
    that are nan in both count as equal. Returns the verdict and its detail."""
    stored = read_columns_csv(path, header)
    if len(stored) != len(expected[0]):
        return False, f"{len(stored)} rows for {len(expected[0])} entries"
    bad = [name for name, column, want in zip(header.split(","), stored.T, expected)
           if not np.array_equal(column, want, equal_nan=True)]
    return not bad, f"mismatched columns {bad}" if bad else f"{len(stored)} rows of {header}"


def _check_run(out_dir: Path, manifest: dict, training: bool, check) -> None:
    """Check every file of a run against its config and its primary data:
    solution.csv and, for a training run, mu.csv and a global run's losses.
    Row n of either matrix is at time n*dt, and the run stores one state
    per step it took: all of the config's steps, or those up to the
    manifest's ``diverged_at_step``. A run is its config and the viscosity
    it stepped at: the rows of mu.csv, the config's ``mu``, or, for a
    training run that wrote no mu.csv, the optimizer's initial one. The
    stored states must be what ``simulate`` gives, bit for bit, at that
    viscosity: they are checked without a parse where ``_rebuilt_states``
    finds solution.csv to hold exactly the bytes of the states it rebuilds,
    and otherwise parsed and replayed row by row, so either way the checks
    give the same verdicts and details. A per-step run's losses are its
    ``step_losses``, and its mu stays unmoved at each face whose jump is
    exactly zero in the stored state of that step; a global run stores its
    best iterate, whose loss must be the least loss. ``_derived``, as the
    writer called it, rebuilds every other CSV and summary.json value,
    which must match exactly; the summary's status must be the manifest's.
    Its ``divergence_events`` comes only from the optimizer's report, so it
    stays unchecked.
    Training outputs are not rebuilt without one mu.csv row per step and at
    least one loss. A stored config that does not load, a CSV without its
    exact header, such as a solution.csv or mu.csv that is not n_cells wide,
    and a matrix with other times raise CorruptRunError."""
    try:
        cfg = config_from_dict(manifest["config"])
    except ConfigError as err:
        raise CorruptRunError(f"{out_dir / MANIFEST_NAME} stores a bad config: {err}") from err
    summary = read_json(out_dir / "summary.json")
    scheme_cfg = cfg.scheme_config()
    grid = scheme_cfg.grid
    u0 = exact_solution(cfg.ic, grid, cfg.c, 0.0)
    mu = losses = None
    if training:
        if cfg.training is None:
            raise CorruptRunError(f"{out_dir / MANIFEST_NAME} lists mu.csv, but no [training]")
        mu = _read_run_matrix(out_dir / "mu.csv", grid.n_cells, cfg.dt)
    # a training run without mu.csv stepped at the optimizer's initial viscosity
    viscosity = (mu if mu is not None else cfg.mu if cfg.training is None
                 else cfg.training.optimizer.resolve_init(scheme_cfg))
    path = out_dir / "solution.csv"
    rebuilt = _rebuilt_states(path, cfg, scheme_cfg, u0, viscosity)
    states = rebuilt if rebuilt is not None else _read_run_matrix(path, grid.n_cells, cfg.dt)
    steps = manifest.get("diverged_at_step", cfg.n_steps)
    check("steps_stored", type(steps) is int and len(states) == steps + 1 <= cfg.n_steps + 1,
          f"{len(states)} states for {steps!r} of {cfg.n_steps} steps")

    if mu is not None and len(mu) != len(states) - 1:
        ok, detail = False, f"{len(mu)} rows for {len(states) - 1} steps"
    else:
        bad = (None if rebuilt is not None  # simulate's own states, which need no replay
               else _first_mismatch(u0, states, scheme_cfg, cfg.scheme, viscosity))
        ok, detail = bad is None, f"{cfg.scheme} replayed; first state unlike simulate's: {bad}"
    check("stored_steps_consistent", ok, detail)

    if training:
        traj = _checked_trajectory(states, scheme_cfg, None)
        exact = exact_solution(cfg.ic, grid, cfg.c, traj.times)
        if cfg.training.mode == "per_step":
            losses = step_losses(states, exact).tolist()
        else:
            loss_header = DERIVED_CSVS["loss_history.csv"][0]
            losses = read_columns_csv(out_dir / "loss_history.csv", loss_header)[:, 1].tolist()
            if losses:  # the stored trajectory is the best iterate's
                loss = loss_value(traj, exact)
                check("trajectory_loss_consistent", loss == min(losses),
                      f"stored trajectory's loss {loss!r}, least stored loss {min(losses)!r}")
        del exact
        if cfg.training.mode == "per_step" and len(mu) == len(states) - 1:
            # A face with no jump in the state a step loads has no gradient, so
            # its mu stays the step before's, or the initial one at step 0.
            flat = np.empty(mu.shape, dtype=bool)
            np.equal(states[:-1, 1:], states[:-1, :-1], out=flat[:, :-1])
            np.equal(states[:-1, 0], states[:-1, -1], out=flat[:, -1])
            moved = np.empty(mu.shape, dtype=bool)
            np.not_equal(mu[0], cfg.training.optimizer.resolve_init(scheme_cfg), out=moved[0])
            np.not_equal(mu[1:], mu[:-1], out=moved[1:])
            moved &= flat
            first = next(iter(np.flatnonzero(moved.any(axis=1))), None)
            check("mu_unmoved_where_flat", first is None,
                  f"{np.count_nonzero(flat)} flat faces; first step that moved one: {first}")
            del flat, moved
        if not losses:
            check("loss_history_consistent", False, "0 rows")
        if len(mu) != len(states) - 1 or not losses:
            mu = losses = None

    # _read_run_matrix has checked states and mu to be finite; they are not scanned again.
    csvs, recomputed = _derived(cfg, _checked_trajectory(states, scheme_cfg, mu), losses)
    for name, columns in csvs.items():
        header, check_name = DERIVED_CSVS[name]
        check(check_name, *_columns_match(out_dir / name, header, columns))

    def check_equal(name: str, stored, value) -> None:
        value = _json_value(value)  # as write_json stores it: a nan is "nan"
        same = type(stored) is type(value) and stored == value  # so a stored 1 is not True
        check(name, same, f"stored={stored!r} recomputed={value!r}")

    for block, values in recomputed.items():
        stored_block = summary.get(block)
        stored_block = stored_block if isinstance(stored_block, dict) else {}
        prefix = "stat" if block == "stats" else block
        for key, value in values.items():
            check_equal(f"{prefix}:{key}", stored_block.get(key), value)
    check_equal("status", summary.get("status"), manifest.get("status"))


def _claim_verdicts(preset: str, comparison: dict) -> dict:
    """Each claim of ``preset``'s study over ``comparison``: True or False, or
    a "not computable" message where a run's block is missing or malformed."""
    verdicts = {}
    for name, holds in STUDIES[preset][1]:
        try:
            verdicts[name] = holds(comparison)
        except (KeyError, TypeError) as err:
            verdicts[name] = f"not computable: {err!r}"
    return verdicts


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
    for name, verdict in _claim_verdicts(manifest["preset"], comparison).items():
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
    diverged = manifest.get("status") == "divergence"  # then its CSVs, and only they, are partial
    misflagged = sorted(entry["name"] for entry in manifest["files"] if entry.get("partial")
                        is not (True if diverged and entry["name"].endswith(".csv") else None))
    detail = f"missing={missing} unlisted={unlisted}"
    if unchecked:
        detail += f" unchecked={unchecked}"
    if misflagged:
        detail += f" partial_flags_wrong={misflagged}"
    check("manifest_complete", not (missing or unlisted or unchecked or misflagged), detail)
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
    runs = STUDIES[preset][0]
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
    comparison["claims"] = _claim_verdicts(preset, comparison)

    write_json(out_root / "comparison.json", comparison)
    _mark_finished(out_root, [{"name": "comparison.json"}],
                   t_start, "ok", preset=preset, subruns=[subdir for subdir, _, _ in runs])
    for name, verdict in comparison["claims"].items():
        print(f"{name}: {'PASS' if verdict is True else 'FAIL'}")
    return EXIT_OK


def _load_for(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config is not None else preset_config(args.preset)
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

    p = sub.add_parser("run", help="simulate a scheme and write CSV artifacts")
    p.add_argument("--config", required=True, help="path to a config file")
    p.add_argument("--out", help="output directory override")

    p = sub.add_parser("train", help="train a viscosity closure and write CSV artifacts")
    # every preset trains, so only train takes one
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a config file")
    source.add_argument("--preset", help="named preset instead of a config file")
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
    except (OSError, CorruptRunError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as err:
        print(f"out of memory: advisc {args.command} cannot allocate its arrays: {err}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
