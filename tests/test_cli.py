import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from advisc.cli import main
from advisc.config import (
    ConfigError,
    ExperimentConfig,
    OutputSettings,
    config_from_dict,
    config_to_dict,
    load_config,
)
from advisc.grid import PROFILES
from advisc.presets import PRESETS, STUDIES, preset_config
from advisc.runio import matrix_header, read_columns_csv, read_manifest, write_columns_csv
from advisc.schemes import SCHEME_NAMES

from oracles import reference_write_columns_csv

SRC = Path(__file__).resolve().parents[1] / "src"

BASE = """
[simulation]
scheme = {scheme}
n_cells = {n_cells}
length = 1.0
c = 1.0
dt = 0.001
t_final = {t_final}
{extra_sim}
[initial_condition]
kind = {kind}

[output]
directory = {directory}
"""

TRAINING = """
[training]
mode = per_step
learning_rate = 0.01
n_iters = {n_iters}
mu_min = {mu_min}
mu_max = 0.095
"""


def change_one_digit(path, row, column):
    """Change one early digit of a CSV value, so that it parses to another
    double; row 0 is the first data row."""
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    old = cells[column]
    i = [k for k, ch in enumerate(old) if ch.isdigit()][:4][-1]
    cells[column] = old[:i] + str((int(old[i]) + 1) % 10) + old[i + 1:]
    assert float(cells[column]) != float(old)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def read_matrix(path):
    """The times and values of a stored space-time matrix CSV."""
    with open(path) as f:
        n_columns = f.readline().count(",")
    data = read_columns_csv(path, matrix_header(n_columns))
    return data[:, 0], data[:, 1:]


def write_matrix(path, times, values):
    """Store a space-time matrix CSV as a run writes it."""
    write_columns_csv(path, matrix_header(values.shape[1]), [times, values])


# A plain hat run's solution.csv is parsed, a plain sine run's is compared
# with the bytes of its rebuilt states: the tests that edit a run's stored
# states run both kinds and expect the same verdicts of each.
KINDS = ("hat", "sine")


def record_reads(monkeypatch):
    """The paths analyze parses through ``read_columns_csv``, recorded from now on."""
    import advisc.cli

    read = []

    def recording(path, header):
        read.append(Path(path))
        return read_columns_csv(path, header)

    monkeypatch.setattr(advisc.cli, "read_columns_csv", recording)
    return read


def failed_checks(out):
    analysis = json.loads((out / "analysis.json").read_text())
    return {c["name"]: c["detail"] for c in analysis["checks"] if not c["passed"]}


def write_config(tmp_path, name="exp.cfg", scheme="upwind", n_cells=100, t_final=0.05,
                 kind="hat", directory=None, extra_sim="", training=""):
    directory = directory or str(tmp_path / "out")
    text = BASE.format(scheme=scheme, n_cells=n_cells, t_final=t_final, kind=kind,
                       directory=directory, extra_sim=extra_sim) + training
    path = tmp_path / name
    path.write_text(text)
    return path, Path(directory)


class TestRunCommand:
    def test_upwind_records_all_states(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.15)
        assert main(["run", "--config", str(cfg_path)]) == 0
        times, states = read_matrix(out / "solution.csv")
        assert states.shape == (151, 100)  # 150 steps plus the initial state
        assert times[-1] == pytest.approx(0.15)
        for name in ("final_state.csv", "entropy.csv",
                     "summary.json", "manifest.json"):
            assert (out / name).is_file()

    def test_zero_t_final_outputs_initial_state_only(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.0)
        assert main(["run", "--config", str(cfg_path)]) == 0
        _, states = read_matrix(out / "solution.csv")
        assert states.shape == (1, 100)

    def test_bare_ftcs_growth_reported(self, tmp_path):
        cfg_path, out = write_config(tmp_path, scheme="ftcs_bare", kind="sine", t_final=1.0)
        assert main(["run", "--config", str(cfg_path)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stats"]["entropy_final"] > summary["stats"]["entropy_initial"]

    @pytest.mark.parametrize("n_cells", [2, 3.5, 0])
    def test_bad_cell_count_exits_3(self, tmp_path, capsys, n_cells):
        cfg_path, out = write_config(tmp_path, n_cells=n_cells)
        assert main(["run", "--config", str(cfg_path)]) == 3
        assert "n_cells" in capsys.readouterr().err
        assert not out.exists()

    def test_ftcs_mu_requires_mu_key(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, scheme="ftcs_mu")
        assert main(["run", "--config", str(cfg_path)]) == 3

    def test_training_config_is_for_train(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path, scheme="ftcs_mu", n_cells=20, t_final=0.01,
                                     training=TRAINING.format(n_iters=2, mu_min=-0.005))
        assert main(["run", "--config", str(cfg_path)]) == 3
        assert "[training] is for train" in capsys.readouterr().err
        assert not out.exists()

    def test_rejected_run_creates_no_directory(self, tmp_path):
        cfg_path, out = write_config(tmp_path, scheme="ftcs_mu")
        assert main(["run", "--config", str(cfg_path)]) == 3
        # every preset trains, so run takes none
        assert main(["run", "--preset", "paper-hat", "--out", str(out)]) == 3
        assert not out.exists()

    def test_divergent_run_exits_2_with_partial_outputs(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", kind="sine", t_final=0.5,
            extra_sim="mu = -0.05\n",
        )
        assert main(["run", "--config", str(cfg_path)]) == 2
        manifest = read_manifest(out)
        assert manifest["status"] == "divergence"
        assert manifest["diverged_at_step"] > 0
        assert all(entry.get("partial") for entry in manifest["files"]
                   if entry["name"].endswith(".csv"))
        _, states = read_matrix(out / "solution.csv")
        assert states.shape[0] == manifest["diverged_at_step"] + 1

    @pytest.mark.parametrize("scheme,extra_sim", [("lax_wendroff", ""),
                                                  ("ftcs_mu", "mu = 0.005\n")])
    def test_overflow_on_first_step_exits_2_in_every_scheme(self, tmp_path, scheme, extra_sim):
        cfg_path, out = write_config(tmp_path, scheme=scheme, n_cells=50, t_final=0.01,
                                     kind="hat\namplitude = 1e308", extra_sim=extra_sim)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg_path)]) == 2
        manifest = read_manifest(out)
        assert manifest["status"] == "divergence"
        _, states = read_matrix(out / "solution.csv")
        assert states.shape == (1, 50)
        assert manifest["diverged_at_step"] == len(states) - 1 == 0

    def test_unknown_config_key_exits_3(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, extra_sim="typo_key = 1\n")
        assert main(["run", "--config", str(cfg_path)]) == 3

    @pytest.mark.parametrize("section, key", [
        ("training", "seed"), ("training", "warm_start"), ("training", "init_mu"),
        ("training", "l2_penalty"), ("training", "smooth_penalty"),
        ("output", "write_solution"), ("output", "write_error"),
        ("output", "write_entropy"), ("output", "write_mu"),
    ])
    def test_deleted_key_exits_3_naming_it(self, tmp_path, capsys, section, key):
        cfg_path, _ = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=20, t_final=0.01, kind="sine",
            training=TRAINING.format(n_iters=5, mu_min=-0.005),
        )
        text = cfg_path.read_text().replace(f"[{section}]\n", f"[{section}]\n{key} = 0\n")
        cfg_path.write_text(text)
        assert main(["train", "--config", str(cfg_path)]) == 3
        assert f"'{key}'" in capsys.readouterr().err

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 3

    def test_config_that_is_not_utf8_exits_3(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path)
        cfg_path.write_bytes(b"# \xff\xfe\n" + cfg_path.read_bytes())
        assert main(["run", "--config", str(cfg_path)]) == 3
        assert "not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ic, named", [
        ("kind = hat\nlo = 0.5\nhi = 1.5", "hi = 1.5"),
        ("kind = hat\nlo = 0.6\nhi = 0.4", "0 <= lo < hi"),
        ("kind = hat\namplitude = inf", "amplitude"),
        ("kind = sine\namplitude = nan", "amplitude"),
        ("kind = gauss", str(tuple(PROFILES))),
        ("kind = sine\nwavenumber = 0", "wavenumber"),
    ], ids=["hat_hi_past_domain", "hat_lo_above_hi", "hat_amp_inf", "sine_amp_nan",
            "unknown_kind", "sine_wavenumber_0"])
    def test_bad_initial_condition_exits_3(self, tmp_path, capsys, ic, named):
        cfg_path, _ = write_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text().replace("kind = hat\n", ic + "\n"))
        assert main(["run", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and named in err

    @pytest.mark.parametrize("key, value", [
        ("length", "inf"), ("dt", "inf"), ("t_final", "inf"), ("n_cells", "inf"),
        ("learning_rate", "inf"), ("mu_min", "nan"), ("mu_max", "inf"),
    ], ids=["length", "dt", "t_final", "n_cells",
            "learning_rate_inf", "mu_min_nan", "mu_max_inf"])
    def test_non_finite_simulation_value_exits_3(self, tmp_path, capsys, key, value):
        # some keys live in [training], so every case runs `train` on a valid config
        cfg_path, _ = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=20, t_final=0.01, kind="sine",
            training=TRAINING.format(n_iters=5, mu_min=-0.005),
        )
        lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                 for line in cfg_path.read_text().splitlines()]
        cfg_path.write_text("\n".join(lines) + "\n")
        assert main(["train", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    @pytest.mark.parametrize("key, value", [
        ("n_cells", "2"), ("length", "0"), ("dt", "-0.001"), ("c", "nan"),
        ("t_final", "-0.005"),
    ])
    def test_bad_grid_or_scheme_value_exits_3(self, tmp_path, capsys, key, value):
        # the grid and the scheme config check these; run reports them as config errors
        cfg_path, out = write_config(tmp_path)
        lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                 for line in cfg_path.read_text().splitlines()]
        cfg_path.write_text("\n".join(lines) + "\n")
        assert main(["run", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("scheme, mu", [("ftcs_mu", "inf"), ("upwind", "0.01")],
                             ids=["non_finite", "on_upwind"])
    def test_bad_mu_exits_3_naming_it(self, tmp_path, capsys, scheme, mu):
        cfg_path, out = write_config(tmp_path, scheme=scheme, extra_sim=f"mu = {mu}\n")
        assert main(["run", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and "mu" in err
        assert not out.exists()

    def test_unclosed_section_header_exits_3_naming_it(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text().lstrip().replace("[simulation]", "[simulation", 1))
        assert main(["run", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and "[simulation" in err
        assert not out.exists()

    def test_run_after_train_replaces_previous_run(self, tmp_path):
        train_cfg, out = write_config(
            tmp_path, name="train.cfg", scheme="ftcs_mu", n_cells=32, t_final=0.03,
            training=TRAINING.format(n_iters=40, mu_min=-0.005),
        )
        run_cfg, _ = write_config(tmp_path, name="run.cfg", t_final=0.03)
        assert main(["train", "--config", str(train_cfg)]) == 0
        assert main(["analyze", str(out)]) == 0
        (out / "notes.txt").write_text("not part of any run\n")
        assert main(["run", "--config", str(run_cfg)]) == 0
        for name in ("mu.csv", "mu_final.csv", "loss_history.csv", "analysis.json"):
            assert not (out / name).exists()
        assert (out / "notes.txt").is_file()  # only files the old manifest listed go
        (out / "notes.txt").unlink()
        assert main(["analyze", str(out)]) == 0

    def test_run_writes_no_error_field(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert not (out / "error.csv").exists()
        assert "error.csv" not in {entry["name"] for entry in read_manifest(out)["files"]}

    def test_rerun_clears_error_field_an_older_manifest_lists(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        out.mkdir()
        (out / "error.csv").write_text("t\\x,x0\n0,0\n")
        (out / "manifest.json").write_text(json.dumps(
            {"files": [{"name": "error.csv", "role": "error_field"},
                       {"name": "manifest.json", "role": "manifest"}]}))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert not (out / "error.csv").exists()
        assert main(["analyze", str(out)]) == 0

    def test_out_flag_overrides_directory(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, t_final=0.01)
        override = tmp_path / "elsewhere"
        assert main(["run", "--config", str(cfg_path), "--out", str(override)]) == 0
        assert (override / "solution.csv").is_file()


class TestTrainCommand:
    def test_training_produces_mu_artifacts(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=32, t_final=0.03,
            training=TRAINING.format(n_iters=40, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        for name in ("mu.csv", "mu_final.csv", "loss_history.csv", "solution.csv",
                     "summary.json", "manifest.json"):
            assert (out / name).is_file()
        times, mu = read_matrix(out / "mu.csv")
        assert mu.shape == (30, 32)
        iters, losses = read_columns_csv(out / "loss_history.csv", "iter,loss").T
        assert len(losses) == 30
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "ok" and "converged" not in summary["training"]

    def test_configs_of_other_problems_each_train_on_their_own(self, tmp_path):
        # Each config trains on its own problem: b used to be trained on a's
        # 100 cells and then fail analyze on its 50-cell header.
        from advisc.cli import cmd_train

        short = {"simulation": {"t_final": 0.01}}
        a = preset_config("paper-hat", str(tmp_path / "a"), short)
        b = preset_config("paper-hat", str(tmp_path / "b"),
                          {"simulation": {"t_final": 0.01, "n_cells": 50}})
        assert cmd_train(a, b) == 0
        for name in "ab":
            assert main(["analyze", str(tmp_path / name)]) == 0
        assert read_matrix(tmp_path / "b" / "mu.csv")[1].shape == (10, 50)
        alone = replace(b, output=replace(b.output, directory=str(tmp_path / "alone")))
        assert cmd_train(alone) == 0
        for name in ("solution.csv", "mu.csv", "summary.json"):
            assert (tmp_path / "b" / name).read_bytes() == \
                (tmp_path / "alone" / name).read_bytes(), name
        # Per-step configs that differ in n_iters train in separate batches.
        c = preset_config("paper-hat", str(tmp_path / "c"), {**short, "training": {"n_iters": 7}})
        assert cmd_train(a, c) == 0
        assert main(["analyze", str(tmp_path / "c")]) == 0

    def test_train_exits_with_the_first_failed_run_in_config_order(self, tmp_path,
                                                                   monkeypatch):
        # a and c train in one per-step call, before b's global call; b comes
        # first of the failed runs in config order.
        import advisc.cli

        trained_per_step, trained_global = advisc.cli.train_per_step, advisc.cli.train_global
        calls = []

        def per_step(cfg, opts, exact):
            calls.append(len(opts))
            reports = trained_per_step(cfg, opts, exact)
            return reports[:-1] + [replace(reports[-1], status="divergence")]

        def global_(cfg, opts, exact):
            calls.append(len(opts))
            return [replace(r, status="no_convergence") for r in trained_global(cfg, opts, exact)]

        monkeypatch.setattr(advisc.cli, "train_per_step", per_step)
        monkeypatch.setattr(advisc.cli, "train_global", global_)
        short = {"simulation": {"t_final": 0.01}}
        a, c = (preset_config("paper-hat", str(tmp_path / name), short) for name in "ac")
        b = preset_config("paper-hat", str(tmp_path / "b"),
                          {**short, "training": {"mode": "global", "n_iters": 2}})
        assert advisc.cli.cmd_train(a, b, c) == 5
        assert calls == [2, 1]
        assert [read_manifest(tmp_path / name)["status"] for name in "abc"] == \
            ["ok", "no_convergence", "divergence"]

    def test_train_writes_exactly_the_checked_files(self, tmp_path, monkeypatch):
        import advisc.cli

        derived_names = set()
        derived = advisc.cli._derived

        def recording(*args, **kwargs):
            csvs, blocks = derived(*args, **kwargs)
            derived_names.update(csvs)
            return csvs, blocks

        monkeypatch.setattr(advisc.cli, "_derived", recording)
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=20, t_final=0.01,
            training=TRAINING.format(n_iters=5, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["analyze", str(out)]) == 0
        checked = advisc.cli.RUN_FILES | advisc.cli.TRAINING_FILES
        assert {p.name for p in out.iterdir()} - {"analysis.json"} == checked
        assert {entry["name"] for entry in read_manifest(out)["files"]} == checked
        assert derived_names == set(advisc.cli.DERIVED_CSVS) and derived_names <= checked

    @pytest.mark.parametrize("mode", ["per_step", "global"])
    def test_overflow_on_first_step_writes_divergence_manifest(self, tmp_path, mode):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=16, t_final=0.003,
            kind="hat\namplitude = 1e308",
            training=TRAINING.format(n_iters=2, mu_min=0.0).replace("per_step", mode),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(cfg_path)]) == 2
        manifest = read_manifest(out)
        assert manifest["status"] == "divergence"
        _, states = read_matrix(out / "solution.csv")
        assert states.shape == (1, 16)
        assert manifest["diverged_at_step"] == len(states) - 1 == 0

    def test_mu_snapshot_has_normalized_column(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=32, t_final=0.03,
            training=TRAINING.format(n_iters=40, mu_min=-0.005),
        )
        main(["train", "--config", str(cfg_path)])
        header = (out / "mu_final.csv").read_text().splitlines()[0]
        assert header == "x_face,mu_raw,mu_normalized"
        data = np.array([
            [float(v) for v in line.split(",")]
            for line in (out / "mu_final.csv").read_text().splitlines()[1:]
        ])
        scale = np.max(np.abs(data[:, 1]))
        assert np.allclose(data[:, 2], data[:, 1] / scale, atol=1e-15)

    def test_csv_text_is_pinned(self, tmp_path):
        # The header and first data line of each CSV a training run writes;
        # a writer that changes any byte of them fails here.
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=5, t_final=0.003, kind="sine",
            training=TRAINING.format(n_iters=5, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        pinned = {
            "solution.csv": [
                "t\\x,x0,x1,x2,x3,x4",
                "0,0.58778525229247314,0.95105651629515353,1.2246467991473532e-16,"
                "-0.95105651629515353,-0.58778525229247336"],
            "final_state.csv": [
                "x,u,exact,error",
                "0.10000000000000001,0.57051186441744528,0.57243212559459089,"
                "-0.0019202611771456102"],
            "entropy.csv": ["t,entropy", "0,0.25000000000000006"],
            "mu.csv": [
                "t\\x,x0,x1,x2,x3,x4",
                "0,0.094999474462455338,0.094999026580546375,0.094998022537930313,"
                "0.095000000000000001,0.094997745746252235"],
            "mu_final.csv": [
                "x_face,mu_raw,mu_normalized",
                "0.20000000000000001,0.094996781019296678,0.99996611599259655"],
            "loss_history.csv": ["iter,loss", "0,6.4887010758121665e-06"],
        }
        for name, lines in pinned.items():
            assert (out / name).read_text().splitlines()[:2] == lines, name

    def test_training_requires_training_section(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, scheme="ftcs_mu", extra_sim="mu = 0.005\n")
        assert main(["train", "--config", str(cfg_path)]) == 3

    @pytest.mark.parametrize("scheme, t_final, edit, key", [
        ("upwind", 0.01, None, "scheme"),
        ("ftcs_mu", 0.0, None, "t_final"),
        ("ftcs_mu", 0.01, ("mode = per_step", "mode = both"), "mode"),
        ("ftcs_mu", 0.01, ("n_iters = 2", "n_iters = 0"), "n_iters"),
    ], ids=["upwind", "no_step", "mode_both", "no_iters"])
    def test_config_that_cannot_train_exits_3_naming_the_key(self, tmp_path, capsys, scheme,
                                                             t_final, edit, key):
        cfg_path, out = write_config(tmp_path, scheme=scheme, n_cells=20, t_final=t_final,
                                     training=TRAINING.format(n_iters=2, mu_min=-0.005))
        if edit:
            cfg_path.write_text(cfg_path.read_text().replace(*edit))
        assert main(["train", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not out.exists()

    def test_training_rejects_a_constant_mu(self, tmp_path, capsys):
        # analyze would replay the learned steps at that mu and fail the run.
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=40, t_final=0.01, extra_sim="mu = 0.01\n",
            training=TRAINING.format(n_iters=2, mu_min=-0.005))
        assert main(["train", "--config", str(cfg_path)]) == 3
        assert "ftcs_mu takes either 'mu' or a [training] section" in capsys.readouterr().err
        assert not out.exists()

    def test_collapsed_bounds_match_constant_mu_run(self, tmp_path):
        # degenerate training bounds pin mu = 0.005, i.e. the upwind-equivalent run
        train_cfg, train_out = write_config(
            tmp_path, name="train.cfg", scheme="ftcs_mu", n_cells=50, t_final=0.02,
            directory=str(tmp_path / "trained"),
            training="\n[training]\nmode = per_step\nn_iters = 5\n"
                     "mu_min = 0.005\nmu_max = 0.005\n",
        )
        run_cfg, run_out = write_config(
            tmp_path, name="run.cfg", scheme="ftcs_mu", n_cells=50, t_final=0.02,
            directory=str(tmp_path / "plain"), extra_sim="mu = 0.005\n",
        )
        assert main(["train", "--config", str(train_cfg)]) == 0
        assert main(["run", "--config", str(run_cfg)]) == 0
        trained = (train_out / "solution.csv").read_bytes()
        plain = (run_out / "solution.csv").read_bytes()
        assert trained == plain

    def test_same_seed_byte_identical(self, tmp_path):
        results = []
        for tag in ("a", "b"):
            cfg_path, out = write_config(
                tmp_path, name=f"{tag}.cfg", scheme="ftcs_mu", n_cells=32,
                t_final=0.03, directory=str(tmp_path / tag),
                training=TRAINING.format(n_iters=40, mu_min=-0.005),
            )
            assert main(["train", "--config", str(cfg_path)]) == 0
            results.append(out)
        for name in ("solution.csv", "mu.csv", "loss_history.csv"):
            assert (results[0] / name).read_bytes() == (results[1] / name).read_bytes()

    def test_train_writes_no_error_field(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=16, t_final=0.01,
            training=TRAINING.format(n_iters=5, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert not (out / "error.csv").exists()
        assert "error.csv" not in {entry["name"] for entry in read_manifest(out)["files"]}

    def test_divergent_training_exits_2(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=64, t_final=0.1, kind="hat",
            training="\n[training]\nmode = per_step\nn_iters = 1\n"
                     "learning_rate = 1e-15\nmu_min = -0.08\nmu_max = -0.07\n",
        )
        assert main(["train", "--config", str(cfg_path)]) == 2
        manifest = read_manifest(out)
        assert manifest["status"] == "divergence"
        # the run halts mid-horizon at the step whose state diverged
        _, states = read_matrix(out / "solution.csv")
        assert 0 < manifest["diverged_at_step"] == len(states) - 1 < 100

    def test_halted_global_training_stores_whole_csvs(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", t_final=0.1, kind="hat",
            training="\n[training]\nmode = global\nn_iters = 20\n"
                     "learning_rate = 1e12\nmu_min = -0.005\nmu_max = 0.095\n",
        )
        assert main(["train", "--config", str(cfg_path)]) == 5
        manifest = read_manifest(out)
        assert manifest["status"] == "no_convergence"
        # the best iterate's whole horizon is stored, so no file is partial
        assert "diverged_at_step" not in manifest
        assert not any(entry.get("partial") for entry in manifest["files"])
        _, states = read_matrix(out / "solution.csv")
        assert len(states) == 101


class TestAnalyzeCommand:
    def test_analyze_upwind_run_passes(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.05)
        main(["run", "--config", str(cfg_path)])
        assert main(["analyze", str(out)]) == 0
        analysis = json.loads((out / "analysis.json").read_text())
        assert analysis["all_passed"] is True
        names = {c["name"] for c in analysis["checks"]}
        assert {"stored_steps_consistent", "steps_stored"} <= names

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_analyze_replays_every_plain_scheme(self, tmp_path, scheme):
        extra_sim = "mu = 0.005\n" if scheme == "ftcs_mu" else ""
        cfg_path, out = write_config(tmp_path, scheme=scheme, t_final=0.02, extra_sim=extra_sim)
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert main(["analyze", str(out)]) == 0
        analysis = json.loads((out / "analysis.json").read_text())
        assert "stored_steps_consistent" in {check["name"] for check in analysis["checks"]}

    def test_analyze_detects_swapped_entries_in_bare_ftcs_run(self, tmp_path):
        for kind in KINDS:
            (tmp_path / kind).mkdir()
            cfg_path, out = write_config(tmp_path / kind, scheme="ftcs_bare", t_final=0.05,
                                         kind=kind)
            assert main(["run", "--config", str(cfg_path)]) == 0
            times, states = read_matrix(out / "solution.csv")
            middle = len(states) // 2
            assert states[middle, 10] != states[middle, 50]
            states[middle, [10, 50]] = states[middle, [50, 10]]
            write_matrix(out / "solution.csv", times, states)
            assert main(["analyze", str(out)]) == 1
            assert failed_checks(out) == {
                "stored_steps_consistent": f"ftcs_bare replayed; first state unlike simulate's: "
                                           f"{middle}"}, kind

    def test_analyze_replays_a_training_run_whose_first_sweep_diverged(self, tmp_path):
        # Bounds that hold mu negative make the first sweep of global training
        # diverge, so the run stores its steps and no mu.csv; each of them ran
        # at the optimizer's initial viscosity.
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=50, t_final=5.0,
            training="\n[training]\nmode = global\nmu_min = -0.01\nmu_max = -0.005\n")
        cfg_path.write_text(cfg_path.read_text().replace("dt = 0.001", "dt = 0.005"))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert not (out / "mu.csv").exists()
        assert main(["analyze", str(out)]) == 1
        assert set(failed_checks(out)) == {"run_status_ok"}
        analysis = json.loads((out / "analysis.json").read_text())
        assert "stored_steps_consistent" in {check["name"] for check in analysis["checks"]}
        times, states = read_matrix(out / "solution.csv")
        assert 2 < len(states) < 1001
        assert read_manifest(out)["diverged_at_step"] == len(states) - 1
        middle = len(states) // 2
        states[middle, 7] = np.nextafter(states[middle, 7], np.inf)
        write_matrix(out / "solution.csv", times, states)
        assert main(["analyze", str(out)]) == 1
        assert failed_checks(out)["stored_steps_consistent"] == (
            f"ftcs_mu replayed; first state unlike simulate's: {middle}")

    @pytest.mark.parametrize("command, name, row, edit", [
        ("train", "mu.csv", 3, lambda t: "0.5"),
        ("train", "solution.csv", 3, lambda t: "0.5"),
        ("run", "solution.csv", 20, lambda t: "-" + t),
    ], ids=["mu_time_of_a_training_run", "solution_time_of_a_training_run",
            "last_solution_time_negated"])
    def test_analyze_rejects_a_stored_time_other_than_n_dt(self, tmp_path, capsys, command,
                                                          name, row, edit):
        train = command == "train"
        for kind in KINDS:
            (tmp_path / kind).mkdir()
            cfg_path, out = write_config(
                tmp_path / kind, scheme="ftcs_mu" if train else "upwind", n_cells=50,
                t_final=0.02, kind=kind,
                training=TRAINING.format(n_iters=5, mu_min=-0.005) if train else "")
            assert main([command, "--config", str(cfg_path)]) == 0
            lines = (out / name).read_text().splitlines()
            time, rest = lines[row + 1].split(",", 1)
            lines[row + 1] = f"{edit(time)},{rest}"
            (out / name).write_text("\n".join(lines) + "\n")
            capsys.readouterr()
            assert main(["analyze", str(out)]) == 4
            err = capsys.readouterr().err
            assert f"{out / name} has times other than n*dt" in err, kind

    # Each edit m of a manifest stores another step count than its run's states.
    @pytest.mark.parametrize("diverges, edit", [
        (False, lambda m: m["config"]["simulation"].update(t_final=0.05)),
        (True, lambda m: m.update(diverged_at_step=m["diverged_at_step"] + 1)),
        (True, lambda m: m.update(diverged_at_step=float(m["diverged_at_step"]))),
    ], ids=["t_final_longer", "diverged_at_step_later", "diverged_at_step_not_an_int"])
    def test_analyze_fails_a_run_that_stores_other_than_its_steps(self, tmp_path, diverges, edit):
        # An upwind run to t_final = 0.02 stores 21 states; ftcs_mu at mu = -0.05 diverges.
        for kind in KINDS:
            (tmp_path / kind).mkdir()
            cfg_path, out = write_config(tmp_path / kind,
                                         scheme="ftcs_mu" if diverges else "upwind", kind=kind,
                                         t_final=0.5 if diverges else 0.02,
                                         extra_sim="mu = -0.05\n" if diverges else "")
            assert main(["run", "--config", str(cfg_path)]) == (2 if diverges else 0)
            failed = {"run_status_ok"} if diverges else set()
            assert main(["analyze", str(out)]) == int(diverges)
            assert failed_checks(out).keys() == failed
            manifest = read_manifest(out)
            edit(manifest)
            (out / "manifest.json").write_text(json.dumps(manifest))
            assert main(["analyze", str(out)]) == 1
            assert failed_checks(out).keys() == failed | {"steps_stored"}, kind
            stored = len(read_matrix(out / "solution.csv")[1])
            n_steps = config_from_dict(manifest["config"]).n_steps
            steps = manifest.get("diverged_at_step", n_steps)
            assert failed_checks(out)["steps_stored"] == (
                f"{stored} states for {steps!r} of {n_steps} steps")

    @pytest.mark.parametrize("mode", ["per_step", "global"])
    def test_analyze_fails_a_loss_edited_in_loss_history_and_summary_alike(self, tmp_path,
                                                                           mode):
        # A per-step run's losses follow from its stored states; a global run
        # stores its best iterate, whose loss is the least loss.
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=20, t_final=0.01,
            training=TRAINING.format(n_iters=5, mu_min=-0.005).replace("per_step", mode),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        losses = read_columns_csv(out / "loss_history.csv", "iter,loss")[:, 1]
        best = int(np.argmin(losses))
        losses[best] *= 1.0 - 1e-3  # still the least loss
        reference_write_columns_csv(out / "loss_history.csv", "iter,loss",
                                    np.column_stack((np.arange(len(losses)), losses)))
        summary = json.loads((out / "summary.json").read_text())
        summary["training"].update(loss_first=float(losses[0]), loss_last=float(losses[-1]),
                                   loss_best=float(losses[best]))
        (out / "summary.json").write_text(json.dumps(summary))
        assert main(["analyze", str(out)]) == 1
        failed = failed_checks(out)
        if mode == "per_step":
            assert {"loss_history_consistent", "training:loss_best"} <= set(failed)
        else:
            assert set(failed) == {"trajectory_loss_consistent"}

    def test_analyze_scans_the_stored_matrices_once(self, tmp_path, monkeypatch):
        """_read_run_matrix checks solution.csv and mu.csv for non-finite
        entries; the trajectory analyze rebuilds them into does not scan them
        again."""
        import advisc.schemes

        cfg_path, out = write_config(tmp_path, scheme="ftcs_mu", t_final=0.01,
                                     training=TRAINING.format(n_iters=5, mu_min=-0.005))
        assert main(["train", "--config", str(cfg_path)]) == 0
        checked = []
        original = advisc.schemes._checked

        def recording(values, shape, what):
            checked.append(what)
            return original(values, shape, what)

        monkeypatch.setattr(advisc.schemes, "_checked", recording)
        assert main(["analyze", str(out)]) == 0
        assert "states" not in checked and "viscosity_history" not in checked

    def test_read_run_matrix_returns_a_view_of_the_parsed_data(self, tmp_path, monkeypatch):
        import advisc.cli

        cfg_path, out = write_config(tmp_path, t_final=0.02)
        assert main(["run", "--config", str(cfg_path)]) == 0
        parsed = []

        def recording(*args):
            parsed.append(read_columns_csv(*args))
            return parsed[-1]

        monkeypatch.setattr(advisc.cli, "read_columns_csv", recording)
        values = advisc.cli._read_run_matrix(out / "solution.csv", 100, 0.001)
        assert np.shares_memory(values, parsed[0])
        assert all(row.flags.c_contiguous for row in values)
        assert np.array_equal(values, read_matrix(out / "solution.csv")[1])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("mode", ["plain", "per_step", "global"])
    def test_analyze_parses_solution_only_when_mostly_zeros(self, tmp_path, monkeypatch, mode,
                                                            kind):
        """A sine run, whose values print from their digits, is checked by
        comparing solution.csv with the bytes of the states rebuilt at the
        viscosity it stepped at, trained or not; a hat run, mostly zeros,
        which parse faster than they format, is parsed."""
        train = mode != "plain"
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu" if train else "upwind", kind=kind, t_final=0.02,
            training=TRAINING.format(n_iters=5, mu_min=-0.005).replace("per_step", mode)
            if train else "")
        assert main(["train" if train else "run", "--config", str(cfg_path)]) == 0
        read = record_reads(monkeypatch)
        assert main(["analyze", str(out)]) == 0
        names = {path.name for path in read}
        assert ("solution.csv" in names) == (kind == "hat")
        assert ("mu.csv" in names) == train
        assert {"final_state.csv", "entropy.csv"} <= names

    def test_analyze_of_a_sine_study_parses_no_solution_csv(self, tmp_path, monkeypatch):
        # sine-smooth trains its two per-step runs in one batch
        out = tmp_path / "study"
        assert main(["reproduce", "--preset", "sine-smooth", "--out", str(out)]) == 0
        read = record_reads(monkeypatch)
        assert main(["analyze", str(out)]) == 0
        matrices = sorted(str(path.relative_to(out)) for path in read
                          if path.name in ("solution.csv", "mu.csv"))
        assert matrices == ["nonneg/mu.csv", "signed/mu.csv"]

    @pytest.mark.parametrize("kind", ["hat", "sine"])
    def test_analyze_passes_a_value_written_other_than_the_writer_writes_it(self, tmp_path,
                                                                             kind):
        # A trailing zero leaves the value, so the parsed states are the run's.
        for command in ("run", "train"):
            train = command == "train"
            (tmp_path / command).mkdir()
            cfg_path, out = write_config(
                tmp_path / command, scheme="ftcs_mu" if train else "upwind", kind=kind,
                t_final=0.02, training=TRAINING.format(n_iters=5, mu_min=-0.005) if train else "")
            assert main([command, "--config", str(cfg_path)]) == 0
            lines = (out / "solution.csv").read_text().splitlines()
            cells = lines[4].split(",")
            j = next(j for j, cell in enumerate(cells) if j and "." in cell and "e" not in cell)
            cells[j] += "0"
            lines[4] = ",".join(cells)
            (out / "solution.csv").write_text("\n".join(lines) + "\n")
            assert main(["analyze", str(out)]) == 0, command

    def test_replay_finds_the_first_step_that_differs(self):
        from advisc.grid import make_grid
        from advisc.schemes import SchemeConfig, _first_mismatch, simulate

        def first_mismatch_alone(u0, states, cfg, scheme, mu):
            # the reference: simulate one step from each stored state
            if not np.array_equal(states[0], u0):
                return 0
            for n in range(1, len(states)):
                row = None if mu is None else mu[n - 1]
                if not np.array_equal(simulate(states[n - 1], 1, cfg, scheme, row).states[1],
                                      states[n]):
                    return n
            return None

        # Each edit alone and the later ones together: an early, a middle and
        # the last row of 48 steps at N = 100, and rows 2 and 4 of 4 at N = 1100.
        rng = np.random.default_rng(5)
        for n_cells, n_steps, c, rows in ((100, 48, 1.0, (3, 10, 47)), (1100, 4, -1.0, (2, 4))):
            cfg = SchemeConfig(c=c, dt=1e-3, grid=make_grid(n_cells, 1.0))
            u0 = rng.normal(size=n_cells)
            for scheme in SCHEME_NAMES:
                mu = rng.uniform(-0.001, 0.01, (n_steps, n_cells)) if scheme == "ftcs_mu" else None
                states = simulate(u0, n_steps, cfg, scheme, mu).states
                assert _first_mismatch(u0, states, cfg, scheme, mu) is None
                for edited_rows in [(0,), *((row,) for row in rows), rows[1:]]:
                    edited = states.copy()
                    for row in edited_rows:
                        edited[row, 7] = np.nextafter(edited[row, 7], np.inf)
                    first = _first_mismatch(u0, edited, cfg, scheme, mu)
                    assert first == edited_rows[0], (n_cells, scheme, edited_rows)
                    assert first == first_mismatch_alone(u0, edited, cfg, scheme, mu)

    def test_replay_counts_a_non_finite_step_as_a_mismatch(self):
        from advisc.grid import make_grid
        from advisc.schemes import SchemeConfig, _first_mismatch, simulate

        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=make_grid(50, 1.0))
        u0 = np.random.default_rng(5).normal(size=50)
        mu = np.full((45, 50), 0.005)
        states = simulate(u0, 45, cfg, mu=mu).states
        mu[3] = 1e308  # overflows mu/dx, so the step's flux differences are inf - inf
        with np.errstate(all="ignore"):
            assert _first_mismatch(u0, states, cfg, "ftcs_mu", mu) == 4

    def test_replay_scratch_does_not_grow_with_the_step_count(self):
        from advisc.grid import make_grid
        from advisc.schemes import SchemeConfig, _first_mismatch, simulate

        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=make_grid(100, 1.0))
        rng = np.random.default_rng(5)
        peaks = []
        for n_steps in (150, 1500):
            u0 = rng.normal(size=100)
            mu = rng.uniform(0, 0.01, (n_steps, 100))
            states = simulate(u0, n_steps, cfg, mu=mu).states
            tracemalloc.start()
            try:
                assert _first_mismatch(u0, states, cfg, "ftcs_mu", mu) is None
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # The replay holds a few buffers of one row, under 4 kB at N = 100;
        # the states at M = 1500 are 1.2 MB.
        assert peaks[1] < peaks[0] + 1024, f"replay peaked at {peaks} bytes"
        assert max(peaks) < 80 * 1024, f"replay peaked at {peaks} bytes"

    def test_analyze_training_run_passes(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=32, t_final=0.03,
            training=TRAINING.format(n_iters=40, mu_min=-0.005),
        )
        main(["train", "--config", str(cfg_path)])
        assert main(["analyze", str(out)]) == 0

    def test_analyze_empty_directory_exits_4(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["analyze", str(empty)]) == 4

    def test_analyze_detects_tampered_solution(self, tmp_path):
        for kind in KINDS:
            (tmp_path / kind).mkdir()
            cfg_path, out = write_config(tmp_path / kind, t_final=0.05, kind=kind)
            main(["run", "--config", str(cfg_path)])
            times, stored = read_matrix(out / "solution.csv")
            assert len(stored) == 51
            for row in (3, 10, 47):
                states = stored.copy()
                states[row, 7] = np.nextafter(states[row, 7], -np.inf)
                write_matrix(out / "solution.csv", times, states)
                assert main(["analyze", str(out)]) == 1, (kind, row)
                assert failed_checks(out)["stored_steps_consistent"] == (
                    f"upwind replayed; first state unlike simulate's: {row}")

    @pytest.mark.parametrize("scheme, row", [
        ("upwind", 25), ("lax_wendroff", 25), ("ftcs_mu", 25), ("upwind", 0),
    ], ids=["upwind", "lax_wendroff", "training", "upwind_state_0"])
    def test_analyze_fails_one_ulp_in_one_stored_state(self, tmp_path, scheme, row):
        # 50 steps at N = 20; the ftcs_mu run trains per step
        training = TRAINING.format(n_iters=5, mu_min=-0.005) if scheme == "ftcs_mu" else ""
        for kind in KINDS:
            (tmp_path / kind).mkdir()
            cfg_path, out = write_config(tmp_path / kind, scheme=scheme, n_cells=20,
                                         t_final=0.05, kind=kind, training=training)
            assert main(["train" if training else "run", "--config", str(cfg_path)]) == 0
            assert main(["analyze", str(out)]) == 0
            times, states = read_matrix(out / "solution.csv")
            states[row, 7] = np.nextafter(states[row, 7], np.inf)
            write_matrix(out / "solution.csv", times, states)
            assert main(["analyze", str(out)]) == 1
            assert failed_checks(out)["stored_steps_consistent"] == (
                f"{scheme} replayed; first state unlike simulate's: {row}"), kind

    def test_analyze_names_a_tampered_mu_entry(self, tmp_path):
        # A hat run's solution.csv is parsed; a sine run's first fails to
        # match the states rebuilt at the edited mu.csv, then is parsed.
        from advisc.grid import make_grid
        from advisc.schemes import SchemeConfig, simulate

        cfg = SchemeConfig(c=1.0, dt=0.001, grid=make_grid(100, 1.0))

        def one_ulp_up(row, face):
            row = row.copy()
            row[face] = np.nextafter(row[face], np.inf)
            return row

        for kind in KINDS:
            (tmp_path / kind).mkdir()
            cfg_path, out = write_config(
                tmp_path / kind, scheme="ftcs_mu", t_final=0.03, kind=kind,
                training=TRAINING.format(n_iters=10, mu_min=-0.005),
            )
            assert main(["train", "--config", str(cfg_path)]) == 0
            assert main(["analyze", str(out)]) == 0
            _, states = read_matrix(out / "solution.csv")
            times, mu = read_matrix(out / "mu.csv")
            assert len(mu) == 30
            # One ulp more of mu rounds away in the step at most faces, even
            # across the state's largest jump; edit the first face where it
            # moves the step.
            face = next(face for face in range(100)
                        if not np.array_equal(simulate(states[25], 1, cfg,
                                                       mu=one_ulp_up(mu[25], face)).states[1],
                                              states[26]))
            mu[25] = one_ulp_up(mu[25], face)
            write_matrix(out / "mu.csv", times, mu)
            assert main(["analyze", str(out)]) == 1
            assert failed_checks(out) == {
                "stored_steps_consistent": "ftcs_mu replayed; first state unlike simulate's: 26",
            }, kind

    def test_analyze_fails_a_per_step_mu_entry_moved_at_a_flat_face(self, tmp_path):
        # A face whose jump is exactly zero in the state a step loads has no
        # gradient, so per-step training keeps its mu from the step before.
        # An edit there moves no stored state, and no mu:* statistic while it
        # keeps its sign and stays below the largest entry. A global run's
        # stored states are its best iterate's, flat where earlier iterates
        # need not have been, so the same edit passes there.
        for mode in ("per_step", "global"):
            (tmp_path / mode).mkdir()
            cfg_path, out = write_config(
                tmp_path / mode, scheme="ftcs_mu", t_final=0.03, kind="hat",
                training=TRAINING.format(n_iters=10, mu_min=-0.005).replace("per_step", mode),
            )
            assert main(["train", "--config", str(cfg_path)]) == 0
            _, states = read_matrix(out / "solution.csv")
            times, mu = read_matrix(out / "mu.csv")
            flat = np.roll(states[:-1], -1, axis=1) == states[:-1]
            editable = flat & (mu > 0) & (mu < mu.max())
            editable[-1] = False  # the last row is mu_final.csv's as well
            entries = np.argwhere(editable)
            row, face = (int(i) for i in entries[len(entries) // 2])
            mu[row, face] = (mu[row, face] + mu.max()) / 2
            write_matrix(out / "mu.csv", times, mu)
            if mode == "global":
                assert main(["analyze", str(out)]) == 0
                continue
            assert main(["analyze", str(out)]) == 1
            assert failed_checks(out) == {"mu_unmoved_where_flat": (
                f"{np.count_nonzero(flat)} flat faces; first step that moved one: {row}")}

    @pytest.mark.parametrize("target, expected", [
        ("solution.csv", {"stat:mse_final", "stored_steps_consistent"}),
        ("mu.csv", {"stored_steps_consistent"}),
    ], ids=["last_state", "one_mu_entry"])
    def test_analyze_names_tampered_training_file(self, tmp_path, target, expected):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=32, t_final=0.03,
            training=TRAINING.format(n_iters=40, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        _, states = read_matrix(out / "solution.csv")
        times, values = read_matrix(out / target)
        if target == "solution.csv":
            values[-1, 7] += 0.01
        else:
            # a face across a jump of the state it steps, so the entry matters
            face = int(np.argmax(np.abs(np.diff(states[5]))))
            values[5, face] += 0.01
        write_matrix(out / target, times, values)
        assert main(["analyze", str(out)]) == 1
        analysis = json.loads((out / "analysis.json").read_text())
        failed = {c["name"] for c in analysis["checks"] if not c["passed"]}
        assert expected <= failed

    @pytest.mark.parametrize("command, target, rows, expected", [
        ("train", "mu.csv", slice(None, -1), {"stored_steps_consistent"}),
        ("train", "mu.csv", [*range(30), 29], {"stored_steps_consistent"}),
        ("train", "solution.csv", slice(None, -1),
         {"entropy_series_consistent", "stored_steps_consistent"}),
        ("train", "solution.csv", slice(None, 1),
         {"stored_steps_consistent", "loss_history_consistent"}),
        ("run", "solution.csv", slice(None, -1), {"entropy_series_consistent"}),
    ], ids=["mu_row_missing", "mu_row_extra", "solution_row_missing", "solution_state_0_only",
            "plain_solution_row_missing"])
    def test_analyze_names_row_count_mismatch(self, tmp_path, command, target, rows, expected):
        train = command == "train"
        for kind in KINDS:
            (tmp_path / kind).mkdir()
            cfg_path, out = write_config(
                tmp_path / kind, scheme="ftcs_mu", n_cells=20, t_final=0.03, kind=kind,
                extra_sim="" if train else "mu = 0.002",
                training=TRAINING.format(n_iters=10, mu_min=-0.005) if train else "",
            )
            assert main([command, "--config", str(cfg_path)]) == 0
            _, values = read_matrix(out / target)
            values = values[rows]  # stored at the times a run gives its rows
            write_matrix(out / target, np.arange(len(values)) * 0.001, values)
            assert main(["analyze", str(out)]) == 1
            failed = failed_checks(out)
            assert expected <= set(failed), kind
            for name in expected:
                assert "rows" in failed[name]
            if target == "mu.csv":
                # A sine's states rebuilt at the edited rows miss solution.csv's
                # bytes, so it is parsed, as a hat's is at once; nothing else fails.
                assert failed == {"stored_steps_consistent": f"{len(values)} rows for 30 steps"}

    def test_analyze_rejects_header_only_solution_exits_4(self, tmp_path, capsys):
        for kind in KINDS:
            (tmp_path / kind).mkdir()
            cfg_path, out = write_config(tmp_path / kind, t_final=0.01, kind=kind)
            main(["run", "--config", str(cfg_path)])
            header = (out / "solution.csv").read_text().splitlines()[0]
            (out / "solution.csv").write_text(header + "\n")
            capsys.readouterr()
            assert main(["analyze", str(out)]) == 4
            assert f"{out / 'solution.csv'} has no data rows" in capsys.readouterr().err, kind

    def test_analyze_rejects_non_finite_solution_exits_4(self, tmp_path, capsys):
        for kind in KINDS:
            (tmp_path / kind).mkdir()
            cfg_path, out = write_config(tmp_path / kind, t_final=0.01, kind=kind)
            main(["run", "--config", str(cfg_path)])
            lines = (out / "solution.csv").read_text().splitlines()
            cells = lines[3].split(",")
            cells[5] = "nan"
            lines[3] = ",".join(cells)
            (out / "solution.csv").write_text("\n".join(lines) + "\n")
            capsys.readouterr()
            assert main(["analyze", str(out)]) == 4
            err = capsys.readouterr().err
            assert f"{out / 'solution.csv'} has non-finite entries" in err, kind

    @pytest.mark.parametrize("name, text", [
        ("entropy.csv", "0.002,0.1,0.2"),
        ("entropy.csv", "abc,def"),
        ("solution.csv", "0.002,0.5"),
    ], ids=["entropy_three_fields", "entropy_not_numbers", "solution_short_row"])
    def test_analyze_names_corrupt_csv_exits_4(self, tmp_path, capsys, name, text):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        main(["run", "--config", str(cfg_path)])
        lines = (out / name).read_text().splitlines()
        lines[3] = text
        (out / name).write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(out)]) == 4
        assert str(out / name) in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["final_state.csv", "summary.json"],
                             ids=["final_state_extra_column", "summary_deleted"])
    def test_analyze_names_a_file_it_cannot_read_exits_4(self, tmp_path, capsys, name):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        assert main(["run", "--config", str(cfg_path)]) == 0
        path = out / name
        if name == "summary.json":
            path.unlink()
        else:
            header, *rows = path.read_text().splitlines()
            path.write_text("\n".join([header] + [row + ",0" for row in rows]) + "\n")
        assert main(["analyze", str(out)]) == 4
        assert str(path) in capsys.readouterr().err

    def test_analyze_fails_entropy_with_one_time_changed(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        assert main(["run", "--config", str(cfg_path)]) == 0
        change_one_digit(out / "entropy.csv", 3, 0)
        assert main(["analyze", str(out)]) == 1
        assert failed_checks(out) == {"entropy_series_consistent": "mismatched columns ['t']"}

    @pytest.mark.parametrize("name", ["entropy.csv", "loss_history.csv"])
    def test_analyze_names_csv_with_another_header_exits_4(self, tmp_path, capsys, name):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=20, t_final=0.01,
            training=TRAINING.format(n_iters=5, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        lines = (out / name).read_text().splitlines()
        (out / name).write_text("\n".join(["foo,bar"] + lines[1:]) + "\n")
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and str(out / name) in err

    def test_analyze_rejects_solution_header_one_column_short_exits_4(self, tmp_path, capsys):
        for kind in KINDS:
            (tmp_path / kind).mkdir()
            cfg_path, out = write_config(tmp_path / kind, t_final=0.01, kind=kind)
            assert main(["run", "--config", str(cfg_path)]) == 0
            lines = (out / "solution.csv").read_text().splitlines()
            lines[0] = lines[0].rsplit(",", 1)[0]
            (out / "solution.csv").write_text("\n".join(lines) + "\n")
            capsys.readouterr()
            assert main(["analyze", str(out)]) == 4
            err = capsys.readouterr().err
            assert f"{out / 'solution.csv'} does not have the header" in err, kind

    @pytest.mark.parametrize("block, key", [("stats", "mse_final"), ("mu", "mu_min")])
    def test_analyze_fails_non_numeric_statistic(self, tmp_path, block, key):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=20, t_final=0.01,
            training=TRAINING.format(n_iters=5, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        summary[block][key] = "abc"
        (out / "summary.json").write_text(json.dumps(summary))
        assert main(["analyze", str(out)]) == 1
        failed = failed_checks(out)
        name = f"{'stat' if block == 'stats' else 'mu'}:{key}"
        assert list(failed) == [name]
        assert failed[name].startswith("stored='abc' ")

    def test_analyze_header_only_entropy_fails_its_check(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        main(["run", "--config", str(cfg_path)])
        header = (out / "entropy.csv").read_text().splitlines()[0]
        (out / "entropy.csv").write_text(header + "\n")
        assert main(["analyze", str(out)]) == 1
        analysis = json.loads((out / "analysis.json").read_text())
        failed = {c["name"]: c["detail"] for c in analysis["checks"] if not c["passed"]}
        assert failed == {"entropy_series_consistent": "0 rows for 11 entries"}

    def test_analyze_header_only_loss_history_fails_its_check(self, tmp_path):
        # a per-step run's 10 losses are recomputed from its states; a global run's are stored
        for mode, detail in (("per_step", "0 rows for 10 entries"), ("global", "0 rows")):
            cfg_path, out = write_config(
                tmp_path, name=f"{mode}.cfg", directory=str(tmp_path / mode), scheme="ftcs_mu",
                n_cells=20, t_final=0.01,
                training=TRAINING.format(n_iters=5, mu_min=-0.005).replace("per_step", mode),
            )
            assert main(["train", "--config", str(cfg_path)]) == 0
            (out / "loss_history.csv").write_text("iter,loss\n")
            assert main(["analyze", str(out)]) == 1
            assert failed_checks(out) == {"loss_history_consistent": detail}

    @pytest.mark.parametrize("block", ["config", "files"])
    def test_analyze_manifest_without_block_exits_4(self, tmp_path, capsys, block):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        main(["run", "--config", str(cfg_path)])
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest[block]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(out)]) == 4
        err = capsys.readouterr().err
        assert "manifest.json" in err and repr(block) in err

    @pytest.mark.parametrize("name, row, column, checks, mismatch", [
        ("final_state.csv", 20, 0, ["final_state_consistent"], "['x']"),
        ("final_state.csv", 20, 1, ["final_state_consistent"], "['u']"),
        ("final_state.csv", 20, 2, ["final_state_consistent"], "['exact']"),
        ("final_state.csv", 20, 3, ["final_state_consistent"], "['error']"),
        ("mu_final.csv", 5, 0, ["mu_final_consistent"], "['x_face']"),
        ("mu_final.csv", 5, 1, ["mu_final_consistent"], "['mu_raw']"),
        ("mu_final.csv", 5, 2, ["mu_final_consistent"], "['mu_normalized']"),
        ("loss_history.csv", 0, 0, ["loss_history_consistent"], "'iter'"),
        # the losses are recomputed from the stored states, so the summary stays right
        ("loss_history.csv", 0, 1, ["loss_history_consistent"], "'loss'"),
        ("loss_history.csv", 29, 1, ["loss_history_consistent"], "'loss'"),
    ], ids=["final_x", "final_u", "final_exact", "final_error", "mu_x_face", "mu_raw",
            "mu_normalized", "loss_iter", "loss_first", "loss_last"])
    def test_analyze_names_file_with_one_digit_changed(self, tmp_path, name, row, column,
                                                       checks, mismatch):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=32, t_final=0.03,
            training=TRAINING.format(n_iters=40, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["analyze", str(out)]) == 0
        change_one_digit(out / name, row, column)
        assert main(["analyze", str(out)]) == 1
        failed = failed_checks(out)
        assert list(failed) == checks
        assert all(mismatch in failed[check] for check in checks)

    def test_analyze_plain_run_checks_final_state(self, tmp_path):
        cfg_path, out = write_config(tmp_path, kind="sine", t_final=0.05)
        assert main(["run", "--config", str(cfg_path)]) == 0
        change_one_digit(out / "final_state.csv", 10, 1)
        assert main(["analyze", str(out)]) == 1
        assert failed_checks(out) == {"final_state_consistent": "mismatched columns ['u']"}

    def test_analyze_names_final_state_row_missing(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        assert main(["run", "--config", str(cfg_path)]) == 0
        lines = (out / "final_state.csv").read_text().splitlines()
        (out / "final_state.csv").write_text("\n".join(lines[:-1]) + "\n")
        assert main(["analyze", str(out)]) == 1
        assert failed_checks(out) == {"final_state_consistent": "99 rows for 100 entries"}

    def test_analyze_fails_listed_file_it_has_no_check_for(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        assert main(["run", "--config", str(cfg_path)]) == 0
        (out / "error.csv").write_text("t\\x,x0\n0,0\n")
        manifest = read_manifest(out)
        manifest["files"].append({"name": "error.csv", "role": "error_field"})
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(out)]) == 1
        assert failed_checks(out) == {
            "manifest_complete": "missing=[] unlisted=[] unchecked=['error.csv']"}

    @pytest.mark.parametrize("name", ["solution.csv", "mu.csv"])
    def test_analyze_names_matrix_without_a_column_exits_4(self, tmp_path, capsys, name):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=20, t_final=0.01,
            training=TRAINING.format(n_iters=5, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        lines = (out / name).read_text().splitlines()
        (out / name).write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and str(out / name) in err

    def test_analyze_detects_unlisted_file(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        main(["run", "--config", str(cfg_path)])
        (out / "stray.txt").write_text("not in manifest\n")
        assert main(["analyze", str(out)]) == 1

    def test_analyze_accepts_equal_infinite_statistics(self, tmp_path):
        cfg_path, out = write_config(tmp_path, scheme="lax_wendroff", n_cells=20,
                                     t_final=0.05, kind="hat\namplitude = 1e308")
        cfg_path.write_text(cfg_path.read_text().replace("dt = 0.001", "dt = 0.01"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg_path)]) == 2
            assert main(["analyze", str(out)]) == 1
        analysis = json.loads((out / "analysis.json").read_text())
        assert "stored='inf' recomputed='inf'" in {c["detail"] for c in analysis["checks"]}
        assert [c["name"] for c in analysis["checks"] if not c["passed"]] == ["run_status_ok"]

    def test_analyze_accepts_equal_nan_statistics(self, tmp_path):
        # Every state is finite but its square is not, so each entropy is inf
        # and the largest per-step increase, inf - inf, is nan.
        cfg_path, out = write_config(tmp_path, n_cells=20, kind="hat\namplitude = 1e200")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg_path)]) == 0
            assert main(["analyze", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stats"]["max_per_step_entropy_increase"] == "nan"
        analysis = json.loads((out / "analysis.json").read_text())
        checks = {c["name"]: c["detail"] for c in analysis["checks"]}
        assert checks["stat:max_per_step_entropy_increase"] == "stored='nan' recomputed='nan'"

    def test_overflowing_run_passes_every_file_check(self, tmp_path):
        cfg_path, out = write_config(tmp_path, scheme="lax_wendroff", n_cells=20,
                                     t_final=0.05, kind="hat\namplitude = 1e308")
        cfg_path.write_text(cfg_path.read_text().replace("dt = 0.001", "dt = 0.01"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg_path)]) == 2
            assert main(["analyze", str(out)]) == 1
        analysis = json.loads((out / "analysis.json").read_text())
        passed = {c["name"] for c in analysis["checks"] if c["passed"]}
        assert {"manifest_complete", "final_state_consistent"} <= passed
        assert list(failed_checks(out)) == ["run_status_ok"]

    def test_non_finite_statistics_written_as_strict_json(self, tmp_path):
        cfg_path, out = write_config(tmp_path, scheme="lax_wendroff", n_cells=20,
                                     t_final=0.05, kind="hat\namplitude = 1e308")
        cfg_path.write_text(cfg_path.read_text().replace("dt = 0.001", "dt = 0.01"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg_path)]) == 2

            def reject(name):
                raise AssertionError(f"non-strict JSON constant {name}")

            summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
            json.loads((out / "manifest.json").read_text(), parse_constant=reject)
            assert summary["stats"]["entropy_initial"] == "inf"
            assert main(["analyze", str(out)]) == 1
        analysis = json.loads((out / "analysis.json").read_text(), parse_constant=reject)
        checks = {c["name"]: c for c in analysis["checks"]}
        assert [name for name, c in checks.items() if not c["passed"]] == ["run_status_ok"]
        assert checks["stat:entropy_initial"]["detail"] == "stored='inf' recomputed='inf'"
        assert checks["entropy_series_consistent"]["detail"] == "1 rows of t,entropy"

    def test_analyze_fails_stored_infinite_entropy_against_finite(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        assert main(["run", "--config", str(cfg_path)]) == 0
        times, entropy = read_columns_csv(out / "entropy.csv", "t,entropy").T
        entropy[3] = np.inf
        lines = ["t,entropy"] + ["%.17g,%.17g" % row for row in zip(times, entropy)]
        (out / "entropy.csv").write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(out)]) == 1
        analysis = json.loads((out / "analysis.json").read_text())
        failed = {c["name"]: c["detail"] for c in analysis["checks"] if not c["passed"]}
        assert failed == {"entropy_series_consistent": "mismatched columns ['entropy']"}

    @pytest.mark.parametrize("kind, mu_keys", [
        ("hat", {"mu_min", "mu_max", "fraction_negative", "negative_mass_near_discontinuity"}),
        ("sine", {"mu_min", "mu_max", "fraction_negative"}),  # the localization is a hat's
    ], ids=["hat", "sine"])
    def test_analyze_fails_statistics_missing_from_summary(self, tmp_path, kind, mu_keys):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=32, t_final=0.03, kind=kind,
            training=TRAINING.format(n_iters=40, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        expected = {f"stat:{key}" for key in summary.pop("stats")}
        assert set(summary.pop("mu")) == mu_keys
        expected |= {f"mu:{key}" for key in mu_keys}
        (out / "summary.json").write_text(json.dumps(summary))
        assert main(["analyze", str(out)]) == 1
        analysis = json.loads((out / "analysis.json").read_text())
        failed = {c["name"]: c["detail"] for c in analysis["checks"] if not c["passed"]}
        assert set(failed) == expected
        assert all(detail.startswith("stored=None ") for detail in failed.values())

    @pytest.mark.parametrize("block, key, edit, check", [
        ("stats", "mse_final", lambda v: v * (1 + 1e-13), "stat:mse_final"),
        ("mu", "negative_mass_near_discontinuity", lambda v: 0.123,
         "mu:negative_mass_near_discontinuity"),
        ("verdicts", "entropy_nonincreasing_global", lambda v: not v,
         "verdicts:entropy_nonincreasing_global"),
        ("verdicts", "entropy_nonincreasing_global", int,
         "verdicts:entropy_nonincreasing_global"),
        ("training", "mode", lambda v: "global", "training:mode"),
        (None, "status", lambda v: "divergence", "status"),
    ], ids=["mse_final_relative_1e-13", "negative_mass", "verdict", "verdict_as_number",
            "mode", "status"])
    def test_analyze_fails_one_edited_summary_value(self, tmp_path, block, key, edit, check):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=32, t_final=0.03,
            training=TRAINING.format(n_iters=40, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        values = summary if block is None else summary[block]
        before = values[key]
        values[key] = edit(before)
        assert json.dumps(values[key]) != json.dumps(before)
        (out / "summary.json").write_text(json.dumps(summary))
        assert main(["analyze", str(out)]) == 1
        assert list(failed_checks(out)) == [check]

    def test_analyze_training_run_without_training_config_exits_4(self, tmp_path, capsys):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=20, t_final=0.01,
            training=TRAINING.format(n_iters=5, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        manifest = read_manifest(out)
        del manifest["config"]["training"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(out)]) == 4
        assert "[training]" in capsys.readouterr().err

    @pytest.mark.parametrize("config", ["x", {"n_cells": "abc"}, {"n_cells": 5.5}])
    def test_analyze_stored_config_that_does_not_load_exits_4(self, tmp_path, capsys, config):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        assert main(["run", "--config", str(cfg_path)]) == 0
        manifest = read_manifest(out)
        if isinstance(config, dict):
            manifest["config"]["simulation"].update(config)
        else:
            manifest["config"] = config
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(out)]) == 4
        err = capsys.readouterr().err
        assert "manifest.json" in err and "config error" not in err

    def test_analyze_fails_summary_block_that_is_not_an_object(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        assert main(["run", "--config", str(cfg_path)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        expected = {f"stat:{key}" for key in summary["stats"]}
        summary["stats"] = 5
        (out / "summary.json").write_text(json.dumps(summary))
        assert main(["analyze", str(out)]) == 1
        failed = failed_checks(out)
        assert set(failed) == expected
        assert all(detail.startswith("stored=None ") for detail in failed.values())

    # Each edit of a manifest's files, and the entries it leaves misflagged.
    @pytest.mark.parametrize("diverges, edit, misflagged", [
        (False, lambda entry: entry.update(partial=True),
         ["entropy.csv", "final_state.csv", "manifest.json", "solution.csv", "summary.json"]),
        (True, lambda entry: entry.pop("partial", None),
         ["entropy.csv", "final_state.csv", "solution.csv"]),
        (True, lambda entry: entry["name"] == "summary.json" and entry.update(partial=True),
         ["summary.json"]),
    ], ids=["ok_run_all_flagged", "diverged_run_unflagged", "diverged_run_summary_flagged"])
    def test_analyze_fails_partial_flags_other_than_the_status_gives(self, tmp_path, diverges,
                                                                     edit, misflagged):
        # An upwind run stores whole CSVs; ftcs_mu at mu = -0.05 diverges, so its CSVs are partial.
        cfg_path, out = write_config(tmp_path, scheme="ftcs_mu" if diverges else "upwind",
                                     n_cells=50, kind="sine", t_final=0.5 if diverges else 0.02,
                                     extra_sim="mu = -0.05\n" if diverges else "")
        assert main(["run", "--config", str(cfg_path)]) == (2 if diverges else 0)
        manifest = read_manifest(out)
        for entry in manifest["files"]:
            edit(entry)
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(out)]) == 1
        failed = failed_checks(out)
        assert set(failed) == {"manifest_complete"} | ({"run_status_ok"} if diverges else set())
        assert failed["manifest_complete"] == (
            f"missing=[] unlisted=[] partial_flags_wrong={misflagged}")

    def test_analyze_accepts_manifest_entries_with_roles(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=20, t_final=0.01,
            training=TRAINING.format(n_iters=5, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        manifest = read_manifest(out)
        for entry in manifest["files"]:
            entry["role"] = entry["name"].split(".")[0]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(out)]) == 0


# Each config that is neither a plain run nor a training run: the [simulation]
# keys it sets over a plain upwind run of 20 cells to t_final = 0.01, and
# whether it has a [training] section.
NOT_A_RUN = {
    "classical_with_training": ({}, True),
    "ftcs_mu_with_mu_and_training": ({"scheme": "ftcs_mu", "mu": 0.005}, True),
    "ftcs_mu_with_neither": ({"scheme": "ftcs_mu"}, False),
    "training_without_a_step": ({"scheme": "ftcs_mu", "t_final": 0.0}, True),
}


def config_echo(directory, simulation=None, training=False) -> dict:
    """The manifest echo of a plain upwind run of 20 cells to t_final = 0.01
    into ``directory``, with the ``simulation`` keys set and, if
    ``training``, a [training] section."""
    echo = config_to_dict(ExperimentConfig(n_cells=20, t_final=0.01,
                                           output=OutputSettings(str(directory))))
    echo["simulation"].update(simulation or {})
    if training:
        echo["training"] = {"mode": "per_step", "learning_rate": 0.01, "n_iters": 2,
                            "mu_min": -0.005, "mu_max": 0.095}
    return echo


def write_echo(path, echo) -> Path:
    """Store a manifest echo as a config file."""
    path.write_text("".join(f"[{section}]\n" + "".join(f"{key} = {value}\n"
                                                       for key, value in keys.items())
                            for section, keys in echo.items()))
    return path


class TestConfigThatIsNoRun:
    @pytest.mark.parametrize("simulation, training", NOT_A_RUN.values(), ids=NOT_A_RUN)
    def test_rejected_by_every_command_before_any_directory(self, tmp_path, capsys, simulation,
                                                           training):
        out = tmp_path / "out"
        cfg_path = write_echo(tmp_path / "exp.cfg", config_echo(out, simulation, training))
        with pytest.raises(ConfigError):
            load_config(cfg_path)
        for command in ("run", "train"):
            assert main([command, "--config", str(cfg_path)]) == 3
            assert "config error" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("simulation, training", NOT_A_RUN.values(), ids=NOT_A_RUN)
    def test_analyze_of_a_manifest_storing_it_exits_4(self, tmp_path, capsys, simulation,
                                                      training):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_echo(tmp_path / "exp.cfg",
                                                       config_echo(out)))]) == 0
        manifest = read_manifest(out)
        manifest["config"] = config_echo(out, simulation, training)
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(out)]) == 4
        assert str(out / "manifest.json") in capsys.readouterr().err


class TestMemoryBudget:
    """A plain run and its analysis hold each stored space-time matrix once,
    the analysis of a training run about three; whole-horizon training holds
    six."""

    N_CELLS, N_STEPS = 2000, 100

    @staticmethod
    def traced_peak(argv):
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return code, peak

    def test_run_and_analyze_peak_under_one_and_a_half_matrices(self, tmp_path):
        # A sine's stored states are compared with the bytes of its rebuilt
        # states and a hat's are parsed; the states of a sine whose file
        # differs are rebuilt, then freed before the file is parsed.
        matrix_bytes = (self.N_STEPS + 1) * self.N_CELLS * 8
        for kind, tampered in (("sine", False), ("hat", False), ("sine", True)):
            out = tmp_path / f"{kind}{'-tampered' * tampered}"
            cfg_path = tmp_path / "big.cfg"
            cfg_path.write_text(
                f"[simulation]\nscheme = ftcs_mu\nn_cells = {self.N_CELLS}\nlength = 1.0\n"
                f"c = 1.0\ndt = 0.0002\nt_final = 0.02\nmu = 0.0001\n"
                f"[initial_condition]\nkind = {kind}\n[output]\ndirectory = {out}\n")
            argvs = (["run", "--config", str(cfg_path)], ["analyze", str(out)])
            for argv, expected in zip(argvs, (0, int(tampered))):
                if tampered and argv[0] == "analyze":
                    change_one_digit(out / "solution.csv", self.N_STEPS // 2, self.N_CELLS // 2)
                code, peak = self.traced_peak(argv)
                assert code == expected
                assert peak < 1.5 * matrix_bytes, (
                    f"{kind}: {argv[0]} peaked at {peak / matrix_bytes:.2f} matrices")
            _, states = read_matrix(out / "solution.csv")
            assert states.shape == (self.N_STEPS + 1, self.N_CELLS)

    def test_analyze_of_a_trained_run_peaks_under_four_matrices(self, tmp_path):
        # mu.csv is parsed; a sine's states are rebuilt at its rows, which
        # simulate copies, and compared with solution.csv block by block, and
        # a hat's are parsed; the exact states of the loss check are formed
        # in place, alone beside them.
        matrix_bytes = (self.N_STEPS + 1) * self.N_CELLS * 8
        for mode, kind in itertools.product(("per_step", "global"), ("hat", "sine")):
            out = tmp_path / f"{mode}-{kind}"
            cfg_path = tmp_path / f"{mode}-{kind}.cfg"
            cfg_path.write_text(
                f"[simulation]\nscheme = ftcs_mu\nn_cells = {self.N_CELLS}\nlength = 1.0\n"
                f"c = 1.0\ndt = 0.0002\nt_final = 0.02\n[initial_condition]\nkind = {kind}\n"
                f"[training]\nmode = {mode}\nlearning_rate = 0.01\nn_iters = 3\n"
                f"mu_min = -0.00025\nmu_max = 0.00475\n[output]\ndirectory = {out}\n")
            assert main(["train", "--config", str(cfg_path)]) == 0
            code, peak = self.traced_peak(["analyze", str(out)])
            assert code == 0
            assert peak < 4 * matrix_bytes, (
                f"{mode} {kind}: analyze peaked at {peak / matrix_bytes:.2f} matrices")

    def test_global_train_peak_under_six_and_a_half_matrices(self, tmp_path):
        # The exact states, the accepted iterate's viscosity and gradient, the
        # candidate, and the candidate sweep's copied viscosity and states.
        out = tmp_path / "out"
        cfg_path = tmp_path / "global.cfg"
        cfg_path.write_text(
            f"[simulation]\nscheme = ftcs_mu\nn_cells = {self.N_CELLS}\nlength = 1.0\n"
            f"c = 1.0\ndt = 0.0002\nt_final = 0.02\n[initial_condition]\nkind = hat\n"
            f"[training]\nmode = global\nlearning_rate = 0.01\nn_iters = 3\n"
            f"mu_min = -0.00025\nmu_max = 0.00475\n[output]\ndirectory = {out}\n")
        matrix_bytes = (self.N_STEPS + 1) * self.N_CELLS * 8
        code, peak = self.traced_peak(["train", "--config", str(cfg_path)])
        assert code == 0
        assert peak < 6.5 * matrix_bytes, f"train peaked at {peak / matrix_bytes:.2f} matrices"
        assert read_manifest(out)["status"] == "ok"


class TestCsvBytes:
    """Every CSV that run and train write has the bytes of the reference
    writer, which formats each value with ``%``."""

    @pytest.mark.parametrize("command, kind, training", [
        ("run", "hat", ""), ("run", "sine", ""),
        ("train", "hat", TRAINING.format(n_iters=20, mu_min=-0.005)),
        ("train", "sine", TRAINING.format(n_iters=20, mu_min=-0.005)),
    ])
    def test_every_csv_equals_the_reference_writer(self, tmp_path, monkeypatch, command,
                                                   kind, training):
        import advisc.cli

        reference = tmp_path / "reference"
        reference.mkdir()
        written = []

        def both(path, header, columns):
            write_columns_csv(path, header, columns)
            reference_write_columns_csv(reference / Path(path).name, header,
                                        np.column_stack(columns))
            written.append(Path(path))

        monkeypatch.setattr(advisc.cli, "write_columns_csv", both)
        cfg_path, out = write_config(tmp_path, scheme="ftcs_mu", kind=kind, t_final=0.05,
                                     extra_sim="" if training else "mu = 0.002",
                                     training=training)
        assert main([command, "--config", str(cfg_path)]) == 0
        assert len(written) == (6 if training else 3)
        for path in written:
            assert path.read_bytes() == (reference / path.name).read_bytes(), path.name


class TestNonObjectJson:
    """A JSON file that is not an object, which no writer writes, exits 4 and
    is named."""

    def test_summary_that_is_an_array(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        assert main(["run", "--config", str(cfg_path)]) == 0
        (out / "summary.json").write_text("[]\n")
        assert main(["analyze", str(out)]) == 4
        assert "summary.json" in capsys.readouterr().err

    def test_manifest_that_is_an_array_on_rerun(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        assert main(["run", "--config", str(cfg_path)]) == 0
        (out / "manifest.json").write_text("[]\n")
        assert main(["run", "--config", str(cfg_path)]) == 4
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "rerun"])
    def test_manifest_files_that_are_bare_names(self, tmp_path, capsys, command):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        assert main(["run", "--config", str(cfg_path)]) == 0
        manifest = read_manifest(out)
        manifest["files"] = [entry["name"] for entry in manifest["files"]]
        (out / "manifest.json").write_text(json.dumps(manifest))
        argv = ["analyze", str(out)] if command == "analyze" else ["run", "--config", str(cfg_path)]
        assert main(argv) == 4
        assert "manifest.json" in capsys.readouterr().err

    def test_study_comparison_that_is_an_array(self, tmp_path, capsys, short_presets):
        study = tmp_path / "study"
        assert main(["reproduce", "--preset", "sine-smooth", "--out", str(study)]) == 0
        (study / "comparison.json").write_text("[]\n")
        capsys.readouterr()
        assert main(["analyze", str(study)]) == 4
        assert "comparison.json" in capsys.readouterr().err


class TestMalformedClaims:
    """A study whose stored claims are not an object fails each claim check by
    name, as a run's summary block that is not an object fails its checks."""

    @pytest.mark.parametrize("claims", [[], "yes", None])
    def test_study_claims_that_are_not_an_object(self, tmp_path, short_presets, claims):
        study = tmp_path / "study"
        assert main(["reproduce", "--preset", "sine-smooth", "--out", str(study)]) == 0
        comparison = json.loads((study / "comparison.json").read_text())
        comparison["claims"] = claims
        (study / "comparison.json").write_text(json.dumps(comparison))
        assert main(["analyze", str(study)]) == 1
        assert set(failed_checks(study)) == {
            f"claim:{name}" for name, _ in STUDIES["sine-smooth"][1]}


class TestNotUtf8:
    """A stored file with bytes that are not UTF-8, which no writer writes,
    exits 4 on analyze and is named."""

    @pytest.mark.parametrize("name, line", [
        ("manifest.json", 1), ("summary.json", 1), ("solution.csv", 0), ("solution.csv", 3),
    ], ids=["manifest", "summary", "solution_header", "solution_row"])
    def test_analyze_exits_4(self, tmp_path, capsys, name, line):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        assert main(["run", "--config", str(cfg_path)]) == 0
        lines = (out / name).read_bytes().split(b"\n")
        lines[line] += b"\xff\xfe"
        (out / name).write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 4
        assert str(out / name) in capsys.readouterr().err


class TestCorruptStudyManifest:
    """A study manifest whose subruns or preset no study writes exits 4 on
    analyze and names the manifest. One whose subruns or preset are not
    names does so on a rerun into its directory too, and deletes nothing."""

    @pytest.mark.parametrize("key, value", [("subruns", [1]), ("subruns", "hat"), ("preset", 5)])
    @pytest.mark.parametrize("command", ["analyze", "rerun"])
    def test_exits_4_and_deletes_nothing(self, tmp_path, capsys, short_presets, key, value,
                                         command):
        import shutil

        study = tmp_path / "study"
        argv = ["reproduce", "--preset", "sine-smooth", "--out", str(study)]
        assert main(argv) == 0
        # A finished run in a subdirectory that a string of subruns would name.
        first = STUDIES["sine-smooth"][0][0][0]
        shutil.copytree(study / first, study / "h")
        manifest = read_manifest(study)
        manifest[key] = value
        (study / "manifest.json").write_text(json.dumps(manifest))
        before = sorted(study.rglob("*"))
        capsys.readouterr()
        assert main(["analyze", str(study)] if command == "analyze" else argv) == 4
        assert "manifest.json" in capsys.readouterr().err
        assert sorted(study.rglob("*")) == before

    @pytest.mark.parametrize("key, value, named", [
        ("preset", "nope", "names no known study"),
        ("subruns", ["../r"], "lists subrun '../r'"),
    ], ids=["unknown_preset", "subrun_outside"])
    def test_analyze_exits_4_naming_the_manifest(self, tmp_path, capsys, short_presets, key,
                                                 value, named):
        study = tmp_path / "study"
        assert main(["reproduce", "--preset", "sine-smooth", "--out", str(study)]) == 0
        manifest = read_manifest(study)
        manifest[key] = value
        (study / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["analyze", str(study)]) == 4
        err = capsys.readouterr().err
        assert str(study / "manifest.json") in err and named in err


def advisc_process(*args, cwd) -> subprocess.CompletedProcess:
    """``python -m advisc`` with ``args``, run from ``cwd`` on this checkout's sources."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "advisc", *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)


class TestExitCodes:
    def test_process_exits_3_without_a_command_and_4_for_a_missing_run(self, tmp_path):
        usage = advisc_process(cwd=tmp_path)
        assert usage.returncode == 3 and "usage error" in usage.stderr
        missing = advisc_process("analyze", str(tmp_path / "missing"), cwd=tmp_path)
        assert missing.returncode == 4 and missing.stderr.startswith("i/o error:")

    def test_process_exits_2_for_a_diverging_run_and_1_for_its_analysis(self, tmp_path):
        cfg_path, out = write_config(tmp_path, scheme="ftcs_mu", extra_sim="mu = -0.05\n")
        assert advisc_process("run", "--config", str(cfg_path), cwd=tmp_path).returncode == 2
        analysis = advisc_process("analyze", str(out), cwd=tmp_path)
        assert analysis.returncode == 1
        assert list(failed_checks(out)) == ["run_status_ok"]

    def test_library_value_error_is_not_reported_as_io_error(self, tmp_path, monkeypatch):
        import advisc.cli

        def broken(*args, **kwargs):
            raise ValueError("a defect in the library")

        monkeypatch.setattr(advisc.cli, "simulate", broken)
        cfg_path, _ = write_config(tmp_path, t_final=0.01)
        with pytest.raises(ValueError, match="a defect in the library"):
            main(["run", "--config", str(cfg_path)])

    @pytest.mark.parametrize("dt", ["1e-300", "1e-320"])
    def test_more_values_than_an_array_can_index_exit_3(self, tmp_path, capsys, dt):
        # 1.5e299 steps, and at 1e-320 a step count that overflows to inf.
        cfg_path, out = write_config(tmp_path, t_final=0.15)
        cfg_path.write_text(cfg_path.read_text().replace("dt = 0.001", f"dt = {dt}"))
        assert main(["run", "--config", str(cfg_path)]) == 3
        assert "more values than one array can index" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, allocation", [("run", "simulate"),
                                                     ("train", "train_per_step")])
    def test_out_of_memory_exits_3_naming_the_command(self, tmp_path, capsys, monkeypatch,
                                                      command, allocation):
        import advisc.cli

        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 109. TiB for an array")

        monkeypatch.setattr(advisc.cli, allocation, too_large)
        cfg_path, out = write_config(tmp_path, scheme="ftcs_mu", t_final=0.01,
                                     extra_sim="mu = 0.005\n" if command == "run" else "",
                                     training="" if command == "run" else
                                     TRAINING.format(n_iters=2, mu_min=-0.005))
        assert main([command, "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert f"advisc {command}" in err and "109. TiB" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "train", "reproduce"])
    def test_out_naming_a_file_exits_4_and_keeps_it(self, tmp_path, capsys, short_presets,
                                                    command):
        cfg_path, _ = write_config(tmp_path, scheme="ftcs_mu", n_cells=20, t_final=0.01,
                                   extra_sim="mu = 0.005\n" if command == "run" else "",
                                   training="" if command == "run" else
                                   TRAINING.format(n_iters=2, mu_min=-0.005))
        target = tmp_path / "taken"
        target.write_bytes(b"not a directory\n")
        source = ["--preset", "sine-smooth"] if command == "reproduce" else [
            "--config", str(cfg_path)]
        assert main([command, *source, "--out", str(target)]) == 4
        assert str(target) in capsys.readouterr().err
        assert target.read_bytes() == b"not a directory\n"

    @pytest.mark.parametrize("command, allocation", [("run", "simulate"),
                                                     ("train", "train_per_step")])
    def test_run_out_of_memory_keeps_the_previous_run(self, tmp_path, monkeypatch,
                                                      command, allocation):
        import advisc.cli

        training = {"scheme": "ftcs_mu", "training": TRAINING.format(n_iters=2, mu_min=-0.005)}
        cfg_path, out = write_config(tmp_path, **(training if command == "train" else {}))
        assert main([command, "--config", str(cfg_path)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 109. TiB for an array")

        monkeypatch.setattr(advisc.cli, allocation, too_large)
        assert main([command, "--config", str(cfg_path)]) == 3
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        monkeypatch.undo()
        assert main(["analyze", str(out)]) == 0


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["run", "--bogus"],
        ["reproduce"],
        ["train", "--preset", "paper-hat", "--seed", "x"],
        ["train", "--preset", "paper-hat", "--seed", "3"],
    ], ids=["unknown_flag", "missing_preset", "seed_not_an_int", "seed"])
    def test_usage_error_exits_3_with_usage_on_stderr(self, capsys, argv):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: advisc")
        assert "usage error" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["run", "train", "reproduce"])
    def test_help_exits_0_and_lists_no_seed(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        assert "--out" in text and "--seed" not in text


class TestReproduceCommand:
    def test_unknown_preset_exits_3(self, tmp_path):
        assert main(["reproduce", "--preset", "nope", "--out", str(tmp_path)]) == 3

    def test_run_and_train_require_exactly_one_source(self, tmp_path, capsys):
        assert main(["run"]) == 3
        cfg_path, _ = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--preset", "paper-hat"]) == 3
        for source in ([], ["--config", str(cfg_path), "--preset", "paper-hat"]):
            capsys.readouterr()
            assert main(["train", *source]) == 3
            err = capsys.readouterr().err
            assert err.startswith("usage: advisc train") and "--config" in err
            assert "--preset" in err

    def test_paper_hat_claims(self, tmp_path, capsys):
        out = tmp_path / "repro"
        # A stale study in the same directory: its subruns' files go, a user file
        # stays, and a subrun directory left empty goes.
        old_cfg, old = write_config(
            tmp_path, name="old.cfg", scheme="ftcs_mu", n_cells=16, t_final=0.003,
            directory=str(out / "old"), training=TRAINING.format(n_iters=5, mu_min=-0.005),
        )
        assert main(["train", "--config", str(old_cfg)]) == 0
        assert main(["train", "--config", str(old_cfg), "--out", str(out / "gone")]) == 0
        (old / "notes.txt").write_text("not part of any run\n")
        (out / "manifest.json").write_text(json.dumps(
            {"files": [{"name": "manifest.json", "role": "manifest"}],
             "subruns": ["old", "gone"]}))
        capsys.readouterr()
        assert main(["reproduce", "--preset", "paper-hat", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "mse_learned_below_upwind: PASS",
            "min_mu_negative: PASS",
            "entropy_nonincreasing_global: PASS",
        ]
        comparison = json.loads((out / "comparison.json").read_text())
        assert sorted(comparison) == ["claims", "learned", "oracles", "preset"]
        assert comparison["claims"]["mse_learned_below_upwind"] is True
        assert comparison["claims"]["min_mu_negative"] is True
        assert comparison["claims"]["entropy_nonincreasing_global"] is True
        assert comparison["learned"]["stats"]["mse_final"] < comparison["oracles"]["mse_upwind"]
        assert (out / "learned" / "mu.csv").is_file()
        assert read_manifest(out)["subruns"] == ["learned"]
        assert [p.name for p in old.iterdir()] == ["notes.txt"]
        assert not (out / "gone").exists()

        # analyze on the study root analyzes the subrun and checks the comparison
        assert main(["analyze", str(out)]) == 0
        analysis = json.loads((out / "analysis.json").read_text())
        assert {c["name"] for c in analysis["checks"]} >= {
            "subrun:learned", "summary_copied:learned", "oracles", "claim:min_mu_negative"}
        comparison["learned"]["stats"]["mse_final"] *= 2.0
        (out / "comparison.json").write_text(json.dumps(comparison))
        assert main(["analyze", str(out)]) == 1
        analysis = json.loads((out / "analysis.json").read_text())
        assert [c["name"] for c in analysis["checks"] if not c["passed"]] == [
            "summary_copied:learned"]
        comparison["claims"]["min_mu_negative"] = False
        (out / "comparison.json").write_text(json.dumps(comparison))
        assert main(["analyze", str(out)]) == 1
        analysis = json.loads((out / "analysis.json").read_text())
        assert [c["name"] for c in analysis["checks"] if not c["passed"]] == [
            "summary_copied:learned", "claim:min_mu_negative"]
        # an edited oracle fails its check even when the claim resting on it is
        # flipped to match
        comparison["oracles"]["mse_upwind"] = 0.0
        comparison["claims"]["mse_learned_below_upwind"] = False
        (out / "comparison.json").write_text(json.dumps(comparison))
        assert main(["analyze", str(out)]) == 1
        analysis = json.loads((out / "analysis.json").read_text())
        assert [c["name"] for c in analysis["checks"] if not c["passed"]] == [
            "summary_copied:learned", "oracles", "claim:min_mu_negative"]

    def test_reproduce_prints_pass_only_for_a_true_verdict(self, tmp_path, capsys,
                                                           monkeypatch):
        import advisc.cli

        small = {"simulation": {"n_cells": 16, "t_final": 0.003}, "training": {"n_iters": 5}}
        claims = (("holds", lambda c: True), ("fails", lambda c: False),
                  ("missing", lambda c: c["no_such_run"]["stats"]))
        monkeypatch.setitem(advisc.cli.STUDIES, "paper-hat",
                            ((("learned", "paper-hat", small),), claims))
        out = tmp_path / "study"
        assert main(["reproduce", "--preset", "paper-hat", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "holds: PASS", "fails: FAIL", "missing: FAIL"]
        assert json.loads((out / "comparison.json").read_text())["claims"] == {
            "holds": True, "fails": False, "missing": "not computable: KeyError('no_such_run')"}
        # analyze recomputes the same verdicts, the uncomputable one included
        assert main(["analyze", str(out)]) == 0

    def test_paper_hat_nonneg_amplitude_comparison(self, tmp_path, capsys):
        out = tmp_path / "repro-nonneg"
        assert main(["reproduce", "--preset", "paper-hat-nonneg", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "nonneg_amplitude_not_above_signed: PASS",
            "nonneg_mu_min_nonnegative: PASS",
        ]
        comparison = json.loads((out / "comparison.json").read_text())
        assert sorted(comparison) == ["claims", "learned_nonneg", "learned_signed", "oracles",
                                      "preset"]
        assert comparison["claims"]["nonneg_amplitude_not_above_signed"] is True
        assert comparison["claims"]["nonneg_mu_min_nonnegative"] is True
        assert read_manifest(out)["subruns"] == ["learned-nonneg", "learned-signed"]

    def test_sine_smooth_amplitude_comparison(self, tmp_path, capsys):
        out = tmp_path / "repro-sine"
        assert main(["reproduce", "--preset", "sine-smooth", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "constrained_amplitude_below_signed: PASS",
            "signed_mu_min_negative: PASS",
        ]
        comparison = json.loads((out / "comparison.json").read_text())
        assert sorted(comparison) == ["claims", "nonneg", "oracles", "preset", "signed"]
        assert comparison["nonneg"]["mu"]["mu_min"] >= 0.0
        assert comparison["signed"]["mu"]["mu_min"] < 0.0
        assert comparison["nonneg"]["stats"]["max_abs_final"] < \
            comparison["signed"]["stats"]["max_abs_final"]
        assert read_manifest(out)["subruns"] == ["signed", "nonneg"]


    def test_every_study_trains_one_problem(self):
        # cmd_train trains each study's runs as one group, in one batched
        # call; the oracles are the preset's problem.
        assert set(STUDIES) == set(PRESETS)
        batched = {"learning_rate", "mu_min", "mu_max"}
        for preset, (runs, _) in STUDIES.items():
            problems = []
            for subdir, name, overrides in [("", preset, {}), *runs]:
                sections = config_to_dict(preset_config(name, subdir, overrides))
                del sections["output"]
                sections["training"] = {key: value for key, value in sections["training"].items()
                                        if key not in batched}
                problems.append(sections)
            assert all(problem == problems[0] for problem in problems), preset

    @pytest.mark.parametrize("overrides", [{"training": {"learning_rte": 1.0}},
                                           {"trainng": {"learning_rate": 1.0}}])
    def test_preset_override_of_an_unknown_key_is_a_config_error(self, overrides):
        from advisc.config import ConfigError

        with pytest.raises(ConfigError, match="learning_rte|trainng"):
            preset_config("paper-hat", overrides=overrides)

    def test_failed_run_writes_every_run_but_no_study_files(self, tmp_path, capsys,
                                                             monkeypatch, short_presets):
        import advisc.cli
        from advisc.schemes import Trajectory

        trained = advisc.cli.train_per_step

        def first_run_diverges(cfg, opts, exact):
            reports = trained(cfg, opts, exact)
            traj = reports[0].trajectory
            reports[0] = replace(reports[0], loss_history=(), status="divergence",
                                 trajectory=Trajectory(traj.states[:1], cfg,
                                                       traj.viscosity_history[:0]))
            return reports

        monkeypatch.setattr(advisc.cli, "train_per_step", first_run_diverges)
        study = tmp_path / "study"
        assert main(["reproduce", "--preset", "sine-smooth", "--out", str(study)]) == 2
        assert "sine-smooth" in capsys.readouterr().err
        (first, _, _), (second, _, _) = STUDIES["sine-smooth"][0]
        assert sorted(p.name for p in study.iterdir()) == sorted([first, second])
        assert read_manifest(study / first)["status"] == "divergence"
        assert read_manifest(study / second)["status"] == "ok"
        assert main(["analyze", str(study / second)]) == 0

    def test_halted_global_study_exits_5_without_study_files(self, tmp_path, capsys,
                                                             monkeypatch, short_presets):
        # Rows that override the training mode train through train_global;
        # a run it halts exits 5, and the study writes no comparison.
        import advisc.cli

        runs, claims = STUDIES["sine-smooth"]
        global_mode = {"training": {"mode": "global", "n_iters": 2}}
        rows = tuple((subdir, name, {**overrides, **global_mode})
                     for subdir, name, overrides in runs)
        monkeypatch.setitem(STUDIES, "sine-smooth", (rows, claims))
        trained = advisc.cli.train_global
        monkeypatch.setattr(advisc.cli, "train_global", lambda *args: [
            replace(report, status="no_convergence") for report in trained(*args)])
        study = tmp_path / "study"
        assert main(["reproduce", "--preset", "sine-smooth", "--out", str(study)]) == 5
        assert "sine-smooth" in capsys.readouterr().err
        assert sorted(p.name for p in study.iterdir()) == sorted(subdir for subdir, _, _ in rows)
        for subdir, _, _ in rows:
            manifest = read_manifest(study / subdir)
            assert manifest["status"] == "no_convergence"
            assert manifest["config"]["training"]["mode"] == "global"

    def test_study_writes_the_files_of_separate_train_commands(self, tmp_path, short_presets):
        import advisc.cli

        study = tmp_path / "study"
        assert main(["reproduce", "--preset", "sine-smooth", "--out", str(study)]) == 0
        for subdir, preset, overrides in STUDIES["sine-smooth"][0]:
            config = preset_config(preset, str(tmp_path / "alone" / subdir), overrides)
            assert advisc.cli.cmd_train(config) == 0
            batched, alone = study / subdir, tmp_path / "alone" / subdir
            names = sorted(p.name for p in batched.iterdir())
            assert names == sorted(p.name for p in alone.iterdir())
            for name in names:
                if name == "manifest.json":
                    continue
                assert (batched / name).read_bytes() == (alone / name).read_bytes(), name
            manifests = [read_manifest(d) for d in (batched, alone)]
            for manifest in manifests:
                del manifest["wall_clock_seconds"]
                del manifest["config"]["output"]
            assert manifests[0] == manifests[1]


class TestRerunFromManifestEcho:
    def test_config_echo_reruns_bit_identically(self, tmp_path):
        from advisc.cli import cmd_run
        from advisc.config import OutputSettings, config_from_dict

        cfg_path, out = write_config(tmp_path, t_final=0.02)
        assert main(["run", "--config", str(cfg_path)]) == 0
        manifest = read_manifest(out)
        rebuilt = replace(config_from_dict(manifest["config"]),
                          output=OutputSettings(str(tmp_path / "rerun")))
        assert cmd_run(rebuilt) == 0
        assert (out / "solution.csv").read_bytes() == \
            (tmp_path / "rerun" / "solution.csv").read_bytes()


class TestGlobalModeThroughCli:
    def test_global_training_runs(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=16, t_final=0.01,
            training="\n[training]\nmode = global\nlearning_rate = 0.5\nn_iters = 50\n",
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["training"]["mode"] == "global"
        assert summary["training"]["loss_best"] <= summary["training"]["loss_first"]
