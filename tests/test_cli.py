import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from advisc.cli import main
from advisc.config import config_to_dict
from advisc.grid import PROFILES
from advisc.presets import PRESETS, STUDIES, preset_config
from advisc.runio import matrix_header, read_columns_csv, read_manifest, write_columns_csv
from advisc.schemes import SCHEME_NAMES

from oracles import reference_write_columns_csv

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
    write_columns_csv(path, matrix_header(values.shape[1]), np.column_stack((times, values)))


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

    def test_ftcs_mu_requires_mu_key(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, scheme="ftcs_mu")
        assert main(["run", "--config", str(cfg_path)]) == 3

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
        iters, losses = read_columns_csv(out / "loss_history.csv", ["iter", "loss"]).T
        assert len(losses) == 30
        summary = json.loads((out / "summary.json").read_text())
        assert summary["training"]["converged"] is True

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


class TestAnalyzeCommand:
    def test_analyze_upwind_run_passes(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.05)
        main(["run", "--config", str(cfg_path)])
        assert main(["analyze", str(out)]) == 0
        analysis = json.loads((out / "analysis.json").read_text())
        assert analysis["all_passed"] is True
        names = {c["name"] for c in analysis["checks"]}
        assert "scheme_equivalence" in names

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_analyze_replays_every_plain_scheme(self, tmp_path, scheme):
        extra_sim = "mu = 0.005\n" if scheme == "ftcs_mu" else ""
        cfg_path, out = write_config(tmp_path, scheme=scheme, t_final=0.02, extra_sim=extra_sim)
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert main(["analyze", str(out)]) == 0
        analysis = json.loads((out / "analysis.json").read_text())
        assert "scheme_equivalence" in {check["name"] for check in analysis["checks"]}

    def test_analyze_detects_swapped_entries_in_bare_ftcs_run(self, tmp_path):
        cfg_path, out = write_config(tmp_path, scheme="ftcs_bare", t_final=0.05)
        assert main(["run", "--config", str(cfg_path)]) == 0
        times, states = read_matrix(out / "solution.csv")
        middle = len(states) // 2
        assert states[middle, 10] != states[middle, 50]
        states[middle, [10, 50]] = states[middle, [50, 10]]
        write_matrix(out / "solution.csv", times, states)
        assert main(["analyze", str(out)]) == 1
        assert set(failed_checks(out)) == {"scheme_equivalence"}

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
        assert "scheme_equivalence" in {check["name"] for check in analysis["checks"]}
        times, states = read_matrix(out / "solution.csv")
        assert 2 < len(states) < 1001
        assert read_manifest(out)["diverged_at_step"] == len(states) - 1
        middle = len(states) // 2
        states[middle, 7] += 1e-6 * np.max(np.abs(states[middle]))
        write_matrix(out / "solution.csv", times, states)
        assert main(["analyze", str(out)]) == 1
        assert "scheme_equivalence" in failed_checks(out)

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
        times, values = advisc.cli._read_run_matrix(out / "solution.csv", 100)
        assert np.shares_memory(values, parsed[0])
        assert all(row.flags.c_contiguous for row in values)
        expected_times, expected = read_matrix(out / "solution.csv")
        assert np.array_equal(times, expected_times) and np.array_equal(values, expected)

    def test_replay_error_equals_stepping_each_row_alone(self):
        from advisc.cli import _replay_error
        from advisc.grid import make_grid
        from advisc.schemes import SchemeConfig, ftcs_update

        cfg = SchemeConfig(c=1.0, dt=1e-3, grid=make_grid(50, 1.0))
        rng = np.random.default_rng(5)
        states = rng.normal(size=(9, 50))
        for mu_rows in (rng.uniform(0, 0.01, (8, 50)), np.broadcast_to(0.005, (8, 50))):
            expected = 0.0
            for n, mu in enumerate(mu_rows):
                scale = max(float(np.max(np.abs(states[n + 1]))), 1.0)
                err = float(np.max(np.abs(ftcs_update(states[n], mu, cfg) - states[n + 1])))
                expected = max(expected, err / scale)
            assert _replay_error(states, mu_rows, cfg) == expected

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
        cfg_path, out = write_config(tmp_path, t_final=0.05)
        main(["run", "--config", str(cfg_path)])
        times, states = read_matrix(out / "solution.csv")
        states[3, 7] += 0.5
        write_matrix(out / "solution.csv", times, states)
        assert main(["analyze", str(out)]) == 1
        assert "scheme_equivalence" in failed_checks(out)

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

    @pytest.mark.parametrize("target, rows, expected", [
        ("mu.csv", slice(None, -1), {"stored_steps_consistent"}),
        ("mu.csv", [*range(30), 29], {"stored_steps_consistent"}),
        ("solution.csv", slice(None, -1),
         {"entropy_series_consistent", "stored_steps_consistent"}),
    ], ids=["mu_row_missing", "mu_row_extra", "solution_row_missing"])
    def test_analyze_names_row_count_mismatch(self, tmp_path, target, rows, expected):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=20, t_final=0.03,
            training=TRAINING.format(n_iters=10, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        times, values = read_matrix(out / target)
        write_matrix(out / target, times[rows], values[rows])
        assert main(["analyze", str(out)]) == 1
        analysis = json.loads((out / "analysis.json").read_text())
        failed = {c["name"]: c["detail"] for c in analysis["checks"] if not c["passed"]}
        assert expected <= set(failed)
        for name in expected:
            assert "rows" in failed[name]

    def test_analyze_rejects_header_only_solution_exits_4(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        main(["run", "--config", str(cfg_path)])
        header = (out / "solution.csv").read_text().splitlines()[0]
        (out / "solution.csv").write_text(header + "\n")
        assert main(["analyze", str(out)]) == 4
        assert "no data rows" in capsys.readouterr().err

    def test_analyze_rejects_non_finite_solution_exits_4(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        main(["run", "--config", str(cfg_path)])
        lines = (out / "solution.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[5] = "nan"
        lines[3] = ",".join(cells)
        (out / "solution.csv").write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(out)]) == 4

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
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        assert main(["run", "--config", str(cfg_path)]) == 0
        lines = (out / "solution.csv").read_text().splitlines()
        lines[0] = lines[0].rsplit(",", 1)[0]
        (out / "solution.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 4
        err = capsys.readouterr().err
        assert "header" in err and str(out / "solution.csv") in err

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
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=20, t_final=0.01,
            training=TRAINING.format(n_iters=5, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        (out / "loss_history.csv").write_text("iter,loss\n")
        assert main(["analyze", str(out)]) == 1
        assert failed_checks(out) == {"loss_history_consistent": "0 rows"}

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
        # row 0 also holds the smallest loss
        ("loss_history.csv", 0, 1, ["training:loss_first", "training:loss_best"], "stored="),
        ("loss_history.csv", 29, 1, ["training:loss_last"], "stored="),
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
        assert "stored=inf recomputed=inf" in {c["detail"] for c in analysis["checks"]}
        assert [c["name"] for c in analysis["checks"] if not c["passed"]] == ["run_status_ok"]

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
        assert checks["stat:entropy_initial"]["detail"] == "stored=inf recomputed=inf"
        assert checks["entropy_series_consistent"]["detail"] == "mismatched columns []"

    def test_analyze_fails_stored_infinite_entropy_against_finite(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        assert main(["run", "--config", str(cfg_path)]) == 0
        times, entropy = read_columns_csv(out / "entropy.csv", ["t", "entropy"]).T
        entropy[3] = np.inf
        lines = ["t,entropy"] + ["%.17g,%.17g" % row for row in zip(times, entropy)]
        (out / "entropy.csv").write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(out)]) == 1
        analysis = json.loads((out / "analysis.json").read_text())
        failed = {c["name"]: c["detail"] for c in analysis["checks"] if not c["passed"]}
        assert failed == {"entropy_series_consistent": "mismatched columns ['entropy']"}

    def test_analyze_fails_statistics_missing_from_summary(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=32, t_final=0.03,
            training=TRAINING.format(n_iters=40, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        expected = {f"stat:{key}" for key in summary.pop("stats")}
        del summary["mu"]
        expected |= {"mu:mu_min", "mu:mu_max", "mu:fraction_negative",
                     "mu:negative_mass_near_discontinuity"}
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


class TestMemoryBudget:
    """A plain run and its analysis hold each stored space-time matrix once."""

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
        out = tmp_path / "out"
        cfg_path = tmp_path / "big.cfg"
        cfg_path.write_text(
            f"[simulation]\nscheme = ftcs_mu\nn_cells = {self.N_CELLS}\nlength = 1.0\n"
            f"c = 1.0\ndt = 0.0002\nt_final = 0.02\nmu = 0.0001\n"
            f"[initial_condition]\nkind = sine\n[output]\ndirectory = {out}\n")
        matrix_bytes = (self.N_STEPS + 1) * self.N_CELLS * 8
        for argv in (["run", "--config", str(cfg_path)], ["analyze", str(out)]):
            code, peak = self.traced_peak(argv)
            assert code == 0
            assert peak < 1.5 * matrix_bytes, f"{argv[0]} peaked at {peak / matrix_bytes:.2f} matrices"
        _, states = read_matrix(out / "solution.csv")
        assert states.shape == (self.N_STEPS + 1, self.N_CELLS)

    def test_run_writes_every_csv_row_by_row(self, tmp_path, monkeypatch):
        import advisc.cli

        kinds = []

        def recording(path, header, rows):
            kinds.append(type(rows))
            write_columns_csv(path, header, rows)

        monkeypatch.setattr(advisc.cli, "write_columns_csv", recording)
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=20, t_final=0.01,
            training=TRAINING.format(n_iters=5, mu_min=-0.005),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert len(kinds) == 6
        assert not any(issubclass(kind, (list, tuple, np.ndarray)) for kind in kinds)


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

        def both(path, header, rows):
            rows = list(rows)
            write_columns_csv(path, header, rows)
            reference_write_columns_csv(reference / Path(path).name, header, rows)
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
    analyze and on a rerun into its directory, names the manifest and
    deletes nothing."""

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


class TestExitCodes:
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
        cfg_path, _ = write_config(tmp_path, scheme="ftcs_mu", t_final=0.01,
                                   extra_sim="mu = 0.005\n",
                                   training=TRAINING.format(n_iters=2, mu_min=-0.005))
        assert main([command, "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert f"advisc {command}" in err and "109. TiB" in err

    def test_run_out_of_memory_keeps_the_previous_run(self, tmp_path, monkeypatch):
        import advisc.cli

        cfg_path, out = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 109. TiB for an array")

        monkeypatch.setattr(advisc.cli, "simulate", too_large)
        assert main(["run", "--config", str(cfg_path)]) == 3
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

    def test_run_and_train_require_exactly_one_source(self, tmp_path):
        assert main(["run"]) == 3
        cfg_path, _ = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--preset", "paper-hat"]) == 3

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
        # cmd_train trains a study's runs in one batched call, on the problem
        # and in the mode of its first run; the oracles are the preset's.
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
