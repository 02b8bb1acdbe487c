import json
from pathlib import Path

import numpy as np
import pytest

from advisc.cli import main
from advisc.runio import read_manifest, read_matrix_csv, read_series_csv

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
seed = 0
"""


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
        times, states = read_matrix_csv(out / "solution.csv")
        assert states.shape == (151, 100)  # 150 steps plus the initial state
        assert times[-1] == pytest.approx(0.15)
        for name in ("final_state.csv", "error.csv", "entropy.csv",
                     "summary.json", "manifest.json"):
            assert (out / name).is_file()

    def test_zero_t_final_outputs_initial_state_only(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.0)
        assert main(["run", "--config", str(cfg_path)]) == 0
        _, states = read_matrix_csv(out / "solution.csv")
        assert states.shape == (1, 100)

    def test_bare_ftcs_growth_reported(self, tmp_path):
        cfg_path, out = write_config(tmp_path, scheme="ftcs_bare", kind="sine", t_final=1.0)
        assert main(["run", "--config", str(cfg_path)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stats"]["entropy_final"] > summary["stats"]["entropy_initial"]

    def test_ftcs_mu_requires_mu_key(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, scheme="ftcs_mu")
        assert main(["run", "--config", str(cfg_path)]) == 3

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
        _, states = read_matrix_csv(out / "solution.csv")
        assert states.shape[0] == manifest["diverged_at_step"] + 1

    def test_unknown_config_key_exits_3(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, extra_sim="typo_key = 1\n")
        assert main(["run", "--config", str(cfg_path)]) == 3

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 3

    @pytest.mark.parametrize("ic", [
        "kind = hat\nlo = 0.5\nhi = 1.5",
        "kind = hat\nlo = 0.6\nhi = 0.4",
        "kind = hat\namplitude = inf",
        "kind = sine\namplitude = nan",
    ], ids=["hat_hi_past_domain", "hat_lo_above_hi", "hat_amp_inf", "sine_amp_nan"])
    def test_bad_initial_condition_exits_3(self, tmp_path, capsys, ic):
        cfg_path, _ = write_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text().replace("kind = hat\n", ic + "\n"))
        assert main(["run", "--config", str(cfg_path)]) == 3
        assert "config error" in capsys.readouterr().err

    def test_out_flag_overrides_directory(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, t_final=0.01)
        override = tmp_path / "elsewhere"
        assert main(["run", "--config", str(cfg_path), "--out", str(override)]) == 0
        assert (override / "solution.csv").is_file()

    def test_env_var_overrides_directory(self, tmp_path, monkeypatch):
        cfg_path, _ = write_config(tmp_path, t_final=0.01)
        env_dir = tmp_path / "env-out"
        monkeypatch.setenv("ADVISC_OUT", str(env_dir))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (env_dir / "solution.csv").is_file()


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
        times, mu = read_matrix_csv(out / "mu.csv")
        assert mu.shape == (30, 32)
        iters, losses = read_series_csv(out / "loss_history.csv")
        assert len(losses) == 30
        summary = json.loads((out / "summary.json").read_text())
        assert summary["training"]["converged"] is True

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

    def test_training_requires_training_section(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, scheme="ftcs_mu", extra_sim="mu = 0.005\n")
        assert main(["train", "--config", str(cfg_path)]) == 3

    def test_collapsed_bounds_match_constant_mu_run(self, tmp_path):
        # degenerate training bounds pin mu = 0.005, i.e. the upwind-equivalent run
        train_cfg, train_out = write_config(
            tmp_path, name="train.cfg", scheme="ftcs_mu", n_cells=50, t_final=0.02,
            directory=str(tmp_path / "trained"),
            training="\n[training]\nmode = per_step\nn_iters = 5\n"
                     "mu_min = 0.005\nmu_max = 0.005\ninit_mu = 0.005\n",
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
            assert main(["train", "--config", str(cfg_path), "--seed", "11"]) == 0
            results.append(out)
        for name in ("solution.csv", "mu.csv", "loss_history.csv", "error.csv"):
            assert (results[0] / name).read_bytes() == (results[1] / name).read_bytes()

    def test_divergent_training_exits_2(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path, scheme="ftcs_mu", n_cells=64, t_final=0.1, kind="hat",
            training="\n[training]\nmode = per_step\nn_iters = 1\n"
                     "learning_rate = 1e-15\nmu_min = -0.08\nmu_max = -0.07\n"
                     "init_mu = -0.075\n",
        )
        assert main(["train", "--config", str(cfg_path)]) == 2
        manifest = read_manifest(out)
        assert manifest["status"] == "divergence"


class TestAnalyzeCommand:
    def test_analyze_upwind_run_passes(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.05)
        main(["run", "--config", str(cfg_path)])
        assert main(["analyze", str(out)]) == 0
        analysis = json.loads((out / "analysis.json").read_text())
        assert analysis["all_passed"] is True
        names = {c["name"] for c in analysis["checks"]}
        assert "scheme_equivalence" in names

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
        times, states = read_matrix_csv(out / "solution.csv")
        states[3, 7] += 0.5
        from advisc.runio import write_matrix_csv

        write_matrix_csv(out / "solution.csv", times, states)
        assert main(["analyze", str(out)]) == 1

    def test_analyze_detects_unlisted_file(self, tmp_path):
        cfg_path, out = write_config(tmp_path, t_final=0.01)
        main(["run", "--config", str(cfg_path)])
        (out / "stray.txt").write_text("not in manifest\n")
        assert main(["analyze", str(out)]) == 1


class TestReproduceCommand:
    def test_unknown_preset_exits_3(self, tmp_path):
        assert main(["reproduce", "--preset", "nope", "--out", str(tmp_path)]) == 3

    def test_run_and_train_require_exactly_one_source(self, tmp_path):
        assert main(["run"]) == 3
        cfg_path, _ = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--preset", "paper-hat"]) == 3

    def test_paper_hat_claims(self, tmp_path):
        out = tmp_path / "repro"
        assert main(["reproduce", "--preset", "paper-hat", "--out", str(out)]) == 0
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["claims"]["mse_learned_below_upwind"] is True
        assert comparison["claims"]["min_mu_negative"] is True
        assert comparison["claims"]["entropy_nonincreasing_global"] is True
        assert comparison["learned"]["stats"]["mse_final"] < comparison["oracles"]["mse_upwind"]
        assert (out / "learned" / "mu.csv").is_file()

    def test_paper_hat_nonneg_amplitude_comparison(self, tmp_path):
        out = tmp_path / "repro-nonneg"
        assert main(["reproduce", "--preset", "paper-hat-nonneg", "--out", str(out)]) == 0
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["claims"]["nonneg_amplitude_not_above_signed"] is True
        assert comparison["claims"]["nonneg_mu_min_nonnegative"] is True


class TestRerunFromManifestEcho:
    def test_config_echo_reruns_bit_identically(self, tmp_path):
        from advisc.cli import cmd_run
        from advisc.config import config_from_dict

        cfg_path, out = write_config(tmp_path, t_final=0.02)
        assert main(["run", "--config", str(cfg_path)]) == 0
        manifest = read_manifest(out)
        rebuilt = config_from_dict(manifest["config"]).with_output_dir(str(tmp_path / "rerun"))
        assert cmd_run(rebuilt, seed=manifest["seed"]) == 0
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
