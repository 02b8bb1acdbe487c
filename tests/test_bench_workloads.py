"""The benchmark checks run directories that `reproduce` writes; each one it
names must be a subdirectory of the study reproduced into its parent."""

from pathlib import Path

from advisc.presets import STUDIES

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_paper_presets_runs_are_study_subdirectories(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    plan = workloads.build("paper-presets", 0, "full", tmp_path)
    reproduced = {argv[argv.index("--out") + 1]: argv[argv.index("--preset") + 1]
                  for argv in plan.commands if argv[0] == "reproduce"}
    assert plan.runs
    for run in plan.runs:
        out, sub = run.split("/")
        runs, _ = STUDIES[reproduced[out]]
        assert sub in [subdir for subdir, _, _ in runs], run
