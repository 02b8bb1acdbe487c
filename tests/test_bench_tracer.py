"""The benchmark's tracer (bench/tracer.py) wraps advisc's layer functions by
name; a traced run must still find the layers the benchmark reports on. The
field containers are the exception: nothing in the library builds one."""

from pathlib import Path

import advisc.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

CONFIG = """
[simulation]
scheme = ftcs_mu
n_cells = 20
length = 1.0
c = 1.0
dt = 0.001
t_final = 0.005

[initial_condition]
kind = hat

[training]
mode = {mode}
n_iters = {n_iters}

[output]
directory = {directory}
"""


def traced(monkeypatch, argv: list[str]) -> dict:
    """The tracer's report of one CLI command; every wrapper is removed after."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    tracing = tracer.Tracer()
    tracing.install()
    try:
        code = advisc.cli.main(argv)
    finally:
        tracing.remove()
    assert code == 0
    assert tracer.wrappers_left() == []
    return tracing.report()


def traced_train(tmp_path, monkeypatch, mode: str, n_iters: int) -> dict:
    """The tracer's report of one ``train`` run."""
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(CONFIG.format(mode=mode, n_iters=n_iters, directory=tmp_path / "out"))
    return traced(monkeypatch, ["train", "--config", str(cfg_path)])


def test_traced_train_records_the_reported_layers(tmp_path, monkeypatch):
    spans = traced_train(tmp_path, monkeypatch, "per_step", 5)["spans"]
    assert spans["optimizer.train_per_step"]["calls"] > 0
    # States and viscosities cross the library as plain arrays, so a run builds
    # no field container and the benchmark's grid.containers metrics read 0.
    assert spans["grid.containers"]["calls"] == 0


def test_traced_reproduce_trains_through_cmd_train(tmp_path, monkeypatch, short_presets):
    # A study trains its runs through the train command's one path, in one
    # batched call, so the benchmark's cli.cmd_train metrics count it.
    spans = traced(monkeypatch, ["reproduce", "--preset", "paper-hat-nonneg",
                                 "--out", str(tmp_path / "study")])["spans"]
    assert spans["cli.cmd_train"]["calls"] == 1
    assert spans["optimizer.train_per_step"]["calls"] == 1


def test_traced_global_train_counts_sweeps_inside_the_trainer(tmp_path, monkeypatch):
    # The benchmark's forward_sweeps_per_iter divides these nested counts, so
    # every sweep and gradient of the trainer must go through the traced names:
    # the initial sweep plus one candidate sweep per iteration.
    nested = {(ancestor, span): calls for ancestor, span, calls, _ in
              traced_train(tmp_path, monkeypatch, "global", 3)["nested"]}
    assert nested[("optimizer.train_global", "schemes.simulate")] == 4
    assert nested[("optimizer.train_global", "adjoint.grad_mu_global")] == 3
