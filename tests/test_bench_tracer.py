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
mode = per_step
n_iters = 5

[output]
directory = {directory}
"""


def test_traced_train_records_the_reported_layers(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(CONFIG.format(directory=tmp_path / "out"))
    tracing = tracer.Tracer()
    tracing.install()
    try:
        code = advisc.cli.main(["train", "--config", str(cfg_path)])
    finally:
        tracing.remove()
    assert code == 0
    assert tracer.wrappers_left() == []
    spans = tracing.report()["spans"]
    assert spans["optimizer.train_per_step"]["calls"] > 0
    # The per-step trainer steps the state once per step through the kernel and
    # runs its inner iterations without a call into the library.
    assert spans["schemes.ftcs_update"]["calls"] == 5
    # States and viscosities cross the library as plain arrays, so a run builds
    # no field container and the benchmark's grid.containers metrics read 0.
    assert spans["grid.containers"]["calls"] == 0
