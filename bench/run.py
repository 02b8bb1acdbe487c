"""End-to-end benchmark of the advisc CLI, with a traced per-layer pass.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-presets --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Each pass is one fresh, single-threaded Python process (bench/worker.py) that
imports advisc.cli from the checkout's src/ and calls advisc.cli.main for each
command of the workload (bench/workloads.py) in a temporary directory that is
deleted afterwards. With --trace 0 passes repeat for --seconds seconds (at
least two) and the median of each end-to-end metric is reported:

- setup_s: process start until advisc.cli is imported, also sampled by
  processes that only import it;
- wall_s: all of a pass's commands, once each;
- analyze_s: one round of the pass's analyze commands. Each pass repeats the
  round while another fits in ANALYZE_BUDGET_S, and the median is over all
  rounds of the run. Each command's wall time is scaled by
  CALIBRATION_REFERENCE_S over the mean of the calibrations timed just before
  and after it (bench/worker.py), because on a shared host the speed of short
  commands drifts by tens of percent between runs. Multi-second commands are
  not scaled: brief calibrations do not track the speed across them;
- peak_rss_mb: the pass process's peak resident set.

With --trace 1 one untraced pass is followed by one pass whose layer
functions are wrapped (bench/tracer.py); it reports per-layer counts and self
times, and the difference of the two passes' wall times as the tracing
overhead.

Every command must exit 0, every reproduce claim must PASS, every analyze
must report all_passed, solution.csv must be byte-identical across the
passes, and at the default seed the trained and simulated statistics must
match bench/reference.json to 1e-12 relative. Each command and each check is
one attempted operation. The last line of standard output is the result as
one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
WORKER = BENCH_DIR / "worker.py"
REFERENCE = BENCH_DIR / "reference.json"

MIN_PASSES = 2
SETUP_PROBES_PER_PASS = 4
ANALYZE_BUDGET_S = 3.0
MAX_ANALYZE_ROUNDS = 50
# Median time of the worker's calibration on the 2-vCPU Xeon host where the
# benchmark was defined; analyze_s is expressed at that host speed.
CALIBRATION_REFERENCE_S = 0.0185
PASS_TIMEOUT_S = 170
REFERENCE_RTOL = 1e-12
# Every pass runs single-threaded and without the transparent huge pages that
# numpy requests for large arrays, which made peak RSS of one input jump
# between runs.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0"}

# Computed (not measured) cost of one ftcs_step per cell: 6 flops for the face
# flux, 3 for the update; compulsory traffic reads u and mu and writes u'.
FTCS_FLOPS_PER_CELL = 9
FTCS_BYTES_PER_CELL = 24
FLOAT_BYTES = 8

END_TO_END = {"setup_s": "s", "wall_s": "s", "analyze_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "schemes.ftcs_step.calls": "count",
    "schemes.ftcs_step.self_s": "s",
    "schemes.ftcs_step.us_per_call": "us",
    "schemes.ftcs_step.flops": "flop",
    "schemes.ftcs_step.bytes": "B",
    "schemes.cell_updates_per_s": "1/s",
    "schemes.state_bytes": "B",
    "schemes.simulate.calls": "count",
    "schemes.simulate.self_s": "s",
    "adjoint.grad_mu_instantaneous.calls": "count",
    "adjoint.grad_mu_instantaneous.self_s": "s",
    "adjoint.grad_mu_global.calls": "count",
    "adjoint.grad_mu_global.self_s": "s",
    "adjoint.step_transpose_apply.self_s": "s",
    "adjoint.loss_value.calls": "count",
    "adjoint.loss_value.self_s": "s",
    "optimizer.train_per_step.self_s": "s",
    "optimizer.inner_iters": "count",
    "optimizer.train_global.self_s": "s",
    "optimizer.train_global.iters": "count",
    "optimizer.forward_sweeps_per_iter": "sweep/iter",
    "optimizer.rejected_candidates": "count",
    "grid.exact_solution.calls": "count",
    "grid.exact_solution.self_s": "s",
    "grid.containers.count": "count",
    "grid.containers.self_s": "s",
    "diagnostics.error_field.self_s": "s",
    "diagnostics.entropy_report.self_s": "s",
    "diagnostics.mu_stats.self_s": "s",
    "runio.write.self_s": "s",
    "runio.write.bytes": "B",
    "runio.write_mb_per_s": "MB/s",
    "runio.read.self_s": "s",
    "runio.read.bytes": "B",
    "runio.read_mb_per_s": "MB/s",
    "cli.cmd_analyze.self_s": "s",
    "cli.cmd_train.self_s": "s",
    "cli.cmd_run.self_s": "s",
    "cli.cmd_reproduce.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
    "checks.failed_frac": "fraction",
}


class SetupError(RuntimeError):
    """The benchmark cannot run here (no advisc sources, or a probe failed)."""


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok


@dataclass
class PassResult:
    setup_s: float
    wall_s: float
    analyze_rounds_s: list[float]
    analyze_unscaled_s: float
    peak_rss_mb: float
    hashes: dict[str, str]
    params: dict
    spans: dict | None = None
    nested: list | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ADVISC_OUT", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(PINNED_ENV)
    return env


def probe_setup(env: dict[str, str]) -> float:
    """Seconds from starting a worker until it has imported advisc.cli."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    # time.monotonic is CLOCK_MONOTONIC, shared by all processes on Linux.
    return json.loads(proc.stdout)["ready"] - start


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _summary_values(summary: dict) -> dict[str, float]:
    values = {"mse_final": summary["stats"]["mse_final"]}
    if "training" in summary:
        values["loss_best"] = summary["training"]["loss_best"]
        values["mu_min"] = summary["mu"]["mu_min"]
        values["mu_max"] = summary["mu"]["mu_max"]
    return values


def _check_outputs(plan: workloads.Plan, result: dict, workdir: Path,
                   reference: dict, checks: Checks) -> dict[str, str]:
    """Check one finished pass's commands and files; return solution.csv hashes."""
    for cmd in result["commands"]:
        argv = " ".join(cmd["argv"])
        if not checks.check(cmd["code"] == 0, f"`{argv}` exited {cmd['code']}"):
            continue
        if cmd["argv"][0] == "reproduce":
            claims = cmd["stdout"].splitlines()
            checks.check(bool(claims) and all(c.endswith(": PASS") for c in claims),
                         f"`{argv}` claims: {claims}")
        elif cmd["argv"][0] == "analyze":
            try:
                analysis = json.loads((workdir / cmd["argv"][1] / "analysis.json").read_text())
                passed = analysis["all_passed"] is True
            except (OSError, ValueError, KeyError):
                passed = False
            checks.check(passed, f"`{argv}` did not report all_passed")
    hashes = {}
    for run, key in plan.runs.items():
        solution = workdir / run / "solution.csv"
        if checks.check(solution.is_file(), f"{run}/solution.csv missing"):
            hashes[run] = _sha256(solution)
        if key is None:
            continue
        try:
            got = _summary_values(json.loads((workdir / run / "summary.json").read_text()))
        except (OSError, ValueError, KeyError) as err:
            checks.check(False, f"{run}/summary.json unreadable: {err!r}")
            continue
        expected = reference[key]
        bad = {name: (got.get(name), want) for name, want in expected.items()
               if got.get(name) is None
               or not math.isclose(got[name], want, rel_tol=REFERENCE_RTOL, abs_tol=0.0)}
        checks.check(not bad, f"{run} differs from reference {key}: {bad}")
    return hashes


def run_pass(name: str, seed: int, size: str, trace: bool, env: dict[str, str],
             reference: dict, checks: Checks) -> PassResult | None:
    """Run one pass in a fresh temporary directory; None if the worker failed."""
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    try:
        plan = workloads.build(name, seed, size, workdir)
        job = workdir / "job.json"
        job.write_text(json.dumps({"commands": plan.commands, "trace": trace,
                                   "analyze_budget_s": ANALYZE_BUDGET_S,
                                   # Traced layers count one round of the workload.
                                   "max_analyze_rounds": 1 if trace else MAX_ANALYZE_ROUNDS}))
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(WORKER), str(job)], env=env,
                                  cwd=workdir, capture_output=True, text=True,
                                  timeout=PASS_TIMEOUT_S)
            detail = proc.stderr.strip()[-2000:]
            ok = proc.returncode == 0 and (workdir / "result.json").is_file()
        except subprocess.TimeoutExpired:
            ok, detail = False, f"timed out after {PASS_TIMEOUT_S} s"
        if not checks.check(ok, f"{name} pass failed: {detail}"):
            checks.attempted += len(plan.commands)
            checks.failed += len(plan.commands)
            return None
        result = json.loads((workdir / "result.json").read_text())
        hashes = _check_outputs(plan, result, workdir, reference, checks)
        for cmd in [c for r in result["analyze_rounds"][1:] for c in r]:
            checks.check(cmd["code"] == 0, f"repeated `{' '.join(cmd['argv'])}` exited {cmd['code']}")
        if trace:
            left = result["wrappers_left"]
            checks.check(not left, f"tracer wrappers left installed: {left}")
        cmds = result["commands"]
        return PassResult(
            setup_s=result["ready"] - start,
            wall_s=sum(c["seconds"] for c in cmds),
            analyze_rounds_s=[sum(c["seconds"] * CALIBRATION_REFERENCE_S / c["calibration_s"]
                                  for c in r) for r in result["analyze_rounds"]],
            analyze_unscaled_s=statistics.median(sum(c["seconds"] for c in r)
                                            for r in result["analyze_rounds"]),
            peak_rss_mb=result["max_rss_bytes"] / 1e6,
            hashes=hashes,
            params=plan.params,
            spans=result.get("spans"),
            nested=result.get("nested"),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(traced: PassResult, untraced: PassResult, n_cells: int,
                  checks: Checks) -> dict[str, float]:
    spans = traced.spans
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}

    def span(name: str, key: str) -> float:
        return spans.get(name, empty)[key]

    def summed(prefix: str, key: str) -> float:
        return sum(v[key] for k, v in spans.items() if k.startswith(prefix))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    nested = {(a, b): (calls, failed) for a, b, calls, failed in traced.nested}
    cells = span("schemes.ftcs_step", "work")
    ftcs_calls, ftcs_total = span("schemes.ftcs_step", "calls"), span("schemes.ftcs_step", "total_s")
    iters = nested[("optimizer.train_global", "adjoint.grad_mu_global")][0]
    sweeps, rejected = nested[("optimizer.train_global", "schemes.simulate")]
    write_s, write_b = summed("runio.write_", "self_s"), summed("runio.write_", "work")
    read_s, read_b = summed("runio.read_", "self_s"), summed("runio.read_", "work")
    exact = ("grid.exact_solution", "grid.sine_solution")
    out = {
        "schemes.ftcs_step.calls": ftcs_calls,
        "schemes.ftcs_step.self_s": span("schemes.ftcs_step", "self_s"),
        "schemes.ftcs_step.us_per_call": 1e6 * ratio(ftcs_total, ftcs_calls),
        "schemes.ftcs_step.flops": FTCS_FLOPS_PER_CELL * cells,
        "schemes.ftcs_step.bytes": FTCS_BYTES_PER_CELL * cells,
        "schemes.cell_updates_per_s": ratio(cells, ftcs_total),
        "schemes.state_bytes": FLOAT_BYTES * n_cells,
        "optimizer.inner_iters":
            nested[("optimizer.train_per_step", "adjoint.grad_mu_instantaneous")][0],
        "optimizer.train_global.iters": iters,
        # The initial sweep of each training run is not part of an iteration.
        "optimizer.forward_sweeps_per_iter":
            ratio(sweeps - span("optimizer.train_global", "calls"), iters),
        "optimizer.rejected_candidates": rejected,
        "grid.exact_solution.calls": sum(span(n, "calls") for n in exact),
        "grid.exact_solution.self_s": sum(span(n, "self_s") for n in exact),
        "grid.containers.count": span("grid.containers", "calls"),
        "grid.containers.self_s": span("grid.containers", "self_s"),
        "runio.write.self_s": write_s,
        "runio.write.bytes": write_b,
        "runio.write_mb_per_s": ratio(write_b / 1e6, write_s),
        "runio.read.self_s": read_s,
        "runio.read.bytes": read_b,
        "runio.read_mb_per_s": ratio(read_b / 1e6, read_s),
        "trace.spans": sum(v["calls"] for v in spans.values()),
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
        "trace.overhead_frac": ratio(traced.wall_s - untraced.wall_s, untraced.wall_s),
        "checks.failed_frac": ratio(checks.failed, checks.attempted),
    }
    # The remaining metrics are one span's call count or self time.
    for metric in PER_LAYER:
        if metric not in out:
            layer, _, key = metric.rpartition(".")
            out[metric] = span(layer, key)
    return {metric: out[metric] for metric in PER_LAYER}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _llc_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def _source_id() -> dict[str, str]:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    out = {"src_sha256": digest.hexdigest()}
    if not (ROOT / ".git").exists():
        return out
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            out["commit"] = proc.stdout.strip()
    except OSError:
        pass
    return out


def environment(n_cells: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        **_source_id(),
        "pinned_env": PINNED_ENV,
        "llc_bytes": _llc_bytes(),
        "largest_state_bytes": FLOAT_BYTES * n_cells,
        "ftcs_flops_and_bytes": "computed from N, not measured",
    }


def run_benchmark(name: str, seed: int, seconds: int, trace: bool, size: str) -> dict:
    if not (ROOT / "src" / "advisc" / "cli.py").is_file():
        raise SetupError(f"no advisc sources under {ROOT / 'src'}; run from a checkout")
    env = child_env()
    reference = json.loads(REFERENCE.read_text())["runs"]
    checks = Checks()
    passes: list[PassResult | None] = []
    setup_samples: list[float] = []

    def one(traced: bool) -> PassResult | None:
        result = run_pass(name, seed, size, traced, env, reference, checks)
        passes.append(result)
        return result

    if trace:
        untraced, traced = one(False), one(True)
    else:
        deadline = time.monotonic() + seconds
        while True:
            started = time.monotonic()
            # Probes spread over the run, so a slow spell does not skew them all.
            setup_samples += [probe_setup(env) for _ in range(SETUP_PROBES_PER_PASS)]
            if one(False) is None:
                break
            # Start another pass only if one as long as the last still fits.
            duration = time.monotonic() - started
            if len(passes) >= MIN_PASSES and time.monotonic() + duration > deadline:
                break

    done = [p for p in passes if p is not None]
    for other in done[1:]:
        checks.check(other.hashes == done[0].hashes,
                     "solution.csv differs between passes of the same code")

    n_cells = done[0].params["n_cells"] if done else 0
    metrics: dict[str, float] = {}
    if trace:
        if untraced is not None and traced is not None:
            metrics = layer_metrics(traced, untraced, n_cells, checks)
        units = PER_LAYER
    else:
        if done:
            metrics = {
                "setup_s": statistics.median(setup_samples + [p.setup_s for p in done]),
                "wall_s": statistics.median(p.wall_s for p in done),
                "analyze_s": statistics.median(s for p in done for s in p.analyze_rounds_s),
                "peak_rss_mb": statistics.median(p.peak_rss_mb for p in done),
            }
        units = END_TO_END
    return {
        "env": environment(n_cells),
        "detail": {
            "workload": name, "seed": seed, "size": size, "trace": int(trace),
            "inputs": done[0].params if done else None,
            "passes": [None if p is None else {
                "setup_s": p.setup_s, "wall_s": p.wall_s,
                "analyze_s": statistics.median(p.analyze_rounds_s),
                "analyze_unscaled_s": p.analyze_unscaled_s,
                "peak_rss_mb": p.peak_rss_mb} for p in passes],
            "setup_probes_s": setup_samples,
            "failures": checks.messages,
        },
        "result": {
            "correct": checks.failed == 0 and len(metrics) == len(units),
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def smoke() -> int:
    """Run every workload tiny, untraced and traced; check the metrics and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in workloads.NAMES:
        for trace in (0, 1):
            out = run_benchmark(name, workloads.DEFAULT_SEED, 1, bool(trace), "smoke")
            result = out["result"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{name} --trace {trace}"
            if not result["correct"]:
                problems.append(f"{label}: incorrect: {out['detail']['failures']}")
            if got != expected[trace]:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(expected[trace]))} "
                                f"missing or extra, or units differ")
            print(f"{label}: {result['attempted']} operations, {result['failed']} failed, "
                  f"{len(got)} metrics")
    for problem in problems:
        print(problem)
    print(json.dumps({"smoke_ok": not problems}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the metric set")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.smoke:
            return smoke()
        out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    except SetupError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    print(json.dumps({"env": out["env"]}))
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
