"""One benchmark pass: a fresh process that runs a workload's CLI commands.

Usage: worker.py JOB.json writes the pass result next to the job file;
worker.py alone only reports when advisc.cli finished importing (a set-up
probe). advisc.cli is imported before anything else, so the parent can time
set-up from the moment it started this process.
"""

import sys
import time

import advisc.cli

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

CALIBRATION_ITERS = 600


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, small-array numpy and float-text work.

    Timed around each analyze command, it tracks the host's speed, which on a
    shared machine drifts by tens of percent within minutes.
    """
    u = np.linspace(0.0, 1.0, 100)
    t0 = time.perf_counter()
    for i in range(CALIBRATION_ITERS):
        v = np.roll(u, 1) - u
        float(np.sum(v * v))
        if i % 10 == 0:
            sum(float(x) for x in ",".join(format(x, ".17g") for x in u[:50]).split(","))
    return time.perf_counter() - t0


def run_command(argv: list[str]) -> dict:
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = advisc.cli.main(argv)
        except SystemExit as err:  # argparse rejected the command line
            code = err.code
    return {"argv": argv, "code": code, "seconds": time.perf_counter() - t0,
            "stdout": out.getvalue()}


def run_commands(argvs: list[list[str]]) -> list[dict]:
    """Run commands in order; each analyze is bracketed by calibrations."""
    records, calibration = [], None
    for argv in argvs:
        if argv[0] != "analyze":
            records.append(run_command(argv))
            calibration = None
            continue
        before = calibrate() if calibration is None else calibration
        record = run_command(argv)
        calibration = calibrate()
        record["calibration_s"] = 0.5 * (before + calibration)
        records.append(record)
    return records


def run_job(job: dict) -> dict:
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        commands = run_commands(job["commands"])
        # Repeat the analyses, which are short and idempotent, while another
        # round fits in analyze_budget_s, so that their median is steady.
        analyses = [argv for argv in job["commands"] if argv[0] == "analyze"]
        rounds = [[c for c in commands if c["argv"][0] == "analyze"]]
        spent = last = sum(c["seconds"] for c in rounds[0])
        while analyses and len(rounds) < job["max_analyze_rounds"] and spent + last <= job["analyze_budget_s"]:
            rounds.append(run_commands(analyses))
            last = sum(c["seconds"] for c in rounds[-1])
            spent += last
    finally:
        if tracer is not None:
            tracer.remove()
    result = {
        "ready": READY,
        "commands": commands,
        "analyze_rounds": rounds,
        "max_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
    }
    if tracer is not None:
        result["wrappers_left"] = tracing.wrappers_left()
        result.update(tracer.report())
    return result


def main() -> int:
    if len(sys.argv) == 1:
        print(json.dumps({"ready": READY}))
        return 0
    job_path = sys.argv[1]
    with open(job_path) as fh:
        job = json.load(fh)
    result = run_job(job)
    with open(os.path.join(os.path.dirname(job_path), "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
