"""Child process of the benchmark: runs one workload's cases through fqg.cli.main.

Usage: ``python3 worker.py --probe`` or ``python3 worker.py PLAN.json``,
with ``src`` on ``PYTHONPATH`` and the input directory as working directory.

The worker imports ``fqg`` and writes ``ready`` to stdout; the parent times
the interval from spawning to that line (``setup_s``).  A probe then exits.
Otherwise the worker reads the plan, runs the warm-up case, and then whole
passes over the cases until ``seconds`` have been spent (at least
``MIN_PASSES``).  With ``trace`` set, untraced and traced passes alternate
(at least one of each), and a last pass runs under tracemalloc for the
stage peaks.  Results go to the file named in the plan; reports are never
printed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

from fqg import cli  # imports the whole package: part of the measured set-up

import tracer

MIN_PASSES = 3


def run_case(argv) -> dict:
    """One in-process ``fqg`` command; captures its stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        except Exception:  # a case that raises is recorded, the pass goes on
            code = None
            error = traceback.format_exc()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def run_pass(cases) -> tuple[float, list[dict]]:
    start = time.perf_counter()
    outputs = [run_case(case["argv"]) for case in cases]
    return time.perf_counter() - start, outputs


def _count_differing(a: list[dict], b: list[dict]) -> int:
    return sum(x != y for x, y in zip(a, b))


def run_plan(plan: dict) -> dict:
    cases = plan["cases"]
    warm_start = time.perf_counter()
    run_case(cases[0]["argv"])
    result = {"warmup_s": time.perf_counter() - warm_start}

    walls, traced_walls, spans = [], [], []
    first_outputs = None
    mismatched_runs = 0
    qualnames = tracer.public_functions() if plan["trace"] else ()
    budget_start = time.perf_counter()
    bytes_per_pass = None
    while True:
        wall, outputs = run_pass(cases)
        walls.append(wall)
        if first_outputs is None:
            first_outputs = outputs
        else:
            mismatched_runs += _count_differing(first_outputs, outputs)
        if plan["trace"]:
            with tracer.Tracer(qualnames) as t:
                wall, outputs = run_pass(cases)
            traced_walls.append(wall)
            spans.append(t.spans)
            bytes_per_pass = dict(t.result_bytes)
            mismatched_runs += _count_differing(first_outputs, outputs)
        elapsed = time.perf_counter() - budget_start
        if len(walls) >= (1 if plan["trace"] else MIN_PASSES) and elapsed >= plan["seconds"]:
            break
    result.update(
        pass_s=walls,
        outputs=first_outputs,
        mismatched_runs=mismatched_runs,
        runs=len(cases) * (len(walls) + len(traced_walls)),
    )
    if plan["trace"]:
        with tracer.PeakTracker() as peaks:
            _, outputs = run_pass(cases)
        mismatched_runs += _count_differing(first_outputs, outputs)
        result.update(
            traced_pass_s=traced_walls,
            result_bytes=bytes_per_pass,
            peak_bytes=dict(peaks.peak_bytes),
            mismatched_runs=mismatched_runs,
            runs=result["runs"] + len(cases),
        )
        with open(plan["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    return result


def main(argv) -> int:
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if argv[1:] == ["--probe"]:
        return 0
    with open(argv[1], "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    result = run_plan(plan)
    with open(plan["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
