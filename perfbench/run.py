"""Benchmark of the fqg command line, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--results FILE] [--compare FILE]
    python3 perfbench/run.py --record-baseline

Inputs are generated from the seed (see ``workloads.py``) into
``.perfbench_work/`` before any child starts.  Set-up is timed on several
fresh child processes that import ``fqg`` and report ready; then one child
runs the workload's cases through ``fqg.cli.main`` for ``S`` seconds of
whole passes (see ``worker.py``).  Every report is checked (``gate.py``).

With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
the child adds traced passes and the per-layer metrics are printed instead.
The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (case runs, and runs whose report was broken) and ``metrics``.
``--results`` also writes samples and the environment to a file;
``--compare`` prints each metric's change against such a file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import gate as gate_mod
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
BASELINE = os.path.join(HERE, "baseline_checks.json")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

SETUP_PROBES = 8
DEADLINE_S = 170.0
BASELINE_SEEDS = (1, 2)

TRACE_FUNCTIONS = (
    "tensors.embed_legs",
    "multiplicative.verify_pentagon",
    "multiplicative.verify_coproduct_implemented",
    "multiplicative.verify_dual_coproduct_identities",
    "multiplicative.dual_coproduct_checked",
    "multiplicative.build_dual_subspace",
    "multiplicative.verify_left_slices_span",
    "multiplicative.verify_antipode_relation",
    "multiplicative.build_multiplicative_unitary",
    "tensors.project_onto_span",
    "tensors.expand_in_leg",
    "tensors.numerical_rank",
    "actions.action_axioms_report",
    "actions.build_intertwiner_data",
    "actions.verify_gamma",
    "actions.verify_slice_commutativity",
    "hopf.verify_hopf_star_axioms",
    "hopf.is_hopf_star_automorphism",
)
SELF_ONLY_FUNCTIONS = (
    "haar.compute_haar",
    "haar.gns_construct",
    "duality.build_dual",
    "duality.verify_G_isomorphism",
    "builders.load_algebra",
    "builders.algebra_to_json",
)

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "check_pass_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACE_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["tensors.embed_legs.bytes"] = "B"
    for name in SELF_ONLY_FUNCTIONS:
        units[f"{name}.self_s"] = "s"
    for name in tracer.PEAK_STAGES:
        units[f"{name}.peak_mb"] = "MB"
    for module in tracer.TRACED_MODULES:
        units[f"{module}.self_s"] = "s"
    units["report.checks"] = "count"
    units["report.checks_failed"] = "count"
    units["report.worst_residual_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


class BenchmarkError(Exception):
    """The benchmark cannot produce a result; it exits without printing one."""


# -- child processes --------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
    return env


def spawn_worker(worker_args, cwd: str, deadline: float):
    """Run one child; return (seconds until it was ready, its rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *worker_args],
        cwd=cwd,
        env=_child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        proc.stdout.read()
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if line != b"ready\n" or proc.returncode != 0:
        raise BenchmarkError(f"worker {' '.join(worker_args)} exited with {proc.returncode}")
    return ready_s, rusage


# -- environment ------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library loaded by numpy, if it can be asked."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
    }


# -- metrics ----------------------------------------------------------------


def _layer_metrics(spans_per_pass, result, gate, untraced_s) -> dict[str, float]:
    per_pass = [tracer.aggregate(spans) for spans in spans_per_pass]

    def median_of(fn):
        return statistics.median(fn(stats) for stats in per_pass)

    values: dict[str, float] = {}
    first = per_pass[0]
    for name in TRACE_FUNCTIONS:
        values[f"{name}.calls"] = first.get(name, {}).get("calls", 0)
    for name in TRACE_FUNCTIONS + SELF_ONLY_FUNCTIONS:
        values[f"{name}.self_s"] = median_of(lambda s, n=name: s.get(n, {}).get("self_s", 0.0))
    values["tensors.embed_legs.bytes"] = result["result_bytes"].get("tensors.embed_legs", 0)
    for name in tracer.PEAK_STAGES:
        values[f"{name}.peak_mb"] = result["peak_bytes"].get(name, 0) / 2**20
    for module in tracer.TRACED_MODULES:
        values[f"{module}.self_s"] = median_of(
            lambda s, m=module: sum(v["self_s"] for k, v in s.items() if k.split(".")[0] == m)
        )
    values["report.checks"] = gate.checks
    values["report.checks_failed"] = gate.checks_failed
    values["report.worst_residual_ratio"] = gate.worst_residual_ratio
    values["trace.overhead_s"] = statistics.median(result["traced_pass_s"]) - untraced_s
    return values


def load_baseline(workload: str) -> dict:
    with open(BASELINE, "r", encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    baseline = load_baseline(workload)
    inputs = os.path.join(WORK_DIR, f"{workload}-{seed}")
    shutil.rmtree(inputs, ignore_errors=True)
    try:
        gen_start = time.perf_counter()
        cases = [{"id": c.case_id, "argv": list(c.argv)} for c in workloads.generate(workload, seed, inputs)]
        generate_s = time.perf_counter() - gen_start

        spawn_worker(["--probe"], inputs, deadline)  # warm-up: file cache and bytecode
        setup_samples = [spawn_worker(["--probe"], inputs, deadline)[0] for _ in range(SETUP_PROBES)]
        plan = {
            "cases": cases,
            "seconds": seconds,
            "trace": trace,
            "result_path": os.path.join(inputs, "result.json"),
            "spans_path": os.path.join(inputs, "spans.json"),
        }
        plan_path = os.path.join(inputs, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        ready_s, rusage = spawn_worker([plan_path], inputs, deadline)
        setup_samples.append(ready_s)
        with open(plan["result_path"], "r", encoding="utf-8") as fh:
            result = json.load(fh)
        spans = None
        if trace:
            with open(plan["spans_path"], "r", encoding="utf-8") as fh:
                spans = json.load(fh)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)

    gate = gate_mod.check_outputs(cases, result["outputs"], baseline)
    passes = len(result["pass_s"])
    failed_runs = len(gate.broken_cases) * (result["runs"] // len(cases)) + result["mismatched_runs"]
    wall_s = statistics.median(result["pass_s"])
    if trace:
        values = _layer_metrics(spans, result, gate, wall_s)
        units = per_layer_units()
    else:
        values = {
            "wall_s": wall_s,
            "peak_rss_mb": rusage.ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_samples),
            "check_pass_ratio": 1.0 - gate.check_fail_ratio,
        }
        units = END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": gate.correct and result["mismatched_runs"] == 0,
        "attempted": result["runs"],
        "failed": min(failed_runs, result["runs"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "checks": {
            "attempted": gate.checks,
            "failed": gate.checks_failed,
            "check_fail_ratio": gate.check_fail_ratio,
            "broken_cases": gate.broken_cases,
            "unexpected_failures": gate.unexpected,
        },
        "samples": {
            "pass_s": result["pass_s"],
            "traced_pass_s": result.get("traced_pass_s"),
            "setup_s": setup_samples,
            "warmup_s": result["warmup_s"],
            "generate_s": generate_s,
        },
        "cases": len(cases),
        "passes": passes,
        "elapsed_s": time.monotonic() - t_start,
    }


# -- output -----------------------------------------------------------------


def print_summary(res: dict) -> None:
    checks = res["checks"]
    print(
        f"workload {res['workload']}  seed {res['seed']}  {res['cases']} cases  "
        f"{res['passes']} timed passes  correct={res['correct']}"
    )
    samples = res["samples"]
    for name, metric in res["metrics"].items():
        note = ""
        if name == "wall_s":
            note = f"  (median of {len(samples['pass_s'])} passes; warm-up {samples['warmup_s']:.3f} s apart)"
        elif name == "setup_s":
            note = f"  (median of {len(samples['setup_s'])} child spawns)"
        print(f"  {name:<58s} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(
        f"  {'check_fail_ratio':<58s} {checks['check_fail_ratio']:>14.6g} ratio"
        f"  ({checks['failed']} of {checks['attempted']} checks failed)"
    )
    for line in checks["broken_cases"] + checks["unexpected_failures"]:
        print(f"  ! {line}")


def compare(res: dict, previous_path: str) -> None:
    with open(previous_path, "r", encoding="utf-8") as fh:
        previous = json.load(fh)
    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    print(f"change against {previous_path} (commit {previous['environment']['git_commit']}):")
    for name, metric in res["metrics"].items():
        old = previous["metrics"].get(name, {}).get("value")
        new = metric["value"]
        if old is None:
            continue
        change = (new - old) / old if old else float("nan")
        flag = ""
        if name in bounds:
            worse = -change if bounds[name]["better"] == "higher" else change
            if worse > bounds[name]["bound"]:
                flag = "  WORSE than bound"
        print(f"  {name:<58s} {old:>12.6g} -> {new:>12.6g}  {change:+8.2%}{flag}")


def record_baseline() -> None:
    """Write the check names each case reports, identical for BASELINE_SEEDS."""
    from worker import run_case

    recorded: dict[str, dict[str, list[str]]] = {}
    for workload in workloads.WORKLOADS:
        per_seed = []
        for seed in BASELINE_SEEDS:
            inputs = os.path.join(WORK_DIR, f"baseline-{workload}-{seed}")
            shutil.rmtree(inputs, ignore_errors=True)
            names = {}
            cwd = os.getcwd()
            try:
                cases = workloads.generate(workload, seed, inputs)
                os.chdir(inputs)
                for case in cases:
                    out = run_case(case.argv)
                    names[case.case_id] = [c["name"] for c in json.loads(out["stdout"])["checks"]]
            finally:
                os.chdir(cwd)
                shutil.rmtree(inputs, ignore_errors=True)
            per_seed.append(names)
        if any(names != per_seed[0] for names in per_seed):
            raise BenchmarkError(f"check names of {workload} depend on the seed")
        recorded[workload] = per_seed[0]
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump({"commit": _git_commit(), "seeds": list(BASELINE_SEEDS), "workloads": recorded}, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fqg benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="write samples, metrics and environment here")
    parser.add_argument("--compare", help="print the change against this results file")
    parser.add_argument("--record-baseline", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fqg", "__init__.py")):
        print(f"error: no fqg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        if args.record_baseline:
            record_baseline()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        res = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res["environment"] = environment()
    print_summary(res)
    if args.results:
        with open(args.results, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)
            fh.write("\n")
    if args.compare:
        compare(res, args.compare)
    print(json.dumps({key: res[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
