"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import sys
import types

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fqg  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir(request):
    path = os.path.join(run.WORK_DIR, "test-" + request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    if os.path.isdir(run.WORK_DIR) and not os.listdir(run.WORK_DIR):
        os.rmdir(run.WORK_DIR)


def _files(path):
    contents = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            contents[name] = fh.read()
    return contents


def _as_plan_cases(cases):
    return [{"id": c.case_id, "argv": list(c.argv)} for c in cases]


def test_generator_is_deterministic_for_a_seed(workdir):
    for name in ("action_auto", "verify_cyclic"):
        a, b, c = (os.path.join(workdir, f"{name}-{tag}") for tag in "abc")
        assert workloads.generate(name, 7, a) == workloads.generate(name, 7, b)
        workloads.generate(name, 8, c)
        assert _files(a) == _files(b)
        assert _files(a) != _files(c)


def test_basis_change_is_well_conditioned_and_covariant():
    p = workloads.random_basis_change(3, "basis/ks3", 6)
    assert np.linalg.cond(p) < workloads.MAX_CONDITION
    a = fqg.preset("ks3")
    b = workloads.change_basis(a, p)
    assert workloads.check_haar_covariance(a, b, p) <= workloads.HAAR_COVARIANCE_TOL
    assert fqg.verify_hopf_star_axioms(b).overall_pass


def _synthetic_modules(monkeypatch):
    """fqg._synth defines outer -> inner; fqg._synth_user holds a copied reference."""
    mod = types.ModuleType("fqg._synth")
    exec(
        "def inner():\n    return 1\n"
        "def outer():\n    return inner() + inner()\n",
        mod.__dict__,
    )
    mod.outer.__module__ = mod.inner.__module__ = "fqg._synth"
    user = types.ModuleType("fqg._synth_user")
    user.outer = mod.outer
    monkeypatch.setitem(sys.modules, "fqg._synth", mod)
    monkeypatch.setitem(sys.modules, "fqg._synth_user", user)
    return mod, user


def test_self_time_on_synthetic_nested_call(monkeypatch):
    mod, user = _synthetic_modules(monkeypatch)
    original_outer, original_inner = mod.outer, mod.inner
    ticks = iter([0.0, 1.0, 3.0, 4.0, 8.0, 10.0])
    with tracer.Tracer(["_synth.outer", "_synth.inner"], clock=lambda: next(ticks)) as t:
        assert user.outer() == 2  # the copied reference is traced too
    assert mod.outer is original_outer and mod.inner is original_inner
    assert user.outer is original_outer
    assert [s[0] for s in t.spans] == ["_synth.outer", "_synth.inner", "_synth.inner"]
    assert [s[3] for s in t.spans] == [-1, 0, 0]
    stats = tracer.aggregate(t.spans)
    assert stats["_synth.outer"] == {"calls": 1, "self_s": 10.0 - 2.0 - 4.0}
    assert stats["_synth.inner"] == {"calls": 2, "self_s": 6.0}


def test_self_time_counts_only_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 9.0, 0],
        ["c", 2.0, 5.0, 1],
        ["c", 11.0, 12.0, -1],
    ]
    stats = tracer.aggregate(spans)
    assert stats["a"]["self_s"] == 2.0
    assert stats["b"]["self_s"] == 5.0
    assert stats["c"] == {"calls": 2, "self_s": 4.0}


def test_traced_pass_prints_identical_reports(workdir, monkeypatch):
    cases = workloads.generate("action_auto", 4, workdir)[:3]
    fname = workloads._algebra_case(4, workdir, "basis/ks3", fqg.preset("ks3"), True)
    plan_cases = _as_plan_cases(cases) + [{"id": "basis/ks3", "argv": ["verify", fname, "--format", "json"]}]
    monkeypatch.chdir(workdir)
    _, plain = worker.run_pass(plan_cases)
    with tracer.Tracer(tracer.public_functions()) as t:
        _, traced = worker.run_pass(plan_cases)
    with tracer.PeakTracker() as peaks:
        _, tracked = worker.run_pass(plan_cases)
    assert [o["stdout"] for o in traced] == [o["stdout"] for o in plain]
    assert traced == plain == tracked
    assert all(o["code"] in (0, 1) and o["stdout"] for o in plain)
    stats = tracer.aggregate(t.spans)
    assert stats["cli.main"]["calls"] == len(plan_cases)
    assert peaks.peak_bytes["actions.verify_slice_commutativity"] > 0


def test_perturbed_structure_constant_raises_check_fail_ratio(workdir, monkeypatch):
    fname = workloads._algebra_case(5, workdir, "plain/kz3", fqg.preset("kz3"), False)
    with open(os.path.join(workdir, fname), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data["mult"][0][3] += 1e-3
    with open(os.path.join(workdir, "broken.json"), "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    monkeypatch.chdir(workdir)
    good = worker.run_case(["verify", fname, "--format", "json"])
    bad = worker.run_case(["verify", "broken.json", "--format", "json"])
    names = [c["name"] for c in json.loads(good["stdout"])["checks"]]
    cases = [{"id": "kz3"}]
    good_gate = gate.check_outputs(cases, [good], {"kz3": names})
    bad_gate = gate.check_outputs(cases, [bad], {"kz3": names})
    assert good_gate.check_fail_ratio == 0.0 and good_gate.correct
    assert bad_gate.check_fail_ratio > 0.0
    assert not bad_gate.correct


def test_gate_counts_broken_cases_and_missing_names():
    baseline = {"x": ["a", "b", "c"], "y": ["a", "b"]}
    report = {"checks": [{"name": "a", "residual": 0.0, "tolerance": 1e-9, "passed": True}],
              "overall_pass": True}
    outputs = [
        {"code": 2, "stdout": "", "stderr": "error: bad", "error": None},
        {"code": 0, "stdout": json.dumps(report), "stderr": "", "error": None},
    ]
    g = gate.check_outputs([{"id": "x"}, {"id": "y"}], outputs, baseline)
    assert g.checks == 3 + 2 and g.checks_failed == 3 + 1
    assert len(g.broken_cases) == 2 and not g.correct


def test_gate_rejects_exit_code_disagreeing_with_verdict():
    report = {"checks": [{"name": "a", "residual": 1.0, "tolerance": 1e-9, "passed": False}],
              "overall_pass": False}
    output = {"code": 0, "stdout": json.dumps(report), "stderr": "", "error": None}
    g = gate.check_outputs([{"id": "x"}], [output], {"x": ["a"]})
    assert g.broken_cases and g.check_fail_ratio == 1.0


def test_benchmark_json_names_the_measured_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    with open(run.BASELINE, "r", encoding="utf-8") as fh:
        assert set(json.load(fh)["workloads"]) == set(workloads.WORKLOADS)
