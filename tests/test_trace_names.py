"""The benchmark's tracer patches fqg functions by name; every name must resolve.

``perfbench/tracer.py`` looks each ``<module>.<function>`` up with ``getattr``
and rebinds it, so a refactor that renames, removes or privatises one of
them would break ``perfbench/run.py --trace 1``.  Conversely, a public
function that nothing in ``src/fqg`` calls and the benchmark does not trace
is dead code: its callers are tests or demos, which keep their own copy.
"""

import ast
import importlib
import inspect
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src", "fqg")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize(
    "qualname", run.TRACE_FUNCTIONS + run.SELF_ONLY_FUNCTIONS + tracer.PEAK_STAGES
)
def test_traced_name_is_a_public_module_level_function(qualname):
    short, attr = qualname.split(".")
    module = importlib.import_module(f"fqg.{short}")
    value = getattr(module, attr, None)
    assert inspect.isfunction(value), qualname
    assert value.__module__ == module.__name__ and not attr.startswith("_"), qualname


def test_the_tracer_sees_every_stage_the_suites_call():
    # the suites look their stage functions up when a row runs, so the
    # patcher's rebinding of module attributes reaches every call
    from fqg import action_suite, full_suite, group_preset, preset, resolve_automorphisms

    a, k = preset("kz3"), group_preset("z2")
    theta = resolve_automorphisms(a, k, "inversion")
    # no stage fits a leg expansion: those of W and V are read off the structure constants
    never_called = {
        "tensors.embed_legs", "multiplicative.dual_coproduct_checked", "tensors.expand_in_leg"
    }
    traced = [n for n in run.TRACE_FUNCTIONS + run.SELF_ONLY_FUNCTIONS if not n.startswith("builders.")]
    with tracer.Tracer(traced) as spans, tracer.PeakTracker() as peaks:  # builders: the CLI's
        assert full_suite(a).overall_pass
        assert action_suite(a, k, theta, mode="full").overall_pass
    calls = {n: tracer.aggregate(spans.spans).get(n, {}).get("calls", 0) for n in traced}
    assert [n for n in traced if n not in never_called and calls[n] < 1] == []
    assert sorted(peaks.peak_bytes) == sorted(tracer.PEAK_STAGES)
    # the tracer reads ``.entries`` of each embed_legs result, which a plain array lacks
    assert calls["tensors.embed_legs"] == 0


def test_full_suite_builds_the_dual_once_and_the_double_dual_once():
    from fqg import full_suite, preset

    with tracer.Tracer(["duality.build_dual"]) as spans:
        assert full_suite(preset("kz3")).overall_pass
    assert tracer.aggregate(spans.spans)["duality.build_dual"]["calls"] == 2


def test_every_public_function_is_called_in_src_or_traced():
    # a name or attribute anywhere in src/fqg counts as a use; an import in
    # __init__.py, a docstring or the function's own definition does not
    defined, used = [], set()
    for file_name in sorted(os.listdir(SRC)):
        if not file_name.endswith(".py"):
            continue
        with open(os.path.join(SRC, file_name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        module = file_name[:-3]
        defined += [
            (module, node.name) for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    traced = set(run.TRACE_FUNCTIONS + run.SELF_ONLY_FUNCTIONS + tracer.PEAK_STAGES)
    unused = [f"{m}.{name}" for m, name in defined if name not in used and f"{m}.{name}" not in traced]
    assert unused == []
