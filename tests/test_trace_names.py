"""The benchmark's metric names must name fqg functions that still exist.

A benchmark run wraps every public module-level function of ``fqg``
(``tracer.public_functions()``); only ``PeakTracker`` looks names up, the
fixed ``tracer.PEAK_STAGES``, with ``getattr``.  ``perfbench/run.py`` then
reads per-layer metrics under the fixed names of ``TRACE_FUNCTIONS`` and
``SELF_ONLY_FUNCTIONS``, and a name that no longer resolves reads 0 there.
So every listed name must resolve but those of functions deleted from the
package, which are pinned until their metrics are dropped.  Conversely, a
public function that nothing in ``src/fqg`` calls and the benchmark does not
trace is dead code: its callers are tests or demos, which keep their own copy.
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

LISTED = run.TRACE_FUNCTIONS + run.SELF_ONLY_FUNCTIONS + tracer.PEAK_STAGES
# deleted from fqg, as no run reached them; perfbench/run.py still reads their metrics (0)
DELETED = {
    "tensors.embed_legs", "tensors.expand_in_leg",
    "multiplicative.dual_coproduct_checked", "builders.load_algebra",
}


def _public_function(qualname):
    short, attr = qualname.split(".")
    module = importlib.import_module(f"fqg.{short}")
    value = getattr(module, attr, None)
    return inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_")


@pytest.mark.parametrize("qualname", [n for n in LISTED if n not in DELETED])
def test_traced_name_is_a_public_module_level_function(qualname):
    assert _public_function(qualname), qualname


def test_the_listed_names_that_no_longer_resolve_are_the_deleted_functions():
    assert {n for n in LISTED if not _public_function(n)} == DELETED


def test_the_tracer_sees_every_stage_the_suites_call():
    # the suites look their stage functions up when a row runs, so the
    # patcher's rebinding of module attributes reaches every call
    import fqg.cli  # noqa: F401  (public_functions reads the loaded fqg modules)
    from fqg import action_suite, full_suite, group_preset, preset, resolve_automorphisms

    a, k = preset("kz3"), group_preset("z2")
    theta = resolve_automorphisms(a, k, "inversion")
    traced = [  # builders: the CLI's
        n for n in run.TRACE_FUNCTIONS + run.SELF_ONLY_FUNCTIONS
        if not n.startswith("builders.") and _public_function(n)
    ]
    # the benchmark worker's own tracer: every public function of the package
    with tracer.Tracer(tracer.public_functions()) as spans, tracer.PeakTracker() as peaks:
        assert full_suite(a).overall_pass
        assert action_suite(a, k, theta, mode="full").overall_pass
    # the tracer reads ``.entries`` of each embed_legs result, which a plain array lacks
    assert "tensors.embed_legs" not in spans.qualnames
    calls = {n: tracer.aggregate(spans.spans).get(n, {}).get("calls", 0) for n in traced}
    assert [n for n in traced if calls[n] < 1] == []
    assert sorted(peaks.peak_bytes) == sorted(tracer.PEAK_STAGES)


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
    traced = set(LISTED)
    unused = [f"{m}.{name}" for m, name in defined if name not in used and f"{m}.{name}" not in traced]
    assert unused == []
