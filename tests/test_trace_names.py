"""The benchmark's tracer patches fqg functions by name; every name must resolve.

``perfbench/tracer.py`` looks each ``<module>.<function>`` up with ``getattr``
and rebinds it, so a refactor that renames, removes or privatises one of
them would break ``perfbench/run.py --trace 1``.
"""

import importlib
import inspect
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
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
