"""Outside-in tracing of the ``fqg`` package.

The program is not changed: public functions of the traced modules are
replaced by wrappers in every ``fqg`` module namespace that holds the same
function object (``from .tensors import embed_legs`` copies the reference,
so patching ``fqg.tensors`` alone would miss the call sites in other
modules).  Leaving the ``with`` block puts the originals back.

``Tracer`` records one span per call: ``(name, start, end, parent)`` with
``parent`` the index of the enclosing span or -1.  Spans stay in memory;
``aggregate`` turns them into call counts and self times, where a span's
self time is its duration minus the durations of its direct children.

``PeakTracker`` is for a separate pass under ``tracemalloc``: it records,
for a few stage functions, the peak traced memory above the level at entry.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

TRACED_MODULES = (
    "cli", "builders", "suite", "hopf", "haar",
    "multiplicative", "duality", "actions", "tensors",
)

# stage functions whose peak memory is tracked in the tracemalloc pass
PEAK_STAGES = (
    "multiplicative.verify_pentagon",
    "multiplicative.verify_coproduct_implemented",
    "multiplicative.verify_dual_coproduct_identities",
    "actions.build_intertwiner_data",
    "actions.verify_slice_commutativity",
)


def public_functions(module_names=TRACED_MODULES) -> list[str]:
    """``<module>.<function>`` for every public function defined in each module."""
    names = []
    for short in module_names:
        module = sys.modules[f"fqg.{short}"]
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                names.append(f"{short}.{attr}")
    return names


class _Patcher:
    """Rebinds functions in every loaded ``fqg`` namespace and restores them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, qualname: str, make_wrapper) -> None:
        short, attr = qualname.split(".", 1)
        original = getattr(sys.modules[f"fqg.{short}"], attr)
        wrapper = make_wrapper(original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "fqg" or mod_name.startswith("fqg.")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def restore(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()


class Tracer:
    """Span recorder for the functions named in ``qualnames``."""

    def __init__(self, qualnames, clock=time.perf_counter):
        self.qualnames = tuple(qualnames)
        self.clock = clock
        self.spans: list[list] = []
        self.result_bytes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patcher = _Patcher()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        count_bytes = name == "tensors.embed_legs"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count_bytes:
                # 16 N^2 bytes: one dense complex N x N matrix per result
                self.result_bytes[name] += result.entries.nbytes
            return result

        return wrapper

    def __enter__(self):
        for name in self.qualnames:
            self._patcher.patch(name, lambda fn, name=name: self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls`` and ``self_s`` (duration minus direct children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for i, (name, start, end, _parent) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
    return dict(stats)


class PeakTracker:
    """Peak ``tracemalloc`` memory above the entry level, per stage function.

    Nested stages are handled by folding every observed peak into all open
    frames before ``tracemalloc.reset_peak`` starts a new one.
    """

    def __init__(self, qualnames=PEAK_STAGES):
        self.qualnames = tuple(qualnames)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self._frames: list[list[int]] = []  # [base, max] per open stage
        self._patcher = _Patcher()

    def _observe(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._frames:
            frame[1] = max(frame[1], peak)
        return current

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current = self._observe()
            tracemalloc.reset_peak()
            frame = [current, current]
            self._frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._observe()
                self._frames.pop()
                self.peak_bytes[name] = max(self.peak_bytes[name], frame[1] - frame[0])

        return wrapper

    def __enter__(self):
        tracemalloc.start()
        for name in self.qualnames:
            self._patcher.patch(name, lambda fn, name=name: self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        tracemalloc.stop()
        return False
