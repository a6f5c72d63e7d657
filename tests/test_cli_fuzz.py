"""Malformed input never escapes as a traceback: whatever small JSON value one
field of a valid action spec or algebra file holds, ``fqg action`` and
``fqg verify`` end with exit code 0, 1 or 2."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fqg.builders import algebra_to_json, preset  # noqa: E402
from fqg.cli import main  # noqa: E402

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)
FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)
SPEC = {"format_version": 1, "algebra": "kz2", "group": "z2", "automorphisms": "inversion"}
ALGEBRA = json.loads(algebra_to_json(preset("kz2")))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exit_code(directory, command, data):
    path = directory / "input.json"
    path.write_text(json.dumps(data))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([command, str(path)])


@FUZZ
@given(field=st.sampled_from(sorted(SPEC)), value=JSON_VALUES)
def test_action_spec_with_one_fuzzed_field_exits_cleanly(fuzz_dir, field, value):
    assert _exit_code(fuzz_dir, "action", {**SPEC, field: value}) in (0, 1, 2)


@FUZZ
@given(field=st.sampled_from(sorted(ALGEBRA)), value=JSON_VALUES)
def test_algebra_file_with_one_fuzzed_field_exits_cleanly(fuzz_dir, field, value):
    assert _exit_code(fuzz_dir, "verify", {**ALGEBRA, field: value}) in (0, 1, 2)
