"""The report-parity harness in tools/: ``compare`` on hand-made dumps."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_parity.py"
_SPEC = importlib.util.spec_from_file_location("report_parity", _PATH)
report_parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_parity)

ALLOWED = "slice_isomorphism/intertwines_coproducts"


def _run(checks, code=0):
    report = {"provenance": {"input": "ks3", "sha256": "00"}, "overall_pass": True, "checks": checks}
    return {"exit": code, "stdout": json.dumps(report, indent=2) + "\n", "stderr": ""}


def _check(name, residual, passed=True):
    return {"name": name, "residual": residual, "tolerance": 1e-9, "passed": passed, "detail": ""}


def _compare(tmp_path, a, b, allow=(), one_flag=False):
    """``compare`` of two one-case dumps, with ``--allow`` once per glob, or
    once before all of them if ``one_flag``."""
    paths = []
    for label, runs in (("a", a), ("b", b)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({"case": runs}))
        paths.append(str(path))
    argv = ["compare", *paths]
    if one_flag and allow:
        argv += ["--allow", *allow]
    for name in () if one_flag else allow:
        argv += ["--allow", name]
    return report_parity.main(argv)


BASE = [_check("pentagon/pentagon", 1e-15), _check(ALLOWED, 2e-15)]


def test_identical_dumps_compare_equal(tmp_path, capsys):
    assert _compare(tmp_path, _run(BASE), _run(BASE)) == 0
    assert "1 of 1 outputs byte-identical" in capsys.readouterr().out


def test_residual_change_passes_only_on_an_allowed_check(tmp_path, capsys):
    moved = [BASE[0], _check(ALLOWED, 5e-15)]
    assert _compare(tmp_path, _run(BASE), _run(moved), allow=[ALLOWED]) == 0
    assert f"largest residual change of {ALLOWED}: 3.000e-15" in capsys.readouterr().out
    assert _compare(tmp_path, _run(BASE), _run(moved)) == 1


@pytest.mark.parametrize("one_flag", [False, True])
def test_allow_takes_several_globs_after_one_flag_or_one_per_flag(tmp_path, capsys, one_flag):
    # the usage line reads [--allow CHECK ...]: both forms allow the same checks
    moved = [_check("pentagon/pentagon", 2e-15), _check(ALLOWED, 5e-15)]
    allow = ["pentagon/pentagon", ALLOWED]
    assert _compare(tmp_path, _run(BASE), _run(moved), allow=allow, one_flag=one_flag) == 0
    out = capsys.readouterr().out
    assert "largest residual change of pentagon/pentagon: 1.000e-15" in out
    assert f"largest residual change of {ALLOWED}: 3.000e-15" in out
    assert _compare(tmp_path, _run(BASE), _run(moved), allow=allow[1:], one_flag=one_flag) == 1


def test_allow_takes_globs_and_reports_the_change_against_the_tolerance(tmp_path, capsys):
    moved = [BASE[0], _check(ALLOWED, 5e-15)]
    assert _compare(tmp_path, _run(BASE), _run(moved), allow=["slice_isomorphism/*", "axioms/*"]) == 0
    out = capsys.readouterr().out
    assert f"largest residual change of {ALLOWED}: 3.000e-15 (3.000e-06 of its tolerance)" in out
    assert "largest residual change of axioms/*: 0.000e+00" in out
    assert _compare(tmp_path, _run(BASE), _run(moved), allow=["pentagon/*"]) == 1


@pytest.mark.parametrize(
    "changed",
    [
        _run([BASE[0], _check(ALLOWED, 2e-15, passed=False)]),  # verdict flip
        _run([BASE[1], BASE[0]]),  # check order
        _run(BASE, code=1),  # exit code
        {**_run(BASE), "stderr": "error: boom\n"},
        {**_run(BASE), "stdout": _run(BASE)["stdout"].replace('"00"', '"01"')},  # provenance
    ],
    ids=["verdict", "order", "exit", "stderr", "provenance"],
)
def test_any_other_change_fails_even_on_an_allowed_check(tmp_path, changed):
    assert _compare(tmp_path, _run(BASE), changed, allow=[ALLOWED]) == 1


def test_the_aborting_inputs_abort_at_the_two_guards_or_fail_without_one():
    # the dump's changed copies of kz3 exercise --only across an abort, and
    # the doubled coproduct, whose trace state is well defined, runs every check
    import fqg

    aborted, failed = [], 0
    for change in report_parity.ABORTING.values():
        report = fqg.full_suite(change(fqg.preset("kz3")))
        aborted += [c.name for c in report.checks if c.residual is None]
        failed += not report.overall_pass
    assert aborted == ["gns/gram_positive", "dual_algebra/haar"]
    assert failed == 3


def test_written_cases_hold_the_file_text_and_compare_it(tmp_path, capsys):
    from fqg.builders import algebra_to_json, preset
    from fqg.cli import main

    written = report_parity._written(main, ["preset", "kz2"], str(tmp_path / "kz2.json"))
    assert written["exit"] == 0 and written["stdout"] == algebra_to_json(preset("kz2")) + "\n"
    renamed = {**written, "stdout": written["stdout"].replace('"kz2"', '"kz3"')}
    assert _compare(tmp_path, written, written) == 0
    assert _compare(tmp_path, written, renamed) == 1
    assert "case: written text differs" in capsys.readouterr().out
