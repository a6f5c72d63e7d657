"""Command-line interface: exit codes, report formats, determinism."""

import argparse
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fqg import cli
from fqg.builders import algebra_to_json, preset
from fqg.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_trivial_exits_zero(capsys):
    code, out, _ = run(capsys, ["verify", "trivial"])
    assert code == 0
    assert "ALL CHECKS PASSED" in out


def test_verify_preset_json_report(capsys):
    code, out, _ = run(capsys, ["verify", "kz3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["overall_pass"] is True
    assert payload["provenance"]["input"] == "kz3"
    assert all(c["residual"] <= 1e-10 for c in payload["checks"])


def test_verify_is_deterministic(capsys):
    _, first, _ = run(capsys, ["verify", "ks3", "--format", "json"])
    _, second, _ = run(capsys, ["verify", "ks3", "--format", "json"])
    assert first == second


def test_verify_agrees_across_blas_thread_counts(tmp_path):
    # byte identity holds for one numpy/BLAS build and one BLAS thread count;
    # across thread counts summation order moves residuals in their last digits
    from conftest import change_basis
    from fqg import cyclic_group, group_algebra

    path = tmp_path / "z16b.json"
    path.write_text(algebra_to_json(change_basis(group_algebra(cyclic_group(16)), 1)))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "fqg.cli", "verify", str(path), "--format", "json"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        reports.append(json.loads(done.stdout)["checks"])
    one, two = reports
    assert [(c["name"], c["passed"], c["tolerance"]) for c in one] == [
        (c["name"], c["passed"], c["tolerance"]) for c in two]
    for a, b in zip(one, two):
        assert abs(a["residual"] - b["residual"]) <= 1e-6 * a["tolerance"], a["name"]


def test_verify_corrupted_file_exits_one_and_names_check(tmp_path, capsys):
    data = json.loads(algebra_to_json(preset("kz2")))
    for entry in data["mult"]:
        if entry[:3] == [1, 1, 0]:
            entry[3] = 0.9
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 1
    assert "FAIL" in out
    assert "associativity" in out or "antipode_law" in out


def test_verify_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{ not json")
    code, _, err = run(capsys, ["verify", str(path)])
    assert code == 2
    assert "error" in err


def test_verify_unknown_preset_exits_two(capsys):
    code, _, err = run(capsys, ["verify", "kz99"])
    assert code == 2
    assert "unknown preset" in err


def test_verify_only_filter(capsys):
    code, out, _ = run(capsys, ["verify", "kz2", "--only", "pentagon/*", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [c["name"] for c in payload["checks"]] == ["pentagon/pentagon"]


def test_only_does_not_carry_over_between_calls(capsys):
    # the parser is built once per process; an appended --only list must not
    # survive into the next call
    plain, only = ["verify", "kz2", "--format", "json"], ["--only", "axioms/*"]
    alone = run(capsys, plain)
    filtered = run(capsys, plain + only)
    assert run(capsys, plain) == alone
    assert run(capsys, plain + only) == filtered
    names = [c["name"] for c in json.loads(filtered[1])["checks"]]
    assert names and all(name.startswith("axioms/") for name in names)
    assert len(json.loads(alone[1])["checks"]) > len(names)
    assert cli.build_parser() is cli.build_parser()


def test_verify_only_matching_nothing_exits_two(capsys):
    # a mistyped glob must not report "ALL CHECKS PASSED (0 checks)"
    code, out, err = run(capsys, ["verify", "kz3", "--only", "nope/*", "--only", "pentagn/*"])
    assert code == 2
    assert out == ""
    assert "--only matched no check" in err and "nope/*" in err and "pentagn/*" in err


def test_only_past_an_abort_exits_one_with_the_abort(tmp_path, capsys):
    # the input is well formed but its Gram matrix is not positive: as in the
    # full run, the report names the abort and exits 1; a glob that selects no
    # stage exits 2
    import dataclasses

    from fqg import save_algebra

    a = preset("kz3")
    path = str(tmp_path / "kz3-negated-star.json")
    save_algebra(dataclasses.replace(a, star=-a.star), path)
    code, out, _ = run(capsys, ["verify", path, "--only", "pentagon/*", "--format", "json"])
    assert code == 1
    assert [c["name"] for c in json.loads(out)["checks"]] == ["gns/gram_positive"]
    code, out, err = run(capsys, ["verify", path, "--only", "nope/*"])
    assert code == 2 and out == "" and "--only matched no check" in err


def test_only_on_failing_action_axioms_exits_one_with_them(capsys):
    argv = ["action", "ks3", "--group", "z2", "--automorphisms", "inversion", "--format", "json"]
    code, out, _ = run(capsys, argv)
    full = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    code, out, _ = run(capsys, argv + ["--only", "commutation/*"])
    assert code == 1
    assert [c["name"] for c in json.loads(out)["checks"]] == full


def test_verify_bad_tolerance_exits_two(capsys):
    code, _, err = run(capsys, ["verify", "kz2", "--tol", "-1"])
    assert code == 2
    assert "tolerance" in err


def test_preset_export_then_verify_reproduces_report(tmp_path, capsys):
    path = tmp_path / "ks3.json"
    code, _, _ = run(capsys, ["preset", "ks3", "-o", str(path)])
    assert code == 0
    _, from_preset, _ = run(capsys, ["verify", "ks3", "--format", "json"])
    code, from_file, _ = run(capsys, ["verify", str(path), "--format", "json"])
    assert code == 0
    a = json.loads(from_preset)
    b = json.loads(from_file)
    assert a["checks"] == b["checks"]
    assert a["provenance"]["sha256"] == b["provenance"]["sha256"]


def test_preset_unknown_or_unwritable_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, ["preset", "nope", "-o", str(tmp_path / "x.json")])
    assert code == 2
    code, _, err = run(capsys, ["preset", "kz2", "-o", "/nonexistent-dir/x.json"])
    assert code == 2


def test_dual_export_round_trip(tmp_path, capsys):
    path = tmp_path / "dual.json"
    code, _, _ = run(capsys, ["dual", "fs3", "-o", str(path)])
    assert code == 0
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0


def test_dual_preset_export_is_loadable_and_passes(tmp_path, capsys):
    path = tmp_path / "dual_fs3.json"
    code, _, _ = run(capsys, ["preset", "dual:fs3", "-o", str(path)])
    assert code == 0
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0
    assert "ALL CHECKS PASSED" in out


def test_action_command_with_flags(capsys):
    code, out, _ = run(
        capsys, ["action", "ks3", "--group", "s3", "--automorphisms", "conjugation"]
    )
    assert code == 0
    assert "ALL CHECKS PASSED" in out


def test_action_full_mode_reports_five_leg_residual(capsys):
    code, out, _ = run(
        capsys,
        ["action", "kz3", "--group", "z2", "--automorphisms", "inversion", "--mode", "full"],
    )
    assert code == 0
    assert "five_leg_commutation" in out


def test_action_trivial_inversion_on_z2_passes(capsys):
    code, out, _ = run(
        capsys, ["action", "kz2", "--group", "z2", "--automorphisms", "inversion"]
    )
    assert code == 0
    assert "theta is trivial" in out


def test_action_missing_flags_exits_two(capsys):
    code, _, err = run(capsys, ["action", "kz3"])
    assert code == 2


def test_action_spec_file(tmp_path, capsys):
    spec = {
        "format_version": 1,
        "algebra": "kz3",
        "group": "z2",
        "automorphisms": "inversion",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, ["action", str(path)])
    assert code == 0
    code, _, err = run(
        capsys, ["action", str(path), "--group", "z2", "--automorphisms", "inversion"]
    )
    assert code == 2  # flags conflict with a spec file


def test_action_spec_file_with_explicit_matrices(tmp_path, capsys):
    inv = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float)
    as_pairs = lambda m: [[[float(x), 0.0] for x in row] for row in m]
    spec = {
        "format_version": 1,
        "algebra": "kz3",
        "group": "z2",
        "automorphisms": [as_pairs(np.eye(3)), as_pairs(inv)],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, ["action", str(path)])
    assert code == 0


def test_action_spec_algebra_path_is_relative_to_the_spec(tmp_path, capsys, monkeypatch):
    # dir/spec.json names "kz3b.json", the file beside it, and is run from the
    # parent directory
    from conftest import basis_change_matrix, change_basis

    p = basis_change_matrix(3, 4)
    q = np.linalg.inv(p)
    inv = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    theta = [np.eye(3), q @ inv @ p]
    spec_dir = tmp_path / "dir"
    spec_dir.mkdir()
    (spec_dir / "kz3b.json").write_text(algebra_to_json(change_basis(preset("kz3"), 4)))
    spec = {
        "format_version": 1,
        "algebra": "kz3b.json",
        "group": "z2",
        "automorphisms": [[[[z.real, z.imag] for z in row] for row in t] for t in theta],
    }
    (spec_dir / "spec.json").write_text(json.dumps(spec))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["action", "dir/spec.json"])
    assert code == 0, err
    spec["algebra"] = 3
    (spec_dir / "spec.json").write_text(json.dumps(spec))
    code, _, err = run(capsys, ["action", "dir/spec.json"])
    assert code == 2 and "'algebra'" in err


def test_action_inline_group_file(tmp_path, capsys):
    group_path = tmp_path / "z2.json"
    group_path.write_text(json.dumps({"table": [[0, 1], [1, 0]], "labels": ["e", "g"]}))
    code, out, _ = run(
        capsys,
        ["action", "kz4", "--group", str(group_path), "--automorphisms", "inversion"],
    )
    assert code == 0


def test_action_ragged_inline_group_exits_two(tmp_path, capsys):
    group_path = tmp_path / "ragged.json"
    group_path.write_text(json.dumps({"table": [[0, 1], [1]]}))
    code, _, err = run(
        capsys,
        ["action", "kz2", "--group", str(group_path), "--automorphisms", "inversion"],
    )
    assert code == 2
    assert "square" in err


def test_custom_algebra_file_runs_the_full_suite(tmp_path, capsys):
    # the Klein four-group is not a preset; build it inline, export, verify
    from fqg import cayley_from_table, group_algebra, save_algebra

    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    algebra = group_algebra(cayley_from_table(table, name="klein"))
    path = tmp_path / "klein.json"
    save_algebra(algebra, path)
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0
    assert "ALL CHECKS PASSED" in out


def test_action_failing_action_exits_one(tmp_path, capsys):
    bad = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)  # shift, not an automorphism
    as_pairs = lambda m: [[[float(x), 0.0] for x in row] for row in m]
    spec = {
        "format_version": 1,
        "algebra": "kz3",
        "group": "z2",
        "automorphisms": [as_pairs(np.eye(3)), as_pairs(bad)],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, ["action", str(path)])
    assert code == 1
    assert "FAIL" in out


def test_non_finite_structure_constant_exits_two(tmp_path, capsys):
    data = json.loads(algebra_to_json(preset("kz2")))
    data["mult"][0][3] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, ["verify", str(path)])
    assert code == 2
    assert "non-finite" in err


def test_non_finite_action_spec_entry_exits_two(tmp_path, capsys):
    eye = [[[1.0 if r == c else 0.0, 0.0] for c in range(3)] for r in range(3)]
    bad = [[list(pair) for pair in row] for row in eye]
    bad[1][1][1] = float("inf")
    spec = {"format_version": 1, "algebra": "kz3", "group": "z2", "automorphisms": [eye, bad]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, ["action", str(path)])
    assert code == 2
    assert "non-finite" in err


def _true_indices(data):
    # [true, true, 0] in place of [1, 1, 0]: numpy would read the bools as a mask
    data["mult"][3][:2] = [True, True]


def _true_dim(data):
    data["dim"], data["basis"] = True, ["u_0"]


def _true_version(data):
    data["format_version"] = True


def _true_value(data):
    data["unit"][0][1:] = [True, False]


@pytest.mark.parametrize(
    "edit, field",
    [(_true_indices, "'mult'"), (_true_dim, "'dim'"), (_true_version, "'format_version'"),
     (_true_value, "'unit'")],
    ids=["index", "dim", "format-version", "value"],
)
def test_json_booleans_in_an_algebra_file_exit_two(tmp_path, capsys, edit, field):
    data = json.loads(algebra_to_json(preset("kz2")))
    edit(data)
    path = tmp_path / "kz2.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err


@pytest.mark.parametrize("part", ["group", "automorphisms"])
def test_json_booleans_in_an_action_spec_exit_two(tmp_path, capsys, part):
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    spec = {"format_version": 1, "algebra": "kz2", "group": "z2", "automorphisms": [eye, eye]}
    if part == "group":
        spec["group"] = {"table": [[0, True], [True, 0]]}
    else:
        spec["automorphisms"] = [eye, [[[True, False], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, ["action", str(path)])
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert ("'table'" if part == "group" else "automorphism 1 entry (0, 0)") in err


def test_overflow_on_finite_input_exits_two(tmp_path, capsys):
    data = json.loads(algebra_to_json(preset("kz2")))
    data["mult"][3][3] = 1e200
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2 and out == "" and caught == []
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflow" in err


def test_algebra_too_large_to_allocate_exits_two(tmp_path, capsys):
    # a (10^5)^3 complex tensor is 14.2 PiB: numpy refuses it before allocating
    data = json.loads(algebra_to_json(preset("kz2")))
    data["dim"] = 100_000
    data["basis"] = [f"u_{i}" for i in range(100_000)]
    path = tmp_path / "vast.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: input too large to allocate") and err.count("\n") == 1


def test_algebra_too_large_to_index_exits_two(tmp_path, capsys):
    # numpy refuses a (2^21)^3 complex tensor with a ValueError, not a MemoryError
    data = json.loads(algebra_to_json(preset("kz2")))
    data["dim"], data["basis"] = 2 ** 21, [""] * 2 ** 21
    path = tmp_path / "vaster.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: field 'mult' of shape (2097152, 2097152, 2097152) is too large to index")


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_exits_two(capsys, tol):
    code, _, err = run(capsys, ["verify", "kz2", "--tol", tol])
    assert code == 2
    assert "tolerance" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    ("command", "check"),
    [
        (["verify", "kz3"], "axioms/associativity"),
        (["action", "kz3", "--group", "z2", "--automorphisms", "inversion"],
         "action/theta_automorphisms"),
    ],
    ids=["verify", "action"],
)
def test_tolerance_that_overflows_when_scaled_exits_two(capsys, command, check, fmt):
    # tol * structure_scale() is inf: it would pass any residual, and Infinity is not JSON;
    # the error names the check as a report shows it, with its stage prefix
    code, out, err = run(capsys, [*command, "--tol", "1e308", "--format", fmt])
    assert code == 2 and out == ""
    assert err == f"error: tolerance inf of check {check!r} is not finite\n"


def test_linear_algebra_failure_exits_two(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "full_suite", fail)
    code, _, err = run(capsys, ["verify", "kz2"])
    assert code == 2
    assert "linear algebra failed" in err


@pytest.mark.parametrize("mode", ["full", "sliced"])
def test_trivial_action_in_a_random_basis_counts_one_automorphism(tmp_path, capsys, mode):
    # theta_1 = P^-1 I P equals the identity only up to rounding; it must not
    # count as a second automorphism
    from conftest import basis_change_matrix, change_basis

    p = basis_change_matrix(3, 12)
    theta = [np.eye(3), np.linalg.inv(p) @ np.eye(3) @ p]
    assert not np.array_equal(theta[0], theta[1])
    algebra = tmp_path / "kz3b.json"
    algebra.write_text(algebra_to_json(change_basis(preset("kz3"), 12)))
    spec = {
        "format_version": 1,
        "algebra": str(algebra),
        "group": "z2",
        "automorphisms": [[[[z.real, z.imag] for z in row] for row in t] for t in theta],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, ["action", str(path), "--mode", mode, "--format", "json"])
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 0
    assert checks["action/theta_image_size"]["detail"].startswith("theta is trivial")
    assert checks["commutation/beta_slices_generate"]["detail"].startswith(
        "generated algebra dimension 1, distinct automorphisms 1"
    )


def _bad_file(tmp_path, kind):
    """A file that cannot be read as JSON: a directory, invalid JSON, bytes
    that are not UTF-8, or a missing path (named like a file or in a directory)."""
    path = tmp_path / ("dir/x" if kind == "missing-dir" else f"bad-{kind}.json")
    if kind == "directory":
        path.mkdir()
    elif kind == "invalid":
        path.write_text("{not json")
    elif kind == "binary":
        path.write_bytes(b"\xff\xfe\x00")
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "invalid", "binary", "missing", "missing-dir"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{}"],
        ["action", "{}", "--group", "z2", "--automorphisms", "inversion"],
        ["action", "kz2", "--group", "{}", "--automorphisms", "inversion"],
        ["action", "kz2", "--group", "z2", "--automorphisms", "{}"],
    ],
    ids=["algebra", "action-input", "group", "automorphisms"],
)
def test_unreadable_input_files_exit_two(tmp_path, capsys, argv, kind):
    path = _bad_file(tmp_path, kind)
    code, _, err = run(capsys, [path if a == "{}" else a for a in argv])
    assert code == 2
    assert err.startswith("error: ") and path in err
    assert "cannot read" in err or not kind.startswith("missing")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{}"],
        ["action", "{}"],
        ["action", "kz2", "--group", "{}", "--automorphisms", "inversion"],
    ],
    ids=["algebra", "action-spec", "group"],
)
def test_deeply_nested_json_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, [str(path) if a == "{}" else a for a in argv])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path} nests too deeply") and err.count("\n") == 1


@pytest.mark.parametrize("algebra", ["a\u0000b.json", "kz2/\u0000"], ids=["file", "path"])
def test_nul_in_an_algebra_path_exits_two(tmp_path, capsys, algebra):
    # open() refuses a path holding a NUL character with a ValueError, not an OSError
    spec = {"format_version": 1, "algebra": algebra, "group": "z2", "automorphisms": "inversion"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, ["action", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read ") and err.count("\n") == 1


def test_control_characters_in_a_path_are_escaped_on_stdout(tmp_path, capsys):
    path = str(tmp_path / "k\x1b[1mz.json")
    escaped = path.encode("unicode_escape").decode()
    for argv in (["preset", "kz2", "-o", path], ["dual", path, "-o", path], ["verify", path]):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "\x1b" not in out and escaped in out.splitlines()[0], argv
    # the JSON report keeps the path as given; json.dumps escapes it
    code, out, _ = run(capsys, ["verify", path, "--format", "json"])
    assert code == 0 and json.loads(out)["provenance"]["input"] == path


@pytest.mark.parametrize("contents", [None, "{"], ids=["missing", "invalid"])
@pytest.mark.parametrize("name", ["a\x1b[31mb.json", "a\tb.json"], ids=["escape", "tab"])
def test_control_characters_in_a_path_are_escaped_in_the_error_line(tmp_path, capsys, name, contents):
    path = tmp_path / name
    if contents is not None:
        path.write_text(contents)
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2 and out == ""
    line = err.removesuffix("\n")
    assert line.isprintable() and line.startswith("error: ")
    assert str(path).encode("unicode_escape").decode() in line


def test_integer_beyond_the_parser_digit_limit_exits_two(tmp_path, capsys):
    # json reads it with int(), which raises a ValueError past 4300 digits
    path = tmp_path / "big.json"
    path.write_text("1" * 5000)
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "spec",
    [
        {"automorphisms": "inversion"},  # missing fields
        {"format_version": 1, "algebra": "kz2", "group": "z2", "automorphisms": "inversion", "x": 0},
        {"format_version": 1, "algebra": "missing.json", "group": "z2", "automorphisms": "inversion"},
        {"format_version": 1, "algebra": "kz2", "group": "z2", "automorphisms": [[[[1, 0]]]]},
    ],
    ids=["missing-fields", "unknown-field", "missing-algebra", "wrong-shape"],
)
def test_invalid_action_spec_exits_two(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, ["action", str(path)])
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize(
    "value", [{"a": 1}, None, 3, True, "twist"], ids=["object", "null", "number", "true", "name"]
)
@pytest.mark.parametrize("grammar", ["spec", "flags"])
def test_automorphisms_of_the_wrong_type_exit_two(tmp_path, capsys, grammar, value):
    # neither a preset name nor a list of matrices, in a spec file or in an
    # --automorphisms file
    if grammar == "spec":
        spec = {"format_version": 1, "algebra": "kz3", "group": "z2", "automorphisms": value}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["action", str(path)]
    else:
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(value))
        argv = ["action", "kz3", "--group", "z2", "--automorphisms", str(path)]
    code, _, err = run(capsys, argv)
    assert code == 2 and err.startswith("error: ") and "'automorphisms'" in err


@pytest.mark.parametrize("route", ["spec", "group-file"])
def test_inline_group_labels_must_be_a_list(tmp_path, capsys, route):
    group = {"table": [[0, 1], [1, 0]], "labels": 5}
    if route == "spec":
        spec = {"format_version": 1, "algebra": "kz2", "group": group, "automorphisms": "inversion"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["action", str(path)]
    else:
        path = tmp_path / "group.json"
        path.write_text(json.dumps(group))
        argv = ["action", "kz2", "--group", str(path), "--automorphisms", "inversion"]
    code, _, err = run(capsys, argv)
    assert code == 2 and err.startswith("error: ") and "'labels'" in err


def test_flag_and_spec_grammars_give_the_same_report(tmp_path, capsys):
    # one basis-changed action, once as an algebra file, an inline-group file
    # and an automorphisms file, once as a single spec file
    from conftest import basis_change_matrix, change_basis

    p = basis_change_matrix(3, 4)
    inv = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    theta = [np.eye(3), np.linalg.inv(p) @ inv @ p]
    matrices = [[[[z.real, z.imag] for z in row] for row in t] for t in theta]
    group = {"table": [[0, 1], [1, 0]], "labels": ["e", "s"]}
    (tmp_path / "kz3b.json").write_text(algebra_to_json(change_basis(preset("kz3"), 4)))
    (tmp_path / "group.json").write_text(json.dumps(group))
    (tmp_path / "theta.json").write_text(json.dumps(matrices))
    spec = {"format_version": 1, "algebra": "kz3b.json", "group": group, "automorphisms": matrices}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    flag_code, by_flags, _ = run(capsys, [
        "action", str(tmp_path / "kz3b.json"), "--group", str(tmp_path / "group.json"),
        "--automorphisms", str(tmp_path / "theta.json"), "--format", "json",
    ])
    spec_code, by_spec, _ = run(capsys, ["action", str(tmp_path / "spec.json"), "--format", "json"])
    by_flags, by_spec = json.loads(by_flags), json.loads(by_spec)
    assert flag_code == spec_code == 0
    assert by_flags["provenance"].pop("input") != by_spec["provenance"].pop("input")
    assert by_flags == by_spec


def test_flag_grammar_reads_the_algebra_file_once(tmp_path, capsys, monkeypatch):
    from fqg import builders

    algebra, theta = str(tmp_path / "kz3.json"), str(tmp_path / "theta.json")
    (tmp_path / "kz3.json").write_text(algebra_to_json(preset("kz3")))
    inversion = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    matrices = [[[[float(x), 0.0] for x in row] for row in t] for t in (np.eye(3), inversion)]
    (tmp_path / "theta.json").write_text(json.dumps(matrices))
    reads = []
    read_json = builders.read_json
    monkeypatch.setattr(builders, "read_json", lambda p: reads.append(p) or read_json(p))
    code, _, _ = run(capsys, ["action", algebra, "--group", "z2", "--automorphisms", theta])
    assert code == 0
    assert reads == [algebra, theta]


def test_a_file_named_like_a_preset_does_not_shadow_it(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("kz3", "z2", "inversion"):
        (tmp_path / name).write_text("{not json")
    code, _, _ = run(capsys, ["action", "kz3", "--group", "z2", "--automorphisms", "inversion"])
    assert code == 0
    code, _, _ = run(capsys, ["verify", "kz3", "--only", "haar/*"])
    assert code == 0


def _sha256(algebra, *arrays) -> str:
    args = argparse.Namespace(input="x", tol=1e-9)
    return cli._provenance(args, algebra, *arrays)["sha256"]


def test_the_hash_partitions_inputs_as_the_canonical_text_does(tmp_path):
    # sha256 is equal for two algebras exactly when algebra_to_json is: the
    # hash stopped reading that text, but identifies the same inputs
    from dataclasses import replace

    from conftest import change_basis
    from fqg.builders import algebra_from_json_dict, preset_names, read_json, save_algebra
    from fqg.duality import build_dual

    algebras = [preset(name) for name in preset_names()]
    algebras += [build_dual(a) for a in algebras]
    algebras += [change_basis(a, 5) for a in algebras]
    for i, a in enumerate(list(algebras)):  # each beside the file save_algebra wrote for it
        save_algebra(a, tmp_path / f"{i}.json")
        loaded = algebra_from_json_dict(read_json(tmp_path / f"{i}.json"))
        assert _sha256(loaded) == _sha256(a), a.name
        algebras.append(loaded)
    kz3 = preset("kz3")
    signed_zero, signed_one = np.array(kz3.mult), np.array(kz3.mult)
    assert signed_zero[0, 0, 1] == 0 and signed_one[0, 0, 0] == 1
    signed_zero[0, 0, 1] = complex(-0.0, -0.0)  # a zero entry: omitted from the text
    signed_one[0, 0, 0] = complex(1.0, -0.0)  # a nonzero entry: written as [.., 1.0, -0.0]
    same = replace(kz3, mult=signed_zero)
    assert _sha256(same) == _sha256(kz3) and algebra_to_json(same) == algebra_to_json(kz3)
    variants = {
        "signed one": replace(kz3, mult=signed_one),
        "renamed": replace(kz3, name="kz3 "),
        "relabelled": replace(kz3, basis_labels=("u_0", "u_2", "u_1")),
    }
    for what, a in variants.items():
        assert _sha256(a) != _sha256(kz3), what
    algebras += [same, *variants.values()]
    texts = [algebra_to_json(a) for a in algebras]
    hashes = [_sha256(a) for a in algebras]
    assert len(set(zip(texts, hashes))) == len(set(texts)) == len(set(hashes))


def test_the_action_hash_reads_the_group_table_and_theta():
    from fqg.builders import inversion_theta
    from fqg.groups import cyclic_group

    kz3, z2 = preset("kz3"), cyclic_group(2)
    theta = inversion_theta(kz3, z2)
    identity = np.stack([np.eye(3, dtype=complex)] * 2)
    base = _sha256(kz3, z2.table, theta)
    assert base == _sha256(kz3, z2.table.copy(), theta.copy())
    assert base != _sha256(kz3, z2.table, identity)
    assert base != _sha256(kz3, z2.table[::-1].copy(), theta)
    assert base != _sha256(kz3)


def _indented(report, provenance) -> str:
    payload = {
        "provenance": provenance,
        "checks": [vars(c) for c in report.checks],
        "overall_pass": report.overall_pass,
    }
    return json.dumps(payload, indent=2)


def test_format_json_is_the_indented_encoder_byte_for_byte():
    from dataclasses import replace

    from fqg.builders import inversion_theta, preset_names
    from fqg.duality import build_dual
    from fqg.groups import cyclic_group
    from fqg.report import ReportBuilder
    from fqg.suite import action_suite, full_suite

    provenance = {"input": "kz3", "sha256": "0" * 64, "tolerance": 1e-9, "mode": None,
                  "format_version": 1}
    algebras = [preset(name) for name in preset_names()]
    algebras += [build_dual(a) for a in algebras]
    kz3 = preset("kz3")
    aborted = full_suite(replace(kz3, star=-kz3.star))
    assert any(c.residual is None and c.detail.startswith("aborted: ") for c in aborted.checks)
    reports = [full_suite(a, tol=tol) for a in algebras for tol in (1e-9, 1e-20)]
    reports += [aborted, full_suite(kz3, only=["haar/*", "*w_expansion"])]
    reports.append(ReportBuilder().add("infinite", float("inf"), 1.0, "a, b").build())
    for report in reports:
        assert report.format_json(provenance) == _indented(report, provenance)
    z2 = cyclic_group(2)
    action = action_suite(kz3, z2, inversion_theta(kz3, z2), mode="full")
    for path in ('k"z\\3\x1b[1m.json', "é/☃\ud800.json"):
        full = {**provenance, "input": path, "mode": "full"}
        assert action.format_json(full) == _indented(action, full)


def test_the_run_path_does_not_reencode_the_algebra(tmp_path, capsys, monkeypatch):
    from fqg import builders

    (tmp_path / "kz3.json").write_text(algebra_to_json(preset("kz3")))
    inversion = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    matrices = [[[[float(x), 0.0] for x in row] for row in t] for t in (np.eye(3), inversion)]
    spec = {"format_version": 1, "algebra": "kz3.json", "group": "z2", "automorphisms": matrices}
    (tmp_path / "spec.json").write_text(json.dumps(spec))

    def refuse(_):
        raise AssertionError("algebra_to_json on the run path")

    monkeypatch.setattr(builders, "algebra_to_json", refuse)
    for argv in (["verify", str(tmp_path / "kz3.json")], ["action", str(tmp_path / "spec.json")]):
        code, _, err = run(capsys, [*argv, "--format", "json"])
        assert code == 0, err
