"""Command-line interface: exit codes, report formats, determinism."""

import json

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


def test_verify_only_matching_nothing_exits_two(capsys):
    # a mistyped glob must not report "ALL CHECKS PASSED (0 checks)"
    code, out, err = run(capsys, ["verify", "kz3", "--only", "nope/*", "--only", "pentagn/*"])
    assert code == 2
    assert out == ""
    assert "--only matched no check" in err and "nope/*" in err and "pentagn/*" in err


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


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_exits_two(capsys, tol):
    code, _, err = run(capsys, ["verify", "kz2", "--tol", tol])
    assert code == 2
    assert "tolerance" in err


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
