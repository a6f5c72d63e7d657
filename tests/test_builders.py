"""Presets, serialization round trips, schema validation."""

import json

import numpy as np
import pytest

from fqg import (
    StructuralError,
    build_dual,
    cayley_from_table,
    group_preset,
    preset,
    preset_names,
    save_algebra,
    verify_hopf_star_axioms,
)
from fqg.builders import (
    _sparse_entries,
    algebra_from_json_dict,
    algebra_to_json,
    algebra_to_json_dict,
    function_algebra,
    group_algebra,
    read_json,
    resolve_algebra,
    resolve_group,
)
from fqg.actions import commutation_mode
from fqg.groups import cyclic_group, symmetric_group_3
from fqg.report import ReportBuilder

from conftest import orthonormal_unitary

ALL_PRESETS = [
    "trivial",
    "kz2", "kz3", "kz4", "kz5", "kz6",
    "fz2", "fz3", "fz4", "fz5", "fz6",
    "ks3", "fs3",
    "dual:fs3",
]


def tensors_equal(a, b):
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("mult", "comult", "unit", "counit", "antipode", "star")
    )


def test_preset_names_cover_the_catalog():
    names = preset_names()
    for name in ALL_PRESETS:
        if not name.startswith("dual:"):
            assert name in names


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_every_preset_passes_axioms(name):
    report = verify_hopf_star_axioms(preset(name), 1e-9)
    assert report.overall_pass
    assert report.max_residual() <= 1e-12


def test_group_algebra_is_cocommutative_function_algebra_commutative():
    assert preset("ks3").cocommutativity_defect() == 0.0
    assert preset("ks3").commutativity_defect() > 0.5  # s3 is noncommutative
    assert preset("fs3").commutativity_defect() == 0.0
    assert preset("fs3").cocommutativity_defect() > 0.5


def test_group_and_function_algebra_have_different_unitaries():
    mats = {}
    for name in ("kz2", "fz2"):
        mats[name] = orthonormal_unitary(preset(name)).w
    assert np.max(np.abs(mats["kz2"] - mats["fz2"])) > 0.5


def test_dual_preset_is_cocommutative():
    dual = preset("dual:fs3")
    assert dual.cocommutativity_defect() == 0.0
    assert dual.name == "dual:fs3"


def test_function_algebra_of_order_one_group_is_trivial():
    from fqg import cyclic_group, function_algebra, group_algebra

    assert tensors_equal(function_algebra(cyclic_group(1)), group_algebra(cyclic_group(1)))
    assert tensors_equal(function_algebra(cyclic_group(1)), preset("trivial"))


def test_dual_concrete_is_involutive():
    for name in ("kz4", "fs3"):
        a = preset(name)
        assert tensors_equal(build_dual(build_dual(a)), a)


def test_unknown_preset():
    with pytest.raises(StructuralError, match="unknown preset 'kz9'"):
        preset("kz9")
    with pytest.raises(StructuralError, match="unknown preset 'nope'"):
        preset("dual:nope")
    with pytest.raises(StructuralError, match="unknown preset 'not-a-preset'"):
        resolve_algebra("not-a-preset")


@pytest.mark.parametrize("changed", [False, True], ids=["given", "basis-changed"])
@pytest.mark.parametrize("name", [*preset_names(), *(f"dual:{p}" for p in preset_names())])
def test_save_load_round_trip_is_exact(name, changed, tmp_path, basis_changed):
    path = tmp_path / "a.json"
    a = basis_changed(preset(name), 5) if changed else preset(name)
    save_algebra(a, path)
    b = algebra_from_json_dict(read_json(path))
    assert tensors_equal(a, b)
    assert b.basis_labels == a.basis_labels
    assert b.name == a.name
    # serialization itself is deterministic
    assert algebra_to_json(a) == algebra_to_json(b)


def _group_tensors_by_loop(cayley):
    """Structure constants of the group algebra and the function algebra of
    ``cayley``, entry by entry from the Cayley table."""
    m = cayley.order
    conv, diag = np.zeros((m, m, m), dtype=complex), np.zeros((m, m, m), dtype=complex)
    inv_perm, point = np.zeros((m, m), dtype=complex), np.zeros(m, dtype=complex)
    for i in range(m):
        diag[i, i, i] = 1.0
        inv_perm[i, cayley.inverses()[i]] = 1.0
        for j in range(m):
            conv[i, j, cayley.table[i, j]] = 1.0
    point[cayley.identity_index] = 1.0
    ones = np.ones(m, dtype=complex)
    group = dict(mult=conv, comult=diag, unit=point, counit=ones, antipode=inv_perm, star=inv_perm)
    function = dict(
        mult=diag, comult=conv.transpose(2, 0, 1), unit=ones, counit=point,
        antipode=inv_perm, star=np.eye(m, dtype=complex),
    )
    return group, function


@pytest.mark.parametrize("cayley", [cyclic_group(1), cyclic_group(5), symmetric_group_3()])
def test_group_and_function_algebras_match_the_table_loops(cayley):
    algebras = (group_algebra(cayley), function_algebra(cayley))
    for algebra, expected in zip(algebras, _group_tensors_by_loop(cayley)):
        for field, value in expected.items():
            assert np.array_equal(getattr(algebra, field), value), field


def _sparse_entries_by_loop(array):
    """The entry-by-entry serialisation that ``_sparse_entries`` vectorises."""
    entries = []
    for idx in np.ndindex(array.shape):
        value = complex(array[idx])
        if value != 0:
            entries.append([*map(int, idx), float(value.real), float(value.imag)])
    return entries


def test_sparse_entries_match_the_entry_loop():
    rng = np.random.default_rng(31)
    t = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    t[rng.random(t.shape) < 0.5] = 0.0
    t[0, 0, 0] = complex(-0.0, -0.0)  # signed zeros are zero
    t[0, 0, 1] = complex(-0.0, 2.5)  # purely imaginary, real part -0.0
    t[0, 0, 2] = complex(-1.5, -0.0)  # purely real, imaginary part -0.0
    t[0, 0, 3] = 1j
    for array in (t, t[0, 0], t[0], np.zeros((2, 2), dtype=complex), t.real.copy()):
        got, expected = _sparse_entries(array), _sparse_entries_by_loop(array)
        assert json.dumps(got) == json.dumps(expected)
        assert all(type(v) is int for e in got for v in e[:-2])
    assert [0, 1, -0.0, 2.5] in _sparse_entries(t[0])
    assert json.dumps(_sparse_entries(t[0, 0])[:2]) == "[[1, -0.0, 2.5], [2, -1.5, -0.0]]"
    for name in ALL_PRESETS:
        a = preset(name)
        for field in ("mult", "comult", "unit", "counit", "antipode", "star"):
            assert _sparse_entries(getattr(a, field)) == _sparse_entries_by_loop(getattr(a, field))


def test_algebra_to_json_equals_the_indented_encoder():
    # save_algebra writes this text, so it must stay byte-identical to
    # json.dumps(..., indent=2); the provenance sha256 no longer reads it
    from dataclasses import replace

    from conftest import change_basis

    algebras = [preset(name) for name in preset_names()]
    algebras += [build_dual(a) for a in algebras]
    algebras += [change_basis(a, 5) for a in algebras]
    kz3 = preset("kz3")
    algebras.append(
        replace(kz3, name='q"uo\\te, ]é', basis_labels=('a", "b', "c\\]", "]ü, ["))
    )
    algebras.append(replace(kz3, antipode=np.zeros((3, 3))))  # an empty entry list
    for a in algebras:
        assert algebra_to_json(a) == json.dumps(algebra_to_json_dict(a), indent=2), a.name


def test_round_trip_preserves_complex_entries_exactly(tmp_path):
    # serialization does not require the axioms, only the shapes; random
    # complex tensors must survive save/load bit for bit
    from fqg import FiniteHopfStarAlgebra

    rng = np.random.default_rng(23)
    n = 3

    def tensor(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    raw = FiniteHopfStarAlgebra(
        dim=n,
        basis_labels=("a", "b", "c"),
        mult=tensor(n, n, n),
        comult=tensor(n, n, n),
        unit=tensor(n),
        counit=tensor(n),
        antipode=tensor(n, n),
        star=tensor(n, n),
        name="noise",
    )
    path = tmp_path / "noise.json"
    save_algebra(raw, path)
    again = algebra_from_json_dict(read_json(path))
    assert tensors_equal(raw, again)


def test_load_rejects_unknown_and_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    data = json.loads(algebra_to_json(preset("kz2")))
    data["extra"] = 1
    path.write_text(json.dumps(data))
    with pytest.raises(StructuralError, match="unknown field.*extra"):
        algebra_from_json_dict(read_json(path))

    del data["extra"]
    del data["star"]
    path.write_text(json.dumps(data))
    with pytest.raises(StructuralError, match="missing field.*star"):
        algebra_from_json_dict(read_json(path))


def test_load_rejects_bad_entries(tmp_path):
    path = tmp_path / "bad.json"
    data = json.loads(algebra_to_json(preset("kz2")))
    data["mult"] = [[0, 0, 0.5, 1.0, 0.0]]  # non-integer index
    path.write_text(json.dumps(data))
    with pytest.raises(StructuralError, match="mult"):
        algebra_from_json_dict(read_json(path))

    data["mult"] = [[0, 0, 5, 1.0, 0.0]]  # out of range
    path.write_text(json.dumps(data))
    with pytest.raises(StructuralError, match="mult"):
        algebra_from_json_dict(read_json(path))

    data["mult"] = [[0, 0, 1.0, 0.0]]  # wrong arity for a 3-index tensor
    path.write_text(json.dumps(data))
    with pytest.raises(StructuralError, match="mult"):
        algebra_from_json_dict(read_json(path))

    data["mult"] = [[0, 0, 0, 1.0, 0.0], [0, 0, 0, 2.0, 0.0]]  # duplicate
    path.write_text(json.dumps(data))
    with pytest.raises(StructuralError, match="duplicate"):
        algebra_from_json_dict(read_json(path))


def _dense_z10_data():
    # the group algebra of Z10 in a random basis: every mult entry is nonzero
    from conftest import change_basis

    data = json.loads(algebra_to_json(change_basis(group_algebra(cyclic_group(10)), 1)))
    assert len(data["mult"]) == 1000
    return data


BAD_SHAPE = "field 'mult' entry 999 must have 3 indices plus re, im"
BAD_INDEX = "field 'mult' entry 999 has non-integer indices"
OUT_OF_RANGE = "field 'mult' entry 999 index out of range for shape (10, 10, 10)"


@pytest.mark.parametrize("entry,message", [
    ("x", BAD_SHAPE),
    ([9, 9, 9, 1.0], BAD_SHAPE),
    ([9, 9, True, 1.0, 0.0], BAD_INDEX),
    ([9, 9, 1.0, 1.0, 0.0], BAD_INDEX),
    ([9, 9, 9, "1", 0.0], "field 'mult' entry 999 has non-numeric values"),
    ([9, 9, 9, float("nan"), 0.0], "field 'mult' entry 999 has a non-finite value"),
    ([9, 9, 9, 1.0, 10 ** 400], "field 'mult' entry 999 has a non-finite value"),
    ([9, 9, 10 ** 400, 1.0, 0.0], OUT_OF_RANGE),
    ([9, 9, -1, 1.0, 0.0], OUT_OF_RANGE),
    ([9, 9, 10, 1.0, 0.0], OUT_OF_RANGE),
    ([0, 0, 0, 1.0, 0.0], "field 'mult' has duplicate entry for index (0, 0, 0)"),
], ids=["not_a_list", "wrong_length", "true_index", "float_index", "string_value", "nan",
        "huge_value", "huge_index", "negative_index", "index_out_of_range", "duplicate"])
def test_bulk_parse_names_a_fault_in_the_last_of_1000_entries(entry, message):
    # the bulk check finds the fault, and the entry walk names it as before
    data = _dense_z10_data()
    data["mult"][-1] = entry
    with pytest.raises(StructuralError) as info:
        algebra_from_json_dict(data)
    assert str(info.value) == message


def test_bulk_parse_matches_the_entry_loop():
    from fqg.builders import _dense_from_sparse

    data = _dense_z10_data()
    for field, shape in (("mult", (10,) * 3), ("comult", (10,) * 3), ("star", (10, 10)), ("unit", (10,))):
        expected = np.zeros(shape, dtype=complex)
        for *idx, re, im in data[field]:
            expected[tuple(idx)] = complex(re, im)
        assert np.array_equal(_dense_from_sparse(data[field], shape, field), expected)
    assert np.array_equal(_dense_from_sparse([], (2, 2), "star"), np.zeros((2, 2)))
    # negative zeros survive, in the walk (up to ten entries) and in the bulk
    # path (and so in the provenance hash)
    for k in (2, 16):
        entries = [[i, i, -1.0, -0.0] for i in range(k - 1)] + [[k - 1, k - 1, -0.0, 2]]
        parsed = _dense_from_sparse(entries, (k, k), "star")
        assert np.signbit(parsed[0, 0].imag) and np.signbit(parsed[k - 1, k - 1].real)


def test_a_field_too_large_to_index_is_a_structural_error():
    # (2^21)^3 complex entries need 2^67 bytes, beyond numpy's index range
    from fqg.builders import _dense_from_sparse

    with pytest.raises(StructuralError, match=r"field 'mult' of shape \(2097152, 2097152, 2097152\)"):
        _dense_from_sparse([], (2 ** 21,) * 3, "mult")


def test_load_rejects_version_mismatch(tmp_path):
    path = tmp_path / "v2.json"
    data = json.loads(algebra_to_json(preset("kz2")))
    data["format_version"] = 2
    path.write_text(json.dumps(data))
    with pytest.raises(StructuralError, match="format_version 2, expected 1"):
        algebra_from_json_dict(read_json(path))


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json {")
    with pytest.raises(StructuralError, match="is not valid JSON"):
        algebra_from_json_dict(read_json(path))
    with pytest.raises(StructuralError, match="cannot read"):
        resolve_algebra(str(tmp_path / "missing.json"))


def test_resolve_group_inline_and_errors():
    z2 = resolve_group({"table": [[0, 1], [1, 0]]})
    assert z2.order == 2
    with pytest.raises(StructuralError, match="not a Latin square"):
        resolve_group({"table": [[0, 0], [1, 1]]})
    with pytest.raises(StructuralError, match="no identity element"):
        # an idempotent quasigroup: every row is a permutation, no identity
        cayley_from_table([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
    for bad in ([[0, 1], [1, float("nan")]], [[0, 1.5], [1, 0]]):
        with pytest.raises(StructuralError, match="table entries must be integers"):
            resolve_group({"table": bad})
    with pytest.raises(StructuralError, match="unknown field.*inline group"):
        resolve_group({"table": [[0]], "bogus": 1})
    with pytest.raises(StructuralError, match="preset name or an inline table"):
        resolve_group(42)
    assert group_preset("s3").order == 6
    with pytest.raises(StructuralError, match="unknown group preset 's4'"):
        group_preset("s4")


def test_nonassociative_latin_square_rejected():
    # a quasigroup (Latin square) that is not a group
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(StructuralError, match="associativity fails"):
        cayley_from_table(table)


def test_empty_inline_table_is_reported_by_shape():
    # np.asarray([]) is float, so the shape must be checked before the dtype
    with pytest.raises(StructuralError, match="table must be square and nonempty"):
        resolve_group({"table": []})


def test_cayley_from_table_copies_the_caller_table():
    table = np.array([[0, 1], [1, 0]])
    group = cayley_from_table(table)
    assert table.flags.writeable
    assert not group.table.flags.writeable
    table[0, 0] = 1  # the group keeps its own table
    assert group.table[0, 0] == 0


def _write_and_load(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    return algebra_from_json_dict(read_json(path))


def _version_2_file(tmp_path):
    data = json.loads(algebra_to_json(preset("kz2")))
    data["format_version"] = 2
    return _write_and_load(tmp_path, json.dumps(data))


def _extend_with_infinite_tolerance(_):
    report = ReportBuilder().add("x", 0.0, float("inf")).build()
    ReportBuilder().extend("stage/", report)


@pytest.mark.parametrize(
    "make,fragment",
    [
        (lambda _: preset("kz9"), "unknown preset 'kz9'"),
        (lambda _: group_preset("s4"), "unknown group preset 's4'"),
        (lambda tmp_path: _write_and_load(tmp_path, "not json {"), "is not valid JSON"),
        (_version_2_file, "format_version 2, expected 1"),
        (lambda _: cayley_from_table([[0, 0], [1, 1]]), "not a Latin square"),
        (lambda _: commutation_mode(6, 64, "full"), "full mode needs about"),
        (_extend_with_infinite_tolerance, "tolerance inf of check 'stage/x' is not finite"),
    ],
    ids=["algebra_preset", "group_preset", "not_json", "format_version", "latin_square",
         "full_mode", "infinite_tolerance"],
)
def test_every_malformed_input_raises_exactly_structural_error(tmp_path, make, fragment):
    # one class for every malformed input: the message, not a subclass, names the fault
    with pytest.raises(StructuralError, match=fragment) as info:
        make(tmp_path)
    assert type(info.value) is StructuralError
