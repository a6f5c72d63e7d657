"""Presets, serialization round trips, schema validation."""

import json

import numpy as np
import pytest

from fqg import (
    InvalidGroupTable,
    ParseError,
    SchemaVersionMismatch,
    UnknownPreset,
    build_dual,
    build_multiplicative_unitary,
    cayley_from_table,
    compute_haar,
    gns_construct,
    group_preset,
    load_algebra,
    preset,
    preset_names,
    save_algebra,
    verify_hopf_star_axioms,
)
from fqg.builders import (
    _sparse_entries,
    algebra_to_json,
    function_algebra,
    group_algebra,
    resolve_algebra,
    resolve_group,
)
from fqg.groups import cyclic_group, symmetric_group_3

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
        a = preset(name)
        gns = gns_construct(a, compute_haar(a))
        mats[name] = build_multiplicative_unitary(a, gns).w.entries
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
    with pytest.raises(UnknownPreset):
        preset("kz9")
    with pytest.raises(UnknownPreset):
        preset("dual:nope")
    with pytest.raises(UnknownPreset):
        resolve_algebra("not-a-preset")


def test_save_load_round_trip_is_exact(tmp_path):
    path = tmp_path / "ks3.json"
    a = preset("ks3")
    save_algebra(a, path)
    b = load_algebra(path)
    assert tensors_equal(a, b)
    assert b.basis_labels == a.basis_labels
    assert b.name == a.name
    # serialization itself is deterministic
    assert algebra_to_json(a) == algebra_to_json(load_algebra(path))


def _group_tensors_by_loop(cayley):
    """Structure constants of the group algebra and the function algebra of
    ``cayley``, entry by entry from the Cayley table."""
    m = cayley.order
    conv, diag = np.zeros((m, m, m), dtype=complex), np.zeros((m, m, m), dtype=complex)
    inv_perm, point = np.zeros((m, m), dtype=complex), np.zeros(m, dtype=complex)
    for i in range(m):
        diag[i, i, i] = 1.0
        inv_perm[i, cayley.inverse(i)] = 1.0
        for j in range(m):
            conv[i, j, cayley.multiply(i, j)] = 1.0
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
    again = load_algebra(path)
    assert tensors_equal(raw, again)


def test_load_rejects_unknown_and_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    data = json.loads(algebra_to_json(preset("kz2")))
    data["extra"] = 1
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match="extra"):
        load_algebra(path)

    del data["extra"]
    del data["star"]
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match="star"):
        load_algebra(path)


def test_load_rejects_bad_entries(tmp_path):
    path = tmp_path / "bad.json"
    data = json.loads(algebra_to_json(preset("kz2")))
    data["mult"] = [[0, 0, 0.5, 1.0, 0.0]]  # non-integer index
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match="mult"):
        load_algebra(path)

    data["mult"] = [[0, 0, 5, 1.0, 0.0]]  # out of range
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match="mult"):
        load_algebra(path)

    data["mult"] = [[0, 0, 1.0, 0.0]]  # wrong arity for a 3-index tensor
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match="mult"):
        load_algebra(path)

    data["mult"] = [[0, 0, 0, 1.0, 0.0], [0, 0, 0, 2.0, 0.0]]  # duplicate
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match="duplicate"):
        load_algebra(path)


def test_load_rejects_version_mismatch(tmp_path):
    path = tmp_path / "v2.json"
    data = json.loads(algebra_to_json(preset("kz2")))
    data["format_version"] = 2
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaVersionMismatch):
        load_algebra(path)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json {")
    with pytest.raises(ParseError):
        load_algebra(path)
    with pytest.raises(ParseError):
        resolve_algebra(str(tmp_path / "missing.json"))


def test_resolve_group_inline_and_errors():
    z2 = resolve_group({"table": [[0, 1], [1, 0]]})
    assert z2.order == 2
    with pytest.raises(InvalidGroupTable):
        resolve_group({"table": [[0, 0], [1, 1]]})  # not a Latin square
    with pytest.raises(InvalidGroupTable):
        # an idempotent quasigroup: every row is a permutation, no identity
        cayley_from_table([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
    for bad in ([[0, 1], [1, float("nan")]], [[0, 1.5], [1, 0]]):
        with pytest.raises(InvalidGroupTable):
            resolve_group({"table": bad})
    with pytest.raises(ParseError):
        resolve_group({"table": [[0]], "bogus": 1})
    with pytest.raises(ParseError):
        resolve_group(42)
    assert group_preset("s3").order == 6
    with pytest.raises(UnknownPreset):
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
    with pytest.raises(InvalidGroupTable):
        cayley_from_table(table)


def test_empty_inline_table_is_reported_by_shape():
    # np.asarray([]) is float, so the shape must be checked before the dtype
    with pytest.raises(InvalidGroupTable, match="table must be square and nonempty"):
        resolve_group({"table": []})
