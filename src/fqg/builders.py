"""Constructors for preset algebras and JSON serialization.

Algebra file schema (format_version 1): a JSON object with keys
"format_version", "name", "dim", "basis", and sparse tensor arrays

- "mult"     entries [i, j, k, re, im]: coefficient of e_k in e_i e_j,
- "comult"   entries [i, j, k, re, im]: coefficient of e_j (x) e_k in the
  coproduct of e_i,
- "unit"     entries [i, re, im],
- "counit"   entries [i, re, im],
- "antipode" entries [i, j, re, im]: coefficient of e_j in the antipode
  of e_i,
- "star"     entries [i, j, re, im]: coefficient of e_j in (e_i)*.

Indices are 0-based, omitted entries are zero, duplicate indices and unknown
keys are rejected.  Floats are written with full double precision so a
save/load round trip is bit-exact.

Action spec schema (format_version 1): {"format_version": 1, "algebra":
preset-or-path-beside-the-spec, "group": preset-or-inline-table, "automorphisms":
"inversion" | "conjugation" | list of per-element matrices [[re, im], ...]}.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .duality import build_dual
from .errors import ParseError, SchemaVersionMismatch, UnknownPreset
from .groups import CayleyTable, cayley_from_table, cyclic_group, group_preset, symmetric_group_3
from .hopf import FiniteHopfStarAlgebra

FORMAT_VERSION = 1


def group_algebra(cayley: CayleyTable, name: str = "") -> FiniteHopfStarAlgebra:
    """The group algebra: basis u_g, diagonal coproduct, convolution product."""
    m = cayley.order
    mult = np.zeros((m, m, m), dtype=complex)
    comult = np.zeros((m, m, m), dtype=complex)
    unit = np.zeros(m, dtype=complex)
    counit = np.ones(m, dtype=complex)
    inv_perm = np.zeros((m, m), dtype=complex)
    for i in range(m):
        comult[i, i, i] = 1.0
        inv_perm[i, cayley.inverse(i)] = 1.0
        for j in range(m):
            mult[i, j, cayley.multiply(i, j)] = 1.0
    unit[cayley.identity_index] = 1.0
    return FiniteHopfStarAlgebra(
        dim=m,
        basis_labels=tuple(f"u_{lbl}" for lbl in cayley.labels),
        mult=mult,
        comult=comult,
        unit=unit,
        counit=counit,
        antipode=inv_perm,
        star=inv_perm.copy(),
        name=name or f"group_algebra({cayley.name})",
        source_group=cayley,
        source_kind="group",
    )


def function_algebra(cayley: CayleyTable, name: str = "") -> FiniteHopfStarAlgebra:
    """Functions on the group: pointwise product, convolution coproduct."""
    m = cayley.order
    mult = np.zeros((m, m, m), dtype=complex)
    comult = np.zeros((m, m, m), dtype=complex)
    counit = np.zeros(m, dtype=complex)
    inv_perm = np.zeros((m, m), dtype=complex)
    for i in range(m):
        mult[i, i, i] = 1.0
        inv_perm[i, cayley.inverse(i)] = 1.0
        for s in range(m):
            for t in range(m):
                if cayley.multiply(s, t) == i:
                    comult[i, s, t] = 1.0
    counit[cayley.identity_index] = 1.0
    return FiniteHopfStarAlgebra(
        dim=m,
        basis_labels=tuple(f"d_{lbl}" for lbl in cayley.labels),
        mult=mult,
        comult=comult,
        unit=np.ones(m, dtype=complex),
        counit=counit,
        antipode=inv_perm,
        star=np.eye(m, dtype=complex),
        name=name or f"function_algebra({cayley.name})",
        source_group=cayley,
        source_kind="function",
    )


_PRESET_BUILDERS = {
    "trivial": lambda: group_algebra(cyclic_group(1), name="trivial"),
    "ks3": lambda: group_algebra(symmetric_group_3(), name="ks3"),
    "fs3": lambda: function_algebra(symmetric_group_3(), name="fs3"),
}
for _n in range(2, 7):
    _PRESET_BUILDERS[f"kz{_n}"] = (
        lambda n=_n: group_algebra(cyclic_group(n), name=f"kz{n}")
    )
    _PRESET_BUILDERS[f"fz{_n}"] = (
        lambda n=_n: function_algebra(cyclic_group(n), name=f"fz{n}")
    )


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESET_BUILDERS))


def preset(name: str) -> FiniteHopfStarAlgebra:
    """Deterministic construction of a named algebra; supports dual:<name>."""
    if name.startswith("dual:"):
        return build_dual(preset(name[len("dual:"):]))
    try:
        builder = _PRESET_BUILDERS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; known: {', '.join(preset_names())} and dual:<preset>"
        ) from None
    return builder()


# -- serialization ----------------------------------------------------------


def _sparse_entries(array: np.ndarray) -> list:
    entries = []
    for idx in np.ndindex(array.shape):
        value = complex(array[idx])
        if value != 0:
            entries.append([*map(int, idx), float(value.real), float(value.imag)])
    return entries


def algebra_to_json_dict(a: FiniteHopfStarAlgebra) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "name": a.name,
        "dim": a.dim,
        "basis": list(a.basis_labels),
        "mult": _sparse_entries(a.mult),
        "comult": _sparse_entries(a.comult),
        "unit": _sparse_entries(a.unit),
        "counit": _sparse_entries(a.counit),
        "antipode": _sparse_entries(a.antipode),
        "star": _sparse_entries(a.star),
    }


def algebra_to_json(a: FiniteHopfStarAlgebra) -> str:
    return json.dumps(algebra_to_json_dict(a), indent=2)


def read_json(path):
    """The parsed contents of the JSON file at ``path``.

    Raises ParseError when the file cannot be read, is not UTF-8 or is not
    valid JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def save_algebra(a: FiniteHopfStarAlgebra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(algebra_to_json(a))
        fh.write("\n")


def _dense_from_sparse(entries, shape, field: str) -> np.ndarray:
    array = np.zeros(shape, dtype=complex)
    n_index = len(shape)
    seen = set()
    if not isinstance(entries, list):
        raise ParseError(f"field {field!r} must be a list of entries")
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != n_index + 2:
            raise ParseError(
                f"field {field!r} entry {pos} must have {n_index} indices plus re, im"
            )
        idx = entry[:n_index]
        if not all(isinstance(i, int) for i in idx):
            raise ParseError(f"field {field!r} entry {pos} has non-integer indices")
        value = _finite_complex(entry[n_index:], f"field {field!r} entry {pos}")
        if any(i < 0 or i >= s for i, s in zip(idx, shape)):
            raise ParseError(f"field {field!r} entry {pos} index out of range for shape {shape}")
        key = tuple(idx)
        if key in seen:
            raise ParseError(f"field {field!r} has duplicate entry for index {key}")
        seen.add(key)
        array[key] = value
    return array


def _finite_complex(pair, where: str) -> complex:
    """The complex number [re, im]; non-numeric or non-finite parts raise ParseError."""
    if not all(isinstance(v, (int, float)) for v in pair):
        raise ParseError(f"{where} has non-numeric values")
    try:
        finite = all(math.isfinite(v) for v in pair)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ParseError(f"{where} has a non-finite value")
    return complex(float(pair[0]), float(pair[1]))


_ALGEBRA_KEYS = {
    "format_version", "name", "dim", "basis",
    "mult", "comult", "unit", "counit", "antipode", "star",
}


def algebra_from_json_dict(data: dict) -> FiniteHopfStarAlgebra:
    if not isinstance(data, dict):
        raise ParseError("algebra file must contain a JSON object")
    unknown = set(data) - _ALGEBRA_KEYS
    if unknown:
        raise ParseError(f"unknown field(s) in algebra file: {sorted(unknown)}")
    missing = _ALGEBRA_KEYS - set(data)
    if missing:
        raise ParseError(f"missing field(s) in algebra file: {sorted(missing)}")
    if data["format_version"] != FORMAT_VERSION:
        raise SchemaVersionMismatch(
            f"file has format_version {data['format_version']!r}, expected {FORMAT_VERSION}"
        )
    n = data["dim"]
    if not isinstance(n, int) or n < 1:
        raise ParseError(f"field 'dim' must be a positive integer, got {n!r}")
    basis = data["basis"]
    if not isinstance(basis, list) or len(basis) != n:
        raise ParseError(f"field 'basis' must list {n} labels")
    return FiniteHopfStarAlgebra(
        dim=n,
        basis_labels=tuple(str(s) for s in basis),
        mult=_dense_from_sparse(data["mult"], (n, n, n), "mult"),
        comult=_dense_from_sparse(data["comult"], (n, n, n), "comult"),
        unit=_dense_from_sparse(data["unit"], (n,), "unit"),
        counit=_dense_from_sparse(data["counit"], (n,), "counit"),
        antipode=_dense_from_sparse(data["antipode"], (n, n), "antipode"),
        star=_dense_from_sparse(data["star"], (n, n), "star"),
        name=str(data["name"]),
    )


def load_algebra(path) -> FiniteHopfStarAlgebra:
    return algebra_from_json_dict(read_json(path))


def resolve_algebra(spec: str, base_dir: str = "") -> FiniteHopfStarAlgebra:
    """A preset name, or a path to an algebra JSON file relative to ``base_dir``."""
    if spec in _PRESET_BUILDERS or spec.startswith("dual:"):
        return preset(spec)
    path = os.path.join(base_dir, spec)
    if os.path.exists(path):
        return load_algebra(path)
    if any(marker in spec for marker in ("/", "\\", ".json")):
        raise ParseError(f"algebra file not found: {path}")
    raise UnknownPreset(
        f"unknown preset {spec!r}; known: {', '.join(preset_names())} and dual:<preset>"
    )


# -- action specifications --------------------------------------------------


def resolve_group(spec) -> CayleyTable:
    """A group preset name or an inline table {"table": [[...]], "labels": [...]}."""
    if isinstance(spec, str):
        return group_preset(spec)
    if isinstance(spec, dict):
        unknown = set(spec) - {"table", "labels", "name"}
        if unknown:
            raise ParseError(f"unknown field(s) in inline group: {sorted(unknown)}")
        if "table" not in spec:
            raise ParseError("inline group needs a 'table' field")
        return cayley_from_table(
            spec["table"], labels=spec.get("labels"), name=spec.get("name", "custom")
        )
    raise ParseError(f"group must be a preset name or an inline table, got {type(spec).__name__}")


def parse_explicit_automorphisms(entries, order: int, dim: int) -> np.ndarray:
    """List of per-element matrices with [re, im] pairs into a complex stack."""
    if not isinstance(entries, list) or len(entries) != order:
        raise ParseError(f"automorphism list must have one matrix per group element ({order})")
    theta = np.zeros((order, dim, dim), dtype=complex)
    for k, matrix in enumerate(entries):
        if not isinstance(matrix, list) or len(matrix) != dim:
            raise ParseError(f"automorphism {k} must be a {dim}x{dim} matrix")
        for r, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != dim:
                raise ParseError(f"automorphism {k} row {r} must have {dim} entries")
            for c, value in enumerate(row):
                where = f"automorphism {k} entry ({r}, {c})"
                if not isinstance(value, list) or len(value) != 2:
                    raise ParseError(f"{where} must be an [re, im] pair")
                theta[k, r, c] = _finite_complex(value, where)
    return theta


_ACTION_KEYS = {"format_version", "algebra", "group", "automorphisms"}


def action_spec_from_json_dict(data) -> dict:
    """Validate the parsed contents of an action-spec file and return them."""
    if not isinstance(data, dict):
        raise ParseError("action spec must contain a JSON object")
    unknown = set(data) - _ACTION_KEYS
    if unknown:
        raise ParseError(f"unknown field(s) in action spec: {sorted(unknown)}")
    missing = _ACTION_KEYS - set(data)
    if missing:
        raise ParseError(f"missing field(s) in action spec: {sorted(missing)}")
    if data["format_version"] != FORMAT_VERSION:
        raise SchemaVersionMismatch(
            f"action spec has format_version {data['format_version']!r}, expected {FORMAT_VERSION}"
        )
    if not isinstance(data["algebra"], str):
        raise ParseError("action spec field 'algebra' must be a preset name or a path")
    return data
