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

from .actions import _THETA_PRESETS
from .duality import build_dual
from .errors import ParseError, SchemaVersionMismatch, UnknownPreset
from .groups import (
    _GROUP_PRESETS, CayleyTable, cayley_from_table, cyclic_group, group_preset, symmetric_group_3,
)
from .hopf import FiniteHopfStarAlgebra

FORMAT_VERSION = 1


def group_algebra(cayley: CayleyTable, name: str = "") -> FiniteHopfStarAlgebra:
    """The group algebra: basis u_g, diagonal coproduct, convolution product."""
    m, e = cayley.order, np.eye(cayley.order, dtype=complex)
    inv_perm = e[cayley.inverses()]  # row g is u_{g^-1}
    return FiniteHopfStarAlgebra(
        dim=m,
        basis_labels=tuple(f"u_{lbl}" for lbl in cayley.labels),
        mult=e[cayley.table],  # u_g u_h = u_{gh}
        comult=np.einsum("ij,ik->ijk", e, e),  # u_g -> u_g (x) u_g
        unit=e[cayley.identity_index],
        counit=np.ones(m, dtype=complex),
        antipode=inv_perm,
        star=inv_perm.copy(),
        name=name or f"group_algebra({cayley.name})",
        source_group=cayley,
    )


def function_algebra(cayley: CayleyTable, name: str = "") -> FiniteHopfStarAlgebra:
    """Functions on the group: pointwise product, convolution coproduct."""
    m, e = cayley.order, np.eye(cayley.order, dtype=complex)
    return FiniteHopfStarAlgebra(
        dim=m,
        basis_labels=tuple(f"d_{lbl}" for lbl in cayley.labels),
        mult=np.einsum("ij,ik->ijk", e, e),  # d_g d_h = [g = h] d_g
        comult=e[cayley.table].transpose(2, 0, 1),  # d_g -> sum over st = g of d_s (x) d_t
        unit=np.ones(m, dtype=complex),
        counit=e[cayley.identity_index],
        antipode=e[cayley.inverses()],
        star=np.eye(m, dtype=complex),
        name=name or f"function_algebra({cayley.name})",
        source_group=cayley,
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
    """[*index, re, im] for every nonzero entry in C order (-0.0 counts as zero)."""
    idx = np.nonzero(array)
    values = np.asarray(array[idx], dtype=complex)
    return [
        [*i, re, im]
        for i, re, im in zip(np.transpose(idx).tolist(), values.real.tolist(), values.imag.tolist())
    ]


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


def _checked_object(data, keys, what: str) -> dict:
    """``data`` if it is a JSON object with exactly the fields ``keys`` and
    format_version 1; raises ParseError or SchemaVersionMismatch otherwise."""
    if not isinstance(data, dict):
        raise ParseError(f"{what} must contain a JSON object")
    unknown = set(data) - keys
    if unknown:
        raise ParseError(f"unknown field(s) in {what}: {sorted(unknown)}")
    missing = keys - set(data)
    if missing:
        raise ParseError(f"missing field(s) in {what}: {sorted(missing)}")
    if data["format_version"] != FORMAT_VERSION:
        raise SchemaVersionMismatch(
            f"{what} has format_version {data['format_version']!r}, expected {FORMAT_VERSION}"
        )
    return data


def algebra_from_json_dict(data: dict) -> FiniteHopfStarAlgebra:
    data = _checked_object(data, _ALGEBRA_KEYS, "algebra file")
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


def name_or_file(value: str, role: str, base_dir: str = ""):
    """The one rule for an input that is a preset name or a JSON file.

    A preset of ``role`` ("algebra", "group" or "automorphisms") is a name and
    wins over a file of the same name.  Otherwise a value that ends in .json,
    contains a path separator or names an existing path is a file: its contents
    (``read_json`` of ``value`` relative to ``base_dir``) are returned.  Any
    other value is returned as it is, an unknown name of ``role``."""
    names = {"algebra": _PRESET_BUILDERS, "group": _GROUP_PRESETS, "automorphisms": _THETA_PRESETS}
    name = value.removeprefix("dual:") if role == "algebra" else value
    path = os.path.join(base_dir, value)
    is_file = value.endswith(".json") or "/" in value or "\\" in value or os.path.exists(path)
    return read_json(path) if is_file and name not in names[role] else value


def resolve_algebra(spec, base_dir: str = "") -> FiniteHopfStarAlgebra:
    """An algebra from a preset name or file (see ``name_or_file``), or from
    the parsed contents of an algebra file."""
    if isinstance(spec, str):
        spec = name_or_file(spec, "algebra", base_dir)
    return preset(spec) if isinstance(spec, str) else algebra_from_json_dict(spec)


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
        if not isinstance(spec.get("labels", []), list):
            raise ParseError("inline group field 'labels' must be a list")
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
    data = _checked_object(data, _ACTION_KEYS, "action spec")
    if not isinstance(data["algebra"], str):
        raise ParseError("action spec field 'algebra' must be a preset name or a path")
    return data
