"""Constructors for preset algebras and automorphism stacks, and JSON
serialization.

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
``resolve_automorphisms`` turns any "automorphisms" value into the stack theta
of an action, theta[k] the automorphism of the k-th group element; it is the
one place theta is made.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from .duality import build_dual
from .errors import StructuralError
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
        raise StructuralError(
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

    Raises StructuralError when the file cannot be read, is not UTF-8, is not
    valid JSON or nests too deeply for the parser."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StructuralError(f"{path} is not valid JSON: {exc}") from exc
    # after the clause above: both are ValueErrors, and so is open()'s
    # refusal of a path holding a NUL character
    except (OSError, ValueError) as exc:
        raise StructuralError(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise StructuralError(f"{path} nests too deeply to parse: {exc}") from exc


def save_algebra(a: FiniteHopfStarAlgebra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(algebra_to_json(a))
        fh.write("\n")


def _json_int(value) -> bool:
    """Whether ``value`` is a JSON integer: Python reads true and false as the
    ints 1 and 0, and numpy reads a bool in an index as a mask."""
    return isinstance(value, int) and not isinstance(value, bool)


def _dense_from_sparse(entries, shape, field: str) -> np.ndarray:
    """The dense array of ``entries``, [indices..., re, im] each: one pass checks
    their lengths and types, numpy their ranges, duplicates and finiteness; on a
    fault, or an integer beyond int64 or float range, the walk names the first one.
    Up to ten entries, the walk alone is faster than numpy's fixed cost."""
    if not isinstance(entries, list):
        raise StructuralError(f"field {field!r} must be a list of entries")
    if math.prod(shape) * 16 > np.iinfo(np.intp).max:  # numpy would raise ValueError
        raise StructuralError(f"field {field!r} of shape {shape} is too large to index")
    array, n_index, seen = np.zeros(shape, dtype=complex), len(shape), set()
    if len(entries) > 10 and set(map(type, entries)) <= {list} and set(map(len, entries)) <= {n_index + 2}:
        columns = list(zip(*entries)) or [()] * (n_index + 2)
        types = [set(map(type, column)) for column in columns]
        if all(t <= {int} for t in types[:-2]) and all(t <= {int, float} for t in types[-2:]):
            with contextlib.suppress(OverflowError):
                idx = np.array(columns[:-2], dtype=np.int64).reshape(n_index, -1)
                re, im = np.array(columns[-2:], dtype=float).reshape(2, -1)
                if np.all((idx >= 0) & (idx < np.array(shape)[:, None])) and np.isfinite([re, im]).all():
                    keys = np.sort(np.ravel_multi_index(idx, shape))  # np.unique would import numpy.ma
                    if not np.any(keys[1:] == keys[:-1]):
                        array.real[tuple(idx)], array.imag[tuple(idx)] = re, im  # signed zeros too
                        return array
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != n_index + 2:
            raise StructuralError(
                f"field {field!r} entry {pos} must have {n_index} indices plus re, im"
            )
        idx = entry[:n_index]
        if not all(_json_int(i) for i in idx):
            raise StructuralError(f"field {field!r} entry {pos} has non-integer indices")
        value = _finite_complex(entry[n_index:], f"field {field!r} entry {pos}")
        if any(i < 0 or i >= s for i, s in zip(idx, shape)):
            raise StructuralError(f"field {field!r} entry {pos} index out of range for shape {shape}")
        key = tuple(idx)
        if key in seen:
            raise StructuralError(f"field {field!r} has duplicate entry for index {key}")
        seen.add(key)
        array[key] = value
    return array


def _finite_complex(pair, where: str) -> complex:
    """The complex number [re, im]; non-numeric or non-finite parts raise StructuralError."""
    if not all(_json_int(v) or isinstance(v, float) for v in pair):
        raise StructuralError(f"{where} has non-numeric values")
    try:
        finite = all(math.isfinite(v) for v in pair)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise StructuralError(f"{where} has a non-finite value")
    return complex(float(pair[0]), float(pair[1]))


_ALGEBRA_KEYS = {
    "format_version", "name", "dim", "basis",
    "mult", "comult", "unit", "counit", "antipode", "star",
}


def _checked_object(data, keys, what: str) -> dict:
    """``data`` if it is a JSON object with exactly the fields ``keys`` and
    format_version 1; raises StructuralError otherwise."""
    if not isinstance(data, dict):
        raise StructuralError(f"{what} must contain a JSON object")
    unknown = set(data) - keys
    if unknown:
        raise StructuralError(f"unknown field(s) in {what}: {sorted(unknown)}")
    missing = keys - set(data)
    if missing:
        raise StructuralError(f"missing field(s) in {what}: {sorted(missing)}")
    if isinstance(data["format_version"], bool):
        raise StructuralError(
            f"field 'format_version' in {what} must be a number, got {data['format_version']!r}"
        )
    if data["format_version"] != FORMAT_VERSION:
        raise StructuralError(
            f"{what} has format_version {data['format_version']!r}, expected {FORMAT_VERSION}"
        )
    return data


def algebra_from_json_dict(data: dict) -> FiniteHopfStarAlgebra:
    data = _checked_object(data, _ALGEBRA_KEYS, "algebra file")
    n = data["dim"]
    if not _json_int(n) or n < 1:
        raise StructuralError(f"field 'dim' must be a positive integer, got {n!r}")
    basis = data["basis"]
    if not isinstance(basis, list) or len(basis) != n:
        raise StructuralError(f"field 'basis' must list {n} labels")
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
            raise StructuralError(f"unknown field(s) in inline group: {sorted(unknown)}")
        if "table" not in spec:
            raise StructuralError("inline group needs a 'table' field")
        if not isinstance(spec.get("labels", []), list):
            raise StructuralError("inline group field 'labels' must be a list")
        rows = spec["table"] if isinstance(spec["table"], list) else []
        if any(isinstance(v, bool) for row in rows if isinstance(row, list) for v in row):
            raise StructuralError("inline group field 'table' must hold integers, not true or false")
        return cayley_from_table(
            spec["table"], labels=spec.get("labels"), name=spec.get("name", "custom")
        )
    raise StructuralError(f"group must be a preset name or an inline table, got {type(spec).__name__}")


def permutation_matrix(perm) -> np.ndarray:
    """Column convention: basis vector i is sent to basis vector perm[i]; a
    stack of permutations gives the stack of their matrices."""
    perm = np.asarray(perm)
    return (perm[..., None, :] == np.arange(perm.shape[-1])[:, None]).astype(complex)


def _source_group(algebra: FiniteHopfStarAlgebra, kind: str) -> CayleyTable:
    """The group ``algebra`` was built from; the ``kind`` action needs one."""
    if algebra.source_group is None:
        raise StructuralError(
            f"{kind} action needs an algebra built from a group preset or Cayley table"
        )
    return algebra.source_group


def inversion_theta(algebra: FiniteHopfStarAlgebra, k_group: CayleyTable) -> np.ndarray:
    """theta for the order-two group acting by basis inversion g -> g^-1.

    Only defined for algebras built from a group; the acting group must have
    order 1 or 2 so that the assignment is a homomorphism.
    """
    source = _source_group(algebra, "inversion")
    if k_group.order > 2:
        raise StructuralError("inversion action expects an acting group of order <= 2")
    fixed = (np.arange(k_group.order) == k_group.identity_index)[:, None]
    return permutation_matrix(np.where(fixed, np.arange(source.order), source.inverses()))


def conjugation_theta(algebra: FiniteHopfStarAlgebra, k_group: CayleyTable) -> np.ndarray:
    """theta_k = conjugation by k on the basis, for K equal to the source group."""
    source = _source_group(algebra, "conjugation")
    if k_group.order != source.order or not np.array_equal(k_group.table, source.table):
        raise StructuralError(
            "conjugation action requires the acting group to equal the algebra's group"
        )
    table = source.table
    return permutation_matrix(table[table, source.inverses()[:, None]])  # [k, g] -> k g k^-1


_THETA_PRESETS = {"inversion": inversion_theta, "conjugation": conjugation_theta}


def parse_explicit_automorphisms(entries, order: int, dim: int) -> np.ndarray:
    """List of per-element matrices with [re, im] pairs into a complex stack."""
    if not isinstance(entries, list) or len(entries) != order:
        raise StructuralError(f"automorphism list must have one matrix per group element ({order})")
    theta = np.zeros((order, dim, dim), dtype=complex)
    for k, matrix in enumerate(entries):
        if not isinstance(matrix, list) or len(matrix) != dim:
            raise StructuralError(f"automorphism {k} must be a {dim}x{dim} matrix")
        for r, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != dim:
                raise StructuralError(f"automorphism {k} row {r} must have {dim} entries")
            for c, value in enumerate(row):
                where = f"automorphism {k} entry ({r}, {c})"
                if not isinstance(value, list) or len(value) != 2:
                    raise StructuralError(f"{where} must be an [re, im] pair")
                theta[k, r, c] = _finite_complex(value, where)
    return theta


def resolve_automorphisms(
    algebra: FiniteHopfStarAlgebra, k_group: CayleyTable, spec
) -> np.ndarray:
    """The theta stack of an action spec's "automorphisms": the preset
    "inversion" or "conjugation", or a list of per-element matrices of
    [re, im] pairs (``parse_explicit_automorphisms``); any other value raises
    StructuralError."""
    if isinstance(spec, list):
        return parse_explicit_automorphisms(spec, k_group.order, algebra.dim)
    if isinstance(spec, str) and spec in _THETA_PRESETS:
        return _THETA_PRESETS[spec](algebra, k_group)
    raise StructuralError(
        "'automorphisms' must be 'inversion', 'conjugation' or a list of "
        f"per-element matrices, got {spec!r}"
    )


_ACTION_KEYS = {"format_version", "algebra", "group", "automorphisms"}


def action_spec_from_json_dict(data) -> dict:
    """Validate the parsed contents of an action-spec file and return them."""
    data = _checked_object(data, _ACTION_KEYS, "action spec")
    if not isinstance(data["algebra"], str):
        raise StructuralError("action spec field 'algebra' must be a preset name or a path")
    return data
