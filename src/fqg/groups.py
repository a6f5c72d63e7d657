"""Finite groups as validated Cayley tables, plus the built-in group presets."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import StructuralError
from .tensors import freeze


@dataclass(frozen=True)
class CayleyTable:
    """A finite group: table[i, j] is the index of the product of elements i and j."""

    order: int
    table: np.ndarray
    labels: tuple[str, ...]
    identity_index: int
    name: str = "group"

    def inverses(self) -> np.ndarray:
        return np.argmax(self.table == self.identity_index, axis=1)


def cayley_from_table(table, labels=None, name: str = "group") -> CayleyTable:
    """Validate a multiplication table and wrap it; raises StructuralError."""
    try:
        table = np.array(table)  # a copy: the caller keeps theirs writable
    except ValueError as exc:  # ragged rows
        raise StructuralError(f"table must be square and nonempty: {exc}") from None
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.shape[0] == 0:
        raise StructuralError(f"table must be square and nonempty, got shape {table.shape}")
    if table.dtype.kind not in "iu":
        raise StructuralError(f"table entries must be integers, got dtype {table.dtype}")
    m = table.shape[0]
    if table.min() < 0 or table.max() >= m:
        raise StructuralError("table entries must be element indices")
    ref = set(range(m))
    for i in range(m):
        if set(table[i, :].tolist()) != ref or set(table[:, i].tolist()) != ref:
            raise StructuralError(f"row/column {i} is not a permutation (not a Latin square)")
    # a Latin square has an inverse for every element once it has an identity
    arange = np.arange(m)
    identities = np.flatnonzero((table == arange).all(axis=1) & (table.T == arange).all(axis=1))
    if identities.size == 0:
        raise StructuralError("no identity element")
    identity = int(identities[0])
    for i in range(m):  # (ij)k against i(jk) over all (j, k), one m x m slice per i
        failures = np.argwhere(table[table[i]] != table[i][table])
        if failures.size:
            raise StructuralError("associativity fails at (%d, %d, %d)" % (i, *failures[0]))
    labels = tuple(str(s) for s in (range(m) if labels is None else labels))
    if len(labels) != m:
        raise StructuralError(f"{len(labels)} labels for {m} elements")
    return CayleyTable(m, freeze(table), labels, identity, name)


def cyclic_group(n: int) -> CayleyTable:
    if n < 1:
        raise StructuralError("cyclic group order must be >= 1")
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    return cayley_from_table(table, labels=[str(i) for i in range(n)], name=f"z{n}")


def symmetric_group_3() -> CayleyTable:
    """S3 as permutations of {0,1,2} in lexicographic one-line order, product = composition."""
    elems = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    m = len(elems)
    table = np.zeros((m, m), dtype=int)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[i, j] = index[tuple(p[q[x]] for x in range(3))]
    labels = ["".join(str(x) for x in p) for p in elems]
    return cayley_from_table(table, labels=labels, name="s3")


_GROUP_PRESETS = {
    "z1": lambda: cyclic_group(1),
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "z4": lambda: cyclic_group(4),
    "z5": lambda: cyclic_group(5),
    "z6": lambda: cyclic_group(6),
    "s3": symmetric_group_3,
}


def group_preset(name: str) -> CayleyTable:
    try:
        builder = _GROUP_PRESETS[name]
    except KeyError:
        raise StructuralError(
            f"unknown group preset {name!r}; known: {sorted(_GROUP_PRESETS)}"
        ) from None
    return builder()
