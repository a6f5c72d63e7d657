"""Finite groups as validated Cayley tables, plus the built-in group presets."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import InvalidGroupTable, UnknownPreset
from .tensors import freeze


@dataclass(frozen=True)
class CayleyTable:
    """A finite group: table[i, j] is the index of the product of elements i and j."""

    order: int
    table: np.ndarray
    labels: tuple[str, ...]
    identity_index: int
    name: str = "group"

    def multiply(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inverse(self, i: int) -> int:
        e = self.identity_index
        for j in range(self.order):
            if self.table[i, j] == e:
                return j
        raise InvalidGroupTable(f"element {i} has no inverse")  # unreachable after validation

    def inverses(self) -> np.ndarray:
        return np.array([self.inverse(i) for i in range(self.order)], dtype=int)


def cayley_from_table(table, labels=None, name: str = "group") -> CayleyTable:
    """Validate a multiplication table and wrap it; raises InvalidGroupTable."""
    try:
        table = np.asarray(table)
    except ValueError as exc:  # ragged rows
        raise InvalidGroupTable(f"table must be square and nonempty: {exc}") from None
    if table.dtype.kind not in "iu":
        raise InvalidGroupTable(f"table entries must be integers, got dtype {table.dtype}")
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.shape[0] == 0:
        raise InvalidGroupTable(f"table must be square and nonempty, got shape {table.shape}")
    m = table.shape[0]
    if table.min() < 0 or table.max() >= m:
        raise InvalidGroupTable("table entries must be element indices")
    ref = set(range(m))
    for i in range(m):
        if set(table[i, :].tolist()) != ref or set(table[:, i].tolist()) != ref:
            raise InvalidGroupTable(f"row/column {i} is not a permutation (not a Latin square)")
    identity = None
    for e in range(m):
        if all(table[e, i] == i and table[i, e] == i for i in range(m)):
            identity = e
            break
    if identity is None:
        raise InvalidGroupTable("no identity element")
    for i in range(m):
        if not any(table[i, j] == identity for j in range(m)):
            raise InvalidGroupTable(f"element {i} has no inverse")
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if table[table[i, j], k] != table[i, table[j, k]]:
                    raise InvalidGroupTable(f"associativity fails at ({i}, {j}, {k})")
    if labels is None:
        labels = tuple(str(i) for i in range(m))
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != m:
            raise InvalidGroupTable(f"{len(labels)} labels for {m} elements")
    return CayleyTable(m, freeze(table), labels, identity, name)


def cyclic_group(n: int) -> CayleyTable:
    if n < 1:
        raise InvalidGroupTable("cyclic group order must be >= 1")
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
        raise UnknownPreset(
            f"unknown group preset {name!r}; known: {sorted(_GROUP_PRESETS)}"
        ) from None
    return builder()
