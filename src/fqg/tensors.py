"""Complex operators on tensor products of small Hilbert spaces.

Every operator is a dense (N, N) array, W and V included; its leg sizes
come from the context that holds it, (n, n) for W and (n, |K|, n) for V.  A
two-leg Kronecker sum sum_j x_j (x) y_j, the form of W, V and every
coproduct(e_a), is built by ``kron_sum`` and measured against a matrix by
``kron_sum_distance``, each through one tensordot over j.  Only the exact
fallbacks compare products of operators placed on legs of a larger space
(W23 W12 W23*, V134 V234, ...), by ``leg_distance``: one einsum over the leg
tensors, so no factor is expanded with identities.  A factor may be a stack
of matrices; the stacks of one product share a summed index.
``leg_distance`` holds one tile of each side, cut over leg 1, at a time and
subtracts the rhs tile into the lhs tile in the lhs tile's memory order; the
tile size follows from the working set of a tile and ``TILE_BYTES``.
The reference it is tested against, the dense ambient matrix of one placed
operator built with numpy.kron, is a test oracle in ``tests/conftest.py``.
``star_homomorphism_defects`` checks, for a whole stack of operators at
once, whether a linear map is a unital *-homomorphism.

Conventions used throughout the package:

- Legs are numbered from 1, matching the usual subscript notation for
  operators like W12 acting on chosen factors of a tensor product.
- The basis of a tensor product is ordered row-major with leg 1 slowest,
  i.e. index(i1, ..., ik) = ((i1*d2 + i2)*d3 + ...), which is exactly the
  ordering produced by numpy.kron.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import StructuralError


def frob(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a)))


def rounding_allowance(n: int) -> float:
    """4 n^2 eps, the rounding level of residuals built from dimension-n data."""
    return 4 * n * n * np.finfo(float).eps


def freeze(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only C-contiguous array (a copy only when needed)."""
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


# leg_distance evaluates its two sides tile by tile over the leg-1 row and
# column index, only in exact fallbacks and pentagon_residual; tiles are as large
# as their working set (see _working_set) allows within this many bytes.  The
# two sides of a tile are laid out in different axis orders, so their difference
# gathers through one of them, which stays cheap only while a tile array (a
# third of this budget for two factors a side) is within cache and TLB reach.
# On a 2-core x86 host (2 MiB L2 per core), full_suite at tol 1e-15 took
# 0.40-0.51 s on basis-changed Z12 subtracting in the lhs tile's memory order,
# 0.45-0.56 s otherwise; Z16 overlapped.  16 MiB is kept from a sweep of 8, 16 and 36 MiB.
TILE_BYTES = 16 * 2 ** 20
_LABELS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _contraction(factors, dims):
    """einsum operands and subscripts for a product of operators on legs.

    Each factor is ``(matrix, placement)``, leftmost factor first; ``matrix``
    acts on the 1-based legs named by ``placement``, in that order.  A factor
    may also be a stack ``(K, k, k)``: every stacked factor of one product
    shares one summed stack index, so ``[(xs, [1]), (ys, [2, 3])]`` is
    sum_j xs[j] (x) ys[j].  Output row labels are the first len(dims)
    letters; each factor's row labels are the current labels of its legs and
    it gets fresh column labels.  A leg no factor touches gets an identity on
    that leg alone.
    """
    m = len(dims)
    fresh = iter(_LABELS[m:])
    current = list(_LABELS[:m])
    operands, subscripts = [], []
    stack = ""
    try:
        for matrix, placement in factors:
            placement = [int(p) for p in placement]
            if len(set(placement)) != len(placement) or any(p < 1 or p > m for p in placement):
                raise StructuralError(f"placement {placement} invalid for {m} legs")
            leg_dims = tuple(dims[p - 1] for p in placement)
            k = prod(leg_dims)
            matrix = np.asarray(matrix, dtype=complex)
            lead = matrix.shape[:-2]  # (K,) for a stack
            if matrix.shape[-2:] != (k, k) or len(lead) > 1:
                raise StructuralError(
                    f"operator of shape {matrix.shape} cannot act on legs {placement} "
                    f"of dims {dims}"
                )
            if lead:
                stack = stack or next(fresh)
            rows = [current[p - 1] for p in placement]
            for p in placement:
                current[p - 1] = next(fresh)
            operands.append(matrix.reshape(lead + leg_dims + leg_dims))
            subscripts.append(
                (stack if lead else "") + "".join(rows) + "".join(current[p - 1] for p in placement)
            )
        for leg in range(m):
            if current[leg] == _LABELS[leg]:
                current[leg] = next(fresh)
                operands.append(np.eye(dims[leg], dtype=complex))
                subscripts.append(_LABELS[leg] + current[leg])
    except StopIteration:
        raise StructuralError("too many legs for one contraction") from None
    return operands, subscripts, _LABELS[:m] + "".join(current)


def _working_set(dims, t, factors) -> int:
    """Bytes of the tile-sized arrays ``leg_distance`` holds at once, t leg-1
    indices per tile and at most ``factors`` factors a side: the lhs tile,
    the rhs tile and one tile for einsum's operand copies and buffers; three
    or more factors add an intermediate and einsum's copy of it."""
    arrays = 3 if factors <= 2 else 5
    return arrays * 16 * (prod(dims) // dims[0] * t) ** 2


def _tile(dims, factors) -> int:
    """Largest divisor t of d1 whose working set fits in TILE_BYTES (at least 1)."""
    divisors = [t for t in range(1, dims[0] + 1) if dims[0] % t == 0]
    return max((t for t in divisors if _working_set(dims, t, factors) <= TILE_BYTES), default=1)


def leg_distance_bytes(dims, factors) -> int:
    """Peak bytes of ``leg_distance`` on ``dims``, at most ``factors`` factors a side."""
    dims = tuple(int(d) for d in dims)
    return _working_set(dims, _tile(dims, factors), factors)


def _leg1_tiles(factors, dims, t):
    """A function (i, j) -> the tile of a product of placed operators with
    leg-1 row indices i..i+t-1 and column indices j..j+t-1, as a complex
    array of its own (never a view of an operand), so the caller may write
    into it; the einsum path is planned once."""
    operands, subscripts, out = _contraction(factors, dims)
    # the leg-1 row and column labels each sit on exactly one operand axis
    row, col = out[0], out[len(dims)]
    spec = ",".join(subscripts) + "->" + out

    def sliced(i, j):
        ranges = {row: slice(i, i + t), col: slice(j, j + t)}
        return [
            op[tuple(ranges.get(label, slice(None)) for label in s)]
            for op, s in zip(operands, subscripts)
        ]

    path = np.einsum_path(spec, *sliced(0, 0), optimize="greedy")[0]

    def tile(i, j):
        ops = sliced(i, j)
        product = np.einsum(spec, *ops, optimize=path)
        # a one-operand einsum returns a view of its operand
        return product.copy() if any(np.may_share_memory(product, op) for op in ops) else product

    return tile


def leg_distance(lhs, rhs, dims) -> float:
    """Frobenius distance between two products of operators placed on legs.

    ``lhs`` and ``rhs`` list ``(matrix, placement)`` pairs, leftmost first;
    ``placement`` names the 1-based legs the matrix acts on, in the order of
    its own legs, e.g. ``[(w, [2, 3]), (w, [1, 2])]`` is W23 W12, and a
    factor may be a stack of matrices summed over a shared index (see
    ``_contraction``).  Each side is contracted tile by tile over ranges of
    the leg-1 row and column index, the rhs tile is subtracted into the lhs
    tile, walking both in the lhs tile's memory order, and the squared norms
    of the differences are summed.  Tiles are as large as ``TILE_BYTES``
    allows: one tile for a small space, down to a single leg-1 index pair
    (N^2 / d1^2 entries per side) for a large one.  The budget is kept small
    because the rhs tile is read in an axis order foreign to it, which is
    fast only while a tile fits in cache and TLB reach.
    """
    dims = tuple(int(d) for d in dims)
    t = _tile(dims, max(len(lhs), len(rhs)))
    lhs_tile, rhs_tile = _leg1_tiles(lhs, dims, t), _leg1_tiles(rhs, dims, t)
    total = 0.0
    for i in range(0, dims[0], t):
        for j in range(0, dims[0], t):
            # the previous difference is released only once this lhs tile exists;
            # freeing it earlier lets the allocator give the pages back every tile
            diff = lhs_tile(i, j)
            # einsum returns the sides as differently permuted views; walking
            # in diff's memory order gathers through the rhs tile alone
            order = np.argsort(diff.strides)[::-1]
            into = diff.transpose(order)
            np.subtract(into, rhs_tile(i, j).transpose(order), out=into)
            total += frob(diff) ** 2
    return float(np.sqrt(total))


def kron_sum(xs, ys) -> np.ndarray:
    """sum_j xs[j] (x) ys[j] for stacks xs (K, a, a) and ys (K, b, b), as an
    (ab, ab) matrix: one tensordot over j."""
    t = np.tensordot(xs, ys, (0, 0)).transpose(0, 2, 1, 3)  # rows (p, r), cols (q, s)
    return t.reshape(t.shape[0] * t.shape[1], -1)


def kron_sum_distance(xs, ys, target) -> float:
    """||kron_sum(xs, ys) - target||_F for an (ab, ab) ``target``, through the
    one tensordot temporary, from which target is subtracted in place."""
    t = np.tensordot(xs, ys, (0, 0)).transpose(0, 2, 1, 3)
    t -= np.asarray(target).reshape(t.shape)
    return frob(t)


@dataclass(frozen=True)
class SpanBasis:
    """One SVD of a stack of matrices, reused for every question about their span.

    ``q`` holds an orthonormal basis of the span as columns of flattened
    matrices; singular values at or below eps * max(shape) * sigma_max are
    dropped, the cutoff np.linalg.lstsq uses.  ``sigma`` keeps all singular
    values, and ``to_coords`` maps coordinates in ``q`` to the minimum-norm
    coefficients over the stacked matrices.
    """

    q: np.ndarray
    sigma: np.ndarray
    to_coords: np.ndarray

    def rank(self, tol: float) -> int:
        """Numerical rank with the threshold of ``numerical_rank``."""
        return _rank_above(self.sigma, tol)

    def coords(self, targets) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients of each target over the stacked matrices, and its
        Frobenius distance from the span."""
        q_coords, residuals = project_onto_span(self.q, targets)
        return q_coords @ self.to_coords.T, residuals


def span_basis(basis_mats) -> SpanBasis:
    """Factor the span of ``basis_mats`` once (see SpanBasis)."""
    a = np.asarray(basis_mats, dtype=complex).reshape(len(basis_mats), -1).T
    u, sigma, vh = np.linalg.svd(a, full_matrices=False)
    keep = sigma > np.finfo(float).eps * max(a.shape) * sigma[0]
    to_coords = vh[keep].conj().T / sigma[keep]
    return SpanBasis(freeze(u[:, keep]), freeze(sigma), freeze(to_coords))


def project_onto_span(q, targets) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projection of each target onto the column span of ``q``.

    ``q`` has orthonormal columns; ``targets`` is one matrix or a stack of
    them, each flattening to a column of ``q``.  Returns the coordinates in
    ``q`` (one row per target) and the Frobenius norm of each target minus
    its projection.
    """
    t = np.asarray(targets, dtype=complex).reshape(-1, q.shape[0])
    coords = t @ q.conj()
    residuals = np.linalg.norm(t - coords @ q.T, axis=1)
    return coords, residuals


def star_homomorphism_defects(images, mult, star, unit) -> tuple[float, np.ndarray, np.ndarray]:
    """Defects of a linear map f from an algebra to operators as a unital *-homomorphism.

    ``images[j]`` is f(e_j), a (d, d) matrix; ``mult``, ``star`` and ``unit``
    are the source algebra's structure constants in the conventions of
    ``FiniteHopfStarAlgebra`` (row i of ``star`` holds the coordinates of
    (e_i)*).  Returns the Frobenius norm of f(1) - I, the (n, n) norms of
    f(e_i e_j) - f(e_i) f(e_j) and the (n,) norms of f(e_i*) - f(e_i)*.  The
    products are formed one row i at a time, so memory stays at a few times
    that of ``images``.
    """
    f = np.asarray(images, dtype=complex)
    n, d, _ = f.shape
    flat = f.reshape(n, d * d)

    def defects(coords, targets):  # norms of f(element with coordinates coords[r]) - targets[r]
        return np.linalg.norm((coords @ flat).reshape(-1, d, d) - targets, axis=(1, 2))

    mult_norms = np.stack([defects(mult[i], f[i] @ f) for i in range(n)])
    star_norms = defects(star, f.conj().transpose(0, 2, 1))
    return float(defects(unit[None], np.eye(d))[0]), mult_norms, star_norms


def _rank_above(sigma, tol: float) -> int:
    """How many of ``sigma`` (a matrix's, or all its diagonal blocks') exceed tol * max(1, max)."""
    if sigma.size == 0:
        return 0
    return int(np.sum(sigma > tol * max(1.0, float(sigma.max()))))


def numerical_rank(vectors, tol: float) -> int:
    """Rank of the row span with singular values below tol*max(1, sigma_max) dropped."""
    a = np.asarray(vectors, dtype=complex).reshape(len(vectors), -1)
    return _rank_above(np.linalg.svd(a, compute_uv=False), tol)
