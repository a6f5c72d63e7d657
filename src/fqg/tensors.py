"""Dense complex operators on tensor products of small Hilbert spaces.

Conventions used throughout the package:

- Legs are numbered from 1, matching the usual subscript notation for
  operators like W12 acting on chosen factors of a tensor product.
- The basis of a tensor product is ordered row-major with leg 1 slowest,
  i.e. index(i1, ..., ik) = ((i1*d2 + i2)*d3 + ...), which is exactly the
  ordering produced by numpy.kron.
- Vector functionals are antilinear in the bra and linear in the ket.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import StructuralError


def frob(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a)))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TensorOperator:
    """A square operator on a tensor product, tagged with its leg dimensions.

    ``entries`` is (N, N) with N = prod(dims).  For operators between tensor
    products with permuted factors (the flip), ``dims`` records the codomain
    legs; the matrix is still square because the total dimension agrees.
    """

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise StructuralError(f"leg dimensions must be positive, got {dims}")
        entries = np.asarray(self.entries, dtype=complex)
        n = prod(dims)
        if entries.shape != (n, n):
            raise StructuralError(
                f"entries must be {n}x{n} for dims {dims}, got {entries.shape}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", _freeze(entries))

    @property
    def n_legs(self) -> int:
        return len(self.dims)

    def adjoint(self) -> TensorOperator:
        return TensorOperator(self.dims, self.entries.conj().T)

    def __matmul__(self, other: TensorOperator) -> TensorOperator:
        if self.dims != other.dims:
            raise StructuralError(f"cannot compose dims {self.dims} with {other.dims}")
        return TensorOperator(self.dims, self.entries @ other.entries)

    def as_legs(self) -> np.ndarray:
        """View the matrix as a 2k-axis array (row legs first, column legs last)."""
        return self.entries.reshape(self.dims + self.dims)


def identity_operator(dims) -> TensorOperator:
    dims = tuple(int(d) for d in dims)
    return TensorOperator(dims, np.eye(prod(dims), dtype=complex))


def flip(dim_a: int, dim_b: int) -> TensorOperator:
    """The flip a (x) b -> b (x) a as a permutation matrix.

    Domain legs are (dim_a, dim_b); the recorded dims are the codomain
    (dim_b, dim_a).  When dim_a == dim_b the flip is an involution.
    """
    if dim_a < 1 or dim_b < 1:
        raise StructuralError("flip dimensions must be positive")
    n = dim_a * dim_b
    sigma = np.zeros((n, n), dtype=complex)
    for a in range(dim_a):
        for b in range(dim_b):
            sigma[b * dim_a + a, a * dim_b + b] = 1.0
    return TensorOperator((dim_b, dim_a), sigma)


def embed_legs(x: TensorOperator, placement, ambient) -> TensorOperator:
    """Let ``x`` act on the named legs of the ambient space, identity elsewhere.

    ``placement`` lists 1-based ambient leg numbers, one per leg of ``x`` and
    in the order of x's legs; e.g. embedding W on legs [1, 3] of a 3-leg
    space produces the operator usually written W13.
    """
    placement = [int(p) for p in placement]
    ambient = tuple(int(d) for d in ambient)
    m = len(ambient)
    if len(placement) != x.n_legs:
        raise StructuralError(
            f"placement names {len(placement)} legs but operator has {x.n_legs}"
        )
    if len(set(placement)) != len(placement):
        raise StructuralError(f"repeated leg index in placement {placement}")
    if any(p < 1 or p > m for p in placement):
        raise StructuralError(f"placement {placement} out of range for {m} legs")
    for t, p in enumerate(placement):
        if x.dims[t] != ambient[p - 1]:
            raise StructuralError(
                f"leg {t + 1} of operator has dim {x.dims[t]} but ambient leg "
                f"{p} has dim {ambient[p - 1]}"
            )
    rest = [l for l in range(1, m + 1) if l not in placement]
    order = placement + rest
    rest_dim = prod(ambient[l - 1] for l in rest)
    big = np.kron(x.entries, np.eye(rest_dim, dtype=complex))
    dims_in_order = tuple(ambient[l - 1] for l in order)
    tensor = big.reshape(dims_in_order + dims_in_order)
    # Current axis j carries ambient leg order[j]; sort legs back to 1..m.
    axes = sorted(range(m), key=lambda j: order[j])
    tensor = tensor.transpose([*axes, *(m + j for j in axes)])
    n = prod(ambient)
    return TensorOperator(ambient, tensor.reshape(n, n))


@dataclass(frozen=True)
class FunctionalOnOperators:
    """The vector functional T -> <bra, T ket> on operators of one leg."""

    bra: np.ndarray
    ket: np.ndarray

    def __post_init__(self):
        bra = np.asarray(self.bra, dtype=complex).reshape(-1)
        ket = np.asarray(self.ket, dtype=complex).reshape(-1)
        if bra.shape != ket.shape or bra.size < 1:
            raise StructuralError("bra and ket must be vectors of equal positive length")
        object.__setattr__(self, "bra", _freeze(bra))
        object.__setattr__(self, "ket", _freeze(ket))

    @property
    def dim(self) -> int:
        return self.bra.size


def matrix_unit_functional(dim: int, i: int, j: int) -> FunctionalOnOperators:
    """The functional T -> T[i, j] on dim x dim matrices."""
    bra = np.zeros(dim, dtype=complex)
    ket = np.zeros(dim, dtype=complex)
    bra[i] = 1.0
    ket[j] = 1.0
    return FunctionalOnOperators(bra, ket)


def slice_leg(x: TensorOperator, side: str, omega: FunctionalOnOperators) -> np.ndarray:
    """Apply ``omega`` to one leg of a 2-leg operator, returning the other-leg matrix.

    side="left" computes (omega (x) id) x, side="right" computes (id (x) omega) x.
    """
    if x.n_legs != 2:
        raise StructuralError(f"slice needs a 2-leg operator, got {x.n_legs} legs")
    d1, d2 = x.dims
    t = x.as_legs()  # axes (p, r, q, s): rows (p, r), columns (q, s)
    if side == "left":
        if omega.dim != d1:
            raise StructuralError(f"functional dim {omega.dim} != leg dim {d1}")
        return np.einsum("p,prqs,q->rs", omega.bra.conj(), t, omega.ket)
    if side == "right":
        if omega.dim != d2:
            raise StructuralError(f"functional dim {omega.dim} != leg dim {d2}")
        return np.einsum("r,prqs,s->pq", omega.bra.conj(), t, omega.ket)
    raise StructuralError(f"side must be 'left' or 'right', got {side!r}")


def op_distance(x: TensorOperator, y: TensorOperator) -> float:
    """Frobenius distance between two operators with identical leg structure."""
    if x.dims != y.dims:
        raise StructuralError(f"dims differ: {x.dims} vs {y.dims}")
    return frob(x.entries - y.entries)


def kron_sum(xs, ys) -> np.ndarray:
    """sum_j kron(xs[j], ys[j]) for two equally long stacks of matrices."""
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    _, a, b = xs.shape
    _, c, d = ys.shape
    return np.tensordot(xs, ys, axes=(0, 0)).transpose(0, 2, 1, 3).reshape(a * c, b * d)


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
    a = np.stack([np.asarray(b, dtype=complex).reshape(-1) for b in basis_mats], axis=1)
    u, sigma, vh = np.linalg.svd(a, full_matrices=False)
    keep = sigma > np.finfo(float).eps * max(a.shape) * sigma[0]
    to_coords = vh[keep].conj().T / sigma[keep]
    return SpanBasis(_freeze(u[:, keep]), _freeze(sigma), _freeze(to_coords))


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


def expand_in_leg(matrix, dims, basis_mats) -> tuple[np.ndarray, float]:
    """Expand a 2-leg operator as X = sum_b C_b (x) basis_b in its second leg.

    Returns the stack of C_b matrices on leg 1 and the residual, the
    Frobenius norm of the unexplained part; it vanishes exactly when the
    matrix lies in L(leg 1) (x) span(basis).
    """
    d1, d2 = (int(dims[0]), int(dims[1]))
    x = np.asarray(matrix, dtype=complex)
    if x.shape != (d1 * d2, d1 * d2):
        raise StructuralError(f"matrix shape {x.shape} does not match dims {dims}")
    a = np.stack([np.asarray(b, dtype=complex).reshape(-1) for b in basis_mats], axis=1)
    rhs = x.reshape(d1, d2, d1, d2).transpose(1, 3, 0, 2).reshape(d2 * d2, d1 * d1)
    coeffs, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return coeffs.reshape(a.shape[1], d1, d1), frob(a @ coeffs - rhs)


def _rank_above(sigma, tol: float) -> int:
    if sigma.size == 0:
        return 0
    return int(np.sum(sigma > tol * max(1.0, float(sigma[0]))))


def numerical_rank(vectors, tol: float = 1e-9) -> int:
    """Rank of the row span with singular values below tol*max(1, sigma_max) dropped."""
    a = np.stack([np.asarray(v, dtype=complex).reshape(-1) for v in vectors])
    return _rank_above(np.linalg.svd(a, compute_uv=False), tol)


def max_pairwise_commutator(mats) -> float:
    """Largest Frobenius norm of [A, B] over all pairs from ``mats``."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    worst = 0.0
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            worst = max(worst, frob(a @ b - b @ a))
    return worst
