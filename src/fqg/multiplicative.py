"""The multiplicative unitary of a finite quantum group and its identity suite.

W is the matrix of a (x) b -> coproduct(a) (1 (x) b) in orthonormal GNS
coordinates.  It is unitary, satisfies the pentagon equation
W23 W12 W23* = W12 W13, implements the coproduct by conjugation, carries the
antipode as (id (x) S) W = W*, and its right slices span the dual algebra.

Functionals on the *algebra* are applied to a leg of W through the expansion
W = sum_j x_j (x) L_j, where L_j is left multiplication by the j-th basis
element and the x_j span the dual subspace; applying such functionals
entrywise would not be meaningful since they act on the algebra, not on
Hilbert-space coordinates.

``build_multiplicative_unitary`` computes this expansion once per run and
factors the stacked x_j by one SVD (``MultiplicativeUnitary.dual_span``): an
orthonormal basis Q of the dual subspace plus the map from Q-coordinates to
coordinates over the x_j.  Every dual-subspace question is answered with
that factorisation: the dimension, membership of a matrix (its distance from
span Q), the coordinates of products and adjoints (closure), and membership
of a dual coproduct in the doubled span (its distance from {Q X Q^T} after
regrouping the legs), so no pair basis is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ExpansionFailed, NotInDualSubspace
from .haar import GnsData, left_multiplication_matrix
from .hopf import DEFAULT_TOL, FiniteHopfStarAlgebra
from .report import ReportBuilder, VerificationReport
from .tensors import (
    FunctionalOnOperators,
    SpanBasis,
    TensorOperator,
    expand_in_leg,
    frob,
    kron_sum,
    leg_distance,
    max_pairwise_commutator,
    numerical_rank,
    project_onto_span,
    slice_leg,
    span_basis,
)


@dataclass(frozen=True)
class MultiplicativeUnitary:
    """W on two copies of the GNS space: the context every later stage shares.

    ``slice_basis[j]`` is the right slice of W by the j-th dual-basis
    functional of the algebra; these matrices span the dual subspace and
    W = sum_j slice_basis[j] (x) left_regular[j] up to ``expansion_residual``.
    ``dual_span`` is the one SVD of the stacked slice basis: an orthonormal
    basis ``q`` of the dual subspace and the map from coordinates in ``q`` to
    coordinates over ``slice_basis``.  ``dual_coproducts[j]`` is the dual
    coproduct W* (1 (x) x_j) W of the j-th slice-basis element.
    """

    w: TensorOperator
    algebra: FiniteHopfStarAlgebra
    gns: GnsData
    slice_basis: np.ndarray
    expansion_residual: float
    dual_span: SpanBasis
    dual_coproducts: np.ndarray

    @property
    def dim(self) -> int:
        return self.algebra.dim


def _w_in_algebra_coords(a: FiniteHopfStarAlgebra) -> np.ndarray:
    n = a.dim
    t = np.einsum("ipq,qjk->pkij", a.comult, a.mult, optimize=True)
    return t.reshape(n * n, n * n)


def build_multiplicative_unitary(
    a: FiniteHopfStarAlgebra, gns: GnsData
) -> MultiplicativeUnitary:
    """Assemble W in orthonormal coordinates with its dual-leg expansion and
    the factorisation of the dual subspace."""
    n = a.dim
    r = gns.to_onb
    q = gns.onb_change
    w_mat = np.kron(r, r) @ _w_in_algebra_coords(a) @ np.kron(q, q)
    w = TensorOperator((n, n), w_mat)
    coeffs, residual = expand_in_leg(w_mat, (n, n), gns.left_regular)
    images = _dual_coproducts(w.entries, coeffs)
    coeffs.setflags(write=False)
    images.setflags(write=False)
    return MultiplicativeUnitary(w, a, gns, coeffs, residual, span_basis(coeffs), images)


def inverse_via_antipode(a: FiniteHopfStarAlgebra, gns: GnsData) -> TensorOperator:
    """Matrix of a (x) b -> ((id (x) antipode) coproduct(a)) (1 (x) b)."""
    n = a.dim
    t = np.einsum("ipq,ql,ljk->pkij", a.comult, a.antipode, a.mult, optimize=True)
    v_mat = np.kron(gns.to_onb, gns.to_onb) @ t.reshape(n * n, n * n) @ np.kron(
        gns.onb_change, gns.onb_change
    )
    return TensorOperator((n, n), v_mat)


def verify_unitarity(wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> VerificationReport:
    w = wop.w.entries
    eye = np.eye(w.shape[0])
    rb = ReportBuilder()
    rb.add("w_unitary_wstar_w", frob(w.conj().T @ w - eye), tol)
    rb.add("w_unitary_w_wstar", frob(w @ w.conj().T - eye), tol)
    return rb.build()


def verify_inverse_via_antipode(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    v = inverse_via_antipode(wop.algebra, wop.gns).entries
    w = wop.w.entries
    rb = ReportBuilder()
    rb.add("w_inverse_composes", frob(v @ w - np.eye(w.shape[0])), tol)
    rb.add("w_inverse_is_adjoint", frob(v - w.conj().T), tol)
    return rb.build()


def pentagon_residual(w: TensorOperator) -> float:
    """Frobenius defect of W23 W12 W23* - W12 W13 on three legs."""
    n1, n2 = w.dims
    if n1 != n2:
        raise DimensionMismatch("pentagon requires equal leg dimensions", check="pentagon")
    w_mat = w.entries
    return leg_distance(
        [(w_mat, [2, 3]), (w_mat, [1, 2]), (w_mat.conj().T, [2, 3])],
        [(w_mat, [1, 2]), (w_mat, [1, 3])],
        (n1, n1, n1),
    )


def verify_pentagon(wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> VerificationReport:
    rb = ReportBuilder()
    rb.add("pentagon", pentagon_residual(wop.w), tol)
    return rb.build()


def verify_left_slices_span(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Left slices of W act by left multiplication and span the represented algebra."""
    a, gns, w = wop.algebra, wop.gns, wop.w
    n = a.dim
    slices = []
    worst = 0.0
    for i in range(n):
        for j in range(n):
            omega = FunctionalOnOperators(gns.to_onb[:, i], gns.to_onb[:, j])
            s = slice_leg(w, "left", omega)
            slices.append(s)
            # left multiplication by (haar (x) id)((e_i* (x) 1) coproduct(e_j))
            c = np.einsum("p,pq->q", gns.gram[i, :], a.comult[j, :, :])
            worst = max(worst, frob(s - left_multiplication_matrix(a, gns, c)))
    rb = ReportBuilder()
    rb.add("left_slice_acts_by_left_multiplication", worst, tol)
    rank = numerical_rank(slices, tol)
    rb.add_count("left_slice_span_dimension", rank, n)
    union_rank = numerical_rank(slices + list(gns.left_regular), tol)
    rb.add_count("left_slices_span_represented_algebra", union_rank, n)
    return rb.build()


def coproduct_operators(wop: MultiplicativeUnitary) -> np.ndarray:
    """Left multiplication by coproduct(e_j) on the doubled GNS space for
    every basis element e_j, shape (n, n^2, n^2)."""
    lr = wop.gns.left_regular
    n = wop.dim
    t = np.einsum("jpq,pac,qbd->jabcd", wop.algebra.comult, lr, lr, optimize=True)
    return t.reshape(n, n * n, n * n)


def verify_coproduct_implemented(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """W (L_a (x) 1) W* equals left multiplication by coproduct(a) for every
    basis element a; plus the global form (id (x) coproduct) W = W12 W13."""
    n, w = wop.dim, wop.w
    deltas = coproduct_operators(wop)
    conjugated = w.entries @ np.kron(wop.gns.left_regular, np.eye(n)[None]) @ w.entries.conj().T
    rb = ReportBuilder()
    worst = np.linalg.norm(conjugated - deltas, axis=(1, 2)).max()
    rb.add("conjugation_over_basis", worst, tol)

    lhs = [(wop.slice_basis, [1]), (deltas, [2, 3])]
    rhs = [(w.entries, [1, 2]), (w.entries, [1, 3])]
    rb.add("coproduct_on_second_leg_of_w", leg_distance(lhs, rhs, (n, n, n)), tol)
    return rb.build()


def _require_w_expansion(wop: MultiplicativeUnitary, tol: float) -> None:
    """Raise ExpansionFailed unless W = sum_j slice_basis[j] (x) L_j holds."""
    if wop.expansion_residual > tol * (1.0 + frob(wop.w.entries)):
        raise ExpansionFailed(
            f"W does not lie in the dual-subspace tensor algebra span "
            f"(residual {wop.expansion_residual:.3e})",
            check="w_expansion",
            residual=wop.expansion_residual,
        )


def verify_antipode_relation(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """(id (x) antipode) W = W*, the antipode transported to the second leg."""
    a, gns, w = wop.algebra, wop.gns, wop.w
    _require_w_expansion(wop, tol)
    antipodes = [
        left_multiplication_matrix(a, gns, a.apply_antipode(a.basis_element(j)))
        for j in range(a.dim)
    ]
    lhs = kron_sum(wop.slice_basis, antipodes)
    rb = ReportBuilder()
    rb.add("antipode_on_second_leg_of_w", frob(lhs - w.entries.conj().T), tol)
    return rb.build()


@dataclass(frozen=True)
class DualSubspace:
    """Span of the right slices of W, closed under product and adjoint.

    ``basis[j]`` is the slice of W by the j-th dual-basis functional, so
    W = sum basis_j (x) left_regular_j.  ``closure_residual`` is the largest
    distance of a product or adjoint of basis elements from the span.
    """

    basis: np.ndarray
    closure_residual: float


def slice_products_and_adjoints(
    wop: MultiplicativeUnitary,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Coordinates over the slice basis of every product basis_i basis_j
    (shape (n, n, n)) and adjoint basis_i* (shape (n, n)), and the largest
    distance of any of them from the dual subspace."""
    n = wop.dim
    basis = wop.slice_basis
    product_coords, product_res = wop.dual_span.coords(basis[:, None] @ basis[None, :])
    star_coords, star_res = wop.dual_span.coords(basis.conj().transpose(0, 2, 1))
    closure = float(max(product_res.max(), star_res.max()))
    return product_coords.reshape(n, n, n), star_coords, closure


def build_dual_subspace(wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> DualSubspace:
    """Basis of the dual subspace with closure and dimension certificates."""
    n = wop.dim
    w = wop.w
    _require_w_expansion(wop, tol)
    rank = wop.dual_span.rank(tol)
    if rank != n:
        raise DimensionMismatch(
            f"dual subspace has dimension {rank}, expected {n}",
            check="dual_subspace_dimension",
            residual=float(rank),
        )
    # every entrywise right slice must already lie in the span: slice (r, s)
    # is the leg-1 matrix W[(p, r), (q, s)] over (p, q)
    all_slices = w.as_legs().transpose(1, 3, 0, 2).reshape(n * n, n, n)
    slice_coords, residuals = project_onto_span(wop.dual_span.q, all_slices)
    worst_member = float(residuals.max())
    if worst_member > tol * (1.0 + frob(w.entries)):
        raise DimensionMismatch(
            f"a right slice escapes the dual subspace (residual {worst_member:.3e})",
            check="dual_subspace_membership",
            residual=worst_member,
        )
    if numerical_rank(slice_coords, tol) != n:
        raise DimensionMismatch(
            "right slices of W do not span an n-dimensional space",
            check="dual_subspace_dimension",
        )
    _, _, closure = slice_products_and_adjoints(wop)
    return DualSubspace(wop.slice_basis, closure)


def _dual_coproducts(w, xs) -> np.ndarray:
    """W* (1 (x) x) W for each x in the stack ``xs``, by two batched matmuls:
    (1 (x) x) W multiplies x into the second row leg of W for each first one."""
    k, n, _ = xs.shape
    one_x_w = xs[:, None] @ w.reshape(n, n, n * n)
    return w.conj().T @ one_x_w.reshape(k, n * n, n * n)


def dual_coproduct(wop: MultiplicativeUnitary, x) -> np.ndarray:
    """W* (1 (x) x) W, the coproduct of the dual quantum group."""
    return _dual_coproducts(wop.w.entries, np.asarray(x, dtype=complex)[None])[0]


def _doubled_span_residuals(wop: MultiplicativeUnitary, ys) -> np.ndarray:
    """Distance of each operator in the stack ``ys`` from span{x_i (x) x_j}:
    regrouping legs turns kron(x_i, x_j) into x_i x_j^T over flattened
    matrices, so that span is {Q X Q^T}."""
    n = wop.dim
    q = wop.dual_span.q
    z = ys.reshape(-1, n, n, n, n).transpose(0, 1, 3, 2, 4).reshape(-1, n * n, n * n)
    return np.linalg.norm(z - q @ (q.conj().T @ z @ q.conj()) @ q.T, axis=(1, 2))


def dual_coproduct_checked(
    wop: MultiplicativeUnitary, x, tol: float = DEFAULT_TOL
) -> tuple[TensorOperator, VerificationReport]:
    """Dual coproduct of ``x`` plus membership certificates.

    Raises NotInDualSubspace when ``x`` is not in the span of the right
    slices; reports whether the image lies in the doubled span.
    """
    x = np.asarray(x, dtype=complex)
    n = wop.dim
    _, residuals = project_onto_span(wop.dual_span.q, x)
    res_x = float(residuals[0])
    if res_x > tol * (1.0 + frob(x)):
        raise NotInDualSubspace(
            f"matrix is not in the dual subspace (residual {res_x:.3e})",
            check="dual_subspace_membership",
            residual=res_x,
        )
    y = dual_coproduct(wop, x)
    res_y = float(_doubled_span_residuals(wop, y)[0])
    rb = ReportBuilder()
    rb.add("dual_coproduct_in_doubled_span", res_y, tol * (1.0 + frob(y)))
    return TensorOperator((n, n), y), rb.build()


def verify_dual_coproduct_identities(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Global laws of the dual coproduct.

    Checks (dual-coproduct (x) id) W = W13 W23, coassociativity on the slice
    basis, the *-homomorphism property on the slice basis, and that the
    image of every slice-basis element lies in the doubled span.
    """
    n = wop.dim
    rb = ReportBuilder()

    ambient = (n, n, n)
    w_mat = wop.w.entries
    w_adj = w_mat.conj().T
    images = wop.dual_coproducts
    lhs = [(images, [1, 2]), (wop.gns.left_regular, [3])]
    rhs = [(w_mat, [1, 3]), (w_mat, [2, 3])]
    rb.add("dual_coproduct_on_first_leg_of_w", leg_distance(lhs, rhs, ambient), tol)

    worst_coassoc = 0.0
    worst_mult = 0.0
    for x, dx in zip(wop.slice_basis, images):
        # (dual-coproduct (x) id) of dx conjugates legs 1,2; (id (x) dual-coproduct)
        # conjugates legs 2,3 with dx placed on legs 1,3.
        first = [(w_adj, [1, 2]), (dx, [2, 3]), (w_mat, [1, 2])]
        second = [(w_adj, [2, 3]), (dx, [1, 3]), (w_mat, [2, 3])]
        worst_coassoc = max(worst_coassoc, leg_distance(first, second, ambient))
        for y, dy in zip(wop.slice_basis, images):
            worst_mult = max(worst_mult, frob(dual_coproduct(wop, x @ y) - dx @ dy))
    adjoints = wop.slice_basis.conj().transpose(0, 2, 1)
    star = _dual_coproducts(w_mat, adjoints) - images.conj().transpose(0, 2, 1)
    rb.add("dual_coproduct_coassociative", worst_coassoc, tol)
    rb.add("dual_coproduct_star_homomorphism", np.linalg.norm(star, axis=(1, 2)).max(), tol)
    rb.add("dual_coproduct_multiplicative", worst_mult, tol)
    rb.add("image_in_doubled_span", _doubled_span_residuals(wop, images).max(), tol)
    return rb.build()


def dual_subspace_commutativity_defect(wop: MultiplicativeUnitary) -> float:
    """Largest commutator norm within the dual subspace basis."""
    return max_pairwise_commutator(list(wop.slice_basis))
