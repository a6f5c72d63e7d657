"""The multiplicative unitary of a finite quantum group and its identity suite.

W is the matrix of a (x) b -> coproduct(a) (1 (x) b) in orthonormal GNS
coordinates.  It is unitary, satisfies the pentagon equation
W23 W12 W23* = W12 W13, implements the coproduct by conjugation, carries the
antipode as (id (x) S) W = W*, and its right slices span the dual algebra.

Functionals on the *algebra* are applied to a leg of W through the expansion
W = sum_j x_j (x) L_j, where L_j is left multiplication by the j-th basis
element and the x_j span the dual subspace; applying such functionals
entrywise would not be meaningful since they act on the algebra, not on
Hilbert-space coordinates.  Vector functionals on Hilbert-space coordinates
are applied entrywise: the slices of W by a whole family of them are one
einsum over W's leg tensor.  Sums over the expansion, such as
(id (x) antipode) W, enter ``leg_distance`` as stacked leg factors.

``build_multiplicative_unitary`` computes this expansion once per run and
factors the stacked x_j by one SVD (``MultiplicativeUnitary.dual_span``): an
orthonormal basis Q of the dual subspace plus the map from Q-coordinates to
coordinates over the x_j.  Every dual-subspace question is answered with
that factorisation: the dimension, membership of a matrix (its distance from
span Q), the coordinates of products and adjoints (closure), and membership
of a dual coproduct in the doubled span (its distance from {Q X Q^T} after
regrouping the legs), so no pair basis is ever built.

Coassociativity and multiplicativity of the dual coproduct are reported as
certified upper bounds (coefficient tensors over Q (x) Q (x) Q plus projection
remainders, and ||W||^2 max ||x_j||^2 ||I - WW*||), each with a rounding
allowance 4 n^2 eps (1 + ||W*W - I||) times its scale; a bound above the
tolerance gives way to the exact contraction.  The same 4 n^2 eps is the
floor of every guard that ends a stage, so a tolerance below rounding is
reported as failing checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ExpansionFailed, NotInDualSubspace
from .haar import GnsData
from .hopf import DEFAULT_TOL, FiniteHopfStarAlgebra
from .report import ReportBuilder, VerificationReport
from .tensors import (
    SpanBasis,
    TensorOperator,
    expand_in_leg,
    frob,
    leg_distance,
    numerical_rank,
    project_onto_span,
    rounding_allowance,
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


def _in_onb(gns: GnsData, t: np.ndarray) -> TensorOperator:
    """The two-leg operator with algebra-coordinate entries t[p, k, i, j], in
    orthonormal GNS coordinates."""
    n = gns.to_onb.shape[0]
    r, q = gns.to_onb, gns.onb_change
    return TensorOperator((n, n), np.kron(r, r) @ t.reshape(n * n, n * n) @ np.kron(q, q))


def build_multiplicative_unitary(
    a: FiniteHopfStarAlgebra, gns: GnsData
) -> MultiplicativeUnitary:
    """Assemble W in orthonormal coordinates with its dual-leg expansion and
    the factorisation of the dual subspace."""
    n = a.dim
    w = _in_onb(gns, np.einsum("ipq,qjk->pkij", a.comult, a.mult, optimize=True))
    coeffs, residual = expand_in_leg(w.entries, (n, n), gns.left_regular)
    images = _dual_coproducts(w.entries, coeffs)
    coeffs.setflags(write=False)
    images.setflags(write=False)
    return MultiplicativeUnitary(w, a, gns, coeffs, residual, span_basis(coeffs), images)


def inverse_via_antipode(a: FiniteHopfStarAlgebra, gns: GnsData) -> TensorOperator:
    """Matrix of a (x) b -> ((id (x) antipode) coproduct(a)) (1 (x) b)."""
    return _in_onb(gns, np.einsum("ipq,ql,ljk->pkij", a.comult, a.antipode, a.mult, optimize=True))


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
    """Left slices of W act by left multiplication and span the represented algebra.

    The slice of W by the vector functional T -> <e_i, T e_j> on its first
    leg (GNS vectors of the basis, antilinear in the bra) is left
    multiplication by (haar (x) id)((e_i* (x) 1) coproduct(e_j)); all n^2
    slices, and all their targets, are one einsum each.
    """
    a, gns = wop.algebra, wop.gns
    n = a.dim
    r = gns.to_onb
    slices = np.einsum("pi,prqs,qj->ijrs", r.conj(), wop.w.as_legs(), r, optimize=True)
    targets = np.einsum("ip,jpq,qrs->ijrs", gns.gram, a.comult, gns.left_regular, optimize=True)
    slices = slices.reshape(n * n, n, n)
    worst = np.linalg.norm(slices - targets.reshape(n * n, n, n), axis=(1, 2)).max()
    rb = ReportBuilder()
    rb.add("left_slice_acts_by_left_multiplication", float(worst), tol)
    rb.add_count("left_slice_span_dimension", numerical_rank(slices, tol), n)
    union_rank = numerical_rank(np.concatenate([slices, gns.left_regular]), tol)
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
    # (L_a (x) 1) W* multiplies L_a into the first row leg of W*
    l_w_adj = wop.gns.left_regular @ w.entries.conj().T.reshape(n, n**3)
    conjugated = w.entries @ l_w_adj.reshape(n, n * n, n * n)
    del l_w_adj  # one (n, n^2, n^2) stack fewer alive for the difference
    conjugated -= deltas
    rb = ReportBuilder()
    rb.add("conjugation_over_basis", np.max([frob(d) for d in conjugated]), tol)

    lhs = [(wop.slice_basis, [1]), (deltas, [2, 3])]
    rhs = [(w.entries, [1, 2]), (w.entries, [1, 3])]
    rb.add("coproduct_on_second_leg_of_w", leg_distance(lhs, rhs, (n, n, n)), tol)
    return rb.build()


def _require_w_expansion(wop: MultiplicativeUnitary, tol: float) -> None:
    """Raise ExpansionFailed unless W = sum_j slice_basis[j] (x) L_j holds."""
    if wop.expansion_residual > max(tol, rounding_allowance(wop.dim)) * (1.0 + frob(wop.w.entries)):
        raise ExpansionFailed(
            f"W does not lie in the dual-subspace tensor algebra span "
            f"(residual {wop.expansion_residual:.3e})",
            check="w_expansion",
            residual=wop.expansion_residual,
        )


def verify_antipode_relation(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """(id (x) antipode) W = W*, the antipode transported to the second leg:
    sum_j x_j (x) L(S(e_j)) against W*, with L(S(e_j)) = sum_k S[j, k] L_k."""
    a, n = wop.algebra, wop.dim
    _require_w_expansion(wop, tol)
    antipodes = np.einsum("jk,kab->jab", a.antipode, wop.gns.left_regular)
    lhs = [(wop.slice_basis, [1]), (antipodes, [2])]
    residual = leg_distance(lhs, [(wop.w.entries.conj().T, [1, 2])], (n, n))
    rb = ReportBuilder()
    rb.add("antipode_on_second_leg_of_w", residual, tol)
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
    if worst_member > max(tol, rounding_allowance(n)) * (1.0 + frob(w.entries)):
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


def _doubled_span_coords(wop: MultiplicativeUnitary, ys) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates C of each operator in the stack ``ys`` over the orthonormal
    pairs Q_a (x) Q_b, and its distance from their span: regrouping legs turns
    kron(x_i, x_j) into x_i x_j^T over flattened matrices, so that span is
    {Q X Q^T} and C = Q* Z conj(Q)."""
    n = wop.dim
    q = wop.dual_span.q
    z = np.array(ys.reshape(-1, n, n, n, n).transpose(0, 1, 3, 2, 4)).reshape(-1, n * n, n * n)
    coeffs = q.conj().T @ z @ q.conj()
    z -= q @ coeffs @ q.T
    return coeffs, np.array([frob(d) for d in z])


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
    if res_x > max(tol, rounding_allowance(n)) * (1.0 + frob(x)):
        raise NotInDualSubspace(
            f"matrix is not in the dual subspace (residual {res_x:.3e})",
            check="dual_subspace_membership",
            residual=res_x,
        )
    y = dual_coproduct(wop, x)
    res_y = float(_doubled_span_coords(wop, y)[1][0])
    rb = ReportBuilder()
    rb.add("dual_coproduct_in_doubled_span", res_y, tol * (1.0 + frob(y)))
    return TensorOperator((n, n), y), rb.build()


def _exact_coassociativity(wop: MultiplicativeUnitary) -> float:
    """Largest coassociativity defect over the slice basis by leg contraction:
    (dual-coproduct (x) id) of dx conjugates legs 1,2; (id (x) dual-coproduct)
    conjugates legs 2,3 with dx placed on legs 1,3."""
    n, w_mat = wop.dim, wop.w.entries
    w_adj = w_mat.conj().T
    return max(
        leg_distance([(w_adj, [1, 2]), (dx, [2, 3]), (w_mat, [1, 2])],
                     [(w_adj, [2, 3]), (dx, [1, 3]), (w_mat, [2, 3])], (n, n, n))
        for dx in wop.dual_coproducts
    )


def _exact_multiplicativity(wop: MultiplicativeUnitary) -> float:
    """Largest multiplicativity defect over pairs of slice-basis elements."""
    pairs = list(zip(wop.slice_basis, wop.dual_coproducts))
    return max(frob(dual_coproduct(wop, x @ y) - dx @ dy) for x, dx in pairs for y, dy in pairs)


def _add_bounded(rb: ReportBuilder, name: str, bound: float, tol: float, exact, wop) -> None:
    """Report ``bound`` if it is within ``tol``, else the value of ``exact(wop)``."""
    if bound <= tol:
        rb.add(name, bound, tol, "certified upper bound on the residual")
    else:
        rb.add(name, exact(wop), tol, f"exact contraction; certified bound {bound:.3e} exceeds tol")


def verify_dual_coproduct_identities(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Global laws of the dual coproduct.

    Checks (dual-coproduct (x) id) W = W13 W23, coassociativity, the
    *-homomorphism property and multiplicativity on the slice basis, and that
    the image of every slice-basis element lies in the doubled span.

    The *-homomorphism check writes x_j* = sum_k c_jk x_k over the slice
    basis (``dual_span.coords``) and compares sum_k c_jk dual-coproduct(x_k)
    with dual-coproduct(x_j)*.  Comparing dual-coproduct(x*) itself would
    prove nothing: W*(1 (x) x*)W is the adjoint of W*(1 (x) x)W for every
    matrix W.  The residual is the image of the part of x_j* that the slice
    span misses, so it fails when that span is not closed under adjoint.

    Coassociativity and multiplicativity report upper bounds valid for any W,
    with w2 = 1 + ||W*W - I||_F >= ||W||_2^2 (and ||WW* - I||_F = w2 - 1) and
    the allowance e = 4 n^2 eps w2 for floating-point rounding.  With
    dual-coproduct(x_j) = sum C_ab Q_a (x) Q_b + R_j over the orthonormal Q_a,
    and C^a for Q_a by linearity through T = ``dual_span.to_coords``, the
    coassociativity defect is at most ||sum_a C_ak C^a_ij - sum_b C_ib C^b_jk||
    + (2 ||T||_2 (sum_j ||R_j||^2)^1/2 + e) ||C|| + 2 sqrt(n) w2 ||R_j||.  The
    multiplicativity defect W*(1 (x) x)(I - WW*)(1 (x) y)W is at most
    w2 max_j ||x_j||_2^2 (w2 - 1 + 4 n^2 eps).  A bound above ``tol`` gives
    way to the exact contraction, so no verdict rests on the slack.
    """
    n = wop.dim
    rb = ReportBuilder()

    w_mat = wop.w.entries
    w_adj = w_mat.conj().T
    images = wop.dual_coproducts
    lhs = [(images, [1, 2]), (wop.gns.left_regular, [3])]
    rhs = [(w_mat, [1, 3]), (w_mat, [2, 3])]
    rb.add("dual_coproduct_on_first_leg_of_w", leg_distance(lhs, rhs, (n, n, n)), tol)

    w2 = 1.0 + frob(w_adj @ w_mat - np.eye(n * n))  # W*W - I and WW* - I have equal norms
    rounding = rounding_allowance(n)
    coeffs, remainders = _doubled_span_coords(wop, images)
    t = wop.dual_span.to_coords
    up = np.einsum("ja,jcd->acd", t, coeffs).reshape(t.shape[1], -1)  # C^a over (c, d)
    slack = 2 * np.linalg.norm(t, 2) * np.linalg.norm(remainders) + rounding * w2
    coassoc = np.max([
        frob((up.T @ c).ravel() - (c @ up).ravel()) + slack * frob(c) + 2 * np.sqrt(n) * w2 * r
        for c, r in zip(coeffs, remainders)
    ])
    mult = w2 * np.linalg.norm(wop.slice_basis, 2, axis=(1, 2)).max() ** 2 * (w2 - 1 + rounding)

    star_coords, _ = wop.dual_span.coords(wop.slice_basis.conj().transpose(0, 2, 1))
    star = (star_coords @ images.reshape(n, -1)).reshape(images.shape)
    # |conj(a) - b^T| = |a - b*| entrywise, so conjugating in place spares a stack
    np.conjugate(star, out=star)
    star -= images.transpose(0, 2, 1)
    _add_bounded(rb, "dual_coproduct_coassociative", coassoc, tol, _exact_coassociativity, wop)
    rb.add("dual_coproduct_star_homomorphism", np.max([frob(d) for d in star]), tol)
    _add_bounded(rb, "dual_coproduct_multiplicative", mult, tol, _exact_multiplicativity, wop)
    rb.add("image_in_doubled_span", remainders.max(), tol)
    return rb.build()


def dual_subspace_commutativity_defect(wop: MultiplicativeUnitary) -> float:
    """Largest commutator norm within the dual subspace basis."""
    x = wop.slice_basis
    products = x[:, None] @ x[None]
    return float(np.linalg.norm(products - products.transpose(1, 0, 2, 3), axis=(2, 3)).max())
