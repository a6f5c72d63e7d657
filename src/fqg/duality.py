"""The dual Hopf *-algebra, the slice isomorphism onto the dual subspace,
and the Fourier transform a -> haar( . a).

The dual algebra lives on the dual basis of the primal basis, so five of
its structure tensors are index transposes of the primal ones: convolution
is the transpose of the coproduct, the dual coproduct is the transpose of
the product, the unit is the counit, and so on.  Taking the dual twice
therefore reproduces those five exactly.  The involution is the matrix
product (antipode @ conj(star)).T, so the double dual's involution agrees
with the primal one only up to rounding in a general basis.
"""

from __future__ import annotations

import numpy as np

from .haar import Functional, compute_haar, fourier_matrix, gns_construct, haar_invariance_residual
from .hopf import DEFAULT_TOL, FiniteHopfStarAlgebra
from .multiplicative import MultiplicativeUnitary, _add_bounded
from .report import ReportBuilder, VerificationReport
from .tensors import frob, star_homomorphism_defects


def _dual_product_and_star(a: FiniteHopfStarAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """The product of the dual, the coproduct read as a product, and its involution."""
    return np.einsum("kij->ijk", a.comult), (a.antipode @ np.conj(a.star)).T


def build_dual(a: FiniteHopfStarAlgebra) -> FiniteHopfStarAlgebra:
    """The dual Hopf *-algebra on the dual basis."""
    name = f"dual:{a.name}" if a.name else "dual"
    mult, star = _dual_product_and_star(a)
    return FiniteHopfStarAlgebra(
        dim=a.dim,
        basis_labels=tuple(f"{lbl}^" for lbl in a.basis_labels),
        mult=mult,
        comult=np.einsum("jki->ijk", a.mult),
        unit=a.counit.copy(),
        counit=a.unit.copy(),
        antipode=a.antipode.T.copy(),
        star=star,
        name=name,
    )


def verify_dual_algebra(a: FiniteHopfStarAlgebra, dual: FiniteHopfStarAlgebra,
                        tol: float = DEFAULT_TOL) -> VerificationReport:
    """The closed-form Haar state of ``dual`` is invariant with a positive Gram
    matrix, raising as ``gns_construct`` does, and the dual of ``dual`` is ``a``."""
    dual_h = compute_haar(dual)
    gns_construct(dual, dual_h, tol)
    rb = ReportBuilder()
    rb.add("haar_invariance", haar_invariance_residual(dual, dual_h), tol * dual.structure_scale())
    # five of the six double-dual tensors are pure index transposes of the
    # primal ones; star goes through a matrix product and so may round
    double = build_dual(dual)
    fields = ("mult", "comult", "unit", "counit", "antipode")
    exact = max(float(np.max(np.abs(getattr(double, f) - getattr(a, f)))) for f in fields)
    rb.add("double_dual_is_primal", exact, 0.0, detail="exact tensor equality")
    rb.add("double_dual_star", float(np.max(np.abs(double.star - a.star))), tol * a.structure_scale())
    return rb.build()


def verify_G_isomorphism(wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> VerificationReport:
    """The slice map is a *-algebra isomorphism from the dual of ``wop.algebra``
    onto the dual subspace.

    Checks: unit goes to the identity, injectivity (full rank of the images
    of the dual basis), multiplicativity against convolution, compatibility
    with the involutions, and the exchange of the dual coproduct with the
    conjugation coproduct on the dual subspace.  The slice map sends the
    j-th dual-basis functional to ``slice_basis[j]``; products, adjoints and the
    unit of functionals are those of ``build_dual(wop.algebra)``, read off the
    algebra without building the dual.

    ``intertwines_coproducts`` reports the certified bound r_i of
    ``sandwich_certificate``; above ``tol``, or NaN, the exact distance:
    dual-coproduct(x_i) is C_i over the orthonormal Q_a (x) Q_b plus a part of
    norm r_i orthogonal to them (``dual_coproduct_coords``).  With R = Q* X,
    sum_pq m_pqi x_p (x) x_q = sum_ab (R m_i R^T)_ab Q_a (x) Q_b (m_pqi: e_i in
    e_p e_q), so their distance is exactly sqrt(||C_i - R m_i R^T||_F^2 + r_i^2).
    """
    a = wop.algebra
    n = a.dim
    unit, mult, star = star_homomorphism_defects(wop.slice_basis, *_dual_product_and_star(a), a.counit)
    rb = ReportBuilder()
    rb.add("unit_of_dual_goes_to_identity", unit, tol)
    rb.add_count("injective_on_dual_basis", wop.dual_span.rank(tol), n)
    rb.add("multiplicative_for_convolution", float(mult.max()), tol)
    rb.add("star_compatible", float(star.max()), tol)

    def exact(w, _):
        coeffs, remainders = w.dual_coproduct_coords
        r = w.dual_span.q.conj().T @ w.slice_basis.reshape(n, -1).T
        pairs = r @ a.mult.transpose(2, 0, 1) @ r.T
        worst = np.sqrt(np.linalg.norm(coeffs - pairs, axis=(1, 2)) ** 2 + remainders ** 2).max()
        return float(worst), False

    bound = float(wop.sandwich_certificate[4].max())
    _add_bounded(rb, "intertwines_coproducts", bound, tol, exact, wop)
    return rb.build()


def verify_fourier(
    a: FiniteHopfStarAlgebra, h: Functional, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Invertibility of the Fourier transform and its value on the unit."""
    n = a.dim
    f = fourier_matrix(a, h)
    rb = ReportBuilder()
    sigma = np.linalg.svd(f, compute_uv=False)
    cond = float(sigma[0] / sigma[-1]) if sigma[-1] > 0 else np.inf
    rb.add(
        "invertible",
        max(0.0, tol - float(sigma[-1])),
        0.0,
        detail=f"condition number {cond:.3e}",
    )
    if sigma[-1] > 0:
        f_inv = np.linalg.inv(f)
        rb.add("inverse_round_trip", frob(f_inv @ f - np.eye(n)), max(tol, tol * cond))
    else:
        rb.add("inverse_round_trip", np.nan, tol, "transform is singular")
    rb.add("unit_maps_to_haar", frob(f @ a.unit - h.coords), tol)
    return rb.build()


def verify_fourier_slice_identity(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """The slice image of the Fourier transform matches the entrywise slice.

    For each basis element a, the functional haar( . a) applied to the second
    leg of W through the algebra expansion must agree with the entrywise
    vector slice by bra = unit, ket = a, the basis being orthonormal
    (antilinear in the bra).  This guards the functional-application path of
    the implementation; each path is one product over all basis elements.
    """
    a, n = wop.algebra, wop.dim
    expansion_path = (fourier_matrix(a, wop.haar).T @ wop.slice_basis.reshape(n, -1)).reshape(n, n, n)
    entrywise_path = (a.unit.conj() @ wop.w.reshape(n, n, n * n)).reshape(n, n, n).transpose(2, 0, 1)
    worst = np.linalg.norm(expansion_path - entrywise_path, axis=(1, 2)).max()
    rb = ReportBuilder()
    rb.add("fourier_slice_closed_form", float(worst), tol)
    return rb.build()
