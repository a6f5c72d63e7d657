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

from .haar import Functional, fourier_matrix
from .hopf import DEFAULT_TOL, FiniteHopfStarAlgebra
from .multiplicative import MultiplicativeUnitary
from .report import ReportBuilder, VerificationReport
from .tensors import frob, star_homomorphism_defects


def build_dual(a: FiniteHopfStarAlgebra) -> FiniteHopfStarAlgebra:
    """The dual Hopf *-algebra on the dual basis."""
    name = f"dual:{a.name}" if a.name else "dual"
    return FiniteHopfStarAlgebra(
        dim=a.dim,
        basis_labels=tuple(f"{lbl}^" for lbl in a.basis_labels),
        mult=np.einsum("kij->ijk", a.comult),
        comult=np.einsum("jki->ijk", a.mult),
        unit=a.counit.copy(),
        counit=a.unit.copy(),
        antipode=a.antipode.T.copy(),
        star=(a.antipode @ np.conj(a.star)).T,
        name=name,
    )


def convolve(a: FiniteHopfStarAlgebra, phi: Functional, psi: Functional) -> Functional:
    """Convolution product (phi psi)(x) = (phi (x) psi)(coproduct x)."""
    coords = np.einsum("kij,i,j->k", a.comult, phi.coords, psi.coords)
    return Functional(coords)


def functional_star(a: FiniteHopfStarAlgebra, phi: Functional) -> Functional:
    """The involution phi*(x) = conj(phi(antipode(x)*)) of the dual algebra:
    the matrix antipode @ conj(star) of ``build_dual``'s star on conj(phi)."""
    return Functional(a.antipode @ np.conj(a.star) @ np.conj(phi.coords))


def G_map(wop: MultiplicativeUnitary, phi: Functional) -> np.ndarray:
    """Slice the second leg of W with an algebra functional.

    The functional acts on the algebra, so it is applied through the
    expansion of W over left-multiplication operators; the result is a
    member of the dual subspace.
    """
    return np.einsum("j,jpq->pq", phi.coords, wop.slice_basis)


def verify_G_isomorphism(wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> VerificationReport:
    """The slice map is a *-algebra isomorphism onto the dual subspace.

    Checks: unit goes to the identity, injectivity (full rank of the images
    of the dual basis), multiplicativity against convolution, compatibility
    with the involutions, and the exchange of the dual coproduct with the
    conjugation coproduct on the dual subspace.  The slice map sends the
    j-th dual-basis functional to ``slice_basis[j]``; products and adjoints
    of functionals are those of ``build_dual``.
    """
    a = wop.algebra
    n = a.dim
    dual = build_dual(a)
    unit, mult, star = star_homomorphism_defects(wop.slice_basis, dual.mult, dual.star, dual.unit)
    rb = ReportBuilder()
    rb.add("unit_of_dual_goes_to_identity", unit, tol)
    rb.add_count("injective_on_dual_basis", wop.dual_span.rank(tol), n)
    rb.add("multiplicative_for_convolution", float(mult.max()), tol)
    rb.add("star_compatible", float(star.max()), tol)

    worst_coproduct = 0.0
    for i in range(n):
        # functional composed with the product, expanded over dual basis pairs
        pair_coeffs = a.mult[:, :, i]
        lhs = np.einsum(
            "pq,pab,qcd->acbd", pair_coeffs, wop.slice_basis, wop.slice_basis, optimize=True
        ).reshape(n * n, n * n)
        worst_coproduct = max(worst_coproduct, frob(lhs - wop.dual_coproducts[i]))
    rb.add("intertwines_coproducts", worst_coproduct, tol)

    return rb.build()


def fourier(a: FiniteHopfStarAlgebra, h: Functional, coords) -> Functional:
    return Functional(fourier_matrix(a, h) @ np.asarray(coords))


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
    vector slice by bra = unit, ket = a in GNS coordinates (antilinear in the
    bra).  This guards the functional-application path of the
    implementation; each path is one einsum over all basis elements.
    """
    a, gns = wop.algebra, wop.gns
    expansion_path = np.einsum("ji,jpq->ipq", fourier_matrix(a, gns.haar), wop.slice_basis)
    bra = (gns.to_onb @ a.unit).conj()
    entrywise_path = np.einsum("r,prqs,si->ipq", bra, wop.w.as_legs(), gns.to_onb, optimize=True)
    worst = np.linalg.norm(expansion_path - entrywise_path, axis=(1, 2)).max()
    rb = ReportBuilder()
    rb.add("fourier_slice_closed_form", float(worst), tol)
    return rb.build()
