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

from .haar import Functional
from .hopf import DEFAULT_TOL, FiniteHopfStarAlgebra
from .multiplicative import MultiplicativeUnitary, dual_coproduct
from .report import ReportBuilder, VerificationReport
from .tensors import frob, slice_leg, FunctionalOnOperators


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
    """The involution phi*(x) = conj(phi(antipode(x)*)) of the dual algebra."""
    n = a.dim
    coords = np.empty(n, dtype=complex)
    for j in range(n):
        s_star = a.apply_star(a.apply_antipode(a.basis_element(j)))
        coords[j] = np.conj(phi(s_star))
    return Functional(coords)


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
    conjugation coproduct on the dual subspace.
    """
    a = wop.algebra
    n = a.dim
    rb = ReportBuilder()

    counit_image = G_map(wop, Functional(a.counit))
    rb.add("unit_of_dual_goes_to_identity", frob(counit_image - np.eye(n)), tol)

    rank = wop.dual_span.rank(tol)
    rb.add_count("injective_on_dual_basis", rank, n)

    worst_mult = 0.0
    worst_star = 0.0
    for i in range(n):
        phi = Functional(np.eye(n)[i])
        g_phi = wop.slice_basis[i]
        for j in range(n):
            psi = Functional(np.eye(n)[j])
            lhs = G_map(wop, convolve(a, phi, psi))
            worst_mult = max(worst_mult, frob(lhs - g_phi @ wop.slice_basis[j]))
        star_lhs = G_map(wop, functional_star(a, phi))
        worst_star = max(worst_star, frob(star_lhs - g_phi.conj().T))
    rb.add("multiplicative_for_convolution", worst_mult, tol)
    rb.add("star_compatible", worst_star, tol)

    worst_coproduct = 0.0
    for i in range(n):
        # functional composed with the product, expanded over dual basis pairs
        pair_coeffs = a.mult[:, :, i]
        lhs = np.einsum(
            "pq,pab,qcd->acbd", pair_coeffs, wop.slice_basis, wop.slice_basis, optimize=True
        ).reshape(n * n, n * n)
        rhs = dual_coproduct(wop, wop.slice_basis[i])
        worst_coproduct = max(worst_coproduct, frob(lhs - rhs))
    rb.add("intertwines_coproducts", worst_coproduct, tol)

    return rb.build()


def fourier_matrix(a: FiniteHopfStarAlgebra, h: Functional) -> np.ndarray:
    """Matrix of the Fourier transform a -> haar( . a) in dual-basis coordinates."""
    return np.einsum("bik,k->bi", a.mult, h.coords)


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
        rb.add_aborted("inverse_round_trip", tol, "transform is singular")
    rb.add("unit_maps_to_haar", frob(f @ a.unit - h.coords), tol)
    return rb.build()


def verify_fourier_slice_identity(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """The slice image of the Fourier transform matches the entrywise slice.

    For each basis element a, the functional haar( . a) applied to the second
    leg of W through the algebra expansion must agree with the entrywise
    vector slice by bra = unit, ket = a in GNS coordinates.  This guards the
    functional-application path of the implementation.
    """
    a, gns = wop.algebra, wop.gns
    h = gns.haar
    n = a.dim
    bra = gns.vector_of(a.unit)
    worst = 0.0
    for i in range(n):
        expansion_path = G_map(wop, fourier(a, h, a.basis_element(i)))
        ket = gns.to_onb[:, i]
        entrywise_path = slice_leg(wop.w, "right", FunctionalOnOperators(bra, ket))
        worst = max(worst, frob(expansion_path - entrywise_path))
    rb = ReportBuilder()
    rb.add("fourier_slice_closed_form", worst, tol)
    return rb.build()
