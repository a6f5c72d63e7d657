"""Haar state in closed form, GNS representation, trace property.

The Haar state is the unique normalized functional invariant under the
coproduct on both sides.  For a finite quantum group it is the normalised
trace of the left regular representation (``compute_haar``), so nothing is
solved for: ``verify_haar`` checks that functional against the full
invariance system over the n coordinates, whose nullspace dimension (one
SVD) certifies uniqueness.  Positivity (equivalently, faithfulness) is
certified afterwards through the Gram matrix of the induced scalar product
<a, b> = haar(a* b), antilinear in the first slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, VerificationError
from .hopf import DEFAULT_TOL, FiniteHopfStarAlgebra
from .report import ReportBuilder, VerificationReport
from .tensors import _rank_above, freeze, frob, rounding_allowance, star_homomorphism_defects


@dataclass(frozen=True)
class Functional:
    """A linear functional, stored by its values on the basis."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=complex).reshape(-1)
        if coords.size < 1:
            raise StructuralError("functional must have positive dimension")
        object.__setattr__(self, "coords", freeze(coords))

    @property
    def dim(self) -> int:
        return self.coords.size

    def __call__(self, element) -> complex:
        element = np.asarray(element).reshape(-1)
        if element.size != self.dim:
            raise StructuralError(f"element dim {element.size} != functional dim {self.dim}")
        return complex(self.coords @ element)


def _invariance_system(a: FiniteHopfStarAlgebra) -> np.ndarray:
    """Rows of the homogeneous system cutting out bi-invariant functionals."""
    n = a.dim
    eye = np.eye(n)
    # (h (x) id) coproduct(e_i) = h(e_i) * unit, coefficient of e_k:
    left = a.comult.transpose(0, 2, 1) - np.einsum("ij,k->ikj", eye, a.unit)
    # (id (x) h) coproduct(e_i) = h(e_i) * unit, coefficient of e_j:
    right = a.comult - np.einsum("ik,j->ijk", eye, a.unit)
    return np.concatenate([left.reshape(n * n, n), right.reshape(n * n, n)])


def haar_invariance_residual(a: FiniteHopfStarAlgebra, h: Functional) -> float:
    """Size of the bi-invariance defect of ``h`` (0 for the true Haar state)."""
    return frob(_invariance_system(a) @ h.coords)


def haar_nullspace_dimension(a: FiniteHopfStarAlgebra, tol: float = DEFAULT_TOL) -> int:
    return a.dim - _rank_above(np.linalg.svd(_invariance_system(a), compute_uv=False), tol)


def verify_haar(a: FiniteHopfStarAlgebra, h: Functional, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Bi-invariance of ``h`` and a one-dimensional invariance solution space."""
    rb = ReportBuilder().add("invariance", haar_invariance_residual(a, h), tol * a.structure_scale())
    return rb.add_count("nullspace_dimension", haar_nullspace_dimension(a, tol), 1).build()


def compute_haar(a: FiniteHopfStarAlgebra) -> Functional:
    """The Haar state h(a) = Tr(L_a)/n, the normalised trace of the left regular
    representation (Larson & Radford 1988; Van Daele 1997, "The Haar measure on
    finite quantum groups"): a finite quantum group is of Kac type with
    A = sum_i M_{n_i}, and L_a acts on block i as n_i copies of a_i, so
    Tr(L_a) = sum_i n_i Tr_i(a_i).  mult[i, j, k] is entry (k, j) of L_{e_i}."""
    return Functional(np.einsum("ijj->i", a.mult) / a.dim)


@dataclass(frozen=True)
class GnsData:
    """The Haar scalar product and the left regular representation, which the
    ``gns/`` stage checks and ``orthonormal_algebra`` uses to change basis.

    - gram[i, j] = haar((e_i)* e_j), Hermitian positive definite.
    - onb_change Q satisfies Q^H gram Q = identity; its columns are an
      orthonormal basis written in algebra coordinates.
    - to_onb = Q^{-1} converts algebra coordinates to orthonormal ones.
    - left_regular[i] is left multiplication by e_i in orthonormal coordinates.
    """

    haar: Functional
    gram: np.ndarray
    onb_change: np.ndarray
    to_onb: np.ndarray
    left_regular: np.ndarray

    def smallest_gram_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.gram)[0])


def gns_construct(a: FiniteHopfStarAlgebra, h: Functional, tol: float = DEFAULT_TOL) -> GnsData:
    """Gram matrix, orthonormalization and left regular representation.

    Raises VerificationError (check ``gram_hermitian`` or ``gram_positive``)
    when the Gram matrix is not positive definite, i.e. when the functional is
    not faithful and positive.  Both comparisons use at least the rounding
    allowance of dimension n.
    """
    n = a.dim
    if h.dim != n:
        raise StructuralError(f"functional dim {h.dim} != algebra dim {n}")
    tol = max(tol, rounding_allowance(n))
    gram = np.einsum("il,ljk,k->ij", a.star, a.mult, h.coords, optimize=True)
    herm_defect = frob(gram - gram.conj().T)
    if herm_defect > tol * max(1.0, frob(gram)):
        raise VerificationError(
            f"Gram matrix is not Hermitian (defect {herm_defect:.3e})", check="gram_hermitian"
        )
    gram_h = (gram + gram.conj().T) / 2.0
    eig_min = float(np.linalg.eigvalsh(gram_h)[0])
    threshold = tol * max(1.0, float(np.linalg.norm(gram_h, 2)))
    if eig_min <= threshold:
        raise VerificationError(
            f"Gram matrix has smallest eigenvalue {eig_min:.3e}; "
            "the functional is not faithful and positive",
            check="gram_positive",
        )
    lower = np.linalg.cholesky(gram_h)
    to_onb = lower.conj().T  # gram = to_onb^H to_onb
    onb_change = np.linalg.inv(to_onb)
    # mult[i].T is the matrix of x -> e_i x on coordinate vectors
    left_regular = to_onb @ a.mult.transpose(0, 2, 1) @ onb_change
    return GnsData(h, freeze(gram), freeze(onb_change), freeze(to_onb), freeze(left_regular))


def orthonormal_algebra(a: FiniteHopfStarAlgebra, gns: GnsData) -> FiniteHopfStarAlgebra:
    """``a`` in the GNS-orthonormal basis f_b = sum_i P[i, b] e_i, P = ``gns.onb_change``:
    the similarity by P and P^-1 = ``gns.to_onb``, mult[a, b, c] = sum P[i, a] P[j, b]
    mult[i, j, k] P^-1[c, k] and so on, each a product over an unfolding (``hopf``).
    Its Gram matrix is the identity up to ||P^H gram P - I||_F, which
    ``onb_change_orthonormalizes`` reports, so mult[j]^T is left multiplication by
    f_j, and comult[:, :, j]^T the j-th slice of W, on orthonormal coordinates."""
    n, p, q = a.dim, gns.onb_change, gns.to_onb
    # P^T on the first index of mult and of comult, as one product over their unfoldings
    m, c = (p.T @ np.stack([a.mult, a.comult]).reshape(2, n, n * n)).reshape(2, n, n, n)
    return FiniteHopfStarAlgebra(
        dim=n, basis_labels=tuple(f"f{i}" for i in range(n)), name=a.name,
        mult=p.T @ m @ q.T, comult=q @ c @ q.T, unit=q @ a.unit, counit=a.counit @ p,
        antipode=p.T @ a.antipode @ q.T, star=p.conj().T @ a.star @ q.T,
    )


def verify_gns(a: FiniteHopfStarAlgebra, gns: GnsData, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Positivity, orthonormality and *-representation checks (suite stage)."""
    n, h = a.dim, gns.haar
    scale = a.structure_scale()
    rb = ReportBuilder()

    rb.add("gram_hermitian", frob(gns.gram - gns.gram.conj().T), tol * scale)
    eig_min = gns.smallest_gram_eigenvalue()
    threshold = tol * max(1.0, float(np.linalg.norm(gns.gram, 2)))
    rb.add(
        "gram_positive",
        max(0.0, threshold - eig_min),
        0.0,
        detail=f"smallest eigenvalue {eig_min:.6e}",
    )
    rb.add(
        "onb_change_orthonormalizes",
        frob(gns.onb_change.conj().T @ gns.gram @ gns.onb_change - np.eye(n)),
        tol * scale,
    )

    unit, mult, star = star_homomorphism_defects(gns.left_regular, a.mult, a.star, a.unit)
    rb.add("left_regular_multiplicative", frob(mult), tol * scale)
    rb.add("left_regular_unital", unit, tol * scale)
    rb.add("left_regular_star", frob(star), tol * scale)

    rb.add("haar_normalized", abs(h(a.unit) - 1.0), tol * scale)
    # haar(v* v) for 16 seeded v (real part, then imaginary part), batched: each product
    # is the one-element product with a leading row index, so the values are the same
    draws = np.random.default_rng(7).standard_normal((16, 2, n))
    v = draws[:, 0] + 1j * draws[:, 1]
    v_star = np.matmul(a.star.T, np.conj(v)[:, :, None])[:, :, 0]
    values = np.matmul(h.coords, np.einsum("bi,bj,ijk->bk", v_star, v, a.mult)[:, :, None])[:, 0]
    worst = max(0.0, float(np.max(-values.real)), float(np.max(np.abs(values.imag))))
    rb.add("haar_positive_on_squares", worst, tol * scale, detail="16 random elements")

    return rb.build()


def fourier_matrix(a: FiniteHopfStarAlgebra, h: Functional) -> np.ndarray:
    """The Haar pairing h(e_b e_i) over basis pairs (b, i): the matrix of the
    Fourier transform a -> haar( . a) in dual-basis coordinates."""
    return np.einsum("bik,k->bi", a.mult, h.coords)


def verify_trace(a: FiniteHopfStarAlgebra, h: Functional, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Largest |haar(e_i e_j) - haar(e_j e_i)| over all basis pairs."""
    values = fourier_matrix(a, h)
    residual = float(np.max(np.abs(values - values.T)))
    rb = ReportBuilder()
    rb.add("haar_is_trace", residual, tol * a.structure_scale())
    return rb.build()
