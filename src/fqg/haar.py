"""Haar state by linear solve, GNS representation, trace property.

The Haar state is the unique normalized functional invariant under the
coproduct on both sides.  It is computed by assembling the full invariance
system over the n unknown coordinates and analysing its nullspace with an
SVD, which simultaneously certifies uniqueness.  Positivity (equivalently,
faithfulness) is certified afterwards through the Gram matrix of the induced
scalar product <a, b> = haar(a* b), antilinear in the first slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoInvariantFunctional, NonUniqueHaar, NotPositive, StructuralError
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


def compute_haar(a: FiniteHopfStarAlgebra, tol: float = DEFAULT_TOL) -> Functional:
    """Solve for the unique normalized bi-invariant functional.

    Raises NoInvariantFunctional when the invariance system admits no
    normalized solution and NonUniqueHaar when the solution ray is not
    unique (either way the input is not a finite quantum group).  Every
    comparison uses at least the rounding allowance of dimension n.
    """
    n = a.dim
    tol = max(tol, rounding_allowance(n))
    _, sigma, vh = np.linalg.svd(_invariance_system(a))
    null_dim = n - _rank_above(sigma, tol)
    if null_dim < 1:
        raise NoInvariantFunctional(
            "invariance system has only the zero solution", check="haar_exists"
        )
    if null_dim > 1:
        raise NonUniqueHaar(
            f"invariance system has a {null_dim}-dimensional solution space",
            check="haar_unique",
            residual=float(null_dim),
        )
    v = np.conj(vh[-1])
    normalization = complex(v @ a.unit)
    if abs(normalization) <= tol:
        raise NoInvariantFunctional(
            "invariant functional cannot be normalized (vanishes on the unit)",
            check="haar_normalized",
        )
    h = Functional(v / normalization)
    residual = haar_invariance_residual(a, h)
    if residual > tol * a.structure_scale() * 10.0:
        raise NoInvariantFunctional(
            f"normalized solution violates invariance (residual {residual:.3e})",
            check="haar_exists",
            residual=residual,
        )
    return h


@dataclass(frozen=True)
class GnsData:
    """The Haar scalar product and the left regular representation.

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

    Raises NotPositive when the Gram matrix is not positive definite, i.e.
    when the functional is not faithful and positive.  Both comparisons use
    at least the rounding allowance of dimension n.
    """
    n = a.dim
    if h.dim != n:
        raise StructuralError(f"functional dim {h.dim} != algebra dim {n}")
    tol = max(tol, rounding_allowance(n))
    gram = np.einsum("il,ljk,k->ij", a.star, a.mult, h.coords, optimize=True)
    herm_defect = frob(gram - gram.conj().T)
    if herm_defect > tol * max(1.0, frob(gram)):
        raise NotPositive(
            f"Gram matrix is not Hermitian (defect {herm_defect:.3e})",
            check="gram_hermitian",
            residual=herm_defect,
        )
    gram_h = (gram + gram.conj().T) / 2.0
    eig_min = float(np.linalg.eigvalsh(gram_h)[0])
    threshold = tol * max(1.0, float(np.linalg.norm(gram_h, 2)))
    if eig_min <= threshold:
        raise NotPositive(
            f"Gram matrix has smallest eigenvalue {eig_min:.3e}; "
            "the functional is not faithful and positive",
            check="gram_positive",
            residual=eig_min,
        )
    lower = np.linalg.cholesky(gram_h)
    to_onb = lower.conj().T  # gram = to_onb^H to_onb
    onb_change = np.linalg.inv(to_onb)
    # mult[i].T is the matrix of x -> e_i x on coordinate vectors
    left_regular = to_onb @ a.mult.transpose(0, 2, 1) @ onb_change
    return GnsData(h, freeze(gram), freeze(onb_change), freeze(to_onb), freeze(left_regular))


def verify_gns(
    a: FiniteHopfStarAlgebra, h: Functional, gns: GnsData, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Positivity, orthonormality and *-representation checks (suite stage)."""
    n = a.dim
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
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(16):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        value = h(a.multiply(a.apply_star(v), v))
        worst = max(worst, -value.real, abs(value.imag))
    rb.add("haar_positive_on_squares", max(0.0, worst), tol * scale, detail="16 random elements")

    return rb.build()


def fourier_matrix(a: FiniteHopfStarAlgebra, h: Functional) -> np.ndarray:
    """The Haar pairing h(e_b e_i) over basis pairs (b, i): the matrix of the
    Fourier transform a -> haar( . a) in dual-basis coordinates."""
    return np.einsum("bik,k->bi", a.mult, h.coords)


def verify_trace(a: FiniteHopfStarAlgebra, h: Functional, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Largest |haar(e_i e_j) - haar(e_j e_i)| over all basis pairs."""
    values = fourier_matrix(a, h)
    residual = float(np.max(np.abs(values - values.T))) if a.dim > 0 else 0.0
    rb = ReportBuilder()
    rb.add("haar_is_trace", residual, tol * a.structure_scale())
    return rb.build()
