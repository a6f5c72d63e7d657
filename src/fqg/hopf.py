"""Structure-constant model of a finite-dimensional Hopf *-algebra.

Coordinate conventions:

- Elements are coordinate vectors in the chosen basis e_0, ..., e_{n-1}.
- mult[i, j, k] is the coefficient of e_k in e_i e_j.
- comult[i, j, k] is the coefficient of e_j (x) e_k in the coproduct of e_i.
- unit is the coordinate vector of the algebra unit; counit is a covector.
- antipode[i, j] is the coefficient of e_j in the antipode of e_i, and
  star[i, j] the coefficient of e_j in (e_i)*; both matrices therefore have
  the source index first.  ``apply_antipode``/``apply_star`` hide this.

This package restricts to the involutive case: the antipode squares to the
identity and commutes with the involution, which is exactly the class where
the Haar functional is a trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .groups import CayleyTable
from .report import ReportBuilder, VerificationReport
from .tensors import frob

DEFAULT_TOL = 1e-9


def _frozen_complex(a, shape, what: str) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.shape != shape:
        raise StructuralError(f"{what} must have shape {shape}, got {arr.shape}")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FiniteHopfStarAlgebra:
    dim: int
    basis_labels: tuple[str, ...]
    mult: np.ndarray
    comult: np.ndarray
    unit: np.ndarray
    counit: np.ndarray
    antipode: np.ndarray
    star: np.ndarray
    name: str = ""
    source_group: CayleyTable | None = None
    source_kind: str | None = None  # "group" | "function" when built from a Cayley table

    def __post_init__(self):
        n = int(self.dim)
        if n < 1:
            raise StructuralError(f"dim must be >= 1, got {n}")
        labels = tuple(str(s) for s in self.basis_labels)
        if len(labels) != n:
            raise StructuralError(f"{len(labels)} basis labels for dim {n}")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "basis_labels", labels)
        object.__setattr__(self, "mult", _frozen_complex(self.mult, (n, n, n), "mult"))
        object.__setattr__(self, "comult", _frozen_complex(self.comult, (n, n, n), "comult"))
        object.__setattr__(self, "unit", _frozen_complex(self.unit, (n,), "unit"))
        object.__setattr__(self, "counit", _frozen_complex(self.counit, (n,), "counit"))
        object.__setattr__(self, "antipode", _frozen_complex(self.antipode, (n, n), "antipode"))
        object.__setattr__(self, "star", _frozen_complex(self.star, (n, n), "star"))

    # -- elementwise operations on coordinate vectors --------------------

    def basis_element(self, i: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[i] = 1.0
        return v

    def multiply(self, a, b) -> np.ndarray:
        return np.einsum("i,j,ijk->k", np.asarray(a), np.asarray(b), self.mult)

    def coproduct_coeffs(self, a) -> np.ndarray:
        """Coefficient matrix C with coproduct(a) = sum C[j, k] e_j (x) e_k."""
        return np.einsum("i,ijk->jk", np.asarray(a), self.comult)

    def apply_antipode(self, a) -> np.ndarray:
        return self.antipode.T @ np.asarray(a)

    def apply_star(self, a) -> np.ndarray:
        return self.star.T @ np.conj(np.asarray(a))

    def left_mult_matrix(self, a) -> np.ndarray:
        """Matrix of x -> a x on coordinate vectors."""
        return np.einsum("i,ilk->kl", np.asarray(a), self.mult)

    # -- coarse structure queries ----------------------------------------

    def commutativity_defect(self) -> float:
        return frob(self.mult - self.mult.transpose(1, 0, 2))

    def cocommutativity_defect(self) -> float:
        return frob(self.comult - self.comult.transpose(0, 2, 1))

    def is_commutative(self, tol: float = DEFAULT_TOL) -> bool:
        return self.commutativity_defect() <= tol

    def structure_scale(self) -> float:
        return max(
            1.0,
            frob(self.mult),
            frob(self.comult),
            frob(self.unit),
            frob(self.counit),
            frob(self.antipode),
            frob(self.star),
        )


def verify_hopf_star_axioms(a: FiniteHopfStarAlgebra, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Residual check of every defining axiom, one named entry per law.

    Tolerances are the requested ``tol`` scaled by the size of the structure
    tensors, so pass/fail is stable under overall rescaling of the input.
    """
    n = a.dim
    mult, comult = a.mult, a.comult
    eye = np.eye(n)
    s_op = a.antipode.T  # acts on coordinate columns
    star_cols = a.star.T  # column i = coordinates of (e_i)*
    tol_eff = tol * a.structure_scale()
    rb = ReportBuilder()

    assoc_l = np.einsum("ijp,pkl->ijkl", mult, mult, optimize=True)
    assoc_r = np.einsum("jkq,iql->ijkl", mult, mult, optimize=True)
    rb.add("associativity", frob(assoc_l - assoc_r), tol_eff)

    rb.add("unit_law_left", frob(np.einsum("p,pil->il", a.unit, mult) - eye), tol_eff)
    rb.add("unit_law_right", frob(np.einsum("p,ipl->il", a.unit, mult) - eye), tol_eff)

    coassoc_l = np.einsum("ipc,pab->iabc", comult, comult, optimize=True)
    coassoc_r = np.einsum("iaq,qbc->iabc", comult, comult, optimize=True)
    rb.add("coassociativity", frob(coassoc_l - coassoc_r), tol_eff)

    rb.add("counit_law_left", frob(np.einsum("ijk,j->ik", comult, a.counit) - eye), tol_eff)
    rb.add("counit_law_right", frob(np.einsum("ijk,k->ij", comult, a.counit) - eye), tol_eff)

    rb.add(
        "comult_unital",
        frob(np.einsum("i,ijk->jk", a.unit, comult) - np.outer(a.unit, a.unit)),
        tol_eff,
    )
    hom_l = np.einsum("ijl,lab->ijab", mult, comult, optimize=True)
    hom_r = np.einsum("ipq,jrs,pra,qsb->ijab", comult, comult, mult, mult, optimize=True)
    rb.add("comult_multiplicative", frob(hom_l - hom_r), tol_eff)
    # coproduct commutes with the involution taken factorwise
    cstar_l = np.einsum("il,lab->iab", a.star, comult)
    cstar_r = np.einsum("ipq,pa,qb->iab", np.conj(comult), a.star, a.star, optimize=True)
    rb.add("comult_star", frob(cstar_l - cstar_r), tol_eff)

    rb.add("counit_unital", abs(complex(a.counit @ a.unit) - 1.0), tol_eff)
    rb.add(
        "counit_multiplicative",
        frob(np.einsum("ijk,k->ij", mult, a.counit) - np.outer(a.counit, a.counit)),
        tol_eff,
    )
    rb.add("counit_star", frob(a.star @ a.counit - np.conj(a.counit)), tol_eff)

    rb.add("star_involutive", frob(np.conj(a.star) @ a.star - eye), tol_eff)
    anti_l = np.einsum("ijk,kl->ijl", np.conj(mult), a.star, optimize=True)
    anti_r = np.einsum("jp,iq,pql->ijl", a.star, a.star, mult, optimize=True)
    rb.add("star_antimultiplicative", frob(anti_l - anti_r), tol_eff)

    target = np.outer(a.counit, a.unit)  # row i = counit(e_i) * unit
    anti_left = np.einsum("iab,ap,pbl->il", comult, a.antipode, mult, optimize=True)
    anti_right = np.einsum("iab,bq,aql->il", comult, a.antipode, mult, optimize=True)
    rb.add("antipode_law_left", frob(anti_left - target), tol_eff)
    rb.add("antipode_law_right", frob(anti_right - target), tol_eff)

    rb.add("antipode_involutive", frob(s_op @ s_op - eye), tol_eff)
    rb.add("antipode_star_commute", frob(s_op @ star_cols - star_cols @ np.conj(s_op)), tol_eff)

    return rb.build()


def is_hopf_star_automorphism(
    a: FiniteHopfStarAlgebra, t, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Check that the matrix ``t`` (acting on coordinates) is a Hopf *-automorphism."""
    t = np.asarray(t, dtype=complex)
    n = a.dim
    if t.shape != (n, n):
        raise StructuralError(f"automorphism candidate must be {n}x{n}, got {t.shape}")
    tol_eff = tol * max(a.structure_scale(), frob(t))
    rb = ReportBuilder()

    sigma_min = float(np.linalg.svd(t, compute_uv=False)[-1])
    rb.add(
        "invertible",
        max(0.0, tol_eff - sigma_min),
        0.0,
        detail=f"sigma_min={sigma_min:.3e}",
    )

    mult_l = np.einsum("ijm,km->ijk", a.mult, t, optimize=True)
    mult_r = np.einsum("pi,qj,pqk->ijk", t, t, a.mult, optimize=True)
    rb.add("multiplicative", frob(mult_l - mult_r), tol_eff)

    com_l = np.einsum("mi,mab->iab", t, a.comult, optimize=True)
    com_r = np.einsum("ipq,ap,bq->iab", a.comult, t, t, optimize=True)
    rb.add("comultiplicative", frob(com_l - com_r), tol_eff)

    rb.add("unit_preserved", frob(t @ a.unit - a.unit), tol_eff)
    rb.add("counit_preserved", frob(a.counit @ t - a.counit), tol_eff)

    star_cols = a.star.T
    rb.add("star_equivariant", frob(t @ star_cols - star_cols @ np.conj(t)), tol_eff)

    s_op = a.antipode.T
    rb.add("antipode_equivariant", frob(s_op @ t - t @ s_op), tol_eff)

    return rb.build()
