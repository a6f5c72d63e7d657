"""Structure-constant model of a finite-dimensional Hopf *-algebra.

Coordinate conventions:

- Elements are coordinate vectors in the chosen basis e_0, ..., e_{n-1}.
- mult[i, j, k] is the coefficient of e_k in e_i e_j.
- comult[i, j, k] is the coefficient of e_j (x) e_k in the coproduct of e_i.
- unit is the coordinate vector of the algebra unit; counit is a covector.
- antipode[i, j] is the coefficient of e_j in the antipode of e_i, and
  star[i, j] the coefficient of e_j in (e_i)*; both matrices therefore have
  the source index first, and act on coordinates through their transposes.

Unfoldings: ``mult.reshape(n * n, n)`` has rows (i, j), ``mult.reshape(n, n * n)``
columns (j, k), and the same for ``comult``.  Each law of ``verify_hopf_star_axioms``
and ``is_hopf_star_automorphism`` is one or two matrix products over these (or over a
transpose that brings another index to the rows), with no einsum path search.  An n^4
law forms both sides and their difference in the buffer of one; with the two n^5 halves
of ``comult_multiplicative`` at most three n^4 arrays (16 n^4 bytes each) are live.

This package restricts to the involutive case: the antipode squares to the
identity and commutes with the involution, which is exactly the class where
the Haar functional is a trace.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .groups import CayleyTable
from .report import ReportBuilder, VerificationReport
from .tensors import freeze, frob

DEFAULT_TOL = 1e-9


def _frozen_complex(a, shape, what: str) -> np.ndarray:
    arr = np.array(a, dtype=complex)  # a copy: the caller keeps theirs writable
    if arr.shape != shape:
        raise StructuralError(f"{what} must have shape {shape}, got {arr.shape}")
    return freeze(arr)


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

    def __post_init__(self):
        try:
            n = operator.index(self.dim)
        except TypeError:
            raise StructuralError(f"dim must be an integer, got {self.dim!r}") from None
        if n < 1:
            raise StructuralError(f"dim must be >= 1, got {n}")
        labels = tuple(str(s) for s in self.basis_labels)
        if len(labels) != n:
            raise StructuralError(f"{len(labels)} basis labels for dim {n}")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "basis_labels", labels)
        for field, shape in (("mult", (n, n, n)), ("comult", (n, n, n)), ("unit", (n,)),
                             ("counit", (n,)), ("antipode", (n, n)), ("star", (n, n))):
            object.__setattr__(self, field, _frozen_complex(getattr(self, field), shape, field))

    # -- coarse structure queries ----------------------------------------

    def commutativity_defect(self) -> float:
        return frob(self.mult - self.mult.transpose(1, 0, 2))

    def cocommutativity_defect(self) -> float:
        return frob(self.comult - self.comult.transpose(0, 2, 1))

    def structure_scale(self) -> float:
        if "_scale" not in self.__dict__:  # computed once: the tensors are read-only
            tensors = (self.mult, self.comult, self.unit, self.counit, self.antipode, self.star)
            object.__setattr__(self, "_scale", max(1.0, *(frob(x) for x in tensors)))
        return self._scale


def _defect(x: np.ndarray, y) -> float:
    """||x - y||_F, with the difference formed in the buffer of x (a temporary)."""
    return frob(np.subtract(x, y, out=x))


def _law4(lhs: np.ndarray, rhs: np.ndarray, n: int, axes=(2, 0, 1, 3)) -> float:
    """The defect of an n^4 law from its two sides as (n^2, n^2) unfoldings; ``axes``
    puts the four indices of ``rhs`` in the order of those of ``lhs``."""
    return _defect(lhs.reshape(n, n, n, n), rhs.reshape(n, n, n, n).transpose(axes))


def verify_hopf_star_axioms(a: FiniteHopfStarAlgebra, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Residual check of every defining axiom, one named entry per law.

    Tolerances are the requested ``tol`` scaled by the size of the structure
    tensors, so pass/fail is stable under overall rescaling of the input.
    """
    n = a.dim
    mult, comult = a.mult, a.comult
    m2, m1 = mult.reshape(n * n, n), mult.reshape(n, n * n)
    c2, c1 = comult.reshape(n * n, n), comult.reshape(n, n * n)
    eye = np.eye(n)
    s_op = a.antipode.T  # acts on coordinate columns
    star_cols = a.star.T  # column i = coordinates of (e_i)*
    tol_eff = tol * a.structure_scale()
    rb = ReportBuilder()

    # (e_i e_j) e_k against e_i (e_j e_k) over [(j, k), (i, l)], the middle index of
    # mult[i, q, l] summed from the rows of its transpose; the same for comult below
    rb.add("associativity", _law4(m2 @ m1, m2 @ mult.transpose(1, 0, 2).reshape(n, -1), n), tol_eff)

    rb.add("unit_law_left", _defect((a.unit @ m1).reshape(n, n), eye), tol_eff)
    rb.add("unit_law_right", _defect(a.unit @ mult, eye), tol_eff)

    # (id (x) Delta)Delta over [(i, a), (b, c)] against (Delta (x) id)Delta over [(a, b), (i, c)]
    rb.add("coassociativity", _law4(c2 @ c1, c1.T @ comult.transpose(1, 0, 2).reshape(n, -1), n), tol_eff)

    rb.add("counit_law_left", _defect(a.counit @ comult, eye), tol_eff)
    rb.add("counit_law_right", _defect(comult @ a.counit, eye), tol_eff)

    rb.add("comult_unital", _defect((a.unit @ c1).reshape(n, n), np.outer(a.unit, a.unit)), tol_eff)
    # Delta(e_i) Delta(e_j) = sum_qr h[i, a, q, r] k[j, b, q, r] over [(i, a), (j, b)], with
    # h = sum_p comult[i, p, q] mult[p, r, a] and k = sum_s comult[j, r, s] mult[q, s, b]
    ct, mt = comult.transpose(0, 2, 1), mult.transpose(2, 0, 1)
    h, k = np.matmul(ct[:, None], mt[None]), np.matmul(mt[None], ct[:, None])
    hom_r = h.reshape(n * n, -1) @ k.reshape(n * n, -1).T
    del h, k
    rb.add("comult_multiplicative", _law4(m2 @ c1, hom_r, n, (0, 2, 1, 3)), tol_eff)
    # coproduct commutes with the involution taken factorwise
    cstar_r = star_cols @ (np.conj(comult) @ a.star)
    rb.add("comult_star", _defect(a.star @ c1, cstar_r.reshape(n, -1)), tol_eff)

    rb.add("counit_unital", abs(complex(a.counit @ a.unit) - 1.0), tol_eff)
    rb.add("counit_multiplicative", _defect(mult @ a.counit, np.outer(a.counit, a.counit)), tol_eff)
    rb.add("counit_star", frob(a.star @ a.counit - np.conj(a.counit)), tol_eff)

    rb.add("star_involutive", frob(np.conj(a.star) @ a.star - eye), tol_eff)
    # (e_i e_j)* = e_j* e_i*, the right side over [j, i, l]
    anti_r = (a.star @ (a.star @ mult).reshape(n, n * n)).reshape(n, n, n).transpose(1, 0, 2)
    rb.add("star_antimultiplicative", _defect(np.conj(mult) @ a.star, anti_r), tol_eff)

    target = np.outer(a.counit, a.unit)  # row i = counit(e_i) * unit
    anti_left = (s_op @ comult).reshape(n, n * n) @ m2
    anti_right = (c2 @ a.antipode).reshape(n, n * n) @ m2
    rb.add("antipode_law_left", _defect(anti_left, target), tol_eff)
    rb.add("antipode_law_right", _defect(anti_right, target), tol_eff)

    rb.add("antipode_involutive", frob(s_op @ s_op - eye), tol_eff)
    rb.add("antipode_star_commute", frob(s_op @ star_cols - star_cols @ np.conj(s_op)), tol_eff)

    return rb.build()


def is_hopf_star_automorphism(
    a: FiniteHopfStarAlgebra, t, tol: float = DEFAULT_TOL
) -> VerificationReport | list[VerificationReport]:
    """Check that the matrix ``t`` (acting on coordinates) is a Hopf *-automorphism.

    ``t`` may also be a (K, n, n) stack: every law is then formed for the whole
    stack by stacked products, and the result is one report per matrix, each
    equal to the report of that matrix alone.
    """
    t = np.asarray(t, dtype=complex)
    n = a.dim
    if t.ndim not in (2, 3) or t.shape[-2:] != (n, n):
        raise StructuralError(f"automorphism candidate must be {n}x{n} or a stack of them, got {t.shape}")
    ts = t.reshape(-1, n, n)
    tt, star_cols, s_op = ts.transpose(0, 2, 1), a.star.T, a.antipode.T
    # sum_pq t[p, i] t[q, j] mult[p, q, k], and sum_pq comult[i, p, q] t[a, p] t[b, q]
    mult_r = tt @ (tt[:, None] @ a.mult).reshape(-1, n, n * n)
    com_r = ts[:, None] @ a.comult @ tt[:, None]
    laws = {
        "multiplicative": a.mult @ tt[:, None] - mult_r.reshape(-1, n, n, n),
        "comultiplicative": tt @ a.comult.reshape(n, -1) - com_r.reshape(-1, n, n * n),
        "unit_preserved": ts @ a.unit - a.unit,
        "counit_preserved": a.counit @ ts - a.counit,
        "star_equivariant": ts @ star_cols - star_cols @ np.conj(ts),
        "antipode_equivariant": s_op @ ts - ts @ s_op,
    }
    reports = []
    for k, sigma_min in enumerate(np.linalg.svd(ts, compute_uv=False)[:, -1]):
        tol_eff = tol * max(a.structure_scale(), frob(ts[k]))
        rb = ReportBuilder()
        rb.add("invertible", max(0.0, tol_eff - sigma_min), 0.0, detail=f"sigma_min={sigma_min:.3e}")
        for name, defects in laws.items():
            rb.add(name, frob(defects[k]), tol_eff)
        reports.append(rb.build())
    return reports if t.ndim == 3 else reports[0]
