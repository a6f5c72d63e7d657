"""The multiplicative unitary of a finite quantum group and its identity suite.

W is the matrix of a (x) b -> coproduct(a) (1 (x) b) for an algebra whose
basis the suite has made orthonormal for the Haar scalar product
(``haar.orthonormal_algebra``), so its coordinates are those of the GNS space
and no stage changes basis.  It is unitary, satisfies the pentagon equation
W23 W12 W23* = W12 W13, implements the coproduct by conjugation, carries the
antipode as (id (x) S) W = W*, and its right slices span the dual algebra.
Each identity is computed once: WW* - I = U (W*W - I) U* for the polar form
W = U|W|, so one product W*W gives both unitarity checks, and V = (id (x) S) W
= sum_k (sum_j S_jk x_j) (x) L_k is built once for VW - I and V - W*.

Functionals on the *algebra* are applied to a leg of W through the expansion
W = sum_j x_j (x) L_j, where L_j is left multiplication by the j-th basis
element and the x_j span the dual subspace; applying such functionals
entrywise would not be meaningful since they act on the algebra, not on
Hilbert-space coordinates.  Vector functionals on Hilbert-space coordinates
are applied entrywise: the slices of W by the matrix units are one
transpose of W's leg tensor.  A two-leg sum over the expansion, W itself,
V or coproduct(e_a), is built by ``kron_sum``, and W's distance from its
expansion is measured by ``kron_sum_distance``.

``build_multiplicative_unitary`` reads this expansion off the structure
constants, x_j = comult[:, :, j]^T and L_j = mult[j]^T, and factors the
stacked x_j by one SVD (``MultiplicativeUnitary.dual_span``): an orthonormal
basis Q of the dual subspace plus the map from Q-coordinates to coordinates
over the x_j.  It
answers every dual-subspace question: the dimension, membership of a matrix,
the coordinates of products and adjoints (closure), and membership of a dual
coproduct in the doubled span (its distance from {Q X Q^T} after regrouping
the legs), so no pair basis is ever built.  What depends on W and the x_j
alone is computed on first read (see ``MultiplicativeUnitary``).

The pentagon, W (L_a (x) 1) W* = coproduct(e_a), (id (x) coproduct) W =
W12 W13 and the dual-coproduct family are reported as certified upper bounds:
Gram forms over the leg factors (x_s, L_s) (Van Loan and Pitsianis 1993), read
from certificates the context caches.  The two conjugation families, W (.) W* on
the L_a and W* (.) W on the x_l, share one (``sandwich_certificate``), so the
pentagon/ and coproduct_via_w/ stages compute the dual family too, even run
alone (``--only``).  A bound above the tolerance gives way
to the exact computation, so a passing run contracts no three-leg product,
builds no n^5 stack and loops over no basis.  The guards that end a stage
have the floor 4 n^2 eps, so a tolerance below rounding is reported as
failing checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from .errors import StructuralError, VerificationError
from .haar import Functional, compute_haar
from .hopf import DEFAULT_TOL, FiniteHopfStarAlgebra
from .report import ReportBuilder, VerificationReport
from .tensors import (
    SpanBasis,
    freeze,
    frob,
    kron_sum,
    kron_sum_distance,
    leg_distance,
    numerical_rank,
    project_onto_span,
    rounding_allowance,
    span_basis,
)


@dataclass(frozen=True)
class MultiplicativeUnitary:
    """W on two copies of the GNS space: the context every later stage shares.

    ``w`` is the read-only (n^2, n^2) matrix of W for an ``algebra`` whose basis is
    orthonormal for its Haar state ``haar``, and ``left_regular[j]`` = mult[j]^T.
    ``slice_basis[j]`` is the right slice of W by the j-th dual-basis functional of
    the algebra; these matrices span the dual subspace, and W = sum_j
    slice_basis[j] (x) left_regular[j] up to ``expansion_residual``, measured from ``w``.
    ``dual_span`` is the one SVD of the stacked slice basis: an orthonormal
    basis ``q`` of the dual subspace and the map from coordinates in ``q`` to
    coordinates over ``slice_basis``.  Every certificate the stages read is a
    cached property, computed on first read, the exact fallbacks (``*_exact``)
    too: only an exact fallback reads ``dual_coproducts`` and builds that n^5
    stack, and a context rebuilt by ``dataclasses.replace`` computes its own.
    """

    w: np.ndarray
    algebra: FiniteHopfStarAlgebra
    slice_basis: np.ndarray
    dual_span: SpanBasis

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def left_regular(self) -> np.ndarray:  # L_j = mult[j]^T, left multiplication by e_j
        return freeze(self.algebra.mult.transpose(0, 2, 1))

    @cached_property
    def haar(self) -> Functional:
        return compute_haar(self.algebra)

    @cached_property
    def expansion_residual(self) -> float:  # ||W - sum_j x_j (x) L_j||_F, from this context's W
        return kron_sum_distance(self.slice_basis, self.left_regular, self.w)

    @cached_property
    def unitarity_defect(self) -> float:  # one ||W*W - I||_F per context
        w = self.w
        return frob(w.conj().T @ w - np.eye(w.shape[0]))

    @cached_property
    def inverse_defects(self) -> tuple[float, float]:
        """(||VW - I||_F, ||V - W*||_F) for V = (id (x) antipode) W = sum_j x_j (x) L(S e_j)
        = sum_k (sum_j S_jk x_j) (x) L_k, built once over this context's slice basis."""
        w, xs = self.w, self.slice_basis
        v = kron_sum((xs.transpose(2, 1, 0) @ self.algebra.antipode).transpose(2, 1, 0), self.left_regular)
        return frob(v @ w - np.eye(w.shape[0])), frob(v - w.conj().T)

    @cached_property
    def spectral_norms(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """||X||_2 over the flattened x_j, and each ||x_j||_2, ||L_j||_2 and ||mult[:, :, j]||_2."""
        xs, mult = self.slice_basis, self.algebra.mult.transpose(2, 0, 1)
        each = np.linalg.svd(np.stack([xs, self.left_regular, mult]), compute_uv=False)[..., 0]
        return _norm2(xs), *each

    @cached_property
    def grams(self) -> tuple[np.ndarray, np.ndarray, float]:
        """G_pr = tr(L_p* L_r), Gx_pr = tr(x_p* x_r) and ||sum_a coproduct(e_a) (x) e_a||_F."""
        g = _gram(self.left_regular)
        delta = _kron_gram_square(self.algebra.comult.transpose(1, 2, 0), g, g)
        return g, _gram(self.slice_basis), float(np.sqrt(abs(delta)))

    @cached_property
    def sandwich_certificate(self) -> tuple[float, float, float, np.ndarray, np.ndarray]:
        """(f, conjugation, second_leg, pi, r): the bounds of ``verify_coproduct_implemented``
        and pi_l, r_l of ``verify_dual_coproduct_identities``.  Both families read one stack
        of the L_p x_j and one Gram matrix of it, formed after the spill operands and dropped
        before the Gram parts: about five (n^2, n^2) arrays are live at once."""
        n, a, xs, lr = self.dim, self.algebra, self.slice_basis, self.left_regular
        (gram, gx, _), c, m = self.grams, self.slice_closure[0], a.mult.transpose(2, 0, 1)
        # spill^2 = sum_k ||sum_pqj C_k[p, q] L_p x_j (x) B_qj||_F^2 = sum H[p, q, p', q'] G[q, j, q', j']
        # <L_p x_j, L_p' x_j'>, H = sum_k conj(C_k) (x) C_k, G the Gram tensor of the B_qj (the dual
        # family's operands are swapped): the product of the regrouped H and G, then one Gram matrix
        operands = [_pairs(np.tensordot(a.comult.conj(), a.comult, (0, 0)))
                    @ _pairs(_gram(lr[:, None] @ lr[None] - np.tensordot(a.mult, lr, (2, 0)))),
                    _pairs(_gram(xs[:, None] @ xs[None] - np.tensordot(c, xs, (2, 0))))
                    @ _pairs(np.tensordot(a.mult.conj(), a.mult, (2, 2)))]
        lx = (lr[:, None] @ xs[None]).reshape(n * n, n * n)  # L_p x_j at row (p, j)
        lx_gram = _pairs((lx @ lx.conj().T).reshape((n,) * 4))
        spill, dual_spill = (float(np.sqrt(abs(np.vdot(lx_gram, op).real))) for op in operands)
        del operands, lx_gram
        # T[a, p, j, s] = sum_q comult[a, p, q] mult[q, j, s] at [a, s, p, j], and
        # U[l, p, s, k] = sum_j c[s, j, p] mult[j, k, l]
        part = _kron_defect_norms(lx, xs[None] @ lr[:, None], a.comult[:, None] @ m[None], gram)
        dual = _kron_defect_norms(lx, xs[:, None] @ lr[None], c.transpose(2, 0, 1)[None] @ m[:, None], gx)
        (x_norm, x2, l2, m2), w2 = self.spectral_norms, 1.0 + self.unitarity_defect
        delta_norms, y_norms = _pair_norms(a.comult, gram), _pair_norms(m, gx)  # ||Delta(e_a)||, ||Y_l||
        f, conjugation = _sandwich_bounds(self, part, spill, lr, l2, delta_norms)
        conjugation = conjugation.max() + _allowance(n, self.w, w2, x_norm * delta_norms.max())
        pi = _sandwich_bounds(self, dual, dual_spill, xs, x2, y_norms)[1]
        x_frob = np.sqrt(n) * np.linalg.norm(xs, axis=(1, 2))  # ||1 (x) x_l||_F
        pi += 4 * n * np.finfo(float).eps * w2 * (x_norm * y_norms + w2 * x_frob)
        drift = frob(project_onto_span(self.dual_span.q, xs)[1])  # the x_j outside the span of Q
        second_leg = coproduct_expansion_bound(xs, self.w, self.expansion_residual, w2, self)
        return f, float(conjugation), second_leg, pi, pi + 2 * x_norm * m2 * drift

    @cached_property
    def conjugation_exact(self) -> float:  # the loop behind the conjugation bound
        n, w, lr = self.dim, self.w, self.left_regular
        w_adj = w.conj().T.reshape(n, n**3)  # (L_a (x) 1) W* multiplies L_a into its first row leg
        deltas = (kron_sum(np.tensordot(c_a, lr, (0, 0)), lr) for c_a in self.algebra.comult)
        return float(np.max([frob(w @ (l_a @ w_adj).reshape(n * n, n * n) - delta)
                             for l_a, delta in zip(lr, deltas)]))

    @cached_property
    def second_leg_exact(self) -> float:  # the exact contraction behind its bound
        n, w = self.dim, self.w
        lhs = [(self.slice_basis, [1]), (coproduct_operators(self), [2, 3])]
        return leg_distance(lhs, [(w, [1, 2]), (w, [1, 3])], (n, n, n))

    @cached_property
    def pentagon_bound(self) -> float:
        """The certified upper bound on the pentagon defect derived in ``verify_pentagon``."""
        n, u, e = self.dim, self.unitarity_defect, self.expansion_residual
        w2, s = 1.0 + u, np.sqrt(max(1.0 - u, 0.0))
        f, _, second_leg = self.sandwich_certificate[:3]
        top = self.spectral_norms[0] * f + np.sqrt(w2) * (second_leg + np.sqrt(n) * e)
        top += w2 * np.sqrt(n) * u
        bound = np.minimum(top / s if s > 0 else np.inf, (w2 + np.sqrt(w2)) * np.sqrt(n) * frob(self.w))
        return float(bound + _allowance(n, self.w, w2, 0.0))

    @cached_property
    def pentagon_exact(self) -> float:  # the exact n^8 pentagon defect, ``pentagon_residual(w)``
        return pentagon_residual(self.w)

    @cached_property
    def slice_closure(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Slice-basis coordinates of products (n, n, n) and adjoints (n, n); closure residual."""
        n, basis = self.dim, self.slice_basis
        product_coords, product_res = self.dual_span.coords(basis[:, None] @ basis[None, :])
        star_coords, star_res = self.dual_span.coords(basis.conj().transpose(0, 2, 1))
        closure = float(max(product_res.max(), star_res.max()))
        return product_coords.reshape(n, n, n), star_coords, closure

    @cached_property
    def dual_coproducts(self) -> np.ndarray:
        """The dual coproducts W* (1 (x) x_j) W of the slice basis, (n, n^2, n^2)."""
        return freeze(_dual_coproducts(self.w, self.slice_basis))

    @cached_property
    def dual_coproduct_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates C of ``dual_coproducts`` over Q_a (x) Q_b, distances r from their span."""
        return _doubled_span_coords(self, self.dual_coproducts)


def build_multiplicative_unitary(b: FiniteHopfStarAlgebra) -> MultiplicativeUnitary:
    """W of ``b``, whose basis is orthonormal for its Haar state
    (``haar.orthonormal_algebra``), its expansion read off the structure
    constants, and the factorisation of the dual subspace: W = sum_j x_j (x) L_j
    with x_j[p, i] = comult[i, p, j] and L_j = mult[j]^T, up to the rounding that
    ``expansion_residual`` measures."""
    xs = freeze(b.comult.transpose(2, 1, 0))
    return MultiplicativeUnitary(freeze(kron_sum(xs, b.mult.transpose(0, 2, 1))), b, xs, span_basis(xs))


def verify_unitarity(wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> VerificationReport:
    """W is unitary, and V = (id (x) antipode) W is its inverse and its adjoint
    (Baaj and Skandalis 1993).  For a square W with polar form W = U|W|, WW* - I =
    U (W*W - I) U*, so both unitarity checks read the one ``unitarity_defect``;
    both V checks read ``inverse_defects``, the second also the antipode relation."""
    u, (composes, adjoint) = wop.unitarity_defect, wop.inverse_defects
    rb = ReportBuilder().add("w_unitary_wstar_w", u, tol).add("w_unitary_w_wstar", u, tol)
    return rb.add("w_inverse_composes", composes, tol).add("w_inverse_is_adjoint", adjoint, tol).build()


def pentagon_residual(w: np.ndarray) -> float:
    """Frobenius defect of W23 W12 W23* - W12 W13 on three legs, for the (n^2, n^2) matrix W."""
    n = isqrt(len(w))
    if n * n != len(w):
        raise StructuralError("pentagon requires equal leg dimensions")
    return leg_distance(
        [(w, [2, 3]), (w, [1, 2]), (w.conj().T, [2, 3])], [(w, [1, 2]), (w, [1, 3])], (n, n, n)
    )


def _allowance(n: int, u, u2: float, kron_side: float, e: float = 0.0) -> float:
    """The rounding allowance derived in ``verify_pentagon`` for an operator U on
    legs [d, n], u2 >= ||U||_2^2, whose sums have length k <= max(n^2, d); plus,
    for an expansion residual e, the part in E of ``coproduct_expansion_bound``."""
    k = max(n * n, len(u) // n)
    rounding = 4 * np.sqrt(k) * np.finfo(float).eps * u2 * (kron_side + u2 * np.sqrt(n) * frob(u))
    return float(rounding + np.sqrt(n) * e * (2 * np.sqrt(u2) + e))


def verify_pentagon(wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> VerificationReport:
    """The pentagon W23 W12 W23* = W12 W13, as a certified upper bound.

    With W = sum_j x_j (x) L_j + E, e = ||E||_F, F_j = W (L_j (x) 1) -
    coproduct(e_j) W and M = sum_j x_j (x) coproduct(e_j) - W12 W13, the defect
    P has P W23 = sum_j x_j (x) F_j + M W23 + W23 E12 + W23 W12 (W23* W23 - I).
    The first term regroups to X^T F, at most ||X||_2 f (``sandwich_certificate``);
    ||M|| is the bound ``coproduct_on_second_leg_of_w`` reports; ||W||_2^2 <= w2
    = 1 + u, u = ||W*W - I||_F; s = sqrt(1 - u) bounds W's smallest singular
    value.  So ||P||_F <= (||X||_2 f + sqrt(w2) (||M|| + sqrt(n) e) + w2 sqrt(n) u)
    / s, and <= (w2 + sqrt(w2)) sqrt(n) ||W||_F.  The bounds on M and F carry
    their inputs' rounding; added is that of W on legs: a sum of length k <= n^2
    rounds at about 4 sqrt(k) eps relative to its operands (Higham and Mary
    2019), w2 sqrt(n) ||W||_F times w2 for the conjugation (``_allowance``).
    Above ``tol``, or NaN, the exact n^8 ``wop.pentagon_exact`` is reported.  Reading
    f computes the dual-coproduct bounds of ``sandwich_certificate`` too.
    """
    rb = ReportBuilder()
    _add_bounded(rb, "pentagon", wop.pentagon_bound, tol, lambda w, _: (w.pentagon_exact, False), wop)
    return rb.build()


def verify_left_slices_span(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Left slices of W act by left multiplication and span the represented algebra.

    The slice of W by the vector functional T -> <e_i, T e_j> on its first
    leg (GNS vectors of the basis, antilinear in the bra) is left
    multiplication by (haar (x) id)((e_i* (x) 1) coproduct(e_j)) = sum_q
    comult[j, i, q] L_q, the basis being orthonormal; all n^2 slices are a
    transpose of W, and all their targets one product.  The ranks are
    certified from the slices' coefficients over the L_k (``_slice_rows``); a
    count that their shift may change falls back to ``numerical_rank``.
    """
    n = wop.dim
    slices = wop.w.reshape((n,) * 4).transpose(0, 2, 1, 3).reshape(n * n, n, n)
    targets = wop.algebra.comult.transpose(1, 0, 2).reshape(n * n, n) @ wop.left_regular.reshape(n, -1)
    worst = np.linalg.norm(slices - targets.reshape(n * n, n, n), axis=(1, 2)).max()
    rows, union, shift = _slice_rows(wop)
    rank, union_rank = _certified_rank(rows, shift, tol), _certified_rank(union, shift, tol)
    rb = ReportBuilder()
    rb.add("left_slice_acts_by_left_multiplication", float(worst), tol)
    rb.add_count("left_slice_span_dimension", numerical_rank(slices, tol) if rank is None else rank, n)
    if union_rank is None:
        union_rank = numerical_rank(np.concatenate([slices, wop.left_regular]), tol)
    rb.add_count("left_slices_span_represented_algebra", union_rank, n)
    return rb.build()


def _slice_rows(wop: MultiplicativeUnitary) -> tuple[np.ndarray, np.ndarray, float]:
    """Slice (i, j) is sum_k C[(i, j), k] L_k plus a slice of E, C[(i, j), k] =
    (x_k)_ij.  The L_k have the row Gram matrix G^T, G = ``grams[0]``, so the
    slices' singular values are those of C V, V V* = G^T, and those of their
    union with the L_k are those of [C; I] V, each moved by at most ||E||_F
    (Weyl): C V, [C; I] V and that shift, with rounding."""
    n = wop.dim
    c = wop.slice_basis.transpose(1, 2, 0).reshape(n * n, n)
    lam, v = np.linalg.eigh(wop.grams[0].T)
    root = v * np.sqrt(np.clip(lam, 0.0, None))
    shift = wop.expansion_residual + 4 * n * np.finfo(float).eps * frob(wop.w)
    return c @ root, np.concatenate([c, np.eye(n)]) @ root, float(shift)


def _certified_rank(rows, shift: float, tol: float) -> int | None:
    """The ``numerical_rank`` of every matrix within ``shift`` of ``rows`` in spectral
    norm (zero rows padded), or None if a singular value and the threshold may
    cross by that shift plus the SVD's rounding."""
    sigma = np.linalg.svd(rows, compute_uv=False)
    shift += np.finfo(float).eps * max(rows.shape) * sigma[0]
    low, high = (tol * max(1.0, sigma[0] + d) for d in (-shift, shift))
    if shift < low and np.all((sigma - shift > high) | (sigma + shift < low)):
        return int(np.sum(sigma > high))
    return None


def coproduct_operators(wop: MultiplicativeUnitary) -> np.ndarray:
    """Left multiplication by coproduct(e_j) on the doubled GNS space for
    every basis element e_j, shape (n, n^2, n^2), filled one element at a
    time so that only one stack is held: sum_q (sum_p comult[j, p, q] L_p) (x) L_q."""
    n, lr = wop.dim, wop.left_regular
    stack = np.empty((n, n * n, n * n), dtype=complex)
    for c_a, delta in zip(wop.algebra.comult, stack):
        delta[...] = kron_sum(np.tensordot(c_a, lr, (0, 0)), lr)
    return stack


def _gram(stack) -> np.ndarray:  # G_pr = tr(A_p* A_r) over a stack of matrices A_p (or A_pq)
    return np.tensordot(stack.conj(), stack, ((-2, -1), (-2, -1)))


def _norm2(stack) -> float:  # ||X||_2 over the stack of matrices flattened to rows
    return float(np.linalg.norm(stack.reshape(len(stack), -1), 2))


def _pair_norms(m, g) -> np.ndarray:
    """||sum_pq m[k, p, q] A_p (x) A_q||_F for each k, over the Gram matrix g of the A_p."""
    return np.sqrt(np.abs(np.sum(m.conj() * (g @ m @ g.T), axis=(1, 2)).real))


def _kron_defect_norms(lx, first, coeffs, gram) -> np.ndarray:
    """||sum_s D_ks (x) B_s||_F for each k, D_ks = first[k, s] - sum_pj coeffs[k, s, p, j]
    L_p x_j over the stack ``lx`` of the L_p x_j, as sum_ss' G_ss' <D_ks, D_ks'> over
    ``gram`` G of the B_s: one product."""
    d = coeffs.reshape(-1, len(lx)) @ lx
    np.subtract(first.reshape(d.shape), d, out=d)
    return np.sqrt(np.abs([np.vdot(dk, gram @ dk).real for dk in d.reshape(len(first), len(gram), -1)]))


def _pairs(t) -> np.ndarray:  # t[i, j, i', j'] regrouped to rows (i, i'), columns (j, j')
    n = len(t)
    return t.transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _sandwich_bounds(wop: MultiplicativeUnitary, a, spill: float, stack, l2, b_frob):
    """Bounds on ||(||F_k||_F)_k|| and on each W A_k W* - B_k (or W* A_k W - B_k)
    for F_k = W A_k - B_k W (or A_k W - W B_k), A_k = S_k (x) 1 (or 1 (x) S_k),
    ||S_k||_2 <= l2, ||B_k||_F = b_frob, ||F_k||_F <= a_k + spill + e (||S_k||_2 +
    ||B_k||_2).  With u = ||W*W - I||_F = ||WW* - I||_F, w2 = 1 + u and s =
    sqrt(1 - u) <= W's smallest singular value: W A W* - B = (F + W A (W*W - I))
    W^-1 is at most (||F|| + sqrt(w2) ||A||_2 u) / s, and at most w2 ||A||_F +
    ||B||_F; B W = W A - F bounds ||B||_2 by (sqrt(w2) ||A||_2 + a) / (s - e)."""
    n, u, e = wop.dim, wop.unitarity_defect, wop.expansion_residual
    w2, s = 1.0 + u, np.sqrt(max(1.0 - u, 0.0))
    a_frob = np.sqrt(n) * np.linalg.norm(stack, axis=(1, 2))
    a = a + e * l2
    b2 = np.minimum(b_frob, (np.sqrt(w2) * l2 + a + spill) / (s - e)) if s > e else b_frob
    f = np.minimum(a + spill + e * b2, np.sqrt(w2) * (a_frob + b_frob))
    bound = (f + np.sqrt(w2) * l2 * u) / s if s > 0 else np.inf
    f_norm = np.minimum(frob(a + e * b2) + spill, np.sqrt(w2) * frob(a_frob + b_frob))
    return float(f_norm), np.minimum(bound, w2 * a_frob + b_frob)


def _kron_gram_square(m, g, h) -> float:
    """||sum_pq m[p, q] (x) A_p (x) B_q||_F^2 = sum_pqrs <m_pq, m_rs> g_pr h_qs for
    the Gram matrices g of the A_p and h of the B_q: two products, no Kronecker factor."""
    t = (g @ m.reshape(len(g), -1)).reshape(len(g), len(h), -1)  # sum_r g_pr m_rs
    return float(np.vdot(m, h @ t).real)


def coproduct_expansion_bound(ys, u, e: float, u2: float, wop: MultiplicativeUnitary) -> float:
    """Certified upper bound on ||sum_l y_l (x) coproduct(e_l) - U12 U13||_F for U
    on legs [d, n], U = X + E, X = sum_l y_l (x) L_l over the (n, d, d) stack
    ``ys`` (W: the slice basis, d = n; V: ``v_last_leg``, d = nm), e = ||E||_F
    measured from U and u2 >= ||U||_2^2.

    X12 X13 = sum_pq y_p y_q (x) L_p (x) L_q, so the left side minus X12 X13 is
    sum_pq M_pq (x) L_p (x) L_q with M_pq = sum_l comult[l, p, q] y_l - y_p y_q,
    a difference of (d, d) matrices, whose square is the Gram form
    sum <M_pq, M_rs> G_pr G_qs, G_pr = tr(L_p* L_r): O(n^2 d^3 + n^3 d^2) work.
    U12 U13 - X12 X13 = E12 U13 + X12 E13, ||E12||_F = sqrt(n) e and
    ||X||_2 <= sqrt(u2) + e add sqrt(n) e (2 sqrt(u2) + e); the Gram form
    alone reads rounding, so the allowance of ``verify_pentagon`` is added
    with Kronecker side ||Y||_2 ||Delta||_F (both in ``_allowance``).
    """
    n, (gram, _, delta_norm) = wop.dim, wop.grams
    m = np.tensordot(wop.algebra.comult, ys, (0, 0)) - ys[:, None] @ ys[None]
    y_norm = wop.spectral_norms[0] if ys is wop.slice_basis else _norm2(ys)
    square = _kron_gram_square(m, gram, gram)
    return float(np.sqrt(abs(square)) + _allowance(n, u, u2, y_norm * delta_norm, e))


def verify_coproduct_implemented(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """W (L_a (x) 1) W* = coproduct(e_a) for every basis element a, and (id (x)
    coproduct) W = W12 W13 (``coproduct_expansion_bound``), as certified bounds;
    above ``tol``, or NaN, ``wop.conjugation_exact`` and ``wop.second_leg_exact``.

    With W = X + E and L_q L_j = sum_s mult[q, j, s] L_s + rho_qj, F_a = W A - B W
    (A = L_a (x) 1, B = coproduct(e_a)) is sum_s D_as (x) L_s (``_kron_defect_norms``,
    D_as = x_s L_a - sum_pjq comult[a, p, q] mult[q, j, s] L_p x_j), minus
    sum_pqj comult[a, p, q] L_p x_j (x) rho_qj (the spill), plus E A - B E;
    ``_sandwich_bounds`` turns that into the bound, plus the allowance of
    ``verify_pentagon`` with Kronecker side ||X||_2 ||B||_F: n^6 time and n^4 memory,
    not n^7, in ``sandwich_certificate``, which computes the dual-coproduct bounds too.
    """
    conjugation, second_leg = wop.sandwich_certificate[1:3]
    rb = ReportBuilder()
    _add_bounded(rb, "conjugation_over_basis", conjugation, tol,
                 lambda w, _: (w.conjugation_exact, False), wop)
    _add_bounded(rb, "coproduct_on_second_leg_of_w", second_leg, tol,
                 lambda w, _: (w.second_leg_exact, False), wop)
    return rb.build()


def verify_antipode_relation(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """(id (x) antipode) W = W*, the antipode on the second leg: V = sum_j x_j (x)
    L(S e_j), L(S e_j) = sum_k S_jk L_k, is sum_k (sum_j S_jk x_j) (x) L_k, and its
    ||V - W*||_F (``inverse_defects``) is ``w_inverse_is_adjoint`` too; run alone
    (``--only 'antipode_relation/*'``) this check also forms VW."""
    return ReportBuilder().add("antipode_on_second_leg_of_w", wop.inverse_defects[1], tol).build()


def build_dual_subspace(wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Raise VerificationError unless ``wop.slice_basis`` spans the
    n-dimensional dual subspace and every right slice of W lies in it; then
    report its dimension and closure, and W's expansion, true by construction."""
    n = wop.dim
    rank = wop.dual_span.rank(tol)
    if rank != n:
        raise VerificationError(
            f"dual subspace has dimension {rank}, expected {n}", check="dual_subspace_dimension"
        )
    # every entrywise right slice must already lie in the span: slice (r, s)
    # is the leg-1 matrix W[(p, r), (q, s)] over (p, q)
    all_slices = wop.w.reshape((n,) * 4).transpose(1, 3, 0, 2).reshape(n * n, n, n)
    slice_coords, residuals = project_onto_span(wop.dual_span.q, all_slices)
    worst_member = float(residuals.max())
    if worst_member > max(tol, rounding_allowance(n)) * (1.0 + frob(wop.w)):
        raise VerificationError(
            f"a right slice escapes the dual subspace (residual {worst_member:.3e})",
            check="dual_subspace_membership",
        )
    if numerical_rank(slice_coords, tol) != n:
        raise VerificationError(
            "right slices of W do not span an n-dimensional space", check="dual_subspace_dimension"
        )
    rb = ReportBuilder().add_count("dimension", rank, n)
    rb.add("closed_under_product_and_adjoint", wop.slice_closure[2], tol)
    return rb.add("w_expansion", wop.expansion_residual, tol).build()


def _dual_coproducts(w, xs) -> np.ndarray:
    """W* (1 (x) x) W for each x in the stack ``xs``, filled into one stack an
    element at a time by two matmuls: (1 (x) x) W multiplies x into the
    second row leg of W for each first one."""
    k, n, _ = xs.shape
    w_legs, w_adj = w.reshape(n, n, n * n), w.conj().T
    images = np.empty((k, n * n, n * n), dtype=complex)
    for x, image in zip(xs, images):
        np.matmul(w_adj, (x @ w_legs).reshape(n * n, n * n), out=image)
    return images


def dual_coproduct(wop: MultiplicativeUnitary, x) -> np.ndarray:
    """W* (1 (x) x) W, the coproduct of the dual quantum group."""
    return _dual_coproducts(wop.w, np.asarray(x, dtype=complex)[None])[0]


def _doubled_span_coords(wop: MultiplicativeUnitary, ys) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates C of each operator in the stack ``ys`` over the orthonormal
    pairs Q_a (x) Q_b, and its distance from their span: regrouping legs turns
    kron(x_i, x_j) into x_i x_j^T over flattened matrices, so that span is
    {Q X Q^T} and C = Q* Z conj(Q).  One operator is regrouped at a time."""
    n, q = wop.dim, wop.dual_span.q
    coeffs, remainders = [], []
    for y in ys.reshape(-1, n * n, n * n):
        z = y.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
        c = q.conj().T @ z @ q.conj()
        coeffs.append(c)
        remainders.append(frob(z - q @ c @ q.T))
    return np.array(coeffs), np.array(remainders)


def _stop_above(defects, tol: float) -> tuple[float, bool]:
    """The largest of ``defects``, or the first above ``tol`` (or NaN) and True:
    one such defect proves the failure, so the walk stops there."""
    worst = 0.0
    for defect in defects:
        if not defect <= tol:
            return defect, True
        worst = max(worst, defect)
    return worst, False


def _exact_coassociativity(wop: MultiplicativeUnitary, tol: float) -> tuple[float, bool]:
    """Coassociativity defects over the slice basis by leg contraction, walked by
    ``_stop_above``: (dual-coproduct (x) id) of dx conjugates legs 1,2;
    (id (x) dual-coproduct) conjugates legs 2,3 with dx placed on legs 1,3."""
    n, w_mat = wop.dim, wop.w
    w_adj = w_mat.conj().T
    return _stop_above((
        leg_distance([(w_adj, [1, 2]), (dx, [2, 3]), (w_mat, [1, 2])],
                     [(w_adj, [2, 3]), (dx, [1, 3]), (w_mat, [2, 3])], (n, n, n))
        for dx in wop.dual_coproducts
    ), tol)


def _exact_multiplicativity(wop: MultiplicativeUnitary, tol: float) -> tuple[float, bool]:
    """Multiplicativity defects over pairs of slice-basis elements, walked by ``_stop_above``."""
    pairs = list(zip(wop.slice_basis, wop.dual_coproducts))
    defects = (frob(dual_coproduct(wop, x @ y) - dx @ dy) for x, dx in pairs for y, dy in pairs)
    return _stop_above(defects, tol)


def _exact_first_leg(wop: MultiplicativeUnitary) -> float:
    """Defect of (dual-coproduct (x) id) W = W13 W23 by leg contraction."""
    n, w_mat = wop.dim, wop.w
    lhs = [(wop.dual_coproducts, [1, 2]), (wop.left_regular, [3])]
    return leg_distance(lhs, [(w_mat, [1, 3]), (w_mat, [2, 3])], (n, n, n))


def _exact_star(wop: MultiplicativeUnitary, _) -> tuple[float, bool]:
    """max_j ||sum_k c_jk dual-coproduct(x_k) - dual-coproduct(x_j)*||_F over the stack:
    |conj(a) - b^T| = |a - b*| entrywise, one element of sum_k c_jk images[k] at a time."""
    images = wop.dual_coproducts
    flat = images.reshape(len(images), -1)
    star = [frob(np.conj(c @ flat) - image.T.ravel()) for c, image in zip(wop.slice_closure[1], images)]
    return float(np.max(star)), False


def _add_bounded(rb: ReportBuilder, name: str, bound: float, tol: float, exact, wop) -> None:
    """Report ``bound`` if it is within ``tol``, else the residual of
    ``exact(wop, tol)``, which also says whether its walk stopped above ``tol``."""
    if bound <= tol:
        rb.add(name, bound, tol, "certified upper bound on the residual")
        return
    residual, stopped = exact(wop, tol)
    how = "exact contraction stopped above tol" if stopped else "exact contraction"
    rb.add(name, residual, tol, f"{how}; certified bound {bound:.3e} exceeds tol")


def verify_dual_coproduct_identities(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Global laws of the dual coproduct on the slice basis: (dual-coproduct (x)
    id) W = W13 W23, coassociativity, the *-homomorphism property,
    multiplicativity and images in the doubled span, each a certified bound for
    any W (w2 = 1 + u >= ||W||_2^2, u = ||W*W - I||_F = ||WW* - I||_F); above
    ``tol``, or NaN, the exact computation over ``dual_coproducts``, whose
    coassociativity and multiplicativity walks stop at the first defect above
    ``tol``, in (tol, exact maximum]; a walk that would pass never stops.

    pi_l >= ||P_l||, P_l = dual-coproduct(x_l) - Y_l, Y_l = sum_jk m_l[j, k] x_j
    (x) x_k, m_l = mult[:, :, l] (``sandwich_certificate``, with the conjugation
    bounds): with x_s x_j = sum_p c[s, j, p] x_p + r_sj (``slice_closure``), (1 (x)
    x_l) W - W Y_l = sum_p x_p (x) D_lp - sum_sjk m_l[j, k] r_sj (x) L_s x_k + (1 (x)
    x_l) E - E Y_l, D_lp = x_l L_p - sum_sjk c[s, j, p] m_l[j, k] L_s x_k;
    ``_sandwich_bounds`` with A = 1 (x) x_l, B = Y_l, plus 4 n eps w2 (||X||_2
    ||Y_l||_F + w2 sqrt(n) ||x_l||_F).
    With R = Q* X and d_j = x_j - Q R_j, Y_l = sum_ab (R m_l R^T)_ab Q_a (x) Q_b +
    sum_jk m_l[j, k] (d_j (x) x_k + Q R_j (x) d_k), so r_l = pi_l + 2 ||m_l||_2
    ||X||_2 ||d||_F bounds the distance from the Q_a (x) Q_b, which
    ``image_in_doubled_span`` and ``intertwines_coproducts`` report.

    First leg: the left side is W12* (W23 - E23) W12, and W12* W23 W12 - W13 W23
    = W12* (pentagon defect) W23 + W12* W23 W12 (I - W23* W23) + (W12* W12 - I)
    W13 W23, so the defect is at most w2 P + sqrt(n) u (w2^3/2 + w2) + sqrt(n) w2
    ||E||_F, P the pentagon residual reported, plus the allowance with Kronecker
    side w2 sqrt(n) ||X||_F ||L||_2 >= ||Delta-hat||_F ||L||_2.  Coassociativity
    on Y_l is sum_abc A_abc x_a (x) x_b (x) x_c, A the associativity defect of
    mult at e_l (a Gram form); the P_j add 2 ||m_l||_2 ||X||_2 ||pi|| + 2 sqrt(n)
    w2 pi_l, and 2 n w2^2 ||x_l||_F caps it.  Where the cap binds, or the bound
    exceeds ``tol``, the coefficients C_l of ``dual_coproduct_coords`` bound it
    too, exactly for a unitary W whose dual coproducts keep to the doubled span:
    with C^a for Q_a through T = ``dual_span.to_coords`` and e = 4 n^2 eps w2, by
    ||sum_a C_lak C^a_ij - sum_b C_lib C^b_jk|| + (2 ||T||_2 ||r|| + e) ||C_l|| +
    2 sqrt(n) w2 r_l.  Multiplicativity, W*(1 (x) x)(I - WW*)(1 (x) y)W, is at
    most w2 max_j ||x_j||_2^2 (w2 - 1 + 4 n^2 eps).  For the *-homomorphism law,
    x_j* = sum_k c_jk x_k + s_j (``slice_closure``) and sum_k c_jk
    dual-coproduct(x_k) - dual-coproduct(x_j)* = W*(1 (x) s_j)W, at most w2
    sqrt(n) ||s_j||_F: it fails when the slice span is not closed under adjoint
    (dual-coproduct(x*) would prove nothing, being dual-coproduct(x)* for any W).
    """
    n, u, xs = wop.dim, wop.unitarity_defect, wop.slice_basis
    w2, (x_norm, x2, _, m_norms) = 1.0 + u, wop.spectral_norms
    pentagon = wop.pentagon_bound if wop.pentagon_bound <= tol else wop.pentagon_exact
    first_leg = w2 * pentagon + np.sqrt(n) * (u * (w2 ** 1.5 + w2) + w2 * wop.expansion_residual)
    first_leg += _allowance(n, wop.w, w2, w2 * np.sqrt(n) * frob(xs) * _norm2(wop.left_regular))
    rb = ReportBuilder()
    _add_bounded(rb, "dual_coproduct_on_first_leg_of_w", first_leg, tol,
                 lambda w, _: (_exact_first_leg(w), False), wop)
    rounding = rounding_allowance(n)
    pi, remainders = wop.sandwich_certificate[3:]
    m, gx, x_frob = wop.algebra.mult, wop.grams[1], np.linalg.norm(xs, axis=(1, 2))
    # (e_a e_b) e_c - e_a (e_b e_c) at e_l, at [l, a, b, c]; its Gram form over a, c, then b
    assoc = np.tensordot(m, m, (2, 0)).transpose(3, 0, 1, 2)
    assoc -= np.tensordot(m, m, (2, 1)).transpose(3, 2, 0, 1)
    g = (gx @ assoc.reshape(n, n, -1)).reshape(-1, n) @ gx.T
    g = (gx @ g.reshape(n * n, n, n)).reshape(assoc.shape)
    coassoc = np.sqrt(np.abs(np.sum(assoc.conj() * g, axis=(1, 2, 3)).real))
    coassoc += 2 * (x_norm * m_norms * frob(pi) + np.sqrt(n) * w2 * pi)
    cap = 2 * w2 ** 2 * n * x_frob
    if not np.all(coassoc < np.minimum(cap, tol)):
        coeffs, r = wop.dual_coproduct_coords
        t = wop.dual_span.to_coords
        up = np.einsum("ja,jcd->acd", t, coeffs).reshape(t.shape[1], -1)  # C^a over (c, d)
        slack = 2 * np.linalg.norm(t, 2) * np.linalg.norm(r) + rounding * w2
        coassoc = np.minimum(coassoc, [frob((up.T @ c).ravel() - (c @ up).ravel()) + slack * frob(c)
                                       + 2 * np.sqrt(n) * w2 * r_l for c, r_l in zip(coeffs, r)])
    mult = w2 * x2.max() ** 2 * (w2 - 1 + rounding)
    # sum_k c_jk dual-coproduct(x_k) - dual-coproduct(x_j)* = W* (1 (x) s_j) W
    c = wop.slice_closure[1]
    star = np.linalg.norm(c @ xs.reshape(n, -1) - xs.conj().transpose(0, 2, 1).reshape(n, -1), axis=1)
    star += 4 * n * np.finfo(float).eps * w2 * (np.linalg.norm(c, axis=1) * frob(xs) + x_frob)
    star *= w2 * np.sqrt(n)
    _add_bounded(rb, "dual_coproduct_coassociative", float(np.max(np.minimum(coassoc, cap))), tol,
                 _exact_coassociativity, wop)
    _add_bounded(rb, "dual_coproduct_star_homomorphism", float(star.max()), tol, _exact_star, wop)
    _add_bounded(rb, "dual_coproduct_multiplicative", mult, tol, _exact_multiplicativity, wop)
    _add_bounded(rb, "image_in_doubled_span", float(remainders.max()), tol,
                 lambda w, _: (float(w.dual_coproduct_coords[1].max()), False), wop)
    return rb.build()

