"""Actions of classical finite groups on a finite quantum group by
Hopf *-automorphisms, and the commutativity machinery they feed.

A group K acts through a homomorphism k -> theta_k into the Hopf
*-automorphisms of the algebra.  The induced coaction into A (x) C(K) is
alpha(a) = sum_k theta_k(a) (x) delta_k.  C(K) acts on C^K by the diagonal
matrix units delta_k -> E_kk, on which every stack below places its C(K) leg,
and its antipode is the inversion delta_k -> delta_{k^-1}.  The stack theta
comes from ``builders.resolve_automorphisms``; ``action_axioms_report`` checks,
all theta_k at once, that it is such a homomorphism and alpha a coaction.

From the coaction we assemble

- beta(a)  = sum_k delta_k (x) theta_{k^-1}(a)   in C(K) (x) A,
- gamma    = conjugation of alpha by the Fourier transform, a coaction of
  C(K) on the dual subspace,
- V        = (id (x) beta) W on three legs [n, |K|, n],

all held, with K, theta, W and the Haar pairing, by ``IntertwinerData``: the
context of the action on W, which ``build_intertwiner_data`` builds once and
every action stage reads, called as ``(data, tol)``.  The stages verify
invariance of the Haar state and its strong form, the exchange identity
(id (x) beta) W = (gamma (x) id) W together with its sliced consequence, and
the commutation V234 V135 = V135 V234 on five legs (checked in full, from
V's middle-leg blocks and with certified bounds on the four-leg expansions
of V, when small, through slice families otherwise), whose slices show the
algebra generated by the slices of beta is commutative.
For a classical K, C(K) is diagonal, so V is block-diagonal in its middle
leg and both commutations hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StructuralError
from .groups import CayleyTable
from .haar import fourier_matrix
from .hopf import DEFAULT_TOL, FiniteHopfStarAlgebra, is_hopf_star_automorphism
from .multiplicative import MultiplicativeUnitary, coproduct_expansion_bound, coproduct_operators
from .multiplicative import _add_bounded, _allowance, _gram, _kron_gram_square
from .report import ReportBuilder, VerificationReport
from .tensors import (
    _rank_above,
    freeze,
    frob,
    kron_sum,
    kron_sum_distance,
    leg_distance,
    leg_distance_bytes,
    star_homomorphism_defects,
)

FULL_MODE_BYTES = 2 ** 30
AUTO_FULL_THRESHOLD = 10 ** 3


# -- the axioms of the action ----------------------------------------------


def action_axioms_report(
    algebra: FiniteHopfStarAlgebra, k_group: CayleyTable, theta, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Homomorphism property, automorphism property, coaction axiom, density."""
    theta = np.asarray(theta, dtype=complex)
    m, n = k_group.order, algebra.dim
    if theta.shape != (m, n, n):
        raise StructuralError(f"theta must have shape {(m, n, n)}, got {theta.shape}")
    rb = ReportBuilder()
    scale = max(1.0, float(np.abs(theta).max()))
    tol_eff = tol * scale

    identity_defect = theta[k_group.identity_index].copy()
    identity_defect[np.diag_indices(n)] -= 1.0  # theta_e minus the identity
    rb.add("theta_identity", frob(identity_defect), tol_eff)
    hom = _homomorphism_defects(theta, k_group)
    rb.add("theta_homomorphism", float(hom.max()), tol_eff)

    # per element, laws at tol * max(scale, ||theta_k||_F) and invertibility at 0: the largest residual
    # exceeds each failing sub-check's tolerance, and is reported against the largest of those, or of all
    reports = is_hopf_star_automorphism(algebra, theta, tol)
    subs = [(label, c) for label, sub in zip(k_group.labels, reports) for c in sub.checks]
    failing = [(label, c) for label, c in subs if not c.passed]
    residual = np.max([np.nan if c.residual is None else c.residual for _, c in subs])
    detail = f"element {failing[0][0]} fails {failing[0][1].name}" if failing else ""
    rb.add("theta_automorphisms", residual, max(c.tolerance for _, c in failing or subs), detail)

    # coaction axiom: both sides live in A (x) C(K) (x) C(K)
    rb.add("coaction_axiom", frob(hom), tol_eff)

    # Podles density: alpha(A)(1 (x) C(K)) spans A (x) C(K); the vectors theta_k(e_i)
    # (x) delta_k are block-diagonal over k, so their singular values are the blocks'
    rank = _rank_above(np.linalg.svd(theta, compute_uv=False), tol)
    rb.add_count("podles_density", rank, n * m)

    distinct = _distinct_automorphisms(theta, tol)
    if distinct == m:
        note = f"faithful: {m} distinct automorphisms"
    elif distinct == 1:
        note = f"theta is trivial: 1 distinct automorphism for group order {m}"
    else:
        note = f"not faithful: {distinct} distinct automorphisms for group order {m}"
    rb.add("theta_image_size", 0.0, 0.0, detail=note)

    return rb.build()


def _homomorphism_defects(maps, group: CayleyTable) -> np.ndarray:
    """(|K|, |K|) Frobenius norms of maps[j] maps[k] - maps[jk], the coaction
    law written in coordinates."""
    return np.linalg.norm(maps[:, None] @ maps[None] - maps[group.table], axis=(2, 3))


def _distinct_automorphisms(theta, tol: float) -> int:
    """Number of distinct theta_k, two counting as equal when no entry
    differs by more than tol * max(1, max |theta|)."""
    scale = max(1.0, float(np.abs(theta).max()))
    close = np.abs(theta[:, None] - theta[None]).max(axis=(2, 3)) <= tol * scale
    return sum(not close[k, :k].any() for k in range(len(theta)))


# -- the context: beta, gamma and V -----------------------------------------


@dataclass(frozen=True)
class IntertwinerData:
    """The context of an action on W, built once by ``build_intertwiner_data``;
    every action stage reads it.

    - wop is the multiplicative unitary the action acts on; its algebra is
      ``wop.algebra`` and its Haar state ``wop.haar``.
    - group is the acting group K; theta[k] is the automorphism of k as an
      (n, n) coordinate matrix, and theta_inv[k] = theta[k^-1].  Both are
      read-only.
    - pair[b, i] = haar(e_b e_i), the Haar pairing (``haar.fourier_matrix``).
    - beta_ops[j] = beta(e_j) on C^K (x) H (k slowest): its diagonal block
      (k, k), on E_kk, is left multiplication by theta_{k^-1}(e_j).
    - gamma_ops[j] = gamma(x_j) on H (x) C^K for the slice basis x_j of the
      dual subspace, sum_k gamma_hat[k](x_j) (x) E_kk.
    - gamma_hat[k] is the conjugated automorphism acting on dual-subspace
      coordinates.
    - v = (id (x) beta) W, a read-only matrix on legs [n, |K|, n].
    - v_last_leg[i] = sum_{j,k} theta_inv[k, i, j] x_j (x) E_kk, so that
      V = sum_i v_last_leg[i] (x) L_i up to ``v_expansion_residual``, measured from v.
    """

    group: CayleyTable
    theta: np.ndarray
    theta_inv: np.ndarray
    wop: MultiplicativeUnitary
    pair: np.ndarray
    beta_ops: np.ndarray
    gamma_ops: np.ndarray
    gamma_hat: np.ndarray
    v: np.ndarray
    v_last_leg: np.ndarray

    @cached_property
    def v_expansion_residual(self) -> float:
        return kron_sum_distance(self.v_last_leg, self.wop.left_regular, self.v)

    @cached_property
    def strong_invariance_defect(self) -> float:
        """max |theta_k^T pair - pair theta_{k^-1}|, over k and every entry."""
        theta, pair = self.theta, self.pair
        return float(np.max(np.abs(theta.transpose(0, 2, 1) @ pair - pair @ self.theta_inv)))


def build_intertwiner_data(wop: MultiplicativeUnitary, group: CayleyTable, theta) -> IntertwinerData:
    """The context on W of the action of ``group`` by the (|K|, n, n) stack
    ``theta``, whose axioms ``action_axioms_report`` checks: theta and
    theta_inv, the Haar pairing, the beta and gamma stacks and
    V = (id (x) beta) W."""
    theta = freeze(np.array(theta, dtype=complex))  # a copy: the caller keeps theirs writable
    theta_inv = freeze(theta[group.inverses()])
    left_regular = wop.left_regular
    n, m = wop.algebra.dim, group.order
    pair = fourier_matrix(wop.algebra, wop.haar)
    gamma_hat = pair @ theta @ np.linalg.inv(pair)

    # delta_k acts on C^K as E_kk: each stack is written onto the diagonal of its C(K) leg
    # (through a five-index view), V built before the other two stacks exist
    ks, xs = np.arange(m), wop.slice_basis
    beta_ops = np.zeros((n, m * n, m * n), dtype=complex)
    beta_ops.reshape(n, m, n, m, n)[:, ks, :, ks] = np.einsum("kij,iab->kjab", theta_inv, left_regular)
    v = freeze(kron_sum(xs, beta_ops))
    gamma_ops, v_last = np.zeros((2, n, n * m, n * m), dtype=complex)
    gamma_ops.reshape(n, n, m, n, m)[:, :, ks, :, ks] = np.einsum("kij,ipq->kjpq", gamma_hat, xs)
    v_last.reshape(n, n, m, n, m)[:, :, ks, :, ks] = np.einsum("kij,jpq->kipq", theta_inv, xs)
    return IntertwinerData(group, theta, theta_inv, wop, pair, beta_ops, gamma_ops, gamma_hat, v, v_last)


# -- invariance -------------------------------------------------------------


def verify_haar_invariance(data: IntertwinerData, tol: float = DEFAULT_TOL) -> VerificationReport:
    """haar(theta_k(a)) = haar(a) for every group element and basis element."""
    h = data.wop.haar.coords
    worst = float(np.max(np.abs(h @ data.theta - h)))
    rb = ReportBuilder()
    rb.add("haar_invariant_under_action", worst, tol)
    return rb.build()


def verify_strong_right_invariance(
    data: IntertwinerData, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Strong right invariance plus the two mutually inverse shear maps.

    The invariance identity equates, for every basis pair (a, b) and pointwise
    on the group, haar(theta_k(a) b) with haar(a theta_{k^-1}(b)).  The shear
    maps a (x) c -> alpha(a)(1 (x) c) and its antipode-twisted partner must
    compose to the identity on A (x) C(K); this is the device that proves the
    invariance identity.
    """
    rb = ReportBuilder()
    rb.add("strong_right_invariance", data.strong_invariance_defect, tol)
    # both maps act on e_i (x) delta_k as theta_k, resp. theta_{k^-1}, times
    # delta_k: their compositions are the blocks theta_k theta_{k^-1} over k, in
    # either order, since theta_{k^-1} theta_k is the block at k^-1
    shear = frob(data.theta @ data.theta_inv - np.eye(data.wop.algebra.dim))
    rb.add("shear_maps_mutually_inverse", shear, tol)
    return rb.build()


# -- beta, gamma, and the exchange identity --------------------------------


def verify_beta(data: IntertwinerData, tol: float = DEFAULT_TOL) -> VerificationReport:
    """beta is a unital *-homomorphism and agrees with its antipode-sandwich form
    S^T theta_inv S^T (as a coordinate map, beta is ``theta_inv``); the two agree
    exactly when the automorphisms commute with the antipode."""
    a = data.wop.algebra
    s_op = a.antipode.T
    unit, mult, star = star_homomorphism_defects(data.beta_ops, a.mult, a.star, a.unit)
    rb = ReportBuilder()
    rb.add("beta_unital", unit, tol)
    rb.add("beta_multiplicative", float(mult.max()), tol)
    rb.add("beta_star_homomorphism", float(star.max()), tol)
    rb.add("beta_antipode_form_agreement", frob(data.theta_inv - s_op @ data.theta_inv @ s_op), tol)
    return rb.build()


def verify_gamma(data: IntertwinerData, tol: float = DEFAULT_TOL) -> VerificationReport:
    """gamma is a unital *-homomorphism on the dual subspace and a coaction."""
    # the unit of the dual subspace, the identity operator, is the image of the counit
    product_coords, star_coords, _ = data.wop.slice_closure
    unit, mult, star = star_homomorphism_defects(
        data.gamma_ops, product_coords, star_coords, data.wop.algebra.counit
    )
    rb = ReportBuilder()
    rb.add("gamma_unital", unit, tol)
    rb.add("gamma_multiplicative", float(mult.max()), tol)
    rb.add("gamma_star_homomorphism", float(star.max()), tol)
    coaction = _homomorphism_defects(data.gamma_hat, data.group)
    rb.add("gamma_coaction_axiom", frob(coaction), tol)
    return rb.build()


def verify_action_intertwiner(data: IntertwinerData, tol: float = DEFAULT_TOL) -> VerificationReport:
    """(id (x) beta) W = (gamma (x) id) W, plus its sliced scalar family.

    The sliced family compares, for every basis pair (a, b) and every group
    element, haar(b theta_k(a)) with haar(theta_{k^-1}(b) a); it is the
    scalar consequence obtained by slicing the exchange identity.  At k it is
    minus strong right invariance at k^-1, entry by entry, so it reads the
    same cached ``strong_invariance_defect`` as ``verify_strong_right_invariance``
    and cannot fail alone.
    """
    rb = ReportBuilder()
    rb.add("intertwiner_exchange", kron_sum_distance(data.gamma_ops, data.wop.left_regular, data.v), tol)
    rb.add("intertwiner_sliced_family", data.strong_invariance_defect, tol)
    return rb.build()


def full_mode_bytes(n: int, m: int) -> int:
    """Estimated peak bytes of the arrays of full mode for algebra dimension
    n and group order m.

    The largest of the tiles of the two four-leg expansions (each side a
    product of two factors; only a bound above the tolerance contracts them),
    the arrays of their Gram forms (three (n, n, nm, nm), three (n, n^2, n^2))
    and the two (m, K, K) slices of the five-leg kernel, K = min(n^4, m^2)
    (``_five_leg_commutator_norm``); plus V, the stack of its slice generators
    and the copies that building V and the QR of V's middle-leg blocks make,
    each at most the size of V (3 * 16 * (n^2 m)^2), and the stacks of dual
    coproducts and coproducts of the basis (2 * 16 * n^5).  Python objects and
    the report are not counted, so below about 100 kB the figure is not an
    upper bound.
    """
    k = min(n ** 4, m * m)
    four_leg = max(leg_distance_bytes((n, n, m, n), 2), leg_distance_bytes((n, m, n, n), 2))
    gram = 3 * 16 * (n * n * m) ** 2 + 3 * 16 * n ** 5
    return max(four_leg, gram, 2 * 16 * m * k * k) + 3 * 16 * (n * n * m) ** 2 + 2 * 16 * n ** 5


def commutation_mode(n: int, m: int, mode: str) -> str:
    """``mode`` resolved to "full" or "sliced" at algebra dimension n and group
    order m: "auto" picks "full" for five-leg dimension up to 10^3.  Raises
    StructuralError, before anything is allocated, when full mode would need
    over FULL_MODE_BYTES (``full_mode_bytes``)."""
    if mode == "auto":
        mode = "full" if n * n * m * n * n <= AUTO_FULL_THRESHOLD else "sliced"
    if mode not in ("full", "sliced"):
        raise StructuralError(f"mode must be 'auto', 'full' or 'sliced', got {mode!r}")
    if mode == "full" and (need := full_mode_bytes(n, m)) > FULL_MODE_BYTES:
        raise StructuralError(f"full mode needs about {need} bytes > {FULL_MODE_BYTES}; use sliced mode")
    return mode


def verify_slice_commutativity(
    data: IntertwinerData, tol: float = DEFAULT_TOL, mode: str = "auto"
) -> VerificationReport:
    """Commutation of V234 with V135, fully or through slice families.

    mode="full" measures V234 V135 - V135 V234 exactly from the m^2
    middle-leg blocks of V (``_five_leg_commutator_norm``), forming no
    five-leg operator, and reports the two four-leg coproduct expansions of V
    used to derive the commutation as certified bounds from Gram forms over
    V's leg factors (``_dual_expansion_bound``, ``coproduct_expansion_bound``),
    each with its exact contraction (``tensors.leg_distance``) as fallback.
    mode="sliced" checks the equivalent scalar-slice family instead: the
    slices of V by matrix units of its outer legs are matrices in C(K), and
    the commutators of an orthonormal basis of their span must vanish
    (commutativity extends bilinearly, so a basis is enough).
    ``commutation_mode`` resolves "auto" and refuses a "full" too large.
    C(K) is diagonal, so V is block-diagonal in its middle leg: both
    commutations hold by construction (the full one reads exactly 0.0) and
    become informative only with a non-commutative coefficient algebra.

    Every mode ends with ``beta_slices_generate``: those slices, closed
    under matrix products, span an algebra whose dimension equals the number
    of distinct automorphisms.
    """
    wop = data.wop
    n, m = wop.algebra.dim, data.group.order
    dim5 = n * n * m * n * n
    mode = commutation_mode(n, m, mode)
    rb = ReportBuilder()

    if mode == "full":
        v = data.v
        rb.add(
            "five_leg_commutation",
            _five_leg_commutator_norm(v, n, m),
            tol,
            detail=f"five-leg dimension {dim5}",
        )

        # the four-leg expansions as certified bounds, each with its exact contraction
        # as fallback; ||V||_2^2 <= 1 + ||V*V - I||_F
        v2 = 1.0 + frob(v.conj().T @ v - np.eye(len(v)))
        lhs = [(wop.dual_coproducts, [1, 2]), (data.beta_ops, [3, 4])]
        bound = _dual_expansion_bound(data, v2)
        _add_bounded(rb, "dual_coproduct_expansion_of_v", bound, tol, lambda *_: (
            leg_distance(lhs, [(v, [1, 3, 4]), (v, [2, 3, 4])], (n, n, m, n)), False), data)
        bound = coproduct_expansion_bound(data.v_last_leg, v, data.v_expansion_residual, v2, wop)
        _add_bounded(rb, "coproduct_expansion_of_v", bound, tol, lambda *_: (leg_distance(
            [(data.v_last_leg, [1, 2]), (coproduct_operators(wop), [3, 4])],
            [(v, [1, 2, 3]), (v, [1, 2, 4])], (n, m, n, n)), False), data)

    # slice V in its outer legs with all matrix-unit vector functionals; the
    # middle-leg matrices obtained this way generate the image of beta's slices
    t = data.v.reshape(n, m, n, n, m, n)
    generators = t.transpose(0, 3, 2, 5, 1, 4).reshape(n * n * n * n, m * m)
    keep = np.linalg.norm(generators, axis=1) > tol  # the stack itself when every row is kept
    basis = _span_rows(generators if keep.all() else generators[keep], tol).reshape(-1, m, m)
    products = np.einsum("aij,bjk->abik", basis, basis)

    if mode == "sliced":
        rb.add(
            "sliced_commutation",
            float(np.max(np.abs(products - products.transpose(1, 0, 2, 3)), initial=0.0)),
            tol,
            detail=(
                f"{keep.sum()} nonzero slice generators, an orthonormal basis of "
                f"{len(basis)} for their span, {len(basis) ** 2} ordered pairs"
            ),
        )

    # the slices of beta generate the functions constant on fibres of theta
    generated_dim = _generated_dimension(basis, products, tol)
    distinct_theta = _distinct_automorphisms(data.theta, tol)
    rb.add_count(
        "beta_slices_generate",
        generated_dim,
        distinct_theta,
        detail=(
            f"generated algebra dimension {generated_dim}, distinct automorphisms "
            f"{distinct_theta} of group order {m}"
            + ("" if distinct_theta == m else "; action is not faithful")
        ),
    )
    return rb.build()


def _dual_expansion_bound(data: IntertwinerData, v2: float) -> float:
    """Certified upper bound on ||(dual-coproduct (x) id (x) id) V - V134 V234||_F,
    v2 >= ||V||_2^2, for V = sum_j x_j (x) beta_j + E' (slice basis x_j, beta_j
    = beta(e_j)).  With P_l = dual-coproduct(x_l) - sum_jk mult[j, k, l] x_j (x) x_k
    and F_jk = beta_j beta_k - sum_l mult[j, k, l] beta_l, differences of small
    matrices, the left side minus sum_jk x_j (x) x_k (x) beta_j beta_k is
    sum_l P_l (x) beta_l - sum_jk (x_j (x) x_k) (x) F_jk.  Its square is
    a + b - 2 Re c, a = sum <P_l, P_l'> <beta_l, beta_l'>, b = sum <F_jk, F_j'k'>
    Gx_jj' Gx_kk' (Gx the Gram matrix of the x_j), c = sum <P_l, x_j (x) x_k>
    <beta_l, F_jk>, read off X conj(P_l) X^T with P_l regrouped as in
    ``_doubled_span_coords``.  Against cancellation 4 k eps (a* + b*) is added,
    k = max(n^2, nm), a* = ||P||^2 ||Gbeta||_2 >= a, b* = ||F||^2 ||Gx||_2^2 >= b;
    e' = ||E'||_F, measured from V, and the allowance enter as in
    ``coproduct_expansion_bound``, with Kronecker side ||Delta-hat||_F ||B||_2.
    """
    wop, betas, v = data.wop, data.beta_ops, data.v
    n, xs, mult = wop.dim, wop.slice_basis, wop.algebra.mult
    flat, images = xs.reshape(n, -1), wop.dual_coproducts
    # P_l regrouped, (p, r), (q, s) -> (p, q), (r, s); sum_jk mult[j, k, l] vec x_j vec x_k^T
    p = images.reshape((n,) * 5).transpose(0, 1, 3, 2, 4).reshape(n, n * n, n * n)
    p = p - np.tensordot(np.tensordot(mult, flat, (0, 0)), flat, (0, 0))
    f = betas[:, None] @ betas[None] - np.tensordot(mult, betas, (2, 0))
    gx, gb = wop.grams[1], _gram(betas)
    a, b = float(np.vdot(p, gb @ p.reshape(n, -1)).real), _kron_gram_square(f, gx, gx)
    h = flat @ p.conj() @ flat.T  # h[l, j, k] = <P_l, x_j (x) x_k>
    c = np.sum(h.reshape(n, -1) * (betas.reshape(n, -1).conj() @ f.reshape(n * n, -1).T))
    top = frob(p) ** 2 * np.linalg.norm(gb, 2) + frob(f) ** 2 * np.linalg.norm(gx, 2) ** 2
    square = a + b - 2 * c.real + 4 * max(n * n, betas.shape[1]) * np.finfo(float).eps * top
    kron_side = frob(images) * np.linalg.norm(betas.reshape(n, -1), 2)
    return float(np.sqrt(abs(square)) + _allowance(n, v, v2, kron_side, kron_sum_distance(xs, betas, v)))


def _five_leg_commutator_norm(v, n: int, m: int) -> float:
    """||V234 V135 - V135 V234||_F for V on legs [n, m, n], from V's middle-leg blocks.

    Write V = sum_{c,e} X^{ce} (x) E_ce, with E_ce a matrix unit on the middle
    leg and X^{ce} an operator on the outer legs.  Then
    V234 V135 - V135 V234 = sum_{c,d} E_cd (x) sum_e (X^{ed}_15 X^{ce}_24 - X^{ce}_15 X^{ed}_24).
    Permuting legs and rearranging A (x) B into vec(A) vec(B)^T (Van Loan and
    Pitsianis) keep the Frobenius norm, so its square is
    sum_{c,d} ||sum_e (x^{ed} x^{ce T} - x^{ce} x^{ed T})||_F^2 with
    x^{ce} = vec X^{ce}, the columns of the (n^4, m^2) matrix G.  With G = QR
    and Q's columns orthonormal, the columns r^{ce} of R (K = min(n^4, m^2)
    rows) may replace the x^{ce}.  The sum is taken one c at a time: the work
    is O(n^4 m^4 + m^3 K^2), which is O(n^4 m^4) for m <= n, and the memory
    beyond G and the QR's working copy of it (each the size of V), or beyond
    R (at most that size) in the loop, is two (m, K, K) slices.  No block of
    V is assumed zero.
    """
    g = v.reshape(n, m, n, n, m, n).transpose(0, 2, 3, 5, 1, 4).reshape(n ** 4, m * m)
    r = np.linalg.qr(g, mode="r").reshape(-1, m, m)
    del g  # only R and two slices of t stay live in the loop
    squares = 0.0
    for c in range(m):
        # t[p, d, q] = sum_e r^{ed}_p r^{ce}_q; the second term is its transpose in (p, q)
        t = r.transpose(0, 2, 1) @ r[:, c].T
        t = t - t.transpose(2, 1, 0)
        squares += np.vdot(t, t).real
    return float(np.sqrt(squares))


def _span_rows(vectors, tol: float) -> np.ndarray:
    """Orthonormal rows spanning the rows of ``vectors``, at the rank threshold
    of ``numerical_rank``; a stack taller than wide is first reduced to its R
    factor, with the same singular values and right factor (Chan's R-SVD)."""
    if len(vectors) == 0:
        return np.zeros((0, vectors.shape[1]), dtype=complex)
    if len(vectors) > vectors.shape[1]:
        vectors = np.linalg.qr(vectors, mode="r")
    _, sigma, vh = np.linalg.svd(vectors, full_matrices=False)
    return vh[:_rank_above(sigma, tol)]


def _generated_dimension(basis, products, tol: float) -> int:
    """Dimension of the algebra the independent (k, m, m) stack ``basis``
    generates under matrix products; ``products`` holds its (k, k, m, m) pairs.

    Each round adds the products of an orthonormal basis of the current span
    (those of any basis span the same space) and takes one SVD; the span is
    closed once a round adds no dimension.
    """
    m = basis.shape[-1]
    while True:
        candidates = np.concatenate([basis, products.reshape(-1, m, m)])
        grown = _span_rows(candidates.reshape(-1, m * m), tol).reshape(-1, m, m)
        if len(grown) == len(basis):
            return len(basis)
        basis, products = grown, np.einsum("aij,bjk->abik", grown, grown)
