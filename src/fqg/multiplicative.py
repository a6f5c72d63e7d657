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
einsum over W's leg tensor.  A two-leg sum over the expansion, such as
(id (x) antipode) W, is measured by ``kron_sum_distance``.

``build_multiplicative_unitary`` reads this expansion off the structure
constants, x_j = R comult[:, :, j]^T R^-1, and factors the stacked x_j by one
SVD (``MultiplicativeUnitary.dual_span``): an orthonormal basis Q of the dual
subspace plus the map from Q-coordinates to coordinates over the x_j.  It
answers every dual-subspace question: the dimension, membership of a matrix,
the coordinates of products and adjoints (closure), and membership of a dual
coproduct in the doubled span (its distance from {Q X Q^T} after regrouping
the legs), so no pair basis is ever built.  What depends on W and the x_j
alone is computed on first read (see ``MultiplicativeUnitary``).

The pentagon, (id (x) coproduct) W = W12 W13 (a Gram form over W's leg
factors, ``coproduct_expansion_bound``), (dual-coproduct (x) id) W = W13 W23,
and coassociativity and multiplicativity of the dual coproduct are reported
as certified upper bounds built from certificates the context caches (see
``verify_pentagon`` and ``verify_dual_coproduct_identities``); a bound above
the tolerance gives way to the exact contraction (``leg_distance``), so a
passing run contracts no three-leg product.  The guards that end a stage
have the floor 4 n^2 eps, so a tolerance below rounding is reported as
failing checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from .errors import StructuralError, VerificationError
from .haar import GnsData
from .hopf import DEFAULT_TOL, FiniteHopfStarAlgebra
from .report import ReportBuilder, VerificationReport
from .tensors import (
    SpanBasis,
    freeze,
    frob,
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

    ``w`` is the read-only (n^2, n^2) matrix of W.  ``slice_basis[j]`` is the
    right slice of W by the j-th dual-basis functional of the algebra; these
    matrices span the dual subspace, and W = sum_j slice_basis[j] (x)
    left_regular[j] up to ``expansion_residual``, measured from ``w``.
    ``dual_span`` is the one SVD of the stacked slice basis: an orthonormal
    basis ``q`` of the dual subspace and the map from coordinates in ``q`` to
    coordinates over ``slice_basis``.  Every certificate the stages read is a
    cached property, computed on first read (the exact fallbacks
    ``second_leg_exact`` and ``pentagon_exact`` too): only a stage that reads
    ``dual_coproducts`` builds that n^5 stack, an exact contraction runs at
    most once, and a context rebuilt by ``dataclasses.replace`` computes its own.
    """

    w: np.ndarray
    algebra: FiniteHopfStarAlgebra
    gns: GnsData
    slice_basis: np.ndarray
    dual_span: SpanBasis

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def expansion_residual(self) -> float:  # ||W - sum_j x_j (x) L_j||_F, from this context's W
        return kron_sum_distance(self.slice_basis, self.gns.left_regular, self.w)

    @cached_property
    def unitarity_defect(self) -> float:  # one ||W*W - I||_F per context
        w = self.w
        return frob(w.conj().T @ w - np.eye(w.shape[0]))

    @cached_property
    def coproduct_defects(self) -> tuple[float, float]:
        """max_a ||W (L_a (x) 1) W* - coproduct(e_a)||_F, and the certified upper bound
        on ||(id (x) coproduct) W - W12 W13||_F (see ``verify_coproduct_implemented``)."""
        n, w, lr = self.dim, self.w, self.gns.left_regular
        # (L_a (x) 1) W* multiplies L_a into the first row leg of W*
        w_adj = w.conj().T.reshape(n, n**3)
        conjugation = np.max([
            frob(w @ (l_a @ w_adj).reshape(n * n, n * n) - _coproduct_operator(c_a, lr))
            for l_a, c_a in zip(lr, self.algebra.comult)
        ])
        e, w2 = self.expansion_residual, 1.0 + self.unitarity_defect
        return float(conjugation), coproduct_expansion_bound(self.slice_basis, w, e, w2, self)

    @cached_property
    def second_leg_exact(self) -> float:  # the exact contraction behind its bound
        n, w = self.dim, self.w
        lhs = [(self.slice_basis, [1]), (coproduct_operators(self), [2, 3])]
        return leg_distance(lhs, [(w, [1, 2]), (w, [1, 3])], (n, n, n))

    @cached_property
    def coproduct_gram(self) -> tuple[np.ndarray, float]:  # G_pr = tr(L_p* L_r), ||coproduct||_F
        g = _gram(self.gns.left_regular)
        return g, float(np.sqrt(abs(_kron_gram_square(self.algebra.comult.transpose(1, 2, 0), g, g))))

    @cached_property
    def pentagon_bound(self) -> float:
        """The certified upper bound on the pentagon defect derived in ``verify_pentagon``."""
        n, w2 = self.dim, 1.0 + self.unitarity_defect
        conjugation, second_leg = self.coproduct_defects
        x_norm = np.linalg.norm(self.slice_basis.reshape(n, -1), 2)
        bound = second_leg + _allowance(n, self.w, w2, x_norm * self.coproduct_gram[1])
        bound += x_norm * np.sqrt(n) * conjugation
        return float(bound + np.sqrt(n) * w2 * self.expansion_residual)

    @cached_property
    def pentagon_exact(self) -> float:
        """The exact n^8 pentagon defect, ``pentagon_residual(w)``."""
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


def _in_onb(gns: GnsData, t: np.ndarray) -> np.ndarray:
    """The (n^2, n^2) two-leg operator with algebra-coordinate entries
    t[p, k, i, j], in orthonormal GNS coordinates; read-only."""
    n = gns.to_onb.shape[0]
    r, q = gns.to_onb, gns.onb_change
    return freeze(np.kron(r, r) @ t.reshape(n * n, n * n) @ np.kron(q, q))


def build_multiplicative_unitary(
    a: FiniteHopfStarAlgebra, gns: GnsData
) -> MultiplicativeUnitary:
    """W in orthonormal coordinates, its expansion read off the structure
    constants, and the factorisation of the dual subspace.  The tensor below is
    sum_j X_j (x) mult[j]^T with X_j[p, i] = comult[i, p, j]; ``_in_onb``
    conjugates both legs by R = ``to_onb`` and L_j = R mult[j]^T R^-1, so
    W = sum_j x_j (x) L_j with x_j = R X_j R^-1, up to the rounding that
    ``expansion_residual`` measures."""
    xs = freeze(gns.to_onb @ a.comult.transpose(2, 1, 0) @ gns.onb_change)
    w = _in_onb(gns, np.einsum("ipq,qjk->pkij", a.comult, a.mult, optimize=True))
    return MultiplicativeUnitary(w, a, gns, xs, span_basis(xs))


def inverse_via_antipode(a: FiniteHopfStarAlgebra, gns: GnsData) -> np.ndarray:
    """Matrix of a (x) b -> ((id (x) antipode) coproduct(a)) (1 (x) b)."""
    return _in_onb(gns, np.einsum("ipq,ql,ljk->pkij", a.comult, a.antipode, a.mult, optimize=True))


def verify_unitarity(wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> VerificationReport:
    w = wop.w
    rb = ReportBuilder()
    rb.add("w_unitary_wstar_w", wop.unitarity_defect, tol)
    rb.add("w_unitary_w_wstar", frob(w @ w.conj().T - np.eye(w.shape[0])), tol)
    return rb.build()


def verify_inverse_via_antipode(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    v, w = inverse_via_antipode(wop.algebra, wop.gns), wop.w
    rb = ReportBuilder()
    rb.add("w_inverse_composes", frob(v @ w - np.eye(w.shape[0])), tol)
    rb.add("w_inverse_is_adjoint", frob(v - w.conj().T), tol)
    return rb.build()


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

    With W = sum_j x_j (x) L_j + E (||E||_F = ``expansion_residual``) and
    D_j = W (L_j (x) 1) W* - coproduct(e_j), the defect is
    [sum_j x_j (x) coproduct(e_j) - W12 W13] + sum_j x_j (x) D_j + W23 E12 W23*.
    The first term is at most the bound ``coproduct_on_second_leg_of_w``
    reports; the second regroups to X^T D over the flattened x_j and D_j, so
    it is at most ||X||_2 sqrt(n) max_j ||D_j|| (``conjugation_over_basis``);
    the third at most w2 sqrt(n) ||E||_F, as ||W||_2^2 <= w2 = 1 + ||W*W - I||_F.

    Each input is a sum over indices of length k <= n^2, so its rounding is
    of order 4 sqrt(k) eps = 4 n eps (the probabilistic bound of Higham and
    Mary 2019) relative to its operands: the Kronecker sum, at most
    ||X||_2 ||Delta||_F over the coproduct operators, and products of W on
    legs, at most w2 sqrt(n) ||W||_F, with a factor w2 for conjugating by W.
    Hence the allowance 4 n eps w2 (||X||_2 ||Delta||_F + w2 sqrt(n) ||W||_F);
    4 n^2 eps would grow as n^3.5 and reach the tolerance near n = 36.
    The bound is ``wop.pentagon_bound``; above ``tol``, or NaN, it gives way
    to the exact n^8 ``pentagon_residual`` (``wop.pentagon_exact``).
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
    multiplication by (haar (x) id)((e_i* (x) 1) coproduct(e_j)); all n^2
    slices, and all their targets, are one einsum each.
    """
    a, gns = wop.algebra, wop.gns
    n = a.dim
    r = gns.to_onb
    slices = np.einsum("pi,prqs,qj->ijrs", r.conj(), wop.w.reshape((n,) * 4), r, optimize=True)
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
    every basis element e_j, shape (n, n^2, n^2), filled one element at a
    time so that only one stack is held."""
    n, lr = wop.dim, wop.gns.left_regular
    stack = np.empty((n, n * n, n * n), dtype=complex)
    for c_a, delta in zip(wop.algebra.comult, stack):
        delta[...] = _coproduct_operator(c_a, lr)
    return stack


def _coproduct_operator(c_a, lr) -> np.ndarray:
    """sum_pq c_a[p, q] L_p (x) L_q by two tensordots, which plan no einsum path."""
    t = np.tensordot(np.tensordot(c_a, lr, (0, 0)), lr, (0, 0))  # (a, c, b, d)
    return t.transpose(0, 2, 1, 3).reshape(len(c_a) ** 2, -1)


def _gram(stack) -> np.ndarray:  # G_pr = tr(A_p* A_r) over a stack of matrices A_p
    return np.tensordot(stack.conj(), stack, ((1, 2), (1, 2)))


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
    n = wop.dim
    gram, delta_norm = wop.coproduct_gram
    m = np.tensordot(wop.algebra.comult, ys, (0, 0)) - ys[:, None] @ ys[None]
    square, y_norm = _kron_gram_square(m, gram, gram), np.linalg.norm(ys.reshape(n, -1), 2)
    return float(np.sqrt(abs(square)) + _allowance(n, u, u2, y_norm * delta_norm, e))


def verify_coproduct_implemented(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """W (L_a (x) 1) W* equals left multiplication by coproduct(a) for every
    basis element a, built one at a time; (id (x) coproduct) W = W12 W13 as the
    bound of ``coproduct_expansion_bound`` (``wop.coproduct_defects``), which
    above ``tol``, or NaN, gives way to the exact ``wop.second_leg_exact``."""
    conjugation, second_leg = wop.coproduct_defects
    rb = ReportBuilder()
    rb.add("conjugation_over_basis", conjugation, tol)
    _add_bounded(rb, "coproduct_on_second_leg_of_w", second_leg, tol,
                 lambda w, _: (w.second_leg_exact, False), wop)
    return rb.build()


def verify_antipode_relation(
    wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """(id (x) antipode) W = W*, the antipode transported to the second leg:
    sum_j x_j (x) L(S(e_j)) against W*, with L(S(e_j)) = sum_k S[j, k] L_k."""
    antipodes = np.einsum("jk,kab->jab", wop.algebra.antipode, wop.gns.left_regular)
    residual = kron_sum_distance(wop.slice_basis, antipodes, wop.w.conj().T)
    rb = ReportBuilder()
    rb.add("antipode_on_second_leg_of_w", residual, tol)
    return rb.build()


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


def dual_coproduct_checked(
    wop: MultiplicativeUnitary, x, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, VerificationReport]:
    """Dual coproduct of ``x`` plus membership certificates.

    Raises VerificationError when ``x`` is not in the span of the right
    slices; reports whether the image lies in the doubled span.
    """
    x = np.asarray(x, dtype=complex)
    n = wop.dim
    _, residuals = project_onto_span(wop.dual_span.q, x)
    res_x = float(residuals[0])
    if res_x > max(tol, rounding_allowance(n)) * (1.0 + frob(x)):
        raise VerificationError(
            f"matrix is not in the dual subspace (residual {res_x:.3e})",
            check="dual_subspace_membership",
        )
    y = dual_coproduct(wop, x)
    res_y = float(_doubled_span_coords(wop, y)[1][0])
    rb = ReportBuilder()
    rb.add("dual_coproduct_in_doubled_span", res_y, tol * (1.0 + frob(y)))
    return freeze(y), rb.build()


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
    lhs = [(wop.dual_coproducts, [1, 2]), (wop.gns.left_regular, [3])]
    return leg_distance(lhs, [(w_mat, [1, 3]), (w_mat, [2, 3])], (n, n, n))


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
    """Global laws of the dual coproduct.

    Checks (dual-coproduct (x) id) W = W13 W23, coassociativity, the
    *-homomorphism property and multiplicativity on the slice basis, and that
    the image of every slice-basis element lies in the doubled span.

    (dual-coproduct (x) id) W = W13 W23 is a bound on the pentagon: with the
    notation of ``verify_pentagon`` and u = ||W*W - I||_F, the left side is
    W12* (W23 - E23) W12, and W12* W23 W12 - W13 W23 = W12* (pentagon defect)
    W23 + W12* W23 W12 (I - W23* W23) + (W12* W12 - I) W13 W23.  So the defect
    is at most w2 P + sqrt(n) u (w2^3/2 + w2) + sqrt(n) w2 ||E||_F plus the
    allowance of ``verify_pentagon`` with Kronecker side ||Delta-hat||_F ||L||_2,
    where P is the pentagon residual ``verify_pentagon`` reports (bound or exact).

    The *-homomorphism check writes x_j* = sum_k c_jk x_k over the slice
    basis (``slice_closure``) and compares sum_k c_jk dual-coproduct(x_k)
    with dual-coproduct(x_j)*.  Comparing dual-coproduct(x*) itself would
    prove nothing: W*(1 (x) x*)W is the adjoint of W*(1 (x) x)W for every
    matrix W.  The residual is the image of the part of x_j* that the slice
    span misses, so it fails when that span is not closed under adjoint.

    Coassociativity and multiplicativity report upper bounds valid for any W,
    with w2 = 1 + u >= ||W||_2^2 (and ||WW* - I||_F = u) and the allowance
    e = 4 n^2 eps w2 for floating-point rounding.  With
    dual-coproduct(x_j) = sum C_ab Q_a (x) Q_b + R_j over the orthonormal Q_a,
    and C^a for Q_a by linearity through T = ``dual_span.to_coords``, the
    coassociativity defect is at most ||sum_a C_ak C^a_ij - sum_b C_ib C^b_jk||
    + (2 ||T||_2 (sum_j ||R_j||^2)^1/2 + e) ||C|| + 2 sqrt(n) w2 ||R_j||.  The
    multiplicativity defect W*(1 (x) x)(I - WW*)(1 (x) y)W is at most
    w2 max_j ||x_j||_2^2 (w2 - 1 + 4 n^2 eps).  A bound above ``tol``, or NaN,
    gives way to the exact contraction, so no verdict rests on the slack.  The
    exact coassociativity and multiplicativity walk their elements and pairs
    and stop at the first defect above ``tol``: it proves the failure, and it
    lies in (tol, exact maximum].  A walk that would pass never stops.
    """
    n, u = wop.dim, wop.unitarity_defect
    w2 = 1.0 + u
    pentagon = wop.pentagon_bound if wop.pentagon_bound <= tol else wop.pentagon_exact
    # full_suite reads the stack first here, once the coproduct stage has freed its own
    images = wop.dual_coproducts
    lr_norm = np.linalg.norm(wop.gns.left_regular.reshape(n, -1), 2)
    first_leg = w2 * pentagon
    first_leg += np.sqrt(n) * (u * (w2 ** 1.5 + w2) + w2 * wop.expansion_residual)
    first_leg += _allowance(n, wop.w, w2, frob(images) * lr_norm)
    rb = ReportBuilder()
    _add_bounded(rb, "dual_coproduct_on_first_leg_of_w", first_leg, tol,
                 lambda w, _: (_exact_first_leg(w), False), wop)
    rounding = rounding_allowance(n)
    coeffs, remainders = wop.dual_coproduct_coords
    t = wop.dual_span.to_coords
    up = np.einsum("ja,jcd->acd", t, coeffs).reshape(t.shape[1], -1)  # C^a over (c, d)
    slack = 2 * np.linalg.norm(t, 2) * np.linalg.norm(remainders) + rounding * w2
    coassoc = np.max([
        frob((up.T @ c).ravel() - (c @ up).ravel()) + slack * frob(c) + 2 * np.sqrt(n) * w2 * r
        for c, r in zip(coeffs, remainders)
    ])
    mult = w2 * np.linalg.norm(wop.slice_basis, 2, axis=(1, 2)).max() ** 2 * (w2 - 1 + rounding)

    # |conj(a) - b^T| = |a - b*| entrywise; one element of sum_k c_jk images[k] at a time
    flat = images.reshape(n, -1)
    star = np.max([
        frob(np.conj(c @ flat) - image.T.ravel())
        for c, image in zip(wop.slice_closure[1], images)
    ])
    _add_bounded(rb, "dual_coproduct_coassociative", coassoc, tol, _exact_coassociativity, wop)
    rb.add("dual_coproduct_star_homomorphism", star, tol)
    _add_bounded(rb, "dual_coproduct_multiplicative", mult, tol, _exact_multiplicativity, wop)
    rb.add("image_in_doubled_span", remainders.max(), tol)
    return rb.build()

