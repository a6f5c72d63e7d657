"""Actions of classical finite groups on a finite quantum group by
Hopf *-automorphisms, and the commutativity machinery they feed.

A group K acts through a homomorphism k -> theta_k into the Hopf
*-automorphisms of the algebra.  The induced coaction into A (x) C(K) is
alpha(a) = sum_k theta_k(a) (x) delta_k, with C(K) represented by diagonal
matrices on C^K and its antipode given by the inversion permutation
delta_k -> delta_{k^-1}.

From the coaction we assemble

- beta(a)  = sum_k delta_k (x) theta_{k^-1}(a)   in C(K) (x) A,
- gamma    = conjugation of alpha by the Fourier transform, a coaction of
  C(K) on the dual subspace,
- V        = (id (x) beta) W on three legs [n, |K|, n],

and verify: invariance of the Haar state and its strong form, the exchange
identity (id (x) beta) W = (gamma (x) id) W together with its sliced
consequence, and the commutation V234 V135 = V135 V234 on five legs (checked
in full when small, through slice families otherwise), whose slices show the
algebra generated by the slices of beta is commutative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CoactionAxiomFailed,
    ModeUnavailable,
    NotAHomomorphism,
    NotAnAutomorphism,
    StructuralError,
)
from .groups import CayleyTable
from .haar import Functional, GnsData
from .hopf import DEFAULT_TOL, FiniteHopfStarAlgebra, is_hopf_star_automorphism
from .duality import fourier_matrix
from .multiplicative import (
    MultiplicativeUnitary,
    coproduct_as_two_leg_operator,
    dual_coproduct,
    slice_products_and_adjoints,
)
from .report import ReportBuilder, VerificationReport
from .tensors import TensorOperator, embed_legs, expand_in_leg, frob, kron_sum, numerical_rank

FULL_MODE_LIMIT = 10 ** 6
AUTO_FULL_THRESHOLD = 10 ** 3


# -- group automorphisms ----------------------------------------------------


def enumerate_group_automorphisms(cayley: CayleyTable) -> list[tuple[int, ...]]:
    """All table-preserving bijections fixing the identity, by pruned search.

    Returned in lexicographic order of the image tuples.
    """
    m = cayley.order
    table = cayley.table
    e = cayley.identity_index
    found: list[tuple[int, ...]] = []
    image = [-1] * m
    used = [False] * m
    image[e] = e
    used[e] = True
    positions = [i for i in range(m) if i != e]

    def consistent(last: int) -> bool:
        for a in range(m):
            if image[a] < 0:
                continue
            for x, y in ((a, last), (last, a)):
                z = table[x, y]
                if image[z] >= 0 and image[z] != table[image[x], image[y]]:
                    return False
        return True

    def search(depth: int) -> None:
        if depth == len(positions):
            found.append(tuple(image))
            return
        i = positions[depth]
        for candidate in range(m):
            if used[candidate]:
                continue
            image[i] = candidate
            used[candidate] = True
            if consistent(i):
                search(depth + 1)
            image[i] = -1
            used[candidate] = False

    search(0)
    found.sort()
    return found


def permutation_matrix(perm) -> np.ndarray:
    """Column convention: basis vector i is sent to basis vector perm[i]."""
    perm = [int(p) for p in perm]
    m = len(perm)
    t = np.zeros((m, m), dtype=complex)
    for i, p in enumerate(perm):
        t[p, i] = 1.0
    return t


def inversion_theta(algebra: FiniteHopfStarAlgebra, k_group: CayleyTable) -> np.ndarray:
    """theta for the order-two group acting by basis inversion g -> g^-1.

    Only defined for algebras built from a group; the acting group must have
    order 1 or 2 so that the assignment is a homomorphism.
    """
    source = algebra.source_group
    if source is None:
        raise StructuralError(
            "inversion action needs an algebra built from a group preset or Cayley table"
        )
    if k_group.order > 2:
        raise StructuralError("inversion action expects an acting group of order <= 2")
    inv = permutation_matrix(source.inverses())
    theta = np.empty((k_group.order, algebra.dim, algebra.dim), dtype=complex)
    theta[k_group.identity_index] = np.eye(algebra.dim)
    for k in range(k_group.order):
        if k != k_group.identity_index:
            theta[k] = inv
    return theta


def conjugation_theta(algebra: FiniteHopfStarAlgebra, k_group: CayleyTable) -> np.ndarray:
    """theta_k = conjugation by k on the basis, for K equal to the source group."""
    source = algebra.source_group
    if source is None:
        raise StructuralError(
            "conjugation action needs an algebra built from a group preset or Cayley table"
        )
    if k_group.order != source.order or not np.array_equal(k_group.table, source.table):
        raise StructuralError(
            "conjugation action requires the acting group to equal the algebra's group"
        )
    m = source.order
    theta = np.empty((m, algebra.dim, algebra.dim), dtype=complex)
    for k in range(m):
        k_inv = source.inverse(k)
        perm = [source.multiply(source.multiply(k, g), k_inv) for g in range(m)]
        theta[k] = permutation_matrix(perm)
    return theta


def resolve_automorphisms(
    algebra: FiniteHopfStarAlgebra, k_group: CayleyTable, spec
) -> np.ndarray:
    """Turn an automorphism specification into a stack of matrices.

    ``spec`` is "inversion", "conjugation", or an explicit list with one
    n x n matrix per element of the acting group.
    """
    if isinstance(spec, str):
        if spec == "inversion":
            return inversion_theta(algebra, k_group)
        if spec == "conjugation":
            return conjugation_theta(algebra, k_group)
        raise StructuralError(f"unknown automorphism preset {spec!r}")
    theta = np.asarray(spec, dtype=complex)
    if theta.shape != (k_group.order, algebra.dim, algebra.dim):
        raise StructuralError(
            f"explicit automorphisms must have shape "
            f"{(k_group.order, algebra.dim, algebra.dim)}, got {theta.shape}"
        )
    return theta


# -- the action -------------------------------------------------------------


@dataclass(frozen=True)
class FiniteGroupAction:
    """A validated action of a finite group by Hopf *-automorphisms."""

    algebra: FiniteHopfStarAlgebra
    group: CayleyTable
    theta: np.ndarray  # (|K|, n, n)
    alpha: np.ndarray  # (n*|K|, n), basis of A (x) C(K) ordered e_j (x) delta_k
    report: VerificationReport

    @property
    def order(self) -> int:
        return self.group.order

    def theta_of_inverse(self, k: int) -> np.ndarray:
        return self.theta[self.group.inverse(k)]


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

    rb.add(
        "theta_identity",
        frob(theta[k_group.identity_index] - np.eye(n)),
        tol_eff,
    )
    worst_hom = 0.0
    for j in range(m):
        for k in range(m):
            worst_hom = max(
                worst_hom, frob(theta[j] @ theta[k] - theta[k_group.multiply(j, k)])
            )
    rb.add("theta_homomorphism", worst_hom, tol_eff)

    worst_auto = 0.0
    failing = ""
    for k in range(m):
        sub = is_hopf_star_automorphism(algebra, theta[k], tol)
        worst_auto = max(worst_auto, sub.max_residual())
        if not sub.overall_pass and not failing:
            bad = next(c.name for c in sub.checks if not c.passed)
            failing = f"element {k_group.labels[k]} fails {bad}"
    rb.add("theta_automorphisms", worst_auto, tol * algebra.structure_scale(), detail=failing)

    # coaction axiom: both sides live in A (x) C(K) (x) C(K)
    lhs = np.zeros((n, m, m, n), dtype=complex)
    rhs = np.zeros((n, m, m, n), dtype=complex)
    for j in range(m):
        for k in range(m):
            lhs[:, j, k, :] = theta[j] @ theta[k]
    for r in range(m):
        for s in range(m):
            rhs[:, r, s, :] = theta[k_group.multiply(r, s)]
    rb.add("coaction_axiom", frob(lhs - rhs), tol_eff)

    # Podles density: alpha(A)(1 (x) C(K)) spans A (x) C(K)
    vectors = []
    for i in range(n):
        for k in range(m):
            vec = np.zeros((n, m), dtype=complex)
            vec[:, k] = theta[k][:, i]
            vectors.append(vec)
    rank = numerical_rank(vectors, tol)
    rb.add_count("podles_density", rank, n * m)

    distinct = len({np.ascontiguousarray(theta[k]).tobytes() for k in range(m)})
    if distinct == m:
        note = f"faithful: {m} distinct automorphisms"
    elif distinct == 1:
        note = f"theta is trivial: 1 distinct automorphism for group order {m}"
    else:
        note = f"not faithful: {distinct} distinct automorphisms for group order {m}"
    rb.add("theta_image_size", 0.0, 0.0, detail=note)

    return rb.build()


def build_group_action(
    algebra: FiniteHopfStarAlgebra, k_group: CayleyTable, theta, tol: float = DEFAULT_TOL
) -> FiniteGroupAction:
    """Validate and assemble the action; raises on any failed axiom."""
    theta = np.asarray(theta, dtype=complex)
    report = action_axioms_report(algebra, k_group, theta, tol)
    failures = [c for c in report.checks if not c.passed]
    if failures:
        first = failures[0]
        message = f"action check {first.name!r} failed: {first.detail or first.residual}"
        if first.name in ("theta_identity", "theta_homomorphism"):
            raise NotAHomomorphism(message, check=first.name, residual=first.residual)
        if first.name == "theta_automorphisms":
            raise NotAnAutomorphism(message, check=first.name, residual=first.residual)
        raise CoactionAxiomFailed(message, check=first.name, residual=first.residual)
    m, n = k_group.order, algebra.dim
    alpha = np.zeros((n * m, n), dtype=complex)
    for k in range(m):
        for j in range(n):
            alpha[j * m + k, :] = theta[k][j, :]
    theta = np.ascontiguousarray(theta)
    theta.setflags(write=False)
    alpha.setflags(write=False)
    return FiniteGroupAction(algebra, k_group, theta, alpha, report)


# -- invariance -------------------------------------------------------------


def verify_haar_invariance(
    action: FiniteGroupAction, h: Functional, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """haar(theta_k(a)) = haar(a) for every group element and basis element."""
    worst = 0.0
    for k in range(action.order):
        worst = max(worst, float(np.max(np.abs(h.coords @ action.theta[k] - h.coords))))
    rb = ReportBuilder()
    rb.add("haar_invariant_under_action", worst, tol)
    return rb.build()


def _pair_values(a: FiniteHopfStarAlgebra, h: Functional) -> np.ndarray:
    """Matrix of haar(e_p e_q) over basis pairs."""
    return np.einsum("pqk,k->pq", a.mult, h.coords)


def strong_right_invariance_residual(
    action: FiniteGroupAction, h: Functional, antipode: str = "inverse"
) -> float:
    """Max defect of the strong invariance identity over all basis pairs.

    For each pair (a, b) the identity equates, pointwise on the group,
    haar(theta_k(a) b) with haar(a theta_{k^-1}(b)).  Setting
    ``antipode="identity"`` replaces k^-1 by k, a falsifiability control that
    must break on noncommutative examples.
    """
    if antipode not in ("inverse", "identity"):
        raise StructuralError(f"antipode must be 'inverse' or 'identity', got {antipode!r}")
    pair = _pair_values(action.algebra, h)
    worst = 0.0
    for k in range(action.order):
        t_k = action.theta[k]
        t_other = action.theta_of_inverse(k) if antipode == "inverse" else action.theta[k]
        lhs = t_k.T @ pair  # (i, j) -> haar(theta_k(e_i) e_j)
        rhs = pair @ t_other  # (i, j) -> haar(e_i theta(e_j))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def verify_strong_right_invariance(
    action: FiniteGroupAction, h: Functional, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Strong right invariance plus the two mutually inverse shear maps.

    The shear maps a (x) c -> alpha(a)(1 (x) c) and its antipode-twisted
    partner must compose to the identity on A (x) C(K); this is the device
    that proves the invariance identity.
    """
    rb = ReportBuilder()
    rb.add(
        "strong_right_invariance",
        strong_right_invariance_residual(action, h, "inverse"),
        tol,
    )
    n, m = action.algebra.dim, action.order
    phi1 = np.zeros((n * m, n * m), dtype=complex)
    phi2 = np.zeros((n * m, n * m), dtype=complex)
    for k in range(m):
        t_k = action.theta[k]
        t_kinv = action.theta_of_inverse(k)
        # basis e_i (x) delta_k at flat index i*m + k
        phi1[k::m, k::m] = t_k
        phi2[k::m, k::m] = t_kinv
    eye = np.eye(n * m)
    rb.add("shear_maps_mutually_inverse", max(frob(phi1 @ phi2 - eye), frob(phi2 @ phi1 - eye)), tol)
    return rb.build()


# -- beta, gamma, and the exchange identity --------------------------------


@dataclass(frozen=True)
class IntertwinerData:
    """Matrix forms of beta and gamma plus the three-leg operator V.

    - beta_matrix maps A to C(K) (x) A, basis delta_k (x) e_j (k slowest).
    - gamma_hat[k] is the conjugated automorphism acting on dual-subspace
      coordinates; gamma(x) = sum_k gamma_hat[k](x) (x) delta_k.
    - v = (id (x) beta) W on legs [n, |K|, n].
    - v_last_leg[j] are the coefficients of V over left multiplications in
      its last leg, with ``v_expansion_residual`` the unexplained part.
    """

    action: FiniteGroupAction
    gns: GnsData
    beta_matrix: np.ndarray
    gamma_hat: np.ndarray
    v: TensorOperator
    v_last_leg: np.ndarray
    v_expansion_residual: float


def beta_operator(action: FiniteGroupAction, gns: GnsData, coords) -> np.ndarray:
    """Operator of beta(element) on C^K (x) H: one block per group element."""
    n, m = action.algebra.dim, action.order
    out = np.zeros((m * n, m * n), dtype=complex)
    for k in range(m):
        img = action.theta_of_inverse(k) @ np.asarray(coords)
        out[k * n:(k + 1) * n, k * n:(k + 1) * n] = np.einsum("i,ikl->kl", img, gns.left_regular)
    return out


def beta_matrix(action: FiniteGroupAction) -> np.ndarray:
    """beta(e_i) = sum_k delta_k (x) theta_{k^-1}(e_i) as a coordinate map."""
    n, m = action.algebra.dim, action.order
    beta = np.zeros((m * n, n), dtype=complex)
    for k in range(m):
        beta[k * n:(k + 1) * n, :] = action.theta_of_inverse(k)
    return beta


def beta_matrix_antipode_form(action: FiniteGroupAction) -> np.ndarray:
    """The equivalent antipode-sandwich form of beta.

    Built independently as flip of (antipode (x) group-inversion) after the
    coaction after the antipode; must agree with ``beta_matrix`` exactly
    when the automorphisms commute with the antipode.
    """
    a = action.algebra
    n, m = a.dim, action.order
    s_op = a.antipode.T
    beta = np.zeros((m * n, n), dtype=complex)
    for k in range(m):
        block = s_op @ action.theta_of_inverse(k) @ s_op
        beta[k * n:(k + 1) * n, :] = block
    return beta


def build_intertwiner_data(
    action: FiniteGroupAction, wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> IntertwinerData:
    """Assemble beta, gamma and V = (id (x) beta) W."""
    a = action.algebra
    gns = wop.gns
    n, m = a.dim, action.order
    f = fourier_matrix(a, gns.haar)
    f_inv = np.linalg.inv(f)
    gamma_hat = np.stack([f @ action.theta[k] @ f_inv for k in range(m)])

    betas = [beta_operator(action, gns, a.basis_element(j)) for j in range(n)]
    v_mat = kron_sum(wop.slice_basis, betas)
    v = TensorOperator((n, m, n), v_mat)
    v_last, v_res = expand_in_leg(v_mat, (n * m, n), gns.left_regular)
    return IntertwinerData(action, gns, beta_matrix(action), gamma_hat, v, v_last, v_res)


def gamma_operator(data: IntertwinerData, wop: MultiplicativeUnitary, coeffs) -> np.ndarray:
    """gamma applied to the dual-subspace element with coordinates ``coeffs``,
    as an operator on H (x) C^K."""
    m = data.action.order
    images = np.einsum("kj,jpq->kpq", data.gamma_hat @ np.asarray(coeffs), wop.slice_basis)
    diagonal_units = np.eye(m)[:, :, None] * np.eye(m)[:, None, :]  # [k] = delta_k delta_k^T
    return kron_sum(images, diagonal_units)


def verify_beta(
    data: IntertwinerData, wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """beta is a unital *-homomorphism and agrees with its antipode-sandwich form."""
    action, gns = data.action, data.gns
    a = action.algebra
    n = a.dim
    rb = ReportBuilder()

    rb.add("beta_unital", frob(beta_operator(action, gns, a.unit) - np.eye(action.order * n)), tol)

    worst_mult = 0.0
    worst_star = 0.0
    beta_ops = [beta_operator(action, gns, a.basis_element(i)) for i in range(n)]
    for i in range(n):
        star_coords = a.apply_star(a.basis_element(i))
        lhs_star = beta_operator(action, gns, star_coords)
        worst_star = max(worst_star, frob(lhs_star - beta_ops[i].conj().T))
        for j in range(n):
            lhs = beta_operator(action, gns, a.multiply(a.basis_element(i), a.basis_element(j)))
            worst_mult = max(worst_mult, frob(lhs - beta_ops[i] @ beta_ops[j]))
    rb.add("beta_multiplicative", worst_mult, tol)
    rb.add("beta_star_homomorphism", worst_star, tol)

    rb.add(
        "beta_antipode_form_agreement",
        frob(data.beta_matrix - beta_matrix_antipode_form(action)),
        tol,
    )
    return rb.build()


def verify_gamma(
    data: IntertwinerData, wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """gamma is a unital *-homomorphism on the dual subspace and a coaction."""
    action = data.action
    a = action.algebra
    n, m = a.dim, action.order
    rb = ReportBuilder()

    # unit of the dual subspace is the identity operator = image of the counit
    unit_coords = a.counit
    rb.add(
        "gamma_unital",
        frob(gamma_operator(data, wop, unit_coords) - np.eye(n * m)),
        tol,
    )

    product_coords, star_coords, _ = slice_products_and_adjoints(wop)
    worst_mult = 0.0
    worst_star = 0.0
    for i in range(n):
        gi = gamma_operator(data, wop, np.eye(n)[i])
        worst_star = max(
            worst_star, frob(gamma_operator(data, wop, star_coords[i]) - gi.conj().T)
        )
        for j in range(n):
            gj = gamma_operator(data, wop, np.eye(n)[j])
            prod_coeffs = product_coords[i, j]
            worst_mult = max(
                worst_mult, frob(gamma_operator(data, wop, prod_coeffs) - gi @ gj)
            )
    rb.add("gamma_multiplicative", worst_mult, tol)
    rb.add("gamma_star_homomorphism", worst_star, tol)

    # coaction axiom for gamma in coordinates
    lhs = np.zeros((n, m, m, n), dtype=complex)
    rhs = np.zeros((n, m, m, n), dtype=complex)
    for k in range(m):
        for l in range(m):
            lhs[:, l, k, :] = data.gamma_hat[l] @ data.gamma_hat[k]
    for r in range(m):
        for s in range(m):
            rhs[:, r, s, :] = data.gamma_hat[action.group.multiply(r, s)]
    rb.add("gamma_coaction_axiom", frob(lhs - rhs), tol)
    return rb.build()


def verify_action_intertwiner(
    data: IntertwinerData, wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """(id (x) beta) W = (gamma (x) id) W, plus its sliced scalar family.

    The sliced family compares, for every basis pair (a, b) and every group
    element, haar(b theta_k(a)) with haar(theta_{k^-1}(b) a); it is the
    scalar consequence obtained by slicing the exchange identity.
    """
    action = data.action
    a = action.algebra
    gns = wop.gns
    n, m = a.dim, action.order
    rb = ReportBuilder()

    gammas = [gamma_operator(data, wop, np.eye(n)[j]) for j in range(n)]
    rhs = kron_sum(gammas, gns.left_regular)
    rb.add("intertwiner_exchange", frob(data.v.entries - rhs), tol)

    pair = _pair_values(a, gns.haar)
    worst = 0.0
    for k in range(m):
        lhs = pair @ action.theta[k]  # (j, i) -> haar(e_j theta_k(e_i))
        rhs_k = action.theta_of_inverse(k).T @ pair  # (j, i) -> haar(theta_{k^-1}(e_j) e_i)
        worst = max(worst, float(np.max(np.abs(lhs - rhs_k))))
    rb.add("intertwiner_sliced_family", worst, tol)
    return rb.build()


def five_leg_dimension(action: FiniteGroupAction) -> int:
    n, m = action.algebra.dim, action.order
    return n * n * m * n * n


def verify_slice_commutativity(
    data: IntertwinerData,
    wop: MultiplicativeUnitary,
    tol: float = DEFAULT_TOL,
    mode: str = "auto",
) -> VerificationReport:
    """Commutation of V234 with V135, fully or through slice families.

    mode="full" embeds V twice into the five-leg space (available only while
    that space stays below 10^6 dimensions) and also checks the two coproduct
    expansions of V used to derive the commutation.  mode="sliced" checks the
    equivalent family of scalar-slice commutators in C(K), plus the span
    generated by the slices of beta.  mode="auto" picks "full" for five-leg
    dimension up to 10^3 and "sliced" beyond.
    """
    action = data.action
    a = action.algebra
    gns = wop.gns
    n, m = a.dim, action.order
    dim5 = five_leg_dimension(action)
    if mode == "auto":
        mode = "full" if dim5 <= AUTO_FULL_THRESHOLD else "sliced"
    if mode not in ("full", "sliced"):
        raise StructuralError(f"mode must be 'auto', 'full' or 'sliced', got {mode!r}")
    rb = ReportBuilder()

    if mode == "full":
        if dim5 > FULL_MODE_LIMIT:
            raise ModeUnavailable(
                f"five-leg space has dimension {dim5} > {FULL_MODE_LIMIT}; use sliced mode"
            )
        ambient5 = (n, n, m, n, n)
        v234 = embed_legs(data.v, [2, 3, 4], ambient5).entries
        v135 = embed_legs(data.v, [1, 3, 5], ambient5).entries
        rb.add(
            "five_leg_commutation",
            frob(v234 @ v135 - v135 @ v234),
            tol,
            detail=f"five-leg dimension {dim5}",
        )

        # dual-coproduct expansion: (dual-coproduct (x) id (x) id) V = V134 V234
        ambient4a = (n, n, m, n)
        lhs = kron_sum(
            [dual_coproduct(wop, x) for x in wop.slice_basis],
            [beta_operator(action, gns, a.basis_element(j)) for j in range(n)],
        )
        v134 = embed_legs(data.v, [1, 3, 4], ambient4a).entries
        v234a = embed_legs(data.v, [2, 3, 4], ambient4a).entries
        rb.add("dual_coproduct_expansion_of_v", frob(lhs - v134 @ v234a), tol)

        # coproduct expansion: (id (x) id (x) coproduct) V = V123 V124
        ambient4b = (n, m, n, n)
        lhs2 = kron_sum(
            data.v_last_leg,
            [coproduct_as_two_leg_operator(wop, a.basis_element(j)) for j in range(n)],
        )
        v123 = embed_legs(data.v, [1, 2, 3], ambient4b).entries
        v124 = embed_legs(data.v, [1, 2, 4], ambient4b).entries
        rb.add("coproduct_expansion_of_v", frob(lhs2 - v123 @ v124), tol)

    # slice V in its outer legs with all matrix-unit vector functionals; the
    # middle-leg matrices obtained this way generate the image of beta's slices
    t = data.v.entries.reshape(n, m, n, n, m, n)
    generators = t.transpose(0, 3, 2, 5, 1, 4).reshape(n * n * n * n, m, m)
    norms = np.linalg.norm(generators.reshape(len(generators), -1), axis=1)
    keep = generators[norms > tol]

    if mode == "sliced":
        note = f"{len(keep)} nonzero slice generators"
        pairs = keep
        if len(pairs) > 512:
            # pairwise check on a spanning subset; commutativity extends bilinearly
            idx = _independent_subset(list(pairs.reshape(len(pairs), -1)), tol)
            pairs = pairs[idx]
            note += f", reduced to a spanning subset of {len(pairs)}"
        if len(pairs):
            products = np.einsum("aij,bjk->abik", pairs, pairs, optimize=True)
            worst = float(np.max(np.abs(products - products.transpose(1, 0, 2, 3))))
        else:
            worst = 0.0
        rb.add(
            "sliced_commutation",
            worst,
            tol,
            detail=f"{note}, {len(pairs) ** 2} ordered pairs",
        )

    # the slices of beta generate the functions constant on fibres of theta
    grown = [np.diagonal(g).copy() for g in keep]
    while grown:
        basis_idx = _independent_subset(grown, tol)
        basis_vecs = [grown[i] for i in basis_idx]
        new = [u * v for u in basis_vecs for v in basis_vecs]
        candidate = basis_vecs + new
        if numerical_rank(candidate, tol) == len(basis_vecs):
            grown = basis_vecs
            break
        grown = candidate
    generated_dim = numerical_rank(grown, tol) if grown else 0
    distinct_theta = len({action.theta[k].tobytes() for k in range(m)})
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


def _independent_subset(vectors, tol: float) -> list[int]:
    """Indices of a maximal independent subset, greedily in order."""
    chosen: list[int] = []
    for i, v in enumerate(vectors):
        trial = [vectors[j] for j in chosen] + [v]
        if numerical_rank(trial, tol) == len(trial):
            chosen.append(i)
    return chosen
