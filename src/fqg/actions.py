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
from .haar import Functional
from .hopf import DEFAULT_TOL, FiniteHopfStarAlgebra, is_hopf_star_automorphism
from .duality import fourier_matrix
from .multiplicative import (
    MultiplicativeUnitary,
    coproduct_operators,
    slice_products_and_adjoints,
)
from .report import ReportBuilder, VerificationReport
from .tensors import (
    TensorOperator,
    expand_in_leg,
    frob,
    leg_distance,
    leg_distance_bytes,
    leg_product,
    numerical_rank,
    span_basis,
    star_homomorphism_defects,
)

FULL_MODE_BYTES = 2 ** 30
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
    """An action of a finite group by Hopf *-automorphisms, with the
    ``action_axioms_report`` that validated it."""

    algebra: FiniteHopfStarAlgebra
    group: CayleyTable
    theta: np.ndarray  # (|K|, n, n)
    report: VerificationReport

    def __post_init__(self):
        theta = np.ascontiguousarray(self.theta, dtype=complex)
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

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
    hom = _homomorphism_defects(theta, k_group)
    rb.add("theta_homomorphism", float(hom.max()), tol_eff)

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
    rb.add("coaction_axiom", frob(hom), tol_eff)

    # Podles density: alpha(A)(1 (x) C(K)) spans A (x) C(K)
    vectors = []
    for i in range(n):
        for k in range(m):
            vec = np.zeros((n, m), dtype=complex)
            vec[:, k] = theta[k][:, i]
            vectors.append(vec)
    rank = numerical_rank(vectors, tol)
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
    return FiniteGroupAction(algebra, k_group, theta, report)


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
    """beta and gamma as stacks of operators, plus the three-leg operator V.

    - beta_ops[j] = beta(e_j) on C^K (x) H (k slowest): block k is left
      multiplication by theta_{k^-1}(e_j).
    - gamma_ops[j] = gamma(x_j) on H (x) C^K for the slice basis x_j of the
      dual subspace, sum_k gamma_hat[k](x_j) (x) delta_k.
    - gamma_hat[k] is the conjugated automorphism acting on dual-subspace
      coordinates.
    - v = (id (x) beta) W on legs [n, |K|, n].
    - v_last_leg[j] are the coefficients of V over left multiplications in
      its last leg, with ``v_expansion_residual`` the unexplained part.
    """

    action: FiniteGroupAction
    beta_ops: np.ndarray
    gamma_ops: np.ndarray
    gamma_hat: np.ndarray
    v: TensorOperator
    v_last_leg: np.ndarray
    v_expansion_residual: float


def beta_matrix(action: FiniteGroupAction) -> np.ndarray:
    """beta(e_i) = sum_k delta_k (x) theta_{k^-1}(e_i) as a coordinate map."""
    n = action.algebra.dim
    return action.theta[action.group.inverses()].reshape(-1, n)


def beta_matrix_antipode_form(action: FiniteGroupAction) -> np.ndarray:
    """The equivalent antipode-sandwich form of beta.

    Built independently as flip of (antipode (x) group-inversion) after the
    coaction after the antipode; must agree with ``beta_matrix`` exactly
    when the automorphisms commute with the antipode.
    """
    a = action.algebra
    s_op = a.antipode.T
    return (s_op @ action.theta[action.group.inverses()] @ s_op).reshape(-1, a.dim)


def build_intertwiner_data(action: FiniteGroupAction, wop: MultiplicativeUnitary) -> IntertwinerData:
    """Assemble the beta and gamma stacks and V = (id (x) beta) W."""
    a = action.algebra
    gns = wop.gns
    n, m = a.dim, action.order
    f = fourier_matrix(a, gns.haar)
    f_inv = np.linalg.inv(f)
    gamma_hat = np.stack([f @ action.theta[k] @ f_inv for k in range(m)])

    eye = np.eye(m)
    theta_inv = action.theta[action.group.inverses()]
    beta_ops = np.einsum("kij,iab,kl->jkalb", theta_inv, gns.left_regular, eye)
    gamma_ops = np.einsum("kij,ipq,kl->jpkql", gamma_hat, wop.slice_basis, eye)
    beta_ops = beta_ops.reshape(n, m * n, m * n)
    gamma_ops = gamma_ops.reshape(n, n * m, n * m)
    v_mat = leg_product([(wop.slice_basis, [1]), (beta_ops, [2, 3])], (n, m, n))
    v = TensorOperator((n, m, n), v_mat)
    v_last, v_res = expand_in_leg(v_mat, (n * m, n), gns.left_regular)
    return IntertwinerData(action, beta_ops, gamma_ops, gamma_hat, v, v_last, v_res)


def verify_beta(data: IntertwinerData, tol: float = DEFAULT_TOL) -> VerificationReport:
    """beta is a unital *-homomorphism and agrees with its antipode-sandwich form."""
    action = data.action
    a = action.algebra
    unit, mult, star = star_homomorphism_defects(data.beta_ops, a.mult, a.star, a.unit)
    rb = ReportBuilder()
    rb.add("beta_unital", unit, tol)
    rb.add("beta_multiplicative", float(mult.max()), tol)
    rb.add("beta_star_homomorphism", float(star.max()), tol)
    rb.add(
        "beta_antipode_form_agreement",
        frob(beta_matrix(action) - beta_matrix_antipode_form(action)),
        tol,
    )
    return rb.build()


def verify_gamma(
    data: IntertwinerData, wop: MultiplicativeUnitary, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """gamma is a unital *-homomorphism on the dual subspace and a coaction."""
    # the unit of the dual subspace, the identity operator, is the image of the counit
    product_coords, star_coords, _ = slice_products_and_adjoints(wop)
    unit, mult, star = star_homomorphism_defects(
        data.gamma_ops, product_coords, star_coords, data.action.algebra.counit
    )
    rb = ReportBuilder()
    rb.add("gamma_unital", unit, tol)
    rb.add("gamma_multiplicative", float(mult.max()), tol)
    rb.add("gamma_star_homomorphism", float(star.max()), tol)
    coaction = _homomorphism_defects(data.gamma_hat, data.action.group)
    rb.add("gamma_coaction_axiom", frob(coaction), tol)
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
    gns = wop.gns
    rb = ReportBuilder()

    exchange = leg_distance(
        [(data.v.entries, [1, 2, 3])], [(data.gamma_ops, [1, 2]), (gns.left_regular, [3])], data.v.dims
    )
    rb.add("intertwiner_exchange", exchange, tol)

    pair = _pair_values(action.algebra, gns.haar)
    worst = 0.0
    for k in range(action.order):
        lhs = pair @ action.theta[k]  # (j, i) -> haar(e_j theta_k(e_i))
        rhs_k = action.theta_of_inverse(k).T @ pair  # (j, i) -> haar(theta_{k^-1}(e_j) e_i)
        worst = max(worst, float(np.max(np.abs(lhs - rhs_k))))
    rb.add("intertwiner_sliced_family", worst, tol)
    return rb.build()


def full_mode_bytes(n: int, m: int) -> int:
    """Estimated peak bytes of full mode for algebra dimension n and group order m.

    The tiles of the five-leg commutator, each side a product of two copies
    of V (the four-leg expansions have smaller tiles); plus V, the stack of
    its slice generators and the operand copies einsum makes, each at most
    the size of V (3 * 16 * (n^2 m)^2), and the stacks of dual coproducts
    and coproducts of the basis (2 * 16 * n^5).
    """
    return leg_distance_bytes((n, n, m, n, n), 2) + 3 * 16 * (n * n * m) ** 2 + 2 * 16 * n ** 5


def verify_slice_commutativity(
    data: IntertwinerData,
    wop: MultiplicativeUnitary,
    tol: float = DEFAULT_TOL,
    mode: str = "auto",
) -> VerificationReport:
    """Commutation of V234 with V135, fully or through slice families.

    mode="full" contracts two copies of V placed on legs [2, 3, 4] and
    [1, 3, 5] of the five-leg space, block by block over leg 1 when large
    (``tensors.leg_distance``), and also checks the two coproduct expansions
    of V used to derive the commutation; it raises ModeUnavailable before
    allocating when ``full_mode_bytes`` exceeds FULL_MODE_BYTES.
    mode="sliced" checks the equivalent scalar-slice family instead: the
    slices of V by matrix units of its outer legs are matrices in C(K), and
    the commutators of an orthonormal basis of their span must vanish
    (commutativity extends bilinearly, so a basis is enough).  mode="auto"
    picks "full" for five-leg dimension up to 10^3 and "sliced" beyond.

    Every mode ends with ``beta_slices_generate``: the diagonals of those
    slices, closed under pointwise products, span an algebra whose dimension
    equals the number of distinct automorphisms.
    """
    action = data.action
    a = action.algebra
    n, m = a.dim, action.order
    dim5 = n * n * m * n * n
    if mode == "auto":
        mode = "full" if dim5 <= AUTO_FULL_THRESHOLD else "sliced"
    if mode not in ("full", "sliced"):
        raise StructuralError(f"mode must be 'auto', 'full' or 'sliced', got {mode!r}")
    rb = ReportBuilder()

    if mode == "full":
        need = full_mode_bytes(n, m)
        if need > FULL_MODE_BYTES:
            raise ModeUnavailable(
                f"full mode needs about {need} bytes > {FULL_MODE_BYTES}; use sliced mode"
            )
        v = data.v.entries
        rb.add(
            "five_leg_commutation",
            leg_distance(
                [(v, [2, 3, 4]), (v, [1, 3, 5])], [(v, [1, 3, 5]), (v, [2, 3, 4])], (n, n, m, n, n)
            ),
            tol,
            detail=f"five-leg dimension {dim5}",
        )

        # dual-coproduct expansion: (dual-coproduct (x) id (x) id) V = V134 V234
        lhs = [(wop.dual_coproducts, [1, 2]), (data.beta_ops, [3, 4])]
        rhs = [(v, [1, 3, 4]), (v, [2, 3, 4])]
        rb.add("dual_coproduct_expansion_of_v", leg_distance(lhs, rhs, (n, n, m, n)), tol)

        # coproduct expansion: (id (x) id (x) coproduct) V = V123 V124
        lhs = [(data.v_last_leg, [1, 2]), (coproduct_operators(wop), [3, 4])]
        rhs = [(v, [1, 2, 3]), (v, [1, 2, 4])]
        rb.add("coproduct_expansion_of_v", leg_distance(lhs, rhs, (n, m, n, n)), tol)

    # slice V in its outer legs with all matrix-unit vector functionals; the
    # middle-leg matrices obtained this way generate the image of beta's slices
    t = data.v.entries.reshape(n, m, n, n, m, n)
    generators = t.transpose(0, 3, 2, 5, 1, 4).reshape(n * n * n * n, m, m)
    norms = np.linalg.norm(generators.reshape(len(generators), -1), axis=1)
    keep = generators[norms > tol]

    if mode == "sliced":
        basis = _span_rows(keep.reshape(len(keep), m * m), tol).reshape(-1, m, m)
        products = np.einsum("aij,bjk->abik", basis, basis)
        rb.add(
            "sliced_commutation",
            float(np.max(np.abs(products - products.transpose(1, 0, 2, 3)), initial=0.0)),
            tol,
            detail=(
                f"{len(keep)} nonzero slice generators, an orthonormal basis of "
                f"{len(basis)} for their span, {len(basis) ** 2} ordered pairs"
            ),
        )

    # the slices of beta generate the functions constant on fibres of theta
    generated_dim = _generated_dimension(np.diagonal(keep, axis1=1, axis2=2), tol)
    distinct_theta = _distinct_automorphisms(action.theta, tol)
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


def _span_rows(vectors, tol: float) -> np.ndarray:
    """Orthonormal rows spanning the rows of ``vectors``, at the rank
    threshold of ``numerical_rank``."""
    if len(vectors) == 0:
        return np.zeros((0, vectors.shape[1]), dtype=complex)
    span = span_basis(vectors)
    return span.q[:, :span.rank(tol)].T


def _generated_dimension(vectors, tol: float) -> int:
    """Dimension of the algebra the rows of ``vectors`` generate under pointwise products.

    Each round adds the pointwise products of an orthonormal basis of the
    current span (those of any basis span the same space) and takes one SVD;
    the span is closed once a round adds no dimension.
    """
    basis = _span_rows(vectors, tol)
    while True:
        products = (basis[:, None] * basis[None]).reshape(-1, basis.shape[1])
        grown = _span_rows(np.concatenate([basis, products]), tol)
        if len(grown) == len(basis):
            return len(basis)
        basis = grown
