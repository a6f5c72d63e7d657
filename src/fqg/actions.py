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
algebra generated by the slices of beta is commutative.  For a classical K,
C(K) is diagonal, so V is block-diagonal in its middle leg and both
commutations hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CoactionAxiomFailed,
    ModeUnavailable,
    NotAHomomorphism,
    NotAnAutomorphism,
    ParseError,
    StructuralError,
)
from .groups import CayleyTable
from .haar import Functional, fourier_matrix
from .hopf import DEFAULT_TOL, FiniteHopfStarAlgebra, is_hopf_star_automorphism
from .multiplicative import (
    MultiplicativeUnitary,
    coproduct_operators,
    slice_products_and_adjoints,
)
from .report import ReportBuilder, VerificationReport
from .tensors import (
    TensorOperator,
    _rank_above,
    expand_in_leg,
    freeze,
    frob,
    leg_distance,
    leg_distance_bytes,
    leg_product,
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
    """Column convention: basis vector i is sent to basis vector perm[i]; a
    stack of permutations gives the stack of their matrices."""
    perm = np.asarray(perm)
    return (perm[..., None, :] == np.arange(perm.shape[-1])[:, None]).astype(complex)


def _source_group(algebra: FiniteHopfStarAlgebra, kind: str) -> CayleyTable:
    """The group ``algebra`` was built from; the ``kind`` action needs one."""
    if algebra.source_group is None:
        raise StructuralError(
            f"{kind} action needs an algebra built from a group preset or Cayley table"
        )
    return algebra.source_group


def inversion_theta(algebra: FiniteHopfStarAlgebra, k_group: CayleyTable) -> np.ndarray:
    """theta for the order-two group acting by basis inversion g -> g^-1.

    Only defined for algebras built from a group; the acting group must have
    order 1 or 2 so that the assignment is a homomorphism.
    """
    source = _source_group(algebra, "inversion")
    if k_group.order > 2:
        raise StructuralError("inversion action expects an acting group of order <= 2")
    fixed = (np.arange(k_group.order) == k_group.identity_index)[:, None]
    return permutation_matrix(np.where(fixed, np.arange(source.order), source.inverses()))


def conjugation_theta(algebra: FiniteHopfStarAlgebra, k_group: CayleyTable) -> np.ndarray:
    """theta_k = conjugation by k on the basis, for K equal to the source group."""
    source = _source_group(algebra, "conjugation")
    if k_group.order != source.order or not np.array_equal(k_group.table, source.table):
        raise StructuralError(
            "conjugation action requires the acting group to equal the algebra's group"
        )
    table = source.table
    return permutation_matrix(table[table, source.inverses()[:, None]])  # [k, g] -> k g k^-1


_THETA_PRESETS = {"inversion": inversion_theta, "conjugation": conjugation_theta}


def resolve_automorphisms(
    algebra: FiniteHopfStarAlgebra, k_group: CayleyTable, spec
) -> np.ndarray:
    """The theta stack of the preset ``spec``, "inversion" or "conjugation";
    any other value raises ParseError.  An action spec's "automorphisms" may
    also be a list of per-element matrices of [re, im] pairs, which
    ``builders.parse_explicit_automorphisms`` reads."""
    if isinstance(spec, str) and spec in _THETA_PRESETS:
        return _THETA_PRESETS[spec](algebra, k_group)
    raise ParseError(
        "'automorphisms' must be 'inversion', 'conjugation' or a list of "
        f"per-element matrices, got {spec!r}"
    )


# -- the action -------------------------------------------------------------


@dataclass(frozen=True)
class FiniteGroupAction:
    """An action of a finite group by Hopf *-automorphisms, with the
    ``action_axioms_report`` that validated it."""

    algebra: FiniteHopfStarAlgebra
    group: CayleyTable
    theta: np.ndarray  # (|K|, n, n)
    report: VerificationReport
    theta_inv: np.ndarray = field(init=False)  # theta_inv[k] = theta[k^-1]

    def __post_init__(self):
        theta = freeze(np.asarray(self.theta, dtype=complex))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta_inv", freeze(theta[self.group.inverses()]))

    @property
    def order(self) -> int:
        return self.group.order


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
    worst = float(np.max(np.abs(h.coords @ action.theta - h.coords)))
    rb = ReportBuilder()
    rb.add("haar_invariant_under_action", worst, tol)
    return rb.build()


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
    pair = fourier_matrix(action.algebra, h)
    theta = action.theta
    other = action.theta_inv if antipode == "inverse" else theta
    # (k, i, j) -> haar(theta_k(e_i) e_j) against haar(e_i theta(e_j))
    return float(np.max(np.abs(theta.transpose(0, 2, 1) @ pair - pair @ other)))


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
    # both maps act on e_i (x) delta_k as theta_k, resp. theta_{k^-1}, times
    # delta_k: their compositions are the blocks theta_k theta_{k^-1} over k
    theta, theta_inv, eye = action.theta, action.theta_inv, np.eye(action.algebra.dim)
    shear = max(frob(theta @ theta_inv - eye), frob(theta_inv @ theta - eye))
    rb.add("shear_maps_mutually_inverse", shear, tol)
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
    return action.theta_inv.reshape(-1, n)


def beta_matrix_antipode_form(action: FiniteGroupAction) -> np.ndarray:
    """The equivalent antipode-sandwich form of beta.

    Built independently as flip of (antipode (x) group-inversion) after the
    coaction after the antipode; must agree with ``beta_matrix`` exactly
    when the automorphisms commute with the antipode.
    """
    a = action.algebra
    s_op = a.antipode.T
    return (s_op @ action.theta_inv @ s_op).reshape(-1, a.dim)


def build_intertwiner_data(action: FiniteGroupAction, wop: MultiplicativeUnitary) -> IntertwinerData:
    """Assemble the beta and gamma stacks and V = (id (x) beta) W."""
    a = action.algebra
    gns = wop.gns
    n, m = a.dim, action.order
    f = fourier_matrix(a, gns.haar)
    f_inv = np.linalg.inv(f)
    gamma_hat = f @ action.theta @ f_inv

    eye = np.eye(m)
    beta_ops = np.einsum("kij,iab,kl->jkalb", action.theta_inv, gns.left_regular, eye)
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

    pair = fourier_matrix(action.algebra, gns.haar)
    # (k, j, i) -> haar(e_j theta_k(e_i)) against haar(theta_{k^-1}(e_j) e_i)
    swapped = action.theta_inv.transpose(0, 2, 1) @ pair
    worst = float(np.max(np.abs(pair @ action.theta - swapped)))
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
    C(K) is diagonal, so V is block-diagonal in its middle leg: both commutations hold by
    construction and become informative only with a non-commutative coefficient algebra.

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
