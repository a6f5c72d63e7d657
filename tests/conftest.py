"""Shared test helpers."""

import dataclasses
from math import prod

import numpy as np
import pytest

from fqg import (
    DEFAULT_TOL,
    CayleyTable,
    FiniteHopfStarAlgebra,
    Functional,
    MultiplicativeUnitary,
    StructuralError,
    build_intertwiner_data,
    build_multiplicative_unitary,
    cayley_from_table,
    compute_haar,
    gns_construct,
    group_algebra,
    orthonormal_algebra,
    preset,
    symmetric_group_3,
)
from fqg.builders import permutation_matrix
from fqg.duality import build_dual
from fqg.haar import _invariance_system
from fqg.tensors import _rank_above, rounding_allowance, span_basis


def basis_change_matrix(n: int, seed: int) -> np.ndarray:
    """A seeded random complex P = U diag(s) V* with Haar-random unitaries U, V
    and s in [1, 4], so its condition number stays below 4."""
    rng = np.random.default_rng(seed)

    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return q

    return (unitary() * rng.uniform(1.0, 4.0, size=n)) @ unitary().conj().T


def kappa_basis_change(n: int, kappa: float, seed: int) -> np.ndarray:
    """A seeded random complex P = U diag(s) V* with Haar-random unitaries U, V
    and s geometric over [1, kappa], so its condition number is kappa (n > 1)."""
    rng = np.random.default_rng(seed)

    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return q

    return (unitary() * np.geomspace(1.0, kappa, n)) @ unitary().conj().T


def change_basis(a: FiniteHopfStarAlgebra, seed, p=None) -> FiniteHopfStarAlgebra:
    """``a`` in the basis f_b = sum_i P[i, b] e_i for P = basis_change_matrix(n, seed),
    or for the matrix ``p`` if given.

    With Q = P^-1, old coordinates are P y; an automorphism theta becomes Q theta P.
    """
    n = a.dim
    p = basis_change_matrix(n, seed) if p is None else p
    q = np.linalg.inv(p)
    return FiniteHopfStarAlgebra(
        dim=n,
        basis_labels=tuple(f"f{i}" for i in range(n)),
        mult=np.einsum("ia,jb,ijk,ck->abc", p, p, a.mult, q),
        comult=np.einsum("ia,ijk,bj,ck->abc", p, a.comult, q, q),
        unit=q @ a.unit,
        counit=a.counit @ p,
        antipode=p.T @ a.antipode @ q.T,
        star=np.conj(p).T @ a.star @ q.T,
        name=a.name,
    )


def cocycle_phase(chi, psi):
    """(-1)^(chi_1 psi_2): a bicharacter of Z2^2, so a 2-cocycle, and J^-1 = J."""
    return (-1) ** (chi[0] * psi[1])


def s3xz2() -> CayleyTable:
    """S3 x Z2 with (g, a) at index 2 g + a, g indexed as in ``symmetric_group_3``."""
    s3 = symmetric_group_3()
    z2 = np.add.outer(np.arange(2), np.arange(2)) % 2
    table = 2 * s3.table[:, None, :, None] + z2[None, :, None, :]
    return cayley_from_table(table.reshape(12, 12), name="s3xz2")


def twist_conjugation(label: str, order: int) -> np.ndarray:
    """theta_k = Ad(u_x^k) for k < ``order`` on C[S3 x Z2], x = (``label``, 0) for a label of
    ``symmetric_group_3``: the permutations y -> x^k y x^-k of the group basis, a stack that
    Z_order acts by when x^order = e.  The twist keeps the algebra, so Ad(u_x) stays an algebra
    automorphism of it; it keeps the twisted coproduct exactly when u_x (x) u_x commutes with J,
    as for x = s, which commutes with the Klein subgroup <s, z>, and not for a 3-cycle."""
    g, x = s3xz2(), 2 * symmetric_group_3().labels.index(label)
    powers = [g.identity_index]
    for _ in range(order - 1):
        powers.append(g.table[powers[-1], x])
    return permutation_matrix(g.table[g.table[powers], g.inverses()[powers][:, None]])


def twisted_s3xz2(phase=cocycle_phase) -> FiniteHopfStarAlgebra:
    """The Drinfeld twist of C[S3 x Z2] by J = sum_(chi, psi) phase(chi, psi) e_chi
    (x) e_psi: for the default 2-cocycle, a finite quantum group neither
    commutative nor cocommutative (Drinfeld 1989; Movshev 1993; Nikshych 1998).

    On the Klein subgroup V = <s, z>, s a transposition of S3 and z the generator
    of Z2, e_chi = 1/4 sum_v chi(v) u_v for chi in Z2^2 are orthogonal projections
    summing to 1, so J^-1 = sum 1/phase(chi, psi) e_chi (x) e_psi, and J is unitary
    for a phase of modulus 1.  The twist keeps the algebra, conjugates the
    coproduct, Delta_J = J Delta J^-1, and the antipode, S_J = U S(.) U^-1, U =
    m(id (x) S) J = sum_chi phase(chi, chi) e_chi, as S(e_psi) = e_psi.  V is not
    normal, so Delta_J is not cocommutative.  A phase that is not a 2-cocycle,
    such as i^(chi_1 psi_2 + chi_2), leaves Delta_J a *-homomorphism that is not
    coassociative.
    """
    a = group_algebra(s3xz2())
    # (s, 0) and (e, 1): S3's identity "012" is index 0
    s, z = 2 * symmetric_group_3().labels.index("102"), 1
    klein = [0, s, z, s + z]  # s^a z^b at a + 2 b
    e = np.eye(12)
    chars = [(c1, c2) for c1 in (0, 1) for c2 in (0, 1)]  # chi = (c1, c2) at 2 c1 + c2
    proj = [sum((-1) ** (c1 * (v % 2) + c2 * (v // 2)) * e[g] for v, g in enumerate(klein)) / 4
            for c1, c2 in chars]
    phases = np.array([[phase(chi, psi) for psi in chars] for chi in chars])
    twist, twist_inv = (sum(f[i, k] * np.outer(proj[i], proj[k]) for i in range(4) for k in range(4))
                        for f in (phases, 1 / phases))
    u, u_inv = (sum(f[i, i] * proj[i] for i in range(4)) for f in (phases, 1 / phases))
    m = a.mult

    def pair_product(x, y):  # product in A (x) A of coefficient matrices over u_a (x) u_b
        return np.einsum("ab,cd,acj,bdk->jk", x, y, m, m, optimize=True)

    comult = np.array([pair_product(pair_product(twist, c), twist_inv) for c in a.comult])
    antipode = np.array([multiply(a, multiply(a, u, row), u_inv) for row in a.antipode])
    return dataclasses.replace(a, comult=comult, antipode=antipode, name="twist(s3xz2)",
                               source_group=None)


def preset_or_twist(name: str) -> FiniteHopfStarAlgebra:
    """A preset, or the twist of C[S3 x Z2] (``twist``) or its dual (``dual:twist``)."""
    if name.endswith("twist"):
        twist = twisted_s3xz2()
        return build_dual(twist) if name.startswith("dual:") else twist
    return preset(name)


def multiply(a: FiniteHopfStarAlgebra, x, y) -> np.ndarray:
    """The coordinates of the product of the elements with coordinates ``x`` and ``y``."""
    return np.einsum("i,j,ijk->k", np.asarray(x), np.asarray(y), a.mult)


def apply_star(a: FiniteHopfStarAlgebra, x) -> np.ndarray:
    """The coordinates of the adjoint of the element with coordinates ``x``."""
    return a.star.T @ np.conj(np.asarray(x))


def embed_legs(x, placement, ambient) -> np.ndarray:
    """The dense ambient matrix of ``x`` acting on the named legs, identity
    elsewhere: the numpy.kron reference for products placed on legs.

    ``placement`` lists 1-based ambient leg numbers in the order of x's legs,
    which have the sizes of those ambient legs; e.g. embedding W on legs
    [1, 3] of a 3-leg space produces the operator usually written W13.  A
    repeated or out-of-range leg, or a matrix of the wrong size, raises
    StructuralError: a repeated leg would otherwise reshape to a wrong matrix.
    """
    placement = [int(p) for p in placement]
    ambient = tuple(int(d) for d in ambient)
    m = len(ambient)
    if len(set(placement)) != len(placement) or any(p < 1 or p > m for p in placement):
        raise StructuralError(f"placement {placement} invalid for {m} legs")
    x = np.asarray(x, dtype=complex)
    k = prod(ambient[p - 1] for p in placement)
    if x.shape != (k, k):
        raise StructuralError(
            f"operator of shape {x.shape} cannot act on legs {placement} of dims {ambient}"
        )
    rest = [l for l in range(1, m + 1) if l not in placement]
    order = placement + rest
    big = np.kron(x, np.eye(prod(ambient[l - 1] for l in rest), dtype=complex))
    dims_in_order = tuple(ambient[l - 1] for l in order)
    tensor = big.reshape(dims_in_order + dims_in_order)
    # axis j carries ambient leg order[j]; sort legs back to 1..m
    axes = sorted(range(m), key=lambda j: order[j])
    n = prod(ambient)
    return tensor.transpose([*axes, *(m + j for j in axes)]).reshape(n, n)


def expand_in_leg(matrix, dims, basis_mats) -> tuple[np.ndarray, float]:
    """The least-squares fit X = sum_b C_b (x) basis_b of a 2-leg operator over
    its second leg: the stack of C_b on leg 1, and the Frobenius norm of the
    unexplained part, which vanishes exactly when X lies in L(leg 1) (x) span(basis)."""
    d1, d2 = (int(dims[0]), int(dims[1]))
    a = np.stack([np.asarray(b, dtype=complex).reshape(-1) for b in basis_mats], axis=1)
    rhs = np.asarray(matrix, dtype=complex).reshape(d1, d2, d1, d2)
    rhs = rhs.transpose(1, 3, 0, 2).reshape(d2 * d2, d1 * d1)
    coeffs, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return coeffs.reshape(a.shape[1], d1, d1), float(np.linalg.norm(a @ coeffs - rhs))


def orthonormal_unitary(a: FiniteHopfStarAlgebra) -> MultiplicativeUnitary:
    """W of ``a`` as the suites build it: from ``a`` rewritten in its GNS-orthonormal basis."""
    return build_multiplicative_unitary(orthonormal_algebra(a, gns_construct(a, compute_haar(a))))


def orthonormal_context(a: FiniteHopfStarAlgebra, k: CayleyTable, theta):
    """The context of an action on W as ``action_suite`` builds it: W of ``a`` in
    its GNS-orthonormal basis, and theta_k moved there as R theta_k R^-1."""
    gns = gns_construct(a, compute_haar(a))
    wop = build_multiplicative_unitary(orthonormal_algebra(a, gns))
    return build_intertwiner_data(wop, k, gns.to_onb @ np.asarray(theta) @ gns.onb_change)


def haar_by_invariance_solve(a: FiniteHopfStarAlgebra) -> Functional:
    """The Haar state solved for: the normalized one-dimensional nullspace of
    the invariance system, by SVD, which the closed form Tr(L_a)/n replaces."""
    n = a.dim
    _, sigma, vh = np.linalg.svd(_invariance_system(a), full_matrices=False)
    assert n - _rank_above(sigma, max(DEFAULT_TOL, rounding_allowance(n))) == 1
    v = np.conj(vh[-1])
    return Functional(v / (v @ a.unit))


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


def identity_antipode_control(data) -> float:
    """The strong right invariance residual of an action context with k^-1
    replaced by k: max over k of |haar(theta_k(e_i) e_j) - haar(e_i theta_k(e_j))|,
    a control that must break on noncommutative examples."""
    pair = data.pair
    return max(float(np.abs(t.T @ pair - pair @ t).max()) for t in data.theta)


def dual_subspace_commutativity_defect(wop: MultiplicativeUnitary) -> float:
    """Largest commutator norm within the dual subspace basis."""
    x = wop.slice_basis
    products = x[:, None] @ x[None]
    return float(np.linalg.norm(products - products.transpose(1, 0, 2, 3), axis=(2, 3)).max())


def deficient_dual_span(wop: MultiplicativeUnitary) -> MultiplicativeUnitary:
    """``wop`` with its dual subspace factored from the slice basis with its
    last element replaced by a copy of the first: rank n - 1."""
    x = wop.slice_basis
    return dataclasses.replace(wop, dual_span=span_basis(np.concatenate([x[:1], x[:-1]])))


@pytest.fixture
def basis_changed():
    return change_basis
