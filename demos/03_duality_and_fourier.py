"""The dual quantum group seen three ways.

First as right slices of W spanning the dual subspace, then as the abstract
dual Hopf *-algebra on the dual basis, and finally through the slice
isomorphism and the Fourier transform connecting the two.  Taking the dual
of a group algebra lands exactly on the function algebra of the same group,
and the double dual reproduces the original structure tensors bit for bit.
"""

import numpy as np

from fqg import (
    build_dual,
    build_dual_subspace,
    build_multiplicative_unitary,
    compute_haar,
    dual_coproduct,
    fourier_matrix,
    gns_construct,
    orthonormal_algebra,
    preset,
)

np.set_printoptions(precision=3, suppress=True, linewidth=120)


def unitary(a):
    """W of ``a``, built from ``a`` rewritten in its Haar-orthonormal basis."""
    return build_multiplicative_unitary(orthonormal_algebra(a, gns_construct(a, compute_haar(a))))


wop = unitary(preset("kz2"))

build_dual_subspace(wop)  # raises unless the slice basis spans the dual subspace
print("right-slice basis of the dual subspace of kz2:")
for j, mat in enumerate(wop.slice_basis):
    print(f"  x[{j}] =\n{mat.real}")

p_g = wop.slice_basis[1]
print("\ndual coproduct of the projection onto the u_g sector:")
print(dual_coproduct(wop, p_g).real)
print("(reads as p_e (x) p_g + p_g (x) p_e: the dual group law)")

print("\ndual algebras as structure constants:")
for name in ("kz3", "ks3", "fs3"):
    dual = build_dual(preset(name))
    both = build_dual(dual)
    same = all(
        np.array_equal(getattr(both, f), getattr(preset(name), f))
        for f in ("mult", "comult", "unit", "counit", "antipode", "star")
    )
    print(
        f"  dual of {name}: commutative defect {dual.commutativity_defect():.2f}, "
        f"cocommutative defect {dual.cocommutativity_defect():.2f}, "
        f"double dual equals primal: {same}"
    )

print("\ncommutativity of the dual subspace classifies the primal coproduct:")
for name in ("ks3", "fs3"):
    x = unitary(preset(name)).slice_basis
    products = x[:, None] @ x[None]  # products[i, j] = x_i x_j
    commutator = np.linalg.norm(products - products.transpose(1, 0, 2, 3), axis=(2, 3)).max()
    print(f"  {name}: largest commutator in the dual subspace = {commutator:.3f}")

print("\nFourier transform on kz3 (matrix in dual-basis coordinates):")
a3 = preset("kz3")
h3 = compute_haar(a3)
f3 = fourier_matrix(a3, h3)
print(f3.real)
print(f"condition number {np.linalg.cond(f3):.2f}")
print(f"image of the unit is the Haar state: {np.allclose(f3 @ a3.unit, h3.coords)}")

# the slice map sends a functional phi to sum_j phi_j x_j over the slice basis
w3 = unitary(a3)
counit_slice = np.einsum("j,jpq->pq", w3.algebra.counit, w3.slice_basis)
print(f"slice image of the counit is the identity: {np.allclose(counit_slice, np.eye(3))}")
