"""Walk through the multiplicative unitary of the smallest nontrivial example.

The group algebra of the order-2 group has basis u_e, u_g with coproduct
u (x) u on both.  The fundamental map a (x) b -> coproduct(a)(1 (x) b) sends
u_a (x) u_b to u_a (x) u_{ab}, which in the orthonormal Haar coordinates is
exactly the controlled-not permutation.  This script builds it, checks the
pentagon equation, and shows that the plain swap fails it badly.
"""

import numpy as np

from fqg import (
    build_multiplicative_unitary,
    compute_haar,
    gns_construct,
    orthonormal_algebra,
    pentagon_residual,
    preset,
)
from fqg.tensors import leg_distance

np.set_printoptions(precision=3, suppress=True, linewidth=120)

algebra = preset("kz2")
print(f"algebra: {algebra.name}, basis {algebra.basis_labels}")

h = compute_haar(algebra)
print(f"Haar state on the basis: {h.coords.real}")

gns = gns_construct(algebra, h)
print(f"Gram matrix of <a, b> = haar(a* b):\n{gns.gram.real}")

# the algebra rewritten in its Haar-orthonormal basis (here the basis already is)
wop = build_multiplicative_unitary(orthonormal_algebra(algebra, gns))
print(f"\nW (the controlled-not):\n{wop.w.real}")

print(f"\nunitarity defect |W* W - 1| = {np.linalg.norm(wop.w.conj().T @ wop.w - np.eye(4)):.2e}")
print(f"pentagon defect |W23 W12 W23* - W12 W13| = {pentagon_residual(wop.w):.2e}")

# the same two sides assembled as products of W placed on legs of three copies of C^2
w, legs = wop.w, (2, 2, 2)
lhs = [(w, [2, 3]), (w, [1, 2]), (w.conj().T, [2, 3])]
rhs = [(w, [1, 2]), (w, [1, 3])]
print(f"hand-assembled defect          = {leg_distance(lhs, rhs, legs):.2e}")

swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
print(f"\nnegative control: pentagon defect of the plain swap = {pentagon_residual(swap):.2f}")
print("the swap is unitary but does not implement any coproduct")
