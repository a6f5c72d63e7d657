"""Haar states across the preset catalog, and the checks that certify them.

For a group algebra the Haar state is the indicator of the identity; for a
function algebra it is the uniform measure.  Both are the closed form
h(a) = Tr(L_a)/n, the normalised trace of the left regular representation,
which knows nothing of the coproduct.  The checks certify it: the
bi-invariance system has a one-dimensional nullspace that h lies in, and the
Gram matrix of h is positive.
"""

import numpy as np

from fqg import compute_haar, gns_construct, preset, verify_trace
from fqg.haar import Functional, haar_invariance_residual, haar_nullspace_dimension

np.set_printoptions(precision=4, suppress=True, linewidth=120)

for name in ("kz3", "fz3", "ks3", "fs3", "dual:fs3"):
    algebra = preset(name)
    h = compute_haar(algebra)
    gns = gns_construct(algebra, h)
    trace = verify_trace(algebra, h)
    print(f"{name:9s} haar = Tr(L_a)/n = {np.round(h.coords.real, 4)}")
    print(
        f"          invariance nullspace dim {haar_nullspace_dimension(algebra)}, "
        f"invariance defect of Tr(L_a)/n {haar_invariance_residual(algebra, h):.1e}, "
        f"smallest Gram eigenvalue {gns.smallest_gram_eigenvalue():.4f}, "
        f"trace defect {trace.max_residual():.1e}"
    )

print("\nleft regular representation of the order-2 group algebra:")
a = preset("kz2")
gns = gns_construct(a, compute_haar(a))
for label, matrix in zip(a.basis_labels, gns.left_regular):
    print(f"  L[{label}] =\n{matrix.real}")

print("\na functional that is normalized but not invariant:")
perturbed = Functional([0.9, 0.1])
print(f"  invariance defect of (0.9, 0.1) on kz2: {haar_invariance_residual(a, perturbed):.2f}")
