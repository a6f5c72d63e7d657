"""Finite group actions by automorphisms and the commutation they force.

A finite group K acting on the algebra by Hopf *-automorphisms induces a
coaction into A (x) C(K).  The Haar state is automatically invariant, the
strong invariance identity holds, and the twisted coaction beta exchanges
with the Fourier-conjugated coaction gamma across the multiplicative
unitary.  Feeding that exchange into the coproduct expansions of
V = (id (x) beta) W forces V234 V135 = V135 V234 on five legs, whose slices
say: the algebra generated by the slices of beta is commutative.
"""

from itertools import permutations

import numpy as np

from fqg import (
    build_intertwiner_data,
    build_multiplicative_unitary,
    compute_haar,
    gns_construct,
    group_preset,
    orthonormal_algebra,
    preset,
    resolve_automorphisms,
)
from fqg.actions import (
    action_axioms_report,
    verify_action_intertwiner,
    verify_slice_commutativity,
    verify_strong_right_invariance,
)

np.set_printoptions(precision=3, suppress=True, linewidth=120)

print("automorphism groups found by brute force:")
for name in ("z2", "z3", "z4", "s3"):
    table = group_preset(name).table
    # p is an automorphism when p(gh) = p(g) p(h) for every entry of the Cayley table
    autos = [p for p in permutations(range(len(table)))
             if np.array_equal(np.take(p, table), table[np.ix_(p, p)])]
    print(f"  {name}: order {len(autos)}")

for algebra_name, group_name, kind in (
    ("kz3", "z2", "inversion"),
    ("ks3", "s3", "conjugation"),
):
    print(f"\n=== {algebra_name} acted on by {group_name} via {kind} ===")
    algebra = preset(algebra_name)
    k_group = group_preset(group_name)
    theta = resolve_automorphisms(algebra, k_group, kind)
    axioms = action_axioms_report(algebra, k_group, theta)
    assert axioms.overall_pass, axioms.format_text()  # theta is a homomorphism into Aut(A)
    print(f"action axioms: {len(axioms.checks)} checks pass")

    gns = gns_construct(algebra, compute_haar(algebra))
    wop = build_multiplicative_unitary(orthonormal_algebra(algebra, gns))
    # W acts on the Haar-orthonormal basis, so theta_k moves there as R theta_k R^-1
    data = build_intertwiner_data(wop, k_group, gns.to_onb @ theta @ gns.onb_change)

    invariance = verify_strong_right_invariance(data)
    print(f"strong right invariance defect: {invariance.max_residual():.1e}")
    # the same identity with theta_{k^-1} replaced by theta_k
    control = max(np.abs(t.T @ data.pair - data.pair @ t).max() for t in data.theta)
    print(f"  (control with the group antipode removed: {control:.1e})")

    exchange = verify_action_intertwiner(data)
    print(f"exchange identity defect |(id x beta)W - (gamma x id)W|: "
          f"{exchange.residual('intertwiner_exchange'):.1e} "
          f"on a {data.v.shape[0]}-dimensional space")

    commutation = verify_slice_commutativity(data)  # auto: full when small, sliced beyond
    for check in commutation.checks:
        print(f"  {check.name}: residual {check.residual:.1e}  {check.detail}")

print("\nconclusion: every slice family lands in a commutative algebra, so the")
print("automorphisms of these quantum groups assemble into ordinary groups.")
