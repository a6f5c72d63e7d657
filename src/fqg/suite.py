"""Full verification pipelines: every identity for one algebra or one action.

A stage that raises a VerificationError (no Haar state, Gram not positive,
span of the wrong dimension, ...) is recorded as a failed check and aborts
the stages that depend on it; structural errors propagate to the caller.
"""

from __future__ import annotations

import numpy as np

from . import actions as actions_mod
from . import duality, haar, multiplicative
from .errors import VerificationError
from .groups import CayleyTable
from .hopf import DEFAULT_TOL, FiniteHopfStarAlgebra, verify_hopf_star_axioms
from .report import ReportBuilder, VerificationReport


def full_suite(a: FiniteHopfStarAlgebra, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Axioms, Haar, GNS, trace, the full unitary suite, duality and Fourier."""
    rb = ReportBuilder()
    rb.extend("axioms/", verify_hopf_star_axioms(a, tol))

    try:
        h = haar.compute_haar(a, tol)
    except VerificationError as exc:
        rb.add("haar/" + (exc.check or "haar_exists"), np.nan, tol, f"aborted: {exc}")
        return rb.build()
    rb.add("haar/invariance", haar.haar_invariance_residual(a, h), tol * a.structure_scale())
    rb.add_count("haar/nullspace_dimension", haar.haar_nullspace_dimension(a, tol), 1)

    try:
        gns = haar.gns_construct(a, h, tol)
    except VerificationError as exc:
        rb.add("gns/" + (exc.check or "gram_positive"), np.nan, tol, f"aborted: {exc}")
        return rb.build()
    rb.extend("gns/", haar.verify_gns(a, gns, tol))
    rb.extend("trace/", haar.verify_trace(a, h, tol))

    wop = multiplicative.build_multiplicative_unitary(a, gns)
    rb.extend("unitary/", multiplicative.verify_unitarity(wop, tol))
    rb.extend("unitary/", multiplicative.verify_inverse_via_antipode(wop, tol))
    rb.extend("pentagon/", multiplicative.verify_pentagon(wop, tol))
    rb.extend("slices/", multiplicative.verify_left_slices_span(wop, tol))
    rb.extend("coproduct_via_w/", multiplicative.verify_coproduct_implemented(wop, tol))

    try:
        rb.extend("antipode_relation/", multiplicative.verify_antipode_relation(wop, tol))
        multiplicative.build_dual_subspace(wop, tol)
    except VerificationError as exc:
        rb.add("dual_subspace/" + (exc.check or "build"), np.nan, tol, f"aborted: {exc}")
        return rb.build()
    rb.add_count("dual_subspace/dimension", wop.dual_span.rank(tol), a.dim)
    rb.add("dual_subspace/closed_under_product_and_adjoint", wop.slice_closure[2], tol)
    rb.add("dual_subspace/w_expansion", wop.expansion_residual, tol)

    rb.extend("dual_coproduct/", multiplicative.verify_dual_coproduct_identities(wop, tol))

    dual_algebra = duality.build_dual(a)
    rb.extend("dual_algebra/", verify_hopf_star_axioms(dual_algebra, tol))
    try:
        dual_h = haar.compute_haar(dual_algebra, tol)
        haar.gns_construct(dual_algebra, dual_h, tol)
    except VerificationError as exc:
        rb.add("dual_algebra/haar", np.nan, tol, f"aborted: {exc}")
        return rb.build()
    rb.add(
        "dual_algebra/haar_invariance",
        haar.haar_invariance_residual(dual_algebra, dual_h),
        tol * dual_algebra.structure_scale(),
    )
    # five of the six double-dual tensors are pure index transposes of the
    # primal ones; star goes through a matrix product and so may round
    double = duality.build_dual(dual_algebra)
    rb.add(
        "dual_algebra/double_dual_is_primal",
        max(
            float(np.max(np.abs(getattr(double, f) - getattr(a, f))))
            for f in ("mult", "comult", "unit", "counit", "antipode")
        ),
        0.0,
        detail="exact tensor equality",
    )
    rb.add(
        "dual_algebra/double_dual_star",
        float(np.max(np.abs(double.star - a.star))),
        tol * a.structure_scale(),
    )

    rb.extend("slice_isomorphism/", duality.verify_G_isomorphism(wop, tol))
    rb.extend("fourier/", duality.verify_fourier(a, h, tol))
    rb.extend("fourier/", duality.verify_fourier_slice_identity(wop, tol))
    return rb.build()


def action_suite(
    a: FiniteHopfStarAlgebra,
    k_group: CayleyTable,
    theta,
    tol: float = DEFAULT_TOL,
    mode: str = "auto",
) -> VerificationReport:
    """Action axioms, invariance, beta/gamma, exchange identity, commutation."""
    rb = ReportBuilder()
    axioms = actions_mod.action_axioms_report(a, k_group, theta, tol)
    rb.extend("action/", axioms)
    if not axioms.overall_pass:
        return rb.build()
    try:
        gns = haar.gns_construct(a, haar.compute_haar(a, tol), tol)
    except VerificationError as exc:
        rb.add("action/" + (exc.check or "build"), np.nan, tol, f"aborted: {exc}")
        return rb.build()

    wop = multiplicative.build_multiplicative_unitary(a, gns)
    data = actions_mod.build_intertwiner_data(wop, k_group, theta)
    rb.extend("invariance/", actions_mod.verify_haar_invariance(data, tol))
    rb.extend("invariance/", actions_mod.verify_strong_right_invariance(data, tol))
    rb.add("intertwiner/v_expansion", data.v_expansion_residual, tol)
    rb.extend("beta/", actions_mod.verify_beta(data, tol))
    rb.extend("gamma/", actions_mod.verify_gamma(data, tol))
    rb.extend("intertwiner/", actions_mod.verify_action_intertwiner(data, tol))
    rb.extend("commutation/", actions_mod.verify_slice_commutativity(data, tol, mode))
    return rb.build()
