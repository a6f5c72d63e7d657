"""Full verification pipelines: every identity for one algebra or one action.

Each suite is a table of rows ``(prefix, stage, abort)`` that ``_run`` runs in
order, reporting each stage's checks under ``prefix``.  A stage that raises a
VerificationError (Gram not positive, a right slice of W outside the dual
subspace, ...) ends the run with the failed check
``prefix + (abort or exc.check)``.  A guard row (``abort`` not None) runs
before any later row that runs; all costly context is in cached closures.
Right after ``gns/`` the algebra is rewritten once in its GNS-orthonormal basis
(``haar.orthonormal_algebra``), and every stage on W reads that algebra; the
stages that measure the input (``axioms/`` to ``trace/``, ``dual_algebra/`` and
``verify_fourier``) read the input.  A passing ``full_suite`` forms 11 products of
(n^2, n^2) by (n^2, n^2) matrices, n^6 work each: ``comult_multiplicative`` of the
input and of the dual, W*W, VW, and seven in ``sandwich_certificate`` (two spill
operands and the two Gram tensors they read, one Gram matrix, two Gram parts).
"""

from __future__ import annotations

import re
from functools import cache

import numpy as np

from . import actions, duality, haar, multiplicative
from .errors import VerificationError
from .groups import CayleyTable
from .hopf import DEFAULT_TOL, FiniteHopfStarAlgebra, verify_hopf_star_axioms
from .report import ReportBuilder, VerificationReport


def _run(rows, tol: float, only) -> VerificationReport:
    """The report of ``rows`` filtered by the globs ``only``, if any, keeping an abort.
    A row runs when some glob's literal head (up to its first ``*``, ``?`` or ``[``)
    and its prefix are prefixes of one another, a guard also when a later row runs."""
    heads = [re.split(r"[*?[]", pattern, maxsplit=1)[0] for pattern in only or ()]
    wanted = [not only or any(h.startswith(p) or p.startswith(h) for h in heads) for p, _, _ in rows]
    rb = ReportBuilder()
    for i, (prefix, stage, abort) in enumerate(rows):
        if not any(wanted[i:] if abort is not None else wanted[i:i + 1]):
            continue
        try:
            result = stage()
        except VerificationError as exc:
            ended = prefix + (abort or exc.check)
            rb.add(ended, np.nan, tol, f"aborted: {exc}")
            only = only and [*only, ended]  # a check name is a glob matching only itself
            break
        if isinstance(result, VerificationReport):
            rb.extend(prefix, result)
    report = rb.build()
    return report.filtered(only) if only else report


def full_suite(a: FiniteHopfStarAlgebra, tol: float = DEFAULT_TOL, only=None) -> VerificationReport:
    """Axioms, Haar, GNS, trace, the full unitary suite, duality and Fourier."""
    h = haar.compute_haar(a)
    gns = cache(lambda: haar.gns_construct(a, h, tol))
    wop = cache(lambda: multiplicative.build_multiplicative_unitary(haar.orthonormal_algebra(a, gns())))
    dual = cache(lambda: duality.build_dual(a))
    return _run((
        ("axioms/", lambda: verify_hopf_star_axioms(a, tol), None),
        ("haar/", lambda: haar.verify_haar(a, h, tol), None),
        ("gns/", lambda: haar.verify_gns(a, gns(), tol), ""),
        ("trace/", lambda: haar.verify_trace(a, h, tol), None),
        ("unitary/", lambda: multiplicative.verify_unitarity(wop(), tol), None),
        ("pentagon/", lambda: multiplicative.verify_pentagon(wop(), tol), None),
        ("slices/", lambda: multiplicative.verify_left_slices_span(wop(), tol), None),
        ("coproduct_via_w/", lambda: multiplicative.verify_coproduct_implemented(wop(), tol), None),
        ("antipode_relation/", lambda: multiplicative.verify_antipode_relation(wop(), tol), None),
        ("dual_subspace/", lambda: multiplicative.build_dual_subspace(wop(), tol), ""),
        ("dual_coproduct/", lambda: multiplicative.verify_dual_coproduct_identities(wop(), tol), None),
        ("dual_algebra/", lambda: verify_hopf_star_axioms(dual(), tol), None),
        ("dual_algebra/", lambda: duality.verify_dual_algebra(a, dual(), tol), "haar"),
        ("slice_isomorphism/", lambda: duality.verify_G_isomorphism(wop(), tol), None),
        ("fourier/", lambda: duality.verify_fourier(a, h, tol), None),
        ("fourier/", lambda: duality.verify_fourier_slice_identity(wop(), tol), None),
    ), tol, only)


def action_suite(a: FiniteHopfStarAlgebra, k_group: CayleyTable, theta, tol: float = DEFAULT_TOL,
                 mode: str = "auto", only=None) -> VerificationReport:
    """Action axioms, invariance, beta/gamma, exchange identity, commutation.
    Failed axioms end the run; else a mode that cannot run is refused first."""
    axioms = actions.action_axioms_report(a, k_group, theta, tol)
    rows = [("action/", lambda: axioms, None)]
    if axioms.overall_pass:
        mode = actions.commutation_mode(a.dim, k_group.order, mode)
        gns = cache(lambda: haar.gns_construct(a, haar.compute_haar(a), tol))
        # W of the orthonormal algebra, and theta_k moved over as R theta_k R^-1
        wop = cache(lambda: multiplicative.build_multiplicative_unitary(
            haar.orthonormal_algebra(a, gns())))
        data = cache(lambda: actions.build_intertwiner_data(
            wop(), k_group, gns().to_onb @ np.asarray(theta) @ gns().onb_change))
        rows += [
            ("action/", gns, ""),
            ("invariance/", lambda: actions.verify_haar_invariance(data(), tol), None),
            ("invariance/", lambda: actions.verify_strong_right_invariance(data(), tol), None),
            ("intertwiner/", lambda: ReportBuilder().add(
                "v_expansion", data().v_expansion_residual, tol).build(), None),
            ("beta/", lambda: actions.verify_beta(data(), tol), None),
            ("gamma/", lambda: actions.verify_gamma(data(), tol), None),
            ("intertwiner/", lambda: actions.verify_action_intertwiner(data(), tol), None),
            ("commutation/", lambda: actions.verify_slice_commutativity(data(), tol, mode), None),
        ]
    else:  # the failing checks ended the run, so they are reported whatever ``only`` selects
        only = only and [*only, *("action/" + c.name for c in axioms.checks if not c.passed)]
    return _run(rows, tol, only)
