"""End-to-end pipelines: stage ordering, abort paths, report plumbing."""

import numpy as np
import pytest

from fqg import (
    FiniteHopfStarAlgebra,
    action_suite,
    full_suite,
    group_preset,
    pentagon_residual,
    preset,
    verify_hopf_star_axioms,
)
from fqg.report import VerificationReport

from conftest import deficient_dual_span, orthonormal_unitary, preset_or_twist, twisted_s3xz2


def test_full_suite_passes_and_orders_stages():
    report = full_suite(preset("kz3"))
    assert report.overall_pass
    names = [c.name for c in report.checks]
    stages = []
    for name in names:
        stage = name.split("/")[0]
        if stage not in stages:
            stages.append(stage)
    assert stages == [
        "axioms", "haar", "gns", "trace", "unitary", "pentagon", "slices",
        "coproduct_via_w", "antipode_relation", "dual_subspace",
        "dual_coproduct", "dual_algebra", "slice_isomorphism", "fourier",
    ]


def test_full_suite_reports_failures_without_raising():
    a = preset("kz2")
    mult = a.mult.copy()
    mult[1, 1, 0] = 0.9
    corrupted = FiniteHopfStarAlgebra(
        dim=2,
        basis_labels=a.basis_labels,
        mult=mult,
        comult=a.comult,
        unit=a.unit,
        counit=a.counit,
        antipode=a.antipode,
        star=a.star,
    )
    report = full_suite(corrupted)
    assert not report.overall_pass
    failed = {c.name for c in report.checks if not c.passed}
    assert any(name.startswith("axioms/") for name in failed)
    assert any(name.startswith("unitary/") for name in failed)


def test_full_suite_aborts_on_indefinite_gram():
    a = preset("kz2")
    indefinite = FiniteHopfStarAlgebra(
        dim=2,
        basis_labels=a.basis_labels,
        mult=a.mult,
        comult=a.comult,
        unit=a.unit,
        counit=a.counit,
        antipode=a.antipode,
        star=np.diag([1.0, -1.0]),
    )
    report = full_suite(indefinite)
    assert not report.overall_pass
    aborted = [c for c in report.checks if c.residual is None]
    assert aborted and aborted[-1].name.startswith("gns/")
    # nothing after the aborted stage
    assert report.checks[-1].name == aborted[-1].name
    assert "n/a" in report.format_text()


def test_action_suite_stops_after_failed_axioms():
    a = preset("kz3")
    k = group_preset("z2")
    shift = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    report = action_suite(a, k, np.stack([np.eye(3), shift]))
    assert not report.overall_pass
    assert all(c.name.startswith("action/") for c in report.checks)


def test_action_suite_full_run_check_names():
    a = preset("kz3")
    k = group_preset("z2")
    from fqg import resolve_automorphisms

    theta = resolve_automorphisms(a, k, "inversion")
    report = action_suite(a, k, theta)
    # the action context freezes a copy of theta, not the caller's array
    assert theta.flags.writeable
    names = {c.name for c in report.checks}
    for expected in (
        "action/coaction_axiom",
        "action/podles_density",
        "invariance/haar_invariant_under_action",
        "invariance/strong_right_invariance",
        "invariance/shear_maps_mutually_inverse",
        "beta/beta_antipode_form_agreement",
        "gamma/gamma_coaction_axiom",
        "intertwiner/intertwiner_exchange",
        "intertwiner/intertwiner_sliced_family",
        "commutation/five_leg_commutation",
        "commutation/beta_slices_generate",
    ):
        assert expected in names
    assert report.overall_pass


@pytest.mark.parametrize(
    "names,mode", [(("ks3", "s3", "conjugation"), "auto"), (("kz6", "z2", "inversion"), "full")]
)
def test_action_suite_builds_the_haar_pairing_once(monkeypatch, names, mode):
    # every action stage reads the pairing from the one context
    import fqg.actions as actions_mod
    from fqg import resolve_automorphisms

    calls, original = [], actions_mod.fourier_matrix
    monkeypatch.setattr(actions_mod, "fourier_matrix", lambda *args: calls.append(args) or original(*args))
    a, k = preset(names[0]), group_preset(names[1])
    report = action_suite(a, k, resolve_automorphisms(a, k, names[2]), mode=mode)
    assert report.overall_pass
    assert len(calls) == 1


def test_report_filter_and_lookup():
    report = full_suite(preset("trivial"))
    filtered = report.filtered(["pentagon/*"])
    assert [c.name for c in filtered.checks] == ["pentagon/pentagon"]
    assert filtered.overall_pass
    # the report carries a certified bound with its rounding allowance; the
    # exact contraction of the one-dimensional W = [1] is exactly zero
    assert 0.0 < report.residual("pentagon/pentagon") <= 1e-14
    a = preset("trivial")
    assert pentagon_residual(orthonormal_unitary(a).w) == 0.0


def test_residual_of_an_aborted_check_raises_naming_it():
    # kz3 with its coproduct zeroed has W = 0, whose right slices span nothing,
    # so the run ends at the dual-subspace guard, and that abort has no residual
    import dataclasses

    kz3 = preset("kz3")
    report = full_suite(dataclasses.replace(kz3, comult=np.zeros_like(kz3.comult)))
    name = "dual_subspace/dual_subspace_dimension"
    assert report.checks[-1].name == name
    with pytest.raises(ValueError, match=f"check '{name}' has no residual"):
        report.residual(name)


def test_a_stage_report_never_passes_a_tolerance_that_overflows():
    # 1e308 * structure_scale() is inf; the suites refuse it, a stage called alone fails it
    report = verify_hopf_star_axioms(preset("kz3"), 1e308)
    assert report.check("associativity").tolerance == np.inf
    assert not report.check("associativity").passed


def test_the_twist_of_s3xz2_is_genuinely_quantum():
    # neither commutative nor cocommutative: 72 ordered non-commuting pairs of
    # S3 x Z2 give 144 entries of +-1 in mult - mult^T
    twist = twisted_s3xz2()
    assert twist.commutativity_defect() == 12.0
    assert twist.cocommutativity_defect() == pytest.approx(np.sqrt(12), abs=0.005)  # 3.46
    for name in ("twist", "dual:twist"):
        report = full_suite(preset_or_twist(name))
        assert len(report.checks) == 78 and report.overall_pass


@pytest.mark.parametrize("name", ["ks3", "fs3", "kz4", "fz5", "dual:ks3", "twist", "dual:twist"])
def test_full_suite_passes_in_a_random_basis(name, basis_changed):
    # a valid Kac algebra passes every check in any basis, not only in the
    # permutation-sparse preset basis; the twist is neither commutative nor
    # cocommutative, and so is its dual
    report = full_suite(basis_changed(preset_or_twist(name), seed=len(name) * 101))
    assert len(report.checks) == 78
    assert [c.name for c in report.checks if not c.passed] == []


def test_full_suite_holds_no_dense_three_leg_operator(monkeypatch):
    # with several tiles per leg identity, the whole suite on the group algebra
    # of Z8 stays below the size of one dense operand on three legs (8^6
    # complex entries, 4 MiB)
    import tracemalloc

    import fqg.tensors as tensors_mod
    from fqg import cyclic_group, group_algebra

    a = group_algebra(cyclic_group(8))
    monkeypatch.setattr(tensors_mod, "TILE_BYTES", 2 ** 20)
    assert tensors_mod._tile((8, 8, 8), 2) < 8
    tracemalloc.start()
    try:
        report = full_suite(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.overall_pass
    assert peak < 16 * 8 ** 6


def _indefinite_kz2():
    a = preset("kz2")
    return FiniteHopfStarAlgebra(
        dim=2, basis_labels=a.basis_labels, mult=a.mult, comult=a.comult, unit=a.unit,
        counit=a.counit, antipode=a.antipode, star=np.diag([1.0, -1.0]),
    )


FULL_PATTERNS = [
    "axioms/*", "haar/*", "pentagon/*", "dual_coproduct/*", "dual_algebra/*", "fourier/*",
    "*w_expansion",
]


def filtered_plus(full, pattern, ended):
    """The checks of ``full`` that ``pattern`` matches or that are in ``ended``,
    the checks that ended the run, in report order."""
    names = {c.name for c in full.filtered([pattern]).checks} | {c.name for c in ended}
    return VerificationReport(tuple(c for c in full.checks if c.name in names))


@pytest.mark.parametrize("pattern", FULL_PATTERNS)
@pytest.mark.parametrize(
    "case", ["kz3", "ks3-basis-changed", "kz2-indefinite-gram", "kz3-doubled-comult", "kz3-tol-1e-20"]
)
def test_full_suite_selection_equals_filtering(case, pattern, basis_changed):
    # --only runs only the rows it selects (and the guards before them), yet
    # reports what filtering the full report would, plus the check that ended
    # the run: the abort at gns/ of kz2-indefinite-gram, which every glob here
    # but axioms/* and haar/* reaches; kz3-doubled-comult fails checks
    # without an abort
    import dataclasses

    tol = 1e-20 if case == "kz3-tol-1e-20" else 1e-9
    kz3 = preset("kz3")
    a = {
        "kz3": kz3,
        "ks3-basis-changed": basis_changed(preset("ks3"), seed=303),
        "kz2-indefinite-gram": _indefinite_kz2(),
        "kz3-doubled-comult": dataclasses.replace(kz3, comult=2 * kz3.comult),
        "kz3-tol-1e-20": kz3,
    }[case]
    full = full_suite(a, tol)
    aborts = case == "kz2-indefinite-gram"
    assert aborts == full.checks[-1].detail.startswith("aborted: ")
    assert full.overall_pass == (case in ("kz3", "ks3-basis-changed"))
    reached = aborts and pattern not in ("axioms/*", "haar/*")
    assert full_suite(a, tol, only=[pattern]) == filtered_plus(full, pattern, full.checks[-1:] if reached else ())


@pytest.mark.parametrize("pattern", ["action/*", "invariance/*", "commutation/*", "*w_expansion"])
@pytest.mark.parametrize(
    "names", [("ks3", "s3", "conjugation"), ("ks3", "z2", "inversion")], ids=["conjugation", "failing"]
)
def test_action_suite_selection_equals_filtering(names, pattern):
    # the filtered full report plus the checks that ended the run: failed
    # axioms end it (ks3 with Z2 by inversion), whatever the glob selects
    from fqg import resolve_automorphisms
    from fqg.actions import action_axioms_report

    a, k = preset(names[0]), group_preset(names[1])
    theta = resolve_automorphisms(a, k, names[2])
    full = action_suite(a, k, theta)
    axioms_fail = not action_axioms_report(a, k, theta).overall_pass
    assert axioms_fail == (names[1] == "z2")
    ended = [c for c in full.checks if not c.passed] if axioms_fail else ()
    assert action_suite(a, k, theta, only=[pattern]) == filtered_plus(full, pattern, ended)


def test_only_skips_the_stages_it_does_not_select(monkeypatch):
    # an unselected stage is not run, so its failure cannot end the run
    import fqg.duality as duality_mod
    import fqg.multiplicative as multiplicative_mod

    def broken(*args):
        raise np.linalg.LinAlgError("not selected, not run")

    monkeypatch.setattr(multiplicative_mod, "verify_pentagon", broken)
    monkeypatch.setattr(duality_mod, "verify_fourier", broken)
    report = full_suite(preset("kz3"), only=["axioms/*", "dual_coproduct/*"])
    assert report.overall_pass
    stages = {c.name.split("/")[0] for c in report.checks}
    assert stages == {"axioms", "dual_coproduct"}
    with pytest.raises(np.linalg.LinAlgError):
        full_suite(preset("kz3"))


def test_only_runs_the_guards_before_a_selected_stage():
    # the Gram guard ends the run before the Fourier rows, as in the full run
    report = full_suite(_indefinite_kz2(), only=["fourier/*", "gns/*"])
    assert [c.name for c in report.checks] == ["gns/gram_positive"]
    assert report.checks[0].residual is None


def test_an_abort_at_the_dual_subspace_is_reported_as_its_check(monkeypatch):
    # a slice basis of rank n - 1 ends the run at the dual-subspace guard
    import fqg.multiplicative as multiplicative_mod

    build = multiplicative_mod.build_multiplicative_unitary
    monkeypatch.setattr(
        multiplicative_mod, "build_multiplicative_unitary", lambda b: deficient_dual_span(build(b))
    )
    report = full_suite(preset("kz3"))
    last = report.checks[-1]
    assert last.name == "dual_subspace/dual_subspace_dimension"
    assert last.residual is None and last.detail.startswith("aborted: dual subspace has dimension 2")
    assert [c.name for c in report.checks if not c.passed] == [last.name]


def test_an_abort_at_the_span_of_the_right_slices_is_reported_as_its_check(monkeypatch):
    # W = x_0 (x) I passes the first two dual-subspace guards and ends the run at the third;
    # the pentagon/ stage, which computes both conjugation families, must not raise first
    import dataclasses

    import fqg.multiplicative as multiplicative_mod

    build = multiplicative_mod.build_multiplicative_unitary

    def rank_one_slices(b):
        wop = build(b)
        return dataclasses.replace(wop, w=np.kron(wop.slice_basis[0], np.eye(b.dim)))

    monkeypatch.setattr(multiplicative_mod, "build_multiplicative_unitary", rank_one_slices)
    report = full_suite(preset("kz3"))
    last = report.checks[-1]
    assert last.name == "dual_subspace/dual_subspace_dimension"
    assert last.residual is None
    assert last.detail == "aborted: right slices of W do not span an n-dimensional space"
    assert len(report.checks) == 41 and sum(not c.passed for c in report.checks) == 11


def test_too_large_full_mode_is_refused_under_only(monkeypatch, capsys):
    # the full-mode size refusal is a precondition: --only cannot skip it
    import fqg.actions as actions_mod
    from fqg.cli import main

    monkeypatch.setattr(actions_mod, "FULL_MODE_BYTES", 100)
    argv = ["action", "kz3", "--group", "z2", "--automorphisms", "inversion", "--mode", "full"]
    for only in ([], ["--only", "action/*"], ["--only", "commutation/*"]):
        assert main(argv + only) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "full mode needs about" in captured.err
