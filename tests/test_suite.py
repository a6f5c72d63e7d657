"""End-to-end pipelines: stage ordering, abort paths, report plumbing."""

import numpy as np
import pytest

from fqg import FiniteHopfStarAlgebra, action_suite, full_suite, group_preset, preset


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

    report = action_suite(a, k, resolve_automorphisms(a, k, "inversion"))
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


def test_report_filter_and_lookup():
    report = full_suite(preset("trivial"))
    filtered = report.filtered(["pentagon/*"])
    assert [c.name for c in filtered.checks] == ["pentagon/pentagon"]
    assert filtered.overall_pass
    assert report.residual("pentagon/pentagon") == 0.0


@pytest.mark.parametrize("name", ["ks3", "fs3", "kz4", "fz5", "dual:ks3"])
def test_full_suite_passes_in_a_random_basis(name, basis_changed):
    # a valid Kac algebra passes every check in any basis, not only in the
    # permutation-sparse preset basis
    report = full_suite(basis_changed(preset(name), seed=len(name) * 101))
    assert [c.name for c in report.checks if not c.passed] == []
