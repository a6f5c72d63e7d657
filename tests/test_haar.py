"""Closed-form Haar state, its certificates, GNS data, trace property."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fqg import (
    FiniteHopfStarAlgebra,
    Functional,
    VerificationError,
    compute_haar,
    cyclic_group,
    full_suite,
    gns_construct,
    group_algebra,
    haar_invariance_residual,
    preset,
    preset_names,
    verify_gns,
    verify_trace,
)
from fqg.haar import haar_nullspace_dimension

from conftest import apply_star, haar_by_invariance_solve, multiply


def test_haar_group_algebra_is_identity_indicator():
    # Bi-invariance forces the value 0 off the identity: the coproduct of a
    # group-like basis vector u is u (x) u, so h(u) u = h(u) 1 means h(u) = 0
    # unless u is the unit; normalization then pins h(unit) = 1.
    for name, n in (("kz2", 2), ("kz3", 3), ("ks3", 6)):
        h = compute_haar(preset(name))
        expected = np.zeros(n)
        expected[0] = 1.0
        assert np.max(np.abs(h.coords - expected)) < 1e-12


def test_haar_function_algebra_is_uniform():
    # Substituting the uniform covector satisfies both invariance sums: each
    # group element appears exactly once per row/column of the table.
    for name, n in (("fz2", 2), ("fz3", 3), ("fs3", 6)):
        h = compute_haar(preset(name))
        assert np.max(np.abs(h.coords - np.full(n, 1.0 / n))) < 1e-12


def test_haar_trivial():
    h = compute_haar(preset("trivial"))
    assert np.allclose(h.coords, [1.0])


def test_haar_uniqueness_certificate():
    for name in ("kz2", "fz3", "ks3", "fs3"):
        assert haar_nullspace_dimension(preset(name)) == 1


def test_perturbed_functional_fails_invariance_but_still_traces():
    a = preset("kz2")
    perturbed = Functional([0.9, 0.1])
    assert haar_invariance_residual(a, perturbed) > 1e-3
    # diagonal functionals on a commutative algebra always trace
    assert verify_trace(a, perturbed).overall_pass


def _failed(report):
    return [c.name for c in report.checks if not c.passed]


def test_no_invariant_functional_when_coproduct_vanishes():
    # with Delta = 0 the invariance system reads h(e_i) 1 = 0, so only the zero
    # functional solves it: the trace state fails invariance and the nullspace
    # is 0-dimensional, both as named checks
    a = preset("kz2")
    broken = dataclasses.replace(a, comult=np.zeros((2, 2, 2)))
    assert haar_nullspace_dimension(broken) == 0
    report = full_suite(broken)
    assert {"haar/invariance", "haar/nullspace_dimension"} <= set(_failed(report))
    assert report.check("haar/invariance").residual == pytest.approx(np.sqrt(2.0))


def test_non_unique_haar_detected():
    # with Delta = 0 and unit = 0 the invariance system is zero: every
    # functional is invariant, so invariance passes while the nullspace
    # certificate reads 2 and h(1) = 0 fails the normalization
    a = preset("kz2")
    degenerate = dataclasses.replace(a, comult=np.zeros((2, 2, 2)), unit=np.zeros(2))
    assert haar_nullspace_dimension(degenerate) == 2
    report = full_suite(degenerate)
    assert report.check("haar/invariance").residual == 0.0
    assert {"haar/nullspace_dimension", "gns/haar_normalized"} <= set(_failed(report))


@pytest.mark.parametrize("name", [*preset_names(), *(f"dual:{p}" for p in preset_names())])
def test_closed_form_matches_the_invariance_solve(name, basis_changed):
    # Tr(L_a)/n against the normalized nullspace vector of the invariance
    # system, as given and in three random bases
    for a in (preset(name), *(basis_changed(preset(name), seed) for seed in (1, 2, 3))):
        gap = np.max(np.abs(compute_haar(a).coords - haar_by_invariance_solve(a).coords))
        assert gap <= 1e-14


@pytest.mark.parametrize("scale", [1e-6, 1e-2])
@pytest.mark.parametrize("name", ["ks3", "fs3", "kz4"])
def test_comult_noise_fails_haar_invariance_by_name(name, scale, basis_changed):
    # the closed form is not solved from the invariance system, so a coproduct
    # defect shows as a failing haar/invariance of about its size, and the run
    # goes on to report every later stage up to the dual's Gram guard
    for a in (preset(name), basis_changed(preset(name), seed=1)):
        noise = np.random.default_rng(0).standard_normal(a.comult.shape)
        report = full_suite(dataclasses.replace(a, comult=a.comult + scale * noise))
        assert {"haar/invariance", "haar/nullspace_dimension"} <= set(_failed(report))
        assert scale < report.residual("haar/invariance") < 100 * scale
        assert len(report.checks) == 67
        assert report.checks[-1].name == "dual_algebra/haar"


def test_gram_matrices_of_group_and_function_algebras():
    a = preset("kz2")
    gns = gns_construct(a, compute_haar(a))
    assert np.max(np.abs(gns.gram - np.eye(2))) < 1e-14

    b = preset("fz2")
    gns_b = gns_construct(b, compute_haar(b))
    assert np.max(np.abs(gns_b.gram - np.eye(2) / 2.0)) < 1e-14
    # orthonormalization rescales by sqrt(2)
    assert np.max(np.abs(gns_b.onb_change - np.sqrt(2.0) * np.eye(2))) < 1e-12

    t = preset("trivial")
    gns_t = gns_construct(t, compute_haar(t))
    assert np.allclose(gns_t.gram, [[1.0]])
    assert np.allclose(gns_t.left_regular[0], [[1.0]])


def test_onb_change_orthonormalizes_gram():
    for name in ("kz3", "fz4", "ks3", "fs3", "dual:fs3"):
        a = preset(name)
        gns = gns_construct(a, compute_haar(a))
        q = gns.onb_change
        assert np.max(np.abs(q.conj().T @ gns.gram @ q - np.eye(a.dim))) < 1e-12


def test_verify_gns_report_passes_on_presets():
    for name in ("trivial", "kz4", "fz6", "ks3", "fs3"):
        a = preset(name)
        h = compute_haar(a)
        gns = gns_construct(a, h)
        report = verify_gns(a, gns)
        assert report.overall_pass, [c.name for c in report.checks if not c.passed]


def _positive_on_squares_loop(a, h):
    """haar_positive_on_squares one seeded element at a time: the reference."""
    rng, worst = np.random.default_rng(7), 0.0
    for _ in range(16):
        v = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
        value = h(multiply(a, apply_star(a, v), v))
        worst = max(worst, -value.real, abs(value.imag))
    return worst


@pytest.mark.parametrize("name", [*preset_names(), *(f"dual:{p}" for p in preset_names())])
def test_positive_on_squares_equals_the_loop_over_its_draws(name, basis_changed):
    # the batched products are the loop's with a leading row index: equal
    # values, also for a functional that is far from positive
    for a in (preset(name), basis_changed(preset(name), seed=1)):
        gns = gns_construct(a, compute_haar(a))
        skewed = Functional([1, 1j] @ np.random.default_rng(2).standard_normal((2, a.dim)))
        for h in (gns.haar, skewed):
            report = verify_gns(a, dataclasses.replace(gns, haar=h))
            assert report.residual("haar_positive_on_squares") == _positive_on_squares_loop(a, h)


def test_trace_property():
    assert verify_trace(preset("fz2"), compute_haar(preset("fz2"))).max_residual() == 0.0
    a = preset("ks3")
    report = verify_trace(a, compute_haar(a))
    assert report.overall_pass
    assert report.max_residual() <= 1e-14


def test_not_positive_star_is_rejected():
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
    h = compute_haar(indefinite)
    with pytest.raises(VerificationError, match="smallest eigenvalue -1.000e") as raised:
        gns_construct(indefinite, h)
    assert raised.value.check == "gram_positive"


def test_left_regular_matches_per_element_products(basis_changed):
    # reference: e_i e_j one pair at a time, taken to orthonormal coordinates
    a = basis_changed(preset("ks3"), 5)
    gns = gns_construct(a, compute_haar(a))
    e = np.eye(a.dim)
    for i in range(a.dim):
        for j in range(a.dim):
            product = gns.to_onb @ multiply(a, e[i], e[j])
            assert np.max(np.abs(gns.left_regular[i] @ gns.to_onb[:, j] - product)) < 1e-11


def test_compute_haar_builds_no_square_factor_of_its_system(basis_changed):
    # the closed form reads the diagonals of the L_a only; a solve of the
    # (2 n^2, n) invariance system by full SVD would hold a (2 n^2)^2 unitary,
    # 21 MB at n = 24
    a = basis_changed(group_algebra(cyclic_group(24)), 1)
    tracemalloc.start()
    try:
        h = compute_haar(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert haar_invariance_residual(a, h) <= 1e-9 * a.structure_scale()
    assert peak < 4 * 2 ** 20
