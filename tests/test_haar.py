"""Haar state solve, GNS data, trace property."""

import tracemalloc

import numpy as np
import pytest

from fqg import (
    FiniteHopfStarAlgebra,
    Functional,
    VerificationError,
    compute_haar,
    cyclic_group,
    gns_construct,
    group_algebra,
    haar_invariance_residual,
    preset,
    verify_gns,
    verify_trace,
)
from fqg.haar import haar_nullspace_dimension


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


def test_no_invariant_functional_when_coproduct_vanishes():
    a = preset("kz2")
    broken = FiniteHopfStarAlgebra(
        dim=2,
        basis_labels=a.basis_labels,
        mult=a.mult,
        comult=np.zeros((2, 2, 2)),
        unit=a.unit,
        counit=a.counit,
        antipode=a.antipode,
        star=a.star,
    )
    with pytest.raises(VerificationError, match="only the zero solution") as raised:
        compute_haar(broken)
    assert raised.value.check == "haar_exists"


def test_non_unique_haar_detected():
    a = preset("kz2")
    degenerate = FiniteHopfStarAlgebra(
        dim=2,
        basis_labels=a.basis_labels,
        mult=a.mult,
        comult=np.zeros((2, 2, 2)),
        unit=np.zeros(2),
        counit=a.counit,
        antipode=a.antipode,
        star=a.star,
    )
    with pytest.raises(VerificationError, match="2-dimensional solution space") as raised:
        compute_haar(degenerate)
    assert raised.value.check == "haar_unique"


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
            product = gns.to_onb @ a.multiply(e[i], e[j])
            assert np.max(np.abs(gns.left_regular[i] @ gns.to_onb[:, j] - product)) < 1e-11


def test_compute_haar_builds_no_square_factor_of_its_system(basis_changed):
    # the invariance system is (2 n^2, n); its full SVD would hold a (2 n^2)^2
    # unitary, 21 MB at n = 24, of which the solve reads nothing
    a = basis_changed(group_algebra(cyclic_group(24)), 1)
    tracemalloc.start()
    try:
        h = compute_haar(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert haar_invariance_residual(a, h) <= 1e-9 * a.structure_scale()
    assert peak < 4 * 2 ** 20
