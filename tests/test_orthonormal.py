"""The algebra rewritten once in its GNS-orthonormal basis, and verdicts that
hold for bases of condition number up to 100."""

import numpy as np
import pytest

import fqg
from fqg import (
    action_suite,
    build_dual,
    build_multiplicative_unitary,
    compute_haar,
    cyclic_group,
    full_suite,
    gns_construct,
    group_algebra,
    group_preset,
    orthonormal_algebra,
    preset,
    preset_names,
    resolve_algebra,
    resolve_automorphisms,
)

from conftest import basis_change_matrix, change_basis, kappa_basis_change

ALL_PRESETS = [p for name in preset_names() for p in (name, f"dual:{name}")]


def reference_unitary(a):
    """W, its slice basis and the L_j by the construction the rewrite replaced: the
    two-leg tensor of ``a`` and x_j = R comult[:, :, j]^T R^-1 in the input basis,
    conjugated into orthonormal coordinates by R = ``to_onb`` and Q = ``onb_change``."""
    n, gns = a.dim, gns_construct(a, compute_haar(a))
    r, q = gns.to_onb, gns.onb_change
    t = np.einsum("ipq,qjk->pkij", a.comult, a.mult).reshape(n * n, n * n)
    w = np.kron(r, r) @ t @ np.kron(q, q)
    return w, r @ a.comult.transpose(2, 1, 0) @ q, gns.left_regular, gns


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_w_of_the_orthonormal_algebra_matches_the_reference_construction(name):
    # the x_j and L_j of the rewritten algebra are indexed by its basis f_b = sum_i
    # P[i, b] e_i, P = onb_change: moved to the input basis they are P x and P^-T L
    for a in (resolve_algebra(name), *(change_basis(resolve_algebra(name), seed) for seed in (1, 2, 3))):
        w, xs, lr, gns = reference_unitary(a)
        wop = build_multiplicative_unitary(orthonormal_algebra(a, gns))
        p = gns.onb_change
        assert np.abs(wop.w - w).max() <= 1e-14
        assert np.abs(np.tensordot(p, wop.slice_basis, (1, 0)) - xs).max() <= 1e-14
        assert np.abs(np.tensordot(gns.to_onb.T, wop.left_regular, (1, 0)) - lr).max() <= 1e-14


@pytest.mark.parametrize("name", ["ks3", "fs3", "dual:ks3"])
def test_orthonormal_algebra_is_the_similarity_by_onb_change(name, basis_changed):
    # the rewrite equals the einsum similarity of change_basis with P = onb_change,
    # and the Haar state of the rewritten algebra has the identity as its Gram matrix
    a = basis_changed(preset(name), 4)
    gns = gns_construct(a, compute_haar(a))
    b = orthonormal_algebra(a, gns)
    expected = change_basis(a, None, gns.onb_change)
    for field in ("mult", "comult", "unit", "counit", "antipode", "star"):
        assert np.abs(getattr(b, field) - getattr(expected, field)).max() <= 1e-13, field
    assert np.abs(gns_construct(b, compute_haar(b)).gram - np.eye(b.dim)).max() <= 1e-13


def kappa_algebras():
    algebras = [*(preset(name) for name in ("ks3", "fs3", "kz6", "fz6")), group_algebra(cyclic_group(8))]
    return [x for a in algebras for x in (a, build_dual(a))]


@pytest.mark.parametrize("a", kappa_algebras(), ids=lambda a: a.name)
def test_full_suite_passes_at_condition_number_100(a):
    for seed in range(1, 11):
        report = full_suite(change_basis(a, None, kappa_basis_change(a.dim, 100.0, seed)))
        assert report.overall_pass, (seed, [c.name for c in report.checks if not c.passed])


@pytest.mark.parametrize("mode", ["full", "sliced"])
@pytest.mark.parametrize("names", [("ks3", "s3", "conjugation"), ("kz6", "z2", "inversion")])
def test_action_suite_passes_at_condition_number_100(names, mode):
    a, k = preset(names[0]), group_preset(names[1])
    theta = resolve_automorphisms(a, k, names[2])
    for seed in (1, 2, 3):
        p = kappa_basis_change(a.dim, 100.0, seed)
        q = np.linalg.inv(p)
        report = action_suite(change_basis(a, None, p), k, q @ theta @ p, mode=mode)
        assert report.overall_pass, (seed, [c.name for c in report.checks if not c.passed])
        sliced = report.residual("intertwiner/intertwiner_sliced_family")
        assert sliced == report.residual("invariance/strong_right_invariance"), seed


def test_kappa_basis_change_has_the_requested_condition_number():
    for n in (2, 6):
        assert np.linalg.cond(kappa_basis_change(n, 100.0, 1)) == pytest.approx(100.0, rel=1e-10)
    assert np.array_equal(kappa_basis_change(4, 100.0, 3), kappa_basis_change(4, 100.0, 3))


def test_each_suite_rewrites_the_algebra_once(monkeypatch):
    calls = []
    original = fqg.haar.orthonormal_algebra
    monkeypatch.setattr(fqg.haar, "orthonormal_algebra", lambda *args: calls.append(1) or original(*args))
    a, k = preset("ks3"), group_preset("s3")
    p = basis_change_matrix(a.dim, 2)
    b, theta = change_basis(a, None, p), np.linalg.inv(p) @ resolve_automorphisms(a, k, "conjugation") @ p
    assert full_suite(b).overall_pass and len(calls) == 1
    assert action_suite(b, k, theta, mode="full").overall_pass and len(calls) == 2
    # a run that selects no stage after gns/ rewrites nothing
    assert full_suite(b, only=["axioms/*"]).overall_pass and len(calls) == 2
