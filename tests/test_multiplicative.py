"""Multiplicative unitary: unitarity, pentagon, slices, dual subspace."""

import numpy as np
import pytest

from fqg import (
    NotInDualSubspace,
    TensorOperator,
    build_dual_subspace,
    build_multiplicative_unitary,
    compute_haar,
    dual_coproduct,
    dual_coproduct_checked,
    gns_construct,
    inverse_via_antipode,
    pentagon_residual,
    preset,
    verify_antipode_relation,
    verify_coproduct_implemented,
    verify_dual_coproduct_identities,
    verify_inverse_via_antipode,
    verify_left_slices_span,
    verify_pentagon,
    verify_unitarity,
)
from fqg import multiplicative
from fqg.multiplicative import dual_subspace_commutativity_defect, slice_products_and_adjoints
from fqg.tensors import matrix_unit_functional, project_onto_span, slice_leg

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def unitary_of(name):
    a = preset(name)
    gns = gns_construct(a, compute_haar(a))
    return build_multiplicative_unitary(a, gns)


def test_w_of_group_algebra_z2_is_cnot():
    wop = unitary_of("kz2")
    assert np.max(np.abs(wop.w.entries - CNOT)) <= 1e-14


def test_w_of_function_algebra_z2_is_the_translation_permutation():
    # coproduct(d_a)(1 (x) d_b) = d_{a b^-1} (x) d_b; on Z2 that sends the
    # normalized basis pair (a, b) to (a+b, b).
    wop = unitary_of("fz2")
    expected = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            expected[((a + b) % 2) * 2 + b, a * 2 + b] = 1.0
    assert np.max(np.abs(wop.w.entries - expected)) < 1e-13


def test_w_trivial():
    assert np.allclose(unitary_of("trivial").w.entries, [[1.0]])


def test_w_matches_loop_built_oracle():
    # independent route: evaluate a (x) b -> coproduct(a)(1 (x) b) on every
    # basis pair with explicit loops, then change coordinates
    for name in ("fz3", "ks3"):
        wop = unitary_of(name)
        a, gns = wop.algebra, wop.gns
        n = a.dim
        w_alg = np.zeros((n * n, n * n), dtype=complex)
        for i in range(n):
            for j in range(n):
                column = np.zeros((n, n), dtype=complex)
                for p in range(n):
                    for q in range(n):
                        coeff = a.comult[i, p, q]
                        if coeff == 0:
                            continue
                        for k in range(n):
                            column[p, k] += coeff * a.mult[q, j, k]
                w_alg[:, i * n + j] = column.reshape(-1)
        expected = np.kron(gns.to_onb, gns.to_onb) @ w_alg @ np.kron(
            gns.onb_change, gns.onb_change
        )
        assert np.max(np.abs(wop.w.entries - expected)) <= 1e-13


def test_w_unitary_on_presets():
    for name in ("kz4", "fz5", "ks3", "fs3", "dual:fs3"):
        report = verify_unitarity(unitary_of(name))
        assert report.overall_pass
        assert report.max_residual() <= 1e-12


def test_inverse_via_antipode():
    wop = unitary_of("kz2")
    v = inverse_via_antipode(wop.algebra, wop.gns)
    assert np.max(np.abs(v.entries - wop.w.entries)) <= 1e-14  # self-inverse case

    wop3 = unitary_of("fz3")
    v3 = inverse_via_antipode(wop3.algebra, wop3.gns)
    assert np.linalg.norm(v3.entries @ wop3.w.entries - np.eye(9)) <= 1e-12

    assert verify_inverse_via_antipode(unitary_of("trivial")).max_residual() == 0.0
    for name in ("kz5", "ks3", "fs3"):
        assert verify_inverse_via_antipode(unitary_of(name)).overall_pass


def test_pentagon_on_presets():
    assert pentagon_residual(unitary_of("kz2").w) <= 1e-15
    report = verify_pentagon(unitary_of("ks3"))
    assert report.overall_pass
    assert report.max_residual() <= 1e-12


def test_pentagon_negative_control_swap():
    assert pentagon_residual(TensorOperator((2, 2), SWAP)) > 0.5


def test_left_slices_span_the_algebra():
    rep_trivial = verify_left_slices_span(unitary_of("trivial"))
    assert rep_trivial.overall_pass
    assert rep_trivial.residual("left_slice_span_dimension") == 0.0

    wop = unitary_of("kz2")
    rep = verify_left_slices_span(wop)
    assert rep.overall_pass

    rep_fs3 = verify_left_slices_span(unitary_of("fs3"))
    assert rep_fs3.overall_pass  # rank of the 36x36 slice matrix is 6


def test_coproduct_implemented_by_conjugation():
    wop = unitary_of("kz2")
    report = verify_coproduct_implemented(wop)
    assert report.overall_pass

    # conjugating L_g (x) 1 by the controlled-not gives L_g (x) L_g
    flip_mat = wop.gns.left_regular[1]
    lhs = wop.w.entries @ np.kron(flip_mat, np.eye(2)) @ wop.w.entries.conj().T
    assert np.max(np.abs(lhs - np.kron(flip_mat, flip_mat))) <= 1e-13

    rep = verify_coproduct_implemented(unitary_of("ks3"))
    assert rep.overall_pass
    assert rep.max_residual() <= 1e-12


def test_antipode_relation():
    rep2 = verify_antipode_relation(unitary_of("kz2"))
    assert rep2.max_residual() <= 1e-14  # self-adjoint permutation, identity antipode
    assert verify_antipode_relation(unitary_of("kz3")).max_residual() <= 1e-13
    rep = verify_antipode_relation(unitary_of("fs3"))
    assert rep.overall_pass
    assert rep.max_residual() <= 1e-12


def test_dual_subspace_of_group_algebra_z2_is_diagonal_projections():
    wop = unitary_of("kz2")
    dual = build_dual_subspace(wop)
    assert dual.basis.shape == (2, 2, 2)
    assert np.max(np.abs(dual.basis[0] - np.diag([1.0, 0.0]))) < 1e-13
    assert np.max(np.abs(dual.basis[1] - np.diag([0.0, 1.0]))) < 1e-13
    assert dual.closure_residual <= 1e-12
    assert dual_subspace_commutativity_defect(wop) <= 1e-13


def test_dual_subspace_dimensions_and_commutativity_classification():
    for name, n in (("trivial", 1), ("kz3", 3), ("fz3", 3), ("ks3", 6), ("fs3", 6)):
        wop = unitary_of(name)
        dual = build_dual_subspace(wop)
        assert dual.basis.shape[0] == n
    # dual of a cocommutative algebra is commutative, and conversely
    assert dual_subspace_commutativity_defect(unitary_of("ks3")) <= 1e-12
    assert dual_subspace_commutativity_defect(unitary_of("fz3")) <= 1e-12
    assert dual_subspace_commutativity_defect(unitary_of("fs3")) > 0.1


def test_dual_coproduct_on_projections():
    wop = unitary_of("kz2")
    p_g = np.diag([0.0, 1.0])
    image, report = dual_coproduct_checked(wop, p_g)
    assert report.overall_pass
    p_e = np.diag([1.0, 0.0])
    expected = np.kron(p_e, p_g) + np.kron(p_g, p_e)
    assert np.max(np.abs(image.entries - expected)) <= 1e-13
    # unit goes to unit (x) unit
    assert np.allclose(dual_coproduct(wop, np.eye(2)), np.eye(4))


def test_dual_coproduct_membership_error():
    wop = unitary_of("kz2")
    off_diagonal = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotInDualSubspace):
        dual_coproduct_checked(wop, off_diagonal)


def test_dual_coproduct_global_identities():
    for name in ("kz2", "fz3", "ks3", "fs3"):
        report = verify_dual_coproduct_identities(unitary_of(name))
        assert report.overall_pass, [c.name for c in report.checks if not c.passed]
        assert report.max_residual() <= 1e-11


def _lstsq_residual(basis_mats, target):
    """Distance of ``target`` from the span of ``basis_mats`` by explicit least squares."""
    a = np.stack([np.asarray(b).reshape(-1) for b in basis_mats], axis=1)
    rhs = np.asarray(target).reshape(-1)
    coeffs, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return float(np.linalg.norm(a @ coeffs - rhs))


@pytest.mark.parametrize("name", ["ks3", "fs3"])
def test_shared_projector_matches_pair_basis_lstsq_oracle(name, basis_changed, monkeypatch):
    a = basis_changed(preset(name), seed=11)
    wop = build_multiplicative_unitary(a, gns_construct(a, compute_haar(a)))
    n = a.dim
    basis = list(wop.slice_basis)
    rng = np.random.default_rng(3)

    # membership: entrywise right slices (in the span) and random matrices (not)
    slices = [slice_leg(wop.w, "right", matrix_unit_functional(n, r, s))
              for r in range(n) for s in range(n)]
    targets = slices + list(rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n)))
    _, residuals = project_onto_span(wop.dual_span.q, targets)
    oracle = [_lstsq_residual(basis, t) for t in targets]
    assert np.max(np.abs(residuals - oracle)) <= 1e-13
    assert min(oracle[-4:]) > 0.1

    # closure: products and adjoints, with coordinates that reproduce them
    product_coords, star_coords, closure = slice_products_and_adjoints(wop)
    products = [x @ y for x in basis for y in basis]
    adjoints = [x.conj().T for x in basis]
    assert abs(closure - max(_lstsq_residual(basis, t) for t in products + adjoints)) <= 1e-13
    rebuilt = np.einsum("ijk,kpq->ijpq", product_coords, wop.slice_basis).reshape(n * n, n, n)
    assert np.max(np.abs(rebuilt - products)) <= 1e-12
    assert np.max(np.abs(np.einsum("ik,kpq->ipq", star_coords, wop.slice_basis) - adjoints)) <= 1e-12

    # doubled span: true dual coproducts (residual ~0) and random images (residual O(1))
    pair_basis = [np.kron(x, y) for x in basis for y in basis]
    for x in basis[:2]:
        _, report = dual_coproduct_checked(wop, x)
        oracle = _lstsq_residual(pair_basis, dual_coproduct(wop, x))
        assert abs(report.residual("dual_coproduct_in_doubled_span") - oracle) <= 1e-13
    noise = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    monkeypatch.setattr(multiplicative, "dual_coproduct", lambda wop, x: noise)
    _, report = dual_coproduct_checked(wop, basis[0])
    oracle = _lstsq_residual(pair_basis, noise)
    assert oracle > 1.0
    assert abs(report.residual("dual_coproduct_in_doubled_span") - oracle) <= 1e-13
