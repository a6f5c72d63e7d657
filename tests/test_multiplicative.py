"""Multiplicative unitary: unitarity, pentagon, slices, dual subspace."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from fqg import (
    DEFAULT_TOL,
    StructuralError,
    VerificationError,
    action_suite,
    build_dual_subspace,
    build_multiplicative_unitary,
    compute_haar,
    dual_coproduct,
    full_suite,
    gns_construct,
    group_preset,
    pentagon_residual,
    preset,
    preset_names,
    resolve_automorphisms,
    save_algebra,
    verify_antipode_relation,
    verify_coproduct_implemented,
    verify_dual_coproduct_identities,
    verify_left_slices_span,
    verify_pentagon,
    verify_unitarity,
)
from fqg import multiplicative
from fqg.builders import algebra_from_json_dict, read_json
from fqg.cli import main
from fqg.duality import fourier_matrix, verify_G_isomorphism, verify_fourier_slice_identity
from fqg.tensors import (
    SpanBasis, frob, leg_distance, numerical_rank, project_onto_span, span_basis,
)

from conftest import (
    apply_star,
    deficient_dual_span,
    dual_subspace_commutativity_defect,
    expand_in_leg,
    multiply,
    orthonormal_unitary,
    preset_or_twist,
)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def unitary_of(name):
    return orthonormal_unitary(preset(name))


def test_w_of_group_algebra_z2_is_cnot():
    wop = unitary_of("kz2")
    assert np.max(np.abs(wop.w - CNOT)) <= 1e-14


def test_w_of_function_algebra_z2_is_the_translation_permutation():
    # coproduct(d_a)(1 (x) d_b) = d_{a b^-1} (x) d_b; on Z2 that sends the
    # normalized basis pair (a, b) to (a+b, b).
    wop = unitary_of("fz2")
    expected = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            expected[((a + b) % 2) * 2 + b, a * 2 + b] = 1.0
    assert np.max(np.abs(wop.w - expected)) < 1e-13


def test_w_trivial():
    assert np.allclose(unitary_of("trivial").w, [[1.0]])


def test_w_matches_loop_built_oracle():
    # independent route: evaluate a (x) b -> coproduct(a)(1 (x) b) on every
    # basis pair of the input with explicit loops, then change coordinates
    for name in ("fz3", "ks3"):
        a = preset(name)
        gns = gns_construct(a, compute_haar(a))
        wop = orthonormal_unitary(a)
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
        assert np.max(np.abs(wop.w - expected)) <= 1e-13


def test_w_unitary_on_presets():
    for name in ("kz4", "fz5", "ks3", "fs3", "dual:fs3"):
        report = verify_unitarity(unitary_of(name))
        assert report.overall_pass
        assert report.max_residual() <= 1e-12


def test_inverse_via_antipode(basis_changed):
    # V = (id (x) S) W against the dense oracle sum_j x_j (x) L(S e_j), kron by kron
    for name, seed in (("kz2", None), ("fz3", None), ("fs3", 2)):
        wop = unitary_of(name) if seed is None else orthonormal_unitary(basis_changed(preset(name), seed))
        a, w = wop.algebra, wop.w
        l_s = np.einsum("jk,kab->jab", a.antipode, wop.left_regular)
        v = sum(np.kron(x, ls) for x, ls in zip(wop.slice_basis, l_s))
        composes, adjoint = wop.inverse_defects
        assert abs(composes - np.linalg.norm(v @ w - np.eye(len(w)))) <= 1e-14
        assert abs(adjoint - np.linalg.norm(v - w.conj().T)) <= 1e-14
    assert np.max(np.abs(v - w.conj().T)) <= 1e-14
    assert unitary_of("kz2").inverse_defects[1] <= 1e-15  # W is self-inverse
    assert verify_unitarity(unitary_of("trivial")).max_residual() == 0.0
    for name in ("kz5", "ks3", "fs3"):
        report = verify_unitarity(unitary_of(name))
        assert report.overall_pass
        assert [c.name for c in report.checks] == [
            "w_unitary_wstar_w", "w_unitary_w_wstar", "w_inverse_composes", "w_inverse_is_adjoint"]


def test_pentagon_on_presets():
    assert pentagon_residual(unitary_of("kz2").w) <= 1e-15
    report = verify_pentagon(unitary_of("ks3"))
    assert report.overall_pass
    assert report.max_residual() <= 1e-12


def test_pentagon_negative_control_swap():
    assert pentagon_residual(SWAP) > 0.5


def test_pentagon_rejects_legs_of_unequal_size():
    # a 6x6 W cannot sit on two legs of one size
    with pytest.raises(StructuralError, match="equal leg dimensions"):
        pentagon_residual(np.eye(6))


def test_pentagon_rejects_a_matrix_that_is_not_square():
    with pytest.raises(StructuralError):
        pentagon_residual(np.ones((4, 6)))


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
    flip_mat = wop.left_regular[1]
    lhs = wop.w @ np.kron(flip_mat, np.eye(2)) @ wop.w.conj().T
    assert np.max(np.abs(lhs - np.kron(flip_mat, flip_mat))) <= 1e-13

    rep = verify_coproduct_implemented(unitary_of("ks3"))
    assert rep.overall_pass
    assert rep.max_residual() <= 1e-12


def test_conjugation_over_basis_matches_kron_oracle():
    # a perturbed W makes the residual O(1e-3), so agreement is not rounding
    wop = unitary_of("ks3")
    rng = np.random.default_rng(2)
    d = wop.w.shape[0]
    w = wop.w + 1e-3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    bad = dataclasses.replace(wop, w=w)
    deltas = multiplicative.coproduct_operators(bad)
    oracle = max(
        np.linalg.norm(w @ np.kron(lr, np.eye(wop.dim)) @ w.conj().T - delta)
        for lr, delta in zip(wop.left_regular, deltas)
    )
    residual = verify_coproduct_implemented(bad).residual("conjugation_over_basis")
    assert oracle > 1e-4
    assert abs(residual - oracle) <= 1e-13


def test_antipode_relation():
    rep2 = verify_antipode_relation(unitary_of("kz2"))
    assert rep2.max_residual() <= 1e-14  # self-adjoint permutation, identity antipode
    assert verify_antipode_relation(unitary_of("kz3")).max_residual() <= 1e-13
    rep = verify_antipode_relation(unitary_of("fs3"))
    assert rep.overall_pass
    assert rep.max_residual() <= 1e-12


_exact = np.vectorize(Fraction, otypes=[object])  # each float as the dyadic rational it is


def _exact_parts(z):
    z = np.asarray(z)
    return _exact(z.real), _exact(z.imag)


def _exact_adjoint_defect_square(wop):
    """||sum_j x_j (x) L(S e_j) - W*||_F^2 of the float operands x_j, S, L_k and W,
    in exact arithmetic: V = sum_k C_k (x) L_k, C_k = sum_j S_jk x_j, over real and
    imaginary parts."""
    (sr, si), (xr, xi) = _exact_parts(wop.algebra.antipode), _exact_parts(wop.slice_basis)
    (lr, li), (wr, wi) = _exact_parts(wop.left_regular), _exact_parts(wop.w.conj().T)
    cr = np.tensordot(sr, xr, (0, 0)) - np.tensordot(si, xi, (0, 0))
    ci = np.tensordot(sr, xi, (0, 0)) + np.tensordot(si, xr, (0, 0))
    vr = sum(np.kron(a, c) - np.kron(b, d) for a, b, c, d in zip(cr, ci, lr, li))
    vi = sum(np.kron(a, d) + np.kron(b, c) for a, b, c, d in zip(cr, ci, lr, li))
    return np.sum((vr - wr) ** 2 + (vi - wi) ** 2)


@pytest.mark.parametrize("name", ["dual:ks3", "dual:kz6", "fs3", "fz6"])
def test_antipode_relation_verdict_at_1e15_is_the_exact_one(name):
    # the float residual reads 6.66e-16 here, and a float sum in another order
    # 1.33e-15, which fails: the exact defect, 6.68e-16, decides for the pass
    a = preset(name)
    square = _exact_adjoint_defect_square(orthonormal_unitary(a))  # the W full_suite builds
    assert square < Fraction(1, 10**30)
    report = full_suite(a, tol=1e-15)
    check = report.check("antipode_relation/antipode_on_second_leg_of_w")
    assert check.passed and check.residual == report.residual("unitary/w_inverse_is_adjoint")
    assert check.residual == pytest.approx(float(square) ** 0.5, rel=0.01)


def test_both_unitarity_defects_are_equal_in_exact_arithmetic():
    # ||W*W - I||^2 = tr((W*W)^2) - 2 tr(W*W) + n = ||WW* - I||^2 by cyclicity of
    # the trace, for any square W; here a complex dyadic W as the real [[A, -B], [B, A]]
    rng = np.random.default_rng(7)
    re, im = (_exact(rng.integers(-64, 64, (4, 4)) / 32.0) for _ in range(2))
    w = np.block([[re, -im], [im, re]])
    eye = _exact(np.eye(8))
    assert np.sum((w.T @ w - eye) ** 2) == np.sum((w @ w.T - eye) ** 2) != 0


def test_dual_subspace_of_group_algebra_z2_is_diagonal_projections():
    wop = unitary_of("kz2")
    assert build_dual_subspace(wop).overall_pass  # raises unless the slice basis spans
    assert wop.slice_basis.shape == (2, 2, 2)
    assert np.max(np.abs(wop.slice_basis[0] - np.diag([1.0, 0.0]))) < 1e-13
    assert np.max(np.abs(wop.slice_basis[1] - np.diag([0.0, 1.0]))) < 1e-13
    assert wop.slice_closure[2] <= 1e-12
    assert dual_subspace_commutativity_defect(wop) <= 1e-13


def test_dual_subspace_guards_raise_with_their_check():
    wop = unitary_of("ks3")
    with pytest.raises(VerificationError, match="dimension 5, expected 6") as raised:
        build_dual_subspace(deficient_dual_span(wop))
    assert raised.value.check == "dual_subspace_dimension"
    # six random matrices span six dimensions, but not the right slices of W
    rng = np.random.default_rng(2)
    elsewhere = span_basis(rng.standard_normal((6, 6, 6)) + 1j * rng.standard_normal((6, 6, 6)))
    with pytest.raises(VerificationError) as raised:
        build_dual_subspace(dataclasses.replace(wop, dual_span=elsewhere))
    assert raised.value.check == "dual_subspace_membership"
    assert float(str(raised.value).split()[-1].rstrip(")")) > 0.1  # "... (residual 1.2e+00)"
    # W = x_0 (x) I: every right slice is a multiple of x_0, inside the span but of rank 1
    wop = unitary_of("kz3")
    with pytest.raises(VerificationError, match="right slices of W do not span") as raised:
        build_dual_subspace(dataclasses.replace(wop, w=np.kron(wop.slice_basis[0], np.eye(3))))
    assert raised.value.check == "dual_subspace_dimension"


def test_dual_subspace_dimensions_and_commutativity_classification():
    for name, n in (("trivial", 1), ("kz3", 3), ("fz3", 3), ("ks3", 6), ("fs3", 6)):
        wop = unitary_of(name)
        build_dual_subspace(wop)
        assert wop.slice_basis.shape[0] == n
    # dual of a cocommutative algebra is commutative, and conversely
    assert dual_subspace_commutativity_defect(unitary_of("ks3")) <= 1e-12
    assert dual_subspace_commutativity_defect(unitary_of("fz3")) <= 1e-12
    assert dual_subspace_commutativity_defect(unitary_of("fs3")) > 0.1
    for name in ("fs3", "dual:ks3"):  # against the pairwise loop it batches
        basis = unitary_of(name).slice_basis
        loop = max(np.linalg.norm(x @ y - y @ x) for x in basis for y in basis)
        assert abs(dual_subspace_commutativity_defect(unitary_of(name)) - loop) <= 1e-13 * loop


def test_dual_coproduct_on_projections():
    wop = unitary_of("kz2")
    p_e, p_g = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    image = dual_coproduct(wop, p_g)
    expected = np.kron(p_e, p_g) + np.kron(p_g, p_e)
    assert np.max(np.abs(image - expected)) <= 1e-13
    assert multiplicative._doubled_span_coords(wop, image[None])[1][0] <= 1e-13
    # unit goes to unit (x) unit
    assert np.allclose(dual_coproduct(wop, np.eye(2)), np.eye(4))


def test_dual_coproduct_membership_error():
    # a span of n matrices that holds one projection and an off-diagonal
    # matrix misses the other projection, a right slice of W
    wop = unitary_of("kz2")
    off_diagonal = np.array([[0.0, 1.0], [0.0, 0.0]])
    misses = span_basis(np.stack([np.diag([1.0, 0.0]), off_diagonal]))
    with pytest.raises(VerificationError, match="escapes the dual subspace") as raised:
        build_dual_subspace(dataclasses.replace(wop, dual_span=misses))
    assert raised.value.check == "dual_subspace_membership"


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
def test_shared_projector_matches_pair_basis_lstsq_oracle(name, basis_changed):
    a = basis_changed(preset(name), seed=11)
    wop = orthonormal_unitary(a)
    n = a.dim
    basis = list(wop.slice_basis)
    rng = np.random.default_rng(3)

    # membership: entrywise right slices (in the span) and random matrices (not)
    slices = list(wop.w.reshape((n,) * 4).transpose(1, 3, 0, 2).reshape(n * n, n, n))
    targets = slices + list(rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n)))
    _, residuals = project_onto_span(wop.dual_span.q, targets)
    oracle = [_lstsq_residual(basis, t) for t in targets]
    assert np.max(np.abs(residuals - oracle)) <= 1e-13
    assert min(oracle[-4:]) > 0.1

    # closure: products and adjoints, with coordinates that reproduce them
    product_coords, star_coords, closure = wop.slice_closure
    products = [x @ y for x in basis for y in basis]
    adjoints = [x.conj().T for x in basis]
    assert abs(closure - max(_lstsq_residual(basis, t) for t in products + adjoints)) <= 1e-13
    rebuilt = np.einsum("ijk,kpq->ijpq", product_coords, wop.slice_basis).reshape(n * n, n, n)
    assert np.max(np.abs(rebuilt - products)) <= 1e-12
    assert np.max(np.abs(np.einsum("ik,kpq->ipq", star_coords, wop.slice_basis) - adjoints)) <= 1e-12

    # doubled span: true dual coproducts (residual ~0) and random images (residual O(1))
    pair_basis = [np.kron(x, y) for x in basis for y in basis]
    noise = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    for image in [dual_coproduct(wop, x) for x in basis[:2]] + [noise]:
        oracle = _lstsq_residual(pair_basis, image)
        residual = multiplicative._doubled_span_coords(wop, image[None])[1][0]
        assert abs(residual - oracle) <= 1e-13
    assert oracle > 1.0  # that of the noise


# -- certified bounds for coassociativity and multiplicativity of the dual coproduct

BOUNDED = ("dual_coproduct_coassociative", "dual_coproduct_multiplicative")


def _coassociativity_defects(wop):
    """The per-element leg contractions that the coassociativity bound replaces."""
    n = wop.dim
    w_mat = wop.w
    w_adj = w_mat.conj().T
    defects = []
    for dx in wop.dual_coproducts:
        first = [(w_adj, [1, 2]), (dx, [2, 3]), (w_mat, [1, 2])]
        second = [(w_adj, [2, 3]), (dx, [1, 3]), (w_mat, [2, 3])]
        defects.append(leg_distance(first, second, (n, n, n)))
    return defects


def _multiplicativity_defects(wop):
    """The pairwise loop that the multiplicativity bound replaces."""
    defects = []
    for x, dx in zip(wop.slice_basis, wop.dual_coproducts):
        for y, dy in zip(wop.slice_basis, wop.dual_coproducts):
            defects.append(np.linalg.norm(dual_coproduct(wop, x @ y) - dx @ dy))
    return defects


def _oracles(wop):
    return [max(_coassociativity_defects(wop)), max(_multiplicativity_defects(wop))]


def _first_above(wop, tol):
    """The defect of the first element (or pair) above ``tol`` of each walk, in
    the suite's order, or None where no defect exceeds ``tol``."""
    walks = (_coassociativity_defects(wop), _multiplicativity_defects(wop))
    return [next((d for d in defects if d > tol), None) for defects in walks]


def _bounds(wop):
    """Both certified bounds, read from a report whose tolerance admits them."""
    report = verify_dual_coproduct_identities(wop, tol=np.finfo(float).max)
    assert all(report.check(name).detail == "certified upper bound on the residual" for name in BOUNDED)
    return [report.residual(name) for name in BOUNDED]


def _unitary(a):
    return orthonormal_unitary(a)


def _with_w(wop, w):
    """``wop`` with W replaced by ``w``; the slice basis stays that of ``wop``."""
    return dataclasses.replace(wop, w=w)


def _defects(wop, seed):
    """A random unitary in place of W, then W plus complex noise at four scales."""
    rng = np.random.default_rng(seed)
    d = wop.w.shape[0]

    def noise():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    yield np.linalg.qr(noise())[0]
    for scale in (1e-8, 1e-6, 1e-4, 1e-3):
        yield wop.w + scale * noise()


@pytest.mark.parametrize("name", [*preset_names(), *(f"dual:{p}" for p in preset_names())])
def test_dual_coproduct_bounds_dominate_exact_contraction(name, basis_changed):
    for a in (preset(name), basis_changed(preset(name), seed=5)):
        wop = _unitary(a)
        bounds = _bounds(wop)
        for bound, exact in zip(bounds, _oracles(wop)):
            assert exact <= bound <= 1e-11
        report = verify_dual_coproduct_identities(wop)
        assert [report.residual(check) for check in BOUNDED] == bounds


@pytest.mark.parametrize("name", ["kz3", "kz5", "ks3"])
def test_dual_coproduct_bounds_on_injected_defects_are_tight(name, basis_changed):
    wop = _unitary(basis_changed(preset(name), seed=7))
    for w in _defects(wop, seed=13):
        bad = _with_w(wop, w)
        for bound, exact in zip(_bounds(bad), _oracles(bad)):
            assert exact <= bound <= 50 * exact


def test_coassociativity_bound_is_exact_for_a_quasigroup_unitary():
    # |g, h> -> |g, -g-h> on Z3 is a permutation like W, so its dual coproduct
    # keeps diagonal matrices in the doubled span; the law is not associative,
    # so the whole defect sits in the coefficient tensors
    n = 3
    w = np.zeros((n * n, n * n))
    for g in range(n):
        for h in range(n):
            w[g * n + (-g - h) % n, g * n + h] = 1.0
    bad = _with_w(unitary_of("kz3"), w)
    (coassoc, mult), (exact_coassoc, exact_mult) = _bounds(bad), _oracles(bad)
    assert exact_coassoc > 1.0
    assert exact_coassoc <= coassoc <= exact_coassoc * (1 + 1e-12)
    assert exact_mult <= mult <= 1e-13


def test_coassociativity_gram_bound_above_tol_gives_way_to_the_doubled_span_coefficients(monkeypatch):
    # a doubled coproduct moves the P_l and with them the Gram bound past tol,
    # while its dual coproducts keep to the doubled span: the coefficient bound
    # certifies the law, and the exact walk is not taken
    a = preset("kz3")
    wop = _unitary(dataclasses.replace(a, comult=2 * a.comult))
    walks = _counting(monkeypatch, multiplicative, "_exact_coassociativity")
    check = verify_dual_coproduct_identities(wop).check("dual_coproduct_coassociative")
    assert check.detail == "certified upper bound on the residual" and check.passed
    assert walks == []
    assert max(_coassociativity_defects(wop)) <= check.residual <= 1e-11


def test_dual_coproduct_bound_above_tol_reports_exact_contraction(basis_changed):
    # the exact walk stops at the first element above tol, whose defect proves
    # the failure and lies between tol and the exact maximum
    wop = _unitary(basis_changed(preset("kz3"), seed=7))
    bad = _with_w(wop, list(_defects(wop, seed=13))[-1])
    report = verify_dual_coproduct_identities(bad)
    for name, first, exact in zip(BOUNDED, _first_above(bad, 1e-9), _oracles(bad)):
        check = report.check(name)
        assert check.detail.startswith("exact contraction stopped above tol; certified bound")
        assert not check.passed
        assert check.residual == pytest.approx(first, rel=1e-13, abs=0)
        assert 1e-9 < check.residual <= exact


def test_cli_reports_exact_contraction_below_the_rounding_allowance(tmp_path, basis_changed, capsys):
    # at tol 1e-15 the dual subspace is still accepted, but both bounds, which
    # include a rounding allowance of order n^2 eps, exceed the tolerance; an
    # exact walk reports the first defect above it, or its maximum if none is
    path = tmp_path / "kz3b.json"
    save_algebra(basis_changed(preset("kz3"), seed=2), str(path))
    code = main(["verify", str(path), "--tol", "1e-15", "--format", "json"])
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    wop = _unitary(algebra_from_json_dict(read_json(path)))
    assert code == 1
    for name, first, exact in zip(BOUNDED, _first_above(wop, 1e-15), _oracles(wop)):
        check = checks["dual_coproduct/" + name]
        stopped = "exact contraction stopped above tol; " if first else "exact contraction; "
        assert check["detail"].startswith(stopped + "certified bound")
        assert check["residual"] == pytest.approx(first or exact, rel=1e-13, abs=0)
        assert check["passed"] == (first is None)
        assert 0.0 < check["residual"] <= exact
    # at kz3 seed 2 coassociativity stops above tol, multiplicativity passes
    assert [first is None for first in _first_above(wop, 1e-15)] == [False, True]


# -- certified bounds for the pentagon and (dual-coproduct (x) id) W = W13 W23

CERTIFIED = "certified upper bound on the residual"
ALL_PRESETS = [*preset_names(), *(f"dual:{p}" for p in preset_names())]
QUANTUM = ["twist", "dual:twist"]  # neither commutative nor cocommutative, n = 12


def _oracle_first_leg(wop):
    """The three-leg contraction that the first-leg bound replaces."""
    n, w_mat = wop.dim, wop.w
    lhs = [(wop.dual_coproducts, [1, 2]), (wop.left_regular, [3])]
    return leg_distance(lhs, [(w_mat, [1, 3]), (w_mat, [2, 3])], (n, n, n))


def _leg_oracles(wop):
    return [pentagon_residual(wop.w), _oracle_first_leg(wop)]


def _leg_checks(wop, tol=np.finfo(float).max):
    """The pentagon check and the first-leg check, in the order of ``full_suite``."""
    pentagon = verify_pentagon(wop, tol)
    first_leg = verify_dual_coproduct_identities(wop, tol)
    return [pentagon.check("pentagon"), first_leg.check("dual_coproduct_on_first_leg_of_w")]


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_leg_bounds_dominate_exact_contraction(name, basis_changed):
    for a in (preset(name), basis_changed(preset(name), seed=5)):
        wop = _unitary(a)
        checks = _leg_checks(wop)
        for check, exact in zip(checks, _leg_oracles(wop)):
            assert check.detail == CERTIFIED
            assert exact <= check.residual <= 1e-12
        # on fresh contexts, each stage on its own computes the certificates it reads
        standalone = [
            verify_pentagon(_unitary(a)).residual("pentagon"),
            verify_dual_coproduct_identities(_unitary(a)).residual("dual_coproduct_on_first_leg_of_w"),
        ]
        assert standalone == [c.residual for c in checks]


@pytest.mark.parametrize("name", ["kz3", "kz5", "ks3"])
def test_leg_bounds_on_injected_defects_are_tight(name, basis_changed):
    # the context is rebuilt around each defective W, so the expansion
    # W = sum_j x_j (x) L_j + E the bounds rest on holds with the true E
    wop = _unitary(basis_changed(preset(name), seed=7))
    for w in _defects(wop, seed=13):
        bad = _context(wop, w)
        for check, exact in zip(_leg_checks(bad), _leg_oracles(bad)):
            assert check.detail == CERTIFIED
            assert exact <= check.residual <= 10 * exact


def test_pentagon_bound_covers_a_defect_only_in_the_conjugation_stack():
    # W = sum_g |g><g| (x) L_{-g} on Z3 is unitary, lies in the expansion
    # span (E = 0) and makes sum_j x_j (x) coproduct(e_j) = W12 W13 exactly;
    # its whole pentagon defect is sum_j x_j (x) D_j, with D_0 = 0 and
    # ||D_1|| = ||D_2||, so the bound is sqrt(3/2) times the exact defect
    wop = unitary_of("kz3")
    lr = wop.left_regular
    w = sum(np.kron(np.diag(np.eye(3)[g]), lr[-g % 3]) for g in range(3))
    bad = _context(wop, w)
    assert bad.expansion_residual <= 1e-14
    assert bad.second_leg_exact <= 1e-14  # coproduct_on_second_leg_of_w
    (check, _), (exact, _) = _leg_checks(bad), _leg_oracles(bad)
    assert exact > 1.0
    assert exact <= check.residual <= exact * np.sqrt(1.5) * (1 + 1e-12)


def test_leg_bounds_above_tol_report_exact_contraction(basis_changed):
    wop = _unitary(basis_changed(preset("kz3"), seed=7))
    bad = _context(wop, list(_defects(wop, seed=13))[-1])
    for check, exact in zip(_leg_checks(bad, tol=1e-9), _leg_oracles(bad)):
        assert check.detail.startswith("exact contraction; certified bound")
        assert not check.passed
        assert check.residual == pytest.approx(exact, rel=1e-13, abs=0)


def test_pentagon_bound_that_is_nan_reports_exact_contraction():
    wop = unitary_of("ks3")
    # the cached (f, conjugation_over_basis, coproduct_on_second_leg_of_w, pi, r)
    vars(wop)["sandwich_certificate"] = (float("nan"), 0.0, 0.0, *wop.sandwich_certificate[3:])
    check = verify_pentagon(wop).check("pentagon")
    assert check.detail == "exact contraction; certified bound nan exceeds tol"
    assert check.passed and check.residual == pentagon_residual(wop.w)
    # the first-leg bound reads the same exact pentagon value
    first_leg = verify_dual_coproduct_identities(wop).check("dual_coproduct_on_first_leg_of_w")
    assert first_leg.detail == CERTIFIED


def test_cli_reports_exact_pentagon_below_the_rounding_allowance(tmp_path, basis_changed, capsys):
    path = tmp_path / "kz3b.json"
    save_algebra(basis_changed(preset("kz3"), seed=3), str(path))
    code = main(["verify", str(path), "--tol", "1e-15", "--format", "json"])
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    oracles = _leg_oracles(_unitary(algebra_from_json_dict(read_json(path))))
    assert code == 1
    names = ("pentagon/pentagon", "dual_coproduct/dual_coproduct_on_first_leg_of_w")
    for name, exact in zip(names, oracles):
        assert checks[name]["detail"].startswith("exact contraction; certified bound")
        assert checks[name]["residual"] == pytest.approx(exact, rel=1e-13, abs=0)
        assert exact > 0.0


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_full_suite_reports_every_bounded_check_as_certified(name, basis_changed):
    # at the default tolerance no n^8 contraction runs: a silent fallback to
    # an exact contraction fails here
    for a in (preset(name), basis_changed(preset(name), seed=3)):
        report = full_suite(a)
        assert report.overall_pass
        for check in (
            "pentagon/pentagon",
            "dual_coproduct/dual_coproduct_on_first_leg_of_w",
            "dual_coproduct/dual_coproduct_coassociative",
            "dual_coproduct/dual_coproduct_multiplicative",
        ):
            assert report.check(check).detail == CERTIFIED, check


# -- the certified bound on (id (x) coproduct) W = W12 W13

SECOND_LEG = "coproduct_on_second_leg_of_w"


def _oracle_second_leg(wop):
    """The three-leg contraction that the second-leg bound replaces."""
    n, w = wop.dim, wop.w
    lhs = [(wop.slice_basis, [1]), (multiplicative.coproduct_operators(wop), [2, 3])]
    return leg_distance(lhs, [(w, [1, 2]), (w, [1, 3])], (n, n, n))


def _second_leg(wop, tol=np.finfo(float).max):
    return verify_coproduct_implemented(wop, tol).check(SECOND_LEG)


@pytest.mark.parametrize("name", [*ALL_PRESETS, *QUANTUM])
def test_second_leg_bound_dominates_exact_contraction(name, basis_changed):
    for a in (preset_or_twist(name), basis_changed(preset_or_twist(name), seed=5)):
        wop = _unitary(a)
        check = _second_leg(wop)
        assert check.detail == CERTIFIED
        assert _oracle_second_leg(wop) <= check.residual <= 1e-11
        assert verify_coproduct_implemented(wop).residual(SECOND_LEG) == check.residual


@pytest.mark.parametrize("name", ["kz3", "kz5", "ks3"])
def test_second_leg_bound_on_injected_defects_is_tight(name, basis_changed):
    # a context rebuilt around the defective W, and one that keeps the slice
    # basis of the valid W: each measures its expansion residual from its own W
    wop = _unitary(basis_changed(preset(name), seed=7))
    for w in _defects(wop, seed=13):
        for bad in (_context(wop, w), _with_w(wop, w)):
            check, exact = _second_leg(bad), _oracle_second_leg(bad)
            assert check.detail == CERTIFIED
            assert exact <= check.residual <= 50 * exact


@pytest.mark.parametrize("name", ["kz3", "ks3"])
def test_second_leg_gram_form_is_exact_for_w_equal_to_its_expansion(name, basis_changed):
    # with E = 0 the bound is the Gram form plus rounding: perturbed x_j give a
    # defect of order 1e-2 that the Gram form must reproduce, not merely bound
    wop = _unitary(basis_changed(preset(name), seed=7))
    n, rng = wop.dim, np.random.default_rng(1)
    xs = wop.slice_basis + 1e-3 * (rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n)))
    w = np.einsum("jpq,jrs->prqs", xs, wop.left_regular).reshape(n * n, n * n)
    bad = multiplicative.MultiplicativeUnitary(w, wop.algebra, xs, span_basis(xs))
    exact = _oracle_second_leg(bad)
    assert exact > 1e-2
    assert exact <= _second_leg(bad).residual <= exact * (1 + 1e-9)


def test_second_leg_bound_above_tol_reports_exact_contraction(basis_changed):
    wop = _unitary(basis_changed(preset("kz3"), seed=7))
    bad = _with_w(wop, list(_defects(wop, seed=13))[1])  # noise of 1e-8
    check = verify_coproduct_implemented(bad).check(SECOND_LEG)
    assert check.detail.startswith("exact contraction; certified bound")
    assert not check.passed
    assert check.residual == pytest.approx(_oracle_second_leg(bad), rel=1e-13, abs=0)


def test_replaced_w_measures_its_own_expansion_residual(basis_changed):
    # a W swapped in by dataclasses.replace cannot certify with the residual
    # cached for the W it replaced: the pentagon and second-leg bounds fail over
    wop = _unitary(basis_changed(preset("ks3"), seed=5))
    assert wop.expansion_residual <= 1e-13 and verify_pentagon(wop).overall_pass
    w = wop.w + 1e-3 * _noise(np.random.default_rng(3), wop.w.shape[0])
    bad = _with_w(wop, w)
    kron_sum = sum(np.kron(x, lr) for x, lr in zip(wop.slice_basis, wop.left_regular))
    assert bad.expansion_residual == pytest.approx(np.linalg.norm(w - kron_sum), rel=1e-12)
    for check in (verify_pentagon(bad).check("pentagon"), _second_leg(bad, tol=1e-9)):
        assert check.detail.startswith("exact contraction; certified bound")
        assert not check.passed


def test_unitarity_defect_is_computed_once_per_context(basis_changed):
    wop = _unitary(basis_changed(preset("ks3"), seed=5))
    w = wop.w
    assert "unitarity_defect" not in vars(wop)
    residual = verify_unitarity(wop).residual("w_unitary_wstar_w")
    assert vars(wop)["unitarity_defect"] == residual
    assert residual == float(np.linalg.norm(w.conj().T @ w - np.eye(w.shape[0])))  # bit for bit
    # a context around another W computes its own
    bad = _context(wop, 2 * w)
    assert bad.unitarity_defect == pytest.approx(3 * np.sqrt(w.shape[0]), rel=1e-12)


# -- slices by vector functionals, and the *-homomorphism law of the dual coproduct


def _vector_slice(w, bra, ket, side):
    """The slice of the two-leg matrix ``w`` by T -> <bra, T ket> on one leg,
    summed block by block: the (p, q) block of W is its leg-2 matrix for
    leg-1 indices p, q."""
    n = len(bra)
    blocks = w.reshape(n, n, n, n).transpose(0, 2, 1, 3)  # blocks[p, q] = W[pn:pn+n, qn:qn+n]
    if side == "right":
        blocks = blocks.transpose(2, 3, 0, 1)
    out = np.zeros((n, n), dtype=complex)
    for p in range(n):
        for q in range(n):
            out += np.conj(bra[p]) * ket[q] * blocks[p, q]
    return out


def _slice_oracles(wop):
    """The left-slice and Fourier-slice residuals, one vector functional at a time,
    with the Gram matrix and the left multiplications of the (orthonormal) basis
    evaluated element by element.  The left-slice residual is the root-sum-square
    of the n^2 slice defects, the blocks of W's distance from its expansion."""
    a, h, w = wop.algebra, wop.haar, wop.w
    n, e = a.dim, np.eye(a.dim)
    gram = np.array([[h(multiply(a, apply_star(a, e[i]), e[j])) for j in range(n)] for i in range(n)])
    lrs = [np.array([multiply(a, e[i], e[j]) for j in range(n)]).T for i in range(n)]
    left = np.sqrt(sum(
        np.linalg.norm(
            _vector_slice(w, e[i], e[j], "left")
            - sum(c * lr for c, lr in zip(gram[i] @ a.comult[j], lrs))
        ) ** 2
        for i in range(n)
        for j in range(n)
    ))
    f = fourier_matrix(a, h)
    fourier = max(
        np.linalg.norm(
            sum(f[j, i] * x for j, x in enumerate(wop.slice_basis))
            - _vector_slice(w, a.unit, e[i], "right")
        )
        for i in range(n)
    )
    return left, fourier


def _slice_residuals(wop):
    return (
        verify_left_slices_span(wop).residual("left_slice_acts_by_left_multiplication"),
        verify_fourier_slice_identity(wop).residual("fourier_slice_closed_form"),
    )


@pytest.mark.parametrize("name", ["ks3", "fs3", "dual:ks3"])
def test_batched_slices_match_vector_functional_formula(name, basis_changed):
    wop = _unitary(basis_changed(preset(name), seed=5))
    for got, expected in zip(_slice_residuals(wop), _slice_oracles(wop)):
        assert got <= 1e-12 and abs(got - expected) <= 1e-13
    # a random non-unitary W in place of W: both residuals are O(1)
    noise = _noise(np.random.default_rng(9), wop.w.shape[0])
    bad = dataclasses.replace(wop, w=noise)
    for got, expected in zip(_slice_residuals(bad), _slice_oracles(bad)):
        assert expected > 0.1
        assert abs(got - expected) <= 1e-13 * expected


def test_a_passing_left_slice_stage_forms_no_n4_array(basis_changed):
    # the slices are a view of W and their defect is the cached expansion
    # residual, which the pentagon stage reads first in full_suite: at Z16 the
    # stage stays below one (n^2, n^2) complex array, 1 MiB
    import tracemalloc

    from fqg import cyclic_group, group_algebra

    wop = _unitary(basis_changed(group_algebra(cyclic_group(16)), seed=5))
    wop.expansion_residual, wop.grams
    tracemalloc.start()
    try:
        report = verify_left_slices_span(wop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.overall_pass
    assert report.residual("left_slice_acts_by_left_multiplication") == wop.expansion_residual
    assert peak < wop.w.nbytes == 2 ** 20


def _noise(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _context(wop, w):
    """The pipeline context of ``wop`` rebuilt around ``w`` in place of W: its
    slice basis is the least-squares fit of ``w``, and the context measures
    its expansion residual from ``w``."""
    n = wop.dim
    coeffs, _ = expand_in_leg(w, (n, n), wop.left_regular)
    return multiplicative.MultiplicativeUnitary(w, wop.algebra, coeffs, span_basis(coeffs))


def test_antipode_relation_matches_kron_loop_on_defective_w(basis_changed):
    wop = _unitary(basis_changed(preset("fs3"), seed=5))
    a, lr = wop.algebra, wop.left_regular
    antipodes = [np.einsum("k,kab->ab", a.antipode.T @ np.eye(a.dim)[j], lr) for j in range(a.dim)]
    noise = _noise(np.random.default_rng(4), wop.w.shape[0])
    for w in (wop.w, wop.w + 1e-3 * noise):
        ctx = _context(wop, w)
        lhs = sum(np.kron(x, s) for x, s in zip(ctx.slice_basis, antipodes))
        expected = np.linalg.norm(lhs - w.conj().T)
        got = verify_antipode_relation(ctx, tol=1.0).residual("antipode_on_second_leg_of_w")
        assert abs(got - expected) <= 1e-13 * max(1.0, expected)
    assert expected > 1e-4


@pytest.mark.parametrize("name", [p for name in preset_names() for p in (name, f"dual:{name}")])
def test_closed_form_slice_basis_matches_the_least_squares_fit(name, basis_changed):
    # x_j = comult[:, :, j]^T against the fit of W over the L_j that it replaced
    for a in (preset(name), basis_changed(preset(name), 1)):
        wop = _unitary(a)
        coeffs, residual = expand_in_leg(wop.w, (a.dim, a.dim), wop.left_regular)
        assert np.linalg.norm(wop.slice_basis - coeffs) <= 1e-14 * np.linalg.norm(coeffs)
        assert residual <= 1e-13 and wop.expansion_residual <= 1e-13


def test_expansion_residual_is_the_distance_of_w_from_its_expansion(monkeypatch):
    # x_j come from the structure constants, not from W: a W built with noise keeps
    # them, and the residual is the distance of that W from sum_j x_j (x) L_j
    wop = unitary_of("ks3")
    w = wop.w + 1e-3 * _noise(np.random.default_rng(8), wop.w.shape[0])
    monkeypatch.setattr(multiplicative, "kron_sum", lambda xs, ys: w)
    bad = build_multiplicative_unitary(wop.algebra)
    assert np.array_equal(bad.slice_basis, wop.slice_basis)
    kron_sum = sum(np.kron(x, lr) for x, lr in zip(bad.slice_basis, wop.left_regular))
    expected = np.linalg.norm(w - kron_sum)
    assert expected > 1e-3 and abs(bad.expansion_residual - expected) <= 1e-13 * expected


def test_defective_w_fails_named_checks_instead_of_the_expansion_guard(basis_changed):
    # W + noise leaves the span of x_j (x) L_j: the antipode relation is reported
    # as a failing check, and the right slices escape the dual subspace
    wop = _unitary(basis_changed(preset("fs3"), seed=5))
    bad = _context(wop, wop.w + 1e-3 * _noise(np.random.default_rng(4), wop.w.shape[0]))
    assert bad.expansion_residual > 1e-3
    check = verify_antipode_relation(bad).check("antipode_on_second_leg_of_w")
    assert not check.passed and check.residual > 1e-3
    with pytest.raises(VerificationError) as raised:
        build_dual_subspace(bad)
    assert raised.value.check == "dual_subspace_membership"


def test_dual_coproduct_star_check_fails_on_defective_w(basis_changed):
    # the adjoints of the slices of a defective W leave their span, so the
    # image of x_j* written over the slice basis is not the adjoint of the image of x_j
    wop = _unitary(basis_changed(preset("ks3"), seed=5))
    rng = np.random.default_rng(13)
    d = wop.w.shape[0]
    for w, floor in ((np.linalg.qr(_noise(rng, d))[0], 0.1), (wop.w + 1e-3 * _noise(rng, d), 1e-3)):
        bad = _context(wop, w)
        basis, images = bad.slice_basis, bad.dual_coproducts
        flat = np.stack([x.reshape(-1) for x in basis], axis=1)
        oracle = 0.0
        for x, image in zip(basis, images):
            c, *_ = np.linalg.lstsq(flat, x.conj().T.reshape(-1), rcond=None)
            oracle = max(oracle, np.linalg.norm(np.einsum("k,kab->ab", c, images) - image.conj().T))
        check = verify_dual_coproduct_identities(bad).check("dual_coproduct_star_homomorphism")
        assert oracle > floor and not check.passed
        assert abs(check.residual - oracle) <= 1e-12 * oracle
    check = verify_dual_coproduct_identities(wop).check("dual_coproduct_star_homomorphism")
    assert check.passed and check.residual <= 1e-12


@pytest.mark.parametrize("name", ["kz3", "fs3"])
def test_tolerance_below_rounding_fails_checks_without_aborting(name, capsys):
    assert main(["verify", name, "--format", "json"]) == 0
    expected = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    code = main(["verify", name, "--tol", "1e-20", "--format", "json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 1
    assert len(expected) == 78 and [c["name"] for c in checks] == expected
    assert all(c["residual"] is not None for c in checks)
    assert {c["tolerance"] for c in checks if c["name"] == "pentagon/pentagon"} == {1e-20}


# -- quantities computed once per context, on first read


def _counting(monkeypatch, owner, name):
    """Record the positional arguments of each call of ``owner.name`` for the rest of the test."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_sliced_action_never_builds_the_dual_coproduct_stack(monkeypatch):
    calls = _counting(monkeypatch, multiplicative, "_dual_coproducts")
    a, k_group = preset("ks3"), group_preset("s3")
    report = action_suite(a, k_group, resolve_automorphisms(a, k_group, "conjugation"), mode="sliced")
    assert report.overall_pass
    assert calls == []


def test_full_suite_projects_onto_the_dual_span_twice(monkeypatch):
    # the product and adjoint coordinates of ``slice_closure``, read by every stage
    calls = _counting(monkeypatch, SpanBasis, "coords")
    assert full_suite(preset("ks3")).overall_pass
    assert len(calls) == 2


def test_coproduct_and_pentagon_certificates_are_computed_once_per_context(monkeypatch):
    # the second-leg identity is certified from its Gram form once, so a passing
    # run builds no stack of coproduct operators and contracts no leg product
    operators = _counting(monkeypatch, multiplicative, "coproduct_operators")
    contractions = _counting(monkeypatch, multiplicative, "leg_distance")
    bounds = _counting(monkeypatch, multiplicative, "coproduct_expansion_bound")
    wop = unitary_of("ks3")
    assert verify_coproduct_implemented(wop).overall_pass
    assert verify_pentagon(wop).overall_pass
    assert verify_dual_coproduct_identities(wop).overall_pass
    assert len(operators) == 0 and len(contractions) == 0 and len(bounds) == 1
    assert full_suite(preset("ks3")).overall_pass
    assert len(operators) == 0 and len(contractions) == 0 and len(bounds) == 2


def test_nan_in_the_last_coproduct_operator_fails_the_conjugation_check(monkeypatch):
    # a NaN in the Gram part of the last element must reach the bound, which
    # then gives way to the exact loop; there a NaN after the first element
    # must reach the maximum over the basis
    wop = unitary_of("ks3")
    original, built = multiplicative.kron_sum, []
    norms = multiplicative._kron_defect_norms

    def planted(xs, ys):  # after W is built, kron_sum forms only the coproduct(e_a)
        delta = original(xs, ys)
        built.append(delta)
        if len(built) == len(ys):
            delta[0, 0] = np.nan
        return delta

    def planted_norms(*args):
        out = norms(*args)
        out[-1] = np.nan
        return out

    monkeypatch.setattr(multiplicative, "kron_sum", planted)
    monkeypatch.setattr(multiplicative, "_kron_defect_norms", planted_norms)
    check = verify_coproduct_implemented(wop).check("conjugation_over_basis")
    assert check.detail == "exact contraction; certified bound nan exceeds tol"
    assert len(built) == 6
    assert check.residual is None and not check.passed


def _traced_peak(read):
    """Peak bytes traced by tracemalloc while ``read()`` runs."""
    import tracemalloc

    tracemalloc.start()
    try:
        read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coproduct_and_dual_coproduct_stages_hold_no_extra_n5_stack(monkeypatch, basis_changed):
    # in units of one (n, n^2, n^2) complex stack: the coproduct stage holds
    # only the coproduct operators and their construction, and regrouping the
    # dual coproducts copies one element at a time
    from fqg import cyclic_group, group_algebra

    monkeypatch.setattr(multiplicative, "leg_distance", lambda lhs, rhs, dims: 0.0)
    wop = _unitary(basis_changed(group_algebra(cyclic_group(12)), seed=1))
    stack = 16 * wop.dim ** 5
    assert _traced_peak(lambda: wop.sandwich_certificate) <= 2.2 * stack
    _ = wop.dual_coproducts
    assert _traced_peak(lambda: wop.dual_coproduct_coords) <= 0.5 * stack


def test_sandwich_certificate_holds_about_five_n4_arrays(basis_changed):
    # in units of one (n^2, n^2) complex array: the two spill operands, the L_p x_j
    # stack and its Gram matrix with a regrouped copy, then the stack beside the two
    # Gram parts' operands and product; W and the certificates it reads are not counted
    from fqg import cyclic_group, group_algebra

    wop = _unitary(basis_changed(group_algebra(cyclic_group(12)), seed=1))
    _ = wop.grams, wop.slice_closure, wop.spectral_norms, wop.expansion_residual, wop.unitarity_defect
    assert _traced_peak(lambda: wop.sandwich_certificate) <= 5.5 * 16 * wop.dim ** 4


def test_dual_coproduct_stage_holds_one_n5_stack(basis_changed):
    # a passing stage builds no stack of dual coproducts: its bounds hold a
    # few (n^2, n^2) arrays, under half of one (n, n^2, n^2) stack
    from fqg import cyclic_group, group_algebra

    wop = _unitary(basis_changed(group_algebra(cyclic_group(12)), seed=1))
    _ = wop.pentagon_bound, wop.slice_closure
    report = []
    peak = _traced_peak(lambda: report.append(verify_dual_coproduct_identities(wop)))
    assert report[0].overall_pass
    assert peak <= 0.5 * 16 * wop.dim ** 5


def test_replaced_w_gets_its_own_dual_coproducts(basis_changed):
    wop = _unitary(basis_changed(preset("kz3"), seed=5))
    _ = wop.dual_coproducts, wop.dual_coproduct_coords  # cached on the original context
    n = wop.dim
    noise = _noise(np.random.default_rng(6), n * n)
    w2 = wop.w + 1e-3 * noise
    bad = dataclasses.replace(wop, w=w2)
    oracle = np.stack([w2.conj().T @ np.kron(np.eye(n), x) @ w2 for x in wop.slice_basis])
    assert np.max(np.abs(bad.dual_coproducts - oracle)) <= 1e-13
    assert np.max(np.abs(bad.dual_coproducts - wop.dual_coproducts)) > 1e-4
    assert bad.dual_coproduct_coords[1].max() > 1e-4 > wop.dual_coproduct_coords[1].max()


def _oracle_intertwines(wop):
    """The per-element loop that the coordinate form of
    ``intertwines_coproducts`` replaces: sum_pq m_pqi x_p (x) x_q against the
    dual coproduct of x_i, densely."""
    a, n, x = wop.algebra, wop.dim, wop.slice_basis
    worst = 0.0
    for i in range(n):
        lhs = np.einsum("pq,pab,qcd->acbd", a.mult[:, :, i], x, x).reshape(n * n, n * n)
        worst = max(worst, np.linalg.norm(lhs - wop.dual_coproducts[i]))
    return worst


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_intertwines_coproducts_matches_per_element_loop(name, basis_changed):
    # the certified bound dominates the loop; below its rounding allowance the
    # exact distance matches the loop
    for a in (preset(name), basis_changed(preset(name), seed=5)):
        wop = _unitary(a)
        check = verify_G_isomorphism(wop).check("intertwines_coproducts")
        assert check.passed and check.detail == CERTIFIED
        assert _oracle_intertwines(wop) <= check.residual <= 1e-11
        report = verify_G_isomorphism(wop, tol=1e-20)
        check = report.check("intertwines_coproducts")
        assert check.detail.startswith("exact contraction; certified bound")
        assert abs(check.residual - _oracle_intertwines(wop)) <= 1e-13


@pytest.mark.parametrize("name", ["kz3", "kz5", "ks3"])
def test_intertwines_coproducts_on_injected_defects(name, basis_changed):
    wop = _unitary(basis_changed(preset(name), seed=7))
    for w in _defects(wop, seed=13):
        bad = _with_w(wop, w)
        oracle = _oracle_intertwines(bad)
        check = verify_G_isomorphism(bad).check("intertwines_coproducts")
        assert abs(check.residual - oracle) <= 1e-13
        assert oracle > 1e-9 and not check.passed


# -- certified bounds for conjugation_over_basis and the dual-coproduct family, from
# Gram forms over (x_s, L_s); the exact computations they replace are the oracles

GRAM_BOUNDED = {
    "conjugation_over_basis": lambda w: w.conjugation_exact,
    "dual_coproduct_star_homomorphism": lambda w: multiplicative._exact_star(w, None)[0],
    "image_in_doubled_span": lambda w: float(w.dual_coproduct_coords[1].max()),
    "intertwines_coproducts": lambda w: _oracle_intertwines(w),
}


def _gram_bounded_checks(wop, tol=1e100):
    """The four checks by name, from the stages that report them."""
    reports = (
        verify_coproduct_implemented(wop, tol),
        verify_dual_coproduct_identities(wop, tol),
        verify_G_isomorphism(wop, tol),
    )
    return {c.name: c for r in reports for c in r.checks if c.name in GRAM_BOUNDED}


def _injected(wop, seed=13):
    """Contexts around defective inputs: W replaced by a random unitary and by W
    plus noise (the slice basis refit from that W), the comultiplication with
    noise, and the slice basis replaced by a perturbed one."""
    for w in _defects(wop, seed):
        yield _context(wop, w)
    rng = np.random.default_rng(seed)
    a, n = wop.algebra, wop.dim
    noisy = dataclasses.replace(a, comult=a.comult + 1e-6 * rng.standard_normal(a.comult.shape))
    yield _unitary(noisy)
    xs = wop.slice_basis + 1e-5 * (rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n)))
    yield dataclasses.replace(wop, slice_basis=xs, dual_span=span_basis(xs))


@pytest.mark.parametrize("name", [*ALL_PRESETS, *QUANTUM])
def test_gram_bounds_dominate_the_exact_computations(name, basis_changed):
    for a in (preset_or_twist(name), basis_changed(preset_or_twist(name), seed=5)):
        wop = _unitary(a)
        checks = _gram_bounded_checks(wop)
        for check_name, exact in GRAM_BOUNDED.items():
            assert checks[check_name].detail == CERTIFIED
            assert exact(wop) <= checks[check_name].residual <= 1e-11, check_name
        fresh = _gram_bounded_checks(_unitary(a), tol=DEFAULT_TOL)
        assert {k: c.residual for k, c in fresh.items()} == {k: c.residual for k, c in checks.items()}


@pytest.mark.parametrize("name", [*ALL_PRESETS, *QUANTUM])
def test_the_doubled_span_pair_reads_one_bound(name, basis_changed):
    # image_in_doubled_span and intertwines_coproducts report the one float
    # max_i r_i of sandwich_certificate; exactly, intertwines_coproducts adds
    # ||C_i - R m_i R^T|| to the distance r_i that image_in_doubled_span falls back to
    for a in (preset_or_twist(name), basis_changed(preset_or_twist(name), seed=5)):
        wop = _unitary(a)
        image = verify_dual_coproduct_identities(wop).check("image_in_doubled_span")
        assert image.detail == CERTIFIED
        assert verify_G_isomorphism(wop).residual("intertwines_coproducts") == image.residual
        exact = verify_G_isomorphism(wop, 1e-15).residual("intertwines_coproducts")
        assert exact >= float(wop.dual_coproduct_coords[1].max())


@pytest.mark.parametrize("name", ["kz3", "kz5", "ks3"])
def test_gram_bounds_on_injected_defects_are_tight(name, basis_changed):
    wop = _unitary(basis_changed(preset(name), seed=7))
    tight = 0
    for bad in _injected(wop):
        checks = _gram_bounded_checks(bad)
        for check_name, exact in GRAM_BOUNDED.items():
            value, bound = exact(bad), checks[check_name].residual
            assert value <= bound, check_name
            if value > 1e-10:  # a defect above rounding, which the bound must not overstate
                assert bound <= 50 * value, check_name
                tight += 1
    assert tight >= 20


@pytest.mark.parametrize("name", ["kz3", "ks3"])
def test_gram_bounds_above_tol_report_the_exact_computations(name, basis_changed):
    wop = _unitary(basis_changed(preset(name), seed=7))
    bad = _context(wop, list(_defects(wop, seed=13))[-1])
    checks = _gram_bounded_checks(bad, tol=1e-9)
    for check_name, exact in GRAM_BOUNDED.items():
        check = checks[check_name]
        assert check.detail.startswith("exact contraction; certified bound"), check_name
        assert not check.passed and check.residual == pytest.approx(exact(bad), rel=1e-12, abs=0)


def test_pentagon_bound_dominates_exact_contraction_on_replaced_contexts(basis_changed):
    # the Kronecker-side slack is spent once, in the bounds the pentagon reads
    for name in ("kz3", "kz5", "ks3"):
        wop = _unitary(basis_changed(preset(name), seed=7))
        for w in _defects(wop, seed=13):
            for bad in (_context(wop, w), _with_w(wop, w)):
                check = verify_pentagon(bad, tol=np.finfo(float).max).check("pentagon")
                assert pentagon_residual(w) <= check.residual


def _slice_stack_ranks(wop, tol):
    """The two ranks ``verify_left_slices_span`` certified, by SVD of the slice stack."""
    n = wop.dim
    slices = np.einsum("irjs->ijrs", wop.w.reshape((n,) * 4)).reshape(n * n, n, n)
    stack = np.concatenate([slices, wop.left_regular])
    return [numerical_rank(slices, tol), numerical_rank(stack, tol)]


@pytest.mark.parametrize("name", ["ks3", "fs3", "dual:ks3", "kz5"])
def test_slice_coefficient_rows_have_the_singular_values_of_the_slices(name, basis_changed):
    # the expanded slices sum_k C[(i, j), k] L_k have the row Gram matrix C G^T C*,
    # so their singular values are those of C V with V V* = G^T, within the shift
    wop = _unitary(basis_changed(preset(name), seed=5))
    n = wop.dim
    rows, union, shift = multiplicative._slice_rows(wop)
    slices = np.einsum("irjs->ijrs", wop.w.reshape((n,) * 4)).reshape(n * n, -1)
    stack = np.concatenate([slices, wop.left_regular.reshape(n, -1)])
    for coefficient_rows, matrix in ((rows, slices), (union, stack)):
        expected = np.linalg.svd(matrix, compute_uv=False)
        got = np.linalg.svd(coefficient_rows, compute_uv=False)
        assert np.all(np.abs(expected[:n] - got) <= shift + 1e-12 * got[0])
        assert np.all(expected[n:] <= shift)
    assert shift <= 1e-12


def test_sandwich_bounds_cover_the_expansion_residual():
    # W = E, a unitary with X = 0: F = W A - B W lies wholly in the E terms, whose
    # norms e ||A||_2 and e ||B||_2 the bounds must carry
    from types import SimpleNamespace

    rng = np.random.default_rng(4)
    d = 9
    w = np.linalg.qr(_noise(rng, d))[0]
    u = frob(w.conj().T @ w - np.eye(d))
    ctx = SimpleNamespace(dim=1, unitarity_defect=u, expansion_residual=frob(w))
    for a_op, b_op in ((_noise(rng, d), np.zeros((d, d))), (np.zeros((d, d)), _noise(rng, d))):
        l2, b_frob = np.linalg.norm(a_op, 2, keepdims=True), np.array([frob(b_op)])
        f, z = multiplicative._sandwich_bounds(ctx, np.zeros(1), 0.0, a_op[None], l2, b_frob)
        assert frob(w @ a_op - b_op @ w) <= f * (1 + 1e-12)
        assert frob(w @ a_op @ w.conj().T - b_op) <= z[0] * (1 + 1e-12)


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_certified_slice_ranks_equal_the_stack_ranks(name, basis_changed, monkeypatch):
    calls = _counting(monkeypatch, multiplicative, "numerical_rank")
    for a in (preset(name), basis_changed(preset(name), seed=5)):
        wop = _unitary(a)
        report = verify_left_slices_span(wop)
        counts = [report.check(c).detail for c in ("left_slice_span_dimension",
                                                   "left_slices_span_represented_algebra")]
        ranks = _slice_stack_ranks(wop, DEFAULT_TOL)
        assert counts == [f"got {r}, expected {a.dim}" for r in ranks]
    assert calls == []


def test_slice_rank_near_the_threshold_falls_back_to_the_stack(basis_changed, monkeypatch):
    # at a tolerance within the shift of a singular value, or below rounding,
    # the coefficient SVD cannot certify the count and the stack decides.  In an
    # orthonormal basis the coefficient rows of the slices, and of their union with
    # the L_k, have equal singular values; a slice basis scaled by 1 to 2, with W
    # its exact expansion, gives the two different spreads
    wop = _unitary(basis_changed(preset("ks3"), seed=5))
    n = wop.dim
    xs = wop.slice_basis * np.linspace(1.0, 2.0, n)[:, None, None]
    w = np.einsum("jpq,jrs->prqs", xs, wop.left_regular).reshape(n * n, n * n)
    wop = multiplicative.MultiplicativeUnitary(w, wop.algebra, xs, span_basis(xs))
    rows = multiplicative._slice_rows(wop)[0]
    sigma = np.linalg.svd(rows, compute_uv=False)
    assert multiplicative._certified_rank(rows, 0.0, 0.5 * sigma[-1] / sigma[0]) == n
    # the union with the L_k has other singular values, so only the slice rank falls back
    for tol, fallbacks in ((sigma[-1] / sigma[0] * (1 + 1e-14), 1), (1e-20, 2)):
        assert multiplicative._certified_rank(rows, 1e-14, tol) is None
        calls = _counting(monkeypatch, multiplicative, "numerical_rank")
        report = verify_left_slices_span(wop, tol)
        assert len(calls) == fallbacks
        ranks = _slice_stack_ranks(wop, tol)
        assert report.check("left_slice_span_dimension").detail == f"got {ranks[0]}, expected {n}"
        monkeypatch.undo()


@pytest.mark.parametrize("name", ["ks3", "Z8"])
def test_passing_full_suite_builds_nothing_n5(name, basis_changed, monkeypatch):
    from fqg import cyclic_group, group_algebra

    a = basis_changed(preset(name) if name == "ks3" else group_algebra(cyclic_group(8)), seed=1)
    calls = {f: _counting(monkeypatch, multiplicative, f)
             for f in ("_dual_coproducts", "_doubled_span_coords", "coproduct_operators")}
    sums = _counting(monkeypatch, multiplicative, "kron_sum")
    gram_parts = _counting(monkeypatch, multiplicative, "_kron_defect_norms")
    sizes = []
    original = multiplicative.numerical_rank
    monkeypatch.setattr(multiplicative, "numerical_rank",
                        lambda v, tol: sizes.append(np.size(v)) or original(v, tol))
    assert full_suite(a).overall_pass
    assert all(c == [] for c in calls.values())
    assert len(sums) == 2  # W and V = (id (x) S) W, once; no coproduct(e_a) one at a time
    # one stack of the L_p x_j, whose Gram matrix both spills read, for both Gram parts
    assert len(gram_parts) == 2 and gram_parts[0][0] is gram_parts[1][0]
    assert all(size < a.dim ** 4 for size in sizes)  # no stack of n^2 slices of n x n
