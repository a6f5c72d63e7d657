"""Multiplicative unitary: unitarity, pentagon, slices, dual subspace."""

import dataclasses
import json

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
    load_algebra,
    pentagon_residual,
    preset,
    preset_names,
    save_algebra,
    verify_antipode_relation,
    verify_coproduct_implemented,
    verify_dual_coproduct_identities,
    verify_inverse_via_antipode,
    verify_left_slices_span,
    verify_pentagon,
    verify_unitarity,
)
from fqg import multiplicative
from fqg.cli import main
from fqg.multiplicative import dual_subspace_commutativity_defect, slice_products_and_adjoints
from fqg.duality import fourier_matrix, verify_fourier_slice_identity
from fqg.tensors import expand_in_leg, leg_distance, project_onto_span, span_basis

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


def test_conjugation_over_basis_matches_kron_oracle():
    # a perturbed W makes the residual O(1e-3), so agreement is not rounding
    wop = unitary_of("ks3")
    rng = np.random.default_rng(2)
    d = wop.w.entries.shape[0]
    w = wop.w.entries + 1e-3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    bad = dataclasses.replace(wop, w=TensorOperator(wop.w.dims, w))
    deltas = multiplicative.coproduct_operators(bad)
    oracle = max(
        np.linalg.norm(w @ np.kron(lr, np.eye(wop.dim)) @ w.conj().T - delta)
        for lr, delta in zip(wop.gns.left_regular, deltas)
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
    for name in ("fs3", "dual:ks3"):  # against the pairwise loop it batches
        basis = unitary_of(name).slice_basis
        loop = max(np.linalg.norm(x @ y - y @ x) for x in basis for y in basis)
        assert abs(dual_subspace_commutativity_defect(unitary_of(name)) - loop) <= 1e-13 * loop


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
    slices = list(wop.w.as_legs().transpose(1, 3, 0, 2).reshape(n * n, n, n))
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


# -- certified bounds for coassociativity and multiplicativity of the dual coproduct

BOUNDED = ("dual_coproduct_coassociative", "dual_coproduct_multiplicative")


def _oracle_coassociativity(wop):
    """The per-element leg contraction that the coassociativity bound replaces."""
    n = wop.dim
    w_mat = wop.w.entries
    w_adj = w_mat.conj().T
    worst = 0.0
    for dx in wop.dual_coproducts:
        first = [(w_adj, [1, 2]), (dx, [2, 3]), (w_mat, [1, 2])]
        second = [(w_adj, [2, 3]), (dx, [1, 3]), (w_mat, [2, 3])]
        worst = max(worst, leg_distance(first, second, (n, n, n)))
    return worst


def _oracle_multiplicativity(wop):
    """The pairwise loop that the multiplicativity bound replaces."""
    worst = 0.0
    for x, dx in zip(wop.slice_basis, wop.dual_coproducts):
        for y, dy in zip(wop.slice_basis, wop.dual_coproducts):
            worst = max(worst, np.linalg.norm(dual_coproduct(wop, x @ y) - dx @ dy))
    return worst


def _oracles(wop):
    return [_oracle_coassociativity(wop), _oracle_multiplicativity(wop)]


def _bounds(wop):
    """Both certified bounds, read from a report whose tolerance admits them."""
    report = verify_dual_coproduct_identities(wop, tol=np.inf)
    assert all(report.check(name).detail == "certified upper bound on the residual" for name in BOUNDED)
    return [report.residual(name) for name in BOUNDED]


def _unitary(a):
    return build_multiplicative_unitary(a, gns_construct(a, compute_haar(a)))


def _with_w(wop, w):
    """``wop`` with W replaced by ``w`` and its dual coproducts recomputed."""
    bad = dataclasses.replace(wop, w=TensorOperator(wop.w.dims, w))
    images = np.stack([dual_coproduct(bad, x) for x in wop.slice_basis])
    return dataclasses.replace(bad, dual_coproducts=images)


def _defects(wop, seed):
    """A random unitary in place of W, then W plus complex noise at four scales."""
    rng = np.random.default_rng(seed)
    d = wop.w.entries.shape[0]

    def noise():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    yield np.linalg.qr(noise())[0]
    for scale in (1e-8, 1e-6, 1e-4, 1e-3):
        yield wop.w.entries + scale * noise()


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


def test_dual_coproduct_bound_above_tol_reports_exact_contraction(basis_changed):
    wop = _unitary(basis_changed(preset("kz3"), seed=7))
    bad = _with_w(wop, list(_defects(wop, seed=13))[-1])
    report = verify_dual_coproduct_identities(bad)
    for name, exact in zip(BOUNDED, _oracles(bad)):
        check = report.check(name)
        assert check.detail.startswith("exact contraction; certified bound")
        assert not check.passed
        assert check.residual == pytest.approx(exact, rel=1e-13, abs=0)


def test_cli_reports_exact_contraction_below_the_rounding_allowance(tmp_path, basis_changed, capsys):
    # at tol 1e-15 the dual subspace is still accepted, but both bounds, which
    # include a rounding allowance of order n^2 eps, exceed the tolerance
    path = tmp_path / "kz3b.json"
    save_algebra(basis_changed(preset("kz3"), seed=3), str(path))
    code = main(["verify", str(path), "--tol", "1e-15", "--format", "json"])
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    oracles = _oracles(_unitary(load_algebra(str(path))))
    assert code == 1
    for name, exact in zip(BOUNDED, oracles):
        check = checks["dual_coproduct/" + name]
        assert check["detail"].startswith("exact contraction; certified bound")
        assert check["residual"] == pytest.approx(exact, rel=1e-13, abs=0)
        assert exact > 0.0


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
    """The left-slice and Fourier-slice residuals, one vector functional at a time."""
    a, gns, w = wop.algebra, wop.gns, wop.w.entries
    n = a.dim
    left = max(
        np.linalg.norm(
            _vector_slice(w, gns.to_onb[:, i], gns.to_onb[:, j], "left")
            - sum(c * lr for c, lr in zip(gns.gram[i] @ a.comult[j], gns.left_regular))
        )
        for i in range(n)
        for j in range(n)
    )
    f = fourier_matrix(a, gns.haar)
    bra = gns.to_onb @ a.unit
    fourier = max(
        np.linalg.norm(
            sum(f[j, i] * x for j, x in enumerate(wop.slice_basis))
            - _vector_slice(w, bra, gns.to_onb[:, i], "right")
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
    noise = _noise(np.random.default_rng(9), wop.w.entries.shape[0])
    bad = dataclasses.replace(wop, w=TensorOperator(wop.w.dims, noise))
    for got, expected in zip(_slice_residuals(bad), _slice_oracles(bad)):
        assert expected > 0.1
        assert abs(got - expected) <= 1e-13 * expected


def _noise(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _context(wop, w):
    """The pipeline context of ``wop`` rebuilt around ``w`` in place of W: its
    slice basis, expansion and dual coproducts all come from ``w``."""
    n = wop.dim
    coeffs, residual = expand_in_leg(w, (n, n), wop.gns.left_regular)
    images = np.stack([w.conj().T @ np.kron(np.eye(n), x) @ w for x in coeffs])
    w_op = TensorOperator((n, n), w)
    return multiplicative.MultiplicativeUnitary(
        w_op, wop.algebra, wop.gns, coeffs, residual, span_basis(coeffs), images
    )


def test_antipode_relation_matches_kron_loop_on_defective_w(basis_changed):
    wop = _unitary(basis_changed(preset("fs3"), seed=5))
    a, lr = wop.algebra, wop.gns.left_regular
    antipodes = [np.einsum("k,kab->ab", a.apply_antipode(a.basis_element(j)), lr) for j in range(a.dim)]
    noise = _noise(np.random.default_rng(4), wop.w.entries.shape[0])
    for w in (wop.w.entries, wop.w.entries + 1e-3 * noise):
        ctx = _context(wop, w)
        lhs = sum(np.kron(x, s) for x, s in zip(ctx.slice_basis, antipodes))
        expected = np.linalg.norm(lhs - w.conj().T)
        got = verify_antipode_relation(ctx, tol=1.0).residual("antipode_on_second_leg_of_w")
        assert abs(got - expected) <= 1e-13 * max(1.0, expected)
    assert expected > 1e-4


def test_dual_coproduct_star_check_fails_on_defective_w(basis_changed):
    # the adjoints of the slices of a defective W leave their span, so the
    # image of x_j* written over the slice basis is not the adjoint of the image of x_j
    wop = _unitary(basis_changed(preset("ks3"), seed=5))
    rng = np.random.default_rng(13)
    d = wop.w.entries.shape[0]
    for w, floor in ((np.linalg.qr(_noise(rng, d))[0], 0.1), (wop.w.entries + 1e-3 * _noise(rng, d), 1e-3)):
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
    # the membership guard of a single dual coproduct has the same floor
    wop = unitary_of(name)
    _, report = dual_coproduct_checked(wop, wop.slice_basis[0], tol=1e-20)
    assert [c.name for c in report.checks] == ["dual_coproduct_in_doubled_span"]
