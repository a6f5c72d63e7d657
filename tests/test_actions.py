"""Group actions by automorphisms: invariance, exchange identity, commutation."""

import json
import os
from dataclasses import fields, replace
from functools import cached_property
from itertools import permutations

import numpy as np
import pytest

import fqg
from fqg import (
    IntertwinerData,
    StructuralError,
    action_suite,
    build_intertwiner_data,
    cayley_from_table,
    compute_haar,
    conjugation_theta,
    cyclic_group,
    group_algebra,
    group_preset,
    inversion_theta,
    is_hopf_star_automorphism,
    preset,
    resolve_automorphisms,
    symmetric_group_3,
    verify_action_intertwiner,
    verify_beta,
    verify_gamma,
    verify_haar_invariance,
    verify_slice_commutativity,
    verify_strong_right_invariance,
)
from fqg.actions import (
    _five_leg_commutator_norm,
    _generated_dimension,
    _span_rows,
    action_axioms_report,
)
from fqg.builders import parse_explicit_automorphisms, permutation_matrix
from fqg.cli import main
from fqg.tensors import _rank_above, numerical_rank

from conftest import (
    basis_change_matrix,
    change_basis,
    embed_legs,
    enumerate_group_automorphisms,
    expand_in_leg,
    identity_antipode_control,
    multiply,
    orthonormal_context,
    orthonormal_unitary,
    twist_conjugation,
    twisted_s3xz2,
)


def brute_force_automorphisms(cayley):
    """Independent oracle: filter all identity-fixing bijections directly."""
    m = cayley.order
    e = cayley.identity_index
    found = []
    for perm in permutations(range(m)):
        if perm[e] != e:
            continue
        if all(
            perm[cayley.table[i, j]] == cayley.table[perm[i], perm[j]]
            for i in range(m)
            for j in range(m)
        ):
            found.append(perm)
    return sorted(found)


@pytest.mark.parametrize(
    "group,count",
    [
        (cyclic_group(2), 1),
        (cyclic_group(3), 2),
        (cyclic_group(4), 2),
        (cyclic_group(5), 4),
        (cyclic_group(6), 2),
        (symmetric_group_3(), 6),
    ],
)
def test_enumerate_group_automorphisms(group, count):
    enumerated = enumerate_group_automorphisms(group)
    assert enumerated == brute_force_automorphisms(group)
    assert len(enumerated) == count
    algebra = group_algebra(group)
    for perm in enumerated:
        assert is_hopf_star_automorphism(algebra, permutation_matrix(perm)).overall_pass


def action_on(algebra_name, group_name, kind):
    a = preset(algebra_name)
    k = group_preset(group_name)
    return a, k, resolve_automorphisms(a, k, kind)


def context(a, k, theta):
    """The action's context on W, built only when its axioms hold."""
    assert action_axioms_report(a, k, theta).overall_pass
    return orthonormal_context(a, k, theta)


def pipeline(algebra_name, group_name, kind):
    a, k, theta = action_on(algebra_name, group_name, kind)
    return a, context(a, k, theta)


def test_trivial_group_action_passes():
    a = preset("kz3")
    k = group_preset("z1")
    theta = np.eye(3)[None, :, :]
    assert action_axioms_report(a, k, theta).overall_pass


def test_inversion_action_on_z3_passes():
    a, k, theta = action_on("kz3", "z2", "inversion")
    assert action_axioms_report(a, k, theta).overall_pass
    assert np.array_equal(theta[1], permutation_matrix([0, 2, 1]))


def test_conjugation_action_on_s3_passes():
    a, k, theta = action_on("ks3", "s3", "conjugation")
    report = action_axioms_report(a, k, theta)
    assert report.overall_pass
    assert report.check("theta_image_size").detail.startswith("faithful")


def test_inversion_on_z2_is_trivial_but_legal():
    a, k, theta = action_on("kz2", "z2", "inversion")
    report = action_axioms_report(a, k, theta)
    assert report.overall_pass
    assert "trivial" in report.check("theta_image_size").detail


def first_failure_and_suite(a, k, theta):
    """The first failing axiom check, after asserting that ``action_suite``
    stops after the action/ checks."""
    suite = action_suite(a, k, theta)
    assert not suite.overall_pass
    assert all(c.name.startswith("action/") for c in suite.checks)
    return next(c.name for c in action_axioms_report(a, k, theta).checks if not c.passed)


def test_not_a_homomorphism_fails_theta_homomorphism():
    a = preset("kz3")
    k = group_preset("z2")
    shift = permutation_matrix([1, 2, 0])
    theta = np.stack([np.eye(3), shift])  # shift squared is not the identity
    assert first_failure_and_suite(a, k, theta) == "theta_homomorphism"


def test_not_an_automorphism_fails_theta_automorphisms():
    a = preset("kz3")
    k = group_preset("z2")
    signs = np.diag([1.0, -1.0, -1.0])  # involutive but not multiplicative
    theta = np.stack([np.eye(3), signs])
    assert first_failure_and_suite(a, k, theta) == "theta_automorphisms"


def test_a_theta_that_is_not_invertible_fails_theta_automorphisms():
    # theta_1(x) = counit(x) 1 keeps every law but invertibility, whose tolerance is 0:
    # its residual tol * max(scale, ||theta_1||_F) must not pass against tol * scale
    a, k = preset("kz3"), group_preset("z2")
    theta = np.stack([np.eye(3), np.outer(a.unit, a.counit)])
    sub = is_hopf_star_automorphism(a, theta[1])
    assert [c.name for c in sub.checks if not c.passed] == ["invertible"]
    check = action_axioms_report(a, k, theta).check("theta_automorphisms")
    assert check.detail == "element 1 fails invertible"
    assert not check.passed and check.residual == sub.max_residual() > check.tolerance == 0.0


@pytest.mark.parametrize("size", [1e-8, 1e-3])
def test_theta_automorphisms_matches_a_per_element_loop(size):
    # ks3 is not commutative, so a stacked multiplicative law that contracts
    # the wrong index of theta_k would fail where the per-element check passes
    a, k = preset("ks3"), group_preset("s3")
    p = basis_change_matrix(a.dim, 1)
    b = change_basis(a, 1)
    theta = np.linalg.inv(p) @ resolve_automorphisms(a, k, "conjugation") @ p
    assert action_axioms_report(b, k, theta).overall_pass
    theta[4] += size * np.random.default_rng(12).standard_normal((6, 6))
    worst, detail = 0.0, ""
    for j in range(k.order):
        sub = is_hopf_star_automorphism(b, theta[j])
        worst = max(worst, sub.max_residual())
        if not sub.overall_pass and not detail:
            detail = f"element {k.labels[j]} fails {next(c.name for c in sub.checks if not c.passed)}"
    check = action_axioms_report(b, k, theta).check("theta_automorphisms")
    assert check.residual == worst and check.detail == detail
    assert not check.passed and detail.startswith(f"element {k.labels[4]} fails ")


@pytest.mark.parametrize("mode, count", [("full", 24), ("sliced", 22)])
def test_ad_of_a_transposition_acts_on_the_twist_of_s3xz2(mode, count):
    # a genuinely quantum action: Z2 by Ad(u_s) on the twist, which J keeps, as
    # given and in a random basis with theta moved to P^-1 theta P
    a, k, theta = twisted_s3xz2(), group_preset("z2"), twist_conjugation("102", 2)
    p = basis_change_matrix(a.dim, 5)
    for b, t in ((a, theta), (change_basis(a, 5), np.linalg.inv(p) @ theta @ p)):
        report = action_suite(b, k, t, mode=mode)
        assert len(report.checks) == count
        assert [c.name for c in report.checks if not c.passed] == []


def test_ad_of_a_three_cycle_fails_on_the_twist_of_s3xz2_by_name(tmp_path, capsys):
    # a quantum negative control: Ad(u_r) keeps the algebra but not the twisted
    # coproduct, so Z3 acting by it fails theta_automorphisms, and the command
    # line reports that as a failed check, not as a traceback
    a, k, theta = twisted_s3xz2(), group_preset("z3"), twist_conjugation("120", 3)
    check = action_axioms_report(a, k, theta).check("theta_automorphisms")
    assert not check.passed and check.detail == "element 1 fails comultiplicative"
    assert check.residual == pytest.approx(np.sqrt(6), abs=1e-12)
    assert first_failure_and_suite(a, k, theta) == "theta_automorphisms"
    fqg.save_algebra(a, tmp_path / "twist.json")
    spec = {"format_version": 1, "algebra": "twist.json", "group": "z3",
            "automorphisms": [[[[z.real, z.imag] for z in row] for row in t] for t in theta]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    code = main(["action", str(tmp_path / "spec.json"), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == "" and "Traceback" not in captured.out
    failed = [c["name"] for c in json.loads(captured.out)["checks"] if not c["passed"]]
    assert failed == ["action/theta_automorphisms"]


def test_resolve_automorphisms_guards():
    a = preset("kz3")
    with pytest.raises(StructuralError):
        resolve_automorphisms(a, group_preset("z3"), "inversion")  # acting order > 2
    with pytest.raises(StructuralError):
        resolve_automorphisms(a, group_preset("z2"), "twist")
    loaded = preset("kz3")
    object.__setattr__(loaded, "source_group", None)
    with pytest.raises(StructuralError):
        inversion_theta(loaded, group_preset("z2"))
    with pytest.raises(StructuralError):
        conjugation_theta(preset("kz3"), group_preset("z2"))


def test_resolve_automorphisms_reads_a_list():
    # the list form of an action spec resolves through the same function as a preset name
    a, k = preset("kz3"), group_preset("z2")
    matrices = [[[[float(r == c), 0.0] for c in range(3)] for r in range(3)], [
        [[float(r == (3 - c) % 3), 0.0] for c in range(3)] for r in range(3)
    ]]
    theta = fqg.resolve_automorphisms(a, k, matrices)
    assert np.array_equal(theta, parse_explicit_automorphisms(matrices, 2, 3))
    assert np.array_equal(theta, resolve_automorphisms(a, k, "inversion"))


def test_context_holds_theta_and_its_inverses():
    a, k, theta = action_on("ks3", "s3", "conjugation")
    data = context(a, k, theta)
    assert data.group is k and np.array_equal(data.theta, theta)
    for j in range(k.order):
        assert np.array_equal(data.theta_inv[j], data.theta[k.inverses()[j]])
    assert not data.theta.flags.writeable and not data.theta_inv.flags.writeable
    assert "action" not in {f.name for f in fields(IntertwinerData)}
    assert not hasattr(fqg, "FiniteGroupAction") and not hasattr(fqg, "build_group_action")
    assert not hasattr(fqg.actions, "strong_right_invariance_residual")


def test_haar_invariance():
    for names in (("kz3", "z2", "inversion"), ("ks3", "s3", "conjugation")):
        _, data = pipeline(*names)
        report = verify_haar_invariance(data)
        assert report.overall_pass
        assert report.max_residual() <= 1e-13


def test_strong_right_invariance_direct_oracle():
    # evaluate both sides of the invariance identity from the Cayley data
    _, data = pipeline("kz3", "z2", "inversion")
    a, h, e = data.wop.algebra, data.wop.haar, np.eye(3)
    for k in range(data.group.order):
        for i in range(3):
            for j in range(3):
                lhs = h(multiply(a, data.theta[k] @ e[i], e[j]))
                rhs = h(multiply(a, e[i], data.theta_inv[k] @ e[j]))
                assert abs(lhs - rhs) <= 1e-13
    report = verify_strong_right_invariance(data)
    assert report.overall_pass
    assert report.max_residual() <= 1e-13


def test_strong_right_invariance_on_s3():
    _, data = pipeline("ks3", "s3", "conjugation")
    report = verify_strong_right_invariance(data)
    assert report.overall_pass
    assert report.max_residual() <= 1e-13


def test_identity_antipode_negative_control():
    # with k^-1 replaced by k the identity breaks on S3, where the check passes
    _, data = pipeline("ks3", "s3", "conjugation")
    assert verify_strong_right_invariance(data).residual("strong_right_invariance") <= 1e-13
    assert identity_antipode_control(data) > 1e-3


def beta_coordinate_map(data):
    """beta(e_i) = sum_k delta_k (x) theta_{k^-1}(e_i) as a (|K| n, n) coordinate map."""
    return data.theta_inv.reshape(-1, data.wop.dim)


def beta_antipode_form(data):
    """flip of (antipode (x) group-inversion) after the coaction after the
    antipode, as a coordinate map: S^T theta_inv S^T, block by block."""
    s_op = data.wop.algebra.antipode.T
    return np.concatenate([s_op @ t @ s_op for t in data.theta_inv])


def test_beta_coordinate_map_on_trivial_and_inversion_actions():
    # trivial group: beta(a) = delta_e (x) a
    a = preset("kz3")
    data = context(a, group_preset("z1"), np.eye(3)[None, :, :])
    assert np.array_equal(beta_coordinate_map(data), np.eye(3))

    # order-two group acting by inversion: delta_0 (x) u_g + delta_1 (x) u_{-g}
    _, data = pipeline("kz3", "z2", "inversion")
    beta = beta_coordinate_map(data)
    inv = permutation_matrix([0, 2, 1])
    assert np.array_equal(beta[0:3, :], np.eye(3))
    assert np.array_equal(beta[3:6, :], inv)


def test_beta_checks_and_antipode_form_agreement():
    for names in (("kz3", "z2", "inversion"), ("ks3", "s3", "conjugation"), ("fz3", "z2", "inversion")):
        _, data = pipeline(*names)
        report = verify_beta(data)
        assert report.overall_pass, [c.name for c in report.checks if not c.passed]
        assert report.max_residual() <= 1e-12
        assert np.max(np.abs(beta_coordinate_map(data) - beta_antipode_form(data))) <= 1e-12


def test_beta_antipode_form_agreement_reads_the_coordinate_maps():
    # a random theta_inv does not commute with the antipode, so the check reads
    # the O(1) distance between the two coordinate maps, which the block loop gives
    _, data = basis_changed_pipeline("ks3", "s3", "conjugation", seed=3)
    rng = np.random.default_rng(8)
    bad = replace(data, theta_inv=rng.standard_normal(data.theta_inv.shape))
    expected = np.linalg.norm(beta_coordinate_map(bad) - beta_antipode_form(bad))
    got = verify_beta(bad).residual("beta_antipode_form_agreement")
    assert expected > 1.0 and abs(got - expected) <= 1e-13 * expected


def test_gamma_trivial_group_is_identity():
    a = preset("kz2")
    data = context(a, group_preset("z1"), np.eye(2)[None, :, :])
    assert np.max(np.abs(data.gamma_hat[0] - np.eye(2))) <= 1e-13
    assert verify_gamma(data).overall_pass


def test_gamma_inversion_swaps_nontrivial_sectors():
    _, data = pipeline("kz3", "z2", "inversion")
    swap12 = permutation_matrix([0, 2, 1])
    assert np.max(np.abs(data.gamma_hat[1] - swap12)) <= 1e-12
    report = verify_gamma(data)
    assert report.overall_pass
    assert report.max_residual() <= 1e-12


def test_gamma_checks_on_s3():
    _, data = pipeline("ks3", "s3", "conjugation")
    report = verify_gamma(data)
    assert report.overall_pass, [c.name for c in report.checks if not c.passed]
    assert report.max_residual() <= 1e-11


def test_intertwiner_exchange_identity():
    for names, dim in ((("kz3", "z2", "inversion"), 18), (("ks3", "s3", "conjugation"), 216)):
        _, data = pipeline(*names)
        assert data.v.shape == (dim, dim)
        report = verify_action_intertwiner(data)
        assert report.overall_pass
        assert report.residual("intertwiner_exchange") <= 1e-11
        assert report.residual("intertwiner_sliced_family") <= 1e-11


def test_v_and_exchange_residual_match_kron_loops():
    # V is sum_j x_j (x) beta(e_j); a random V in its place makes the exchange residual O(1)
    _, data = pipeline("ks3", "s3", "conjugation")
    wop = data.wop
    v_loop = sum(np.kron(x, b) for x, b in zip(wop.slice_basis, data.beta_ops))
    assert np.max(np.abs(data.v - v_loop)) <= 1e-13
    rng = np.random.default_rng(6)
    k = data.v.shape[0]
    v = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    rhs = sum(np.kron(g, lr) for g, lr in zip(data.gamma_ops, wop.left_regular))
    expected = np.linalg.norm(v - rhs)
    got = verify_action_intertwiner(replace(data, v=v)).residual("intertwiner_exchange")
    assert expected > 1.0 and abs(got - expected) <= 1e-13 * expected


def test_intertwiner_trivial_group_reduces_to_w():
    a = preset("kz2")
    data = context(a, group_preset("z1"), np.eye(2)[None, :, :])
    assert np.max(np.abs(data.v - data.wop.w)) <= 1e-13
    assert verify_action_intertwiner(data).overall_pass


def test_trivial_group_commutation_is_exact():
    a = preset("kz2")
    data = context(a, group_preset("z1"), np.eye(2)[None, :, :])
    report = verify_slice_commutativity(data, mode="full")
    assert report.residual("five_leg_commutation") == 0.0


def test_five_leg_commutation_full_mode():
    _, data = pipeline("kz3", "z2", "inversion")
    report = verify_slice_commutativity(data, mode="full")
    assert report.overall_pass, [c.name for c in report.checks if not c.passed]
    assert "162" in report.check("five_leg_commutation").detail
    assert report.residual("five_leg_commutation") <= 1e-11
    assert report.residual("dual_coproduct_expansion_of_v") <= 1e-10
    assert report.residual("coproduct_expansion_of_v") <= 1e-10


def test_sliced_commutation_on_s3():
    _, data = pipeline("ks3", "s3", "conjugation")
    report = verify_slice_commutativity(data, mode="sliced")
    assert report.overall_pass
    assert report.residual("sliced_commutation") <= 1e-11
    gen = report.check("beta_slices_generate")
    assert gen.passed and "6" in gen.detail


def test_auto_mode_selects_by_size():
    _, data = pipeline("kz3", "z2", "inversion")
    report = verify_slice_commutativity(data, mode="auto")
    assert any(c.name == "five_leg_commutation" for c in report.checks)

    _, data6 = pipeline("ks3", "s3", "conjugation")
    report6 = verify_slice_commutativity(data6, mode="auto")
    assert any(c.name == "sliced_commutation" for c in report6.checks)
    assert not any(c.name == "five_leg_commutation" for c in report6.checks)


def test_full_mode_unavailable_above_limit(monkeypatch):
    import fqg.actions as actions_mod

    _, data = pipeline("kz3", "z2", "inversion")
    monkeypatch.setattr(actions_mod, "FULL_MODE_BYTES", 100)
    with pytest.raises(StructuralError, match="full mode needs about"):
        verify_slice_commutativity(data, mode="full")


@pytest.mark.parametrize("tile_bytes", [None, 0])
def test_full_mode_residuals_match_dense_on_non_commuting_v(monkeypatch, tile_bytes):
    # a random V does not satisfy any of the identities, so every residual is O(1)
    import fqg.tensors as tensors_mod
    from fqg.multiplicative import coproduct_operators, dual_coproduct

    def kron_sum(xs, ys):  # dense oracle: sum_j xs[j] (x) ys[j]
        return sum(np.kron(x, y) for x, y in zip(xs, ys))

    if tile_bytes is not None:  # 0: one tile per leg-1 index pair
        monkeypatch.setattr(tensors_mod, "TILE_BYTES", tile_bytes)
    _, data = pipeline("kz3", "z2", "inversion")
    wop = data.wop
    n, m = 3, 2
    rng = np.random.default_rng(4)
    k = n * m * n
    v = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    report = verify_slice_commutativity(replace(data, v=v), mode="full")

    def placed(ambient, placement):
        return embed_legs(v, placement, ambient)

    five = (n, n, m, n, n)
    v234, v135 = placed(five, [2, 3, 4]), placed(five, [1, 3, 5])
    lhs_a = kron_sum([dual_coproduct(wop, x) for x in wop.slice_basis], data.beta_ops)
    lhs_b = kron_sum(data.v_last_leg, coproduct_operators(wop))
    four_a, four_b = (n, n, m, n), (n, m, n, n)
    expected = {
        "five_leg_commutation": np.linalg.norm(v234 @ v135 - v135 @ v234),
        "dual_coproduct_expansion_of_v": np.linalg.norm(
            lhs_a - placed(four_a, [1, 3, 4]) @ placed(four_a, [2, 3, 4])
        ),
        "coproduct_expansion_of_v": np.linalg.norm(
            lhs_b - placed(four_b, [1, 2, 3]) @ placed(four_b, [1, 2, 4])
        ),
    }
    for name, value in expected.items():
        assert value > 1.0
        assert abs(report.residual(name) - value) <= 1e-13 * value, name


def _dense_five_leg_commutator_norm(v, n, m):  # oracle: both products as (n^4 m)^2 matrices
    five = (n, n, m, n, n)
    v234, v135 = embed_legs(v, [2, 3, 4], five), embed_legs(v, [1, 3, 5], five)
    return np.linalg.norm(v234 @ v135 - v135 @ v234)


def _v_from_middle_leg_blocks(x):
    """V = sum_{c,e} X^{ce} (x) E_ce on legs [n, m, n], from x[c, e] = X^{ce} as (n, n, n, n)."""
    m, n = x.shape[0], x.shape[2]
    return x.transpose(2, 0, 3, 4, 1, 5).reshape(n * m * n, n * m * n)


def _random_blocks(rng, n, m):
    shape = (m, m, n, n, n, n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n, m", [(1, 3), (2, 1), (2, 2), (3, 2), (2, 3)])
def test_five_leg_commutator_norm_matches_dense(n, m):
    rng = np.random.default_rng(10 * n + m)
    k = n * m * n
    v = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    got, expected = _five_leg_commutator_norm(v, n, m), _dense_five_leg_commutator_norm(v, n, m)
    if n == 1 or m == 1:  # then V234 and V135 commute; the dense oracle reads rounding
        assert got == 0.0 and expected <= 1e-13 * np.linalg.norm(v) ** 2
    else:
        assert expected > 1.0 and abs(got - expected) <= 1e-13 * expected


def test_five_leg_commutator_norm_of_block_diagonal_v_is_exact():
    n, m = 3, 3
    x = _random_blocks(np.random.default_rng(7), n, m)
    x[~np.eye(m, dtype=bool)] = 0.0  # V = sum_c X^{cc} (x) E_cc
    assert _five_leg_commutator_norm(_v_from_middle_leg_blocks(x), n, m) == 0.0


def test_five_leg_commutator_norm_sees_one_off_diagonal_block():
    n, m = 2, 3
    x = _random_blocks(np.random.default_rng(8), n, m)
    off_diagonal = ~np.eye(m, dtype=bool)
    off_diagonal[0, 2] = False  # keep X^{02} alone off the diagonal
    x[off_diagonal] = 0.0
    v = _v_from_middle_leg_blocks(x)
    got, expected = _five_leg_commutator_norm(v, n, m), _dense_five_leg_commutator_norm(v, n, m)
    assert expected > 1.0 and abs(got - expected) <= 1e-13 * expected


def test_full_mode_bytes_estimate():
    from fqg.actions import FULL_MODE_BYTES, full_mode_bytes

    # ks3 with S3: the four-leg expansions (1296 dims), two leg-1 indices per tile
    assert full_mode_bytes(6, 6) == 3 * 16 * 432 ** 2 + 3 * 16 * 216 ** 2 + 2 * 16 * 6 ** 5
    # kz6 with Z2: the four-leg space (432 dims) is one tile
    assert full_mode_bytes(6, 2) == 3 * 16 * 432 ** 2 + 3 * 16 * 72 ** 2 + 2 * 16 * 6 ** 5
    # kz3 with Z2: the four-leg space (54 dims) is one tile
    assert full_mode_bytes(3, 2) == 3 * 16 * 54 ** 2 + 3 * 16 * 18 ** 2 + 2 * 16 * 3 ** 5
    assert full_mode_bytes(8, 4) < FULL_MODE_BYTES
    assert full_mode_bytes(16, 8) < FULL_MODE_BYTES < full_mode_bytes(16, 16)


def test_full_mode_bytes_counts_the_five_leg_kernel_when_the_group_outgrows_the_algebra():
    from fqg.actions import FULL_MODE_BYTES, full_mode_bytes

    # kz4 with a group of order 32: R has K = min(4^4, 32^2) = 256 rows, and the
    # kernel's two (32, 256, 256) slices outweigh the four-leg tiles
    assert full_mode_bytes(4, 32) == 2 * 16 * 32 * 256 ** 2 + 3 * 16 * 512 ** 2 + 2 * 16 * 4 ** 5
    # kz6 with a group of order 64 stays refused
    assert full_mode_bytes(6, 64) > FULL_MODE_BYTES


def test_five_leg_kernel_memory_within_its_share_of_the_estimate():
    import tracemalloc

    n, m, k = 3, 16, 81  # m > n, and R has K = min(n^4, m^2) = 81 rows
    dim = n * m * n
    rng = np.random.default_rng(11)
    v = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    tracemalloc.start()
    try:
        _five_leg_commutator_norm(v, n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slices = 2 * 16 * m * k * k
    # full_mode_bytes counts the two slices and two V-sized copies besides V
    assert slices <= peak <= slices + 2 * v.nbytes


def test_full_mode_peak_memory_within_estimate():
    import tracemalloc

    from fqg.actions import full_mode_bytes

    identity_on_kz3 = np.repeat(np.eye(3)[None], 16, axis=0)
    cases = [
        (pipeline("kz6", "z2", "inversion")[1], 6, 2),
        (pipeline("ks3", "s3", "conjugation")[1], 6, 6),
        # a group larger than the algebra
        (context(preset("kz3"), cyclic_group(16), identity_on_kz3), 3, 16),
    ]
    rng = np.random.default_rng(0)

    def traced_peak(data):
        tracemalloc.start()
        try:
            report = verify_slice_commutativity(data, mode="full")
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for data, n, m in cases:
        # a passing run certifies both four-leg expansions from their Gram forms
        report, peak = traced_peak(data)
        assert report.overall_pass
        assert peak <= full_mode_bytes(n, m), (n, m)
        # a random V, block-diagonal in its middle leg as a classical group's
        # is, fails both bounds and so contracts the four-leg tiles the estimate counts
        d = len(data.v)
        v = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))).reshape(n, m, n, n, m, n)
        v *= np.eye(m)[None, :, None, None, :, None]
        report, peak = traced_peak(replace(data, v=v.reshape(d, d)))
        failed = {c.name for c in report.checks if not c.passed}
        assert {"dual_coproduct_expansion_of_v", "coproduct_expansion_of_v"} <= failed
        assert full_mode_bytes(n, m) / 2 <= peak <= full_mode_bytes(n, m), (n, m)


# -- certified bounds on the four-leg expansions of V

EXPANSIONS = ("dual_coproduct_expansion_of_v", "coproduct_expansion_of_v")
CERTIFIED = "certified upper bound on the residual"


def _expansion_oracles(data):
    """The two four-leg contractions that the expansion bounds replace."""
    from fqg.multiplicative import coproduct_operators
    from fqg.tensors import leg_distance

    wop, v = data.wop, data.v
    n, m = wop.dim, data.group.order
    dual = leg_distance([(wop.dual_coproducts, [1, 2]), (data.beta_ops, [3, 4])],
                        [(v, [1, 3, 4]), (v, [2, 3, 4])], (n, n, m, n))
    second = leg_distance([(data.v_last_leg, [1, 2]), (coproduct_operators(wop), [3, 4])],
                          [(v, [1, 2, 3]), (v, [1, 2, 4])], (n, m, n, n))
    return [dual, second]


def _expansion_checks(data, tol=1e6):  # above every bound met here; float max would overflow
    # the tolerances the stage scales
    report = verify_slice_commutativity(data, tol, mode="full")
    return [report.check(name) for name in EXPANSIONS]


def _v_defects(data, seed):
    """A random unitary in place of V, then V plus complex noise at four scales."""
    rng = np.random.default_rng(seed)
    d = len(data.v)

    def noise():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    yield np.linalg.qr(noise())[0]
    for scale in (1e-8, 1e-6, 1e-4, 1e-3):
        yield data.v + scale * noise()


@pytest.mark.parametrize("names", [("kz3", "z2", "inversion"), ("ks3", "s3", "conjugation")])
def test_v_expansion_bounds_dominate_exact_contraction(names):
    for data in (pipeline(*names)[1], basis_changed_pipeline(*names, seed=7)[1]):
        for check, exact in zip(_expansion_checks(data), _expansion_oracles(data)):
            assert check.detail == CERTIFIED
            assert exact <= check.residual <= 1e-11
        report = verify_slice_commutativity(data, mode="full")
        assert [report.residual(name) for name in EXPANSIONS] == [
            c.residual for c in _expansion_checks(data)
        ]


@pytest.mark.parametrize("names", [("kz3", "z2", "inversion"), ("ks3", "s3", "conjugation")])
def test_v_expansion_bounds_on_injected_defects_are_tight(names):
    # the bounds measure E' from the V they read, so a V swapped in by
    # dataclasses.replace is bounded through its own expansion residual
    _, data = basis_changed_pipeline(*names, seed=7)
    for v in _v_defects(data, seed=13):
        bad = replace(data, v=v)
        for check, exact in zip(_expansion_checks(bad), _expansion_oracles(bad)):
            assert check.detail == CERTIFIED
            assert exact <= check.residual <= 50 * exact


@pytest.mark.parametrize("names", [("kz3", "z2", "inversion"), ("ks3", "s3", "conjugation")])
def test_dual_expansion_gram_form_is_exact_for_v_equal_to_its_expansion(names):
    # perturbed x_j and beta_j with V = sum_j x_j (x) beta_j: both families of
    # the Gram form are of order 1e-3, and the form, cross term included, must
    # reproduce the exact contraction, not merely bound it
    _, data = basis_changed_pipeline(*names, seed=7)
    rng = np.random.default_rng(1)
    xs = data.wop.slice_basis + 1e-3 * rng.standard_normal(data.wop.slice_basis.shape)
    betas = data.beta_ops + 1e-3 * rng.standard_normal(data.beta_ops.shape)
    d = len(data.v)
    v = np.einsum("jpq,jrs->prqs", xs, betas).reshape(d, d)
    bad = replace(data, wop=replace(data.wop, slice_basis=xs), beta_ops=betas, v=v)
    check, exact = _expansion_checks(bad)[0], _expansion_oracles(bad)[0]
    assert exact > 1e-2
    assert exact <= check.residual <= exact * (1 + 1e-9)


def test_v_expansion_bounds_above_tol_report_exact_contraction():
    _, data = basis_changed_pipeline("kz3", "z2", "inversion", seed=7)
    bad = replace(data, v=list(_v_defects(data, seed=13))[1])  # noise of 1e-8
    for check, exact in zip(_expansion_checks(bad, tol=1e-9), _expansion_oracles(bad)):
        assert check.detail.startswith("exact contraction; certified bound")
        assert not check.passed
        assert check.residual == pytest.approx(exact, rel=1e-13, abs=0)


def test_replaced_v_measures_its_own_expansion_residual():
    a, data = pipeline("ks3", "s3", "conjugation")
    assert data.v_expansion_residual <= 1e-13  # cached on the original context
    v = data.v + 1e-3 * np.random.default_rng(5).standard_normal(data.v.shape)
    bad = replace(data, v=v)
    kron_sum = sum(np.kron(c, lr) for c, lr in zip(data.v_last_leg, data.wop.left_regular))
    assert bad.v_expansion_residual == pytest.approx(np.linalg.norm(v - kron_sum), rel=1e-12)


def test_passing_full_mode_builds_no_coproduct_stack(monkeypatch):
    # a passing action suite, full or sliced, builds no stack of coproduct
    # operators and contracts no leg product: the tile engine is for exact fallbacks
    import fqg.actions as actions_mod
    import fqg.multiplicative as multiplicative_mod

    calls = []
    for owner in (actions_mod, multiplicative_mod):
        for name in ("coproduct_operators", "leg_distance"):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, f=original, n=name: calls.append(n) or f(*args))
    _, data = basis_changed_pipeline("ks3", "s3", "conjugation", seed=7)
    assert verify_slice_commutativity(data, mode="full").overall_pass
    assert calls == []
    kz3, z2, ks3, s3 = preset("kz3"), group_preset("z2"), preset("ks3"), group_preset("s3")
    p = basis_change_matrix(ks3.dim, 7)
    suites = [(kz3, z2, resolve_automorphisms(kz3, z2, "inversion")),
              (change_basis(ks3, 7), s3, np.linalg.inv(p) @ resolve_automorphisms(ks3, s3, "conjugation") @ p)]
    for a, k_group, theta in suites:
        for mode in ("full", "sliced"):
            assert action_suite(a, k_group, theta, mode=mode).overall_pass
    assert calls == []


def test_mode_name_validated():
    _, data = pipeline("kz3", "z2", "inversion")
    with pytest.raises(StructuralError):
        verify_slice_commutativity(data, mode="everything")


def basis_changed_pipeline(algebra_name, group_name, kind, seed):
    """pipeline() on the algebra in a random basis, with theta'_k = Q theta_k P."""
    a = preset(algebra_name)
    k = group_preset(group_name)
    theta = resolve_automorphisms(a, k, kind)
    p = basis_change_matrix(a.dim, seed)
    q = np.linalg.inv(p)
    b = change_basis(a, seed)
    return b, context(b, k, np.stack([q @ t @ p for t in theta]))


def test_action_axioms_match_per_pair_loops():
    # a random theta is no homomorphism, so both coaction residuals are O(1)
    a = preset("kz3")
    k = group_preset("s3")
    rng = np.random.default_rng(9)
    theta = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    theta[k.identity_index] = np.eye(3)
    defects = np.array(
        [
            [np.linalg.norm(theta[j] @ theta[l] - theta[k.table[j, l]]) for l in range(6)]
            for j in range(6)
        ]
    )
    report = action_axioms_report(a, k, theta)
    assert defects.max() > 1.0
    assert abs(report.residual("theta_homomorphism") - defects.max()) <= 1e-13 * defects.max()
    total = np.sqrt(np.sum(defects ** 2))
    assert abs(report.residual("coaction_axiom") - total) <= 1e-13 * total


def test_invariance_checks_match_per_element_loops():
    # a random theta is no automorphism, so every residual below is O(1); one
    # zero column of theta_1 costs the Podles vectors one dimension
    a, k = preset("ks3"), group_preset("s3")
    rng = np.random.default_rng(17)
    theta = rng.standard_normal((6, 6, 6)) + 1j * rng.standard_normal((6, 6, 6))
    theta[k.identity_index] = np.eye(6)
    theta[1][:, 0] = 0.0
    h = compute_haar(a)
    data = build_intertwiner_data(orthonormal_unitary(a), k, theta)  # ks3's basis is orthonormal
    pair = np.einsum("pqk,k->pq", a.mult, h.coords)
    inv = [data.theta_inv[j] for j in range(6)]
    phi1, phi2 = np.zeros((36, 36), dtype=complex), np.zeros((36, 36), dtype=complex)
    for j in range(6):
        phi1[j::6, j::6], phi2[j::6, j::6] = theta[j], inv[j]
    vectors = []
    for i in range(6):
        for j in range(6):
            vec = np.zeros((6, 6), dtype=complex)
            vec[:, j] = theta[j][:, i]
            vectors.append(vec)
    oracles = {
        "haar_invariant_under_action": max(np.abs(h.coords @ t - h.coords).max() for t in theta),
        "strong_right_invariance": max(np.abs(t.T @ pair - pair @ s).max() for t, s in zip(theta, inv)),
        "shear_maps_mutually_inverse": np.linalg.norm(phi1 @ phi2 - np.eye(36)),
        "intertwiner_sliced_family": max(
            np.abs(pair @ t - s.T @ pair).max() for t, s in zip(theta, inv)
        ),
    }
    reports = (
        verify_haar_invariance(data),
        verify_strong_right_invariance(data),
        verify_action_intertwiner(data),
    )
    residuals = {c.name: c.residual for report in reports for c in report.checks}
    for name, expected in oracles.items():
        assert expected > 1.0
        assert abs(residuals[name] - expected) <= 1e-13 * expected, name
    assert numerical_rank(vectors, 1e-9) == 35
    assert action_axioms_report(a, k, theta).residual("podles_density") == 1.0


def test_operator_stacks_match_per_element_construction():
    # beta(e_j): block k is left multiplication by theta_{k^-1}(e_j);
    # gamma(x_j) = sum_k (sum_i gamma_hat[k][i, j] x_i) (x) delta_k delta_k^T
    b, data = basis_changed_pipeline("ks3", "s3", "conjugation", 2)
    wop = data.wop
    n, m = b.dim, data.group.order
    for j in range(n):
        beta = np.zeros((m * n, m * n), dtype=complex)
        gamma = np.zeros((n * m, n * m), dtype=complex)
        for k in range(m):
            img = data.theta_inv[k] @ np.eye(n)[j]
            beta[k * n:(k + 1) * n, k * n:(k + 1) * n] = np.einsum(
                "i,ikl->kl", img, wop.left_regular
            )
            unit_k = np.zeros((m, m))
            unit_k[k, k] = 1.0
            x = np.einsum("i,ipq->pq", data.gamma_hat[k][:, j], wop.slice_basis)
            gamma += np.kron(x, unit_k)
        assert np.max(np.abs(data.beta_ops[j] - beta)) <= 1e-13
        assert np.max(np.abs(data.gamma_ops[j] - gamma)) <= 1e-13


def eye_form_stacks(data):
    """beta_ops, gamma_ops and v_last_leg with C(K) as the third factor np.eye(m) of one einsum."""
    n, m = data.wop.algebra.dim, data.group.order
    eye, xs = np.eye(m), data.wop.slice_basis
    beta = np.einsum("kij,iab,kl->jkalb", data.theta_inv, data.wop.left_regular, eye)
    gamma = np.einsum("kij,ipq,kl->jpkql", data.gamma_hat, xs, eye)
    v_last = np.einsum("kij,jpq,kl->ipkql", data.theta_inv, xs, eye)
    return [x.reshape(n, n * m, n * m) for x in (beta, gamma, v_last)]


@pytest.mark.parametrize("basis_seed", [None, 1])
@pytest.mark.parametrize("names", [("kz3", "z2", "inversion"), ("ks3", "s3", "conjugation")])
def test_stacks_on_the_c_k_diagonal_equal_their_eye_forms(names, basis_seed):
    # C(K) is placed on its diagonal E_kk; the einsums with np.eye(m) give the same bits
    _, data = pipeline(*names) if basis_seed is None else basis_changed_pipeline(*names, basis_seed)
    for got, expected in zip((data.beta_ops, data.gamma_ops, data.v_last_leg), eye_form_stacks(data)):
        assert np.array_equal(got, expected)


def reference_generated_dimension(vectors, tol):
    """The greedy closure: one rank test per candidate vector, then pointwise
    products of the chosen subset until the rank stops growing."""

    def independent_subset(vectors):
        chosen = []
        for i, v in enumerate(vectors):
            trial = [vectors[j] for j in chosen] + [v]
            if numerical_rank(trial, tol) == len(trial):
                chosen.append(i)
        return chosen

    grown = list(vectors)
    while grown:
        basis_vecs = [grown[i] for i in independent_subset(grown)]
        candidate = basis_vecs + [u * v for u in basis_vecs for v in basis_vecs]
        if numerical_rank(candidate, tol) == len(basis_vecs):
            grown = basis_vecs
            break
        grown = candidate
    return numerical_rank(grown, tol) if grown else 0


@pytest.mark.parametrize(
    "names,expected",
    [
        (("kz5", "z2", "inversion"), 2),
        (("ks3", "s3", "conjugation"), 6),
        (("kz2", "z2", "inversion"), 1),
    ],
)
def test_generated_dimension_matches_greedy_reference(names, expected):
    b, data = basis_changed_pipeline(*names, seed=3)
    n, m = b.dim, data.group.order
    t = data.v.reshape(n, m, n, n, m, n)
    generators = t.transpose(0, 3, 2, 5, 1, 4).reshape(n ** 4, m, m)
    norms = np.linalg.norm(generators.reshape(len(generators), -1), axis=1)
    keep = generators[norms > 1e-9]  # diagonal matrices: C(K) is diagonal
    diagonals = np.array([np.diag(g) for g in keep])
    assert np.array_equal(keep, np.array([np.diag(d) for d in diagonals]))
    assert generated_dimension(keep) == reference_generated_dimension(diagonals, 1e-9)
    assert generated_dimension(keep) == expected
    report = verify_slice_commutativity(data, mode="sliced")
    assert report.overall_pass, [c.name for c in report.checks if not c.passed]
    assert report.check("beta_slices_generate").detail.startswith(
        f"generated algebra dimension {expected},"
    )


def generated_dimension(mats, tol=1e-9):
    """``_generated_dimension`` started, as in ``verify_slice_commutativity``,
    from an orthonormal basis of the span of ``mats`` and its products."""
    m = mats.shape[-1]
    basis = _span_rows(mats.reshape(len(mats), m * m), tol).reshape(-1, m, m)
    return _generated_dimension(basis, basis[:, None] @ basis[None], tol)


def thin_svd_span_rows(vectors, tol):
    """``_span_rows`` by the thin SVD of the stack itself."""
    _, sigma, vh = np.linalg.svd(vectors, full_matrices=False)
    return vh[:_rank_above(sigma, tol)]


def slice_generators(data):
    n, m = data.wop.algebra.dim, data.group.order
    t = data.v.reshape(n, m, n, n, m, n)
    return t.transpose(0, 3, 2, 5, 1, 4).reshape(n ** 4, m * m)


def straddling_rows(seed):
    """36 rows along 12 orthonormal directions, three a direction, with norms
    from 1 down to 1e-14: rows and singular values lie on both sides of 1e-9."""
    rng = np.random.default_rng(seed)
    b, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    rows = np.geomspace(1.0, 1e-14, 36)[:, None] * b[np.arange(36) // 3]
    return rows[rng.permutation(36)]


def test_span_rows_of_the_r_factor_match_the_thin_svd():
    _, data = basis_changed_pipeline("ks3", "s3", "conjugation", 1)
    generators = slice_generators(data)
    assert generators.shape == (1296, 36)
    cases = ((generators, 1e-9, 6), (straddling_rows(2), 1e-9, 8), (straddling_rows(2), 1e-4, 4))
    for vectors, tol, rank in cases:
        got, expected = _span_rows(vectors, tol), thin_svd_span_rows(vectors, tol)
        assert len(got) == len(expected) == rank
        assert np.abs(got.conj().T @ got - expected.conj().T @ expected).max() <= 1e-12


def test_sliced_commutation_takes_no_svd_of_a_tall_stack(monkeypatch):
    # the (1296, 36) generator stack reaches the SVD only through its R factor
    _, data = basis_changed_pipeline("ks3", "s3", "conjugation", 1)
    shapes, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    assert verify_slice_commutativity(data, mode="sliced").overall_pass
    assert shapes and all(shape[-2] <= shape[-1] for shape in shapes), shapes


def test_generated_dimension_closes_over_several_rounds():
    # span{diag(1, 2, 3)} -> + squares -> + cubes: all diagonal matrices after two rounds
    vectors = np.array([[1.0, 2.0, 3.0]], dtype=complex)
    assert generated_dimension(np.array([np.diag(v) for v in vectors])) == 3
    assert reference_generated_dimension(vectors, 1e-9) == 3
    assert generated_dimension(np.zeros((0, 3, 3), dtype=complex)) == 0


def test_generated_dimension_of_non_commuting_matrices():
    # E12 E21 = E11 and E21 E12 = E22, so the matrix units E12, E21 generate M2
    e = np.eye(2)
    units = np.einsum("ia,jb->ijab", e, e).astype(complex)  # units[i, j] = E_ij
    assert generated_dimension(np.array([units[0, 1], units[1, 0]])) == 4
    assert generated_dimension(units[:1, 0]) == 1


def test_sliced_commutation_detects_non_commuting_v():
    _, data = pipeline("kz3", "z2", "inversion")
    k = 3 * 2 * 3
    rng = np.random.default_rng(11)
    v = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    report = verify_slice_commutativity(replace(data, v=v), mode="sliced")
    assert report.residual("sliced_commutation") > 0.1
    assert not report.check("sliced_commutation").passed


def conjugation_theta_loop(cayley):
    """theta_k(u_g) = u_{k g k^-1}, one table lookup per product."""
    m, table, inverses = cayley.order, cayley.table, cayley.inverses()
    theta = np.zeros((m, m, m), dtype=complex)
    for k in range(m):
        for g in range(m):
            theta[k, table[table[k, g], inverses[k]], g] = 1.0
    return theta


# the dihedral group of order 8: element a + 4 t is r^a s^t, and s r = r^-1 s
D4_TABLE = [
    [(a + (-1) ** t * b) % 4 + 4 * ((t + u) % 2) for u in (0, 1) for b in range(4)]
    for t in (0, 1)
    for a in range(4)
]


@pytest.mark.parametrize("table", [symmetric_group_3().table, D4_TABLE], ids=["s3", "d4"])
def test_conjugation_theta_matches_the_element_loop(table):
    cayley = cayley_from_table(table)
    theta = conjugation_theta(group_algebra(cayley), cayley)
    assert np.array_equal(theta, conjugation_theta_loop(cayley))
    assert not np.array_equal(theta[1], np.eye(cayley.order))  # the group is non-abelian


@pytest.mark.parametrize(
    "names", [("kz6", "z2", "inversion"), ("ks3", "s3", "conjugation"), ("fs3", "s3", "conjugation")]
)
def test_v_is_block_diagonal_in_its_middle_leg(names):
    # C(K) is diagonal, so the five-leg and sliced commutations hold by construction
    a, data = pipeline(*names)
    n, m = a.dim, data.group.order
    blocks = data.v.reshape(n, m, n, n, m, n).transpose(1, 4, 0, 2, 3, 5)
    assert not np.any(blocks[~np.eye(m, dtype=bool)])
    assert np.all(np.any(blocks[np.eye(m, dtype=bool)], axis=(1, 2, 3, 4)))


@pytest.mark.parametrize("names", [("kz6", "z2", "inversion"), ("ks3", "s3", "conjugation")])
def test_v_last_leg_matches_the_least_squares_fit(names):
    # sum_{j,k} theta_inv[k, i, j] x_j (x) E_kk against the fit of V over the L_i that it replaced
    a, data = pipeline(*names)
    n, m = a.dim, data.group.order
    coeffs, residual = expand_in_leg(data.v, (n * m, n), data.wop.left_regular)
    assert np.linalg.norm(data.v_last_leg - coeffs) <= 1e-14 * np.linalg.norm(coeffs)
    assert residual <= 1e-13 and data.v_expansion_residual <= 1e-13


def test_v_expansion_residual_is_the_distance_of_v_from_its_expansion(monkeypatch):
    _, data = pipeline("ks3", "s3", "conjugation")
    v = data.v + 1e-3 * np.random.default_rng(8).standard_normal(data.v.shape)
    monkeypatch.setattr(fqg.actions, "kron_sum", lambda xs, ys: v)
    bad = build_intertwiner_data(data.wop, data.group, data.theta)
    assert np.array_equal(bad.v_last_leg, data.v_last_leg)
    kron_sum = sum(np.kron(c, lr) for c, lr in zip(bad.v_last_leg, data.wop.left_regular))
    expected = np.linalg.norm(v - kron_sum)
    assert expected > 1e-3 and abs(bad.v_expansion_residual - expected) <= 1e-13 * expected


STRONG, SLICED = "invariance/strong_right_invariance", "intertwiner/intertwiner_sliced_family"


@pytest.mark.parametrize("workload", ["action_auto", "action_full"])
@pytest.mark.parametrize("seed", [1, 2])
def test_sliced_family_equals_strong_invariance_on_the_benchmark_actions(
    tmp_path, monkeypatch, capsys, workload, seed
):
    # entry by entry, the sliced family at k is minus strong invariance at k^-1,
    # so the two maxima are one float (action_full is kz6/Z2 in full mode)
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    import workloads

    cases = workloads.generate(workload, seed, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    for case in cases:
        assert main(list(case.argv)) == 0, case.case_id
        residuals = {c["name"]: c["residual"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert residuals[SLICED] == residuals[STRONG], case.case_id


def test_a_passing_action_suite_evaluates_the_strong_defect_once(monkeypatch):
    original = IntertwinerData.__dict__["strong_invariance_defect"].func
    calls = []
    counted = cached_property(lambda data: calls.append(1) or original(data))
    counted.__set_name__(IntertwinerData, "strong_invariance_defect")
    monkeypatch.setattr(IntertwinerData, "strong_invariance_defect", counted)
    report = action_suite(*action_on("ks3", "s3", "conjugation"), mode="full")
    assert report.overall_pass and len(calls) == 1
    assert report.residual(STRONG) == report.residual(SLICED)
