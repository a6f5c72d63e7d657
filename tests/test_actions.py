"""Group actions by automorphisms: invariance, exchange identity, commutation."""

from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from fqg import (
    ModeUnavailable,
    NotAHomomorphism,
    NotAnAutomorphism,
    StructuralError,
    TensorOperator,
    build_group_action,
    build_intertwiner_data,
    build_multiplicative_unitary,
    cayley_from_table,
    compute_haar,
    conjugation_theta,
    cyclic_group,
    embed_legs,
    gns_construct,
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
    FiniteGroupAction,
    _generated_dimension,
    action_axioms_report,
    beta_matrix,
    beta_matrix_antipode_form,
    enumerate_group_automorphisms,
    permutation_matrix,
    strong_right_invariance_residual,
)
from fqg.tensors import numerical_rank

from conftest import basis_change_matrix, change_basis


def brute_force_automorphisms(cayley):
    """Independent oracle: filter all identity-fixing bijections directly."""
    m = cayley.order
    e = cayley.identity_index
    found = []
    for perm in permutations(range(m)):
        if perm[e] != e:
            continue
        if all(
            perm[cayley.multiply(i, j)] == cayley.multiply(perm[i], perm[j])
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
    theta = resolve_automorphisms(a, k, kind)
    return a, k, build_group_action(a, k, theta)


def pipeline(algebra_name, group_name, kind):
    a, k, action = action_on(algebra_name, group_name, kind)
    h = compute_haar(a)
    gns = gns_construct(a, h)
    wop = build_multiplicative_unitary(a, gns)
    data = build_intertwiner_data(action, wop)
    return a, action, h, wop, data


def test_trivial_group_action_passes():
    a = preset("kz3")
    k = group_preset("z1")
    action = build_group_action(a, k, np.eye(3)[None, :, :])
    assert action.report.overall_pass


def test_inversion_action_on_z3_passes():
    _, _, action = action_on("kz3", "z2", "inversion")
    assert action.report.overall_pass
    assert np.array_equal(action.theta[1], permutation_matrix([0, 2, 1]))


def test_conjugation_action_on_s3_passes():
    _, _, action = action_on("ks3", "s3", "conjugation")
    assert action.report.overall_pass
    assert action.report.check("theta_image_size").detail.startswith("faithful")


def test_inversion_on_z2_is_trivial_but_legal():
    _, _, action = action_on("kz2", "z2", "inversion")
    assert action.report.overall_pass
    assert "trivial" in action.report.check("theta_image_size").detail


def test_not_a_homomorphism_raises():
    a = preset("kz3")
    k = group_preset("z2")
    shift = permutation_matrix([1, 2, 0])
    theta = np.stack([np.eye(3), shift])  # shift squared is not the identity
    with pytest.raises(NotAHomomorphism):
        build_group_action(a, k, theta)


def test_not_an_automorphism_raises():
    a = preset("kz3")
    k = group_preset("z2")
    signs = np.diag([1.0, -1.0, -1.0])  # involutive but not multiplicative
    with pytest.raises(NotAnAutomorphism):
        build_group_action(a, k, np.stack([np.eye(3), signs]))


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


def test_haar_invariance():
    for names in (("kz3", "z2", "inversion"), ("ks3", "s3", "conjugation")):
        a, action, h, _, _ = pipeline(*names)
        report = verify_haar_invariance(action, h)
        assert report.overall_pass
        assert report.max_residual() <= 1e-13


def test_strong_right_invariance_direct_oracle():
    # evaluate both sides of the invariance identity from the Cayley data
    a, action, h, _, _ = pipeline("kz3", "z2", "inversion")
    group = a.source_group
    for k in range(action.order):
        for i in range(3):
            for j in range(3):
                lhs = h(a.multiply(action.theta[k] @ a.basis_element(i), a.basis_element(j)))
                rhs = h(
                    a.multiply(
                        a.basis_element(i), action.theta_inv[k] @ a.basis_element(j)
                    )
                )
                assert abs(lhs - rhs) <= 1e-13
    report = verify_strong_right_invariance(action, h)
    assert report.overall_pass
    assert report.max_residual() <= 1e-13


def test_strong_right_invariance_on_s3():
    _, action, h, _, _ = pipeline("ks3", "s3", "conjugation")
    report = verify_strong_right_invariance(action, h)
    assert report.overall_pass
    assert report.max_residual() <= 1e-13


def test_identity_antipode_negative_control():
    _, action, h, _, _ = pipeline("ks3", "s3", "conjugation")
    assert strong_right_invariance_residual(action, h, "identity") > 1e-3
    with pytest.raises(StructuralError):
        strong_right_invariance_residual(action, h, "transpose")


def test_beta_matrix_entries():
    # trivial group: beta(a) = delta_e (x) a
    a = preset("kz3")
    action = build_group_action(a, group_preset("z1"), np.eye(3)[None, :, :])
    assert np.array_equal(beta_matrix(action), np.eye(3))

    # order-two group acting by inversion: delta_0 (x) u_g + delta_1 (x) u_{-g}
    _, _, action = action_on("kz3", "z2", "inversion")
    beta = beta_matrix(action)
    inv = permutation_matrix([0, 2, 1])
    assert np.array_equal(beta[0:3, :], np.eye(3))
    assert np.array_equal(beta[3:6, :], inv)


def test_beta_checks_and_antipode_form_agreement():
    for names in (("kz3", "z2", "inversion"), ("ks3", "s3", "conjugation"), ("fz3", "z2", "inversion")):
        _, action, _, wop, data = pipeline(*names)
        report = verify_beta(data)
        assert report.overall_pass, [c.name for c in report.checks if not c.passed]
        assert report.max_residual() <= 1e-12
        assert np.max(np.abs(beta_matrix(action) - beta_matrix_antipode_form(action))) <= 1e-12


def test_gamma_trivial_group_is_identity():
    a = preset("kz2")
    action = build_group_action(a, group_preset("z1"), np.eye(2)[None, :, :])
    h = compute_haar(a)
    gns = gns_construct(a, h)
    wop = build_multiplicative_unitary(a, gns)
    data = build_intertwiner_data(action, wop)
    assert np.max(np.abs(data.gamma_hat[0] - np.eye(2))) <= 1e-13
    assert verify_gamma(data, wop).overall_pass


def test_gamma_inversion_swaps_nontrivial_sectors():
    _, action, h, wop, data = pipeline("kz3", "z2", "inversion")
    swap12 = permutation_matrix([0, 2, 1])
    assert np.max(np.abs(data.gamma_hat[1] - swap12)) <= 1e-12
    report = verify_gamma(data, wop)
    assert report.overall_pass
    assert report.max_residual() <= 1e-12


def test_gamma_checks_on_s3():
    _, action, h, wop, data = pipeline("ks3", "s3", "conjugation")
    report = verify_gamma(data, wop)
    assert report.overall_pass, [c.name for c in report.checks if not c.passed]
    assert report.max_residual() <= 1e-11


def test_intertwiner_exchange_identity():
    for names, dim in ((("kz3", "z2", "inversion"), 18), (("ks3", "s3", "conjugation"), 216)):
        _, action, h, wop, data = pipeline(*names)
        assert data.v.entries.shape == (dim, dim)
        report = verify_action_intertwiner(data, wop)
        assert report.overall_pass
        assert report.residual("intertwiner_exchange") <= 1e-11
        assert report.residual("intertwiner_sliced_family") <= 1e-11


def test_v_and_exchange_residual_match_kron_loops():
    # V is sum_j x_j (x) beta(e_j); a random V in its place makes the exchange residual O(1)
    _, _, _, wop, data = pipeline("ks3", "s3", "conjugation")
    v_loop = sum(np.kron(x, b) for x, b in zip(wop.slice_basis, data.beta_ops))
    assert np.max(np.abs(data.v.entries - v_loop)) <= 1e-13
    rng = np.random.default_rng(6)
    k = data.v.entries.shape[0]
    v = TensorOperator(data.v.dims, rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    rhs = sum(np.kron(g, lr) for g, lr in zip(data.gamma_ops, wop.gns.left_regular))
    expected = np.linalg.norm(v.entries - rhs)
    got = verify_action_intertwiner(replace(data, v=v), wop).residual("intertwiner_exchange")
    assert expected > 1.0 and abs(got - expected) <= 1e-13 * expected


def test_intertwiner_trivial_group_reduces_to_w():
    a = preset("kz2")
    action = build_group_action(a, group_preset("z1"), np.eye(2)[None, :, :])
    gns = gns_construct(a, compute_haar(a))
    wop = build_multiplicative_unitary(a, gns)
    data = build_intertwiner_data(action, wop)
    assert np.max(np.abs(data.v.entries - wop.w.entries)) <= 1e-13
    assert verify_action_intertwiner(data, wop).overall_pass


def test_trivial_group_commutation_is_exact():
    a = preset("kz2")
    action = build_group_action(a, group_preset("z1"), np.eye(2)[None, :, :])
    gns = gns_construct(a, compute_haar(a))
    wop = build_multiplicative_unitary(a, gns)
    data = build_intertwiner_data(action, wop)
    report = verify_slice_commutativity(data, wop, mode="full")
    assert report.residual("five_leg_commutation") == 0.0


def test_five_leg_commutation_full_mode():
    _, action, h, wop, data = pipeline("kz3", "z2", "inversion")
    report = verify_slice_commutativity(data, wop, mode="full")
    assert report.overall_pass, [c.name for c in report.checks if not c.passed]
    assert "162" in report.check("five_leg_commutation").detail
    assert report.residual("five_leg_commutation") <= 1e-11
    assert report.residual("dual_coproduct_expansion_of_v") <= 1e-10
    assert report.residual("coproduct_expansion_of_v") <= 1e-10


def test_sliced_commutation_on_s3():
    _, action, h, wop, data = pipeline("ks3", "s3", "conjugation")
    report = verify_slice_commutativity(data, wop, mode="sliced")
    assert report.overall_pass
    assert report.residual("sliced_commutation") <= 1e-11
    gen = report.check("beta_slices_generate")
    assert gen.passed and "6" in gen.detail


def test_auto_mode_selects_by_size():
    _, action, h, wop, data = pipeline("kz3", "z2", "inversion")
    report = verify_slice_commutativity(data, wop, mode="auto")
    assert any(c.name == "five_leg_commutation" for c in report.checks)

    _, action6, _, wop6, data6 = pipeline("ks3", "s3", "conjugation")
    report6 = verify_slice_commutativity(data6, wop6, mode="auto")
    assert any(c.name == "sliced_commutation" for c in report6.checks)
    assert not any(c.name == "five_leg_commutation" for c in report6.checks)


def test_full_mode_unavailable_above_limit(monkeypatch):
    import fqg.actions as actions_mod

    _, action, h, wop, data = pipeline("kz3", "z2", "inversion")
    monkeypatch.setattr(actions_mod, "FULL_MODE_BYTES", 100)
    with pytest.raises(ModeUnavailable):
        verify_slice_commutativity(data, wop, mode="full")


@pytest.mark.parametrize("tile_bytes", [None, 0])
def test_full_mode_residuals_match_dense_on_non_commuting_v(monkeypatch, tile_bytes):
    # a random V does not satisfy any of the identities, so every residual is O(1)
    import fqg.tensors as tensors_mod
    from fqg.multiplicative import coproduct_operators, dual_coproduct

    def kron_sum(xs, ys):  # dense oracle: sum_j xs[j] (x) ys[j]
        return sum(np.kron(x, y) for x, y in zip(xs, ys))

    if tile_bytes is not None:  # 0: one tile per leg-1 index pair
        monkeypatch.setattr(tensors_mod, "TILE_BYTES", tile_bytes)
    a, action, h, wop, data = pipeline("kz3", "z2", "inversion")
    n, m = 3, 2
    rng = np.random.default_rng(4)
    k = n * m * n
    v = TensorOperator((n, m, n), rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    report = verify_slice_commutativity(replace(data, v=v), wop, mode="full")

    def placed(ambient, placement):
        return embed_legs(v, placement, ambient).entries

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


def test_full_mode_bytes_estimate():
    from fqg.actions import FULL_MODE_BYTES, full_mode_bytes

    # ks3 with S3: the five-leg commutator, one tile per leg-1 index pair
    assert full_mode_bytes(6, 6) == 3 * 16 * 1296 ** 2 + 3 * 16 * 216 ** 2 + 2 * 16 * 6 ** 5
    # kz6 with Z2: two leg-1 indices per tile
    assert full_mode_bytes(6, 2) == 3 * 16 * 864 ** 2 + 3 * 16 * 72 ** 2 + 2 * 16 * 6 ** 5
    # kz3 with Z2: the five-leg space is one tile
    assert full_mode_bytes(3, 2) == 3 * 16 * 162 ** 2 + 3 * 16 * 18 ** 2 + 2 * 16 * 3 ** 5
    assert full_mode_bytes(8, 4) < FULL_MODE_BYTES
    assert full_mode_bytes(16, 8) > FULL_MODE_BYTES


def test_full_mode_peak_memory_within_estimate():
    import tracemalloc

    from fqg.actions import full_mode_bytes

    _, action, h, wop, data = pipeline("kz6", "z2", "inversion")
    tracemalloc.start()
    try:
        report = verify_slice_commutativity(data, wop, mode="full")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.overall_pass
    assert full_mode_bytes(6, 2) / 2 <= peak <= full_mode_bytes(6, 2)


def test_mode_name_validated():
    _, action, h, wop, data = pipeline("kz3", "z2", "inversion")
    with pytest.raises(StructuralError):
        verify_slice_commutativity(data, wop, mode="everything")


def basis_changed_pipeline(algebra_name, group_name, kind, seed):
    """pipeline() on the algebra in a random basis, with theta'_k = Q theta_k P."""
    a = preset(algebra_name)
    k = group_preset(group_name)
    theta = resolve_automorphisms(a, k, kind)
    p = basis_change_matrix(a.dim, seed)
    q = np.linalg.inv(p)
    b = change_basis(a, seed)
    action = build_group_action(b, k, np.stack([q @ t @ p for t in theta]))
    wop = build_multiplicative_unitary(b, gns_construct(b, compute_haar(b)))
    return b, action, wop, build_intertwiner_data(action, wop)


def test_action_axioms_match_per_pair_loops():
    # a random theta is no homomorphism, so both coaction residuals are O(1)
    a = preset("kz3")
    k = group_preset("s3")
    rng = np.random.default_rng(9)
    theta = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    theta[k.identity_index] = np.eye(3)
    defects = np.array(
        [
            [np.linalg.norm(theta[j] @ theta[l] - theta[k.multiply(j, l)]) for l in range(6)]
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
    wop = build_multiplicative_unitary(a, gns_construct(a, h))
    action = FiniteGroupAction(a, k, theta, action_axioms_report(a, k, theta))
    pair = np.einsum("pqk,k->pq", a.mult, h.coords)
    inv = [action.theta_inv[j] for j in range(6)]
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
        verify_haar_invariance(action, h),
        verify_strong_right_invariance(action, h),
        verify_action_intertwiner(build_intertwiner_data(action, wop), wop),
    )
    residuals = {c.name: c.residual for report in reports for c in report.checks}
    for name, expected in oracles.items():
        assert expected > 1.0
        assert abs(residuals[name] - expected) <= 1e-13 * expected, name
    identity = max(np.abs(t.T @ pair - pair @ t).max() for t in theta)
    assert strong_right_invariance_residual(action, h, "identity") == pytest.approx(identity, rel=1e-13)
    assert numerical_rank(vectors, 1e-9) == 35
    assert action.report.residual("podles_density") == 1.0


def test_operator_stacks_match_per_element_construction():
    # beta(e_j): block k is left multiplication by theta_{k^-1}(e_j);
    # gamma(x_j) = sum_k (sum_i gamma_hat[k][i, j] x_i) (x) delta_k delta_k^T
    b, action, wop, data = basis_changed_pipeline("ks3", "s3", "conjugation", 2)
    n, m = b.dim, action.order
    for j in range(n):
        beta = np.zeros((m * n, m * n), dtype=complex)
        gamma = np.zeros((n * m, n * m), dtype=complex)
        for k in range(m):
            img = action.theta_inv[k] @ b.basis_element(j)
            beta[k * n:(k + 1) * n, k * n:(k + 1) * n] = np.einsum(
                "i,ikl->kl", img, wop.gns.left_regular
            )
            unit_k = np.zeros((m, m))
            unit_k[k, k] = 1.0
            x = np.einsum("i,ipq->pq", data.gamma_hat[k][:, j], wop.slice_basis)
            gamma += np.kron(x, unit_k)
        assert np.max(np.abs(data.beta_ops[j] - beta)) <= 1e-13
        assert np.max(np.abs(data.gamma_ops[j] - gamma)) <= 1e-13


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
    b, action, wop, data = basis_changed_pipeline(*names, seed=3)
    n, m = b.dim, action.order
    t = data.v.entries.reshape(n, m, n, n, m, n)
    generators = t.transpose(0, 3, 2, 5, 1, 4).reshape(n ** 4, m, m)
    norms = np.linalg.norm(generators.reshape(len(generators), -1), axis=1)
    diagonals = np.diagonal(generators[norms > 1e-9], axis1=1, axis2=2)
    assert _generated_dimension(diagonals, 1e-9) == reference_generated_dimension(diagonals, 1e-9)
    assert _generated_dimension(diagonals, 1e-9) == expected
    report = verify_slice_commutativity(data, wop, mode="sliced")
    assert report.overall_pass, [c.name for c in report.checks if not c.passed]
    assert report.check("beta_slices_generate").detail.startswith(
        f"generated algebra dimension {expected},"
    )


def test_generated_dimension_closes_over_several_rounds():
    # span{(1, 2, 3)} -> + squares -> + cubes: all of C^3 after two rounds
    vectors = np.array([[1.0, 2.0, 3.0]], dtype=complex)
    assert _generated_dimension(vectors, 1e-9) == 3
    assert reference_generated_dimension(vectors, 1e-9) == 3
    assert _generated_dimension(np.zeros((0, 3), dtype=complex), 1e-9) == 0


def test_sliced_commutation_detects_non_commuting_v():
    a, action, h, wop, data = pipeline("kz3", "z2", "inversion")
    k = 3 * 2 * 3
    rng = np.random.default_rng(11)
    v = TensorOperator((3, 2, 3), rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    report = verify_slice_commutativity(replace(data, v=v), wop, mode="sliced")
    assert report.residual("sliced_commutation") > 0.1
    assert not report.check("sliced_commutation").passed


def conjugation_theta_loop(cayley):
    """theta_k(u_g) = u_{k g k^-1}, one multiply/inverse call per entry."""
    m = cayley.order
    theta = np.zeros((m, m, m), dtype=complex)
    for k in range(m):
        for g in range(m):
            theta[k, cayley.multiply(cayley.multiply(k, g), cayley.inverse(k)), g] = 1.0
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
    a, action, _, _, data = pipeline(*names)
    n, m = a.dim, action.order
    blocks = data.v.entries.reshape(n, m, n, n, m, n).transpose(1, 4, 0, 2, 3, 5)
    assert not np.any(blocks[~np.eye(m, dtype=bool)])
    assert np.all(np.any(blocks[np.eye(m, dtype=bool)], axis=(1, 2, 3, 4)))
