"""Leg embeddings, flips, slices and distances on small tensor products."""

import numpy as np
import pytest

from fqg import (
    FunctionalOnOperators,
    StructuralError,
    TensorOperator,
    embed_legs,
    flip,
    identity_operator,
    matrix_unit_functional,
    op_distance,
    slice_leg,
)
from fqg.tensors import kron_sum

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def random_operator(rng, dims):
    n = int(np.prod(dims))
    return TensorOperator(dims, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def test_embed_identity_leg_is_big_identity():
    x = identity_operator([2])
    out = embed_legs(x, [1], [2, 2])
    assert np.array_equal(out.entries, np.eye(4))


def test_embed_identity_permutation_returns_input():
    rng = np.random.default_rng(0)
    x = random_operator(rng, (2, 3))
    out = embed_legs(x, [1, 2], [2, 3])
    assert np.array_equal(out.entries, x.entries)


def test_embed_cnot_on_legs_1_3_matches_flip_conjugation():
    # Independent construction: (SWAP (x) 1)(1 (x) CNOT)(SWAP (x) 1) by
    # explicit 8x8 matrix arithmetic.
    w = TensorOperator((2, 2), CNOT)
    swap_1 = np.kron(SWAP, np.eye(2))
    expected = swap_1 @ np.kron(np.eye(2), CNOT) @ swap_1
    out = embed_legs(w, [1, 3], [2, 2, 2])
    assert np.max(np.abs(out.entries - expected)) == 0.0


def test_embed_respects_composition_and_adjoint():
    rng = np.random.default_rng(1)
    x = random_operator(rng, (2, 3))
    y = random_operator(rng, (2, 3))
    ambient = [2, 2, 3]
    left = embed_legs(TensorOperator((2, 3), x.entries @ y.entries), [2, 3], ambient)
    right = embed_legs(x, [2, 3], ambient) @ embed_legs(y, [2, 3], ambient)
    assert op_distance(left, right) < 1e-13 * np.linalg.norm(x.entries) * np.linalg.norm(y.entries)
    adj = embed_legs(x.adjoint(), [2, 3], ambient)
    assert np.array_equal(adj.entries, embed_legs(x, [2, 3], ambient).entries.conj().T)


def test_embed_disjoint_legs_commute():
    rng = np.random.default_rng(2)
    x = random_operator(rng, (2, 2))
    y = random_operator(rng, (2,))
    ambient = [2, 2, 2]
    a = embed_legs(x, [2, 3], ambient).entries
    b = embed_legs(y, [1], ambient).entries
    assert np.linalg.norm(a @ b - b @ a) == 0.0


def test_embed_order_of_placement_matters():
    rng = np.random.default_rng(3)
    x = random_operator(rng, (2, 2))
    ambient = [2, 2]
    straight = embed_legs(x, [1, 2], ambient).entries
    swapped = embed_legs(x, [2, 1], ambient).entries
    expected = SWAP @ straight @ SWAP
    assert np.max(np.abs(swapped - expected)) < 1e-14


def test_embed_five_legs_against_enumeration():
    rng = np.random.default_rng(7)
    x = random_operator(rng, (2, 3))
    ambient = [2, 2, 2, 3, 3]
    out = embed_legs(x, [2, 5], ambient).entries

    # independent oracle: walk every pair of multi-indices
    dims = ambient
    n = int(np.prod(dims))
    expected = np.zeros((n, n), dtype=complex)
    xt = x.entries.reshape(2, 3, 2, 3)

    def digits(flat):
        out = []
        for d in reversed(dims):
            out.append(flat % d)
            flat //= d
        return out[::-1]

    for row in range(n):
        r = digits(row)
        for col in range(n):
            c = digits(col)
            if r[0] == c[0] and r[2] == c[2] and r[3] == c[3]:
                expected[row, col] = xt[r[1], r[4], c[1], c[4]]
    assert np.max(np.abs(out - expected)) == 0.0

    # trailing contiguous placement is a plain Kronecker factor
    y = random_operator(rng, (3, 3))
    tail = embed_legs(y, [4, 5], ambient).entries
    assert np.array_equal(tail, np.kron(np.eye(8), y.entries))


def test_embed_errors():
    x = identity_operator([2])
    with pytest.raises(StructuralError):
        embed_legs(x, [1, 1], [2, 2])  # repeated index needs matching leg count first
    with pytest.raises(StructuralError):
        embed_legs(x, [3], [2, 2])
    with pytest.raises(StructuralError):
        embed_legs(x, [1], [3, 2])
    y = random_operator(np.random.default_rng(0), (2, 2))
    with pytest.raises(StructuralError):
        embed_legs(y, [1, 1], [2, 2])


def test_flip_trivial_and_swap():
    assert np.array_equal(flip(1, 1).entries, np.eye(1))
    # enumerate the action on the four basis vectors of C^2 (x) C^2
    sigma = flip(2, 2).entries
    expected = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            expected[b * 2 + a, a * 2 + b] = 1.0
    assert np.array_equal(sigma, expected)
    assert np.array_equal(sigma, SWAP)
    assert np.array_equal(sigma @ sigma, np.eye(4))


def test_flip_rectangular_basis_action():
    sigma = flip(2, 3)
    assert sigma.dims == (3, 2)
    vec = np.zeros(6)
    vec[0 * 3 + 1] = 1.0  # e_1 (x) e_2 in dims (2, 3), zero-based (0, 1)
    image = sigma.entries @ vec
    expected = np.zeros(6)
    expected[1 * 2 + 0] = 1.0  # e_2 (x) e_1 in dims (3, 2)
    assert np.array_equal(image, expected)


def test_slice_identity_gives_omega_of_one_times_identity():
    x = identity_operator([2, 2])
    omega = matrix_unit_functional(2, 0, 0)
    assert np.array_equal(slice_leg(x, "left", omega), np.eye(2))
    half = FunctionalOnOperators([1.0, 1.0], [0.5, 0.5])
    assert np.allclose(slice_leg(x, "right", half), np.eye(2))


def test_slice_swap_left_gives_matrix_units():
    x = TensorOperator((2, 2), SWAP)
    for i in range(2):
        for j in range(2):
            out = slice_leg(x, "left", matrix_unit_functional(2, i, j))
            expected = np.zeros((2, 2))
            expected[j, i] = 1.0
            assert np.array_equal(out, expected)


def test_slice_adjoint_law():
    rng = np.random.default_rng(4)
    x = random_operator(rng, (3, 2))
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lhs = slice_leg(x.adjoint(), "left", FunctionalOnOperators(b, a))
    rhs = slice_leg(x, "left", FunctionalOnOperators(a, b)).conj().T
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_slice_linear_and_bounded():
    rng = np.random.default_rng(5)
    x = random_operator(rng, (3, 3))
    y = random_operator(rng, (3, 3))
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    om = FunctionalOnOperators(a, b)
    s_sum = slice_leg(TensorOperator((3, 3), x.entries + 2.0 * y.entries), "left", om)
    assert np.allclose(s_sum, slice_leg(x, "left", om) + 2.0 * slice_leg(y, "left", om))
    # linear in the functional through the ket slot
    s_ket = slice_leg(x, "left", FunctionalOnOperators(a, b + 2.0 * c))
    assert np.allclose(
        s_ket,
        slice_leg(x, "left", FunctionalOnOperators(a, b))
        + 2.0 * slice_leg(x, "left", FunctionalOnOperators(a, c)),
    )
    bound = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(x.entries, 2)
    assert np.linalg.norm(slice_leg(x, "left", om), 2) <= bound + 1e-12


def test_slice_dimension_errors():
    x = identity_operator([2, 3])
    with pytest.raises(StructuralError):
        slice_leg(x, "left", matrix_unit_functional(3, 0, 0))
    with pytest.raises(StructuralError):
        slice_leg(x, "right", matrix_unit_functional(2, 0, 0))
    with pytest.raises(StructuralError):
        slice_leg(x, "middle", matrix_unit_functional(2, 0, 0))


def test_op_distance_values_and_triangle():
    x = identity_operator([2])
    assert op_distance(x, x) == 0.0
    zero = TensorOperator((2,), np.zeros((2, 2)))
    assert op_distance(x, zero) == pytest.approx(np.sqrt(2.0))
    rng = np.random.default_rng(6)
    a, b, c = (random_operator(rng, (2, 2)) for _ in range(3))
    assert op_distance(a, b) == pytest.approx(op_distance(b, a))
    assert op_distance(a, c) <= op_distance(a, b) + op_distance(b, c) + 1e-12
    with pytest.raises(StructuralError):
        op_distance(x, identity_operator([3]))


def test_kron_sum_matches_kron_loop():
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    ys = rng.standard_normal((4, 5, 3)) + 1j * rng.standard_normal((4, 5, 3))
    loop = np.zeros((10, 9), dtype=complex)
    for x, y in zip(xs, ys):
        loop += np.kron(x, y)
    assert np.max(np.abs(kron_sum(xs, ys) - loop)) <= 1e-13
