"""Leg embeddings, leg contractions and distances on small tensor products."""

import numpy as np
import pytest

from fqg import StructuralError
import fqg.tensors as tensors_mod
from fqg.tensors import kron_sum, kron_sum_distance, leg_distance, leg_distance_bytes

from conftest import apply_star, embed_legs, multiply

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def random_operator(rng, dims):
    n = int(np.prod(dims))
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_embed_identity_leg_is_big_identity():
    out = embed_legs(np.eye(2), [1], [2, 2])
    assert np.array_equal(out, np.eye(4))


def test_embed_identity_permutation_returns_input():
    rng = np.random.default_rng(0)
    x = random_operator(rng, (2, 3))
    out = embed_legs(x, [1, 2], [2, 3])
    assert np.array_equal(out, x)


def test_embed_cnot_on_legs_1_3_matches_flip_conjugation():
    # Independent construction: (SWAP (x) 1)(1 (x) CNOT)(SWAP (x) 1) by
    # explicit 8x8 matrix arithmetic.
    swap_1 = np.kron(SWAP, np.eye(2))
    expected = swap_1 @ np.kron(np.eye(2), CNOT) @ swap_1
    out = embed_legs(CNOT, [1, 3], [2, 2, 2])
    assert np.max(np.abs(out - expected)) == 0.0


def test_embed_respects_composition_and_adjoint():
    rng = np.random.default_rng(1)
    x = random_operator(rng, (2, 3))
    y = random_operator(rng, (2, 3))
    ambient = [2, 2, 3]
    left = embed_legs(x @ y, [2, 3], ambient)
    right = embed_legs(x, [2, 3], ambient) @ embed_legs(y, [2, 3], ambient)
    scale = np.linalg.norm(x) * np.linalg.norm(y)
    assert np.linalg.norm(left - right) < 1e-13 * scale
    adj = embed_legs(x.conj().T, [2, 3], ambient)
    assert np.array_equal(adj, embed_legs(x, [2, 3], ambient).conj().T)


def test_embed_disjoint_legs_commute():
    rng = np.random.default_rng(2)
    x = random_operator(rng, (2, 2))
    y = random_operator(rng, (2,))
    ambient = [2, 2, 2]
    a = embed_legs(x, [2, 3], ambient)
    b = embed_legs(y, [1], ambient)
    assert np.linalg.norm(a @ b - b @ a) == 0.0


def test_embed_order_of_placement_matters():
    rng = np.random.default_rng(3)
    x = random_operator(rng, (2, 2))
    ambient = [2, 2]
    straight = embed_legs(x, [1, 2], ambient)
    swapped = embed_legs(x, [2, 1], ambient)
    expected = SWAP @ straight @ SWAP
    assert np.max(np.abs(swapped - expected)) < 1e-14


def test_embed_five_legs_against_enumeration():
    rng = np.random.default_rng(7)
    x = random_operator(rng, (2, 3))
    ambient = [2, 2, 2, 3, 3]
    out = embed_legs(x, [2, 5], ambient)

    # independent oracle: walk every pair of multi-indices
    dims = ambient
    n = int(np.prod(dims))
    expected = np.zeros((n, n), dtype=complex)
    xt = x.reshape(2, 3, 2, 3)

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
    tail = embed_legs(y, [4, 5], ambient)
    assert np.array_equal(tail, np.kron(np.eye(8), y))


def test_embed_errors():
    x = np.eye(2)
    with pytest.raises(StructuralError):
        embed_legs(x, [1, 1], [2, 2])  # repeated index
    with pytest.raises(StructuralError):
        embed_legs(x, [3], [2, 2])  # out of range
    with pytest.raises(StructuralError):
        embed_legs(x, [0], [2, 2])
    y = random_operator(np.random.default_rng(0), (2, 2))
    with pytest.raises(StructuralError):
        embed_legs(y, [1, 1], [2, 2])


@pytest.mark.parametrize("shape,placement,ambient", [
    ((2, 2), [1], [3, 2]),  # square, but leg 1 has size 3
    ((4, 4), [1], [2, 2]),  # the size of two legs placed on one
    ((2, 2), [1, 2], [2, 2]),  # the size of one leg placed on two
    ((4, 6), [1, 2], [2, 2]),  # not square
    ((4,), [1, 2], [2, 2]),  # not a matrix
])
def test_embed_rejects_a_matrix_whose_size_does_not_match_the_placed_legs(shape, placement, ambient):
    with pytest.raises(StructuralError):
        embed_legs(np.ones(shape), placement, ambient)


def dense_product(factors, dims):
    """Oracle: embed every factor densely with embed_legs and multiply."""
    out = np.eye(int(np.prod(dims)), dtype=complex)
    for matrix, placement in factors:
        out = out @ embed_legs(matrix, placement, dims)
    return out


def whole_product(factors, dims):
    """The product of placed factors as the one tile of the tile engine that
    covers all of leg 1, an (N, N) matrix."""
    n = int(np.prod(dims))
    return tensors_mod._leg1_tiles(factors, tuple(dims), dims[0])(0, 0).reshape(n, n)


def random_factor(rng, dims, placement):
    k = int(np.prod([dims[p - 1] for p in placement]))
    return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)), placement


@pytest.mark.parametrize(
    "dims,lhs,rhs",
    [
        # unequal leg dims (n, m, n) and a permuted placement
        ((2, 3, 2), [[1, 2], [2, 3], [3, 1]], [[1, 3], [2, 1]]),
        ((3, 2, 3), [[2, 1], [1, 3]], [[3, 1], [1, 2], [2, 3]]),
        # four legs, one side leaving leg 4 untouched
        ((2, 3, 2, 2), [[1, 3, 4], [2, 3, 4]], [[1, 3], [2, 3]]),
        # five legs, the shape of the five-leg commutator
        ((2, 2, 3, 2, 2), [[2, 3, 4], [1, 3, 5]], [[1, 3, 5], [2, 3, 4]]),
        # a factor on every leg against a product
        ((2, 3, 2), [[1, 2, 3]], [[1, 2], [1, 3]]),
        # one side leaves leg 1, the tiled leg, untouched
        ((2, 3, 2), [[2, 3]], [[1, 2], [3, 2]]),
        # leg 1 of dim 4 cut into tiles of 2 as well
        ((4, 2, 3), [[1, 2], [3, 1]], [[2, 3], [1, 3]]),
    ],
)
def test_leg_product_and_distance_match_dense_embedding(monkeypatch, dims, lhs, rhs):
    rng = np.random.default_rng(len(dims) + sum(dims))
    lhs = [random_factor(rng, dims, p) for p in lhs]
    rhs = [random_factor(rng, dims, p) for p in rhs]
    for factors in (lhs, rhs):
        dense = dense_product(factors, dims)
        assert np.max(np.abs(whole_product(factors, dims) - dense)) <= 1e-13 * np.max(np.abs(dense))
    expected = np.linalg.norm(dense_product(lhs, dims) - dense_product(rhs, dims))
    assert expected > 1.0
    assert_tilings_match(monkeypatch, lhs, rhs, dims, expected)


def tilings(monkeypatch, lhs, rhs, dims):
    """Set TILE_BYTES to one tile, to tiles of two leg-1 indices and to one
    index pair per tile in turn, yielding after each."""
    factors = max(len(lhs), len(rhs))
    for tile in (dims[0], 2, 1):  # leg-1 indices per tile, when it divides dims[0]
        monkeypatch.setattr(
            tensors_mod, "TILE_BYTES", tensors_mod._working_set(dims, tile, factors)
        )
        yield tile


def assert_tilings_match(monkeypatch, lhs, rhs, dims, expected):
    """leg_distance equals ``expected`` within 1e-13 relative at every tiling
    of ``tilings``."""
    for _ in tilings(monkeypatch, lhs, rhs, dims):
        got = leg_distance(lhs, rhs, dims)
        assert abs(got - expected) <= 1e-13 * expected


def in_place_distance(lhs, rhs, dims):
    """Reference: leg_distance with the rhs tile subtracted into the lhs tile
    in the logical axis order, ``diff -= rhs``."""
    t = tensors_mod._tile(dims, max(len(lhs), len(rhs)))
    lhs_tile = tensors_mod._leg1_tiles(lhs, dims, t)
    rhs_tile = tensors_mod._leg1_tiles(rhs, dims, t)
    total = 0.0
    for i in range(0, dims[0], t):
        for j in range(0, dims[0], t):
            diff = lhs_tile(i, j)
            diff -= rhs_tile(i, j)
            total += tensors_mod.frob(diff) ** 2
    return float(np.sqrt(total))


def test_leg_distance_bit_identical_to_in_place_loop(monkeypatch):
    # the five-leg commutator V234 V135 - V135 V234: the subtraction in the lhs
    # tile's memory order changes neither the values nor the order frob sums
    rng = np.random.default_rng(15)
    n, m = 4, 2
    dims = (n, n, m, n, n)
    k = n * m * n
    v = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    lhs, rhs = [(v, [2, 3, 4]), (v, [1, 3, 5])], [(v, [1, 3, 5]), (v, [2, 3, 4])]
    for tile in tilings(monkeypatch, lhs, rhs, dims):
        assert tensors_mod._tile(dims, 2) == tile
        assert leg_distance(lhs, rhs, dims) == in_place_distance(lhs, rhs, dims) > 1.0


def random_stack(rng, dims, placement, k=3):
    d = int(np.prod([dims[p - 1] for p in placement]))
    return rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d)), placement


@pytest.mark.parametrize(
    "dims,stacked,plain",
    [
        # sum_j X_j (x) Y_j on legs 1 | 2,3, the shape of the coproduct identity
        ((3, 2, 2), [[1], [2, 3]], []),
        # legs 1,2 | 3, the shape of the dual-coproduct identity, leg 1 of dim 4
        ((4, 2, 3), [[1, 2], [3]], []),
        # four legs 1,2 | 3,4, the shape of the expansions of V
        ((2, 3, 2, 2), [[1, 2], [3, 4]], []),
        # permuted placements, a plain factor after the stack, an untouched leg
        ((2, 3, 2, 2), [[3, 1], [2]], [[1, 2]]),
    ],
)
def test_stacked_factors_match_dense_sum(monkeypatch, dims, stacked, plain):
    rng = np.random.default_rng(sum(dims) + len(stacked))
    stacks = [random_stack(rng, dims, p) for p in stacked]
    plains = [random_factor(rng, dims, p) for p in plain]
    # oracle: the sum over j of the dense products of the j-th stack members
    dense = sum(
        dense_product([(xs[j], p) for xs, p in stacks] + plains, dims) for j in range(3)
    )
    lhs = stacks + plains
    assert np.max(np.abs(whole_product(lhs, dims) - dense)) <= 1e-13 * np.max(np.abs(dense))
    if not plain:  # two stacks on consecutive legs in order: a Kronecker sum
        (xs, _), (ys, _) = stacks
        kron_loop = sum(np.kron(x, y) for x, y in zip(xs, ys))
        assert np.max(np.abs(kron_loop - dense)) <= 1e-13 * np.max(np.abs(dense))
    rhs = [random_factor(rng, dims, list(range(1, len(dims) + 1)))]
    expected = np.linalg.norm(dense - dense_product(rhs, dims))
    assert expected > 1.0
    assert_tilings_match(monkeypatch, lhs, rhs, dims, expected)
    assert_tilings_match(monkeypatch, rhs, lhs, dims, expected)


@pytest.mark.parametrize("tile_bytes", [None, 0])
def test_leg_distance_leaves_operands_untouched(monkeypatch, tile_bytes):
    # the difference is formed in place in the lhs tile; a one-factor side is
    # a view of its operand, which must be copied, not overwritten
    if tile_bytes is not None:
        monkeypatch.setattr(tensors_mod, "TILE_BYTES", tile_bytes)
    rng = np.random.default_rng(8)
    dims = (2, 3, 2)
    whole, swapped = random_factor(rng, dims, [1, 2, 3]), random_factor(rng, dims, [2, 1, 3])
    real = (rng.standard_normal((12, 12)), [1, 2, 3])
    stack_a, stack_b = random_stack(rng, dims, [1]), random_stack(rng, dims, [2, 3])
    sides = [[whole], [swapped], [real], [stack_a, stack_b], [whole, swapped]]
    operands = [m for side in sides for m, _ in side]
    before = [m.copy() for m in operands]
    for lhs in sides:
        for rhs in sides:
            leg_distance(lhs, rhs, dims)
    for m, b in zip(operands, before):
        assert np.array_equal(m, b)


def test_tiled_distance_equals_untiled_near_zero(monkeypatch):
    # two orderings of commuting factors: a distance at rounding level
    rng = np.random.default_rng(11)
    dims = (3, 2, 2)
    x, y = random_factor(rng, dims, [1])[0], random_factor(rng, dims, [2, 3])[0]
    xs, ys = random_stack(rng, dims, [1])[0], random_stack(rng, dims, [2, 3])[0]
    pairs = [
        ([(x, [1]), (y, [2, 3])], [(y, [2, 3]), (x, [1])]),
        # a stacked sum against the same sum with the factors swapped
        ([(xs, [1]), (ys, [2, 3])], [(ys, [2, 3]), (xs, [1])]),
    ]
    for lhs, rhs in pairs:
        assert leg_distance(lhs, rhs, dims) <= 1e-13
    monkeypatch.setattr(tensors_mod, "TILE_BYTES", 0)
    for lhs, rhs in pairs:
        assert leg_distance(lhs, rhs, dims) <= 1e-13
    assert leg_distance([], [], dims) == 0.0


def test_leg_distance_bytes(monkeypatch):
    # three tile-sized arrays for products of two factors, five for three;
    # a small space is one tile, a larger one is tiled over leg 1
    assert leg_distance_bytes((3, 3, 3), 3) == 5 * 16 * 27 ** 2
    assert leg_distance_bytes((10, 10, 10), 2) == 3 * 16 * (5 * 100) ** 2
    assert leg_distance_bytes((10, 10, 10), 3) == 5 * 16 * (2 * 100) ** 2
    assert leg_distance_bytes((6, 6, 2, 6, 6), 2) == 3 * 16 * 432 ** 2
    assert leg_distance_bytes((6, 6, 6, 6, 6), 2) == 3 * 16 * 1296 ** 2
    monkeypatch.setattr(tensors_mod, "TILE_BYTES", 0)
    assert leg_distance_bytes((2, 3, 2), 3) == 5 * 16 * 6 ** 2


def test_leg_distance_placement_errors():
    x = np.eye(2)
    with pytest.raises(StructuralError):
        leg_distance([(x, [1, 1])], [], (2, 2))
    with pytest.raises(StructuralError):
        leg_distance([(x, [3])], [], (2, 2))
    with pytest.raises(StructuralError):
        leg_distance([], [(x, [1])], (3, 2))


@pytest.mark.parametrize("a,b", [(2, 3), (3, 2)])
def test_kron_sum_matches_kron_loop(a, b):
    # unequal leg sizes, either way round; the distance measures the same sum
    rng = np.random.default_rng(a * 10 + b)
    xs = rng.standard_normal((4, a, a)) + 1j * rng.standard_normal((4, a, a))
    ys = rng.standard_normal((4, b, b)) + 1j * rng.standard_normal((4, b, b))
    loop = sum(np.kron(x, y) for x, y in zip(xs, ys))
    got = kron_sum(xs, ys)
    assert got.shape == (a * b, a * b)
    assert np.max(np.abs(got - loop)) <= 1e-13 * np.max(np.abs(loop))
    target = rng.standard_normal((a * b, a * b)) + 1j * rng.standard_normal((a * b, a * b))
    expected = np.linalg.norm(loop - target)
    assert abs(kron_sum_distance(xs, ys, target) - expected) <= 1e-13 * expected


def test_pentagon_residual_matches_dense_on_non_unitary_input():
    from fqg import pentagon_residual

    rng = np.random.default_rng(3)
    w = random_operator(rng, (3, 3))
    ambient = (3, 3, 3)
    w12, w13, w23 = (embed_legs(w, p, ambient) for p in ([1, 2], [1, 3], [2, 3]))
    expected = np.linalg.norm(w23 @ w12 @ w23.conj().T - w12 @ w13)
    assert expected > 1.0
    assert abs(pentagon_residual(w) - expected) <= 1e-13 * expected


@pytest.mark.parametrize("name,d", [("ks3", 4), ("fz4", 3), ("dual:ks3", 6)])
def test_star_homomorphism_defects_match_per_pair_loops(name, d, basis_changed):
    # random images are far from a homomorphism, so every defect is O(1)
    from fqg import preset
    from fqg.tensors import star_homomorphism_defects

    a = basis_changed(preset(name), 3)
    n = a.dim
    rng = np.random.default_rng(5)
    images = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))

    def f(coords):
        return sum(c * img for c, img in zip(coords, images))

    unit, mult, star = star_homomorphism_defects(images, a.mult, a.star, a.unit)
    expected_unit = np.linalg.norm(f(a.unit) - np.eye(d))
    expected_mult = np.array(
        [
            [
                np.linalg.norm(
                    f(multiply(a, np.eye(n)[i], np.eye(n)[j])) - images[i] @ images[j]
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    expected_star = np.array(
        [
            np.linalg.norm(f(apply_star(a, np.eye(n)[i])) - images[i].conj().T)
            for i in range(n)
        ]
    )
    assert mult.shape == (n, n) and star.shape == (n,)
    assert expected_unit > 1.0 and expected_mult.min() > 1.0 and expected_star.min() > 1.0
    assert abs(unit - expected_unit) <= 1e-13 * expected_unit
    assert np.all(np.abs(mult - expected_mult) <= 1e-13 * expected_mult)
    assert np.all(np.abs(star - expected_star) <= 1e-13 * expected_star)

