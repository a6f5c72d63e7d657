"""Dual algebra, slice isomorphism, Fourier transform."""

import numpy as np

from fqg import (
    Functional,
    G_map,
    build_dual,
    build_multiplicative_unitary,
    compute_haar,
    convolve,
    fourier,
    fourier_matrix,
    functional_star,
    gns_construct,
    preset,
    preset_names,
    verify_fourier,
    verify_G_isomorphism,
    verify_hopf_star_axioms,
)
from fqg.duality import verify_fourier_slice_identity


def unitary_of(name):
    a = preset(name)
    gns = gns_construct(a, compute_haar(a))
    return build_multiplicative_unitary(a, gns)


def tensors_equal(a, b):
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("mult", "comult", "unit", "counit", "antipode", "star")
    )


def test_dual_of_group_algebra_is_function_algebra():
    # transposing the diagonal coproduct gives the pointwise product and the
    # convolution coproduct; this holds entrywise, not only up to isomorphism
    assert tensors_equal(build_dual(preset("kz2")), preset("fz2"))
    assert tensors_equal(build_dual(preset("kz5")), preset("fz5"))
    assert tensors_equal(build_dual(preset("ks3")), preset("fs3"))
    assert tensors_equal(build_dual(preset("fs3")), preset("ks3"))


def test_dual_of_trivial_is_trivial():
    assert tensors_equal(build_dual(preset("trivial")), preset("trivial"))


def test_double_dual_is_primal_exactly():
    for name in ("kz2", "fz4", "ks3", "fs3"):
        a = preset(name)
        assert tensors_equal(build_dual(build_dual(a)), a)


def test_dual_passes_axioms_and_classifies_commutativity():
    for name in ("kz3", "fz6", "ks3", "fs3"):
        dual = build_dual(preset(name))
        assert verify_hopf_star_axioms(dual).overall_pass
    assert build_dual(preset("fs3")).commutativity_defect() > 0.5  # noncommutative convolution
    assert build_dual(preset("ks3")).commutativity_defect() <= 1e-12
    assert build_dual(preset("kz3")).is_commutative()


def test_convolution_matches_pointwise_product_for_z2():
    # under the dual-basis identification, convolving dual-basis functionals
    # of the group algebra multiplies delta functions pointwise
    a = preset("kz2")
    f0, f1 = Functional([1.0, 0.0]), Functional([0.0, 1.0])
    assert np.allclose(convolve(a, f0, f0).coords, [1.0, 0.0])
    assert np.allclose(convolve(a, f0, f1).coords, [0.0, 0.0])
    assert np.allclose(convolve(a, f1, f1).coords, [0.0, 1.0])


def test_G_of_counit_is_identity():
    for name in ("kz3", "fs3"):
        wop = unitary_of(name)
        image = G_map(wop, Functional(wop.algebra.counit))
        assert np.max(np.abs(image - np.eye(wop.dim))) <= 1e-12


def test_G_on_dual_basis_of_z2():
    wop = unitary_of("kz2")
    image = G_map(wop, Functional([0.0, 1.0]))
    assert np.max(np.abs(image - np.diag([0.0, 1.0]))) <= 1e-13


def test_G_multiplicative_on_random_functionals():
    rng = np.random.default_rng(17)
    wop = unitary_of("ks3")
    a = wop.algebra
    for _ in range(5):
        phi = Functional(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        psi = Functional(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        lhs = G_map(wop, convolve(a, phi, psi))
        rhs = G_map(wop, phi) @ G_map(wop, psi)
        assert np.linalg.norm(lhs - rhs) <= 1e-11
        star_lhs = G_map(wop, functional_star(a, phi))
        assert np.linalg.norm(star_lhs - G_map(wop, phi).conj().T) <= 1e-11


def test_G_isomorphism_report():
    for name in ("trivial", "kz4", "fz3", "ks3", "fs3"):
        report = verify_G_isomorphism(unitary_of(name))
        assert report.overall_pass, [c.name for c in report.checks if not c.passed]
        assert report.max_residual() <= 1e-11


def test_fourier_of_unit_is_haar():
    for name in ("kz3", "fs3"):
        a = preset(name)
        h = compute_haar(a)
        assert np.max(np.abs(fourier(a, h, a.unit).coords - h.coords)) <= 1e-13


def test_fourier_on_z2_group_algebra():
    a = preset("kz2")
    h = compute_haar(a)
    image = fourier(a, h, [0.0, 1.0])  # haar(u_e u_g) = 0, haar(u_g u_g) = 1
    assert np.max(np.abs(image.coords - np.array([0.0, 1.0]))) <= 1e-14


def test_fourier_invertible_on_presets():
    for name in ("trivial", "kz2", "kz6", "fz4", "ks3", "fs3", "dual:fs3"):
        a = preset(name)
        h = compute_haar(a)
        f = fourier_matrix(a, h)
        assert np.linalg.cond(f) < 1e3
        assert np.linalg.norm(np.linalg.inv(f) @ f - np.eye(a.dim)) <= 1e-12
        assert verify_fourier(a, h).overall_pass


def test_fourier_slice_identity():
    assert verify_fourier_slice_identity(unitary_of("trivial")).max_residual() == 0.0
    wop = unitary_of("kz2")
    report = verify_fourier_slice_identity(wop)
    assert report.overall_pass
    # both paths give the coordinate projection for the nontrivial element
    h = wop.gns.haar
    lhs = G_map(wop, fourier(wop.algebra, h, [0.0, 1.0]))
    assert np.max(np.abs(lhs - np.diag([0.0, 1.0]))) <= 1e-13
    rep6 = verify_fourier_slice_identity(unitary_of("ks3"))
    assert rep6.max_residual() <= 1e-12


def test_G_isomorphism_residuals_match_convolution_loops(basis_changed):
    # replacing the slice images by random matrices makes every defect O(1);
    # the reference applies convolve and functional_star to each basis functional
    from dataclasses import replace

    a = basis_changed(preset("ks3"), 6)
    gns = gns_construct(a, compute_haar(a))
    n = a.dim
    rng = np.random.default_rng(8)
    images = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    wop = replace(build_multiplicative_unitary(a, gns), slice_basis=images)
    basis = [Functional(np.eye(n)[i]) for i in range(n)]
    expected = {
        "unit_of_dual_goes_to_identity": np.linalg.norm(
            G_map(wop, Functional(a.counit)) - np.eye(n)
        ),
        "multiplicative_for_convolution": max(
            np.linalg.norm(G_map(wop, convolve(a, phi, psi)) - G_map(wop, phi) @ G_map(wop, psi))
            for phi in basis
            for psi in basis
        ),
        "star_compatible": max(
            np.linalg.norm(G_map(wop, functional_star(a, phi)) - G_map(wop, phi).conj().T)
            for phi in basis
        ),
    }
    report = verify_G_isomorphism(wop)
    for name, value in expected.items():
        assert value > 1.0
        assert abs(report.residual(name) - value) <= 1e-13 * value, name


def test_functional_star_matches_the_basis_element_loop(basis_changed):
    # the reference applies antipode, then star, then phi to each basis element
    rng = np.random.default_rng(11)
    for name in preset_names():
        a = basis_changed(preset(name), 3)
        phi = Functional(rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim))
        expected = [
            np.conj(phi(a.apply_star(a.apply_antipode(a.basis_element(j))))) for j in range(a.dim)
        ]
        got = functional_star(a, phi).coords
        assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected))), name
