"""Dual algebra, slice isomorphism, Fourier transform."""

import numpy as np

from fqg import (
    Functional,
    build_dual,
    compute_haar,
    fourier_matrix,
    preset,
    preset_names,
    verify_fourier,
    verify_G_isomorphism,
    verify_hopf_star_axioms,
)
from fqg.duality import verify_fourier_slice_identity
from fqg.tensors import span_basis

from conftest import apply_star, orthonormal_unitary


# one functional at a time: the references for ``verify_G_isomorphism``, which
# treats the whole dual basis at once, and for the Fourier transform


def _convolve(a, phi, psi):
    """Convolution product (phi psi)(x) = (phi (x) psi)(coproduct x)."""
    coords = np.einsum("kij,i,j->k", a.comult, phi.coords, psi.coords)
    return Functional(coords)


def _functional_star(a, phi):
    """The involution phi*(x) = conj(phi(antipode(x)*)) of the dual algebra:
    the matrix antipode @ conj(star) of ``build_dual``'s star on conj(phi)."""
    return Functional(a.antipode @ np.conj(a.star) @ np.conj(phi.coords))


def _G_map(wop, phi):
    """Slice the second leg of W with an algebra functional.

    The functional acts on the algebra, so it is applied through the
    expansion of W over left-multiplication operators; the result is a
    member of the dual subspace.
    """
    return np.einsum("j,jpq->pq", phi.coords, wop.slice_basis)


def _fourier(a, h, coords):
    return Functional(fourier_matrix(a, h) @ np.asarray(coords))


def unitary_of(name):
    return orthonormal_unitary(preset(name))


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
    assert build_dual(preset("kz3")).commutativity_defect() <= 1e-12


def test_convolution_matches_pointwise_product_for_z2():
    # under the dual-basis identification, convolving dual-basis functionals
    # of the group algebra multiplies delta functions pointwise
    a = preset("kz2")
    f0, f1 = Functional([1.0, 0.0]), Functional([0.0, 1.0])
    assert np.allclose(_convolve(a, f0, f0).coords, [1.0, 0.0])
    assert np.allclose(_convolve(a, f0, f1).coords, [0.0, 0.0])
    assert np.allclose(_convolve(a, f1, f1).coords, [0.0, 1.0])


def test_G_of_counit_is_identity():
    for name in ("kz3", "fs3"):
        wop = unitary_of(name)
        image = _G_map(wop, Functional(wop.algebra.counit))
        assert np.max(np.abs(image - np.eye(wop.dim))) <= 1e-12


def test_G_on_dual_basis_of_z2():
    wop = unitary_of("kz2")
    image = _G_map(wop, Functional([0.0, 1.0]))
    assert np.max(np.abs(image - np.diag([0.0, 1.0]))) <= 1e-13


def test_G_multiplicative_on_random_functionals():
    rng = np.random.default_rng(17)
    wop = unitary_of("ks3")
    a = wop.algebra
    for _ in range(5):
        phi = Functional(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        psi = Functional(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        lhs = _G_map(wop, _convolve(a, phi, psi))
        rhs = _G_map(wop, phi) @ _G_map(wop, psi)
        assert np.linalg.norm(lhs - rhs) <= 1e-11
        star_lhs = _G_map(wop, _functional_star(a, phi))
        assert np.linalg.norm(star_lhs - _G_map(wop, phi).conj().T) <= 1e-11


def test_G_isomorphism_report():
    for name in ("trivial", "kz4", "fz3", "ks3", "fs3"):
        wop = unitary_of(name)
        report = verify_G_isomorphism(wop)
        assert report.overall_pass, [c.name for c in report.checks if not c.passed]
        assert report.max_residual() <= 1e-11


def test_fourier_of_unit_is_haar():
    for name in ("kz3", "fs3"):
        a = preset(name)
        h = compute_haar(a)
        assert np.max(np.abs(_fourier(a, h, a.unit).coords - h.coords)) <= 1e-13


def test_fourier_on_z2_group_algebra():
    a = preset("kz2")
    h = compute_haar(a)
    image = _fourier(a, h, [0.0, 1.0])  # haar(u_e u_g) = 0, haar(u_g u_g) = 1
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
    h = wop.haar
    lhs = _G_map(wop, _fourier(wop.algebra, h, [0.0, 1.0]))
    assert np.max(np.abs(lhs - np.diag([0.0, 1.0]))) <= 1e-13
    rep6 = verify_fourier_slice_identity(unitary_of("ks3"))
    assert rep6.max_residual() <= 1e-12


def test_G_isomorphism_residuals_match_convolution_loops(basis_changed):
    # replacing the slice images by random matrices makes every defect O(1);
    # the reference applies _convolve and _functional_star to each basis functional
    from dataclasses import replace

    a = basis_changed(preset("ks3"), 6)
    n = a.dim
    rng = np.random.default_rng(8)
    images = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    wop = replace(orthonormal_unitary(a), slice_basis=images)
    a = wop.algebra  # the slice map starts from the dual of the orthonormal algebra
    basis = [Functional(np.eye(n)[i]) for i in range(n)]
    expected = {
        "unit_of_dual_goes_to_identity": np.linalg.norm(
            _G_map(wop, Functional(a.counit)) - np.eye(n)
        ),
        "multiplicative_for_convolution": max(
            np.linalg.norm(_G_map(wop, _convolve(a, phi, psi)) - _G_map(wop, phi) @ _G_map(wop, psi))
            for phi in basis
            for psi in basis
        ),
        "star_compatible": max(
            np.linalg.norm(_G_map(wop, _functional_star(a, phi)) - _G_map(wop, phi).conj().T)
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
            np.conj(phi(apply_star(a, a.antipode.T @ np.eye(a.dim)[j]))) for j in range(a.dim)
        ]
        got = _functional_star(a, phi).coords
        assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected))), name


def test_intertwines_coproducts_is_certified_and_falls_back_to_the_exact_distance(basis_changed):
    # a valid context reports the certified bound; slice images that are not the
    # slices of W make the bound exceed tol, and the exact distance is reported
    from dataclasses import replace

    wop = orthonormal_unitary(basis_changed(preset("ks3"), 6))
    a = wop.algebra
    check = verify_G_isomorphism(wop).check("intertwines_coproducts")
    assert check.detail == "certified upper bound on the residual" and check.residual <= 1e-12
    rng = np.random.default_rng(8)
    images = wop.slice_basis + 1e-4 * rng.standard_normal(wop.slice_basis.shape)
    bad = replace(wop, slice_basis=images, dual_span=span_basis(images))
    check = verify_G_isomorphism(bad).check("intertwines_coproducts")
    coeffs, remainders = bad.dual_coproduct_coords
    r = bad.dual_span.q.conj().T @ images.reshape(a.dim, -1).T
    pairs = r @ a.mult.transpose(2, 0, 1) @ r.T
    exact = np.sqrt(np.linalg.norm(coeffs - pairs, axis=(1, 2)) ** 2 + remainders ** 2).max()
    assert check.detail.startswith("exact contraction; certified bound") and not check.passed
    assert check.residual == exact
