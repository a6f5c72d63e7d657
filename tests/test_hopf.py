"""Axiom suite and automorphism recognition on structure-constant algebras."""

import numpy as np
import pytest

from fqg import (
    FiniteHopfStarAlgebra,
    cyclic_group,
    group_algebra,
    is_hopf_star_automorphism,
    preset,
    verify_hopf_star_axioms,
)
from fqg.builders import permutation_matrix

from conftest import enumerate_group_automorphisms


def trivial_algebra():
    one = np.ones((1, 1, 1))
    return FiniteHopfStarAlgebra(
        dim=1,
        basis_labels=("1",),
        mult=one,
        comult=one,
        unit=np.ones(1),
        counit=np.ones(1),
        antipode=np.ones((1, 1)),
        star=np.ones((1, 1)),
        name="scalar",
    )


def corrupted(a, value=0.9):
    mult = a.mult.copy()
    mult[1, 1, 0] = value
    return FiniteHopfStarAlgebra(
        dim=a.dim,
        basis_labels=a.basis_labels,
        mult=mult,
        comult=a.comult,
        unit=a.unit,
        counit=a.counit,
        antipode=a.antipode,
        star=a.star,
        name=a.name + "-corrupted",
    )


def change_of_basis(a, p):
    """The same algebra expressed in the basis given by the columns of p."""
    p_inv = np.linalg.inv(p)
    return FiniteHopfStarAlgebra(
        dim=a.dim,
        basis_labels=a.basis_labels,
        mult=np.einsum("pi,qj,pqr,kr->ijk", p, p, a.mult, p_inv, optimize=True),
        comult=np.einsum("pi,pjk,aj,bk->iab", p, a.comult, p_inv, p_inv, optimize=True),
        unit=p_inv @ a.unit,
        counit=a.counit @ p,
        antipode=np.einsum("pi,pq,kq->ik", p, a.antipode, p_inv, optimize=True),
        star=np.einsum("pi,pq,kq->ik", np.conj(p), a.star, p_inv, optimize=True),
        name=a.name + "-rebased",
    )


def test_trivial_algebra_passes_with_zero_residuals():
    report = verify_hopf_star_axioms(trivial_algebra())
    assert report.overall_pass
    assert report.max_residual() == 0.0


def test_group_algebra_z2_passes_tightly():
    report = verify_hopf_star_axioms(preset("kz2"))
    assert report.overall_pass
    assert report.max_residual() <= 1e-14


def test_corrupted_structure_constant_is_detected():
    report = verify_hopf_star_axioms(corrupted(preset("kz2")))
    assert not report.overall_pass
    failed = {c.name for c in report.checks if not c.passed}
    assert failed & {"associativity", "antipode_law_left", "antipode_law_right", "unit_law_left"}


def test_every_axiom_name_present():
    names = {c.name for c in verify_hopf_star_axioms(preset("kz3")).checks}
    for expected in (
        "associativity", "coassociativity", "counit_law_left", "antipode_law_left",
        "star_involutive", "star_antimultiplicative", "antipode_involutive",
        "antipode_star_commute", "comult_multiplicative", "comult_star",
    ):
        assert expected in names


def test_identity_is_an_automorphism():
    a = preset("kz3")
    assert is_hopf_star_automorphism(a, np.eye(3)).overall_pass


def test_group_inversion_is_automorphism_of_abelian_group_algebra():
    a = preset("kz3")
    t = permutation_matrix(cyclic_group(3).inverses())
    report = is_hopf_star_automorphism(a, t)
    assert report.overall_pass
    assert report.max_residual() <= 1e-13


def test_shift_permutation_fails_on_unit():
    a = preset("kz3")
    t = permutation_matrix([1, 2, 0])  # sends the identity basis vector elsewhere
    report = is_hopf_star_automorphism(a, t)
    assert not report.overall_pass
    assert not report.check("unit_preserved").passed


def test_automorphism_set_closed_under_composition_and_inverse():
    for group in (cyclic_group(3), cyclic_group(4)):
        a = group_algebra(group)
        mats = [permutation_matrix(p) for p in enumerate_group_automorphisms(group)]
        for s in mats:
            assert is_hopf_star_automorphism(a, np.linalg.inv(s), 1e-8).overall_pass
            for t in mats:
                assert is_hopf_star_automorphism(a, s @ t, 1e-8).overall_pass


def test_axiom_pass_is_basis_covariant():
    rng = np.random.default_rng(11)
    a = preset("kz3")
    p = np.eye(3) + 0.2 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    cond = np.linalg.cond(p)
    assert cond < 3.0  # well-conditioned change of basis
    rebased = change_of_basis(a, p)
    scaled_tol = 1e-9 * cond ** 3
    assert verify_hopf_star_axioms(rebased, scaled_tol).overall_pass
    q = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
    bad = change_of_basis(corrupted(preset("kz2")), q)
    assert not verify_hopf_star_axioms(bad, scaled_tol).overall_pass


def test_structural_shape_errors_raise():
    from fqg import StructuralError

    with pytest.raises(StructuralError):
        FiniteHopfStarAlgebra(
            dim=2,
            basis_labels=("a", "b"),
            mult=np.zeros((2, 2, 3)),
            comult=np.zeros((2, 2, 2)),
            unit=np.zeros(2),
            counit=np.zeros(2),
            antipode=np.eye(2),
            star=np.eye(2),
        )
    with pytest.raises(StructuralError):
        is_hopf_star_automorphism(preset("kz2"), np.eye(3))


def test_the_algebra_copies_the_caller_arrays():
    # the algebra freezes its own copy; the caller's complex C-contiguous
    # arrays, which np.asarray would hand through unchanged, stay writable
    a = preset("kz2")
    fields = ("mult", "comult", "unit", "counit", "antipode", "star")
    given = {f: np.array(getattr(a, f), dtype=complex) for f in fields}
    built = FiniteHopfStarAlgebra(dim=2, basis_labels=a.basis_labels, **given)
    for f in fields:
        assert given[f].flags.writeable, f
        assert not getattr(built, f).flags.writeable, f
        assert getattr(built, f) is not given[f], f
