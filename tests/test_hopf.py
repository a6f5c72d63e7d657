"""Axiom suite and automorphism recognition on structure-constant algebras."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fqg import (
    FiniteHopfStarAlgebra,
    cyclic_group,
    group_algebra,
    is_hopf_star_automorphism,
    preset,
    preset_names,
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
    for t in (np.eye(3), np.eye(2)[None, None], np.ones(2)):  # wrong size, a 4-d stack, a vector
        with pytest.raises(StructuralError):
            is_hopf_star_automorphism(preset("kz2"), t)


@pytest.mark.parametrize("dim", [2.7, 2.0, "2", None])
def test_a_dim_that_is_not_an_integer_is_refused(dim):
    # truncating 2.7 would build a valid 2-dimensional algebra from a wrong dim
    from fqg import StructuralError

    a = preset("kz2")
    fields = ("mult", "comult", "unit", "counit", "antipode", "star")
    with pytest.raises(StructuralError, match="dim"):
        FiniteHopfStarAlgebra(dim=dim, basis_labels=a.basis_labels, **{f: getattr(a, f) for f in fields})
    assert FiniteHopfStarAlgebra(dim=np.int64(2), basis_labels=a.basis_labels,
                                 **{f: getattr(a, f) for f in fields}).dim == 2


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


# -- the matrix-product kernels against reference einsum forms ------------------


def _axiom_oracles(a):
    """Every residual of ``verify_hopf_star_axioms`` in its einsum form, by check name."""
    mult, comult, eye, s_op, star_cols = a.mult, a.comult, np.eye(a.dim), a.antipode.T, a.star.T
    frob = np.linalg.norm
    target = np.outer(a.counit, a.unit)
    return {
        "associativity": frob(np.einsum("ijp,pkl->ijkl", mult, mult, optimize=True)
                              - np.einsum("jkq,iql->ijkl", mult, mult, optimize=True)),
        "unit_law_left": frob(np.einsum("p,pil->il", a.unit, mult) - eye),
        "unit_law_right": frob(np.einsum("p,ipl->il", a.unit, mult) - eye),
        "coassociativity": frob(np.einsum("ipc,pab->iabc", comult, comult, optimize=True)
                                - np.einsum("iaq,qbc->iabc", comult, comult, optimize=True)),
        "counit_law_left": frob(np.einsum("ijk,j->ik", comult, a.counit) - eye),
        "counit_law_right": frob(np.einsum("ijk,k->ij", comult, a.counit) - eye),
        "comult_unital": frob(np.einsum("i,ijk->jk", a.unit, comult) - np.outer(a.unit, a.unit)),
        "comult_multiplicative": frob(
            np.einsum("ijl,lab->ijab", mult, comult, optimize=True)
            - np.einsum("ipq,jrs,pra,qsb->ijab", comult, comult, mult, mult, optimize=True)),
        "comult_star": frob(np.einsum("il,lab->iab", a.star, comult) - np.einsum(
            "ipq,pa,qb->iab", np.conj(comult), a.star, a.star, optimize=True)),
        "counit_unital": abs(complex(a.counit @ a.unit) - 1.0),
        "counit_multiplicative": frob(np.einsum("ijk,k->ij", mult, a.counit)
                                      - np.outer(a.counit, a.counit)),
        "counit_star": frob(a.star @ a.counit - np.conj(a.counit)),
        "star_involutive": frob(np.conj(a.star) @ a.star - eye),
        "star_antimultiplicative": frob(
            np.einsum("ijk,kl->ijl", np.conj(mult), a.star, optimize=True)
            - np.einsum("jp,iq,pql->ijl", a.star, a.star, mult, optimize=True)),
        "antipode_law_left": frob(np.einsum(
            "iab,ap,pbl->il", comult, a.antipode, mult, optimize=True) - target),
        "antipode_law_right": frob(np.einsum(
            "iab,bq,aql->il", comult, a.antipode, mult, optimize=True) - target),
        "antipode_involutive": frob(s_op @ s_op - eye),
        "antipode_star_commute": frob(s_op @ star_cols - star_cols @ np.conj(s_op)),
    }


def _automorphism_oracles(a, t, tol):
    """Every residual of ``is_hopf_star_automorphism`` in its einsum form, by check name."""
    frob = np.linalg.norm
    s_op, star_cols = a.antipode.T, a.star.T
    tol_eff = tol * max(a.structure_scale(), frob(t))
    return {
        "invertible": max(0.0, tol_eff - float(np.linalg.svd(t, compute_uv=False)[-1])),
        "multiplicative": frob(np.einsum("ijm,km->ijk", a.mult, t, optimize=True)
                               - np.einsum("pi,qj,pqk->ijk", t, t, a.mult, optimize=True)),
        "comultiplicative": frob(np.einsum("mi,mab->iab", t, a.comult, optimize=True)
                                 - np.einsum("ipq,ap,bq->iab", a.comult, t, t, optimize=True)),
        "unit_preserved": frob(t @ a.unit - a.unit),
        "counit_preserved": frob(a.counit @ t - a.counit),
        "star_equivariant": frob(t @ star_cols - star_cols @ np.conj(t)),
        "antipode_equivariant": frob(s_op @ t - t @ s_op),
    }


def _assert_matches(report, oracles, tol):
    assert [c.name for c in report.checks] == list(oracles)
    for c in report.checks:
        assert abs(c.residual - oracles[c.name]) <= 1e-13 * max(1.0, c.tolerance / tol), c.name


def _near_identity(n, seed, size=1e-2):
    rng = np.random.default_rng(seed)
    return np.eye(n) + size * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


@pytest.mark.parametrize("name", [*preset_names(), *(f"dual:{p}" for p in preset_names())])
def test_axiom_and_automorphism_kernels_match_their_einsum_forms(name, basis_changed):
    given = preset(name)
    for a in (given, *(basis_changed(given, seed) for seed in (1, 2, 3))):
        _assert_matches(verify_hopf_star_axioms(a), _axiom_oracles(a), 1e-9)
        for t in (np.eye(a.dim), _near_identity(a.dim, 5)):
            _assert_matches(is_hopf_star_automorphism(a, t), _automorphism_oracles(a, t, 1e-9), 1e-9)
        # a stack gives one report per matrix, equal to that matrix's own; the
        # square of a near-identity matrix is not symmetric, so on ks3 and fs3 a
        # stacked law that contracted the wrong index of t would not match
        near = _near_identity(a.dim, 5)
        stack = np.stack([np.eye(a.dim), near, near @ near])
        reports = is_hopf_star_automorphism(a, stack)
        assert len(reports) == 3
        for t, report in zip(stack, reports):
            assert report == is_hopf_star_automorphism(a, t)
            _assert_matches(report, _automorphism_oracles(a, t, 1e-9), 1e-9)


def test_kernels_match_their_einsum_forms_on_a_defect_in_each_structure_tensor(basis_changed):
    # noise on one structure tensor at a time; together the six defects move
    # every residual far from rounding, and a singular t moves ``invertible``
    a = basis_changed(preset("ks3"), 1)
    rng = np.random.default_rng(3)
    largest = {}
    for field in ("mult", "comult", "unit", "counit", "antipode", "star"):
        value = getattr(a, field)
        noise = rng.standard_normal(value.shape) + 1j * rng.standard_normal(value.shape)
        bad = dataclasses.replace(a, **{field: value + 1e-2 * noise})
        reports = [(verify_hopf_star_axioms(bad), _axiom_oracles(bad), 1e-9)]
        for t in (_near_identity(6, 7), np.diag([1.0] * 5 + [0.0])):
            reports.append((is_hopf_star_automorphism(bad, t, 1e-4),
                            _automorphism_oracles(bad, t, 1e-4), 1e-4))
        for report, oracles, tol in reports:
            _assert_matches(report, oracles, tol)
            for c in report.checks:
                largest[c.name] = max(largest.get(c.name, 0.0), c.residual)
    assert len(largest) == 25
    assert min(largest.values()) > 1e-5, min(largest, key=largest.get)


@pytest.mark.parametrize("n", [16, 24])
def test_axioms_hold_at_most_three_n4_arrays(n, basis_changed):
    # both sides of an n^4 law, or the two n^5 halves of comult_multiplicative
    # and their product; the einsum forms held ten
    a = basis_changed(group_algebra(cyclic_group(n)), 1)
    tracemalloc.start()
    try:
        report = verify_hopf_star_axioms(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.overall_pass
    assert peak <= 3.5 * 16 * n ** 4


def test_structure_scale_is_computed_once_per_algebra(monkeypatch):
    from fqg import hopf
    from fqg.tensors import frob

    a = preset("ks3")
    fields = ("mult", "comult", "unit", "counit", "antipode", "star")
    expected = max(1.0, *(frob(getattr(a, f)) for f in fields))
    calls = []
    monkeypatch.setattr(hopf, "frob", lambda x: calls.append(x) or frob(x))
    assert a.structure_scale() == a.structure_scale() == expected
    assert len(calls) == 6
    # replace builds a new algebra, whose scale is its own
    scaled = dataclasses.replace(a, comult=10 * a.comult)
    assert scaled.structure_scale() == frob(10 * a.comult) > expected
    assert len(calls) == 12
