"""Shared test helpers."""

import numpy as np
import pytest

from fqg import FiniteHopfStarAlgebra


def basis_change_matrix(n: int, seed: int) -> np.ndarray:
    """A seeded random complex P = U diag(s) V* with Haar-random unitaries U, V
    and s in [1, 4], so its condition number stays below 4."""
    rng = np.random.default_rng(seed)

    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return q

    return (unitary() * rng.uniform(1.0, 4.0, size=n)) @ unitary().conj().T


def change_basis(a: FiniteHopfStarAlgebra, seed: int) -> FiniteHopfStarAlgebra:
    """``a`` in the basis f_b = sum_i P[i, b] e_i for P = basis_change_matrix(n, seed).

    With Q = P^-1, old coordinates are P y; an automorphism theta becomes Q theta P.
    """
    n = a.dim
    p = basis_change_matrix(n, seed)
    q = np.linalg.inv(p)
    return FiniteHopfStarAlgebra(
        dim=n,
        basis_labels=tuple(f"f{i}" for i in range(n)),
        mult=np.einsum("ia,jb,ijk,ck->abc", p, p, a.mult, q),
        comult=np.einsum("ia,ijk,bj,ck->abc", p, a.comult, q, q),
        unit=q @ a.unit,
        counit=a.counit @ p,
        antipode=p.T @ a.antipode @ q.T,
        star=np.conj(p).T @ a.star @ q.T,
        name=a.name,
    )


@pytest.fixture
def basis_changed():
    return change_basis
