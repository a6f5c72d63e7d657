"""Workload definitions and the seeded input generator.

Every workload is a list of cases.  A case is one ``fqg`` command line whose
inputs are files written here: an algebra JSON for ``fqg verify`` or an
action-spec JSON for ``fqg action``.  The seed picks, for every algebra, a
random complex change of basis ``P`` with condition number below 10; the
program only ever sees the generated files.

Basis change: the new basis is ``f_a = sum_i P[i, a] e_i``, so old
coordinates are ``x = P y`` and with ``Q = P^-1``

    mult'[a,b,c]   = P[i,a] P[j,b] mult[i,j,k] Q[c,k]
    comult'[a,b,c] = P[i,a] comult[i,j,k] Q[b,j] Q[c,k]
    unit'          = Q unit,          counit' = counit P
    antipode'      = P^T antipode Q^T, star'  = conj(P)^T star Q^T
    theta'_k       = Q theta_k P,     haar'   = haar P

Before a file is written the generator checks the input itself: the Haar
coordinates of a transformed algebra must equal ``h P`` to 1e-12, and each
transformed automorphism must pass ``fqg.is_hopf_star_automorphism``.  A
check that later fails in the program is then the program's fault.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

MAX_CONDITION = 10.0
HAAR_COVARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class Case:
    """One command line of a workload; ``argv`` names files in the input dir."""

    case_id: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_presets",
            "fqg verify on 26 presets and duals, as given and basis-changed: "
            "per-call overhead at n<=6",
        ),
        Workload(
            "verify_cyclic",
            "fqg verify on the basis-changed group algebra of Z10: dense "
            "1000x1000 three-leg operators",
        ),
        Workload(
            "action_full",
            "fqg action --mode full, kz6 with Z2 by inversion, basis-changed: "
            "dense five-leg operators on 2592 dims",
        ),
        Workload(
            "action_auto",
            "fqg action in auto mode on 12 basis-changed specs: full for small "
            "n, sliced beyond, rank tests dominate",
        ),
    )
}

# (algebra, acting group, automorphism preset) for action_auto
AUTO_ACTIONS = tuple(
    [(f"kz{n}", "z2", "inversion") for n in range(2, 7)]
    + [(f"fz{n}", "z2", "inversion") for n in range(2, 7)]
    + [("ks3", "s3", "conjugation"), ("fs3", "s3", "conjugation")]
)


def _fqg():
    import fqg

    return fqg


def verify_preset_names() -> tuple[str, ...]:
    names = _fqg().preset_names()
    return tuple(names) + tuple(f"dual:{n}" for n in names)


def random_basis_change(seed: int, key: str, n: int) -> np.ndarray:
    """A complex n x n matrix U diag(s) V* with s in [1, 5]: condition < 10."""
    rng = np.random.default_rng([seed, zlib.crc32(key.encode("utf-8"))])

    def unitary():
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    u, v = unitary(), unitary()
    s = rng.uniform(1.0, 5.0, size=n)
    return (u * s) @ v.conj().T


def change_basis(a, p: np.ndarray):
    """The same Hopf *-algebra written in the basis f_a = sum_i P[i, a] e_i."""
    fqg = _fqg()
    q = np.linalg.inv(p)
    return fqg.FiniteHopfStarAlgebra(
        dim=a.dim,
        basis_labels=tuple(f"f{i}" for i in range(a.dim)),
        mult=np.einsum("ia,jb,ijk,ck->abc", p, p, a.mult, q),
        comult=np.einsum("ia,ijk,bj,ck->abc", p, a.comult, q, q),
        unit=q @ a.unit,
        counit=a.counit @ p,
        antipode=p.T @ a.antipode @ q.T,
        star=np.conj(p).T @ a.star @ q.T,
        name=a.name,
    )


def check_haar_covariance(a, b, p: np.ndarray) -> float:
    """Haar coordinates of ``b = change_basis(a, p)`` must be ``h(a) P``."""
    fqg = _fqg()
    expected = fqg.compute_haar(a).coords @ p
    err = float(np.max(np.abs(fqg.compute_haar(b).coords - expected)))
    if not err <= HAAR_COVARIANCE_TOL * max(1.0, float(np.max(np.abs(expected)))):
        raise RuntimeError(
            f"input self-check: Haar state of {a.name} is not covariant under the "
            f"basis change (error {err:.3e})"
        )
    return err


def _file_stem(name: str) -> str:
    return name.replace(":", "_")


def _algebra_case(seed: int, outdir: str, case_id: str, a, transform: bool) -> str:
    """Write ``a`` (optionally basis-changed) after the self-check; return file name."""
    if transform:
        p = random_basis_change(seed, case_id, a.dim)
        b = change_basis(a, p)
        check_haar_covariance(a, b, p)
    else:
        b = a
    fname = _file_stem(case_id.replace("/", "-")) + ".json"
    _fqg().save_algebra(b, os.path.join(outdir, fname))
    return fname


def _action_case(seed: int, outdir: str, case_id: str, alg: str, group: str, kind: str) -> str:
    """Basis-change the algebra and its automorphisms; write both files."""
    fqg = _fqg()
    a = fqg.preset(alg)
    k_group = fqg.group_preset(group)
    theta = fqg.resolve_automorphisms(a, k_group, kind)
    p = random_basis_change(seed, case_id, a.dim)
    b = change_basis(a, p)
    check_haar_covariance(a, b, p)
    q = np.linalg.inv(p)
    theta_b = np.stack([q @ t @ p for t in theta])
    for k, t in enumerate(theta_b):
        report = fqg.is_hopf_star_automorphism(b, t)
        if not report.overall_pass:
            bad = next(c.name for c in report.checks if not c.passed)
            raise RuntimeError(
                f"input self-check: theta'_{k} of {case_id} is not a Hopf "
                f"*-automorphism ({bad})"
            )
    stem = _file_stem(case_id.replace("/", "-"))
    fqg.save_algebra(b, os.path.join(outdir, stem + ".algebra.json"))
    spec = {
        "format_version": 1,
        "algebra": stem + ".algebra.json",
        "group": group,
        "automorphisms": [
            [[[float(z.real), float(z.imag)] for z in row] for row in t] for t in theta_b
        ],
    }
    fname = stem + ".spec.json"
    with open(os.path.join(outdir, fname), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
        fh.write("\n")
    return fname


def _verify_argv(fname: str) -> tuple[str, ...]:
    return ("verify", fname, "--format", "json")


def generate(workload: str, seed: int, outdir: str) -> list[Case]:
    """Write the inputs of ``workload`` for ``seed`` into ``outdir``; return its cases."""
    fqg = _fqg()
    os.makedirs(outdir, exist_ok=True)
    cases: list[Case] = []
    if workload == "verify_presets":
        for form in ("plain", "basis"):
            for name in verify_preset_names():
                case_id = f"{form}/{name}"
                fname = _algebra_case(seed, outdir, case_id, fqg.preset(name), form == "basis")
                cases.append(Case(case_id, _verify_argv(fname)))
    elif workload == "verify_cyclic":
        a = fqg.group_algebra(fqg.cyclic_group(10), name="kz10")
        fname = _algebra_case(seed, outdir, "basis/kz10", a, True)
        cases.append(Case("basis/kz10", _verify_argv(fname)))
    elif workload == "action_full":
        case_id = "basis/kz6-z2-inversion"
        fname = _action_case(seed, outdir, case_id, "kz6", "z2", "inversion")
        cases.append(Case(case_id, ("action", fname, "--mode", "full", "--format", "json")))
    elif workload == "action_auto":
        for alg, group, kind in AUTO_ACTIONS:
            case_id = f"basis/{alg}-{group}-{kind}"
            fname = _action_case(seed, outdir, case_id, alg, group, kind)
            cases.append(Case(case_id, ("action", fname, "--format", "json")))
    else:
        raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return cases
