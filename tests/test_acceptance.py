"""Acceptance criteria: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import json
import time

import numpy as np

from fqg import (
    build_dual,
    compute_haar,
    gns_construct,
    group_algebra,
    group_preset,
    is_hopf_star_automorphism,
    pentagon_residual,
    preset,
    resolve_automorphisms,
    verify_hopf_star_axioms,
)
from fqg.actions import (
    action_axioms_report,
    verify_action_intertwiner,
    verify_slice_commutativity,
    verify_strong_right_invariance,
)
from fqg.builders import algebra_to_json, permutation_matrix
from fqg.cli import main as cli_main
from fqg.duality import verify_G_isomorphism
from fqg.groups import cyclic_group, symmetric_group_3
from fqg.haar import haar_nullspace_dimension
from fqg.multiplicative import (
    build_dual_subspace,
    verify_antipode_relation,
    verify_coproduct_implemented,
    verify_dual_coproduct_identities,
    verify_unitarity,
)

from conftest import (
    dual_subspace_commutativity_defect,
    enumerate_group_automorphisms,
    identity_antipode_control,
    orthonormal_context,
    orthonormal_unitary,
)

PRESET_FAMILY = [
    "trivial",
    "kz2", "kz3", "kz4", "kz5", "kz6",
    "fz2", "fz3", "fz4", "fz6",
    "ks3", "fs3",
    "dual:fs3",
]

_UNITARY_CACHE = {}


def unitary_of(name):
    if name not in _UNITARY_CACHE:
        _UNITARY_CACHE[name] = orthonormal_unitary(preset(name))
    return _UNITARY_CACHE[name]


def verdict(index, label, ok):
    print(f"ACCEPTANCE {index:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {index} ({label}) failed"


def test_01_axiom_suite_on_all_presets():
    start = time.perf_counter()
    worst = 0.0
    for name in PRESET_FAMILY:
        report = verify_hopf_star_axioms(preset(name), 1e-9)
        worst = max(worst, report.max_residual())
        if not report.overall_pass:
            verdict(1, "axiom suite", False)
    elapsed = time.perf_counter() - start
    verdict(1, f"axiom suite ({len(PRESET_FAMILY)} presets, max residual {worst:.1e}, {elapsed:.2f}s)",
            worst <= 1e-10 and elapsed < 5.0)


def test_02_haar_states_match_hand_formulas():
    ok = True
    for name in ("trivial", "kz2", "kz3", "kz4", "kz5", "kz6", "ks3"):
        a = preset(name)
        h = compute_haar(a)
        expected = np.zeros(a.dim)
        expected[0] = 1.0
        ok &= float(np.max(np.abs(h.coords - expected))) <= 1e-12
        ok &= haar_nullspace_dimension(a) == 1
        gns = gns_construct(a, h)
        ok &= gns.smallest_gram_eigenvalue() > 0.1 / a.dim
    for name in ("fz2", "fz3", "fz4", "fz5", "fz6", "fs3"):
        a = preset(name)
        h = compute_haar(a)
        ok &= float(np.max(np.abs(h.coords - np.full(a.dim, 1.0 / a.dim)))) <= 1e-12
        ok &= haar_nullspace_dimension(a) == 1
        gns = gns_construct(a, h)
        ok &= gns.smallest_gram_eigenvalue() > 0.1 / a.dim
    verdict(2, "Haar states and Gram positivity", ok)


def test_03_multiplicative_unitary_identity_suite():
    worst = 0.0
    for name in PRESET_FAMILY:
        wop = unitary_of(name)
        worst = max(worst, verify_unitarity(wop).max_residual())
        worst = max(worst, pentagon_residual(wop.w))
        worst = max(worst, verify_antipode_relation(wop).max_residual())
        rep = verify_coproduct_implemented(wop)
        worst = max(worst, rep.residual("coproduct_on_second_leg_of_w"))
        dual_rep = verify_dual_coproduct_identities(wop)
        worst = max(worst, dual_rep.residual("dual_coproduct_on_first_leg_of_w"))
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    cnot_defect = float(np.max(np.abs(unitary_of("kz2").w - cnot)))
    verdict(3, f"unitary identity suite (max residual {worst:.1e})",
            worst <= 1e-10 and cnot_defect <= 1e-14)


def test_04_negative_controls():
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    swap_defect = pentagon_residual(swap)

    data = json.loads(algebra_to_json(preset("kz2")))
    for entry in data["mult"]:
        if entry[:3] == [1, 1, 0]:
            entry[3] = 0.9
    import tempfile, os, contextlib, io

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "broken.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = cli_main(["verify", path])
    verdict(4, f"negative controls (swap pentagon {swap_defect:.2f}, corrupted exit {exit_code})",
            swap_defect > 0.5 and exit_code == 1)


def test_05_duality_and_slice_isomorphism():
    ok = True
    worst = 0.0
    for name in PRESET_FAMILY:
        wop = unitary_of(name)
        dual_space = build_dual_subspace(wop)
        ok &= wop.slice_basis.shape[0] == wop.dim
        report = verify_G_isomorphism(wop)
        worst = max(worst, report.residual("multiplicative_for_convolution"))
        worst = max(worst, report.residual("star_compatible"))
    for name in ("kz3", "fs3", "ks3"):
        a = preset(name)
        double = build_dual(build_dual(a))
        ok &= all(
            np.array_equal(getattr(double, f), getattr(a, f))
            for f in ("mult", "comult", "unit", "counit", "antipode", "star")
        )
    ok &= dual_subspace_commutativity_defect(unitary_of("fs3")) > 0.1
    ok &= dual_subspace_commutativity_defect(unitary_of("ks3")) <= 1e-12
    verdict(5, f"duality (max slice-iso residual {worst:.1e})", ok and worst <= 1e-11)


def _action_pipeline(algebra_name, group_name, kind):
    a = preset(algebra_name)
    k = group_preset(group_name)
    theta = resolve_automorphisms(a, k, kind)
    assert action_axioms_report(a, k, theta).overall_pass
    data = orthonormal_context(a, k, theta)
    return a, theta, data.wop, data


def test_06_strong_right_invariance():
    worst = 0.0
    for names in (("kz3", "z2", "inversion"), ("ks3", "s3", "conjugation")):
        _, _, _, data = _action_pipeline(*names)
        report = verify_strong_right_invariance(data)
        worst = max(worst, report.residual("strong_right_invariance"))
    _, _, _, data_s3 = _action_pipeline("ks3", "s3", "conjugation")
    control = identity_antipode_control(data_s3)
    verdict(6, f"strong right invariance (max {worst:.1e}, control {control:.1e})",
            worst <= 1e-10 and control > 1e-3)


def test_07_exchange_identity():
    worst_exchange = 0.0
    worst_sliced = 0.0
    start = time.perf_counter()
    for names in (("kz3", "z2", "inversion"), ("ks3", "s3", "conjugation")):
        _, _, _, data = _action_pipeline(*names)
        report = verify_action_intertwiner(data)
        worst_exchange = max(worst_exchange, report.residual("intertwiner_exchange"))
        worst_sliced = max(worst_sliced, report.residual("intertwiner_sliced_family"))
    elapsed = time.perf_counter() - start
    verdict(7, f"exchange identity (exchange {worst_exchange:.1e}, sliced {worst_sliced:.1e}, {elapsed:.2f}s)",
            worst_exchange <= 1e-10 and worst_sliced <= 1e-10 and elapsed < 10.0)


def test_08_five_leg_commutation():
    _, _, _, data = _action_pipeline("kz3", "z2", "inversion")
    full = verify_slice_commutativity(data, mode="full")
    ok = full.residual("five_leg_commutation") <= 1e-10
    ok &= "162" in full.check("five_leg_commutation").detail
    ok &= full.residual("dual_coproduct_expansion_of_v") <= 1e-10
    ok &= full.residual("coproduct_expansion_of_v") <= 1e-10

    _, _, _, data6 = _action_pipeline("ks3", "s3", "conjugation")
    sliced = verify_slice_commutativity(data6, mode="sliced")
    ok &= sliced.residual("sliced_commutation") <= 1e-10
    verdict(8, "five-leg commutation (full 162-dim and sliced families)", ok)


def test_09_automorphism_enumeration():
    expected = {"z2": 1, "z3": 2, "z4": 2, "s3": 6}
    groups = {
        "z2": cyclic_group(2),
        "z3": cyclic_group(3),
        "z4": cyclic_group(4),
        "s3": symmetric_group_3(),
    }
    ok = True
    for name, count in expected.items():
        start = time.perf_counter()
        autos = enumerate_group_automorphisms(groups[name])
        elapsed = time.perf_counter() - start
        ok &= len(autos) == count and elapsed < 1.0
        algebra = group_algebra(groups[name])
        for perm in autos:
            ok &= is_hopf_star_automorphism(algebra, permutation_matrix(perm)).overall_pass
    verdict(9, "automorphism enumeration", ok)


def test_10_report_determinism():
    import contextlib, io

    outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(["verify", "ks3", "--format", "json"])
        assert code == 0
        outputs.append(buffer.getvalue())
    verdict(10, "byte-identical reports", outputs[0] == outputs[1])
