"""Report parity between two checkouts of fqg.

    python tools/report_parity.py dump OUT.json
    python tools/report_parity.py compare A.json B.json [--allow CHECK ...]

``dump`` runs from a checkout root: it imports ``fqg`` from ``src/`` and the
workload generator from ``perfbench/workloads.py`` of the current directory,
writes the seed-1 and seed-2 inputs of every benchmark workload into a
temporary directory, and runs each case, plus a fixed list of preset actions,
five actions that fail their axioms or are refused (``FAILING_ACTIONS``, one
with a list of matrices written beside the inputs) and ``verify <preset>
--tol 1e-15`` for every preset and its dual, through ``fqg.cli.main`` in
process.  At that tolerance every certified bound of ``fqg verify`` reports
its exact computation: the pentagon, ``conjugation_over_basis``,
``coproduct_on_second_leg_of_w``, the first-leg, star-homomorphism and
doubled-span checks of the dual coproduct, ``intertwines_coproducts``, and
coassociativity and multiplicativity on every preset but ``trivial`` and its
dual.  The action cases run at the default tolerance,
where the two four-leg expansions of V report their certified bounds.  It
also runs every preset verify with each ``--only`` pattern of ``ONLY_VERIFY``, at that
tolerance and at ``1e-20``, where the checks at rounding level fail; three
changed copies of ``kz3`` (``ABORTING``), two of whose runs abort at
``gns/`` and ``dual_algebra/haar`` while the third fails checks without an
abort, alone and with each pattern of ``ONLY_VERIFY``; and every preset and
failing action with each pattern of ``ONLY_ACTION``.  The ``written/`` cases
run ``fqg preset <name> -o`` for every preset and its dual, and ``fqg dual
-o`` on the basis-changed Z10 file of ``verify_cyclic``; their stdout is the
text of the written file.  To check a change against its parent, run the
change's copy of this tool from the parent's checkout root.
OUT.json maps each case to its exit code, stdout and stderr.  Run it once in
each checkout, then ``compare``.  Where ``--only`` filters the finished
report, the ``only/`` cases of one dump are the filtered full runs.  Where it
selects the stages to run, they hold the same checks plus those that ended
the run, which a filter drops: the abort of an ``only/aborting/`` case whose
glob selects a stage past it, and the failing ``action/`` checks of an
``only/failing/`` case whose glob does not match them.  Every other case must
match byte for byte.

``compare`` exits 1 on any change of exit code, stderr, provenance, check
names or order, tolerances, verdicts or details, and on a residual change in
a check not matched by ``--allow`` (a check name such as
``slice_isomorphism/intertwines_coproducts``, or an fnmatch glob such as
``'axioms/*'``).  It prints the largest residual change of each allowed check,
absolute and as a fraction of that check's tolerance.  Every case runs with
``--format json``, so stdout that differs is compared field by field.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fnmatch
import io
import json
import os
import sys
import tempfile

import numpy as np

SEEDS = (1, 2)
EXACT_TOL = "1e-15"  # below the rounding allowances of the certified bounds
ROUNDING_TOL = "1e-20"  # fails every check whose residual sits at rounding level
ONLY_VERIFY = (
    "axioms/*", "haar/*", "pentagon/*", "dual_coproduct/*", "dual_algebra/*", "fourier/*",
    "*w_expansion",
)
ONLY_ACTION = ("action/*", "invariance/*", "commutation/*")
PRESET_ACTIONS = (
    [("ks3", "s3", "conjugation", mode) for mode in ("auto", "full", "sliced")]
    + [("fs3", "s3", "conjugation", mode) for mode in ("auto", "sliced")]
    + [(f"kz{n}", "z2", "inversion", mode) for n in (2, 3, 4, 6) for mode in ("full", "sliced")]
    + [(f"fz{n}", "z2", "inversion", "full") for n in (2, 4)]
)
# (algebra, group, automorphisms): the first two fail action/ checks (exit 1),
# the other three are refused before any check (exit 2)
THREE_CYCLE = "identity-and-3-cycle.json"
FAILING_ACTIONS = (
    ("ks3", "z2", "inversion"),
    ("kz3", "z2", THREE_CYCLE),
    ("kz3", "z3", "inversion"),
    ("ks3", "z3", "conjugation"),
    ("dual:kz2", "z2", "inversion"),
)

# kz3 with one structure tensor changed, by file name: a coproduct that fails
# Haar invariance and later checks without an abort, a Gram matrix that is not
# positive, and a dual algebra whose Gram matrix is not positive
ABORTING = {
    "kz3-doubled-comult.json": lambda a: dataclasses.replace(a, comult=2 * a.comult),
    "kz3-negated-star.json": lambda a: dataclasses.replace(a, star=-a.star),
    "kz3-identity-antipode.json": lambda a: dataclasses.replace(a, antipode=np.eye(3)),
}


def _run(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _written(main, argv, path) -> dict:
    """A run of ``argv -o path`` whose stdout is the text written to ``path``."""
    run = _run(main, [*argv, "-o", path])
    with open(path, encoding="utf-8") as fh:
        return {**run, "stdout": fh.read()}


def dump(path: str) -> int:
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    import fqg
    from fqg.cli import main

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        written = os.path.join(tmp, "written.json")
        for name in fqg.preset_names():
            for alg in (name, f"dual:{name}"):
                results[f"written/preset/{alg}"] = _written(main, ["preset", alg], written)
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                inputs = os.path.join(tmp, f"{name}-{seed}")
                cases = workloads.generate(name, seed, inputs)
                os.chdir(inputs)  # case argv names files in the input directory
                try:
                    for case in cases:
                        results[f"{name}/seed{seed}/{case.case_id}"] = _run(main, case.argv)
                        if name == "verify_cyclic":
                            case_id = f"written/dual/{name}/seed{seed}/{case.case_id}"
                            results[case_id] = _written(main, ["dual", case.argv[1]], written)
                finally:
                    os.chdir(root)
        with open(os.path.join(tmp, THREE_CYCLE), "w", encoding="utf-8") as fh:
            # theta_0 = identity, theta_1 = u_g -> u_{g+1} on kz3, rows of [re, im]
            json.dump([[[[float(r == (c + shift) % 3), 0.0] for c in range(3)] for r in range(3)]
                       for shift in (0, 1)], fh)
        for alg, group, kind in FAILING_ACTIONS:
            auto = os.path.join(tmp, kind) if kind == THREE_CYCLE else kind
            argv = ["action", alg, "--group", group, "--automorphisms", auto, "--format", "json"]
            results[f"failing/{alg}-{group}-{kind}"] = _run(main, argv)
            for pattern in ONLY_ACTION:
                case = f"only/failing/{alg}-{group}-{kind}/{pattern}"
                results[case] = _run(main, [*argv, "--only", pattern])
        os.chdir(tmp)  # the provenance names each file as given, so relative to tmp
        try:
            for file_name, change in ABORTING.items():
                fqg.save_algebra(change(fqg.preset("kz3")), file_name)
                argv = ["verify", file_name, "--format", "json"]
                results[f"aborting/{file_name}"] = _run(main, argv)
                for pattern in ONLY_VERIFY:
                    case = f"only/aborting/{file_name}/{pattern}"
                    results[case] = _run(main, [*argv, "--only", pattern])
        finally:
            os.chdir(root)
    for alg, group, kind, mode in PRESET_ACTIONS:
        argv = ["action", alg, "--group", group, "--automorphisms", kind, "--mode", mode]
        argv += ["--format", "json"]
        results[f"preset/{alg}-{group}-{kind}-{mode}"] = _run(main, argv)
        for pattern in ONLY_ACTION:
            case = f"only/preset/{alg}-{group}-{kind}-{mode}/{pattern}"
            results[case] = _run(main, [*argv, "--only", pattern])
    presets = fqg.preset_names()
    for name in [*presets, *(f"dual:{p}" for p in presets)]:
        argv = ["verify", name, "--tol", EXACT_TOL, "--format", "json"]
        results[f"exact/{name}"] = _run(main, argv)
        for tol in (EXACT_TOL, ROUNDING_TOL):
            for pattern in ONLY_VERIFY:
                argv = ["verify", name, "--tol", tol, "--format", "json", "--only", pattern]
                results[f"only/{tol}/{name}/{pattern}"] = _run(main, argv)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"wrote {len(results)} reports to {path}")
    return 0


def _report_differences(case: str, a: dict, b: dict, allow, largest: dict) -> list[str]:
    """What differs between two runs of ``case``; residual changes of checks
    matched by a glob of ``allow`` go into ``largest`` as (absolute, relative to
    the tolerance) instead."""
    problems = [f"{case}: {key} differs" for key in ("exit", "stderr") if a[key] != b[key]]
    if a["stdout"] == b["stdout"]:
        return problems
    try:
        ra, rb = json.loads(a["stdout"]), json.loads(b["stdout"])
    except json.JSONDecodeError:
        return problems + [f"{case}: stdout differs and is not a JSON report"]
    if "checks" not in ra or "checks" not in rb:  # a written algebra file
        return problems + [f"{case}: written text differs"]
    checks_a, checks_b = ra.pop("checks"), rb.pop("checks")
    if ra != rb:
        problems.append(f"{case}: provenance or verdict differs")
    if [c["name"] for c in checks_a] != [c["name"] for c in checks_b]:
        return problems + [f"{case}: check names or order differ"]
    for ca, cb in zip(checks_a, checks_b):
        name = ca["name"]
        for key in ("tolerance", "passed", "detail"):
            if ca[key] != cb[key]:
                problems.append(f"{case}: {name} {key} {ca[key]!r} -> {cb[key]!r}")
        if ca["residual"] == cb["residual"]:
            continue
        allowed = any(fnmatch.fnmatchcase(name, pattern) for pattern in allow)
        if allowed and None not in (ca["residual"], cb["residual"]):
            change = abs(cb["residual"] - ca["residual"])
            relative = change / cb["tolerance"] if cb["tolerance"] else float("inf")
            old = largest.get(name, (0.0, 0.0))
            largest[name] = (max(old[0], change), max(old[1], relative))
        else:
            problems.append(f"{case}: {name} residual {ca['residual']!r} -> {cb['residual']!r}")
    return problems


def compare(path_a: str, path_b: str, allow) -> int:
    with open(path_a, encoding="utf-8") as fh:
        dump_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        dump_b = json.load(fh)
    problems = [f"{case}: present in one dump only" for case in sorted(set(dump_a) ^ set(dump_b))]
    largest: dict[str, tuple[float, float]] = {}
    identical = 0
    for case in sorted(set(dump_a) & set(dump_b)):
        identical += dump_a[case] == dump_b[case]
        problems += _report_differences(case, dump_a[case], dump_b[case], set(allow), largest)
    print(f"{identical} of {len(dump_a)} outputs byte-identical")
    for pattern in sorted(allow):
        if not any(fnmatch.fnmatchcase(name, pattern) for name in largest):
            print(f"largest residual change of {pattern}: 0.000e+00")
    for name, (change, relative) in sorted(largest.items()):
        print(f"largest residual change of {name}: {change:.3e} ({relative:.3e} of its tolerance)")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="run every parity case from this checkout")
    p_dump.add_argument("output")
    p_compare = sub.add_parser("compare", help="compare two dumps")
    p_compare.add_argument("a")
    p_compare.add_argument("b")
    p_compare.add_argument("--allow", action="extend", nargs="+", default=[], metavar="GLOB")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.output)
    return compare(args.a, args.b, args.allow)


if __name__ == "__main__":
    sys.exit(main())
