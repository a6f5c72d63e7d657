"""Command-line front end.

Commands:

- fqg verify <preset|file> [--tol T] [--format text|json] [--only GLOB ...]
- fqg action <preset|file|action-spec.json> [--group <preset|file>]
      [--automorphisms inversion|conjugation|file] [--mode auto|full|sliced]
      [--tol T] [--format text|json] [--only GLOB ...]
- fqg preset <name> -o <path>
- fqg dual <preset|file> -o <path>

``--only`` selects the suite stages to run: a stage runs when one of the
globs can match a check name under its prefix, and the guards before it run
too, so an abort there is reported as in the full run.  A stage that is not
selected is not run, so an overflow or LinAlgError inside it does not end
the run.  The report holds the checks the globs match and those that ended
the run (an abort, or failed action axioms).  Stages that share a certificate
compute all of it: ``pentagon/*`` and ``coproduct_via_w/*`` also bound the dual
coproducts, which ``dual_coproduct/*`` and ``slice_isomorphism/*`` report.

Exit codes: 0 all reported checks pass, 1 at least one check failed,
2 structural error (bad file, non-finite number, unknown preset, bad flags,
an ``--only`` that reports no check, a linear-algebra routine or
floating-point overflow that fails on the input in a stage that runs, a
``--mode full`` too large to run, or an input too large to allocate or index).

Reports are deterministic: the same input and configuration produce
byte-identical output (no timestamps).  The provenance sha256 hashes
``json.dumps([format_version, name, dim, basis_labels])``, the six structure arrays as
C-order little-endian complex128 bytes with each zero entry as +0, and for an action the
C-order bytes of the group table and theta.  It tells two inputs apart exactly when the
text of ``algebra_to_json`` does.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import builders
from .duality import build_dual
from .errors import StructuralError
from .hopf import DEFAULT_TOL
from .report import VerificationReport
from .suite import action_suite, full_suite

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_STRUCTURAL = 2


def _provenance(args, a, *arrays) -> dict:
    """The report's provenance block; see the module docstring for its sha256."""
    header = json.dumps([builders.FORMAT_VERSION, a.name, a.dim, a.basis_labels])
    digest = hashlib.sha256(header.encode())
    for x in (a.mult, a.comult, a.unit, a.counit, a.antipode, a.star):
        digest.update(np.where(x == 0, 0, x).astype("<c16", copy=False).tobytes())
    for array in arrays:
        digest.update(array.tobytes())
    return {
        "input": args.input,
        "sha256": digest.hexdigest(),
        "tolerance": args.tol,
        "mode": getattr(args, "mode", None),
        "format_version": builders.FORMAT_VERSION,
    }


def _emit(report: VerificationReport, provenance: dict, fmt: str, only) -> int:
    if only and not report.checks:  # a mistyped glob must not pass vacuously
        raise StructuralError(f"--only matched no check: {', '.join(only)}")
    if fmt == "json":
        print(report.format_json(provenance))
    else:
        print(f"input: {_printable(provenance['input'])}  tolerance: {provenance['tolerance']:g}")
        print(report.format_text())
    return EXIT_OK if report.overall_pass else EXIT_CHECKS_FAILED


def _cmd_verify(args) -> int:
    algebra = builders.resolve_algebra(args.input)
    report = full_suite(algebra, tol=args.tol, only=args.only)
    return _emit(report, _provenance(args, algebra), args.format, args.only)


def _cmd_action(args) -> int:
    data = builders.name_or_file(args.input, "algebra")
    if isinstance(data, dict) and "automorphisms" in data:
        if args.group or args.automorphisms:
            raise StructuralError(
                "when an action spec file is given, --group/--automorphisms must be omitted"
            )
        spec, base_dir = builders.action_spec_from_json_dict(data), os.path.dirname(args.input)
    elif not args.group or not args.automorphisms:
        raise StructuralError("--group and --automorphisms are required")
    else:
        # the flags spell out the same spec: a --group file holds an inline
        # table, an --automorphisms file a list of matrices
        group = builders.name_or_file(args.group, "group")
        auto = builders.name_or_file(args.automorphisms, "automorphisms")
        spec, base_dir = {"algebra": data, "group": group, "automorphisms": auto}, ""
    algebra = builders.resolve_algebra(spec["algebra"], base_dir)
    k_group = builders.resolve_group(spec["group"])
    theta = builders.resolve_automorphisms(algebra, k_group, spec["automorphisms"])
    report = action_suite(algebra, k_group, theta, tol=args.tol, mode=args.mode, only=args.only)
    return _emit(report, _provenance(args, algebra, k_group.table, theta), args.format, args.only)


def _cmd_preset(args) -> int:
    algebra = builders.preset(args.name)
    builders.save_algebra(algebra, args.output)
    print(f"wrote {_printable(args.name)} to {_printable(args.output)}")
    return EXIT_OK


def _cmd_dual(args) -> int:
    algebra = builders.resolve_algebra(args.input)
    builders.save_algebra(build_dual(algebra), args.output)
    print(f"wrote dual of {_printable(args.input)} to {_printable(args.output)}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``fqg`` argument parser, built once per process: ``parse_args``
    starts every call from a fresh namespace, so nothing carries over."""
    parser = argparse.ArgumentParser(
        prog="fqg", description="Verify finite quantum group identities numerically."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="residual tolerance")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--only", action="append", default=None,
            help="run only the stages whose check names this glob can match (repeatable)",
        )

    p_verify = sub.add_parser("verify", help="run the full identity suite on an algebra")
    p_verify.add_argument("input", help="preset name or algebra JSON file")
    common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_action = sub.add_parser("action", help="verify a finite group action by automorphisms")
    p_action.add_argument("input", help="algebra preset/file, or an action spec JSON file")
    p_action.add_argument("--group", help="acting group preset or inline-table JSON file")
    p_action.add_argument(
        "--automorphisms",
        help="'inversion', 'conjugation', or a JSON file of per-element matrices",
    )
    p_action.add_argument("--mode", choices=("auto", "full", "sliced"), default="auto")
    common(p_action)
    p_action.set_defaults(func=_cmd_action)

    p_preset = sub.add_parser("preset", help="export a preset algebra to JSON")
    p_preset.add_argument("name")
    p_preset.add_argument("-o", "--output", required=True)
    p_preset.set_defaults(func=_cmd_preset)

    p_dual = sub.add_parser("dual", help="export the dual of an algebra to JSON")
    p_dual.add_argument("input", help="preset name or algebra JSON file")
    p_dual.add_argument("-o", "--output", required=True)
    p_dual.set_defaults(func=_cmd_dual)

    return parser


def _printable(text: str) -> str:
    """``text`` with each non-printable character backslash-escaped, so an
    input path cannot put a control sequence on the terminal; printable text
    is unchanged."""
    return "".join(c if c.isprintable() else c.encode("unicode_escape").decode() for c in text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    tol = getattr(args, "tol", 1.0)
    if not (math.isfinite(tol) and tol > 0):
        print("error: tolerance must be positive and finite", file=sys.stderr)
        return EXIT_STRUCTURAL
    try:
        # an overflow or NaN from finite input is a failure of the input, not a residual
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except np.linalg.LinAlgError as exc:
        error = StructuralError(f"linear algebra failed on this input: {exc}")
    except FloatingPointError as exc:
        error = StructuralError(f"floating-point arithmetic failed on this input: {exc}")
    except MemoryError as exc:
        error = StructuralError(f"input too large to allocate: {exc}")
    except (StructuralError, OSError) as exc:
        error = exc
    print(f"error: {_printable(str(error))}", file=sys.stderr)
    return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
