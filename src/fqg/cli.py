"""Command-line front end.

Commands:

- fqg verify <preset|file> [--tol T] [--format text|json] [--only GLOB ...]
- fqg action <preset|file|action-spec.json> [--group <preset|file>]
      [--automorphisms inversion|conjugation|file] [--mode auto|full|sliced]
      [--tol T] [--format text|json] [--only GLOB ...]
- fqg preset <name> -o <path>
- fqg dual <preset|file> -o <path>

Exit codes: 0 all reported checks pass, 1 at least one check failed,
2 structural error (bad file, non-finite number, unknown preset, bad flags,
or a linear-algebra routine that fails on the input).

Reports are deterministic: the same input and configuration produce
byte-identical output (there are no timestamps; the provenance block hashes
the input).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import builders
from .actions import resolve_automorphisms
from .duality import build_dual
from .errors import NumericalFailure, StructuralError
from .report import VerificationReport
from .suite import action_suite, full_suite

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_STRUCTURAL = 2


def _provenance(args, algebra, *arrays) -> dict:
    """The report's provenance block; sha256 hashes ``algebra_to_json`` of the
    algebra, then the C-order bytes of ``arrays`` (action: group table, theta)."""
    digest = hashlib.sha256(builders.algebra_to_json(algebra).encode("utf-8"))
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
    if only:
        report = report.filtered(only)
        if not report.checks:
            # a mistyped glob must not pass vacuously
            raise StructuralError(f"--only matched no check: {', '.join(only)}")
    if fmt == "json":
        payload = {"provenance": provenance, **report.as_dict()}
        print(json.dumps(payload, indent=2))
    else:
        print(f"input: {provenance['input']}  tolerance: {provenance['tolerance']:g}")
        print(report.format_text())
    return EXIT_OK if report.overall_pass else EXIT_CHECKS_FAILED


def _cmd_verify(args) -> int:
    algebra = builders.resolve_algebra(args.input)
    report = full_suite(algebra, tol=args.tol)
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
    auto = spec["automorphisms"]
    if isinstance(auto, list):
        theta = builders.parse_explicit_automorphisms(auto, k_group.order, algebra.dim)
    else:
        theta = resolve_automorphisms(algebra, k_group, auto)
    report = action_suite(algebra, k_group, theta, tol=args.tol, mode=args.mode)
    return _emit(report, _provenance(args, algebra, k_group.table, theta), args.format, args.only)


def _cmd_preset(args) -> int:
    algebra = builders.preset(args.name)
    builders.save_algebra(algebra, args.output)
    print(f"wrote {args.name} to {args.output}")
    return EXIT_OK


def _cmd_dual(args) -> int:
    algebra = builders.resolve_algebra(args.input)
    builders.save_algebra(build_dual(algebra), args.output)
    print(f"wrote dual of {args.input} to {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqg", description="Verify finite quantum group identities numerically."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=1e-9, help="residual tolerance")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--only", action="append", default=None,
            help="glob filter on check names (repeatable)",
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tol = getattr(args, "tol", 1.0)
    if not (math.isfinite(tol) and tol > 0):
        print("error: tolerance must be positive and finite", file=sys.stderr)
        return EXIT_STRUCTURAL
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        error = NumericalFailure(f"linear algebra failed on this input: {exc}")
    except (StructuralError, OSError) as exc:
        error = exc
    print(f"error: {error}", file=sys.stderr)
    return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
