"""Command-line interface: degree certificates, range sweeps, transforms,
and brute-force verification.

Every subcommand prints deterministic output: JSON for single results and
reports, CSV (fixed column order, mandatory header) for sweeps, with
`sweep --json` switching the sweep to JSON.  All rationals cross the
boundary as exact "p/q" strings.  The library validates every instance
(`properties.check_instance`), and `sweep` is one call to
`degreelp.sweep`, which solves each distinct LP once.  Exit codes: 0
success, 1 a requested assertion failed (--assert-flat, or a failing
verify), 2 bad arguments or malformed input files, 3 enumeration budget
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .andor import XPolynomial, substitute
from .budget import BudgetExceededError
from .degreelp import approx_degree, sweep
from .oracle import verify_approximation
from .properties import (
    BUILTIN_PROPERTIES,
    PropertySpec,
    get_property,
    property_from_file,
)
from .polyio import dumps_polynomial, load_polynomial
from .rangexfer import extend, restrict
from .symmetrize import symmetrize
from .sympoly import SymPolynomial
from .ypoly import YPolynomial


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _m_range(text: str) -> list[int]:
    """Parse '4' or '3..6' into the list of range sizes to sweep."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a range like '3..6': {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    if lo < 1:
        raise argparse.ArgumentTypeError(f"range sizes start at 1: {text!r}")
    return list(range(lo, hi + 1))


def _add_property_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--property",
        choices=sorted(set(BUILTIN_PROPERTIES)),
        help="a built-in property",
    )
    group.add_argument(
        "--property-file",
        type=Path,
        help="JSON file with {'n': N, 'classes': [{'partition': [...], 'label': ...}]}",
    )


def _resolve_property(args: argparse.Namespace) -> PropertySpec:
    if args.property is not None:
        return get_property(args.property)
    return property_from_file(args.property_file)


def _emit(text: str, output: Optional[Path]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text, encoding="utf-8")


def cmd_degree(args: argparse.Namespace) -> int:
    prop = _resolve_property(args)
    cert = approx_degree(prop, args.n, args.m, args.eps)
    _emit(json.dumps(cert.to_dict(), indent=2) + "\n", args.output)
    return 0


_SWEEP_COLUMNS = (
    "property",
    "n",
    "m",
    "eps",
    "d_star",
    "query_lower_bound",
    "eps_min_by_degree",
)


def cmd_sweep(args: argparse.Namespace) -> int:
    certs = sweep(_resolve_property(args), args.n, args.m, args.eps)
    if args.json:
        text = json.dumps([cert.to_dict() for cert in certs], indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_SWEEP_COLUMNS)
        for cert in certs:
            writer.writerow(
                [
                    cert.property_name,
                    cert.n,
                    cert.m,
                    str(cert.eps),
                    cert.degree,
                    cert.query_lower_bound,
                    ";".join(f"{s.degree}={s.eps_min}" for s in cert.steps),
                ]
            )
        text = buffer.getvalue()
    _emit(text, args.output)
    if args.assert_flat:
        degrees = sorted({cert.degree for cert in certs})
        if len(degrees) > 1:
            print(
                f"assert-flat failed: degrees {degrees} across m={args.m[0]}..{args.m[-1]}",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_symmetrize(args: argparse.Namespace) -> int:
    poly = load_polynomial(args.input)
    if not isinstance(poly, YPolynomial):
        raise ValueError("symmetrize expects a y-polynomial file")
    _emit(dumps_polynomial(symmetrize(poly)), args.output)
    return 0


def cmd_extend(args: argparse.Namespace) -> int:
    poly = load_polynomial(args.input)
    if not isinstance(poly, SymPolynomial):
        raise ValueError("extend expects a z-polynomial file")
    _emit(dumps_polynomial(extend(poly, args.target_m)), args.output)
    return 0


def cmd_restrict(args: argparse.Namespace) -> int:
    poly = load_polynomial(args.input)
    if not isinstance(poly, SymPolynomial):
        raise ValueError("restrict expects a z-polynomial file")
    _emit(dumps_polynomial(restrict(poly, args.target_m)), args.output)
    return 0


def cmd_andor_reduce(args: argparse.Namespace) -> int:
    poly = load_polynomial(args.input)
    if not isinstance(poly, XPolynomial):
        raise ValueError("andor-reduce expects an x-polynomial file")
    if args.n is not None and args.n != poly.n:
        raise ValueError(f"--n {args.n} does not match the file's n = {poly.n}")
    _emit(dumps_polynomial(substitute(poly)), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    prop = _resolve_property(args)
    poly = load_polynomial(args.input)
    if isinstance(poly, YPolynomial):
        if args.n is not None and args.n != poly.n:
            raise ValueError(f"--n {args.n} does not match the file's n = {poly.n}")
        n, m = poly.n, poly.m
    elif isinstance(poly, SymPolynomial):
        if args.n is None:
            raise ValueError("verifying a z-polynomial needs --n (the domain size)")
        n, m = args.n, poly.m
    else:
        raise ValueError("verify expects a y- or z-polynomial file")
    report = verify_approximation(poly, prop, n, m, args.eps)
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.output)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symdeg",
        description=(
            "Exact approximate-degree certificates for symmetric properties "
            "of functions between finite sets"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degree", help="certify the approximate degree of one instance")
    _add_property_arguments(p)
    p.add_argument("--n", type=int, required=True, help="domain size")
    p.add_argument("--m", type=int, required=True, help="range size")
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 3), help="error bound (exact rational, default 1/3)")
    p.add_argument("--output", type=Path, help="write here instead of stdout")
    p.set_defaults(handler=cmd_degree)

    p = sub.add_parser("sweep", help="certify degrees across a range of m values")
    _add_property_arguments(p)
    p.add_argument("--n", type=int, required=True, help="domain size")
    p.add_argument("--m", type=_m_range, required=True, help="range sizes, e.g. 3..6")
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 3), help="error bound (exact rational, default 1/3)")
    p.add_argument("--assert-flat", action="store_true", help="exit 1 unless d* is identical across the sweep")
    p.add_argument("--output", type=Path, help="write here instead of stdout")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("symmetrize", help="average a y-polynomial into a z-polynomial")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--output", type=Path, help="write here instead of stdout")
    p.set_defaults(handler=cmd_symmetrize)

    p = sub.add_parser("extend", help="reinterpret a z-polynomial over more variables")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--target-m", type=int, required=True, help="new variable count")
    p.add_argument("--output", type=Path, help="write here instead of stdout")
    p.set_defaults(handler=cmd_extend)

    p = sub.add_parser("restrict", help="drop the z-polynomial variables beyond a count")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--target-m", type=int, required=True, help="new variable count")
    p.add_argument("--output", type=Path, help="write here instead of stdout")
    p.set_defaults(handler=cmd_restrict)

    p = sub.add_parser("andor-reduce", help="substitute indicators into an x-polynomial")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--n", type=int, help="cross-check the file's group count")
    p.add_argument("--output", type=Path, help="write here instead of stdout")
    p.set_defaults(handler=cmd_andor_reduce)

    p = sub.add_parser("verify", help="brute-force check of an approximation claim")
    _add_property_arguments(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--n", type=int, help="domain size (required for z-polynomials; must match a y-polynomial file)")
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 3), help="error bound (exact rational, default 1/3)")
    p.add_argument("--output", type=Path, help="write here instead of stdout")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
