"""Command-line interface: degree certificates, range sweeps, transforms,
and brute-force verification.

Every subcommand prints deterministic output: JSON for single results and
reports, CSV (fixed column order, mandatory header) for sweeps, with
`sweep --json` switching the sweep to JSON.  All rationals cross the
boundary as exact "p/q" strings.  The library validates every instance
(`properties.check_instance`), and `sweep` is one call to
`degreelp.sweep`, which solves each distinct LP once.  The four file
transforms (symmetrize, extend, restrict, andor-reduce) share one handler,
`cmd_transform`, over `_TRANSFORMS`: each command's input kind and
transform.  An --n given to andor-reduce or to verify on a y-polynomial
must match the file's n.  `_SUBCOMMANDS` lists every subcommand with its
options, in --help order, and `build_parser` builds the one parser from
it.  `main` parses with one parser per process, built on its first call
(argparse keeps no per-call state in it), so a process that calls `main`
many times pays for the parser once.  Exit codes: 0 success, 1 a
requested assertion failed (--assert-flat, or a failing verify), 2 bad
arguments or malformed input files, 3 enumeration budget exceeded (the
sweep's count of range sizes too).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

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


def _m_range(text: str) -> range:
    """Parse '4' or '3..6' into the range of sizes to sweep, unbuilt:
    `sweep` counts it against the enumeration budget first."""
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
    return range(lo, hi + 1)


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


def _matching_n(n: Optional[int], poly: Union[XPolynomial, YPolynomial]):
    """The file's polynomial, after refusing an --n that differs from its n."""
    if n is not None and n != poly.n:
        raise ValueError(f"--n {n} does not match the file's n = {poly.n}")
    return poly


# the file transforms: command -> (the input kind, its name, the transform)
_TRANSFORMS = {
    "symmetrize": (YPolynomial, "a y-polynomial", lambda poly, args: symmetrize(poly)),
    "extend": (SymPolynomial, "a z-polynomial", lambda poly, args: extend(poly, args.target_m)),
    "restrict": (SymPolynomial, "a z-polynomial", lambda poly, args: restrict(poly, args.target_m)),
    "andor-reduce": (XPolynomial, "an x-polynomial", lambda poly, args: substitute(_matching_n(args.n, poly))),
}


def cmd_transform(args: argparse.Namespace) -> int:
    """Load --input, check its kind and write the command's transform of it."""
    kind, name, transform = _TRANSFORMS[args.command]
    poly = load_polynomial(args.input)
    if not isinstance(poly, kind):
        raise ValueError(f"{args.command} expects {name} file")
    _emit(dumps_polynomial(transform(poly, args)), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    prop = _resolve_property(args)
    poly = load_polynomial(args.input)
    if isinstance(poly, YPolynomial):
        n, m = _matching_n(args.n, poly).n, poly.m
    elif isinstance(poly, SymPolynomial):
        if args.n is None:
            raise ValueError("verifying a z-polynomial needs --n (the domain size)")
        n, m = args.n, poly.m
    else:
        raise ValueError("verify expects a y- or z-polynomial file")
    report = verify_approximation(poly, prop, n, m, args.eps)
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.output)
    return 0 if report.passed else 1


_INPUT = ("--input", {"type": Path, "required": True})
_N = ("--n", {"type": int, "required": True, "help": "domain size"})
_TARGET_M = ("--target-m", {"type": int, "required": True, "help": "new variable count"})
_EPS = ("--eps", {"type": _fraction, "default": Fraction(1, 3), "help": "error bound (exact rational, default 1/3)"})
_OUTPUT = ("--output", {"type": Path, "help": "write here instead of stdout"})

# every subcommand in --help order: its help, its handler, whether it takes
# the property group, and its other options in order
_SUBCOMMANDS = (
    ("degree", "certify the approximate degree of one instance", cmd_degree, True,
     (_N, ("--m", {"type": int, "required": True, "help": "range size"}), _EPS, _OUTPUT)),
    ("sweep", "certify degrees across a range of m values", cmd_sweep, True,
     (_N, ("--m", {"type": _m_range, "required": True, "help": "range sizes, e.g. 3..6"}), _EPS,
      ("--assert-flat", {"action": "store_true", "help": "exit 1 unless d* is identical across the sweep"}),
      _OUTPUT, ("--json", {"action": "store_true", "help": "emit JSON instead of CSV"}))),
    ("symmetrize", "average a y-polynomial into a z-polynomial", cmd_transform, False,
     (_INPUT, _OUTPUT)),
    ("extend", "reinterpret a z-polynomial over more variables", cmd_transform, False,
     (_INPUT, _TARGET_M, _OUTPUT)),
    ("restrict", "drop the z-polynomial variables beyond a count", cmd_transform, False,
     (_INPUT, _TARGET_M, _OUTPUT)),
    ("andor-reduce", "substitute indicators into an x-polynomial", cmd_transform, False,
     (_INPUT, ("--n", {"type": int, "help": "cross-check the file's group count"}), _OUTPUT)),
    ("verify", "brute-force check of an approximation claim", cmd_verify, True,
     (_INPUT, ("--n", {"type": int, "help": "domain size (required for z-polynomials; must match a y-polynomial file)"}),
      _EPS, _OUTPUT)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every `main`
    call: nothing may mutate it."""
    parser = argparse.ArgumentParser(
        prog="symdeg",
        description=(
            "Exact approximate-degree certificates for symmetric properties "
            "of functions between finite sets"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, takes_property, options in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        if takes_property:
            _add_property_arguments(p)
        for flag, settings in options:
            p.add_argument(flag, **settings)
        p.set_defaults(handler=handler)
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
