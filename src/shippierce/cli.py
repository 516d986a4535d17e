"""Command-line interface.

Exit codes: 0 success/verified, 1 verification failure, 2 input error,
3 resource refusal (span cap or memory guard).  Densities are printed
as reduced fractions except in `bounds`, whose envelope is float by
nature.  Family arguments accept either inline text ("0,1;0,2,4") or
"@path" to read the one-ship-per-line file format.  The default span
cap can be overridden with the SHIPPIERCE_SPAN_CAP environment
variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import closed_forms, constructions, search
from .core import Family, ParseError, format_density, parse_family, parse_family_2d, parse_family_file
from .solver import DEFAULT_SPAN_CAP, MemoryGuardError, SpanCapError, exact_density
from .verifier import (
    Pattern2D,
    parse_pattern_1d,
    parse_pattern_2d,
    verify_pattern_1d,
    verify_pattern_2d,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_REFUSED = 3


def _default_span_cap() -> int:
    raw = os.environ.get("SHIPPIERCE_SPAN_CAP")
    if raw is None:
        return DEFAULT_SPAN_CAP
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"bad SHIPPIERCE_SPAN_CAP value {raw!r}")


def _read_family(spec: str) -> Family:
    if spec.startswith("@"):
        return parse_family_file(spec[1:])
    return parse_family(spec)


def _emit(args, plain_lines, payload) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in plain_lines:
            print(line)


def _vector(text: str) -> tuple[int, int]:
    try:
        x, y = (int(tok) for tok in text.split(","))
        return (x, y)
    except ValueError:
        raise ParseError(f"bad vector {text!r}; expected 'x,y'")


def cmd_density(args) -> int:
    family = _read_family(args.family)
    result = exact_density(family, span_cap=args.span_cap)
    _emit(
        args,
        [
            f"density {format_density(result.density)}",
            f"pattern {result.pattern}",
            f"nodes {result.node_count}",
            f"cycle {result.cycle_length}",
            f"window {result.window_length}",
            f"scale {result.scale}",
        ],
        {
            "density": format_density(result.density),
            "pattern": str(result.pattern),
            "nodes": result.node_count,
            "cycle": result.cycle_length,
            "window": result.window_length,
            "scale": result.scale,
        },
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.two_d:
        pattern = parse_pattern_2d(args.pattern)
        family = parse_family_2d(args.family)
        witness = verify_pattern_2d(pattern, family)
    else:
        pattern = parse_pattern_1d(args.pattern)
        family = _read_family(args.family)
        witness = verify_pattern_1d(pattern, family)
    if witness is None:
        _emit(args, ["ok"], {"pierces": True})
        return EXIT_OK
    ship_idx, offset = witness
    _emit(
        args,
        [f"miss ship {ship_idx} offset {offset}"],
        {"pierces": False, "ship": ship_idx, "offset": list(offset) if isinstance(offset, tuple) else offset},
    )
    return EXIT_VERIFY_FAILED


def cmd_search(args) -> int:
    report = search.compute_extremes(
        n=args.n,
        k=args.k,
        span_budget=args.max_span,
        span_cap=args.span_cap,
        workers=args.workers,
        results_path=args.out,
        checkpoint_every=args.checkpoint_every,
    )
    _emit(
        args,
        [
            f"families {report.families_examined} raw {report.families_raw}",
            f"max {format_density(report.max_density)} witness {report.max_witness}",
            f"min {format_density(report.min_density)} witness {report.min_witness}",
        ],
        {
            "families": report.families_examined,
            "raw": report.families_raw,
            "max": format_density(report.max_density),
            "max_witness": str(report.max_witness),
            "min": format_density(report.min_density),
            "min_witness": str(report.min_witness),
        },
    )
    return EXIT_OK


def cmd_mirror_triples(args) -> int:
    report = search.check_mirror_triples(span_cap=args.span_cap)
    lines = [
        f"{row.a},{row.b}\t{row.family}\t{format_density(row.density)}" for row in report.rows
    ]
    lines.append(f"all_below_2/5 {str(report.all_below_bound).lower()}")
    lines.append(f"extremes_as_expected {str(report.extremes_as_expected).lower()}")
    _emit(
        args,
        lines,
        {
            "rows": [
                {
                    "a": row.a,
                    "b": row.b,
                    "family": str(row.family),
                    "density": format_density(row.density),
                    "is_extreme": row.is_extreme,
                }
                for row in report.rows
            ],
            "all_below_bound": report.all_below_bound,
            "extremes_as_expected": report.extremes_as_expected,
        },
    )
    return EXIT_OK if report.all_below_bound and report.extremes_as_expected else EXIT_VERIFY_FAILED


def cmd_formula(args) -> int:
    if args.kind == "pair22":
        family = _read_family(args.family)
        ships = family.ships
        if len(ships) == 1:
            ships = (ships[0], ships[0])
        if len(ships) != 2:
            raise ParseError("pair22 needs exactly two ships")
        value = closed_forms.two_2ships_density(*ships)
    elif args.kind == "toughest2":
        value = closed_forms.toughest_2ships_value(args.n)
    elif args.kind == "easiest":
        value = closed_forms.easiest_value(args.n, args.k)
    elif args.kind == "pair22-2d":
        value = closed_forms.two_2ships_density_2d(_vector(args.u), _vector(args.v))
    elif args.kind == "mirror3-2d":
        value = closed_forms.three_ship_reflection_2d(
            _vector(args.u), _vector(args.v), span_cap=args.span_cap
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown formula {args.kind!r}")
    _emit(args, [format_density(value)], {"value": format_density(value)})
    return EXIT_OK


def cmd_bounds(args) -> int:
    report = closed_forms.density_bounds(args.n, args.k)
    upper_line = (
        f"upper {report.upper_rational_part}"
        if report.upper == float(report.upper_rational_part)
        else f"upper {report.upper!r}"
    )
    _emit(
        args,
        [
            f"lower {report.lower!r}" + (" (vacuous)" if report.vacuous_lower else ""),
            upper_line,
            f"upper_float {report.upper!r}",
        ],
        {
            "n": report.n,
            "k": report.k,
            "lower": report.lower,
            "upper": report.upper,
            "upper_rational_part": str(report.upper_rational_part),
            "vacuous_lower": report.vacuous_lower,
        },
    )
    return EXIT_OK


def cmd_construct(args) -> int:
    if args.kind == "greedy":
        gaps = [int(tok) for tok in args.gaps.split(",")]
        pattern, density = constructions.greedy_two_sided(gaps, horizon=args.horizon)
    elif args.kind == "slab":
        pattern, density = constructions.slab_pattern(args.a, args.b)
    elif args.kind == "easiest":
        family, pattern = constructions.easiest_family(args.n, args.k)
        density = pattern.density
        _emit(
            args,
            [f"family {family}", f"pattern {pattern}", f"density {format_density(density)}"],
            {"family": str(family), "pattern": str(pattern), "density": format_density(density)},
        )
        return EXIT_OK
    elif args.kind == "ref":
        pattern = constructions.reference_pattern(args.name, n=args.n)
        density = pattern.density
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown construction {args.kind!r}")
    _emit(
        args,
        [f"pattern {pattern}", f"density {format_density(density)}"],
        {"pattern": str(pattern), "density": format_density(density)},
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shippierce",
        description="Exact minimum-density piercing patterns for ship families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_span_cap(p):
        p.add_argument(
            "--span-cap",
            type=int,
            default=None,
            help=f"max reduced window length (default {DEFAULT_SPAN_CAP}, "
            "or SHIPPIERCE_SPAN_CAP)",
        )

    p = sub.add_parser("density", help="exact minimum piercing density")
    p.add_argument("family", help='family text like "0,1;0,2,4" or @file')
    add_span_cap(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("verify", help="check a pattern against a family")
    p.add_argument("family", help="family text (2D with --2d) or @file")
    p.add_argument("--pattern", required=True, help='"p:r1,r2" or "p,q:(i,j),..."')
    p.add_argument("--2d", dest="two_d", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="extremes over all families of a type")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-span", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="results file (resumable)")
    p.add_argument("--checkpoint-every", type=int, default=500, help="flush --out every N new lines")
    add_span_cap(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "mirror-triples",
        help="exact densities of {[0,a,a+b], mirror} for all b < a <= 5",
    )
    add_span_cap(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mirror_triples)

    p = sub.add_parser("formula", help="closed-form densities")
    kind = p.add_subparsers(dest="kind", required=True)

    q = kind.add_parser("pair22", help="two 2-cell ships")
    q.add_argument("family")
    q.add_argument("--json", action="store_true")

    q = kind.add_parser("toughest2", help="toughest n 2-cell ships: n/(n+1)")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--json", action="store_true")

    q = kind.add_parser("easiest", help="easiest n k-cell ships: 1/k")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--json", action="store_true")

    q = kind.add_parser("pair22-2d", help="two planar 2-cell ships")
    q.add_argument("--u", required=True, help="vector x,y")
    q.add_argument("--v", required=True, help="vector x,y")
    q.add_argument("--json", action="store_true")

    q = kind.add_parser("mirror3-2d", help="planar 3-cell ship with mirror")
    q.add_argument("--u", required=True, help="vector x,y")
    q.add_argument("--v", required=True, help="vector x,y")
    add_span_cap(q)
    q.add_argument("--json", action="store_true")

    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("bounds", help="toughest-instance density envelope")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("construct", help="explicit piercing patterns")
    kind = p.add_subparsers(dest="kind", required=True)

    q = kind.add_parser("greedy", help="greedy sweep for gap family")
    q.add_argument("--gaps", required=True, help="comma-separated gaps, e.g. 1,2")
    q.add_argument("--horizon", type=int, default=None)
    q.add_argument("--json", action="store_true")

    q = kind.add_parser("slab", help="slab pattern for [0,a,a+b] and mirror")
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--json", action="store_true")

    q = kind.add_parser("easiest", help="easiest family and its pattern")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--json", action="store_true")

    q = kind.add_parser("ref", help="named reference pattern")
    q.add_argument("name")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--json", action="store_true")

    p.set_defaults(func=cmd_construct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "span_cap", None) is None:
        try:
            args.span_cap = _default_span_cap()
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (SpanCapError, MemoryGuardError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
