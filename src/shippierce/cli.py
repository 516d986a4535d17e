"""Command-line interface.

Exit codes: 0 success/verified, 1 verification failure, 2 input error,
3 resource refusal (span cap or memory guard).  Densities are printed
as reduced fractions except in `bounds`, whose envelope is float by
nature.  Family arguments accept either inline text ("0,1;0,2,4") or
"@path" to read the one-ship-per-line file format.  Every command
accepts --json and then prints one JSON object with sorted keys.
Each cmd_* function returns (exit code, payload, lines) and prints
nothing; main prints the payload under --json and the lines otherwise,
which default to one `key value` line per payload entry.
Commands that take --span-cap default it from the SHIPPIERCE_SPAN_CAP
environment variable when it is set; other commands ignore the
variable.
Importing this module loads only core, solver and verifier, which
`density` and `verify` run.  A command that needs search,
closed_forms or constructions imports it when it runs, so `density`
starts without them and without the process pool that search can use.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .core import Family, ParseError, format_density, parse_family, parse_family_2d, parse_family_file
from .solver import DEFAULT_SPAN_CAP, MemoryGuardError, SpanCapError, exact_density
from .verifier import (
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


def _vector(text: str) -> tuple[int, int]:
    try:
        x, y = (int(tok) for tok in text.split(","))
        return (x, y)
    except ValueError:
        raise ParseError(f"bad vector {text!r}; expected 'x,y'")


def cmd_density(args):
    result = exact_density(_read_family(args.family), span_cap=args.span_cap)
    payload = {
        "density": format_density(result.density),
        "pattern": str(result.pattern),
        "nodes": result.node_count,
        "cycle": result.cycle_length,
        "window": result.window_length,
        "scale": result.scale,
    }
    return EXIT_OK, payload, None


def cmd_verify(args):
    if args.two_d:
        pattern = parse_pattern_2d(args.pattern)
        family = parse_family_2d(args.family)
        witness = verify_pattern_2d(pattern, family)
    else:
        pattern = parse_pattern_1d(args.pattern)
        family = _read_family(args.family)
        witness = verify_pattern_1d(pattern, family)
    if witness is None:
        return EXIT_OK, {"pierces": True}, ["ok"]
    ship_idx, offset = witness
    payload = {"pierces": False, "ship": ship_idx, "offset": offset}
    return EXIT_VERIFY_FAILED, payload, [f"miss ship {ship_idx} offset {offset}"]


def cmd_search(args):
    from . import search

    report = search.compute_extremes(
        n=args.n,
        k=args.k,
        span_budget=args.max_span,
        span_cap=args.span_cap,
        workers=args.workers,
        results_path=args.out,
        checkpoint_every=args.checkpoint_every,
    )
    payload = {
        "families": report.families_examined,
        "raw": report.families_raw,
        "max": format_density(report.max_density),
        "max_witness": str(report.max_witness),
        "min": format_density(report.min_density),
        "min_witness": str(report.min_witness),
    }
    return EXIT_OK, payload, report.summary_lines()


def cmd_mirror_triples(args):
    from . import search

    report = search.check_mirror_triples(span_cap=args.span_cap)
    payload = {
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
    }
    lines = ["{a},{b}\t{family}\t{density}".format_map(row) for row in payload["rows"]]
    lines.append(f"all_below_2/5 {str(report.all_below_bound).lower()}")
    lines.append(f"extremes_as_expected {str(report.extremes_as_expected).lower()}")
    ok = report.all_below_bound and report.extremes_as_expected
    return EXIT_OK if ok else EXIT_VERIFY_FAILED, payload, lines


def cmd_formula(args):
    from . import closed_forms

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
    else:  # mirror3-2d
        value = closed_forms.three_ship_reflection_2d(
            _vector(args.u), _vector(args.v), span_cap=args.span_cap
        )
    text = format_density(value)
    return EXIT_OK, {"value": text}, [text]


def cmd_bounds(args):
    from . import closed_forms

    report = closed_forms.density_bounds(args.n, args.k)
    payload = {**dataclasses.asdict(report), "upper_rational_part": str(report.upper_rational_part)}
    lines = [
        "lower {lower!r}" + (" (vacuous)" if report.vacuous_lower else ""),
        "upper {upper_rational_part}"
        if report.upper == float(report.upper_rational_part)
        else "upper {upper!r}",
        "upper_float {upper!r}",
    ]
    return EXIT_OK, payload, [line.format_map(payload) for line in lines]


def cmd_construct(args):
    from . import constructions

    payload = {}
    if args.kind == "greedy":
        try:
            gaps = [int(tok) for tok in args.gaps.split(",")]
        except ValueError:
            raise ParseError(f"bad --gaps value {args.gaps!r}; expected comma-separated integers")
        pattern = constructions.greedy_two_sided(gaps, horizon=args.horizon)
    elif args.kind == "slab":
        pattern = constructions.slab_pattern(args.a, args.b)
    elif args.kind == "easiest":
        family, pattern = constructions.easiest_family(args.n, args.k)
        payload["family"] = str(family)
    else:  # ref
        pattern = constructions.reference_pattern(args.name, n=args.n)
    payload["pattern"] = str(pattern)
    payload["density"] = format_density(pattern.density)
    return EXIT_OK, payload, None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shippierce",
        description="Exact minimum-density piercing patterns for ship families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = []  # (leaf parser, whether it takes --span-cap)

    def leaf(group, name, help, func, span_cap=False):
        p = group.add_parser(name, help=help)
        p.set_defaults(func=func)
        leaves.append((p, span_cap))
        return p

    p = leaf(sub, "density", "exact minimum piercing density", cmd_density, span_cap=True)
    p.add_argument("family", help='family text like "0,1;0,2,4" or @file')

    p = leaf(sub, "verify", "check a pattern against a family", cmd_verify)
    p.add_argument("family", help="family text (2D with --2d) or @file")
    p.add_argument("--pattern", required=True, help='"p:r1,r2" or "p,q:(i,j),..."')
    p.add_argument("--2d", dest="two_d", action="store_true")

    p = leaf(sub, "search", "extremes over all families of a type", cmd_search, span_cap=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-span", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="results file (resumable)")
    p.add_argument("--checkpoint-every", type=int, default=500, help="flush --out every N new lines")

    mirror_help = "exact densities of {[0,a,a+b], mirror} for all b < a <= 5"
    leaf(sub, "mirror-triples", mirror_help, cmd_mirror_triples, span_cap=True)

    formula = sub.add_parser("formula", help="closed-form densities")
    kind = formula.add_subparsers(dest="kind", required=True)
    q = leaf(kind, "pair22", "two 2-cell ships", cmd_formula)
    q.add_argument("family")
    q = leaf(kind, "toughest2", "toughest n 2-cell ships: n/(n+1)", cmd_formula)
    q.add_argument("--n", type=int, required=True)
    q = leaf(kind, "easiest", "easiest n k-cell ships: 1/k", cmd_formula)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q = leaf(kind, "pair22-2d", "two planar 2-cell ships", cmd_formula)
    q.add_argument("--u", required=True, help="vector x,y")
    q.add_argument("--v", required=True, help="vector x,y")
    q = leaf(kind, "mirror3-2d", "planar 3-cell ship with mirror", cmd_formula, span_cap=True)
    q.add_argument("--u", required=True, help="vector x,y")
    q.add_argument("--v", required=True, help="vector x,y")

    p = leaf(sub, "bounds", "toughest-instance density envelope", cmd_bounds)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    construct = sub.add_parser("construct", help="explicit piercing patterns")
    kind = construct.add_subparsers(dest="kind", required=True)
    q = leaf(kind, "greedy", "greedy sweep for gap family", cmd_construct)
    q.add_argument("--gaps", required=True, help="comma-separated gaps, e.g. 1,2")
    q.add_argument("--horizon", type=int, default=None)
    q = leaf(kind, "slab", "slab pattern for [0,a,a+b] and mirror", cmd_construct)
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q = leaf(kind, "easiest", "easiest family and its pattern", cmd_construct)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q = leaf(kind, "ref", "named reference pattern", cmd_construct)
    q.add_argument("name")
    q.add_argument("--n", type=int, default=None)

    # Every leaf ends with the same options, --span-cap (where taken) then --json.
    for p, span_cap in leaves:
        if span_cap:
            p.add_argument(
                "--span-cap",
                type=int,
                default=None,
                help=f"max reduced window length (default {DEFAULT_SPAN_CAP}, "
                "or SHIPPIERCE_SPAN_CAP)",
            )
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "span_cap" in args and args.span_cap is None:
            args.span_cap = _default_span_cap()
        code, payload, lines = args.func(args)
        if args.json:
            lines = [json.dumps(payload, sort_keys=True)]
        elif lines is None:
            lines = [f"{key} {value}" for key, value in payload.items()]
        for line in lines:
            print(line)
        return code
    except (OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (SpanCapError, MemoryGuardError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
