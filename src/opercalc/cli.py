"""Command-line front-end.

Every subcommand supports --format json|csv|table (default table).
Rationals print as "a/b" in tables and CSV and as {"num", "den"} decimal
strings in JSON; never as decimals.  Exit codes: 0 success, 1 verification
failure (counterexample found), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import Any, Iterable, Sequence

from .core import (
    BundleNumerics,
    CurveParams,
    HNPolygon,
    format_rational,
    rational_to_json,
    shatz_leq,
    strata_poset,
)
from .enumeration import enumerate_admissible, verify_oper_maximality
from .filtrations import (
    FiltrationProfile,
    max_score_brute_force,
    max_score_closed_form,
    sun_bound,
)
from .frobenius import (
    QuotProblem,
    expected_dimensions,
    hirschowitz_bound,
    pushforward_numerics,
    quot_dim_lower_bound,
    quot_nonempty,
)
from .laws import run_all_laws
from .opers import oper_polygon, oper_space_dimensions, threshold_C

USAGE_ERROR = 2
VERIFICATION_FAILURE = 1
# strata compares every pair of elements: the 5767 of r=7 g=3 take about 50 s,
# the 29 427 of r=8 g=3 would take about 25 minutes.
STRATA_MAX_ELEMENTS = 6000


def _style_header(text: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\033[1m{text}\033[0m"


def _cell(value: Any) -> str:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, bool):
        return str(value).lower()
    if value is None:
        return "-"
    return str(value)


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return rational_to_json(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def emit(fmt: str, json_obj: Any, header: list[str], rows: Iterable[list[Any]]) -> None:
    """Write one result in the requested format.

    ``json_obj`` is the machine-readable shape; ``header``/``rows`` drive
    the csv and table renderings.  ``rows`` is not read for json, so a
    generator passed there costs nothing on that path.
    """
    if fmt == "json":
        print(json.dumps(_jsonable(json_obj), sort_keys=True))
        return
    str_rows = [[_cell(v) for v in row] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(str_rows)
        sys.stdout.write(buf.getvalue())
        return
    widths = [
        max(len(header[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(header[i])
        for i in range(len(header))
    ]
    print(_style_header("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()))
    for row in str_rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _breakpoints_cell(poly: HNPolygon) -> str:
    """A polygon's breakpoints as one csv/table cell, e.g. ``0,0;1,1;2,0``."""
    return ";".join(f"{x},{y}" for x, y in poly.breakpoints)


def cmd_oper_polygon(args: argparse.Namespace) -> int:
    poly = oper_polygon(args.rank, args.genus)
    emit(
        args.format,
        poly.to_json(),
        ["rank", "degree"],
        [[x, y] for x, y in poly.breakpoints],
    )
    return 0


def cmd_pushforward(args: argparse.Namespace) -> int:
    curve = CurveParams(args.genus, args.char)
    fq = pushforward_numerics(BundleNumerics(args.rank, args.degree), curve)
    emit(
        args.format,
        {"rank": fq.rank, "degree": fq.degree, "slope": fq.slope},
        ["rank", "degree", "slope"],
        [[fq.rank, fq.degree, fq.slope]],
    )
    return 0


def cmd_hirschowitz(args: argparse.Namespace) -> int:
    eps, bound = hirschowitz_bound(args.n, args.d, args.m, args.genus)
    emit(
        args.format,
        {"epsilon": eps, "slope_bound": bound},
        ["epsilon", "slope_bound"],
        [[eps, bound]],
    )
    return 0


def cmd_quot(args: argparse.Namespace) -> int:
    curve = CurveParams(args.genus, args.char)
    problem = QuotProblem(
        BundleNumerics(args.q_rank, args.q_degree), args.rank, 0, curve
    )
    cert = quot_nonempty(problem)
    dim_bound = quot_dim_lower_bound(problem)
    emit(
        args.format,
        {
            "hypothesis_met": cert.hypothesis_met,
            "nonempty": cert.nonempty,
            "case": cert.case,
            "slope_lower_bound": cert.slope_lower_bound,
            "dim_lower_bound": dim_bound,
        },
        ["hypothesis_met", "nonempty", "case", "slope_lower_bound", "dim_lower_bound"],
        [[cert.hypothesis_met, cert.nonempty, cert.case, cert.slope_lower_bound, dim_bound]],
    )
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    closed = max_score_closed_form(args.weight)
    if not args.oracle:
        emit(
            args.format,
            {"weight": args.weight, "cap": args.cap, "max_score": closed},
            ["weight", "cap", "max_score"],
            [[args.weight, args.cap, closed]],
        )
        return 0
    best, argmax = max_score_brute_force(args.weight, args.cap)
    agree = best == closed
    emit(
        args.format,
        {
            "weight": args.weight,
            "cap": args.cap,
            "closed_form": closed,
            "brute_force": best,
            "agree": agree,
            "maximizers": [list(p.parts) for p in argmax],
        },
        ["weight", "cap", "closed_form", "brute_force", "agree", "maximizers"],
        [[args.weight, args.cap, closed, best, agree,
          " ".join(",".join(map(str, p.parts)) for p in argmax)]],
    )
    return 0 if agree else VERIFICATION_FAILURE


def cmd_sun_bound(args: argparse.Namespace) -> int:
    parts = tuple(int(x) for x in args.profile.split(","))
    cap = args.cap if args.cap is not None else (parts[0] if parts else 1)
    profile = FiltrationProfile(parts, cap)
    curve = CurveParams(args.genus, args.char)
    if args.char == 2:
        print("note: characteristic 2 evaluates (p-1)/2 as the exact rational 1/2",
              file=sys.stderr)
    gap = sun_bound(profile, curve)
    emit(
        args.format,
        {"profile": list(parts), "gap_term": gap},
        ["profile", "gap_term"],
        [[",".join(map(str, parts)), gap]],
    )
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.verify:
        report = verify_oper_maximality(args.rank, args.genus)
        emit(
            args.format,
            {
                "rank": args.rank,
                "genus": args.genus,
                "count": report.count,
                "all_dominated": report.all_dominated,
                "oper_polygon_present": report.oper_polygon_present,
                "unique_maximum": report.unique_maximum,
                "passed": report.passed,
            },
            ["count", "all_dominated", "oper_polygon_present", "unique_maximum", "passed"],
            [[report.count, report.all_dominated, report.oper_polygon_present,
              report.unique_maximum, report.passed]],
        )
        return 0 if report.passed else VERIFICATION_FAILURE
    polys = enumerate_admissible(args.rank, args.genus)
    top = oper_polygon(args.rank, args.genus)
    emit(
        args.format,
        [p.to_json() for p in polys],
        ["breakpoints", "is_oper", "dominated_by_oper"],
        ([_breakpoints_cell(p), str(p == top), str(shatz_leq(p, top))] for p in polys),
    )
    return 0


def cmd_strata(args: argparse.Namespace) -> int:
    polys = enumerate_admissible(args.rank, args.genus)
    if len(polys) > STRATA_MAX_ELEMENTS:
        raise ValueError(
            f"strata at rank {args.rank} genus {args.genus} has {len(polys)} "
            f"polygons, above the limit of {STRATA_MAX_ELEMENTS}; it compares "
            "every pair, so its time grows with the square of that count"
        )
    poset = strata_poset(polys)
    elements = [_breakpoints_cell(p) for p in poset.elements]
    emit(
        args.format,
        {
            "elements": [p.to_json() for p in poset.elements],
            "covers": [list(c) for c in poset.covers],
            "maximal": list(poset.maximal_indices()),
            "minimal": list(poset.minimal_indices()),
        },
        ["lower", "upper"],
        [[elements[i], elements[j]] for i, j in poset.covers],
    )
    return 0


def cmd_dims(args: argparse.Namespace) -> int:
    if args.config:
        try:
            with open(args.config) as fh:
                sweep = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config {args.config}: {exc.strerror}") from None
        if not isinstance(sweep, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        ranks = sweep.get("rank", [args.rank] if args.rank else [])
        genera = sweep.get("genus", [args.genus] if args.genus else [])
        chars = sweep.get("char", [None])
        for key, values in (("rank", ranks), ("genus", genera), ("char", chars)):
            if not (isinstance(values, list) and values and all(
                isinstance(v, int) or (key == "char" and v is None) for v in values
            )):
                raise ValueError(f"config {args.config} needs a non-empty list of "
                                 f"integers for {key!r}")
        header = ["rank", "genus", "char", "threshold_C", "oper_space_dim",
                  "destabilized_locus_dim", "quot_expected", "oper_quot_degree",
                  "char_exceeds_threshold"]
        rows: list[list[Any]] = []
        for r in ranks:
            for g in genera:
                for p in chars:
                    dims = expected_dimensions(r, g)
                    c = threshold_C(r, g)
                    rows.append([
                        r, g, p, c, oper_space_dimensions(r, g)[0],
                        dims.destabilized_locus_dim, dims.quot_expected,
                        dims.oper_quot_degree,
                        (p > c) if p is not None else None,
                    ])
        emit("csv", None, header, rows)
        return 0
    if args.rank is None or args.genus is None:
        raise ValueError("dims requires --rank and --genus (or --config)")
    r, g = args.rank, args.genus
    dims = expected_dimensions(r, g)
    base_dim, oper_dim = oper_space_dimensions(r, g)
    payload = {
        "threshold_C": threshold_C(r, g),
        "hitchin_base_dim": base_dim,
        "oper_space_dim": oper_dim,
        "destabilized_locus_dim": dims.destabilized_locus_dim,
        "quot_expected": dims.quot_expected,
        "oper_quot_degree": dims.oper_quot_degree,
    }
    emit(
        args.format,
        payload,
        list(payload),
        [[payload[k] for k in payload]],
    )
    return 0


def cmd_check_laws(args: argparse.Namespace) -> int:
    results = run_all_laws()
    rows = [[res.name, "PASS" if res.passed else "FAIL", res.detail] for res in results]
    emit(
        args.format,
        [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        ["law", "status", "detail"],
        rows,
    )
    return 0 if all(res.passed for res in results) else VERIFICATION_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opercalc",
        description="Exact calculators and brute-force verifiers for HN polygons, "
        "oper numerics and Frobenius pushforward slope bounds.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "table"), default="table",
        help="output format (default: table)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("oper-polygon", parents=[common],
                        help="polygon with vertices (i, i(r-i)(g-1))")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--genus", type=int, required=True)
    sp.set_defaults(func=cmd_oper_polygon)

    sp = sub.add_parser("pushforward", parents=[common],
                        help="rank/degree/slope of the Frobenius pushforward")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--char", type=int, required=True)
    sp.set_defaults(func=cmd_pushforward)

    sp = sub.add_parser("hirschowitz", parents=[common],
                        help="guaranteed subbundle slope bound")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--genus", type=int, required=True)
    sp.set_defaults(func=cmd_hirschowitz)

    sp = sub.add_parser("quot", parents=[common],
                        help="non-emptiness certificate and dimension bounds")
    sp.add_argument("--q-rank", type=int, required=True)
    sp.add_argument("--q-degree", type=int, required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--char", type=int, required=True)
    sp.set_defaults(func=cmd_quot)

    sp = sub.add_parser("optimize", parents=[common],
                        help="maximum of the filtration score")
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--cap", type=int, required=True)
    sp.add_argument("--oracle", action="store_true",
                    help="also run the exhaustive enumeration and compare")
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("sun-bound", parents=[common],
                        help="exact slope gap term for a filtration profile")
    sp.add_argument("--profile", type=str, required=True,
                    help="comma-separated weakly decreasing parts, e.g. 2,1,1")
    sp.add_argument("--cap", type=int, default=None,
                    help="rank cap (default: leading part)")
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--char", type=int, required=True)
    sp.set_defaults(func=cmd_sun_bound)

    sp = sub.add_parser("enumerate", parents=[common],
                        help="all admissible degree-0 polygons of a given rank")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--verify", action="store_true",
                    help="check dominance by the oper polygon; exit 1 on failure")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("strata", parents=[common],
                        help="Hasse diagram of the admissible polygons")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--genus", type=int, required=True)
    sp.set_defaults(func=cmd_strata)

    sp = sub.add_parser("dims", parents=[common],
                        help="threshold constant and dimension identities")
    sp.add_argument("--rank", type=int, default=None)
    sp.add_argument("--genus", type=int, default=None)
    sp.add_argument("--config", type=str, default=None,
                    help="JSON sweep file {rank: [..], genus: [..], char: [..]}; "
                    "emits one CSV row per combination")
    sp.set_defaults(func=cmd_dims)

    sp = sub.add_parser("check-laws", parents=[common],
                        help="run every cross-formula identity")
    sp.set_defaults(func=cmd_check_laws)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
