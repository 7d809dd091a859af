"""Command-line front-end.

Every subcommand supports --format json|csv|table (default table).
Rationals print as "a/b" in tables and CSV and as {"num", "den"} decimal
strings in JSON; never as decimals.  Exit codes: 0 success, 1 verification
failure (counterexample found), 2 usage error.

Only what ``enumerate`` and ``strata`` run is imported at module level; the
other subcommands import their modules (frobenius, filtrations, laws) in
their own bodies, so a process starts up paying only for its command.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from fractions import Fraction
from typing import Any, Iterable, Iterator, Sequence

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
from .opers import oper_polygon, oper_space_dimensions, threshold_C

USAGE_ERROR = 2
VERIFICATION_FAILURE = 1


def _style_header(text: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\033[1m{text}\033[0m"


def _cell(value: Any) -> str:
    """One csv/table cell: ``[1, 1]`` prints as ``1,1`` and ``[[1, 1], [2]]``
    as ``1,1 2``."""
    if isinstance(value, list):
        sep = " " if value and isinstance(value[0], list) else ","
        return sep.join(_cell(v) for v in value)
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, bool):
        return str(value).lower()
    if value is None:
        return "-"
    return str(value)


def _json_default(value: Any) -> Any:
    """What the JSON encoder writes for a value it has no rule for."""
    if isinstance(value, Fraction):
        return rational_to_json(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def emit(
    fmt: str,
    record: Any,
    header: list[str] | None = None,
    rows: Iterable[list[Any]] | None = None,
) -> None:
    """Write one result in the requested format.

    ``record`` is the json output.  Without ``rows``, csv and table print it
    as one row of its values, under ``header`` (default: all its keys, in
    order).  Listings pass ``header`` and ``rows``; ``rows`` is not read for
    json, so a generator passed there costs nothing on that path.
    """
    if fmt == "json":
        print(json.dumps(record, sort_keys=True, default=_json_default))
        return
    if rows is None:
        header = list(record) if header is None else header
        rows = [[record[key] for key in header]]
    str_rows = [[_cell(v) for v in row] for row in rows]
    if fmt == "csv":
        import csv

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
    emit(args.format, poly.to_json(), ["rank", "degree"], poly.breakpoints)
    return 0


def cmd_pushforward(args: argparse.Namespace) -> int:
    from .frobenius import pushforward_numerics

    curve = CurveParams(args.genus, args.char)
    fq = pushforward_numerics(BundleNumerics(args.rank, args.degree), curve)
    emit(args.format, {"rank": fq.rank, "degree": fq.degree, "slope": fq.slope})
    return 0


def cmd_hirschowitz(args: argparse.Namespace) -> int:
    from .frobenius import hirschowitz_bound

    eps, bound = hirschowitz_bound(args.n, args.d, args.m, args.genus)
    emit(args.format, {"epsilon": eps, "slope_bound": bound})
    return 0


def cmd_quot(args: argparse.Namespace) -> int:
    from .frobenius import QuotProblem, quot_dim_lower_bound, quot_nonempty

    curve = CurveParams(args.genus, args.char)
    problem = QuotProblem(
        BundleNumerics(args.q_rank, args.q_degree), args.rank, 0, curve
    )
    cert = quot_nonempty(problem)
    emit(args.format, {
        "hypothesis_met": cert.hypothesis_met,
        "nonempty": cert.nonempty,
        "case": cert.case,
        "slope_lower_bound": cert.slope_lower_bound,
        "dim_lower_bound": quot_dim_lower_bound(problem),
    })
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    from .filtrations import max_score_brute_force, max_score_closed_form

    closed = max_score_closed_form(args.weight)
    if not args.oracle:
        emit(args.format, {"weight": args.weight, "cap": args.cap, "max_score": closed})
        return 0
    best, argmax = max_score_brute_force(args.weight, args.cap)
    agree = best == closed
    emit(args.format, {
        "weight": args.weight,
        "cap": args.cap,
        "closed_form": closed,
        "brute_force": best,
        "agree": agree,
        "maximizers": [list(p.parts) for p in argmax],
    })
    return 0 if agree else VERIFICATION_FAILURE


def cmd_sun_bound(args: argparse.Namespace) -> int:
    from .filtrations import FiltrationProfile, sun_bound

    parts = tuple(int(x) for x in args.profile.split(","))
    profile = FiltrationProfile(parts, parts[0])
    curve = CurveParams(args.genus, args.char)
    if args.char == 2:
        print("note: characteristic 2 evaluates (p-1)/2 as the exact rational 1/2",
              file=sys.stderr)
    emit(args.format, {"profile": list(parts), "gap_term": sun_bound(profile, curve)})
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.verify:
        report = verify_oper_maximality(args.rank, args.genus)
        record = {
            "rank": args.rank,
            "genus": args.genus,
            "count": report.count,
            "all_dominated": report.all_dominated,
            "oper_polygon_present": report.oper_polygon_present,
            "unique_maximum": report.unique_maximum,
            "passed": report.passed,
        }
        emit(args.format, record, list(record)[2:])  # csv and table omit rank, genus
        return 0 if report.passed else VERIFICATION_FAILURE
    polys = enumerate_admissible(args.rank, args.genus)

    def rows() -> Iterator[list[str]]:
        # Runs only when csv or table output reads the rows, not for json.
        top = oper_polygon(args.rank, args.genus)
        for p in polys:
            yield [_breakpoints_cell(p), str(p == top), str(shatz_leq(p, top))]

    emit(
        args.format,
        [p.to_json() for p in polys],
        ["breakpoints", "is_oper", "dominated_by_oper"],
        rows(),
    )
    return 0


def cmd_strata(args: argparse.Namespace) -> int:
    poset = strata_poset(enumerate_admissible(args.rank, args.genus))
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
    from .frobenius import expected_dimensions

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
                (isinstance(v, int) and not isinstance(v, bool))
                or (key == "char" and v is None)
                for v in values
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
    emit(args.format, {
        "threshold_C": threshold_C(r, g),
        "hitchin_base_dim": base_dim,
        "oper_space_dim": oper_dim,
        "destabilized_locus_dim": dims.destabilized_locus_dim,
        "quot_expected": dims.quot_expected,
        "oper_quot_degree": dims.oper_quot_degree,
    })
    return 0


def cmd_check_laws(args: argparse.Namespace) -> int:
    from .laws import run_all_laws

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
