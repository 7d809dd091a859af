"""Command-line front-end.

Every subcommand supports --format json|csv|table (default table), except
that ``dims --config`` always writes CSV.
Rationals print as "a/b" in tables and CSV and as {"num", "den"} decimal
strings in JSON; never as decimals.  Polygons print as their breakpoints:
``0,0;1,2;2,2;3,0`` in a cell, ``{"breakpoints": [[0, 0], ...]}`` in JSON.
Only ``emit``'s two renderers, ``_cell`` and ``_json_default``, and the
listings' text folds in ``cmd_enumerate`` know these rules; Tier-1 tests tie
the folds to ``json.dumps`` and to ``_cell``.  Exit codes: 0 success,
1 verification failure (counterexample found), 2 usage error.

Only what ``enumerate`` and ``strata`` run is imported at module level; the
other subcommands import their modules (frobenius, filtrations, laws) in
their own bodies, so a process starts up paying only for its command.
``enumerate`` and ``strata`` print no rational, so they never load
``fractions`` (nor the ``decimal`` and ``numbers`` it imports).  ``json`` is
imported only where an encoder writes JSON (``emit``'s json branch) or reads
it (``dims --config``): every table and csv run, ``check-laws`` included, and
the JSON listing, which writes its own text, skip its ~2 ms of import.

``COMMANDS`` is one constant table of each subcommand's handler, help line
and options.  ``run`` reads ``argv`` against it by argparse's rules (unique
prefixes, ``--opt=value``, exit 2 with a usage line on stderr) and builds help
and usage text only to print them.  ``argparse`` itself, with the ``gettext``
and ``locale`` it loads, cost about 9 ms of every process's start-up.

``main``, the console entry point, turns the cyclic collector off for the
whole run and freezes every object before it exits, so that finalization
skips them; ``run`` keeps the collector as its caller set it.  Collecting
and freeing the objects that start-up and imports made costs several ms of
every exit, and a run that allocates many objects would pay for collections
that free nothing, since the commands build no cycles.
"""

from __future__ import annotations

import gc
import os
import sys
from itertools import islice
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, Sequence

from .core import (
    BundleNumerics,
    CurveParams,
    HNPolygon,
    _require_at_least,
    strata_poset,
)
from . import enumeration
from .enumeration import ABOVE, OPER, iter_admissible, verify_oper_maximality
from .opers import oper_polygon, oper_space_dimensions, threshold_C

USAGE_ERROR = 2
VERIFICATION_FAILURE = 1


def _style_header(text: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\033[1m{text}\033[0m"


def _cell(value: Any) -> str:
    """One csv/table cell: a list or tuple ``[1, 1]`` prints as ``1,1`` and
    ``[[1, 1], [2]]`` as ``1,1 2``, a polygon as its breakpoints
    ``0,0;1,2;2,2;3,0``, a bool as ``true`` or ``false`` and ``None`` as ``-``.
    Anything else prints through ``str``, which writes a ``Fraction`` as
    ``a/b``, or ``a`` when it is whole."""
    if isinstance(value, (list, tuple)):
        sep = " " if value and isinstance(value[0], (list, tuple)) else ","
        return sep.join(_cell(v) for v in value)
    if isinstance(value, HNPolygon):
        return ";".join(f"{x},{y}" for x, y in value.breakpoints)
    if isinstance(value, bool):
        return "true" if value else "false"  # constants: no new string per cell
    if value is None:
        return "-"
    return str(value)


def _json_default(value: Any) -> Any:
    """What the JSON encoder writes for a value it has no rule for: a polygon
    as ``{"breakpoints": ...}``, a rational as ``{"num", "den"}`` decimal strings."""
    if isinstance(value, HNPolygon):
        return {"breakpoints": value.breakpoints}  # json writes tuples as arrays
    try:
        return {"num": str(value.numerator), "den": str(value.denominator)}
    except AttributeError:
        raise TypeError(f"{type(value).__name__} is not JSON serializable") from None


def emit(
    fmt: str,
    record: Any,
    header: list[str] | None = None,
    rows: Iterable[Sequence[Any]] | None = None,
) -> None:
    """Write one result in the requested format.

    ``record`` is the json output.  Without ``rows``, csv and table print it
    as one row of its values, under ``header`` (default: all its keys, in
    order).  Listings pass ``header`` and ``rows``; ``rows`` is not read for
    json, so a generator passed there costs nothing on that path.  Values
    print through ``_json_default`` and ``_cell``, so a command passes its
    polygons and rationals as they are.  Every ``record`` is a tree of dicts,
    lists, tuples, polygons and rationals, none of which holds its container,
    so it has no cycle and json skips the scan for one.  csv writes each row as
    it reads it; only the table holds its rendered rows, whose column widths
    need them all.
    """
    if fmt == "json":
        import json

        print(json.dumps(record, sort_keys=True, default=_json_default, check_circular=False))
        return
    if rows is None:
        header = list(record) if header is None else header
        rows = [[record[key] for key in header]]
    if fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
        return
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(header[i])
        for i in range(len(header))
    ]
    print(_style_header("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()))
    for row in str_rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def cmd_oper_polygon(args: SimpleNamespace) -> int:
    # The polygon has rank + 1 breakpoints, held and printed whole: refused past the
    # listing's row limit, read here so that a test may lower it.
    limit = enumeration.MAX_POLYGONS
    if args.rank + 1 > limit:
        raise ValueError(f"rank {args.rank} oper polygon has {args.rank + 1} breakpoints, "
                         f"more than MAX_POLYGONS = {limit}; refusing to print them")
    poly = oper_polygon(args.rank, args.genus)
    emit(args.format, poly, ["rank", "degree"], poly.breakpoints)
    return 0


def cmd_pushforward(args: SimpleNamespace) -> int:
    from .frobenius import pushforward_numerics

    curve = CurveParams(args.genus, args.char)
    fq = pushforward_numerics(BundleNumerics(args.rank, args.degree), curve)
    emit(args.format, {"rank": fq.rank, "degree": fq.degree, "slope": fq.slope})
    return 0


def cmd_hirschowitz(args: SimpleNamespace) -> int:
    from .frobenius import hirschowitz_bound

    eps, bound = hirschowitz_bound(args.n, args.d, args.m, args.genus)
    emit(args.format, {"epsilon": eps, "slope_bound": bound})
    return 0


def cmd_quot(args: SimpleNamespace) -> int:
    from .frobenius import QuotProblem, quot_dim_lower_bound, quot_nonempty

    curve = CurveParams(args.genus, args.char)
    problem = QuotProblem(BundleNumerics(args.q_rank, args.q_degree), args.rank, curve)
    cert = quot_nonempty(problem)
    emit(args.format, {
        "hypothesis_met": cert.hypothesis_met,
        "nonempty": cert.nonempty,
        "case": cert.case,
        "slope_lower_bound": cert.slope_lower_bound,
        "dim_lower_bound": quot_dim_lower_bound(problem),
    })
    return 0


def cmd_optimize(args: SimpleNamespace) -> int:
    from .filtrations import max_score_brute_force, max_score_closed_form

    closed = max_score_closed_form(args.weight)
    _require_at_least(1, cap=args.cap)
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


def cmd_sun_bound(args: SimpleNamespace) -> int:
    from .filtrations import FiltrationProfile, sun_bound

    try:
        parts = tuple(int(x) for x in args.profile.split(","))
        if min(parts) < 1:
            raise ValueError
    except ValueError:
        raise ValueError("profile must be comma-separated positive integers, "
                         f"got {args.profile!r}") from None
    profile = FiltrationProfile(parts, parts[0])
    curve = CurveParams(args.genus, args.char)
    if args.char == 2:
        print("note: characteristic 2 evaluates (p-1)/2 as the exact rational 1/2",
              file=sys.stderr)
    emit(args.format, {"profile": list(parts), "gap_term": sun_bound(profile, curve)})
    return 0


def cmd_enumerate(args: SimpleNamespace) -> int:
    if args.verify:
        report = verify_oper_maximality(args.rank, args.genus)
        record = {
            "rank": args.rank,
            "genus": args.genus,
            "count": report.count,
            "all_dominated": report.all_dominated,
            "oper_polygon_present": report.oper_polygon_present,
            "unique_maximum": report.unique_maximum,
            "passed": report.unique_maximum,
        }
        emit(args.format, record, list(record)[2:])  # csv and table omit rank, genus
        return 0 if report.unique_maximum else VERIFICATION_FAILURE
    # The search folds each chain's text, a node appending its ", [x, y]" (JSON) or ";x,y"
    # (a cell) once for every chain through it.  A refused walk raises when it is made.
    r, g = args.rank, args.genus
    if args.format == "json":  # each text is ", " and what json.dumps writes for a polygon
        texts = enumeration._chains(r, g, ', {"breakpoints": [[0, 0]',
                                    lambda x, y: f", [{x}, {y}]", lambda text: text + "]}")
        sys.stdout.write("[" + next(texts)[2:])  # every walk yields the semistable polygon
        # a thousand texts a write: a write each adds half to the walk's time at r=7 g=3
        while chunk := "".join(islice(texts, 1000)):
            sys.stdout.write(chunk)
        print("]")
        return 0
    places = enumeration._places(r, g, g)
    cells = enumeration._chains(r, g, "0,0", lambda x, y: f";{x},{y}", str)
    rows = ((c, at == OPER, at != ABOVE) for c, at in zip(cells, places))
    emit(args.format, None, ["breakpoints", "is_oper", "dominated_by_oper"], rows)
    return 0


def cmd_strata(args: SimpleNamespace) -> int:
    poset = strata_poset(iter_admissible(args.rank, args.genus))
    elements = poset.elements

    def rows() -> Iterator[tuple[str, str]]:
        # Runs only for csv or table, and renders each element once, not once per cover.
        cells = [_cell(p) for p in elements]
        for i, j in poset.covers:
            yield cells[i], cells[j]

    emit(
        args.format,
        {
            "elements": elements,
            "covers": poset.covers,
            "maximal": poset.maximal_indices(),
            "minimal": poset.minimal_indices(),
        },
        ["lower", "upper"],
        rows(),
    )
    return 0


def _dims_record(r: int, g: int) -> dict[str, Any]:
    """The single-row ``dims`` output at rank ``r`` and genus ``g``."""
    from .frobenius import expected_dimensions

    dims = expected_dimensions(r, g)
    dim = oper_space_dimensions(r, g)
    return {
        "threshold_C": threshold_C(r, g),
        "hitchin_base_dim": dim,
        "oper_space_dim": dim,
        "destabilized_locus_dim": dims.destabilized_locus_dim,
        "quot_expected": dims.quot_expected,
        "oper_quot_degree": dims.oper_quot_degree,
    }


def cmd_dims(args: SimpleNamespace) -> int:
    if args.config:
        import json

        try:
            with open(args.config, encoding="utf-8-sig") as fh:  # skips a byte order mark
                sweep = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config {args.config}: {exc.strerror}") from None
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError alike
            raise ValueError(f"config {args.config} is not UTF-8 JSON: {exc}") from None
        if not isinstance(sweep, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        for key in sweep:
            if key not in ("rank", "genus", "char"):
                raise ValueError(f"config {args.config} has unknown key {key!r}; "
                                 "it takes 'rank', 'genus' and 'char'")
        ranks = sweep.get("rank", [] if args.rank is None else [args.rank])
        genera = sweep.get("genus", [] if args.genus is None else [args.genus])
        chars = sweep.get("char", [None])
        for key, values, needs in (("rank", ranks, "integers >= 2"),
                                   ("genus", genera, "integers >= 2"), ("char", chars, "primes")):
            if not (isinstance(values, list) and values):
                raise ValueError(f"config {args.config} needs a non-empty list of "
                                 f"integers for {key!r}")
            try:  # each value by the rule that every command applies to its option
                for v in values:
                    if key != "char":
                        _require_at_least(2, **{key: v})
                    elif v is not None:
                        CurveParams(2, v).require_positive_char()
            except ValueError as exc:
                if key not in sweep:
                    raise  # filled in from --rank or --genus: that option's own message
                raise ValueError(f"config {args.config} needs {needs} for {key!r}: {exc}") from None
        # Every value is checked, so no row can fail after the header.  Refused past the
        # listing's row limit before any row is computed, read here so a test may lower it.
        count, limit = len(ranks) * len(genera) * len(chars), enumeration.MAX_POLYGONS
        if count > limit:
            raise ValueError(f"config {args.config} sweeps {count} rows, more than "
                             f"MAX_POLYGONS = {limit}; refusing to compute them")
        columns = ["threshold_C", "oper_space_dim", "destabilized_locus_dim", "quot_expected",
                   "oper_quot_degree"]
        records = ((r, g, _dims_record(r, g)) for r in ranks for g in genera)
        rows = ([r, g, p, *(rec[k] for k in columns), None if p is None else p > rec["threshold_C"]]
                for r, g, rec in records for p in chars)  # each row written as it is computed
        emit("csv", None, ["rank", "genus", "char", *columns, "char_exceeds_threshold"], rows)
        return 0
    if args.rank is None or args.genus is None:
        raise ValueError("dims requires --rank and --genus (or --config)")
    emit(args.format, _dims_record(args.rank, args.genus))
    return 0


def cmd_check_laws(args: SimpleNamespace) -> int:
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


_FORMAT = ("--format", ("json", "csv", "table"), "table", "output format (default: table)")

# The command table: each subcommand's handler, its one-line help and its
# options after --format, which every subcommand takes.  An option is (flag,
# kind, default[, help]), where kind is int, str, a tuple of choices, or bool
# for a flag that takes no value, and the default ``...`` marks it required.
COMMANDS: dict[str, tuple[Callable[[SimpleNamespace], int], str, tuple[tuple, ...]]] = {
    "oper-polygon": (cmd_oper_polygon, "polygon with vertices (i, i(r-i)(g-1))",
                     (("--rank", int, ...), ("--genus", int, ...))),
    "pushforward": (cmd_pushforward, "rank/degree/slope of the Frobenius pushforward", (
        ("--rank", int, ...), ("--degree", int, ...), ("--genus", int, ...),
        ("--char", int, ...))),
    "hirschowitz": (cmd_hirschowitz, "guaranteed subbundle slope bound", (
        ("--n", int, ...), ("--d", int, ...), ("--m", int, ...), ("--genus", int, ...))),
    "quot": (cmd_quot, "non-emptiness certificate and dimension bounds", (
        ("--q-rank", int, ...), ("--q-degree", int, ...), ("--rank", int, ...),
        ("--genus", int, ...), ("--char", int, ...))),
    "optimize": (cmd_optimize, "maximum of the filtration score", (
        ("--weight", int, ...), ("--cap", int, ...),
        ("--oracle", bool, False, "also run the exhaustive enumeration and compare"))),
    "sun-bound": (cmd_sun_bound, "exact slope gap term for a filtration profile", (
        ("--profile", str, ..., "comma-separated weakly decreasing parts, e.g. 2,1,1"),
        ("--genus", int, ...), ("--char", int, ...))),
    "enumerate": (cmd_enumerate, "all admissible degree-0 polygons of a given rank", (
        ("--rank", int, ...), ("--genus", int, ...),
        ("--verify", bool, False, "check dominance by the oper polygon; exit 1 on failure"))),
    "strata": (cmd_strata, "Hasse diagram of the admissible polygons",
               (("--rank", int, ...), ("--genus", int, ...))),
    "dims": (cmd_dims, "threshold constant and dimension identities", (
        ("--rank", int, None), ("--genus", int, None),
        ("--config", str, None, "JSON sweep file {rank: [..], genus: [..], char: [..]}; "
         "emits one CSV row per combination"))),
    "check-laws": (cmd_check_laws, "run every cross-formula identity", ()),
}


def _help(name: str | None) -> str:
    """The --help text of the top level (``name`` None) or of a command.  Its
    first line is the usage line that a usage error prints."""
    if name is None:
        return "\n".join([
            "usage: opercalc [-h] {%s} ..." % ",".join(COMMANDS), "",
            "Exact calculators and brute-force verifiers for HN polygons, oper numerics "
            "and Frobenius pushforward slope bounds.", "", "commands:",
            *(f"  {command:22}{entry[1]}" for command, entry in COMMANDS.items())])
    usage = ["usage: opercalc", name, "[-h]"]
    lines = [COMMANDS[name][1], "", "options:",
             "  -h, --help            show this help message and exit"]
    for flag, kind, default, *text in (_FORMAT, *COMMANDS[name][2]):
        meta = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else flag[2:].upper()
        spec = flag if kind is bool else f"{flag} {meta.replace('-', '_')}"
        usage.append(spec if default is ... else f"[{spec}]")
        text = "; ".join((["required"] if default is ... else []) + text)
        lines.append(f"  {spec:22}{text}".rstrip() if len(spec) < 21  # else help goes below
                     else f"  {spec}\n{'':24}{text}")
    return "\n".join([" ".join(usage), "", *lines])


def _is_help(arg: str) -> bool:
    return arg == "-h" or len(arg) > 2 and "--help".startswith(arg)


def _usage_error(name: str | None, message: str) -> int:
    usage = _help(name).partition("\n")[0]
    print(f"{usage}\nopercalc{' ' + name if name else ''}: error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _parse(argv: list[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace] | int:
    """The handler and options that ``argv`` names, read against ``COMMANDS`` by
    argparse's rules, or the exit code once help or a usage error is printed."""
    if not argv or argv[0] not in COMMANDS:
        if argv and _is_help(argv[0]):
            print(_help(None))
            return 0
        return _usage_error(None, f"argument command: invalid choice: {argv[0]!r} (choose from "
                            f"{', '.join(map(repr, COMMANDS))})" if argv
                            else "the following arguments are required: command")
    name, rest = argv[0], iter(argv[1:])
    handler, _, options = COMMANDS[name]
    kinds = {flag: kind for flag, kind, *_ in (_FORMAT, *options)}
    values = {flag: default for flag, _, default, *_ in (_FORMAT, *options)}
    for arg in rest:
        if _is_help(arg):
            print(_help(name))
            return 0
        flag, eq, value = arg.partition("=") if arg[:2] == "--" else (arg, "", "")
        found = [flag] if flag in kinds else [f for f in kinds if flag[2:] and f.startswith(flag)]
        if len(found) != 1:
            return _usage_error(name, f"ambiguous option: {flag} could match {', '.join(found)}"
                                if found else f"unrecognized arguments: {arg}")
        flag, kind = found[0], kinds[found[0]]
        if kind is bool:
            if eq:
                return _usage_error(name, f"argument {flag}: ignored explicit argument {value!r}")
            values[flag] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None or value[:1] == "-" and not value[1:].replace(".", "", 1).isdecimal():
                return _usage_error(name, f"argument {flag}: expected one argument")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return _usage_error(name, f"argument {flag}: invalid int value: {value!r}")
        elif kind is not str and value not in kind:
            return _usage_error(name, f"argument {flag}: invalid choice: {value!r} "
                                f"(choose from {', '.join(map(repr, kind))})")
        values[flag] = value
    missing = [flag for flag, value in values.items() if value is ...]
    if missing:
        return _usage_error(name, f"the following arguments are required: {', '.join(missing)}")
    return handler, SimpleNamespace(**{f[2:].replace("-", "_"): v for f, v in values.items()})


def run(argv: Sequence[str] | None = None) -> int:
    parsed = _parse(list(sys.argv[1:] if argv is None else argv))
    if isinstance(parsed, int):
        return parsed
    handler, args = parsed
    try:
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    # The commands build no cycles worth collecting: with the collector off
    # for a whole run, imports included, a collection afterwards frees 0
    # objects for `enumerate`, `strata` and `check-laws` alike.  So the
    # collector stays off, and freezing moves every object to the permanent
    # generation, which finalization does not collect.  stdout and stderr are
    # still flushed and atexit handlers still run.
    gc.disable()
    code = run()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
