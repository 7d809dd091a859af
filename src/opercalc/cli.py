"""Command-line front-end.

This module runs the polygon search's subcommands, ``enumerate``, ``strata``
and ``oper-polygon``, and imports only what they run: ``core``,
``enumeration``, ``opers`` and the output rules in ``output``.  The other
subcommands' handlers are in ``calculators``, which ``run`` imports only when
it dispatches one of them; they import their own modules (bundles,
frobenius, filtrations, laws) in turn, so a process compiles and loads only
what its command runs.  ``enumerate`` and ``strata`` print no rational, so
they never load ``fractions`` (nor the ``decimal`` and ``numbers`` it
imports).  ``json`` is imported only where an encoder writes JSON
(``emit``'s json branch) or reads it (``dims --config``): every table and csv
run, ``check-laws`` included, and the JSON listing, which writes its own
text, skip its ~2 ms of import.

``COMMANDS`` is one constant table of each subcommand's handler, help line
and options; a calculator's handler is named there by its function name in
``calculators``.  ``run`` reads ``argv`` against the table by argparse's
rules (unique prefixes, ``--opt=value``, exit 2 with a usage line on stderr)
and builds help and usage text only to print them.  ``argparse`` itself,
with the ``gettext`` and ``locale`` it loads, cost about 9 ms of every
process's start-up.

``main``, the console entry point, turns the cyclic collector off for the
whole run and freezes every object before it exits, so that finalization
skips them; ``run`` keeps the collector as its caller set it.  Collecting
and freeing the objects that start-up and imports made costs several ms of
every exit, and a run that allocates many objects would pay for collections
that free nothing, since the commands build no cycles.
"""

from __future__ import annotations

import gc
import sys
from itertools import islice
from types import SimpleNamespace
from typing import Callable, Iterator, Sequence

from . import enumeration
from .core import strata_poset
from .enumeration import ABOVE, OPER, iter_admissible, verify_oper_maximality
from .opers import oper_polygon
from .output import USAGE_ERROR, VERIFICATION_FAILURE, _cell, emit


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


_FORMAT = ("--format", ("json", "csv", "table"), "table", "output format (default: table)")

# The command table: each subcommand's handler, its one-line help and its
# options after --format, which every subcommand takes.  A handler that is a
# string names a function of ``calculators``, imported only when it runs.  An
# option is (flag, kind, default[, help]), where kind is int, str, a tuple of
# choices, or bool for a flag that takes no value, and the default ``...``
# marks it required.
COMMANDS: dict[str, tuple[Callable[[SimpleNamespace], int] | str, str, tuple[tuple, ...]]] = {
    "oper-polygon": (cmd_oper_polygon, "polygon with vertices (i, i(r-i)(g-1))",
                     (("--rank", int, ...), ("--genus", int, ...))),
    "pushforward": ("cmd_pushforward", "rank/degree/slope of the Frobenius pushforward", (
        ("--rank", int, ...), ("--degree", int, ...), ("--genus", int, ...),
        ("--char", int, ...))),
    "hirschowitz": ("cmd_hirschowitz", "guaranteed subbundle slope bound", (
        ("--n", int, ...), ("--d", int, ...), ("--m", int, ...), ("--genus", int, ...))),
    "quot": ("cmd_quot", "non-emptiness certificate and dimension bounds", (
        ("--q-rank", int, ...), ("--q-degree", int, ...), ("--rank", int, ...),
        ("--genus", int, ...), ("--char", int, ...))),
    "optimize": ("cmd_optimize", "maximum of the filtration score", (
        ("--weight", int, ...), ("--cap", int, ...),
        ("--oracle", bool, False, "also run the exhaustive enumeration and compare"))),
    "sun-bound": ("cmd_sun_bound", "exact slope gap term for a filtration profile", (
        ("--profile", str, ..., "comma-separated weakly decreasing parts, e.g. 2,1,1"),
        ("--genus", int, ...), ("--char", int, ...))),
    "enumerate": (cmd_enumerate, "all admissible degree-0 polygons of a given rank", (
        ("--rank", int, ...), ("--genus", int, ...),
        ("--verify", bool, False, "check dominance by the oper polygon; exit 1 on failure"))),
    "strata": (cmd_strata, "Hasse diagram of the admissible polygons",
               (("--rank", int, ...), ("--genus", int, ...))),
    "dims": ("cmd_dims", "threshold constant and dimension identities", (
        ("--rank", int, None), ("--genus", int, None),
        ("--config", str, None, "JSON sweep file {rank: [..], genus: [..], char: [..]}; "
         "emits one CSV row per combination"))),
    "check-laws": ("cmd_check_laws", "run every cross-formula identity", ()),
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


def _parse(argv: list[str]) -> tuple[Callable[[SimpleNamespace], int] | str, SimpleNamespace] | int:
    """The handler (as ``COMMANDS`` holds it) and options that ``argv`` names, read
    against ``COMMANDS`` by argparse's rules, or the exit code once help or a
    usage error is printed."""
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


def _resolve(handler: Callable[[SimpleNamespace], int] | str) -> Callable[[SimpleNamespace], int]:
    """The function that a ``COMMANDS`` handler names."""
    if isinstance(handler, str):
        from . import calculators

        return getattr(calculators, handler)
    return handler


def run(argv: Sequence[str] | None = None) -> int:
    parsed = _parse(list(sys.argv[1:] if argv is None else argv))
    if isinstance(parsed, int):
        return parsed
    handler, args = parsed
    handler = _resolve(handler)
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
