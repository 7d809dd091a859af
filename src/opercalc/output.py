"""How the CLI writes a result, and its exit codes.

Every subcommand supports --format json|csv|table (default table), except
that ``dims --config`` always writes CSV.
Rationals print as "a/b" in tables and CSV and as {"num", "den"} decimal
strings in JSON; never as decimals.  Polygons print as their breakpoints:
``0,0;1,2;2,2;3,0`` in a cell, ``{"breakpoints": [[0, 0], ...]}`` in JSON.
Only ``emit``'s two renderers, ``_cell`` and ``_json_default``, and the
listings' text folds in ``cli.cmd_enumerate`` know these rules; Tier-1 tests
tie the folds to ``json.dumps`` and to ``_cell``.  Exit codes: 0 success,
1 verification failure (counterexample found), 2 usage error.

``cli`` and ``calculators`` both write through this module, which imports
neither: ``calculators`` is loaded only when ``cli`` dispatches to it, and a
module that imported ``cli`` back would load a second copy of it under
``python -m opercalc.cli``, where ``cli`` runs as ``__main__``.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Iterable, Sequence

from .core import HNPolygon

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
