"""The calculator subcommands: every one but the polygon search's.

``cli.run`` imports this module only when it dispatches ``pushforward``,
``hirschowitz``, ``quot``, ``optimize``, ``sun-bound``, ``dims`` or
``check-laws``, so that ``enumerate``, ``strata`` and ``oper-polygon`` compile
none of it.  Each handler imports the modules it runs (frobenius, filtrations,
laws) in its own body, and ``fractions`` comes only with them.  ``json`` is
imported only where ``dims --config`` reads its sweep.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Any

from . import enumeration
from .bundles import BundleNumerics, CurveParams
from .core import _require_at_least
from .opers import oper_space_dimensions, threshold_C
from .output import VERIFICATION_FAILURE, emit


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
