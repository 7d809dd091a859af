#!/usr/bin/env python3
"""Traced in-process run of one workload, layer by layer.

    PYTHONPATH=src python3 perfbench/traced.py --workload verify --seed 1

Runs the workload's commands in this process twice: first untraced, then with
spans around calls into opercalc's public functions. The spans are installed
from here at run time by replacing those functions in opercalc's module
namespaces; nothing under src/ changes. Prints one JSON object with both wall
times and the host slowdown around each pass, each command's exit code, stdout
digest and byte count, and for each span its calls, total and self time.

run.py starts this script in a subprocess of its own for every ``--trace 1``
run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import random
import sys
import time
from typing import Any, Callable

import crosscheck
from run import calibrate, slowdown
from workloads import CLI, WORKLOADS, Command, command_key

# (module, function, span). A function that a later version of opercalc no
# longer has is skipped, and its span then reports 0 calls and 0 s.
FUNCTION_SPANS = (
    ("opercalc.cli", "run", "cli.run"),
    ("opercalc.cli", "emit", "cli.emit"),
    ("opercalc.enumeration", "enumerate_admissible", "enumeration.search"),
    ("opercalc.enumeration", "enumerate_admissible_slow", "enumeration.slow_oracle"),
    ("opercalc.enumeration", "verify_oper_maximality", "enumeration.verify"),
    ("opercalc.enumeration", "polygons_to_csv_rows", "enumeration.csv_rows"),
    ("opercalc.enumeration", "polygons_to_json", "enumeration.json_rows"),
    ("opercalc.core", "shatz_leq", "core.shatz_leq"),
    ("opercalc.core", "strata_poset", "core.strata_poset"),
    ("opercalc.filtrations", "max_score_brute_force", "filtrations.brute_force"),
    ("opercalc.laws", "run_all_laws", "laws.run_all"),
)


class Tracer:
    """Spans around calls into opercalc, aggregated per span name.

    Times are integer nanoseconds from ``time.perf_counter_ns``. A span's self
    time is its duration minus the durations of the spans it directly
    encloses; with integer clocks that is exact, so self times are never
    negative and sum to the duration of the outermost spans.
    """

    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self.polygons: set[Any] = set()
        self._open: list[int] = []  # per open span, the time of its child spans

    def _close(self, name: str, elapsed: int) -> None:
        child = self._open.pop()
        stat = self.spans.setdefault(name, [0, 0, 0])
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - child
        if self._open:
            self._open[-1] += elapsed

    def timed(
        self,
        fn: Callable,
        name: str | Callable[[Any], str],
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable:
        """Wrap ``fn`` in a span named ``name``, or ``name(result)`` if callable.

        ``on_result`` sees each result after the span has closed.
        """
        clock = time.perf_counter_ns
        open_spans = self._open

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            open_spans.append(0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._close(name if isinstance(name, str) else name(result), elapsed)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """Wrap ``fn`` in a call counter, for functions too hot for a span."""
        counts = self.counts
        counts[name] = 0

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    """Rebind every opercalc module global that refers to ``original``."""
    for modname, module in list(sys.modules.items()):
        if modname != "opercalc" and not modname.startswith("opercalc."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap opercalc's public functions in the tracer's spans and counters."""
    for modname, attr, span in FUNCTION_SPANS:
        try:
            module = importlib.import_module(modname)
        except ImportError:
            continue
        original = getattr(module, attr, None)
        if callable(original):
            on_result = tracer.polygons.update if span == "enumeration.search" else None
            _replace_everywhere(original, tracer.timed(original, span, on_result))

    core = sys.modules.get("opercalc.core")
    polygon = getattr(core, "HNPolygon", None)
    if polygon is not None:
        if hasattr(polygon, "__post_init__"):
            polygon.__post_init__ = tracer.timed(polygon.__post_init__, "core.polygon_new")
        if hasattr(polygon, "value_at"):
            polygon.value_at = tracer.counted(polygon.value_at, "core.value_at")

    laws = sys.modules.get("opercalc.laws")
    if laws is not None and hasattr(laws, "ALL_LAWS"):
        laws.ALL_LAWS = tuple(tracer.timed(law, _law_span) for law in laws.ALL_LAWS)


def _law_span(result: Any) -> str:
    """Name a law's span after the law's reported name, as check-laws prints it."""
    return f"laws.{getattr(result, 'name', 'failed')}"


class StdoutDigest:
    """A stdout replacement that keeps only the sha256 and byte count."""

    def __init__(self) -> None:
        self.sha256 = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode()
        self.sha256.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self) -> None:
        pass

    def isatty(self) -> bool:
        return False


def run_pass(commands: list[Command]) -> tuple[int, list[dict]]:
    """Run ``commands`` in this process; return the wall time and each outcome."""
    from opercalc import cli

    results = []
    start = time.perf_counter_ns()
    for command in commands:
        kind, argv = command
        sink = StdoutDigest()
        with contextlib.redirect_stdout(sink):
            try:
                code = cli.run(list(argv)) if kind == CLI else crosscheck.main(argv)
            except Exception as exc:  # a crash is a failed command, not a failed trace
                print(f"{command_key(command)}: {exc!r}", file=sys.stderr)
                code = -1
        results.append({
            "key": command_key(command),
            "kind": kind,
            "exit": code,
            "sha256": sink.sha256.hexdigest(),
            "bytes": sink.bytes,
        })
    return time.perf_counter_ns() - start, results


def trace_commands(commands: list[Command]) -> dict:
    """Run ``commands`` untraced, then traced; return both passes' outcomes and
    host slowdowns (see run.calibrate) and the spans of the traced pass."""
    before = calibrate()
    untraced_ns, untraced = run_pass(commands)
    between = calibrate()
    tracer = Tracer()
    install(tracer)
    traced_ns, traced = run_pass(commands)
    after = calibrate()
    return {
        "untraced_ns": untraced_ns,
        "traced_ns": traced_ns,
        "untraced_slowdown": slowdown(before, between),
        "traced_slowdown": slowdown(between, after),
        "results": untraced + traced,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "polygons": len(tracer.polygons),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    commands = WORKLOADS[args.workload]
    commands = random.Random(args.seed).sample(commands, len(commands))
    print(json.dumps(trace_commands(commands), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
