#!/usr/bin/env python3
"""Self-check of the benchmark harness on tiny inputs (r=3, g=2).

    python3 perfbench/selfcheck.py

Traces the tiny commands of workloads.py in this process and checks that

- span self times are non-negative and sum to at most the traced wall time;
- every metric name, in BENCHMARK.json and in the traced run, matches
  ``[A-Za-z0-9_.-]+``;
- a span whose function the program lacks, and a span the commands never
  reach, report 0 instead of failing the run;
- the correctness gate passes the recorded outputs and fails them once the
  expected digest is corrupted.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import sys

import run
from workloads import TINY


def main() -> int:
    if not (run.SRC / "opercalc" / "cli.py").is_file():
        print(f"no opercalc sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import traced  # imports opercalc, so only once src/ is on the path
    spec = run.load_json(run.ROOT / "BENCHMARK.json")
    expected = run.load_json(run.HERE / "expected.json")

    # Spans for a function and a module that do not exist.
    traced.FUNCTION_SPANS += (
        ("opercalc.core", "no_such_function", "core.absent"),
        ("opercalc.no_such_module", "no_such_function", "absent.module"),
    )
    trace = traced.trace_commands(list(TINY))
    values = run.layer_values(trace)
    metrics = run.report(spec["per_layer"], values)
    declared = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]

    problems = run.check_trace(trace)
    checks = {
        "self times are non-negative and sum to at most the traced wall time":
            not problems,
        "every metric name matches [A-Za-z0-9_.-]+":
            all(run.METRIC_NAME.fullmatch(name) for name in declared + list(values)),
        "spans of absent or unreached functions report zero":
            not {"core.absent", "absent.module"} & set(trace["spans"])
            and list(metrics) == [m["name"] for m in spec["per_layer"]]
            and metrics["laws.run_all_s"]["value"] == 0,
        "the correctness gate passes the recorded outputs":
            all(run.matches(expected[r["key"]], r["exit"], r["sha256"], r["bytes"])
                for r in trace["results"]),
        "the correctness gate fails a corrupted expected digest":
            not any(run.matches({**expected[r["key"]], "sha256": "0" * 64},
                                r["exit"], r["sha256"], r["bytes"])
                    for r in trace["results"]),
    }
    for problem in problems:
        print(f"  {problem}")
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
