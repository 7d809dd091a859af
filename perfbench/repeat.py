#!/usr/bin/env python3
"""Repeat the benchmark with distinct seeds and report each metric's spread.

    python3 perfbench/repeat.py --runs 10 [--workloads verify strata] [--record LABEL]

For every workload and end-to-end metric it prints the median of the runs and
the distance between the first and third quartile as a share of the median,
next to the metric's bound from BENCHMARK.json. A spread should stay below a
third of its bound (``setup_s`` excepted) before two commits are compared.
With ``--record LABEL`` the medians and quartiles are appended, with their
provenance, as one line of trajectory.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT, load_json, provenance


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed commands\n"
                         f"{done.stderr}")
    return result


def main() -> int:
    spec = load_json(ROOT / "BENCHMARK.json")
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()

    point: dict = {"label": args.record, "seconds": spec["run_seconds"], "runs": args.runs,
                   "provenance": provenance(), "workloads": {}}
    steady = True
    for workload in args.workloads:
        started = time.perf_counter()
        results = [run_once(workload, args.first_seed + i, spec["run_seconds"])
                   for i in range(args.runs)]
        elapsed = time.perf_counter() - started
        print(f"{workload}: {args.runs} runs in {elapsed:.0f} s")
        point["workloads"][workload] = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            steady = steady and ok
            print(f"  {metric['name']:>15}: median {median:.6g} {metric['unit']}, "
                  f"spread {spread:.4f} (bound {metric['bound']}){'' if ok else '  WIDE'}; "
                  f"runs: {' '.join(f'{v:.4g}' for v in values)}")
            point["workloads"][workload][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "unit": metric["unit"]}
    if args.record:
        with open(HERE / "trajectory.jsonl", "a") as fh:
            fh.write(json.dumps(point, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
