#!/usr/bin/env python3
"""Record the correctness gate: every command's exit code, stdout sha256, byte
count and reported polygon count, written to expected.json.

    python3 perfbench/record_expected.py

Run it only at a commit whose output is known to be right (the seed commit, or
a change that alters the output on purpose and says so); the benchmark then
fails every command whose output differs from what is recorded here.
"""

from __future__ import annotations

import json
import sys

from run import HERE, RUN_LIMIT_S, child_env, command_argv, run_subprocess
from workloads import CLI, TINY, WORKLOADS, Command, command_key


def reported_polygons(command: Command, stdout: bytes) -> int:
    """The polygons a command reports: a count, a strata element list or a
    listing; 0 for check-laws."""
    kind, argv = command
    if kind != CLI:
        return sum(json.loads(line)["count"] for line in stdout.splitlines())
    if "--format" not in argv:
        return 0
    result = json.loads(stdout)
    if isinstance(result, list):
        return len(result)
    if "elements" in result:
        return len(result["elements"])
    return result["count"]


def main() -> int:
    expected = {}
    commands = [c for seq in WORKLOADS.values() for c in seq] + list(TINY)
    for command in commands:
        out = run_subprocess(command_argv(command), child_env(0), RUN_LIMIT_S,
                             keep_stdout=True)
        if out.timed_out or out.exit != 0:
            print(f"{command_key(command)} failed: exit {out.exit}", file=sys.stderr)
            return 1
        expected[command_key(command)] = {
            "exit": out.exit,
            "sha256": out.sha256,
            "bytes": out.bytes,
            "polygons": reported_polygons(command, out.stdout),
        }
        print(f"{command_key(command)}: {expected[command_key(command)]}")
    with open(HERE / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
