#!/usr/bin/env python3
"""opercalc benchmark: one workload end to end, or layer by layer.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from any directory of a source checkout; the program is imported from its
src/ directory. With ``--trace 0`` a single client runs the workload's command
sequence (see workloads.py) again and again as ``opercalc`` subprocesses, one
command at a time, starting a new sequence while fewer than ``--seconds``
seconds have passed. With ``--trace 1`` traced.py runs the sequence in-process,
once untraced and once with spans around each layer's public functions.

Each command's exit code, stdout sha256 and byte count are checked against
expected.json, recorded at the seed commit; a mismatch, a crash or a timeout
is a failed command. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of BENCHMARK.json (``end_to_end`` with ``--trace 0``,
``per_layer`` with ``--trace 1``). The line before it holds the provenance:
host, CPU count, Python version, git SHA and a digest of src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from workloads import CLI, CROSSCHECK, WORKLOADS, Command, command_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every run, set-up included, ends within this many seconds: commands still
# running then are killed and count as failed, and commands not yet started
# count as failed too. It leaves headroom under the 180 s a run may take.
RUN_LIMIT_S = 160.0
SETUP_COMMAND = ("-c", "import opercalc.cli")
# The speed of a shared host drifts by a third and more over tens of seconds,
# and that drift moves every time the benchmark takes. So calibrate() times a
# fixed job next to every command sequence, and each timing is scaled to the
# speed at which that job takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.01
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Metrics of spans with this prefix include the time of the spans they enclose: a law's
# cost is the search and dominance work it drives. Every other ``<span>_s`` is
# the span's self time.
INCLUSIVE_PREFIX = "laws."


@dataclass(frozen=True)
class Outcome:
    """One finished subprocess: its wall time, resource use and stdout digest."""

    wall_s: float
    exit: int | None
    cpu_s: float
    maxrss_kb: int
    sha256: str
    bytes: int
    stdout: bytes | None
    timed_out: bool


def _calibration_job() -> int:
    rows = []
    for i in range(1, 100):
        for j in range(1, 13):
            rows.append(((i, j), Fraction(i, j) - Fraction(j, i)))
    rows.sort(key=lambda row: row[1])
    listing = [{"breakpoints": [[k, (k * i) % 17] for k in range(6)]} for i in range(300)]
    return len(rows) + len(json.dumps(listing, sort_keys=True))


def calibrate() -> float:
    """Seconds the host now takes for a fixed pure-Python job of the kinds of
    work opercalc does (exact rationals, tuples, sorting, JSON): the median of
    five repetitions."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _calibration_job()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def slowdown(before: float, after: float) -> float:
    """How many times slower than the reference speed the host ran between
    two calibrations."""
    return (before + after) / (2 * CALIBRATION_REF_S)


def child_env(seed: int) -> dict[str, str]:
    """Environment for opercalc subprocesses: src/ first on the path and a
    string-hash seed taken from the workload seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def run_subprocess(argv: list[str], env: dict[str, str], timeout: float,
                   keep_stdout: bool = False) -> Outcome:
    """Run ``argv`` to completion or until ``timeout`` seconds have passed.

    stdout is hashed as it streams; ``os.wait4`` gives the child's own CPU
    time and peak RSS.
    """
    if timeout <= 0:
        return Outcome(0.0, None, 0.0, 0, "", 0, None, True)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
    digest = hashlib.sha256()
    chunks: list[bytes] = []
    nbytes = 0

    def drain() -> None:
        nonlocal nbytes
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
            nbytes += len(chunk)
            if keep_stdout:
                chunks.append(chunk)

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    reader.join(timeout)
    timed_out = reader.is_alive()
    if timed_out:
        proc.kill()
        reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    proc.stdout.close()
    return Outcome(wall_s, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                   digest.hexdigest(), nbytes, b"".join(chunks) if keep_stdout else None,
                   timed_out)


def command_argv(command: Command) -> list[str]:
    kind, argv = command
    script = {CLI: ["-m", "opercalc.cli"], CROSSCHECK: [str(HERE / "crosscheck.py")]}[kind]
    return [sys.executable, *script, *argv]


def matches(expected: dict, exit_code: int | None, sha256: str, nbytes: int) -> bool:
    """The correctness gate: exit code, stdout sha256 and byte count as recorded."""
    return (exit_code == expected["exit"] and sha256 == expected["sha256"]
            and nbytes == expected["bytes"])


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance() -> dict:
    """Where and on what code a result was measured."""
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
    }


def measure_end_to_end(workload: str, seed: int, seconds: int,
                       deadline: float) -> tuple[int, int, dict[str, float], str]:
    """Run the workload's command sequence until ``seconds`` have passed.

    Each sequence is preceded by one set-up sample and enclosed by two
    calibrations; its times are divided by the slowdown the two give.
    """
    expected = load_json(HERE / "expected.json")
    env = child_env(seed)
    commands = WORKLOADS[workload]
    polygons_per_sequence = sum(expected[command_key(c)]["polygons"] for c in commands)
    rng = random.Random(seed)
    setup_argv = [sys.executable, *SETUP_COMMAND]
    run_subprocess(setup_argv, env, deadline - time.perf_counter())  # writes bytecode caches

    attempted = failed = 0
    setup, walls, cpus, peak_kb = [], [], [], 0
    calibrations = [calibrate()]
    start = time.perf_counter()
    while True:
        out = run_subprocess(setup_argv, env, deadline - time.perf_counter())
        attempted += 1
        if out.exit != 0:
            failed += 1
            print(f"FAILED set-up: exit {out.exit}, timed out: {out.timed_out}",
                  file=sys.stderr)
        setup.append(out.wall_s)
        wall = cpu = 0.0
        for command in rng.sample(commands, len(commands)):
            out = run_subprocess(command_argv(command), env, deadline - time.perf_counter())
            attempted += 1
            if not matches(expected[command_key(command)], out.exit, out.sha256, out.bytes):
                failed += 1
                print(f"FAILED {command_key(command)}: exit {out.exit}, {out.bytes} bytes, "
                      f"sha256 {out.sha256}, timed out: {out.timed_out}", file=sys.stderr)
            wall += out.wall_s
            cpu += out.cpu_s
            peak_kb = max(peak_kb, out.maxrss_kb)
        walls.append(wall)
        cpus.append(cpu)
        calibrations.append(calibrate())
        now = time.perf_counter()
        if now - start >= seconds or now >= deadline:
            break

    slow = [slowdown(a, b) for a, b in zip(calibrations, calibrations[1:])]
    wall_s = statistics.median(w / f for w, f in zip(walls, slow))
    values = {
        "wall_s": wall_s,
        "cpu_s": statistics.median(c / f for c, f in zip(cpus, slow)),
        "peak_rss_mb": peak_kb / 1024,
        "polygons_per_s": polygons_per_sequence / wall_s if wall_s else 0.0,
        "setup_s": statistics.median(s / f for s, f in zip(setup, slow)),
    }
    summary = (f"{workload}: {len(walls)} sequences of {len(commands)} command(s); "
               f"as measured: wall min {min(walls):.4f} s, median "
               f"{statistics.median(walls):.4f} s, max {max(walls):.4f} s, set-up median "
               f"{statistics.median(setup):.4f} s; slowdown min {min(slow):.3f}, "
               f"median {statistics.median(slow):.3f}, max {max(slow):.3f}")
    return attempted, failed, values, summary


def check_trace(trace: dict) -> list[str]:
    """Harness invariants of a traced run; returns the violations found."""
    problems = []
    for name, (calls, total_ns, self_ns) in trace["spans"].items():
        if self_ns < 0 or self_ns > total_ns:
            problems.append(f"span {name}: self time {self_ns} ns outside [0, {total_ns}] ns")
        if not METRIC_NAME.fullmatch(name):
            problems.append(f"span name {name!r} is not a valid metric name")
    self_sum = sum(self_ns for _, _, self_ns in trace["spans"].values())
    if self_sum > trace["traced_ns"]:
        problems.append(f"self times sum to {self_sum} ns, more than the traced "
                        f"wall time {trace['traced_ns']} ns")
    return problems


def layer_values(trace: dict) -> dict[str, float]:
    """Per-layer metric values of a traced run, keyed by metric name."""
    values: dict[str, float] = {}
    slow = trace["traced_slowdown"]
    for name, (calls, total_ns, self_ns) in trace["spans"].items():
        values[f"{name}_calls"] = calls
        inclusive = name.startswith(INCLUSIVE_PREFIX)
        values[f"{name}_s"] = (total_ns if inclusive else self_ns) / 1e9 / slow
    for name, calls in trace["counts"].items():
        values[f"{name}_calls"] = calls
    polygons = trace["polygons"]
    values["enumeration.polygons"] = polygons
    shatz_calls = values.get("core.shatz_leq_calls", 0)
    values["core.dominance_per_polygon"] = shatz_calls / polygons if polygons else 0.0
    traced = trace["results"][len(trace["results"]) // 2:]
    values["cli.output_bytes"] = sum(r["bytes"] for r in traced if r["kind"] == CLI)
    values["trace.overhead_s"] = (trace["traced_ns"] / slow
                                  - trace["untraced_ns"] / trace["untraced_slowdown"]) / 1e9
    return values


def measure_layers(workload: str, seed: int,
                   deadline: float) -> tuple[int, int, dict[str, float], str]:
    """Run traced.py for the workload and turn its spans into metric values."""
    expected = load_json(HERE / "expected.json")
    commands = WORKLOADS[workload]
    argv = [sys.executable, str(HERE / "traced.py"), "--workload", workload,
            "--seed", str(seed)]
    out = run_subprocess(argv, child_env(seed), deadline - time.perf_counter(),
                         keep_stdout=True)
    attempted = 2 * len(commands)
    if out.exit != 0 or out.timed_out:
        print(f"traced run failed: exit {out.exit}, timed out: {out.timed_out}",
              file=sys.stderr)
        return attempted, attempted, {}, f"{workload}: traced run failed"
    trace = json.loads(out.stdout)
    problems = check_trace(trace)
    if problems:
        raise SystemExit("harness self-check failed:\n  " + "\n  ".join(problems))
    failed = sum(not matches(expected[r["key"]], r["exit"], r["sha256"], r["bytes"])
                 for r in trace["results"])
    for name, (calls, total_ns, self_ns) in sorted(trace["spans"].items()):
        print(f"  span {name}: {calls} calls, total {total_ns / 1e9:.6f} s, "
              f"self {self_ns / 1e9:.6f} s", file=sys.stderr)
    summary = (f"{workload}: traced {trace['traced_ns'] / 1e9:.4f} s, "
               f"untraced {trace['untraced_ns'] / 1e9:.4f} s, in-process")
    return attempted, failed, layer_values(trace), summary


def report(wanted: list[dict], values: dict[str, float]) -> dict:
    """Entries for the BENCHMARK.json metrics in ``wanted``. A span the program
    no longer reaches reports 0 rather than failing the run."""
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}


def main() -> int:
    spec = load_json(ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (SRC / "opercalc" / "cli.py").is_file():
        print(f"no opercalc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    measured_on = provenance()  # before pinning, which would change nproc
    # One CPU for this process and the subprocesses it starts, so that the
    # calibrations and the commands meet the same contention.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"running unpinned: {exc}", file=sys.stderr)

    if args.trace:
        attempted, failed, values, summary = measure_layers(args.workload, args.seed, deadline)
        wanted = spec["per_layer"]
    else:
        attempted, failed, values, summary = measure_end_to_end(
            args.workload, args.seed, args.seconds, deadline)
        wanted = spec["end_to_end"]
    print(summary)
    print("provenance " + json.dumps(measured_on, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report(wanted, values)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
