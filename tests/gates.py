"""End-to-end gates of the opercalc CLI: ``python tests/gates.py``, from any directory.

Each row of ``GATES`` runs ``python -m opercalc.cli ARGV`` on this checkout's ``src`` in a
fresh process with a fixed environment, and checks its exit code, stdout (empty, or so many
bytes with this sha256), stderr, peak RSS (``ru_maxrss`` from ``os.wait4``) and time.  One
line per row; exit 1 if a row fails or none ran.  A child's peak RSS counts the process that
spawned it, so every child is spawned from this small script, which holds no child's output.
"""

import hashlib
import os
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Union

SRC = Path(__file__).resolve().parent.parent / "src"
REFUSED = "more than MAX_POLYGONS = 250000"


class Gate(NamedTuple):
    argv: str  # split on spaces
    exit: int
    stdout: Union[str, tuple[int, str]]  # "empty", or (bytes, sha256)
    stderr: str  # a text that stderr contains; "" for any
    rss_mb: int  # peak RSS stays under it
    timeout_s: int


GATES = (
    # each refusal past MAX_POLYGONS comes before any walk: by rank from 38, else by exact count
    Gate("enumerate --rank 8 --genus 7 --format json", 2, "empty", REFUSED, 25, 60),
    Gate("enumerate --rank 8 --genus 7 --format csv", 2, "empty", REFUSED, 25, 60),
    Gate("enumerate --rank 8 --genus 7", 2, "empty", REFUSED, 25, 60),
    Gate("enumerate --rank 8 --genus 7 --verify --format json", 2, "empty", REFUSED, 25, 60),
    Gate("enumerate --rank 100000000 --genus 2 --verify --format json", 2, "empty", REFUSED, 25, 10),
    # rank 37, the widest fan-out, is the largest that the search refuses by its count
    Gate("enumerate --rank 37 --genus 2 --format json", 2, "empty", REFUSED, 25, 60),
    Gate("enumerate --rank 37 --genus 2 --format csv", 2, "empty", REFUSED, 25, 60),
    Gate("enumerate --rank 37 --genus 2 --verify --format json", 2, "empty", REFUSED, 25, 60),
    Gate("strata --rank 8 --genus 7", 2, "empty", REFUSED, 25, 60),
    Gate("strata --rank 8 --genus 4 --format json", 2, "empty", "above the limit of 30000", 100, 60),
    Gate("oper-polygon --rank 100000000 --genus 2 --format json", 2, "empty", REFUSED, 100, 60),
    Gate("enumerate --rank 8 --genus 4 --verify --format json", 0, (134, "b7ba3ea19bde0def235c"
         "01b59139f0916ecb769e90d06efa14af5123a2e59c17"), "", 40, 120),
    Gate("enumerate --rank 8 --genus 4 --format json", 0, (19_700_031, "998a92b90650d2b208e51f"
         "19e77f87a5d4f1947b813ca7b5efa114e8c7f416b5"), "", 25, 120),
    Gate("enumerate --rank 8 --genus 4 --format csv", 0, (11_222_897, "d52943649553df359cfe18"
         "4c6bb9b7b5e8aa73ddb486a95146d7553ca04fbfe3"), "", 30, 120),
    Gate("enumerate --rank 8 --genus 4 --format table", 0, (13_816_309, "fa4b5f50109d6aa605fc"
         "87b4815490bc0638cf274fda82f62932229a47a34e96"), "", 80, 120),
    Gate("optimize --weight 200 --cap 200 --oracle", 2, "empty", "MAX_PARTS = 12500000", 40, 10),
    Gate("pushforward --rank 1 --degree 0 --genus 2 --char 2305843009213693951", 0, (130,
         "1f7580c545acb8df6e5876f18b013abf6f96cb7431a15cfee73ee761566bd04d"), "", 40, 10),
)


def run(gate: Gate) -> bool:
    argv = [sys.executable, "-m", "opercalc.cli", *gate.argv.split(" ")]
    env = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        while not (done := os.wait4(pid, os.WNOHANG))[0]:
            if time.perf_counter() - start > gate.timeout_s:
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.005)
        seconds = time.perf_counter() - start
        code, peak_mb = os.waitstatus_to_exitcode(done[1]), done[2].ru_maxrss / 1024  # kB
        size, sha = os.fstat(out.fileno()).st_size, hashlib.sha256()
        for at in range(0, size, 1 << 20):  # hashed in chunks, never held whole
            sha.update(os.pread(out.fileno(), 1 << 20, at))
        stderr = os.pread(err.fileno(), 1 << 16, 0)
    want = (0, hashlib.sha256().hexdigest()) if gate.stdout == "empty" else gate.stdout
    faults = [text for fault, text in [
        (seconds > gate.timeout_s, f"no exit within {gate.timeout_s} s"),
        (code != gate.exit, f"exit {code}, not {gate.exit}: {stderr[-200:]!r}"),
        ((size, sha.hexdigest()) != want, f"stdout is not {want[0]} B sha256 {want[1]}"),
        (gate.stderr.encode() not in stderr, f"stderr lacks {gate.stderr!r}"),
        (peak_mb >= gate.rss_mb, f"peak RSS not under {gate.rss_mb} MB")] if fault]
    print(f"{'FAIL' if faults else 'pass'} {seconds:6.2f} s {peak_mb:4.0f} MB  exit {code} "
          f"{size:>9} B  {sha.hexdigest()[:8]}  {gate.argv}", *faults, sep="; ")
    return not faults


if __name__ == "__main__":
    passed = [run(gate) for gate in GATES]
    sys.exit("FAIL: no gate ran" if not passed else 0 if all(passed) else 1)
