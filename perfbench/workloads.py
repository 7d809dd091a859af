"""The benchmark's workloads: fixed command sequences of the paper's checks.

A command is ``(kind, argv)``. ``kind`` is ``"opercalc"`` for the CLI, run as
``python -m opercalc.cli ARGV`` or in-process as ``opercalc.cli.run(ARGV)``, or
``"crosscheck"`` for ``crosscheck.py``, which compares the fast enumerator with
the slow oracle through the public API. README.md gives the reason for each
workload and for its size: every command takes at most a few seconds, so that a
run holds enough sequences for a steady median.
"""

from __future__ import annotations

CLI = "opercalc"
CROSSCHECK = "crosscheck"

Command = tuple[str, tuple[str, ...]]

WORKLOADS: dict[str, tuple[Command, ...]] = {
    "verify": (
        (CLI, ("enumerate", "--rank", "5", "--genus", "3", "--verify", "--format", "json")),
    ),
    "listing": (
        (CLI, ("enumerate", "--rank", "7", "--genus", "3", "--format", "json")),
    ),
    "strata": (
        (CLI, ("strata", "--rank", "6", "--genus", "2", "--format", "json")),
    ),
    "crosscheck": (
        (CLI, ("check-laws",)),
        (CROSSCHECK, ("5", "3", "6", "2")),
    ),
}

# Tiny inputs (r=3, g=2) covering every command shape, for selfcheck.py.
TINY: tuple[Command, ...] = (
    (CLI, ("enumerate", "--rank", "3", "--genus", "2", "--verify", "--format", "json")),
    (CLI, ("enumerate", "--rank", "3", "--genus", "2", "--format", "json")),
    (CLI, ("strata", "--rank", "3", "--genus", "2", "--format", "json")),
    (CROSSCHECK, ("3", "2")),
)


def command_key(command: Command) -> str:
    """The key of a command in expected.json, e.g. ``opercalc strata --rank 5 ...``."""
    kind, argv = command
    return " ".join((kind,) + argv)
