"""CPU time and peak memory of the server's process tree, from ``/proc``."""

from __future__ import annotations

import os
from pathlib import Path

_TICK = os.sysconf("SC_CLK_TCK")


def tree(pid: int) -> list[int]:
    """``pid`` and every live descendant (pool workers, resource tracker)."""
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        found.append(current)
        for task in Path(f"/proc/{current}/task").glob("*/children"):
            try:
                frontier.extend(int(c) for c in task.read_text().split())
            except OSError:
                continue
    return found


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds consumed so far by ``pid``'s live tree."""
    total = 0
    for proc in tree(pid):
        try:
            stat = Path(f"/proc/{proc}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        total += int(fields[11]) + int(fields[12])
    return total / _TICK


def _status_kb(proc: int) -> dict[str, int]:
    values = {}
    for line in Path(f"/proc/{proc}/status").read_text().splitlines():
        key, _, rest = line.partition(":")
        if rest.strip().endswith("kB"):
            values[key] = int(rest.split()[0])
    return values


def peak_rss_mb(pid: int) -> float:
    """Peak resident memory of the tree, shared pages counted once.

    The server counts its whole high-water mark.  Each descendant adds
    its high-water mark minus its current file-backed and shared-memory
    pages: the published column blocks and the loaded libraries it maps
    are the server's pages, already counted.
    """
    total = 0
    for proc in tree(pid):
        try:
            status = _status_kb(proc)
        except OSError:
            continue
        peak = status.get("VmHWM", 0)
        if proc != pid:
            peak = max(0, peak - status.get("RssFile", 0)
                       - status.get("RssShmem", 0))
        total += peak
    return total / 1024.0


def steal_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole machine so far.

    Time the hypervisor gave to other guests; a run whose steal share is
    high was slowed by its neighbours, not by the program.
    """
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)
