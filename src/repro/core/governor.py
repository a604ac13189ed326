"""Memory governor: drop the snapshot pool once RSS exceeds a budget.

The fault-tolerance layer (:mod:`repro.core.faults`) bounds what a
*crash* can cost; this module bounds what *memory pressure* can cost.  A
:class:`MemoryGovernor` watches the driver process's resident set size
against a ``--memory-budget``.  Every exploration
:class:`repro.core.explorer.Worker` (the in-process one, or one per
pool process — RSS is per-process, so each owns its own governor) has
one rung to give: on the first sample over the budget it clears its
snapshot pool and captures no more snapshots.  Exploration then runs
every path from the entry, as ``--no-snapshots`` does, and the path set
stays the same: the offline executor re-runs a path from the entry
whenever its snapshot is gone.

The pool is the one piece of state worth giving back.  On the
perfbench programs, shrinking the query, staged-plan and superblock
caches freed well under 1 % of RSS, and the pool never came near its
64 MiB budget, so halving that budget evicted nothing.  Each of those
caches keeps its own LRU cap instead.

The rung is counted (``degradations`` in the exploration result,
``gov_*`` counters in ``--stats``), so a run that returned the full
path set *slowly* under pressure is distinguishable from a healthy one —
the anytime contract's "never a silent loss" extended to memory.

RSS sampling uses ``/proc/self/statm`` (Linux) and falls back to
``resource.getrusage`` peak-RSS elsewhere; no third-party dependency.
Sampling is throttled (every ``check_interval``-th ``maybe_step``), so
the per-run overhead is one integer comparison.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

__all__ = ["MemoryGovernor", "rss_bytes"]

try:  # pragma: no cover - platform probe
    _PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError, AttributeError):  # pragma: no cover
    _PAGE_BYTES = 4096


def rss_bytes() -> int:
    """Resident set size of this process, in bytes (best effort).

    ``/proc/self/statm`` field 2 is current RSS in pages; the
    ``getrusage`` fallback reports *peak* RSS (KiB on Linux), which
    over-approximates — the conservative direction for a governor.
    Returns 0 when neither source is available, which disables
    pressure detection rather than crashing the exploration.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * _PAGE_BYTES
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - no resource module
        return 0


class MemoryGovernor:
    """Signals, once, that RSS exceeded a budget.

    Every sample over the budget is counted (``pressure_events``), also
    after the rung fired: the caller can see that pressure went on once
    nothing was left to give up.  ``sampler`` is injectable for
    deterministic tests and for the ``memhog=`` chaos schedules.
    """

    def __init__(
        self,
        budget_bytes: int,
        check_interval: int = 4,
        sampler: Optional[Callable[[], int]] = None,
    ):
        self.budget_bytes = budget_bytes
        self.check_interval = max(1, check_interval)
        self._sampler = sampler if sampler is not None else rss_bytes
        self._tick = 0
        self.samples = 0
        self.pressure_events = 0
        self.rungs_applied = 0

    def maybe_step(self) -> bool:
        """Sample RSS (throttled); True on the first sample over the
        budget, when the caller drops its snapshot pool."""
        self._tick += 1
        if self._tick % self.check_interval:
            return False
        self.samples += 1
        if self._sampler() <= self.budget_bytes:
            return False
        self.pressure_events += 1
        if self.rungs_applied:
            return False
        self.rungs_applied = 1
        return True

    @property
    def statistics(self) -> dict:
        """Flat counters (exactly summable across workers)."""
        return {
            "gov_samples": self.samples,
            "gov_pressure_events": self.pressure_events,
            "gov_rungs_applied": self.rungs_applied,
            "gov_rung_snapshots_off": self.rungs_applied,
        }
