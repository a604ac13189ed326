"""Memory governor: an RSS-sampling degradation ladder for exploration.

PR 7's fault-tolerance contract bounds what a *crash* can cost; this
module bounds what *memory pressure* can cost.  A
:class:`MemoryGovernor` watches the driver process's resident set size
against a ``--memory-budget`` and, whenever a sample exceeds the
budget, walks one rung down a degradation ladder of pre-registered
actions.  Every exploration :class:`repro.core.explorer.Worker` (the
in-process one, or one per pool process — RSS is per-process, so each
owns its own governor) registers three rungs, most-reversible first:

1. **shrink the snapshot pool** — halve
   :attr:`repro.core.snapshots.SnapshotPool.max_bytes` and evict down
   to it.  Sound by the PR 5 eviction contract: a missing snapshot
   falls back to full re-execution of the identical path.
2. **tighten the memo caches** — halve the
   :class:`repro.smt.solver.QueryCache` capacities (memo entries and
   UNSAT-subsumption window) and the staged-plan / superblock caches.  Sound because all of these are pure memos: an
   evicted entry is re-derived, never re-answered differently.
3. **disable snapshot capture** — stop admitting new snapshots
   entirely (and drop the pool).  The most drastic rung: exploration
   degenerates to PR 1-style full re-execution per path, which is
   exactly the behaviour ``--no-snapshots`` ships as an ablation.

Every rung application is counted (``degradations`` in the exploration
result, per-rung counters in ``--stats``), so a run that returned the
full path set *slowly* under pressure is distinguishable from a healthy
one — the anytime contract's "never a silent loss" extended to memory.

RSS sampling uses ``/proc/self/statm`` (Linux) and falls back to
``resource.getrusage`` peak-RSS elsewhere; no third-party dependency.
Sampling is throttled (every ``check_interval``-th ``maybe_step``), so
the per-run overhead is one integer comparison.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

__all__ = ["MemoryGovernor", "build_exploration_governor", "rss_bytes"]

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
    """Walks a ladder of degradation actions when RSS exceeds a budget.

    ``rungs`` are ``(name, action)`` pairs, most-reversible first; each
    action fires **once**, on its own pressure sample, so one spike
    never jumps straight to the bottom of the ladder.  Pressure beyond
    the last rung is still counted (``pressure_events``) — the caller
    can see that the governor ran out of things to give up.

    ``sampler`` is injectable for deterministic tests and for the
    ``memhog=`` chaos schedules.
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
        self._rungs: list[tuple[str, Callable[[], None]]] = []
        self._next_rung = 0
        self._tick = 0
        self.samples = 0
        self.pressure_events = 0
        self.rungs_applied = 0
        self._rung_counts: dict[str, int] = {}

    def add_rung(self, name: str, action: Callable[[], None]) -> None:
        self._rungs.append((name, action))

    @property
    def exhausted(self) -> bool:
        """Every rung has fired; nothing is left to give up."""
        return self._next_rung >= len(self._rungs)

    def maybe_step(self) -> bool:
        """Sample RSS (throttled); walk one rung on pressure.

        Returns True when a rung fired — callers can log or re-check.
        Never raises: a failing action is recorded as applied (the
        ladder must keep descending under pressure, not wedge on one
        broken rung).
        """
        self._tick += 1
        if self._tick % self.check_interval:
            return False
        self.samples += 1
        if self._sampler() <= self.budget_bytes:
            return False
        self.pressure_events += 1
        if self.exhausted:
            return False
        name, action = self._rungs[self._next_rung]
        self._next_rung += 1
        self.rungs_applied += 1
        self._rung_counts[name] = self._rung_counts.get(name, 0) + 1
        try:
            action()
        except Exception:  # pragma: no cover - defensive
            pass
        return True

    @property
    def statistics(self) -> dict:
        """Flat counters (exactly summable across workers)."""
        stats = {
            "gov_samples": self.samples,
            "gov_pressure_events": self.pressure_events,
            "gov_rungs_applied": self.rungs_applied,
        }
        for name, count in self._rung_counts.items():
            stats[f"gov_rung_{name}"] = count
        return stats


def build_exploration_governor(
    budget_mb: int,
    executor,
    solver,
    capture_state: dict,
    sampler: Optional[Callable[[], int]] = None,
) -> MemoryGovernor:
    """Wire the standard three-rung ladder for one exploration worker.

    ``capture_state`` is the worker's mutable ``{"snapshots": bool}``
    cell — rung 3 flips it off, and the worker re-reads it every run,
    so disabling capture takes effect immediately without threading a
    callback through the run loop.  ``solver``/``executor`` hooks are
    duck-typed: a missing surface (no cache, no snapshot pool) makes
    that part of the rung a no-op, so the ladder works for every
    engine.
    """
    governor = MemoryGovernor(budget_mb * 1024 * 1024, sampler=sampler)
    pool = getattr(executor, "snapshot_pool", None)

    def shrink_snapshot_budget() -> None:
        if pool is not None:
            pool.set_budget(max(1024 * 1024, pool.max_bytes // 2))

    def tighten_caches() -> None:
        cache = getattr(solver, "cache", None)
        if cache is not None and hasattr(cache, "tighten"):
            cache.tighten()
        tighten = getattr(executor, "tighten_caches", None)
        if tighten is not None:
            tighten()

    def disable_capture() -> None:
        capture_state["snapshots"] = False
        if pool is not None:
            pool.clear()

    governor.add_rung("snapshot_budget", shrink_snapshot_budget)
    governor.add_rung("cache_capacity", tighten_caches)
    governor.add_rung("snapshots_off", disable_capture)
    return governor
