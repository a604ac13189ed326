"""Copy-on-write execution snapshots for branch-flip resumption.

The paper's offline executor (Sect. III-B) restarts the SUT from the
entry point for every flipped branch, making exploration cost
O(paths x path-length) even though sibling paths share almost their
entire prefix.  This module holds the state the explorer captures at
each branch divergence point so a flipped child can *resume* there and
execute only the suffix:

* :class:`StateSnapshot` — one captured machine state: concrete memory
  pages aliased copy-on-write (:meth:`repro.arch.memory.ByteMemory
  .snapshot_pages`), the register file and shadow overlay shared
  structurally (their values are immutable), the :class:`PathTrace`
  prefix as a shared tuple of records, and the stdout produced so far
  (plus the shadow terms of its input-dependent bytes).

* :class:`SnapshotPool` — an LRU pool with byte-size accounting.  The
  pool is a pure cache: eviction (or a cross-worker miss) makes the
  executor fall back to full re-execution from ``pc = entry``, which
  discovers the identical path, so snapshots never affect *what* is
  explored — only how much of it is re-executed.

Resuming under a *different* input assignment is exact because the
concolic invariant pins every input-dependent datum to a term: a value
whose ``term`` is ``None`` is input-independent along the (identical,
guaranteed-by-the-model) control-flow prefix, and every other value is
its term evaluated under the capture-time assignment, which the snapshot
keeps by reference.  A term's value depends only on its free variables,
so a resume re-evaluates (with the reference evaluator,
:mod:`repro.smt.evalbv`) only the data whose terms read an input whose
value the new assignment changed; all other data keep the snapshot's
values, and their memory pages stay shared.  The capture side guards
the cases the invariant cannot cover (a syscall consuming a symbolic
register, input regions discovered after the capture point) by refusing
to capture / resume — falling back to re-execution, never diverging.
"""

from __future__ import annotations

from typing import Mapping, Optional

__all__ = ["StateSnapshot", "SnapshotPool"]

_PAGE_SIZE = 4096

#: Rough per-entry cost of the sparse dict-backed structures (key +
#: value slots + hash bucket); only used for pool byte accounting.
_ENTRY_COST = 96


class StateSnapshot:
    """One captured execution state at a branch divergence point.

    Immutable after construction.  ``pages`` alias the capturing
    memory's bytearrays (copy-on-write protected on the live side);
    ``regs``/``shadow``/``records`` share their immutable values
    structurally.  ``inputs_count`` pins the number of symbolic inputs
    known at capture time: resuming with a different count would skip
    the reset-time re-application of later-discovered inputs, so the
    executor falls back to re-execution instead.  ``assignment`` is the
    capturing run's :class:`~repro.core.state.InputAssignment`, shared
    (assignments are never mutated once built): the concrete values
    above are their terms' values under it.
    """

    __slots__ = (
        "pc",
        "instret",
        "pages",
        "shadow",
        "regs",
        "records",
        "stdout",
        "stdout_shadow",
        "inputs_count",
        "assignment",
        "byte_size",
        "source",
    )

    def __init__(
        self,
        pc: int,
        instret: int,
        pages: dict,
        shadow: dict,
        regs: tuple,
        records: tuple,
        stdout: bytes,
        stdout_shadow: tuple,
        inputs_count: int,
        assignment,
        source=None,
    ):
        self.pc = pc
        self.instret = instret
        self.pages = pages
        self.shadow = shadow
        self.regs = regs
        self.records = records
        self.stdout = stdout
        self.stdout_shadow = stdout_shadow
        self.inputs_count = inputs_count
        self.assignment = assignment
        #: Weak reference to the capturing :class:`ByteMemory` (or
        #: None): lets the pool hand the page references back on
        #: eviction while that memory is still executing, un-marking
        #: pages no live snapshot protects.  Dead by the next run —
        #: the interpreter replaces its memory on reset — in which
        #: case releasing is a no-op.
        self.source = source
        # Conservative size estimate: aliased pages are charged in full
        # to every snapshot referencing them (structural sharing means
        # the true marginal cost is lower), so the pool errs towards
        # evicting early rather than blowing its budget.
        self.byte_size = (
            len(pages) * _PAGE_SIZE
            + (len(shadow) + len(records) + len(stdout_shadow)) * _ENTRY_COST
            + len(regs) * _ENTRY_COST
            + len(stdout)
        )


class SnapshotPool:
    """LRU-bounded snapshot store with byte-size accounting.

    Handles are process-local integers: interned terms (inside records,
    shadow values and register terms) hash by identity, so a snapshot is
    only meaningful in the process that captured it.  Each parallel
    exploration worker therefore owns one pool, and the run step treats a
    missing handle as "re-execute from the entry point".
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024):
        self.max_bytes = max_bytes
        # handle -> snapshot, in LRU order (oldest first).
        self._snapshots: dict[int, StateSnapshot] = {}
        self._next_handle = 0
        self.resident_bytes = 0
        self.captured = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._snapshots)

    def add(self, snapshot: StateSnapshot) -> Optional[int]:
        """Admit a snapshot; returns its handle (None if over budget)."""
        if snapshot.byte_size > self.max_bytes:
            return None  # would evict the whole pool for one entry
        while self.resident_bytes + snapshot.byte_size > self.max_bytes:
            self._evict_oldest()
        handle = self._next_handle
        self._next_handle += 1
        self._snapshots[handle] = snapshot
        self.resident_bytes += snapshot.byte_size
        self.captured += 1
        return handle

    def get(self, handle: int) -> Optional[StateSnapshot]:
        """Snapshot for ``handle``, or None when evicted (LRU touch)."""
        snapshot = self._snapshots.get(handle)
        if snapshot is None:
            self.misses += 1
            return None
        del self._snapshots[handle]
        self._snapshots[handle] = snapshot  # move-to-end: recency order
        self.hits += 1
        return snapshot

    def discard(self, handle: int) -> None:
        """Drop an entry the caller found unusable (stale snapshot).

        Reclassifies the preceding :meth:`get` as a miss — the handle
        was served but could not be consumed — and frees the entry: a
        stale snapshot can never become consumable again (symbolic
        inputs only accumulate), so keeping it would only displace
        usable entries.
        """
        snapshot = self._snapshots.pop(handle, None)
        if snapshot is None:
            return
        self.resident_bytes -= snapshot.byte_size
        self.hits -= 1
        self.misses += 1
        self._release(snapshot)

    @staticmethod
    def _release(snapshot: StateSnapshot) -> None:
        """Hand page references back to the capturing memory, if alive."""
        source = snapshot.source
        if source is None:
            return
        memory = source()
        if memory is not None:
            memory.release_pages(snapshot.pages)

    def _evict_oldest(self) -> None:
        handle = next(iter(self._snapshots))
        snapshot = self._snapshots.pop(handle)
        self.resident_bytes -= snapshot.byte_size
        self.evictions += 1
        self._release(snapshot)

    def set_budget(self, max_bytes: int) -> None:
        """Shrink (or grow) the byte budget, evicting down to it.

        Memory-governor rung: eviction is the pool's ordinary, sound
        degradation — later resume attempts miss and fall back to full
        re-execution, discovering the identical path.
        """
        self.max_bytes = max(0, max_bytes)
        while self._snapshots and self.resident_bytes > self.max_bytes:
            self._evict_oldest()

    def clear(self) -> None:
        for snapshot in self._snapshots.values():
            self._release(snapshot)
        self._snapshots.clear()
        self.resident_bytes = 0

    @property
    def statistics(self) -> Mapping[str, int]:
        """Flat counters (exactly summable across workers; the two
        ``pool_*`` entries are point-in-time gauges)."""
        return {
            "snap_captured": self.captured,
            "snap_pool_hits": self.hits,
            "snap_pool_misses": self.misses,
            "snap_pool_evictions": self.evictions,
            "snap_pool_entries": len(self._snapshots),
            "snap_pool_bytes": self.resident_bytes,
        }
