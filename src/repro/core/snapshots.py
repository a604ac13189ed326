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

* :class:`SnapshotPool` — the live snapshots, counted by holder.  The
  run that captures a snapshot holds it until its children are built;
  each child that names it holds it until the child runs, is dropped
  as a duplicate or is stolen by another worker.  The last hold given
  back frees the snapshot, so the pool holds the snapshots of the
  pending frontier, not every capture.  A byte budget bounds those live
  snapshots by LRU eviction, and eviction (like a cross-worker miss)
  makes the executor fall back to full re-execution from
  ``pc = entry``, which discovers the identical path, so snapshots
  never affect *what* is explored — only how much of it is re-executed.

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
        #: None): lets the pool hand the page references back when it
        #: frees the snapshot while that memory is still executing or
        #: has just finished, un-marking pages no live snapshot
        #: protects.  Dead by the next run — the interpreter replaces
        #: its memory on reset — in which case handing back is a no-op.
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
    """The live snapshots of one process, with holds and a byte budget.

    Each entry keeps a count of its holders.  :meth:`add` admits a
    snapshot held once, by the run that captured it; the run step takes
    one :meth:`hold` per child that names the handle and then gives its
    own back with :meth:`release`.  A child's hold is given back when
    the child runs (resumed or not), is dropped as a duplicate, or is
    stolen by another worker.  The last :meth:`release` frees the
    snapshot and hands its page references back, as eviction does, so a
    snapshot lives exactly as long as some pending item names it.

    ``max_bytes`` bounds the live snapshots: admitting one over it
    evicts the least recently used.  Eviction is the pool's sound
    degradation: a child whose snapshot is gone, like a missing or stale
    handle, re-executes from the entry point, and a later :meth:`hold`
    or :meth:`release` of it does nothing.

    Handles are process-local integers, never reused: interned terms
    (inside records, shadow values and register terms) hash by identity,
    so a snapshot is only meaningful in the process that captured it.
    Each parallel exploration worker therefore owns one pool, and the
    run step treats a missing handle as "re-execute from the entry
    point".
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024):
        self.max_bytes = max_bytes
        # handle -> snapshot, in LRU order (oldest first).
        self._snapshots: dict[int, StateSnapshot] = {}
        # handle -> holders, for every handle in _snapshots.
        self._holds: dict[int, int] = {}
        self._next_handle = 0
        self.resident_bytes = 0
        self.captured = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._snapshots)

    @property
    def next_handle(self) -> int:
        """The handle the next admitted snapshot gets: every snapshot
        admitted from now on has a handle at least this."""
        return self._next_handle

    def add(self, snapshot: StateSnapshot) -> Optional[int]:
        """Admit a snapshot held once, by the capturing run; returns its
        handle (None if over budget)."""
        if snapshot.byte_size > self.max_bytes:
            return None  # would evict the whole pool for one entry
        while self.resident_bytes + snapshot.byte_size > self.max_bytes:
            self._evict_oldest()
        handle = self._next_handle
        self._next_handle += 1
        self._snapshots[handle] = snapshot
        self._holds[handle] = 1
        self.resident_bytes += snapshot.byte_size
        self.captured += 1
        return handle

    def hold(self, handle: int) -> None:
        """One more holder of ``handle``; nothing if it left the pool."""
        holds = self._holds
        if handle in holds:
            holds[handle] += 1

    def release(self, handle: int) -> None:
        """Give back one hold of ``handle``; the last frees the snapshot.

        Nothing happens if the snapshot already left the pool.
        """
        holds = self._holds
        count = holds.get(handle)
        if count is None:
            return
        if count > 1:
            holds[handle] = count - 1
            return
        del holds[handle]
        snapshot = self._snapshots.pop(handle)
        self.resident_bytes -= snapshot.byte_size
        self._return_pages(snapshot)

    def release_from(self, first: int) -> None:
        """Give back one hold of every snapshot admitted since
        :attr:`next_handle` was ``first``: the capture holds of the run
        that started then."""
        for handle in range(first, self._next_handle):
            self.release(handle)

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
        usable entries; it leaves the pool whatever its holds.
        """
        snapshot = self._snapshots.pop(handle, None)
        if snapshot is None:
            return
        del self._holds[handle]
        self.resident_bytes -= snapshot.byte_size
        self.hits -= 1
        self.misses += 1
        self._return_pages(snapshot)

    @staticmethod
    def _return_pages(snapshot: StateSnapshot) -> None:
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
        del self._holds[handle]
        self.resident_bytes -= snapshot.byte_size
        self.evictions += 1
        self._return_pages(snapshot)

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
            self._return_pages(snapshot)
        self._snapshots.clear()
        self._holds.clear()
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
