"""Crash-safe exploration checkpoints: an atomic-rename JSON journal.

The exploration driver (in process or pooled) periodically serializes
its *complete* recoverable state — every recorded path, the pending
frontier, the set of already-issued flip-query digests, the
campaign's own counters and the counter record of every recorded run
(the flip attribution and every layer's counters, as
``ExplorationResult.stats`` sums them) — to ``checkpoint.json`` inside
a campaign directory.  Writes go through a temp file + ``os.replace``,
so a crash at any instant leaves either the previous checkpoint or the
new one, never a torn file.

The journal carries its own **integrity digest**: the state object is
canonically serialized and a ``blake2b`` digest of those bytes is
stored alongside it.  ``load()`` recomputes the digest before trusting
anything — a truncated, bit-flipped or hand-edited journal fails with
a clear error instead of silently resuming a corrupted campaign (the
same never-trust-stored-answers contract the query cache enforces with
its per-entry digests).

``--resume <dir>`` reloads the journal and continues the campaign:
recorded paths are *not* re-executed (they are restored verbatim, with
their counters), pending frontier items are re-pushed, and the
persisted flip digests suppress re-deriving children some pre-crash
run already enqueued — so the resumed campaign completes exactly the
uninterrupted run's path set without duplicates.  This only works
because :func:`repro.core.scheduler.term_digest` is restart-stable
(independent of the interpreter's randomized hash seed).

Three deliberate non-goals keep the journal small and sound:

* **Snapshot handles are dropped** on save — they are process-local
  pool indices; restored items re-execute from the entry point, the
  same fallback the PR 5 eviction contract already guarantees.
* **Gauges are dropped** too (:data:`GAUGES`): a snapshot pool's or a
  query cache's size belongs to the process that held it, so a resumed
  campaign reports only the sizes of its own processes.
* The **write point** is after a path is recorded *and* its children
  pushed, so the journal never names a path whose children could be
  lost: execution between the last checkpoint and a crash is repeated
  (at-least-once), but every *persisted* path is final (exactly-once).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from .scheduler import WorkItem, deserialize_assignment, serialize_assignment

__all__ = ["CheckpointManager", "CheckpointState", "CHECKPOINT_FILENAME", "GAUGES"]

CHECKPOINT_FILENAME = "checkpoint.json"

#: Since version 4 the flip attribution is in ``stats`` (``flip_*``
#: keys), not in ``counters``; a journal of another version is refused.
_FORMAT_VERSION = 4

#: Point-in-time sizes in a process's counter record, not counts: the
#: result sums them over the processes that ran, but the journal leaves
#: them out, so a restore never adds a dead process's pool or cache size.
GAUGES = frozenset(
    ("snap_pool_entries", "snap_pool_bytes", "cache_entries", "cache_unsat_sets")
)


def _state_digest(state: dict) -> str:
    """Digest of the canonical serialization of the journal state.

    The state is re-serialized with sorted keys and fixed separators on
    both the write and the verify side, so the digest is independent of
    incidental formatting and survives a JSON round-trip (tuples come
    back as lists, which serialize identically).
    """
    body = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(body.encode("utf-8"), digest_size=16).hexdigest()

#: ExplorationResult fields the campaign itself counts, persisted
#: verbatim; the flip attribution travels in the ``stats`` map.
_COUNTER_FIELDS = (
    "pruned_queries",
    "incomplete_paths",
    "worker_deaths",
    "hung_workers",
    "total_instructions",
    "executed_instructions",
)


@dataclass
class CheckpointState:
    """One decoded journal: everything a resumed campaign starts from."""

    strategy: str
    seed: int
    complete: bool = False
    paths: list = field(default_factory=list)
    frontier: list = field(default_factory=list)
    digests: set = field(default_factory=set)
    covered: set = field(default_factory=set)
    counters: dict = field(default_factory=dict)
    #: The campaign's counter record (``ExplorationResult.stats``, flip
    #: attribution included), gauges left out.
    stats: dict = field(default_factory=dict)

    def restore_result(self, result) -> None:
        """Seed an ``ExplorationResult`` with the persisted campaign."""
        from .explorer import PathInfo

        for payload in self.paths:
            (
                halt,
                exit_code,
                instret,
                trace_len,
                assignment,
                stdout,
                pc,
                condition_digest,
            ) = payload
            result.paths.append(
                PathInfo(
                    index=len(result.paths),
                    halt_reason=halt,
                    exit_code=exit_code,
                    instret=instret,
                    trace_length=trace_len,
                    assignment=deserialize_assignment(assignment),
                    stdout=base64.b64decode(stdout),
                    final_pc=pc,
                    condition_digest=condition_digest,
                )
            )
        for name in _COUNTER_FIELDS:
            setattr(result, name, self.counters.get(name, 0))
        result.covered_branches |= self.covered
        result.merge_counters(self.stats)

    def frontier_items(self) -> list:
        """Pending :class:`WorkItem`s (snapshot-free, per module doc)."""
        return [
            WorkItem(
                deserialize_assignment(assignment),
                bound,
                novelty=novelty,
                digest=digest,
            )
            for assignment, bound, novelty, digest in self.frontier
        ]


class CheckpointManager:
    """Owns one campaign directory's journal: save / load / cadence.

    ``interval`` is in *recorded paths*: :meth:`due` says a save is due
    once every ``interval`` newly recorded paths (1 = after every run).
    The strategy name and seed are stored in the journal and validated
    on load — resuming a DFS campaign as BFS would silently explore a
    different tree, so it is an error instead.
    """

    def __init__(
        self,
        directory: str,
        strategy: str,
        seed: int,
        interval: int = 1,
    ):
        self.directory = directory
        self.strategy = strategy
        self.seed = seed
        self.interval = max(1, interval)
        self._saved_paths = 0
        os.makedirs(directory, exist_ok=True)

    @property
    def path(self) -> str:
        return os.path.join(self.directory, CHECKPOINT_FILENAME)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------

    def load(self) -> Optional[CheckpointState]:
        """Decode and integrity-check the journal (``None`` = never written).

        Raises ``ValueError`` when the journal exists but cannot be
        trusted: unreadable JSON (truncation), a missing or mismatching
        content digest (bit flips, hand edits), or an incompatible
        format version.  Resuming from a corrupt journal would silently
        lose or duplicate paths, so it is always an error.
        """
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"checkpoint {self.path} is corrupt (unreadable JSON: {exc}) "
                f"— the journal was truncated or damaged; delete it to start "
                f"a fresh campaign"
            ) from None
        digest = raw.get("digest") if isinstance(raw, dict) else None
        state_raw = raw.get("state") if isinstance(raw, dict) else None
        if not isinstance(digest, str) or not isinstance(state_raw, dict):
            raise ValueError(
                f"checkpoint {self.path} is malformed (missing integrity "
                f"digest or state) — it was not written by this version, or "
                f"was damaged; delete it to start a fresh campaign"
            )
        if _state_digest(state_raw) != digest:
            raise ValueError(
                f"checkpoint {self.path} failed its integrity check "
                f"(content digest mismatch) — the journal is truncated or "
                f"bit-flipped; delete it to start a fresh campaign"
            )
        raw = state_raw
        if raw.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"checkpoint {self.path} has unsupported version "
                f"{raw.get('version')!r}"
            )
        if raw["strategy"] != self.strategy or raw["seed"] != self.seed:
            raise ValueError(
                f"checkpoint {self.path} was written by strategy="
                f"{raw['strategy']!r} seed={raw['seed']} — resuming with "
                f"strategy={self.strategy!r} seed={self.seed} would explore "
                f"a different tree"
            )
        state = CheckpointState(
            strategy=raw["strategy"],
            seed=raw["seed"],
            complete=raw["complete"],
            paths=[tuple(entry) for entry in raw["paths"]],
            frontier=[tuple(entry) for entry in raw["frontier"]],
            digests=set(raw["digests"]),
            covered=set(raw["covered"]),
            counters=raw["counters"],
            stats=raw["stats"],
        )
        self._saved_paths = len(state.paths)
        return state

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------

    def due(self, num_paths: int) -> bool:
        """Whether ``interval`` paths were recorded since the last save."""
        return num_paths - self._saved_paths >= self.interval

    def save(self, result, pending, digests, complete: bool) -> None:
        """Atomically write the journal (temp file + ``os.replace``).

        ``pending`` is every not-yet-completed item: the frontier
        snapshot plus, for a pool, every item a worker holds —
        anything not persisted here *and* not recorded as a path would
        be lost to a crash.  The counter map is ``result.stats``, which
        the campaign brings up to date before each save, with its
        :data:`GAUGES` left out.
        """
        state = {
            "version": _FORMAT_VERSION,
            "strategy": self.strategy,
            "seed": self.seed,
            "complete": complete,
            "paths": [
                (
                    info.halt_reason,
                    info.exit_code,
                    info.instret,
                    info.trace_length,
                    serialize_assignment(info.assignment),
                    base64.b64encode(info.stdout).decode("ascii"),
                    info.final_pc,
                    info.condition_digest,
                )
                for info in result.paths
            ],
            "frontier": [
                (
                    serialize_assignment(item.assignment),
                    item.bound,
                    item.novelty,
                    item.digest,
                )
                for item in pending
            ],
            "digests": sorted(digests) if digests else [],
            "covered": sorted(result.covered_branches),
            "counters": {
                name: getattr(result, name) for name in _COUNTER_FIELDS
            },
            "stats": {
                key: value for key, value in result.stats.items() if key not in GAUGES
            },
        }
        # Digest over the canonical serialization, then the wrapper —
        # load() recomputes the digest from the parsed state, so any
        # bit flip in either part is caught.
        journal = {"digest": _state_digest(state), "state": state}
        temp_path = self.path + ".tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            json.dump(journal, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, self.path)
        self._saved_paths = result.num_paths
