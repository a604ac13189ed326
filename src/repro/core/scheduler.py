"""Work-queue scheduling for path exploration.

This module is the seam between *what* gets explored and *how*: the
exploration driver (:class:`repro.core.explorer.Explorer`, whose run
step :class:`repro.core.explorer.Worker` runs in process or on each
worker of the :mod:`repro.core.parallel` pool) operates on

* :class:`WorkItem` — one pending concolic run (input assignment plus
  the branch index below which ancestors already enumerated flips),
* :class:`Frontier` — the work queue, parameterized by a pluggable
  :mod:`repro.core.strategy` policy (DFS, BFS, random, coverage-guided)
  with push/pop/steal/peak-size accounting,
* :func:`expand_run` — the branch-flip step of the paper's offline
  executor (Sect. III-B): pose one solver query per flippable branch
  beyond the bound, collect satisfiable flips as new work items, and
  count each query's attribution into the run step's counter record.

Assignments cross process boundaries by *name*: interned terms hash by
identity, so a pickled term would no longer match its interner entry on
the other side.  :func:`serialize_assignment` and
:func:`deserialize_assignment` translate between term-keyed assignments
and plain (name, width, value) tuples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..smt import terms as T
from ..smt.solver import Result, Solver
from .state import InputAssignment
from .strategy import Strategy, make_strategy

__all__ = [
    "WorkItem",
    "Frontier",
    "FLIP_COUNTERS",
    "expand_run",
    "query_digest",
    "serialize_assignment",
    "deserialize_assignment",
]


@dataclass
class WorkItem:
    """One pending concolic run.

    ``bound`` is the classic concolic re-flip barrier: branch indices
    below it were already enumerated by ancestors and must not be
    flipped again.  ``novelty`` scores how much new branch coverage the
    *parent* run contributed; the coverage-guided strategy prioritizes
    on it and the others ignore it.  ``digest`` identifies the flip
    query that produced this item (see :func:`query_digest`; ``None``
    for the root); the campaign drops a child whose digest it has seen.
    """

    assignment: InputAssignment
    bound: int
    novelty: int = 0
    digest: Optional[int] = None
    #: Opaque snapshot handle the run that spawned this item captured at
    #: the divergence point (``None`` = execute from the entry point).
    #: A worker stores a pool handle, the pool's broker a
    #: ``(worker_id, handle)`` pair — snapshots are process-local.
    #: A flip child diverges at branch record ``bound - 1``.  The item
    #: holds its snapshot in the worker's
    #: :class:`~repro.core.snapshots.SnapshotPool` from when the run
    #: step builds it until it runs, is dropped as a duplicate or is
    #: stolen; the pool frees a snapshot no pending item holds.
    snapshot: Optional[object] = None
    #: Times a worker died while running this item.  The supervisor
    #: requeues lost items and gives up (recording an *incomplete* path)
    #: once this crosses its retry budget, so one poisonous input cannot
    #: crash-loop the campaign forever.
    failures: int = 0
    #: The worker pool's name for this item while a worker holds it, so
    #: the broker can steal or drop it (``None`` outside the pool).
    id: Optional[int] = None
    #: Index of the recorded path whose run produced this item (``None``
    #: for the root; a journal keeps it).  With ``bound - 1`` it is the
    #: certificate link of the item's path.
    parent: Optional[int] = None


# Structural digests live in repro.smt.digest — one restart-stable
# content-hash scheme shared by flip dedup (here), the query-cache
# integrity digests (repro.smt.solver.QueryCache) and the persistent
# artifact store (repro.core.store).  Re-exported under their historic
# names; callers and tests may keep importing them from this module.
from ..smt.digest import (  # noqa: E402  (re-export)
    DIGEST_MEMO_CAPACITY,  # noqa: F401
    extend_query_digest,
    query_digest,
    term_digest,
)


class Frontier:
    """The exploration work queue.

    Wraps a :class:`repro.core.strategy.Strategy` (or builds one by
    name) and keeps scheduling statistics.  Items are
    :class:`WorkItem`s; the policy object itself stays item-agnostic.
    """

    def __init__(self, strategy="dfs", seed: int = 0):
        if isinstance(strategy, Strategy):
            self._strategy = strategy
        else:
            self._strategy = make_strategy(strategy, seed)
        self.pushed = 0
        self.popped = 0
        self.peak = 0

    def push(self, item: WorkItem) -> None:
        self._strategy.push(item)
        self.pushed += 1
        self.peak = max(self.peak, len(self._strategy))

    def pop(self) -> WorkItem:
        """Next item per the strategy."""
        self.popped += 1
        return self._strategy.pop()

    def steal(self) -> WorkItem:
        """The item to hand an idle worker; see
        :meth:`repro.core.strategy.Strategy.steal`."""
        self.popped += 1
        return self._strategy.steal()

    def items(self) -> list:
        """Non-destructive snapshot of the queued items (checkpointing)."""
        return self._strategy.items()

    def __len__(self) -> int:
        return len(self._strategy)

    def __bool__(self) -> bool:
        return len(self._strategy) > 0


#: Flip attribution keys of the run step's counter record, each summed
#: into the ``ExplorationResult`` field named after its ``flip_`` prefix;
#: the prefix keeps them apart from the query cache's own ``cache_hits``
#: and ``unknown_queries``.
FLIP_COUNTERS = (
    "flip_sat_checks",
    "flip_unsat_checks",
    "flip_cache_hits",
    "flip_fast_path_answers",
    "flip_unknown_queries",
    "flip_solver_time",
)


def expand_run(
    run,
    bound: int,
    solver: Solver,
    variables,
    counts: dict,
    pc_hits: dict,
    snapshots: Optional[dict] = None,
) -> list[WorkItem]:
    """Generate flipped-branch children of a completed run.

    Children are returned shallow-to-deep, so a LIFO frontier (DFS)
    explores the deepest unexplored branch first — the classic
    depth-first concolic schedule.  ``bound`` prevents re-flipping
    decisions an ancestor already enumerated.

    ``counts`` (every :data:`FLIP_COUNTERS` key) receives exact
    attribution: a query counts as sat/unsat only when the CDCL core ran
    for it, as a cache hit when the query cache answered without a
    solve, as fast-path when the solver decided it with neither (e.g.
    only constant conjuncts), and as unknown when the solver gave up (the
    branch is not flipped).  Solver time includes model extraction.
    ``pc_hits`` counts the run's executions of each flippable branch PC
    (branch coverage, and hotness for :mod:`repro.spec.superblock`).

    Each child carries the restart-stable digest of the query that
    produced it: one :func:`extend_query_digest` step from its prefix's
    digest, which the trace records carry
    (:meth:`repro.core.state.PathTrace.digest`).  The campaign drops a
    child whose digest it has seen (a run that diverged from its
    predicted path re-derived another run's query), on a worker pool
    and across a journal restart alike.

    ``snapshots`` (record index -> pool handle, from
    ``RunResult.snapshots``) attaches to each child the snapshot its
    divergence point was captured under, so the worker can resume the
    child's run there instead of re-executing the shared prefix.
    """
    children: list[WorkItem] = []
    trace = run.trace
    conditions = trace.conditions()
    cache = getattr(solver, "cache", None)
    for index, record in enumerate(trace.records):
        if not record.flippable:
            continue
        pc_hits[record.pc] = pc_hits.get(record.pc, 0) + 1
        if index < bound:
            continue
        negated = record.negated()
        hits_before = cache.hits if cache is not None else 0
        solves_before = solver.num_solves
        check_start = time.perf_counter()
        verdict = solver.check(conditions[:index] + [negated])
        if verdict is Result.SAT:
            model = solver.model()
            children.append(
                WorkItem(
                    run.assignment.derive(model, variables),
                    index + 1,
                    digest=extend_query_digest(trace.digest(index), negated),
                    snapshot=snapshots.get(index) if snapshots is not None else None,
                )
            )
        counts["flip_solver_time"] += time.perf_counter() - check_start
        if verdict is Result.UNKNOWN:
            counts["flip_unknown_queries"] += 1
        elif solver.num_solves != solves_before:
            if verdict is Result.SAT:
                counts["flip_sat_checks"] += 1
            else:
                counts["flip_unsat_checks"] += 1
        elif cache is not None and cache.hits > hits_before:
            counts["flip_cache_hits"] += 1
        else:
            counts["flip_fast_path_answers"] += 1
    return children


def serialize_assignment(assignment: InputAssignment) -> tuple:
    """Flatten a term-keyed assignment into picklable (name, width, value)s."""
    return tuple(
        (variable.payload, variable.width, value)
        for variable, value in assignment.values.items()
    )


def deserialize_assignment(
    payload, variables: Optional[dict] = None
) -> InputAssignment:
    """Rebuild an assignment, re-interning its variables in this process.

    ``variables`` memoizes ``(name, width) -> variable`` across calls: a
    caller that rebuilds many assignments over the same inputs (the pool
    broker) passes one dict it owns, so each variable is built once.
    """
    if variables is None:
        variables = {}
    values = {}
    for name, width, value in payload:
        variable = variables.get((name, width))
        if variable is None:
            variable = T.bv_var(name, width) if width else T.bool_var(name)
            variables[name, width] = variable
        values[variable] = value
    return InputAssignment(values)
