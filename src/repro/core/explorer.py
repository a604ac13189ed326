"""Offline dynamic symbolic execution: the path exploration driver.

Implements the paper's exploration configuration (Sect. III-B): an
*offline executor* that repeatedly restarts the SUT with fresh inputs
obtained from the solver — dynamic symbolic execution with pluggable
path selection and address concretization.

The driver is engine-neutral: anything satisfying the executor
interface (``execute(assignment) -> RunResult``, ``input_variables()``)
can be explored, which is how the angr-, BINSEC- and SymEx-VP-style
baseline engines share the exact same search and solver infrastructure
— the comparison then isolates the *translation* methodology, like the
paper's evaluation intends.

:meth:`Explorer.explore` is the one driver.  Its campaign shell (the
journal, the deadline, flip dedup, path recording, the final counter
merge and certify replay) runs around a :class:`Worker`, the run step:
execute or resume an item, pose its flip queries through
:func:`repro.core.scheduler.expand_run`, and hand back the satisfiable
children.  With ``jobs=1`` one ``Worker`` runs in this process; with
``jobs=N`` the broker in :mod:`repro.core.parallel` forks ``N`` processes
that each run a ``Worker`` and stream their runs back.  Every knob is a
field of the frozen :class:`ExploreConfig`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

from ..arch.hart import HaltReason
from ..smt.solver import CachingSolver, Solver, SolverConfig
from ..spec.superblock import BRANCH_HOT_HITS
from .faults import FaultPlan
from .governor import MemoryGovernor
from .scheduler import FLIP_COUNTERS, Frontier, WorkItem, expand_run
from .state import InputAssignment

__all__ = [
    "PathInfo",
    "ExplorationResult",
    "ExploreConfig",
    "Explorer",
    "Worker",
    "make_solver",
    "install_fault_hooks",
]


@dataclass(frozen=True)
class ExploreConfig:
    """Every exploration knob, declared once with its default.

    ``Explorer(executor, **options)`` takes exactly these fields, and
    the ``repro explore`` subcommand reads its defaults from here.
    Flip dedup is not a knob: the campaign always drops a child whose
    flip query it has seen (:meth:`_Campaign.fresh`).
    """

    strategy: str = "dfs"
    max_paths: int = 1_000_000
    seed: int = 0
    #: Worker processes.  A pool runs when ``jobs > 1``, no ``solver``
    #: was given and the platform can ``fork``; otherwise one in-process
    #: :class:`Worker` explores.
    jobs: int = 1
    #: Put the cross-path query cache in front of the solver.
    use_cache: bool = False
    #: Solver-layer knobs (cores, trail reuse, budgets, certification).
    solver_config: Optional[SolverConfig] = None
    #: Snapshot-resumed runs; only engines that support them take part.
    snapshots: bool = True
    #: Crash-safe journal directory, its save cadence in recorded paths,
    #: and whether to reload it before exploring.
    checkpoint_dir: Optional[str] = None
    checkpoint_interval: int = 1
    resume: bool = False
    #: Deterministic failure schedule for chaos testing; an inactive
    #: plan counts as none.
    faults: Optional[FaultPlan] = None
    #: Anytime knobs: a global wall-clock deadline in seconds (the
    #: frontier drains into ``incomplete_paths`` when it fires, and the
    #: journal stays resumable), a per-process RSS budget in MB over
    #: which a process drops its snapshot pool, and the seconds of
    #: heartbeat silence after which the pool's watchdog kills a seat.
    deadline: Optional[float] = None
    memory_budget_mb: Optional[int] = None
    hang_timeout: float = 5.0
    #: Persistent artifact store directory (``--store DIR``); every
    #: process attaches its own handle on the shared tree.
    store_dir: Optional[str] = None

    @property
    def certify(self) -> bool:
        """Certify mode: record per-path condition digests and replay
        every path under the reference evaluator, beside a serial
        campaign where a CPU is free and after the campaign otherwise."""
        return self.solver_config is not None and self.solver_config.certify


def make_solver(config: ExploreConfig):
    """Build the exploration solver for one process.

    ``use_cache`` selects the :class:`CachingSolver`; without it the
    plain :class:`Solver` still honours the solver-layer knobs (trail
    reuse, budgets, certification) of the solver config, so those
    flags behave identically in cached and uncached runs.

    ``store_dir`` (``--store DIR``) attaches the persistent artifact
    tier behind the query cache — each process owns its own
    :class:`repro.core.store.ArtifactStore` handle on the shared
    directory (reads are per-call, writes single-writer-per-process),
    so the handle is safe to construct before a fork.  A store implies
    the query layer: persisting answers requires the query cache, so
    ``store_dir`` selects :class:`CachingSolver` even when ``use_cache``
    is off (asking to persist answers that are never collected would be
    a silent no-op).
    """
    solver_config = config.solver_config
    if config.use_cache or config.store_dir is not None:
        solver = CachingSolver(solver_config=solver_config)
        if config.store_dir is not None:
            from .store import ArtifactStore

            solver.cache.attach_store(
                ArtifactStore(config.store_dir, certify=config.certify)
            )
        return solver
    if solver_config is None:
        return Solver()
    return Solver(
        trail_reuse=solver_config.trail_reuse,
        conflict_budget=solver_config.conflict_budget,
        propagation_budget=solver_config.propagation_budget,
        wall_budget=solver_config.wall_budget,
        core_budget=solver_config.core_budget,
        certify=solver_config.certify,
    )


def install_fault_hooks(solver, faults, scope) -> None:
    """Attach one worker's fault schedule to its solver (and cache).

    ``unknown=`` give-ups go to the CDCL fault hook, ``corrupt=``
    poisoning to the query cache's corruptor seam (a solver without a
    cache simply has nothing to poison).
    """
    if faults is None:
        return
    hook = faults.solver_hook(scope)
    if hook is not None and hasattr(solver, "set_fault_hook"):
        solver.set_fault_hook(hook)
    corruptor = faults.corruptor(scope)
    cache = getattr(solver, "cache", None)
    if corruptor is not None and cache is not None:
        cache.set_corruptor(corruptor)
    store = getattr(cache, "store", None)
    if store is not None:
        store_hook = faults.store_hook(scope)
        if store_hook is not None:
            store.set_fault_hook(store_hook)
        if corruptor is not None:
            store.set_corruptor(corruptor)


@dataclass
class PathInfo:
    """Summary of one fully executed path."""

    index: int
    halt_reason: Optional[str]
    exit_code: Optional[int]
    instret: int
    trace_length: int
    assignment: InputAssignment
    stdout: bytes
    final_pc: int = 0
    #: Order-sensitive digest chain of the path's branch conditions and
    #: assumptions (certify mode only; ``None`` otherwise) — the logical
    #: path identity a certificate replay re-derives and compares.
    condition_digest: Optional[int] = None
    #: The path whose run produced this one's work item, and the branch
    #: record this path flipped (the item's ``bound - 1``); both ``None``
    #: for the root and for paths without a recorded parent.  Certify
    #: replay resumes a child there from its parent's reference state.
    parent: Optional[int] = None
    divergence: Optional[int] = None

    @property
    def is_assertion_failure(self) -> bool:
        return self.halt_reason == HaltReason.EBREAK


@dataclass
class ExplorationResult:
    """All paths found plus exploration statistics.

    Query accounting is exact in both execution modes: ``sat_checks``
    and ``unsat_checks`` count queries the SAT core actually solved
    (summed over all workers in parallel mode), while ``cache_hits``
    and ``fast_path_answers`` count queries the query cache and the
    solver's no-search answers settled.  ``pruned_queries`` counts the
    children flip dedup dropped as repeats (:meth:`_Campaign.fresh`);
    each such repeat's query was answered first and is also counted
    where it was answered.  ``solver_stats`` carries the flat solver
    counter dict (:attr:`repro.smt.solver.Solver.pipeline_statistics`,
    extended by ``CachingSolver`` with cache and query counters).  Every
    counter sums the deltas of exactly the runs this exploration (and a
    restored journal) recorded, on every worker (:meth:`merge_counters`).
    """

    paths: list[PathInfo] = field(default_factory=list)
    sat_checks: int = 0
    unsat_checks: int = 0
    cache_hits: int = 0
    fast_path_answers: int = 0
    pruned_queries: int = 0
    #: Flip queries the solver abandoned (work budget exhausted or
    #: injected give-up).  Together with ``incomplete_paths`` this
    #: accounts for every path a degraded run did not explore — the
    #: fault-tolerance contract: ``path_set()`` shrinks only by
    #: explicitly counted causes, never silently.
    unknown_queries: int = 0
    #: Work items abandoned after repeated worker deaths, plus frontier
    #: items drained when a ``--deadline`` expired (each is one
    #: unexplored path plus its would-be subtree).
    incomplete_paths: int = 0
    #: Worker processes that died mid-item and were respawned.
    worker_deaths: int = 0
    #: Worker seats the heartbeat watchdog declared hung and killed
    #: (each also counts as a worker death once the kill lands).
    hung_workers: int = 0
    #: The global ``--deadline`` fired: the frontier was drained into
    #: ``incomplete_paths`` and the run checkpointed for ``--resume``.
    #: Not persisted — a resumed run gets a fresh deadline.
    deadline_expired: bool = False
    #: Exploration ended by Ctrl-C (or an injected interrupt) — the
    #: result is a valid partial campaign, resumable via checkpoints.
    interrupted: bool = False
    total_instructions: int = 0
    #: Instructions actually interpreted: ``total_instructions`` minus
    #: the prefixes snapshot resumption skipped (equal when snapshots
    #: are off — ``total_instructions`` always counts full path lengths).
    executed_instructions: int = 0
    wall_time: float = 0.0
    solver_time: float = 0.0
    truncated: bool = False
    #: Number of worker processes that executed runs (1 = in-process).
    workers: int = 1
    #: Largest frontier size observed during the exploration.
    frontier_peak: int = 0
    #: PCs of symbolic branches seen during exploration (branch coverage).
    covered_branches: set = field(default_factory=set)
    #: Flat solver-side counters (cache tiers, query counters, core
    #: solves), exactly summed over every worker's solver.
    solver_stats: dict = field(default_factory=dict)
    #: Flat snapshot-layer counters (captures, resumed runs, saved
    #: instructions, pool evictions/misses), summed over every worker's
    #: executor; empty when the engine has no snapshot support.
    snapshot_stats: dict = field(default_factory=dict)
    #: Flat superblock-layer counters (block hits, instructions retired
    #: in blocks, builds, deopts, invalidations), summed over every
    #: worker's executor; empty when the engine has no superblock
    #: support or superblocks are off.
    superblock_stats: dict = field(default_factory=dict)
    #: Certify-mode replay accounting: paths whose certificates checked
    #: under the reference evaluator, and paths with at least one
    #: mismatching field (see :mod:`repro.core.certificates`).
    certified_paths: int = 0
    certificate_failures: int = 0
    #: Certify replay's split: children resumed from their parent's
    #: reference state instead of replayed from the entry, and the
    #: instructions the symbolic replay executed in all.
    certificate_resumed: int = 0
    certificate_instructions: int = 0
    #: One :class:`repro.core.certificates.PathCertificate` per recorded
    #: path (certify mode only), in path order.
    certificates: list = field(default_factory=list)
    #: Human-readable mismatch messages from the certify replay.
    certificate_errors: list = field(default_factory=list)
    #: Flat memory-governor counters (samples, pressure events, rung
    #: applications), summed over every process; empty without
    #: ``--memory-budget``.
    governor_stats: dict = field(default_factory=dict)

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    @property
    def num_queries(self) -> int:
        """Queries the SAT core actually solved."""
        return self.sat_checks + self.unsat_checks

    @property
    def sat_solves(self) -> int:
        """CDCL ``solve()`` calls behind the solved queries."""
        return self.solver_stats.get("sat_core_solves", 0)

    @property
    def assertion_failures(self) -> list[PathInfo]:
        return [p for p in self.paths if p.is_assertion_failure]

    @property
    def exit_codes(self) -> set[int]:
        return {p.exit_code for p in self.paths if p.exit_code is not None}

    def path_set(self) -> set:
        """Order-independent identity of the discovered paths.

        Parallel exploration records paths in completion order, so
        comparisons across execution modes go through this set.
        """
        return {
            (p.halt_reason, p.exit_code, p.trace_length, p.stdout, p.final_pc)
            for p in self.paths
        }

    def merge_counters(self, record: dict) -> None:
        """Key-wise sum of a counter delta (:meth:`Worker.handover`, or a
        journal's record), each key by prefix: ``flip_`` onto the field it
        names, ``snap_``, ``sb_`` and ``gov_`` into their layer's dict,
        the rest into ``solver_stats``."""
        layers = {
            "snap": self.snapshot_stats,
            "sb": self.superblock_stats,
            "gov": self.governor_stats,
        }
        for key, value in record.items():
            layer, _, name = key.partition("_")
            if layer == "flip":
                setattr(self, name, getattr(self, name) + value)
                continue
            stats = layers.get(layer, self.solver_stats)
            stats[key] = stats.get(key, 0) + value

    @property
    def stats(self) -> dict:
        """What :meth:`merge_counters` summed as one flat record: the
        ``flip_`` fields and the four layer dicts (the keys are disjoint)."""
        return {
            **{key: getattr(self, key[5:]) for key in FLIP_COUNTERS},
            **self.solver_stats,
            **self.snapshot_stats,
            **self.superblock_stats,
            **self.governor_stats,
        }

    @property
    def degradations(self) -> int:
        """Processes whose memory governor dropped the snapshot pool
        under RSS pressure.  Non-zero means the run traded speed
        (snapshot reuse) for memory — never paths."""
        return self.governor_stats.get("gov_rungs_applied", 0)

    @property
    def superblock_hits(self) -> int:
        """Step-loop dispatches that executed a superblock."""
        return self.superblock_stats.get("sb_hits", 0)

    @property
    def superblock_instructions(self) -> int:
        """Instructions retired inside superblocks (of total_instructions)."""
        return self.superblock_stats.get("sb_block_instructions", 0)

    @property
    def store_hits(self) -> int:
        """Verified warm hits served by the persistent store (``--store``)."""
        return self.solver_stats.get("store_hits", 0)

    @property
    def store_quarantines(self) -> int:
        """Store files that failed verification and were renamed aside."""
        return self.solver_stats.get("store_quarantines", 0)

    @property
    def store_disabled(self) -> int:
        """Processes whose store tier disabled itself after an I/O failure."""
        return self.solver_stats.get("store_disabled", 0)

    @property
    def resumed_runs(self) -> int:
        """Runs that resumed from a snapshot instead of ``pc = entry``."""
        return self.snapshot_stats.get("snap_resumed_runs", 0)

    @property
    def saved_instructions(self) -> int:
        """Prefix instructions snapshot resumption did not re-execute."""
        return self.snapshot_stats.get("snap_saved_instructions", 0)

    def summary(self) -> str:
        text = (
            f"{self.num_paths} paths "
            f"({len(self.assertion_failures)} assertion failures), "
            f"{self.num_queries} solver queries "
            f"({self.sat_checks} sat / {self.unsat_checks} unsat, "
            f"{self.solver_time:.2f}s in solver), "
            f"{self.total_instructions} instructions, "
            f"{self.wall_time:.2f}s"
        )
        if self.cache_hits or self.fast_path_answers or self.pruned_queries:
            text += (
                f" [{self.cache_hits} cache hits, "
                f"{self.fast_path_answers} fast-path, "
                f"{self.pruned_queries} pruned]"
            )
        if self.resumed_runs:
            text += (
                f" [{self.resumed_runs} resumed runs, "
                f"{self.saved_instructions} instructions skipped]"
            )
        if self.workers > 1:
            text += f" [{self.workers} workers]"
        if self.unknown_queries or self.incomplete_paths:
            text += (
                f" [degraded: {self.unknown_queries} unknown queries, "
                f"{self.incomplete_paths} incomplete paths]"
            )
        if self.worker_deaths:
            text += f" [{self.worker_deaths} worker deaths]"
        if self.hung_workers:
            text += f" [{self.hung_workers} hung workers]"
        if self.degradations:
            text += f" [{self.degradations} memory degradations]"
        if self.store_hits or self.store_quarantines or self.store_disabled:
            text += (
                f" [store: {self.store_hits} warm hits, "
                f"{self.store_quarantines} quarantined, "
                f"{self.store_disabled} disabled]"
            )
        if self.deadline_expired:
            text += " [deadline expired]"
        if self.certified_paths or self.certificate_failures:
            text += (
                f" [certified: {self.certified_paths} paths, "
                f"{self.certificate_failures} failures]"
            )
        if self.interrupted:
            text += " [interrupted]"
        return text


class Explorer:
    """Drives an executor through all feasible paths of the SUT.

    ``options`` are the fields of :class:`ExploreConfig`; an unknown one
    is a ``TypeError``.  An explicitly supplied ``solver`` pins the
    exploration to this process, since a user-provided facade (e.g. the
    query-complexity recorder) cannot be replicated onto workers.

    Robustness knobs: ``checkpoint_dir`` arms the crash-safe journal
    (:mod:`repro.core.checkpoint`; ``resume=True`` additionally reloads
    it before exploring), and ``faults`` injects a deterministic
    failure schedule (:class:`repro.core.faults.FaultPlan`) for chaos
    testing.  ``KeyboardInterrupt`` is caught in both modes and returns
    the partial result with ``interrupted=True``.
    """

    def __init__(self, executor, solver: Optional[Solver] = None, **options):
        config = ExploreConfig(**options)
        faults = config.faults
        self.config = config = replace(
            config,
            faults=faults if faults is not None and faults.active else None,
            snapshots=config.snapshots
            and getattr(executor, "supports_snapshots", False),
        )
        self.executor = executor
        self._solver_provided = solver is not None
        #: The solver an in-process run uses; pool workers build their own.
        self.solver = solver if solver is not None else make_solver(config)

    def explore(self) -> ExplorationResult:
        """Run the full exploration; returns all discovered paths."""
        config = self.config
        start = time.perf_counter()
        pooled = False
        if config.jobs > 1 and not self._solver_provided:
            import multiprocessing

            pooled = "fork" in multiprocessing.get_all_start_methods()
        result = ExplorationResult(workers=config.jobs if pooled else 1)
        frontier = Frontier(config.strategy, config.seed)
        manager = restored = None
        if config.checkpoint_dir is not None:
            from .checkpoint import CheckpointManager

            manager = CheckpointManager(
                config.checkpoint_dir,
                strategy=config.strategy,
                seed=config.seed,
                interval=config.checkpoint_interval,
            )
            restored = manager.load() if config.resume else None
        stream = None
        if config.certify and not pooled:
            from .certificates import ReplayStream

            stream = ReplayStream(result, self.executor)
        campaign = _Campaign(config, result, manager, stream)
        if restored is not None:
            restored.restore_result(result)
            campaign.seen = restored.digests
            items = restored.frontier_items()
            for item in items:
                frontier.push(item)
            if stream is not None:
                stream.restore(items)
        else:
            frontier.push(WorkItem(InputAssignment(), 0))
        try:
            if restored is None or not restored.complete:
                if pooled:
                    from .parallel import Broker

                    campaign.run(Broker(self, frontier))
                else:
                    campaign.run(
                        Worker(
                            self.executor,
                            config,
                            self.solver,
                            "serial",
                            frontier=frontier,
                            covered=result.covered_branches,
                        )
                    )
            if config.certify:
                from .certificates import certificate_to_state, verify_result

                verify_result(result, self.executor, stream)
                # Only certificates that just passed replay are persisted:
                # the store holds evidence, not claims.  Content-addressed,
                # so re-running the same campaign rewrites nothing.
                store = getattr(getattr(self.solver, "cache", None), "store", None)
                if store is not None and not result.certificate_failures:
                    for cert in result.certificates:
                        store.save_certificate(certificate_to_state(cert))
        finally:
            if stream is not None:
                stream.close()
        result.wall_time = time.perf_counter() - start
        return result


class _DeadlineExpired(Exception):
    """Internal control flow: the global ``--deadline`` fired."""


class _Campaign:
    """The campaign shell around one driver.

    A driver is the in-process :class:`Worker` or the pool's
    :class:`repro.core.parallel.Broker`.  Its ``explore(campaign)``
    calls :meth:`record` and :meth:`fresh` for every run it completes
    and :meth:`after_run` once that run's children are queued (the
    in-process worker calls :meth:`certify` just before); it also
    offers ``pending()`` (every unfinished item), ``handover()`` (the
    counters that moved since its last handover, see
    :meth:`Worker.handover`) and ``peak`` (the largest frontier it saw).

    Every counter reaches the result as a delta through
    :meth:`ExplorationResult.merge_counters`, onto the restored
    journal's: the broker merges the counters of each reply it records,
    and the in-process worker hands its own over before each journal
    save and when the run ends.  A save writes the result's record.
    """

    def __init__(
        self, config: ExploreConfig, result: ExplorationResult, manager, stream=None
    ):
        self.config = config
        self.result = result
        self.manager = manager
        #: Certify replay beside a serial campaign
        #: (:class:`repro.core.certificates.ReplayStream`), if certifying.
        self.stream = stream
        #: Restart-stable digests of the flip queries whose children
        #: were queued; a resumed campaign starts from the journal's.
        self.seen: set = set()
        self.deadline_at: Optional[float] = None

    def check_deadline(self) -> None:
        if self.deadline_at is not None and time.monotonic() >= self.deadline_at:
            raise _DeadlineExpired

    def record(self, path: tuple, covered, parent: Optional[int], bound: int) -> int:
        """Record one run's path (see :meth:`Worker.run`) and the
        flippable branch PCs it covered; returns the path's index.
        ``parent`` and ``bound`` are those of the item the run explored."""
        result = self.result
        index = len(result.paths)
        divergence = bound - 1 if parent is not None else None
        info = PathInfo(index, *path[:-1], parent=parent, divergence=divergence)
        result.total_instructions += info.instret
        result.executed_instructions += info.instret - path[-1]
        result.paths.append(info)
        result.covered_branches.update(covered)
        return index

    def fresh(self, digest: int) -> bool:
        """Flip dedup: whether a child with this flip digest is new.

        The one flip dedup of both drivers.  A child repeats another's
        flip query only when a run diverged from the path its model
        predicted; the query was solved and attributed in that run, and
        dropping the child counts as a pruned query.  The check is
        global, so it catches a query another pool worker already
        expanded, and the journal's persisted set suppresses children a
        pre-crash run already queued.
        """
        if digest in self.seen:
            self.result.pruned_queries += 1
            return False
        self.seen.add(digest)
        return True

    def certify(self, index: int, divergences: list) -> None:
        """Path ``index`` is recorded and the children kept for it are
        queued; ``divergences`` lists each one's ``bound - 1``.  Hands
        both to the replay stream of a serial certify campaign."""
        if self.stream is not None:
            self.stream.add(index, divergences)

    def after_run(self, driver) -> None:
        """Checkpoint, and honour a ``stop=`` fault, after each run."""
        result, manager = self.result, self.manager
        if manager is not None and manager.due(result.num_paths):
            result.merge_counters(driver.handover())
            manager.save(result, driver.pending(), self.seen, complete=False)
        faults = self.config.faults
        if faults is not None and faults.interrupt_after is not None:
            if result.num_paths >= faults.interrupt_after:
                raise KeyboardInterrupt

    def run(self, driver) -> None:
        """Explore with ``driver``, then merge, save and drain."""
        result = self.result
        if self.config.deadline is not None:
            self.deadline_at = time.monotonic() + self.config.deadline
        try:
            driver.explore(self)
        except KeyboardInterrupt:
            result.interrupted = True
        except _DeadlineExpired:
            result.interrupted = result.deadline_expired = True
        pending = list(driver.pending())
        result.truncated = bool(pending)
        result.frontier_peak = max(driver.peak, result.frontier_peak)
        result.merge_counters(driver.handover())
        if self.manager is not None:
            self.manager.save(
                result,
                pending,
                self.seen,
                complete=not pending and not result.interrupted,
            )
        if result.deadline_expired:
            # Anytime accounting: every unfinished item is one explicitly
            # counted unexplored path.  Counted only AFTER the final
            # checkpoint save — a ``--resume`` restores these items and
            # re-explores them, so persisting the count too would
            # double-book them.
            result.incomplete_paths += len(pending)


class Worker:
    """One process's run step: execute or resume an item and expand it.

    Owns the frontier, the solver's fault hooks, the memory governor
    (RSS is per-process, so every process drops its own snapshot pool
    under pressure), the ``evict=``/``memhog=`` faults keyed by the run
    ordinal under ``scope`` (``"serial"`` in process, the incarnation
    uid in a pool), the covered branch set that scores coverage
    novelty, and hot-PC promotion for the superblock layer.
    :meth:`explore` is the in-process loop; a pool worker drives
    :meth:`run` from :func:`repro.core.parallel._worker_main`.  Every
    child :meth:`run` returns carries its flip-query digest; dropping
    repeats is the campaign's job (:meth:`_Campaign.fresh`), not the
    worker's.

    It also keeps the snapshot pool's holds
    (:class:`repro.core.snapshots.SnapshotPool`): :meth:`run` gives back
    the hold of the item it runs, makes each child hold the snapshot it
    names and then gives back the run's own capture holds, so the pool
    keeps only snapshots that pending items name.  An item that will not
    run here gives its hold back through :meth:`release`, and so does
    every item still queued when :meth:`explore` stops early.  Its
    counters reach the campaign as deltas (:meth:`handover`): in process
    before each journal save and at the end, from a pool after each run.
    """

    def __init__(
        self,
        executor,
        config: ExploreConfig,
        solver,
        scope,
        frontier: Optional[Frontier] = None,
        covered=(),
    ):
        self.executor = executor
        self.solver = solver
        self.scope = scope
        self.faults = config.faults
        install_fault_hooks(solver, config.faults, scope)
        if frontier is None:
            frontier = Frontier(config.strategy, config.seed)
        self.frontier = frontier
        self.snapshots = config.snapshots
        #: The executor's snapshot pool, whose holds this worker keeps.
        self.pool = (
            getattr(executor, "snapshot_pool", None) if config.snapshots else None
        )
        self.certify = config.certify
        self.covered = set(covered)
        #: Whether runs capture snapshots: off once the governor fires.
        self.capturing = config.snapshots
        self.governor = None
        if config.memory_budget_mb is not None:
            self.governor = MemoryGovernor(config.memory_budget_mb * 1024 * 1024)
        self.purge = getattr(executor, "purge_snapshots", None)
        # Superblock hotness feedback: per-PC flippable-branch executions
        # accumulate across runs; a PC crossing the threshold is reported
        # to the executor once, promoting its successors to block entries.
        self.note_hot = getattr(executor, "note_hot_pcs", None)
        if not getattr(executor, "superblocks_enabled", False):
            self.note_hot = None
        self.hot_counts: dict = {}
        self.hot_sent: set = set()
        self.memhog_leaks: list = []  # memhog= ballast, freed with the worker
        #: Runs started; the ordinal that keys this worker's faults.
        self.runs = 0
        #: Counters the run step keeps itself: the flip attribution, and
        #: a pool worker's ``snap_cross_worker_items``.
        self.counts = dict.fromkeys(FLIP_COUNTERS, 0)
        #: The record at the last :meth:`handover`, and whether it is the
        #: first.
        self._base = self.counters()
        self._every = True

    @property
    def peak(self) -> int:
        return self.frontier.peak

    def explore(self, campaign: _Campaign) -> None:
        """The in-process loop: run items until the frontier is empty.

        Items a cut leaves queued give back their snapshot holds but stay
        in the frontier, so the campaign still saves and drains them.
        """
        frontier, result = self.frontier, campaign.result
        try:
            while frontier and result.num_paths < campaign.config.max_paths:
                campaign.check_deadline()
                item = frontier.pop()
                path, children, covered = self.run(item)
                index = campaign.record(path, covered, item.parent, item.bound)
                kept = []
                for child in children:
                    if campaign.fresh(child.digest):
                        child.parent = index
                        frontier.push(child)
                        kept.append(child.bound - 1)
                    else:
                        self.release(child)
                campaign.certify(index, kept)
                campaign.after_run(self)
        finally:
            for item in frontier.items():
                self.release(item)

    def pending(self) -> list:
        return self.frontier.items()

    def hold(self, handle: int) -> bool:
        """Take a hold on snapshot ``handle`` for a pool task that came
        back to the worker that captured it; False if the snapshot has
        left the pool, or snapshots are off."""
        return self.pool is not None and self.pool.hold(handle)

    def release(self, item: WorkItem) -> None:
        """Give back ``item``'s hold on the snapshot it names: the item
        ran, or it will not run here (a duplicate, or an item the pool's
        broker dropped or stole)."""
        if self.pool is not None and item.snapshot is not None:
            self.pool.release(item.snapshot)

    def run(self, item: WorkItem) -> tuple:
        """Run one item: ``(path, children, covered)``.

        ``path`` holds the :class:`PathInfo` fields after ``index``,
        then the run's ``resumed_instret``; ``covered`` is the set of
        flippable branch PCs the run executed.  The children carry the
        run's coverage novelty and each holds the snapshot it names.
        The item's own hold and the run's capture holds are given back,
        also when the run raises.
        """
        pool = self.pool
        first = pool.next_handle if pool is not None else 0
        try:
            path, children, covered = self._run(item)
            if pool is not None:
                for child in children:
                    if child.snapshot is not None:
                        pool.hold(child.snapshot)
        finally:
            if pool is not None:
                # The run's capture holds end once its children hold
                # theirs: a snapshot no child names leaves the pool here.
                pool.release_from(first)
            self.release(item)
        return path, children, covered

    def _run(self, item: WorkItem) -> tuple:
        """:meth:`run` without the snapshot holds."""
        executor, faults, ordinal = self.executor, self.faults, self.runs
        self.runs += 1
        capturing = self.capturing
        if faults is not None:
            if self.purge is not None and capturing:
                if faults.should_evict(self.scope, ordinal):
                    self.purge()
            ballast = faults.memhog_bytes(self.scope, ordinal)
            if ballast:
                self.memhog_leaks.append(bytearray(ballast))
        if capturing:
            run = executor.execute_from(
                item.snapshot, item.assignment, capture_from=item.bound
            )
        else:
            run = executor.execute(item.assignment)
        if self.governor is not None and self.governor.maybe_step():
            # Memory pressure: drop the pool and capture no more, so
            # every later run executes from the entry.
            self.capturing = False
            if self.pool is not None:
                self.pool.clear()
        pc_hits: dict = {}
        children = expand_run(
            run,
            item.bound,
            self.solver,
            executor.input_variables(),
            self.counts,
            pc_hits,
            snapshots=run.snapshots if self.snapshots else None,
        )
        covered = set(pc_hits)
        novelty = len(covered - self.covered)
        self.covered |= covered
        for child in children:
            child.novelty = novelty
        if self.note_hot is not None and pc_hits:
            newly_hot = []
            for pc, count in pc_hits.items():
                total = self.hot_counts.get(pc, 0) + count
                self.hot_counts[pc] = total
                if total >= BRANCH_HOT_HITS and pc not in self.hot_sent:
                    self.hot_sent.add(pc)
                    newly_hot.append(pc)
            if newly_hot:
                self.note_hot(newly_hot)
        path = (
            run.halt_reason,
            run.exit_code,
            run.instret,
            len(run.trace),
            run.assignment,
            run.stdout,
            run.final_pc,
            run.trace.digest(len(run.trace)) if self.certify else None,
            run.resumed_instret,
        )
        return path, children, covered

    def counters(self) -> dict:
        """This process's cumulative counter record, one flat dict:
        :attr:`counts`, the solver's ``pipeline_statistics`` and the
        ``snap_*``, ``sb_*`` and ``gov_*`` counters of the layers that
        run here."""
        executor = self.executor
        record = dict(self.counts)
        record.update(self.solver.pipeline_statistics)
        if self.snapshots:
            record.update(getattr(executor, "snapshot_statistics", {}))
        if getattr(executor, "superblocks_enabled", False):
            record.update(getattr(executor, "superblock_statistics", {}))
        if self.governor is not None:
            record.update(self.governor.statistics)
        return record

    def handover(self) -> dict:
        """The counters that moved since the previous handover, or since
        this worker was built: a solver or executor that served an
        earlier exploration adds nothing of it.  The first carries every
        key, also at 0, so the result lists each counter kept here."""
        record = self.counters()
        base, self._base = self._base, record
        every, self._every = self._every, False
        moved = {}
        for key, value in record.items():
            delta = value - base.get(key, 0)
            if delta or every:
                moved[key] = delta
        return moved
