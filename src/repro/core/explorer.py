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

Scheduling (frontier policies, branch-flip expansion) lives in
:mod:`repro.core.scheduler`; multi-process exploration in
:mod:`repro.core.parallel`.  ``Explorer(executor, jobs=N)`` fans the
concolic runs out over ``N`` worker processes, and ``use_cache=True``
puts a cross-path :class:`repro.smt.solver.QueryCache` in front of the
solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..arch.hart import HaltReason
from ..smt.solver import CachingSolver, Solver, SolverConfig
from ..spec.superblock import BRANCH_HOT_HITS
from .executor import RunResult
from .scheduler import Frontier, RunStats, WorkItem, expand_run, query_digest
from .state import ExploredPrefixTrie, InputAssignment

__all__ = [
    "PathInfo",
    "ExplorationResult",
    "Explorer",
    "apply_staging",
    "apply_superblocks",
    "make_solver",
    "install_fault_hooks",
]


def make_solver(
    use_cache: bool,
    solver_config: Optional[SolverConfig],
    store_dir: Optional[str] = None,
):
    """Build the exploration solver for one driver (or one worker).

    ``use_cache`` selects the :class:`CachingSolver`; without it the
    plain :class:`Solver` still honours the solver-layer knobs (trail
    reuse, budgets, certification) of the solver config, so those
    flags behave identically in cached and uncached runs.

    ``store_dir`` (``--store DIR``) attaches the persistent artifact
    tier behind the query cache — each driver/worker owns its own
    :class:`repro.core.store.ArtifactStore` handle on the shared
    directory (reads are per-call, writes single-writer-per-process),
    so the handle is safe to construct before a fork.  A store implies
    the query layer: persisting answers requires the query cache, so
    ``store_dir`` selects :class:`CachingSolver` even when ``use_cache``
    is off (asking to persist answers that are never collected would be
    a silent no-op).
    """
    if use_cache or store_dir is not None:
        solver = CachingSolver(solver_config=solver_config)
        if store_dir is not None:
            from .store import ArtifactStore

            certify = bool(solver_config is not None and solver_config.certify)
            solver.cache.attach_store(ArtifactStore(store_dir, certify=certify))
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
        proof_log=solver_config.proof_log,
    )


def install_fault_hooks(solver, faults, scope) -> None:
    """Attach one driver's fault schedule to its solver (and cache).

    Used identically by the serial driver and every pool worker:
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


def apply_staging(executor, staging: Optional[bool]) -> Optional[bool]:
    """Apply the staged-semantics ablation (--no-staging) to an executor.

    Called once at every exploration entry point (serial and pooled)
    *before* any run — and before the fork, so workers inherit the
    setting and serial/parallel behave identically.  Returns the value
    to forward downstream: ``None`` once applied, so a delegation chain
    reconfigures the executor exactly once.  ``None`` in leaves the
    executor's own configuration untouched.
    """
    if staging is not None and hasattr(executor, "set_staging"):
        executor.set_staging(staging)
        return None
    return staging


def apply_superblocks(executor, superblocks: Optional[bool]) -> Optional[bool]:
    """Apply the superblock ablation (--no-superblocks) to an executor.

    Same contract as :func:`apply_staging`: applied once, before any run
    and before the worker fork, returning ``None`` once consumed so the
    delegation chain reconfigures the executor exactly once.
    """
    if superblocks is not None and hasattr(executor, "set_superblocks"):
        executor.set_superblocks(superblocks)
        return None
    return superblocks


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

    @property
    def is_assertion_failure(self) -> bool:
        return self.halt_reason == HaltReason.EBREAK


@dataclass
class ExplorationResult:
    """All paths found plus exploration statistics.

    Query accounting is exact in both execution modes: ``sat_checks``
    and ``unsat_checks`` count queries the SAT core actually solved
    (summed over all workers in parallel mode), ``sat_solves`` the raw
    CDCL invocations behind them, while ``cache_hits``,
    ``fast_path_answers`` and ``pruned_queries`` count queries the query
    cache, the solver's no-search answers and the explored-prefix trie
    settled.  ``solver_stats`` carries the flat solver counter dict
    (:attr:`repro.smt.solver.Solver.pipeline_statistics`, extended by
    ``CachingSolver`` with cache and query counters), key-wise summed
    across workers.
    """

    paths: list[PathInfo] = field(default_factory=list)
    sat_checks: int = 0
    unsat_checks: int = 0
    cache_hits: int = 0
    fast_path_answers: int = 0
    sat_solves: int = 0
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
    #: Memory-governor ladder rungs applied under RSS pressure, summed
    #: over every process.  Non-zero means the run traded speed (cache
    #: capacity, snapshot reuse) for memory — never paths.
    degradations: int = 0
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
    #: One :class:`repro.core.certificates.PathCertificate` per recorded
    #: path (certify mode only), in path order.
    certificates: list = field(default_factory=list)
    #: Human-readable mismatch messages from the certify replay.
    certificate_errors: list = field(default_factory=list)
    #: Flat memory-governor counters (samples, pressure events, per-rung
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

    def merge_run_stats(self, stats: RunStats) -> None:
        """Fold one run's solver accounting into the totals."""
        self.sat_checks += stats.sat_checks
        self.unsat_checks += stats.unsat_checks
        self.cache_hits += stats.cache_hits
        self.fast_path_answers += stats.fast_path_answers
        self.sat_solves += stats.sat_solves
        self.pruned_queries += stats.pruned_queries
        self.unknown_queries += stats.unknown_queries
        self.solver_time += stats.solver_time
        self.covered_branches |= stats.covered_pcs

    def merge_solver_stats(self, stats: dict) -> None:
        """Key-wise sum of one solver's flat counter dict."""
        for key, value in stats.items():
            self.solver_stats[key] = self.solver_stats.get(key, 0) + value

    def merge_snapshot_stats(self, stats: dict) -> None:
        """Key-wise sum of one executor's flat snapshot counter dict."""
        for key, value in stats.items():
            self.snapshot_stats[key] = self.snapshot_stats.get(key, 0) + value

    def merge_superblock_stats(self, stats: dict) -> None:
        """Key-wise sum of one executor's flat superblock counter dict."""
        for key, value in stats.items():
            self.superblock_stats[key] = self.superblock_stats.get(key, 0) + value

    def merge_governor_stats(self, stats: dict) -> None:
        """Key-wise sum of one process's flat governor counter dict."""
        for key, value in stats.items():
            self.governor_stats[key] = self.governor_stats.get(key, 0) + value
        self.degradations += stats.get("gov_rungs_applied", 0)

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

    ``jobs > 1`` delegates to the multi-process driver (each worker owns
    its own solver and query cache); ``use_cache`` enables the
    cross-path query cache, and ``solver_config`` carries the
    solver-layer knobs (cores, trail reuse, budgets, certification).  An
    explicitly supplied ``solver`` pins the exploration to a single
    process, since a user-provided facade (e.g. the query-complexity
    recorder) cannot be replicated onto workers.

    Robustness knobs: ``checkpoint_dir`` arms the crash-safe journal
    (:mod:`repro.core.checkpoint`; ``resume=True`` additionally reloads
    it before exploring), and ``faults`` injects a deterministic
    failure schedule (:class:`repro.core.faults.FaultPlan`) for chaos
    testing.  ``KeyboardInterrupt`` is caught in both drivers and
    returns the partial result with ``interrupted=True``.
    """

    def __init__(
        self,
        executor,
        solver: Optional[Solver] = None,
        strategy: str = "dfs",
        max_paths: int = 1_000_000,
        seed: int = 0,
        jobs: int = 1,
        use_cache: bool = False,
        dedup_flips: bool = True,
        solver_config: Optional[SolverConfig] = None,
        staging: Optional[bool] = None,
        superblocks: Optional[bool] = None,
        snapshots: bool = True,
        checkpoint_dir: Optional[str] = None,
        checkpoint_interval: int = 1,
        resume: bool = False,
        faults=None,
        deadline: Optional[float] = None,
        memory_budget_mb: Optional[int] = None,
        hang_timeout: float = 5.0,
        store_dir: Optional[str] = None,
    ):
        self._solver_provided = solver is not None
        #: Persistent artifact store directory (``--store DIR``); every
        #: driver/worker attaches its own handle on the shared tree.
        self.store_dir = store_dir
        if solver is None:
            solver = make_solver(use_cache, solver_config, store_dir)
        self.executor = executor
        self.solver = solver
        self.strategy_name = strategy
        self.max_paths = max_paths
        self.seed = seed
        self.jobs = jobs
        self.use_cache = use_cache
        self.dedup_flips = dedup_flips
        self.solver_config = solver_config
        self.staging = apply_staging(executor, staging)
        self.superblocks = apply_superblocks(executor, superblocks)
        # Snapshot-resumed runs (--no-snapshots ablation): only engines
        # advertising support participate; the rest execute every run
        # from the entry point exactly as before.
        self.snapshots = snapshots and getattr(
            executor, "supports_snapshots", False
        )
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_interval = checkpoint_interval
        self.resume = resume
        self.faults = faults if faults is not None and faults.active else None
        #: Anytime knobs (PR 9): a global wall-clock deadline in seconds
        #: (frontier drains into ``incomplete_paths`` when it fires, the
        #: checkpoint stays resumable), a per-process RSS budget in MB
        #: driving the degradation ladder, and the missed-heartbeat
        #: threshold after which the pool supervisor kills a seat.
        self.deadline = deadline
        self.memory_budget_mb = memory_budget_mb
        self.hang_timeout = hang_timeout
        #: Certify mode (``--certify``): record per-path condition
        #: digests during exploration and replay-verify every path
        #: under the reference evaluator once exploration finishes.
        self.certify = solver_config is not None and solver_config.certify

    def explore(self) -> ExplorationResult:
        """Run the full exploration; returns all discovered paths."""
        if self.jobs > 1 and not self._solver_provided:
            from .parallel import ProcessPoolExplorer

            return ProcessPoolExplorer(
                self.executor,
                jobs=self.jobs,
                strategy=self.strategy_name,
                max_paths=self.max_paths,
                seed=self.seed,
                use_cache=self.use_cache,
                dedup_flips=self.dedup_flips,
                solver_config=self.solver_config,
                staging=self.staging,
                superblocks=self.superblocks,
                snapshots=self.snapshots,
                checkpoint_dir=self.checkpoint_dir,
                checkpoint_interval=self.checkpoint_interval,
                resume=self.resume,
                faults=self.faults,
                deadline=self.deadline,
                memory_budget_mb=self.memory_budget_mb,
                hang_timeout=self.hang_timeout,
                store_dir=self.store_dir,
            ).explore()
        return self._explore_serial()

    def _make_checkpoint(self):
        """Build the journal manager (and load prior state on resume)."""
        if self.checkpoint_dir is None:
            return None, None
        from .checkpoint import CheckpointManager

        manager = CheckpointManager(
            self.checkpoint_dir,
            strategy=self.strategy_name,
            seed=self.seed,
            interval=self.checkpoint_interval,
        )
        state = manager.load() if self.resume else None
        return manager, state

    @staticmethod
    def _summed(base: dict, live: dict) -> dict:
        total = dict(base)
        for key, value in live.items():
            total[key] = total.get(key, 0) + value
        return total

    def _explore_serial(self) -> ExplorationResult:
        result = ExplorationResult()
        start = time.perf_counter()
        frontier = Frontier(self.strategy_name, self.seed)
        manager, restored = self._make_checkpoint()
        # With checkpointing on, children additionally carry restart-
        # stable flip-query digests; the persisted digest set suppresses
        # re-deriving children a pre-crash run already enqueued.  (The
        # in-process trie below dedups everything within one process
        # lifetime, so on fresh runs the filter never fires.)
        seen_digests: Optional[set] = set() if manager is not None else None
        if restored is not None:
            restored.restore_result(result)
            seen_digests = restored.digests
            for item in restored.frontier_items():
                frontier.push(item)
            if restored.complete:
                result.wall_time = time.perf_counter() - start
                return result
        else:
            frontier.push(WorkItem(InputAssignment(), 0))
        trie = ExploredPrefixTrie() if self.dedup_flips else None
        executor = self.executor
        snapshots = self.snapshots
        faults = self.faults
        install_fault_hooks(self.solver, faults, "serial")
        # Anytime layer: the deadline is absolute (monotonic clock), and
        # the governor reads/flips ``capture_state`` — its bottom rung
        # disables snapshot capture, which the loop below re-reads every
        # run, so degradation takes effect immediately.
        deadline_at = (
            time.monotonic() + self.deadline if self.deadline is not None else None
        )
        capture_state = {"snapshots": snapshots}
        governor = None
        if self.memory_budget_mb is not None:
            from .governor import build_exploration_governor

            governor = build_exploration_governor(
                self.memory_budget_mb, executor, self.solver, capture_state
            )
        memhog_leaks: list = []  # memhog= fault ballast, freed on return
        purge = getattr(executor, "purge_snapshots", None)
        # Superblock hotness feedback: accumulate per-PC flippable-branch
        # executions across runs; a PC crossing the threshold is reported
        # to the executor once, promoting its successors to block entries.
        note_hot = getattr(executor, "note_hot_pcs", None)
        if note_hot is not None and not getattr(executor, "superblocks_enabled", False):
            note_hot = None
        hot_counts: dict = {}
        hot_sent: set = set()
        runs = 0
        try:
            while frontier and result.num_paths < self.max_paths:
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    result.interrupted = True
                    result.deadline_expired = True
                    break
                item = frontier.pop()
                capturing = capture_state["snapshots"]
                if faults is not None and purge is not None and capturing:
                    if faults.should_evict("serial", runs):
                        purge()
                if faults is not None:
                    ballast = faults.memhog_bytes("serial", runs)
                    if ballast:
                        memhog_leaks.append(bytearray(ballast))
                runs += 1
                if capturing:
                    run = executor.execute_from(
                        item.snapshot, item.assignment, capture_from=item.bound
                    )
                else:
                    run = executor.execute(item.assignment)
                if governor is not None:
                    governor.maybe_step()
                self._record_path(result, run)
                stats = RunStats()
                children = expand_run(
                    run,
                    item.bound,
                    self.solver,
                    executor.input_variables(),
                    stats,
                    trie,
                    compute_digests=seen_digests is not None,
                    snapshots=run.snapshots if snapshots else None,
                )
                novelty = len(stats.covered_pcs - result.covered_branches)
                if note_hot is not None and stats.pc_hits:
                    newly_hot = []
                    for pc, count in stats.pc_hits.items():
                        total = hot_counts.get(pc, 0) + count
                        hot_counts[pc] = total
                        if total >= BRANCH_HOT_HITS and pc not in hot_sent:
                            hot_sent.add(pc)
                            newly_hot.append(pc)
                    if newly_hot:
                        note_hot(newly_hot)
                result.merge_run_stats(stats)
                for child in children:
                    if seen_digests is not None and child.digest is not None:
                        if child.digest in seen_digests:
                            result.pruned_queries += 1
                            continue
                        seen_digests.add(child.digest)
                    child.novelty = novelty
                    frontier.push(child)
                if manager is not None:
                    manager.maybe_save(
                        result,
                        frontier.items(),
                        seen_digests,
                        solver_stats=self._summed(
                            result.solver_stats, self.solver.pipeline_statistics
                        ),
                    )
                if faults is not None and faults.interrupt_after is not None:
                    if result.num_paths >= faults.interrupt_after:
                        raise KeyboardInterrupt
        except KeyboardInterrupt:
            result.interrupted = True
        del memhog_leaks[:]
        result.truncated = bool(frontier)
        result.frontier_peak = max(frontier.peak, result.frontier_peak)
        result.merge_solver_stats(self.solver.pipeline_statistics)
        if governor is not None:
            result.merge_governor_stats(governor.statistics)
        snapshot_stats = getattr(executor, "snapshot_statistics", None)
        if snapshot_stats is not None and snapshots:
            result.merge_snapshot_stats(dict(snapshot_stats))
        superblock_stats = getattr(executor, "superblock_statistics", None)
        if superblock_stats is not None and getattr(
            executor, "superblocks_enabled", False
        ):
            result.merge_superblock_stats(dict(superblock_stats))
        if manager is not None:
            manager.save(
                result,
                frontier.items(),
                seen_digests,
                complete=not frontier and not result.interrupted,
                solver_stats=result.solver_stats,
                snapshot_stats=result.snapshot_stats,
                superblock_stats=result.superblock_stats,
                governor_stats=result.governor_stats,
            )
        if result.deadline_expired:
            # Anytime accounting: every drained frontier item is one
            # explicitly counted unexplored path.  Counted only AFTER
            # the final checkpoint save — a ``--resume`` restores these
            # items into its frontier and re-explores them, so
            # persisting the count too would double-book them.
            result.incomplete_paths += len(frontier.drain())
        if self.certify:
            from .certificates import verify_result

            verify_result(result, executor)
            self._persist_certificates(result)
        result.wall_time = time.perf_counter() - start
        return result

    def _persist_certificates(self, result: ExplorationResult) -> None:
        """Write replay-checked certificates to the persistent store.

        Only certificates that just *passed* replay are persisted — the
        store holds evidence, not claims.  Content-addressed, so
        re-running the same campaign rewrites nothing.
        """
        store = getattr(getattr(self.solver, "cache", None), "store", None)
        if store is None or not result.certificates:
            return
        from .certificates import certificate_to_state

        if result.certificate_failures:
            return
        for cert in result.certificates:
            store.save_certificate(certificate_to_state(cert))

    # ------------------------------------------------------------------

    def _record_path(self, result: ExplorationResult, run: RunResult) -> None:
        result.total_instructions += run.instret
        result.executed_instructions += run.instret - run.resumed_instret
        result.paths.append(
            PathInfo(
                index=len(result.paths),
                halt_reason=run.halt_reason,
                exit_code=run.exit_code,
                instret=run.instret,
                trace_length=len(run.trace),
                assignment=run.assignment,
                stdout=run.stdout,
                final_pc=run.final_pc,
                condition_digest=(
                    query_digest(run.trace.conditions()) if self.certify else None
                ),
            )
        )
