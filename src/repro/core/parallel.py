"""Multi-process path exploration: a supervised work-queue over forks.

The offline executor restarts the SUT once per path, and the runs are
independent given their input assignments — which makes the exploration
loop embarrassingly parallel apart from the frontier.  This module
keeps the frontier (and the chosen search strategy) in the parent and
fans the concolic runs out over a pool of forked workers:

* the parent pops :class:`~repro.core.scheduler.WorkItem`s and sends
  ``(task_id, assignment, bound)`` over a per-worker task queue; under
  DFS a free seat takes the newest item whose snapshot it captured (or
  that has none) and steals the oldest item only when it holds none
  (work stealing), so flip children resume on the worker that owns
  their snapshot,
* each worker owns its *own* :class:`~repro.smt.solver.Solver` (plus
  query cache and explored-prefix trie), executes the run, performs the
  branch-flip expansion locally, and streams back the path summary, the
  newly discovered frontier entries, and exact per-run solver stats,
* the parent records paths, aggregates statistics, scores coverage
  novelty against the global covered-branch set, and pushes the new
  work items.

**Supervision.**  Task queues are per-worker so the parent always
knows which item each worker holds.  A worker that dies mid-item (OOM
kill, segfault, injected fault) no longer aborts the campaign: the
parent requeues the lost item (its snapshot reference, if any, still
names the *capturing* worker, so it resumes or falls back to full
re-execution per the PR 5 eviction contract), respawns the worker
under a fresh incarnation uid with a small backoff, and abandons an
item only after :data:`MAX_ITEM_FAILURES` deaths *while holding it* —
recorded as an ``incomplete_paths`` count, never a silent loss.  Fresh
uids matter twice: a stale ``(uid, handle)`` snapshot reference can
never alias the respawned worker's pool, and the dead incarnation's
last cumulative stats dict is preserved rather than overwritten.

Workers are created with the ``fork`` start method so they inherit the
executor (ISA, image, interpreter) without pickling — interned terms
cannot round-trip through pickle, and the formal-spec layer has no
reason to be serializable.  Input assignments cross the process
boundary by variable *name* (see :mod:`repro.core.scheduler`).  On
platforms without ``fork`` the driver transparently falls back to the
single-process explorer, which discovers the identical path set.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Optional

from ..smt.solver import SolverConfig
from ..spec.superblock import BRANCH_HOT_HITS
from .explorer import (
    ExplorationResult,
    Explorer,
    PathInfo,
    apply_staging,
    apply_superblocks,
    install_fault_hooks,
    make_solver,
)
from .faults import KILL_EXIT_CODE
from .scheduler import (
    Frontier,
    RunStats,
    WorkItem,
    deserialize_assignment,
    expand_run,
    query_digest,
    serialize_assignment,
)
from .state import ExploredPrefixTrie, InputAssignment

__all__ = [
    "ProcessPoolExplorer",
    "default_jobs",
    "MAX_ITEM_FAILURES",
    "HEARTBEAT_INTERVAL",
    "DEFAULT_HANG_TIMEOUT",
]

#: Worker deaths while holding the *same* item before the supervisor
#: abandons it as an ``incomplete`` path instead of retrying.
MAX_ITEM_FAILURES = 3

#: Seconds between worker liveness beats on the private reply pipe.
#: Sent from a daemon thread, so a worker grinding through a long run
#: (or a long CDCL solve) keeps beating — only a *wedged process* (hung
#: syscall, C-level spin, injected ``hang=`` fault) goes silent.
HEARTBEAT_INTERVAL = 0.25

#: Seconds of heartbeat silence before the supervisor declares a live
#: seat hung and kills it (>> HEARTBEAT_INTERVAL, so scheduler jitter
#: on a loaded machine never trips it).
DEFAULT_HANG_TIMEOUT = 5.0

#: First element of a liveness message on the reply pipe.  Real replies
#: lead with an integer task id, so the tag can never collide.
_HEARTBEAT = "__heartbeat__"


class _DeadlineExpired(Exception):
    """Internal control flow: the global ``--deadline`` fired."""


def default_jobs() -> int:
    """Worker count when none is requested: one per CPU, capped at 8."""
    return min(os.cpu_count() or 1, 8)


def _backoff_delay(seed: int, uid: int, respawns: int) -> float:
    """Respawn delay for a seat's ``respawns``-th revival (seconds).

    Exponential in the respawn count (capped at 2s) with deterministic
    multiplicative jitter in [0.5, 1.5) derived from ``(seed, uid,
    respawns)`` — crash loops back off fast without every seat of a
    mass-death event retrying in lockstep, and the schedule is
    reproducible for a given campaign seed.
    """
    if respawns <= 0:
        return 0.0
    base = min(0.02 * (2 ** (respawns - 1)), 2.0)
    digest = hashlib.blake2b(
        f"backoff|{seed}|{uid}|{respawns}".encode("ascii"), digest_size=8
    ).digest()
    jitter = 0.5 + int.from_bytes(digest, "big") / 2**64
    return base * jitter


def _worker_main(
    executor,
    worker_uid,
    use_cache,
    dedup_flips,
    solver_config,
    snapshots,
    task_queue,
    reply_conn,
    faults,
    memory_budget_mb,
    store_dir,
):
    """Worker loop: execute runs and expand their branch flips.

    Replies are ``(task_id, path_payload, children, stats_payload)`` on
    success or ``(task_id, None, traceback_text, None)`` on failure,
    sent over this incarnation's *private* reply pipe.  A shared reply
    queue would hold a cross-process write lock during puts — a worker
    dying at the wrong instant (mp.Queue even writes from a background
    feeder thread) would leave it locked and wedge every other worker;
    with one pipe per incarnation a crash can only ever truncate that
    worker's own stream, which the supervisor treats as a lost item.
    ``None`` on the task queue shuts the worker down.

    The stats payload carries, besides the per-run :class:`RunStats`
    fields, the worker uid and the solver's (and snapshot layer's)
    *cumulative* flat counter dicts: the parent keeps the latest dict
    per uid and sums them at the end, which is exact — a worker only
    accrues counters while producing replies, so its last reply carries
    its final totals (work lost to a mid-item death is requeued, so
    attribution stays a lower bound exactly like the serial driver's).

    Snapshot handles are process-local, so a task's snapshot reference
    ``(origin_uid, handle)`` is only honoured when this incarnation
    captured it; cross-worker items (steals) re-execute from the entry
    point, which discovers the identical path (counted separately so the
    benchmark can report the cross-worker re-execution share).

    ``faults`` (a :class:`repro.core.faults.FaultPlan` or None) drives
    deterministic chaos: a scheduled *kill* exits the process the
    moment the task is received (the parent requeues it), a *hang*
    stops the heartbeat thread and parks the worker in an infinite
    sleep (a wedged process the watchdog must detect and kill),
    *memhogs* leak ballast to drive the memory governor, *evictions*
    purge the snapshot pool before the run, *give-ups* make scheduled
    CDCL solves answer UNKNOWN, and *hiccups* stall the reply briefly
    to widen the reply/death race window the supervisor must tolerate.

    **Liveness.**  A daemon thread beats every
    :data:`HEARTBEAT_INTERVAL` seconds on the reply pipe (tagged
    :data:`_HEARTBEAT`, distinguishable from replies by its string
    first element).  The GIL guarantees the thread gets scheduled even
    while the main thread grinds through pure-Python work, so a long
    run never reads as a hang — only a genuinely wedged process goes
    silent.  Both threads send under one lock so messages never
    interleave on the pipe.
    """
    solver = make_solver(use_cache, solver_config, store_dir)
    install_fault_hooks(solver, faults, worker_uid)
    certify = solver_config is not None and solver_config.certify
    purge = getattr(executor, "purge_snapshots", None)
    trie = ExploredPrefixTrie() if dedup_flips else None
    send_lock = threading.Lock()
    hb_stop = threading.Event()

    def _heartbeat_loop():
        while not hb_stop.wait(HEARTBEAT_INTERVAL):
            try:
                with send_lock:
                    reply_conn.send((_HEARTBEAT, worker_uid))
            except (OSError, ValueError, BrokenPipeError):
                return  # parent went away; the process is exiting

    threading.Thread(target=_heartbeat_loop, daemon=True).start()
    # Per-worker memory governor: RSS is per-process, so every worker
    # walks its own degradation ladder over its own caches and pool.
    capture_state = {"snapshots": snapshots}
    governor = None
    if memory_budget_mb is not None:
        from .governor import build_exploration_governor

        governor = build_exploration_governor(
            memory_budget_mb, executor, solver, capture_state
        )
    memhog_leaks: list = []
    cross_worker_items = 0
    tasks_done = 0
    note_hot = getattr(executor, "note_hot_pcs", None)
    hot_applied: set = set()
    # Under snapshot-affine dispatch a worker runs from the entry point
    # for its first task and afterwards only for its few steals, so
    # whether it reached ENTRY_HOT_RUNS (and compiled the entry block)
    # would depend on steal timing.  Counting the fork as one entry run
    # compiles that block on every worker's first task, keeping the
    # pool's superblock counters a function of the paths it runs.
    note_entry = getattr(executor, "note_entry_run", None)
    if note_entry is not None:
        note_entry()
    while True:
        task = task_queue.get()
        if task is None:
            hb_stop.set()
            return
        if faults is not None and faults.should_kill(worker_uid, tasks_done):
            os._exit(KILL_EXIT_CODE)
        if faults is not None and faults.should_hang(worker_uid, tasks_done):
            # Simulate a fully wedged process (hung syscall, C-level
            # spin): heartbeats stop, the task is never answered, and
            # only the supervisor's watchdog can recover the seat.
            hb_stop.set()
            while True:
                time.sleep(60)
        task_id, assignment_payload, bound, snapshot_ref, hot_pcs = task
        try:
            if note_hot is not None and hot_pcs:
                # The parent broadcasts its cumulative hot-branch set
                # (hotness is global across workers); apply the delta.
                fresh = [pc for pc in hot_pcs if pc not in hot_applied]
                if fresh:
                    hot_applied.update(fresh)
                    note_hot(fresh)
            if faults is not None:
                ballast = faults.memhog_bytes(worker_uid, tasks_done)
                if ballast:
                    memhog_leaks.append(bytearray(ballast))
            capturing = capture_state["snapshots"]
            if faults is not None and purge is not None and capturing:
                if faults.should_evict(worker_uid, tasks_done):
                    purge()
            assignment = deserialize_assignment(assignment_payload)
            if capturing:
                resume = None
                if snapshot_ref is not None:
                    if snapshot_ref[0] == worker_uid:
                        resume = snapshot_ref[1]
                    else:
                        cross_worker_items += 1
                run = executor.execute_from(
                    resume, assignment, capture_from=bound
                )
            else:
                run = executor.execute(assignment)
            if governor is not None:
                governor.maybe_step()
            stats = RunStats()
            children = expand_run(
                run,
                bound,
                solver,
                executor.input_variables(),
                stats,
                trie,
                compute_digests=True,
                snapshots=run.snapshots if snapshots else None,
            )
            path_payload = (
                run.halt_reason,
                run.exit_code,
                run.instret,
                len(run.trace),
                serialize_assignment(run.assignment),
                run.stdout,
                run.final_pc,
                run.resumed_instret,
                query_digest(run.trace.conditions()) if certify else None,
            )
            # child.divergence is not shipped: it always equals
            # bound - 1 for flip children, so the parent re-derives it.
            child_payloads = [
                (
                    serialize_assignment(child.assignment),
                    child.bound,
                    child.digest,
                    child.snapshot,
                )
                for child in children
            ]
            snapshot_stats = getattr(executor, "snapshot_statistics", None)
            if snapshot_stats is not None and snapshots:
                snapshot_stats = dict(snapshot_stats)
                snapshot_stats["snap_cross_worker_items"] = cross_worker_items
            else:
                snapshot_stats = {}
            superblock_stats = getattr(executor, "superblock_statistics", None)
            if superblock_stats is not None and getattr(
                executor, "superblocks_enabled", False
            ):
                superblock_stats = dict(superblock_stats)
            else:
                superblock_stats = {}
            stats_payload = (
                stats.sat_checks,
                stats.unsat_checks,
                stats.cache_hits,
                stats.fast_path_answers,
                stats.sat_solves,
                stats.pruned_queries,
                stats.solver_time,
                tuple(stats.covered_pcs),
                worker_uid,
                solver.pipeline_statistics,
                snapshot_stats,
                tuple(stats.pc_hits.items()),
                superblock_stats,
                stats.unknown_queries,
                governor.statistics if governor is not None else {},
            )
            if faults is not None:
                delay = faults.hiccup_delay(worker_uid, tasks_done)
                if delay:
                    time.sleep(delay)
            with send_lock:
                reply_conn.send(
                    (task_id, path_payload, child_payloads, stats_payload)
                )
        except Exception:
            with send_lock:
                reply_conn.send((task_id, None, traceback.format_exc(), None))
        tasks_done += 1


class _WorkerSlot:
    """Parent-side bookkeeping for one worker seat.

    A *seat* survives its process: when the incarnation dies, the seat
    is revived with a fresh uid, a fresh task queue (a task the dead
    worker never consumed must not leak to its successor — the parent
    requeues it instead), a fresh reply pipe, and the respawn count for
    backoff.
    """

    __slots__ = (
        "uid",
        "process",
        "queue",
        "reply",
        "task_id",
        "respawns",
        "last_beat",
    )

    def __init__(self, uid, process, queue, reply):
        self.uid = uid
        self.process = process
        self.queue = queue
        #: Parent's receive end of the incarnation's private reply pipe.
        self.reply = reply
        #: Task id the seat's worker currently holds (None = idle).
        self.task_id: Optional[int] = None
        self.respawns = 0
        #: Monotonic time of the incarnation's last message (heartbeat
        #: or reply); seeded at spawn so a fresh seat gets a full
        #: hang-timeout window before the watchdog may judge it.
        self.last_beat = time.monotonic()


class ProcessPoolExplorer:
    """Explores an executor's paths on a pool of forked worker processes.

    Drop-in alternative to :class:`~repro.core.explorer.Explorer`: same
    constructor vocabulary, same :class:`ExplorationResult`, and —
    because the flip-expansion rules fully determine the reachable
    (assignment, bound) tree independent of visit order — the same
    discovered path set.  Path *indices* reflect completion order, so
    cross-mode comparisons should use ``ExplorationResult.path_set()``.

    The parent process never executes the SUT, so executor-side state
    (e.g. the interpreter's discovered symbolic inputs) stays untouched
    in the parent; everything the caller needs is in the result.
    """

    def __init__(
        self,
        executor,
        jobs: Optional[int] = None,
        strategy: str = "dfs",
        max_paths: int = 1_000_000,
        seed: int = 0,
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
        hang_timeout: float = DEFAULT_HANG_TIMEOUT,
        store_dir: Optional[str] = None,
    ):
        self.executor = executor
        self.jobs = jobs if jobs is not None else default_jobs()
        self.strategy_name = strategy
        self.max_paths = max_paths
        self.seed = seed
        self.use_cache = use_cache
        self.dedup_flips = dedup_flips
        self.solver_config = solver_config
        # Snapshots are worker-local (pools are fork-inherited but grow
        # independently): dispatch prefers the capturing seat, items that
        # land there resume, and steals re-execute, keeping the discovered
        # path set and query attribution byte-identical to serial mode.
        self.snapshots = snapshots and getattr(
            executor, "supports_snapshots", False
        )
        # Applied before the fork so every worker inherits the setting;
        # the staged plan/decode caches themselves are pure per-word
        # memos, so each worker's copy-on-write copy stays coherent as
        # it grows independently (see repro.spec.isa).
        self.staging = apply_staging(executor, staging)
        self.superblocks = apply_superblocks(executor, superblocks)
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_interval = checkpoint_interval
        self.resume = resume
        self.faults = faults if faults is not None and faults.active else None
        self.deadline = deadline
        self.memory_budget_mb = memory_budget_mb
        self.hang_timeout = hang_timeout
        # Persistent artifact store (--store): the directory path is
        # what crosses the fork; every worker opens its own handle.
        self.store_dir = store_dir

    def explore(self) -> ExplorationResult:
        if self.jobs <= 1 or "fork" not in multiprocessing.get_all_start_methods():
            return self._fallback()
        return self._explore_pool()

    def _fallback(self) -> ExplorationResult:
        return Explorer(
            self.executor,
            strategy=self.strategy_name,
            max_paths=self.max_paths,
            seed=self.seed,
            jobs=1,
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

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, context, uid) -> _WorkerSlot:
        """Start one incarnation on fresh task/reply channels."""
        task_queue = context.SimpleQueue()
        recv_conn, send_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker_main,
            args=(
                self.executor,
                uid,
                self.use_cache,
                self.dedup_flips,
                self.solver_config,
                self.snapshots,
                task_queue,
                send_conn,
                self.faults,
                self.memory_budget_mb,
                self.store_dir,
            ),
            daemon=True,
        )
        process.start()
        # The child inherited the send end; dropping the parent's copy
        # makes the pipe EOF as soon as the incarnation dies.
        send_conn.close()
        return _WorkerSlot(uid, process, task_queue, recv_conn)

    def _await_replies(self, slots, result, deadline_at):
        """Block until replies arrive or a worker death is detected.

        Returns ``(replies, dead_slots)``.  ``_worker_main`` converts
        in-task exceptions into error replies, but a hard-killed worker
        (OOM killer, segfault) posts nothing — without a liveness check
        the parent would wait forever on a reply that can never arrive.
        Each incarnation replies on its own pipe, so a crash can only
        truncate that worker's stream: complete replies racing the
        death are drained and processed, a torn trailing message is
        discarded (its item will be requeued), and no shared lock
        exists for a dying writer to wedge the survivors with.

        **Watchdog.**  Every drained message (heartbeat or reply)
        refreshes the seat's ``last_beat``; a *live* seat silent for
        longer than ``hang_timeout`` is declared hung: the supervisor
        kills it (SIGKILL — a wedged process may ignore SIGTERM),
        counts it in ``hung_workers``, and lets the ordinary death path
        requeue its item and respawn the seat.  The global deadline is
        also enforced here, since heartbeats keep this loop turning
        even when no worker ever finishes its task.
        """
        while True:
            if deadline_at is not None and time.monotonic() >= deadline_at:
                raise _DeadlineExpired
            ready = mp_connection.wait(
                [slot.reply for slot in slots], timeout=0.2
            )
            now = time.monotonic()
            replies = []
            delivered = False
            for slot in slots:
                if slot.reply not in ready:
                    continue
                try:
                    while slot.reply.poll():
                        message = slot.reply.recv()
                        delivered = True
                        slot.last_beat = now
                        if message[0] != _HEARTBEAT:
                            replies.append(message)
                except (EOFError, OSError):
                    pass  # EOF or torn message: the death check decides
            for slot in slots:
                if slot.process.exitcode is not None:
                    continue
                if now - slot.last_beat > self.hang_timeout:
                    result.hung_workers += 1
                    slot.process.kill()
                    slot.process.join()
            dead = [
                slot for slot in slots if slot.process.exitcode is not None
            ]
            if replies or dead:
                return replies, dead
            if ready and not delivered:
                # A pipe signalled EOF but the exit code is not posted
                # yet: yield briefly instead of spinning on wait().  A
                # round that drained only heartbeats goes straight back
                # to wait(), so the other seats' replies are not delayed.
                time.sleep(0.005)

    def _revive(
        self, slot, replied_ids, in_flight, frontier, result, context
    ) -> None:
        """Recover one dead seat: requeue or abandon its item, respawn.

        An item whose reply already arrived (``replied_ids``) completed
        before the death — it is *not* requeued; the pending reply will
        account for it.  Otherwise the item is lost mid-run: it goes
        back to the frontier with ``failures`` bumped, or — after
        :data:`MAX_ITEM_FAILURES` deaths while holding it — is recorded
        as an ``incomplete`` path.  The requeued item keeps its snapshot
        reference: it names the *capturing* worker's uid, which either
        still lives (that seat prefers it and resumes) or never matches
        again (the item is only stolen and fully re-executed — the same
        sound fallback as a pool eviction).
        """
        slot.process.join()
        slot.reply.close()
        task_id = slot.task_id
        slot.task_id = None
        if task_id is not None and task_id not in replied_ids:
            item = in_flight.pop(task_id, None)
            if item is not None:
                result.worker_deaths += 1
                item.failures += 1
                if item.failures >= MAX_ITEM_FAILURES:
                    result.incomplete_paths += 1
                else:
                    frontier.push(item)
        # Seeded-jitter exponential backoff per seat: repeated respawns
        # slow down (capped), one-off crashes restart almost
        # immediately, and simultaneous seat deaths desynchronize.
        delay = _backoff_delay(self.seed, slot.uid, slot.respawns)
        if delay:
            time.sleep(delay)
        slot.respawns += 1
        self._next_uid += 1
        fresh = self._spawn(context, self._next_uid)
        slot.uid = fresh.uid
        slot.process = fresh.process
        slot.queue = fresh.queue
        slot.reply = fresh.reply
        slot.last_beat = fresh.last_beat

    # ------------------------------------------------------------------
    # The supervised pool loop
    # ------------------------------------------------------------------

    def _explore_pool(self) -> ExplorationResult:
        context = multiprocessing.get_context("fork")
        self._next_uid = self.jobs - 1
        slots = [self._spawn(context, uid) for uid in range(self.jobs)]

        result = ExplorationResult(workers=self.jobs)
        start = time.perf_counter()
        frontier = Frontier(self.strategy_name, self.seed)
        manager = None
        restored = None
        if self.checkpoint_dir is not None:
            from .checkpoint import CheckpointManager

            manager = CheckpointManager(
                self.checkpoint_dir,
                strategy=self.strategy_name,
                seed=self.seed,
                interval=self.checkpoint_interval,
            )
            if self.resume:
                restored = manager.load()
        # Flip-query digests of children already enqueued.  Worker tries
        # are per-process, so when diverged runs on *different* workers
        # re-derive the same flip, the duplicate is caught here — same
        # path set as the serial driver's shared trie.  Digests are
        # restart-stable, so a resumed campaign's persisted set also
        # suppresses re-deriving pre-crash children.
        seen_digests: set = set()
        if restored is not None:
            restored.restore_result(result)
            seen_digests = restored.digests
            for item in restored.frontier_items():
                frontier.push(item)
        else:
            frontier.push(WorkItem(InputAssignment(), 0))
        resumed_complete = restored is not None and restored.complete
        faults = self.faults
        deadline_at = (
            time.monotonic() + self.deadline if self.deadline is not None else None
        )
        next_task = 0
        dropped = False
        #: task id -> WorkItem currently held by some worker.
        in_flight: dict[int, WorkItem] = {}
        pending_replies: deque = deque()
        # Latest cumulative solver/snapshot/superblock counter dicts per
        # worker incarnation uid (see _worker_main); summed into the
        # result after the pool drains.  Keyed by uid, so a respawned
        # seat never overwrites its dead predecessor's final totals.
        worker_solver_stats: dict[int, dict] = {}
        worker_snapshot_stats: dict[int, dict] = {}
        worker_superblock_stats: dict[int, dict] = {}
        worker_governor_stats: dict[int, dict] = {}
        # Global superblock hotness: per-PC flippable-branch executions
        # accumulate across all workers' runs; PCs past the threshold
        # are broadcast with every task (cumulative tuple — workers
        # apply the delta), so late-started and idle workers converge on
        # the same hot set.
        hot_counts: dict = {}
        hot_pcs: tuple = ()
        superblocks_on = getattr(self.executor, "superblocks_enabled", False)
        try:
            while not resumed_complete and (
                frontier or in_flight or pending_replies
            ):
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    raise _DeadlineExpired
                for slot in slots:
                    if slot.task_id is not None:
                        continue
                    if not frontier:
                        break
                    if result.num_paths + len(in_flight) >= self.max_paths:
                        break
                    item = frontier.pop(_owned_by(slot.uid))
                    slot.task_id = next_task
                    in_flight[next_task] = item
                    slot.queue.put(
                        (
                            next_task,
                            serialize_assignment(item.assignment),
                            item.bound,
                            item.snapshot,
                            hot_pcs,
                        )
                    )
                    next_task += 1
                if not in_flight and not pending_replies:
                    break  # path budget exhausted with work left over
                if not pending_replies:
                    replies, dead = self._await_replies(
                        slots, result, deadline_at
                    )
                    pending_replies.extend(replies)
                    if dead:
                        replied_ids = {reply[0] for reply in pending_replies}
                        for slot in dead:
                            self._revive(
                                slot,
                                replied_ids,
                                in_flight,
                                frontier,
                                result,
                                context,
                            )
                        continue
                reply = pending_replies.popleft()
                task_id, path_payload, children, stats_payload = reply
                item = in_flight.pop(task_id, None)
                for slot in slots:
                    if slot.task_id == task_id:
                        slot.task_id = None
                        break
                if path_payload is None:
                    raise RuntimeError(f"exploration worker failed:\n{children}")
                if result.num_paths < self.max_paths:
                    self._record_path(result, path_payload)
                else:
                    dropped = True
                stats = RunStats(
                    sat_checks=stats_payload[0],
                    unsat_checks=stats_payload[1],
                    cache_hits=stats_payload[2],
                    fast_path_answers=stats_payload[3],
                    sat_solves=stats_payload[4],
                    pruned_queries=stats_payload[5],
                    solver_time=stats_payload[6],
                    covered_pcs=set(stats_payload[7]),
                    pc_hits=dict(stats_payload[11]),
                    unknown_queries=stats_payload[13],
                )
                origin_uid = stats_payload[8]
                worker_solver_stats[origin_uid] = stats_payload[9]
                worker_snapshot_stats[origin_uid] = stats_payload[10]
                if stats_payload[12]:
                    worker_superblock_stats[origin_uid] = stats_payload[12]
                if stats_payload[14]:
                    worker_governor_stats[origin_uid] = stats_payload[14]
                if superblocks_on and stats_payload[11]:
                    new_hot = False
                    for pc, count in stats_payload[11]:
                        total = hot_counts.get(pc, 0) + count
                        hot_counts[pc] = total
                        if total >= BRANCH_HOT_HITS:
                            new_hot = True
                    if new_hot:
                        hot_pcs = tuple(
                            pc
                            for pc, count in hot_counts.items()
                            if count >= BRANCH_HOT_HITS
                        )
                novelty = len(stats.covered_pcs - result.covered_branches)
                result.merge_run_stats(stats)
                for assignment_payload, bound, digest, snapshot in children:
                    if digest is not None:
                        if digest in seen_digests:
                            result.pruned_queries += 1
                            continue
                        seen_digests.add(digest)
                    frontier.push(
                        WorkItem(
                            deserialize_assignment(assignment_payload),
                            bound,
                            novelty=novelty,
                            digest=digest,
                            snapshot=(
                                (origin_uid, snapshot)
                                if snapshot is not None
                                else None
                            ),
                            divergence=bound - 1 if bound else None,
                        )
                    )
                if manager is not None:
                    manager.maybe_save(
                        result,
                        frontier.items() + list(in_flight.values()),
                        seen_digests,
                        solver_stats=_summed(
                            result.solver_stats, worker_solver_stats.values()
                        ),
                    )
                if faults is not None and faults.interrupt_after is not None:
                    if result.num_paths >= faults.interrupt_after:
                        raise KeyboardInterrupt
        except KeyboardInterrupt:
            result.interrupted = True
        except _DeadlineExpired:
            result.interrupted = True
            result.deadline_expired = True
        finally:
            # Bounded shutdown escalation: a cooperative join first,
            # then SIGTERM, then SIGKILL — close() can never hang the
            # parent on a worker wedged past its shutdown sentinel.
            for slot in slots:
                slot.queue.put(None)
            for slot in slots:
                slot.process.join(timeout=5)
            for slot in slots:
                if slot.process.is_alive():  # pragma: no cover - defensive
                    slot.process.terminate()
                    slot.process.join(timeout=2)
                if slot.process.is_alive():  # pragma: no cover - defensive
                    slot.process.kill()
                    slot.process.join(timeout=5)
                slot.reply.close()
        result.truncated = dropped or bool(frontier)
        result.frontier_peak = max(frontier.peak, result.frontier_peak)
        for stats_dict in worker_solver_stats.values():
            result.merge_solver_stats(stats_dict)
        for stats_dict in worker_snapshot_stats.values():
            result.merge_snapshot_stats(stats_dict)
        for stats_dict in worker_superblock_stats.values():
            result.merge_superblock_stats(stats_dict)
        for stats_dict in worker_governor_stats.values():
            result.merge_governor_stats(stats_dict)
        if manager is not None and not resumed_complete:
            manager.save(
                result,
                frontier.items() + list(in_flight.values()),
                seen_digests,
                complete=(
                    not frontier and not in_flight and not result.interrupted
                ),
                solver_stats=result.solver_stats,
                snapshot_stats=result.snapshot_stats,
                superblock_stats=result.superblock_stats,
                governor_stats=result.governor_stats,
            )
        if result.deadline_expired:
            # Anytime accounting: drained frontier plus still-in-flight
            # items are the explicitly counted unexplored paths.  Added
            # only AFTER the final checkpoint save — ``--resume``
            # restores those items and re-explores them, so persisting
            # the count too would double-book them.
            result.incomplete_paths += len(frontier.drain()) + len(in_flight)
        if self.solver_config is not None and self.solver_config.certify:
            # The parent never executed the SUT, so its executor is a
            # pristine replay vehicle for the certificates the workers'
            # runs produced.
            from .certificates import verify_result

            verify_result(result, self.executor)
            if self.store_dir is not None and not result.certificate_failures:
                # Replay-checked evidence goes to the persistent store
                # through the parent's own handle (workers only persist
                # query verdicts; certificates are a campaign artifact).
                from .certificates import certificate_to_state
                from .store import ArtifactStore

                store = ArtifactStore(self.store_dir, certify=True)
                for cert in result.certificates:
                    store.save_certificate(certificate_to_state(cert))
        result.wall_time = time.perf_counter() - start
        return result

    def _record_path(self, result: ExplorationResult, payload) -> None:
        (
            halt_reason,
            exit_code,
            instret,
            trace_length,
            assignment,
            stdout,
            pc,
            resumed_instret,
            condition_digest,
        ) = payload
        result.total_instructions += instret
        result.executed_instructions += instret - resumed_instret
        result.paths.append(
            PathInfo(
                index=len(result.paths),
                halt_reason=halt_reason,
                exit_code=exit_code,
                instret=instret,
                trace_length=trace_length,
                assignment=deserialize_assignment(assignment),
                stdout=stdout,
                final_pc=pc,
                condition_digest=condition_digest,
            )
        )


def _owned_by(uid: int):
    """Pop preference of a free seat: the items it owns.

    A seat owns the items whose snapshot it captured.  An item without a
    snapshot — the root, checkpoint-restored items (handles dropped),
    every item of a pool that captures none or stopped capturing under
    memory pressure — re-executes from the entry point on any seat, so
    it counts as every seat's own: with no snapshots at all, DFS
    dispatch stays plain LIFO instead of stealing-oldest into BFS order.
    Items whose capturing incarnation died match no live seat; they are
    only ever stolen and re-executed, like an evicted handle.
    """
    return lambda item: item.snapshot is None or item.snapshot[0] == uid


def _summed(base: dict, live_dicts) -> dict:
    """Key-wise ``base + sum(live_dicts)`` without mutating either."""
    total = dict(base)
    for live in live_dicts:
        for key, value in live.items():
            total[key] = total.get(key, 0) + value
    return total
