"""Multi-process path exploration: worker-local frontiers and a broker.

The offline executor restarts the SUT once per path, and the runs are
independent given their input assignments, so exploration parallelizes
apart from the frontier.  This module splits the frontier over a pool of
forked workers (see :func:`_worker_main`).  Each worker owns a
:class:`~repro.core.scheduler.Frontier` with the campaign's strategy and
seed, plus its own solver and explored-prefix trie: it pops its next
item itself, runs and expands it, pushes the children, and streams the
result home without waiting for an answer.  Non-DFS strategies thus
order each worker's own frontier, and coverage novelty is scored against
the worker's own covered set; path sets do not depend on the order, but
``--max-paths`` truncation and coverage order do.

The parent is a broker.  It records paths, sums statistics and keeps a
per-seat *mirror* of every worker's frontier, built from the child lists
the replies carry.  It moves work only when a seat runs dry: a global
item (the root, a requeued or a restored one) if there is one, otherwise
one stolen from the seat with the most mirrored items — the item that
seat's strategy would run last (:meth:`Frontier.steal`: under DFS the
oldest, and so the largest subtree).  Flip dedup stays global: the
broker checks every child's restart-stable flip digest when the reply
arrives and sends a *drop* for a duplicate; if the worker already ran
it, that run's reply and children are discarded.  Only a run that
diverged from the path its model predicted can re-derive another run's
flip query.

**Supervision.**  A worker that dies (OOM kill, segfault, injected
fault) does not abort the campaign.  The parent processes every reply
the dead incarnation sent, then requeues what is left of its mirror on
the global frontier; the item it was running gets ``failures += 1`` and
is abandoned as an ``incomplete_paths`` count after
:data:`MAX_ITEM_FAILURES` deaths, never silently lost.  The seat
respawns under a fresh incarnation uid with a small backoff, so a stale
``(uid, handle)`` snapshot reference never aliases the new worker's pool
and the dead incarnation's final stats are kept.  Checkpoint saves and
deadline drains read the global frontier plus every mirror.

Workers are forked so they inherit the executor (ISA, image,
interpreter) without pickling: interned terms cannot round-trip through
pickle.  Input assignments cross the process boundary by variable
*name* (see :mod:`repro.core.scheduler`).  Without ``fork`` the driver
falls back to the single-process explorer, which discovers the identical
path set.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
import time
import traceback
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

#: Worker deaths while running the *same* item before the supervisor
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

#: First element of a liveness message on the reply pipe.  Run replies
#: lead with an integer item id, so the tags can never collide.
_HEARTBEAT = "__heartbeat__"
#: First element of a steal answer: ``(_STOLEN, item_id or None)``.
_STOLEN = "__stolen__"


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


def _worker_main(pool, worker_uid, control, reply_conn):
    """Worker loop: run items from a local frontier, stream the results.

    ``pool`` is the fork-inherited :class:`ProcessPoolExplorer`, whose
    fields configure the worker.  It owns a :class:`Frontier` with the
    campaign's strategy and seed, a solver and an explored-prefix trie,
    and it counts and promotes hot superblock PCs itself, exactly as the
    serial driver does.  Between runs it drains the ``control`` pipe
    without blocking (it blocks only with an empty frontier):

    * ``("task", id, assignment, bound, snapshot_ref, novelty)`` pushes
      an item;
    * ``("steal",)`` gives up the item :meth:`Frontier.steal` picks and
      answers ``(_STOLEN, id)``, or ``(_STOLEN, None)`` with none left;
    * ``("drop", ids)`` discards those items unless they already ran;
    * ``None`` shuts the worker down.

    The drain comes before the last run's children are pushed, so a
    steal only ever gives up an item the parent has been told about.
    Each run then sends one reply ``(id, path_payload, children,
    run_stats, counters, novelty, running)``: ``children`` lists
    ``(child_id, assignment, bound, digest, snapshot_handle)``,
    ``counters`` are the solver's, snapshot layer's, superblock layer's
    and governor's *cumulative* flat dicts (the parent keeps the latest
    per uid and sums them at the end), and ``running`` names the item
    the worker popped next (``None``: it went idle).  A failed run sends
    ``(id, None, traceback_text, ...)``.  Replies travel on this
    incarnation's *private* pipe, so a crash can only truncate this
    worker's own stream; a shared queue's write lock could be left held
    by a dying writer and wedge every other worker.

    Snapshot handles are process-local: a task's ``(origin_uid, handle)``
    reference is honoured only by the incarnation that captured it, and
    any other item re-executes from the entry point, which discovers the
    identical path (counted in ``snap_cross_worker_items``).

    ``pool.faults`` drives deterministic chaos, keyed by the number of
    runs this incarnation started: *kill* exits before the run, *hang*
    stops the heartbeat and sleeps forever (a wedged process only the
    watchdog recovers), *memhog* leaks ballast for the memory governor,
    *evict* purges the snapshot pool, *unknown* makes scheduled CDCL
    solves give up, and *hiccup* stalls the reply.  A daemon thread
    beats every :data:`HEARTBEAT_INTERVAL` seconds on the reply pipe;
    the GIL schedules it even while the main thread grinds through a
    long run, and both threads send under one lock.
    """
    executor = pool.executor
    faults = pool.faults
    solver = make_solver(pool.use_cache, pool.solver_config, pool.store_dir)
    install_fault_hooks(solver, faults, worker_uid)
    certify = pool.solver_config is not None and pool.solver_config.certify
    purge = getattr(executor, "purge_snapshots", None)
    trie = ExploredPrefixTrie() if pool.dedup_flips else None
    send_lock = threading.Lock()
    hb_stop = threading.Event()

    def send(message):
        with send_lock:
            reply_conn.send(message)

    def heartbeat_loop():
        while not hb_stop.wait(HEARTBEAT_INTERVAL):
            try:
                send((_HEARTBEAT, worker_uid))
            except (OSError, ValueError):
                return  # parent went away; the process is exiting

    threading.Thread(target=heartbeat_loop, daemon=True).start()
    # Per-worker memory governor: RSS is per-process, so every worker
    # walks its own degradation ladder over its own caches and pool.
    capture_state = {"snapshots": pool.snapshots}
    governor = None
    if pool.memory_budget_mb is not None:
        from .governor import build_exploration_governor

        governor = build_exploration_governor(
            pool.memory_budget_mb, executor, solver, capture_state
        )
    memhog_leaks: list = []
    cross_worker_items = 0
    runs = 0
    # A worker runs from the entry point for its first item and
    # afterwards only for its few steals, so whether it reached
    # ENTRY_HOT_RUNS (and compiled the entry block) would depend on
    # steal timing.  Counting the fork as one entry run compiles that
    # block on every worker's first run.
    note_entry = getattr(executor, "note_entry_run", None)
    if note_entry is not None:
        note_entry()
    note_hot = getattr(executor, "note_hot_pcs", None)
    if note_hot is not None and not getattr(executor, "superblocks_enabled", False):
        note_hot = None
    hot_counts: dict = {}
    hot_sent: set = set()
    frontier = Frontier(pool.strategy_name, pool.seed)
    covered: set = set()
    dropped: set = set()
    next_id = 0
    children: list = []  # the last run's, pushed after the control drain
    reply = None  # the last run's, sent once the next item is chosen

    def take(method):
        """The next item ``method`` yields that was not dropped."""
        while frontier:
            item = method()
            if item.id not in dropped:
                return item
            dropped.discard(item.id)
        return None

    def handle(message) -> bool:
        """Apply one control message; False means shut down."""
        nonlocal cross_worker_items
        if message is None:
            return False
        if message[0] == "task":
            _, item_id, assignment, bound, snapshot_ref, novelty = message
            own = snapshot_ref is not None and snapshot_ref[0] == worker_uid
            if snapshot_ref is not None and not own:
                cross_worker_items += 1
            frontier.push(
                WorkItem(
                    deserialize_assignment(assignment),
                    bound,
                    novelty=novelty,
                    snapshot=snapshot_ref[1] if own else None,
                    divergence=bound - 1 if bound else None,
                    id=item_id,
                )
            )
        elif message[0] == "steal":
            item = take(frontier.steal)
            send((_STOLEN, item.id if item is not None else None))
        else:
            dropped.update(message[1])
        return True

    try:
        while True:
            while control.poll():
                if not handle(control.recv()):
                    return
            for child in children:
                frontier.push(child)
            item = take(frontier.pop)
            if reply is not None:
                send(reply + (item.id if item is not None else None,))
                reply = None
            if item is None:
                if not handle(control.recv()):
                    return
                continue
            if faults is not None and faults.should_kill(worker_uid, runs):
                os._exit(KILL_EXIT_CODE)
            if faults is not None and faults.should_hang(worker_uid, runs):
                # Simulate a fully wedged process (hung syscall, C-level
                # spin): heartbeats stop, the item is never answered,
                # and only the supervisor's watchdog can recover the seat.
                hb_stop.set()
                while True:
                    time.sleep(60)
            children = []
            try:
                if faults is not None:
                    ballast = faults.memhog_bytes(worker_uid, runs)
                    if ballast:
                        memhog_leaks.append(bytearray(ballast))
                capturing = capture_state["snapshots"]
                if faults is not None and purge is not None and capturing:
                    if faults.should_evict(worker_uid, runs):
                        purge()
                if capturing:
                    run = executor.execute_from(
                        item.snapshot, item.assignment, capture_from=item.bound
                    )
                else:
                    run = executor.execute(item.assignment)
                if governor is not None:
                    governor.maybe_step()
                stats = RunStats()
                children = expand_run(
                    run,
                    item.bound,
                    solver,
                    executor.input_variables(),
                    stats,
                    trie,
                    compute_digests=True,
                    snapshots=run.snapshots if pool.snapshots else None,
                )
                novelty = len(stats.covered_pcs - covered)
                covered |= stats.covered_pcs
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
                stats.pc_hits = {}  # hotness stays local; do not ship it
                for child in children:
                    child.id, child.novelty = next_id, novelty
                    next_id += 1
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
                snapshot_stats = getattr(executor, "snapshot_statistics", None)
                if snapshot_stats is not None and pool.snapshots:
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
                counters = (
                    solver.pipeline_statistics,
                    snapshot_stats,
                    superblock_stats,
                    governor.statistics if governor is not None else {},
                )
                if faults is not None:
                    delay = faults.hiccup_delay(worker_uid, runs)
                    if delay:
                        time.sleep(delay)
                child_payloads = [
                    (c.id, serialize_assignment(c.assignment), c.bound, c.digest, c.snapshot)
                    for c in children
                ]
                reply = (item.id, path_payload, child_payloads, stats, counters, novelty)
            except Exception:
                children = []
                send((item.id, None, traceback.format_exc(), None, None, None, None))
            runs += 1
    except (EOFError, OSError):
        return  # the parent closed the pipes; nothing left to answer
    finally:
        hb_stop.set()


class _WorkerSlot:
    """Parent-side bookkeeping for one worker seat.

    A *seat* survives its process: when the incarnation dies, the seat
    is revived with a fresh uid, fresh control and reply pipes, an empty
    mirror and the respawn count for backoff.
    """

    __slots__ = (
        "uid",
        "process",
        "control",
        "reply",
        "respawns",
        "last_beat",
        "mirror",
        "running",
        "steals",
    )

    def __init__(self, uid, process, control, reply):
        self.uid = uid
        self.process = process
        #: Parent's send end of the incarnation's control pipe.
        self.control = control
        #: Parent's receive end of the incarnation's private reply pipe.
        self.reply = reply
        self.respawns = 0
        #: Monotonic time of the incarnation's last message (heartbeat
        #: or reply); seeded at spawn so a fresh seat gets a full
        #: hang-timeout window before the watchdog may judge it.
        self.last_beat = time.monotonic()
        #: Item id -> ``(assignment, bound, digest, snapshot_ref,
        #: novelty, failures)`` for every item the seat holds, the
        #: running one included, in the reply's payload form.
        self.mirror: dict = {}
        #: Id of the item the worker is running (None = idle).
        self.running: Optional[int] = None
        #: Steal requests sent to this seat and not answered yet.
        self.steals = 0

    def post(self, message) -> None:
        """Send a control message; a dead seat is left to the death path."""
        try:
            self.control.send(message)
        except OSError:
            pass

    def drain(self, messages: list, now: float) -> bool:
        """Receive everything pending on the reply pipe.

        Appends ``(self, message)`` for every non-heartbeat message and
        returns whether anything arrived.  EOF or a torn message ends
        the drain; the death check decides what it means.
        """
        delivered = False
        try:
            while self.reply.poll():
                message = self.reply.recv()
                delivered = True
                self.last_beat = now
                if message[0] != _HEARTBEAT:
                    messages.append((self, message))
        except (EOFError, OSError):
            pass
        return delivered


def _item_of(entry) -> WorkItem:
    """A mirror entry as a :class:`WorkItem` (to requeue or checkpoint)."""
    assignment, bound, digest, snapshot, novelty, failures = entry
    return WorkItem(
        deserialize_assignment(assignment),
        bound,
        novelty=novelty,
        digest=digest,
        snapshot=snapshot,
        divergence=bound - 1 if bound else None,
        failures=failures,
    )


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
        # independently): children stay on the worker that captured
        # their snapshot and resume there, and only stolen or requeued
        # items re-execute, keeping the discovered path set and query
        # attribution identical to serial mode.
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
        """Start one incarnation on fresh control/reply pipes."""
        control_recv, control_send = context.Pipe(duplex=False)
        reply_recv, reply_send = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker_main,
            args=(self, uid, control_recv, reply_send),
            daemon=True,
        )
        process.start()
        # The child inherited its ends; dropping the parent's copies
        # makes the reply pipe EOF as soon as the incarnation dies, and
        # a control send to a dead seat fail instead of filling a pipe
        # nobody reads.
        control_recv.close()
        reply_send.close()
        return _WorkerSlot(uid, process, control_send, reply_recv)

    def _await_replies(self, slots, result, deadline_at):
        """Block until messages arrive or a worker death is detected.

        Returns ``(messages, dead_slots)`` with ``messages`` a list of
        ``(slot, message)`` pairs in per-seat pipe order.  A hard-killed
        worker (OOM killer, segfault) posts nothing, so liveness is
        checked here too: a dead seat's pipe is drained to its end after
        its exit code is posted, so every complete message it sent is
        processed before its mirror is requeued, and a torn trailing
        message is discarded (that run is repeated).

        **Watchdog.**  Every drained message (heartbeat or reply)
        refreshes the seat's ``last_beat``; a *live* seat silent for
        longer than ``hang_timeout`` is declared hung: the supervisor
        kills it (SIGKILL — a wedged process may ignore SIGTERM),
        counts it in ``hung_workers``, and lets the ordinary death path
        requeue its items and respawn the seat.  The global deadline is
        also enforced here, since heartbeats keep this loop turning
        even when no worker ever finishes a run.
        """
        while True:
            if deadline_at is not None and time.monotonic() >= deadline_at:
                raise _DeadlineExpired
            ready = mp_connection.wait(
                [slot.reply for slot in slots], timeout=0.2
            )
            now = time.monotonic()
            messages: list = []
            delivered = False
            for slot in slots:
                if slot.reply in ready:
                    delivered |= slot.drain(messages, now)
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
            for slot in dead:
                # Whatever it wrote after the first drain: its pipe is
                # final now that the exit code is posted.
                slot.drain(messages, now)
            if messages or dead:
                return messages, dead
            if ready and not delivered:
                # A pipe signalled EOF but the exit code is not posted
                # yet: yield briefly instead of spinning on wait().  A
                # round that drained only heartbeats goes straight back
                # to wait(), so the other seats' replies are not delayed.
                time.sleep(0.005)

    def _revive(self, slot, frontier, result, context) -> None:
        """Recover one dead seat: requeue its mirror, respawn.

        The item the worker was running goes back to the global
        frontier with ``failures`` bumped, or — after
        :data:`MAX_ITEM_FAILURES` deaths while running it — is recorded
        as an ``incomplete`` path.  The rest of the mirror is requeued
        unchanged.  Requeued items keep their snapshot references, which
        name the dead uid and so never match again: they re-execute from
        the entry point, the same sound fallback as a pool eviction.
        """
        slot.process.join()
        slot.reply.close()
        slot.control.close()
        for item_id, entry in slot.mirror.items():
            item = _item_of(entry)
            if item_id == slot.running:
                result.worker_deaths += 1
                item.failures += 1
                if item.failures >= MAX_ITEM_FAILURES:
                    result.incomplete_paths += 1
                    continue
            frontier.push(item)
        slot.mirror = {}
        slot.running = None
        slot.steals = 0
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
        slot.control = fresh.control
        slot.reply = fresh.reply
        slot.last_beat = fresh.last_beat

    def _shutdown(self, slots) -> None:
        """Stop every worker, draining replies so none blocks on a send.

        A worker streams replies without waiting, so at a cut it may be
        blocked writing into a full reply pipe and never read its
        shutdown sentinel.  The parent discards replies while it waits;
        past the grace period it escalates to SIGTERM, then SIGKILL, so
        shutdown can never hang on a wedged worker.
        """
        for slot in slots:
            slot.post(None)
        grace_until = time.monotonic() + 5
        live = list(slots)
        while live and time.monotonic() < grace_until:
            ready = mp_connection.wait([slot.reply for slot in live], timeout=0.1)
            for slot in live:
                if slot.reply in ready and not slot.drain([], time.monotonic()):
                    slot.process.join(timeout=1)  # at EOF: reap it
            live = [slot for slot in live if slot.process.exitcode is None]
        for slot in live:  # pragma: no cover - defensive
            slot.process.terminate()
            slot.process.join(timeout=2)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=5)
        for slot in slots:
            slot.reply.close()
            slot.control.close()

    # ------------------------------------------------------------------
    # The broker loop
    # ------------------------------------------------------------------

    def _dispatch(self, slots, frontier) -> None:
        """Give every seat with an empty mirror some work.

        Global items go first.  Otherwise a steal request goes to the
        seat with the most mirrored items not already promised to a
        thief, and only if it has at least two, because one of them is
        running.  Its answer lands on the global frontier.
        """
        idle = [slot for slot in slots if not slot.mirror]
        while idle and frontier:
            item = frontier.pop()
            assignment = serialize_assignment(item.assignment)
            slot = idle.pop()
            self._next_task -= 1
            slot.running = self._next_task
            slot.mirror[slot.running] = (assignment, item.bound, item.digest,
                                         item.snapshot, item.novelty, item.failures)
            slot.post(("task", slot.running, assignment, item.bound,
                       item.snapshot, item.novelty))
        for _ in range(len(idle) - sum(slot.steals for slot in slots)):
            victim = max(slots, key=lambda slot: len(slot.mirror) - slot.steals)
            if len(victim.mirror) - victim.steals < 2:
                break
            victim.steals += 1
            victim.post(("steal",))

    def _absorb(self, slot, reply, result, seen_digests, worker_stats) -> bool:
        """Fold one run reply into the result; False if it was discarded.

        A reply for an item the mirror no longer holds belongs to a
        dropped duplicate the worker ran before the drop reached it: the
        run and its children are discarded, and the children dropped in
        turn.
        """
        item_id, path_payload, children, stats, counters, novelty, running = reply
        if path_payload is None:
            raise RuntimeError(f"exploration worker failed:\n{children}")
        slot.running = running
        worker_stats[slot.uid] = counters
        if slot.mirror.pop(item_id, None) is None:
            if children:
                slot.post(("drop", [child[0] for child in children]))
            return False
        self._record_path(result, path_payload)
        result.merge_run_stats(stats)
        # Flip dedup: worker tries are per-process, so a flip query some
        # other worker already expanded is caught here, before any path
        # is recorded twice.  Digests are restart-stable, so a resumed
        # campaign's persisted set also suppresses pre-crash children.
        duplicates = []
        mirror = slot.mirror
        for child_id, assignment, bound, digest, snapshot in children:
            if digest in seen_digests:
                result.pruned_queries += 1
                duplicates.append(child_id)
                continue
            seen_digests.add(digest)
            snapshot_ref = (slot.uid, snapshot) if snapshot is not None else None
            mirror[child_id] = (assignment, bound, digest, snapshot_ref, novelty, 0)
        if duplicates:
            slot.post(("drop", duplicates))
        return True

    def _explore_pool(self) -> ExplorationResult:
        result = ExplorationResult(workers=self.jobs)
        start = time.perf_counter()
        # The global frontier: the root, requeued and restored items,
        # and stolen items on their way to an idle seat.
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
        # Latest cumulative (solver, snapshot, superblock, governor)
        # counter dicts per worker incarnation uid (see _worker_main);
        # summed into the result after the pool drains.  Keyed by uid,
        # so a respawned seat never overwrites its dead predecessor's
        # final totals.
        worker_stats: dict[int, tuple] = {}
        peak = 0
        # Forked only now, so a journal that fails to load leaks no worker.
        context = multiprocessing.get_context("fork")
        self._next_uid = self.jobs - 1
        self._next_task = 0  # broker-assigned task ids count down from -1
        slots = [self._spawn(context, uid) for uid in range(self.jobs)]

        def pending():
            """Every unfinished item: global frontier plus all mirrors."""
            yield from frontier.items()
            for slot in slots:
                for entry in slot.mirror.values():
                    yield _item_of(entry)

        try:
            while not resumed_complete and result.num_paths < self.max_paths:
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    raise _DeadlineExpired
                self._dispatch(slots, frontier)
                if not frontier and not any(slot.mirror for slot in slots):
                    break
                messages, dead = self._await_replies(slots, result, deadline_at)
                for slot, message in messages:
                    if message[0] == _STOLEN:
                        slot.steals -= 1
                        entry = slot.mirror.pop(message[1], None)
                        if entry is not None:
                            frontier.push(_item_of(entry))
                        continue
                    if not self._absorb(
                        slot, message, result, seen_digests, worker_stats
                    ):
                        continue
                    peak = max(
                        peak,
                        len(frontier) + sum(len(slot.mirror) for slot in slots),
                    )
                    if manager is not None:
                        manager.maybe_save(
                            result,
                            pending(),
                            seen_digests,
                            solver_stats=_summed(
                                result.solver_stats,
                                (stats[0] for stats in worker_stats.values()),
                            ),
                        )
                    if faults is not None and faults.interrupt_after is not None:
                        if result.num_paths >= faults.interrupt_after:
                            raise KeyboardInterrupt
                    if result.num_paths >= self.max_paths:
                        break
                else:  # no --max-paths stop: recover the dead seats
                    for slot in dead:
                        self._revive(slot, frontier, result, context)
        except KeyboardInterrupt:
            result.interrupted = True
        except _DeadlineExpired:
            result.interrupted = True
            result.deadline_expired = True
        finally:
            self._shutdown(slots)
        unfinished = len(frontier) + sum(len(slot.mirror) for slot in slots)
        result.truncated = unfinished > 0
        result.frontier_peak = max(peak, frontier.peak, result.frontier_peak)
        for solver_stats, snapshot_stats, superblock_stats, governor_stats in (
            worker_stats.values()
        ):
            result.merge_solver_stats(solver_stats)
            result.merge_snapshot_stats(snapshot_stats)
            result.merge_superblock_stats(superblock_stats)
            result.merge_governor_stats(governor_stats)
        if manager is not None and not resumed_complete:
            manager.save(
                result,
                list(pending()),
                seen_digests,
                complete=not unfinished and not result.interrupted,
                solver_stats=result.solver_stats,
                snapshot_stats=result.snapshot_stats,
                superblock_stats=result.superblock_stats,
                governor_stats=result.governor_stats,
            )
        if result.deadline_expired:
            # Anytime accounting: the global frontier plus every mirror
            # are the explicitly counted unexplored paths.  Added only
            # AFTER the final checkpoint save — ``--resume`` restores
            # those items and re-explores them, so persisting the count
            # too would double-book them.
            result.incomplete_paths += unfinished
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


def _summed(base: dict, live_dicts) -> dict:
    """Key-wise ``base + sum(live_dicts)`` without mutating either."""
    total = dict(base)
    for live in live_dicts:
        for key, value in live.items():
            total[key] = total.get(key, 0) + value
    return total
