"""Multi-process path exploration: worker-local frontiers and a broker.

The offline executor restarts the SUT once per path, and the runs are
independent given their input assignments, so exploration parallelizes
apart from the frontier.  This module splits the frontier over a pool of
forked workers (see :func:`_worker_main`).  Each worker owns a
:class:`~repro.core.scheduler.Frontier` with the campaign's strategy and
seed, plus its own solver: it pops its next item itself, runs and
expands it, pushes the children, and sends its finished runs home in
*batches* without waiting for an answer.  Non-DFS strategies thus order
each worker's own frontier, and coverage novelty is scored against the
worker's own covered set; path sets do not depend on the order, but
``--max-paths`` truncation and coverage order do.

**Batches.**  A worker keeps the replies of its finished runs and sends
them as one message: before it runs an item the broker has not been
told about (a child of an unsent run), when it runs dry, before it
answers a steal, when the broker asks for the children it holds back,
and otherwise once its oldest unsent run is older than
:data:`MAX_BATCH_AGE`, so a run longer than that still goes out alone.
Each reply carries the counters its run moved since the worker's
previous reply, and the broker absorbs a batch one reply at a time,
merging a reply's counters only when it records the run, so the
journal, a cut result, ``--max-paths`` and the final totals are exactly
those of the runs recorded so far.

The parent is a broker.  It records paths, sums counters and keeps a
per-seat *mirror* of every worker's frontier, built from the child lists
the replies carry.  It moves work only when a seat runs dry: a global
item (the root, a requeued or a restored one) if there is one, otherwise
one stolen from the seat with the most mirrored items — the item that
seat's strategy would run last (:meth:`Frontier.steal`: under DFS the
oldest, and so the largest subtree).  When no seat has an item to
spare, it asks the busy seats to send the children they hold back.
Flip dedup is the campaign's, as in an in-process run: the broker
checks every child's restart-stable flip digest when the reply arrives
and sends a *drop* for a duplicate; if the worker already ran it, that
run's reply and children are discarded.  Only a run that diverged from
the path its model predicted can re-derive another run's flip query,
and the worker solves that query before the broker sees the repeat.

**Supervision.**  A worker that dies (OOM kill, segfault, injected
fault) does not abort the campaign.  The parent processes every reply
the dead incarnation sent, then requeues what is left of its mirror on
the global frontier.  The item it was running is named by a per-seat
shared integer the worker sets before each run and clears after it;
since a worker never starts an item the broker has not heard of, that
item is in the mirror.  It gets ``failures += 1`` and is abandoned as an
``incomplete_paths`` count after :data:`MAX_ITEM_FAILURES` deaths, never
silently lost.  The seat respawns under a fresh incarnation uid with a
small backoff, so a stale ``(uid, handle)`` snapshot reference never
aliases the new worker's pool; the counters of the runs it recorded
stay in the result.  Checkpoint saves and deadline drains read the
global frontier plus every mirror.

Workers are forked so they inherit the executor (ISA, image,
interpreter) without pickling: interned terms cannot round-trip through
pickle.  Input assignments cross the process boundary by variable
*name* (see :mod:`repro.core.scheduler`).

:meth:`repro.core.explorer.Explorer.explore` imports this module only
when a pool runs, and its campaign shell (journal, deadline, flip dedup,
path recording, final counter merge, certify) is the same one that
wraps the in-process run: the :class:`Broker` is one of its two drivers,
and each worker runs the same :class:`~repro.core.explorer.Worker`.
"""

from __future__ import annotations

import hashlib
import mmap
import multiprocessing
import os
import select
import threading
import time
import traceback
from multiprocessing import connection as mp_connection

from .checkpoint import GAUGES
from .explorer import ExploreConfig, Worker, make_solver
from .faults import KILL_EXIT_CODE
from .scheduler import WorkItem, deserialize_assignment, serialize_assignment

__all__ = [
    "Broker",
    "MAX_ITEM_FAILURES",
    "MAX_BATCH_AGE",
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
#: on a loaded machine never trips it); ``hang_timeout`` overrides it.
DEFAULT_HANG_TIMEOUT = ExploreConfig.hang_timeout

#: Seconds after the start of a worker's oldest unsent run at which its
#: batch goes out, so the broker's records lag a busy worker by about
#: this at most.  A median insertion-sort-7 run takes 0.1 ms; at 5 ms
#: most batches end at a run that left children instead.
MAX_BATCH_AGE = 0.005

#: First element of a liveness message on the reply pipe.  A batch of
#: run replies is a list, every other message a tuple led by its tag.
_HEARTBEAT = "__heartbeat__"
#: First element of a steal answer: ``(_STOLEN, item_id or None)``.
_STOLEN = "__stolen__"
#: The shared running slot's value while the worker runs nothing; item
#: ids count down from -1 (broker tasks) and up from 0 (worker children).
_IDLE = -(2**63)


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


def _worker_main(broker, worker_uid, control, reply_conn, running):
    """Worker loop: run items from a local frontier, send the results home.

    ``broker`` is the fork-inherited :class:`Broker`; its executor and
    config build this process's :class:`~repro.core.explorer.Worker`
    (frontier, solver, governor, hot PCs), the same run step an
    in-process exploration uses.  Between runs the loop drains the
    ``control`` pipe without blocking, through one ``select.poll``
    object made at start (it blocks only with an empty frontier):

    * ``("task", id, assignment, bound, snapshot_ref, novelty)`` pushes
      an item;
    * ``("steal",)`` sends the batch, then gives up the item
      :meth:`Frontier.steal` picks and answers ``(_STOLEN, id)``, or
      ``(_STOLEN, None)`` with none left;
    * ``("flush",)`` asks for the children the batch holds back: the
      batch goes out before the next run if some run in it left
      children, otherwise after the next run that leaves some;
    * ``("drop", ids)`` discards those items unless they already ran;
    * ``None`` shuts the worker down.

    The drain comes before the last run's children are pushed, so a
    steal only ever gives up an item the parent has been told about.

    Each run appends one reply ``(id, path, children, covered,
    counters)`` to the *batch*: ``path`` is the run step's path tuple
    with a serialized assignment, ``children`` lists ``(child_id,
    assignment, bound, digest, snapshot_handle, novelty)``, ``covered``
    is the run's set of flippable branch PCs, and ``counters`` is
    :meth:`Worker.handover`: the keys of the worker's counter record,
    ``snap_cross_worker_items`` included when snapshots run, that moved
    since the previous reply, every key in the incarnation's first.  A
    failed run appends ``(id, None, traceback_text, None, None)``.  The
    batch, a list of replies in run order, goes home as one message:

    * before the worker starts a child of a run in it (child ids at or
      above ``next_id`` as of the last send);
    * when the worker runs dry, before it answers a steal, on a flush
      request as above, and after a failed run;
    * otherwise before the next run once the oldest run in it started
      :data:`MAX_BATCH_AGE` seconds ago, so a longer run goes alone.

    Messages travel on this incarnation's *private* pipe, so a crash
    can only truncate this worker's own stream; a shared queue's write
    lock could be left held by a dying writer and wedge every other
    worker.

    ``running`` is the seat's shared integer, a one-element view of an
    anonymous shared mapping: the worker sets ``running[0]`` to the
    item's id before each run and to ``_IDLE`` after it, and the
    supervisor reads it when the incarnation dies.  Every item a worker
    starts is a task or a child of a sent run, so the item it names is
    in the broker's mirror: a death is charged to exactly the item that
    was running, never to one the broker happened to hear of last.

    Snapshot handles are process-local: a task's ``(origin_uid, handle)``
    reference is honoured only by the incarnation that captured it, and
    any other item re-executes from the entry point, which discovers the
    identical path (counted in ``snap_cross_worker_items``).  The loop
    keeps the pool's holds with the run step's (see
    :class:`~repro.core.explorer.Worker`): an item ``take`` skips as
    dropped, and one that answers a steal, gives its snapshot hold back,
    and a task naming this incarnation's own handle takes one, so the
    pool keeps only snapshots that items in this frontier name.

    The config's faults drive deterministic chaos, keyed by the number
    of runs this incarnation started: *kill* exits before the run,
    *hang* stops the heartbeat and sleeps forever (a wedged process only
    the watchdog recovers), and *hiccup* stalls the reply; the run step
    handles *memhog*, *evict* and, through the solver, *unknown*.  A
    daemon thread beats every :data:`HEARTBEAT_INTERVAL` seconds on the
    reply pipe; the GIL schedules it even while the main thread grinds
    through a long run, and both threads send under one lock.
    """
    executor, config = broker.executor, broker.config
    faults = config.faults
    worker = Worker(executor, config, make_solver(config), worker_uid)
    frontier = worker.frontier
    if worker.snapshots:
        worker.counts["snap_cross_worker_items"] = 0
    send_lock = threading.Lock()
    hb_stop = threading.Event()
    control_ready = select.poll()
    control_ready.register(control, select.POLLIN)

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
    # A worker runs from the entry point for its first item and
    # afterwards only for its few steals, so whether it reached
    # ENTRY_HOT_RUNS (and compiled the entry block) would depend on
    # steal timing.  Counting the fork as one entry run compiles that
    # block on every worker's first run.
    note_entry = getattr(executor, "note_entry_run", None)
    if note_entry is not None:
        note_entry()
    dropped: set = set()
    next_id = 0
    children: list = []  # the last run's, pushed after the control drain
    batch: list = []  # replies of finished runs not sent yet
    batch_started = 0.0  # when the batch's oldest run started
    sent_ids = 0  # next_id at the last send; ids from it up are unsent
    flush_wanted = False

    def flush():
        """Send the batch; the broker then knows every child so far."""
        nonlocal sent_ids, flush_wanted
        if batch:
            send(batch)
            batch.clear()
        sent_ids = next_id
        flush_wanted = False

    def take(method):
        """The next item ``method`` yields that was not dropped; a
        dropped one gives its snapshot hold back."""
        while frontier:
            item = method()
            if item.id not in dropped:
                return item
            dropped.discard(item.id)
            worker.release(item)
        return None

    def handle(message) -> bool:
        """Apply one control message; False means shut down."""
        nonlocal flush_wanted
        if message is None:
            return False
        kind = message[0]
        if kind == "task":
            _, item_id, assignment, bound, snapshot_ref, novelty = message
            own = snapshot_ref is not None and snapshot_ref[0] == worker_uid
            if snapshot_ref is not None and not own:
                worker.counts["snap_cross_worker_items"] += 1
            item = WorkItem(
                deserialize_assignment(assignment),
                bound,
                novelty=novelty,
                snapshot=snapshot_ref[1] if own else None,
                id=item_id,
            )
            worker.hold(item)
            frontier.push(item)
        elif kind == "steal":
            flush()
            item = take(frontier.steal)
            if item is not None:
                worker.release(item)
            send((_STOLEN, item.id if item is not None else None))
        elif kind == "flush":
            flush_wanted = True
        else:
            dropped.update(message[1])
        return True

    try:
        while True:
            while control_ready.poll(0):
                if not handle(control.recv()):
                    return
            for child in children:
                frontier.push(child)
            item = take(frontier.pop)
            if item is None:
                flush()
                if not handle(control.recv()):
                    return
                continue
            if batch and (
                item.id >= sent_ids
                or (flush_wanted and next_id > sent_ids)
                or time.monotonic() - batch_started >= MAX_BATCH_AGE
            ):
                flush()
            if not batch:
                batch_started = time.monotonic()
            running[0] = item.id
            ordinal = worker.runs
            if faults is not None and faults.should_kill(worker_uid, ordinal):
                os._exit(KILL_EXIT_CODE)
            if faults is not None and faults.should_hang(worker_uid, ordinal):
                # Simulate a fully wedged process (hung syscall, C-level
                # spin): heartbeats stop, the item is never answered,
                # and only the supervisor's watchdog can recover the seat.
                hb_stop.set()
                while True:
                    time.sleep(60)
            children = []
            try:
                path, children, covered = worker.run(item)
                for child in children:
                    child.id = next_id
                    next_id += 1
                if faults is not None:
                    delay = faults.hiccup_delay(worker_uid, ordinal)
                    if delay:
                        time.sleep(delay)
                child_payloads = [
                    (c.id, serialize_assignment(c.assignment), c.bound, c.digest,
                     c.snapshot, c.novelty)
                    for c in children
                ]
                path = path[:4] + (serialize_assignment(path[4]),) + path[5:]
                batch.append((item.id, path, child_payloads, covered, worker.handover()))
            except Exception:
                children = []
                batch.append((item.id, None, traceback.format_exc(), None, None))
                flush()
            running[0] = _IDLE
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
        "ready",
        "running",
        "respawns",
        "last_beat",
        "mirror",
        "steals",
        "asked",
    )

    def __init__(self, uid, process, control, reply, running):
        self.uid = uid
        self.process = process
        #: Parent's send end of the incarnation's control pipe.
        self.control = control
        #: Parent's receive end of the incarnation's private reply pipe,
        #: and one poll object over it for the drain.
        self.reply = reply
        self.ready = select.poll()
        self.ready.register(reply, select.POLLIN)
        #: Shared integer: the id of the item the incarnation is running,
        #: or ``_IDLE``; read when it dies.
        self.running = running
        self.respawns = 0
        #: Monotonic time of the incarnation's last message (heartbeat
        #: or reply); seeded at spawn so a fresh seat gets a full
        #: hang-timeout window before the watchdog may judge it.
        self.last_beat = time.monotonic()
        #: Item id -> ``(assignment, bound, digest, snapshot_ref,
        #: novelty, failures, parent)`` for every item the seat holds,
        #: the running one and those whose runs are still in the batch
        #: included, in the reply's payload form.
        self.mirror: dict = {}
        #: Steal requests sent to this seat and not answered yet.
        self.steals = 0
        #: A flush request is out and no batch has arrived since.
        self.asked = False

    def post(self, message) -> None:
        """Send a control message; a dead seat is left to the death path."""
        try:
            self.control.send(message)
        except OSError:
            pass

    def drain(self, messages: list, now: float) -> bool:
        """Receive everything pending on the reply pipe.

        Appends ``(self, reply)`` for every run reply of every batch and
        ``(self, message)`` for every other non-heartbeat message, and
        returns whether anything arrived.  EOF or a torn message ends
        the drain; the death check decides what it means.
        """
        delivered = False
        try:
            while self.ready.poll(0):
                message = self.reply.recv()
                delivered = True
                self.last_beat = now
                if type(message) is list:
                    self.asked = False
                    messages.extend((self, reply) for reply in message)
                elif message[0] != _HEARTBEAT:
                    messages.append((self, message))
        except (EOFError, OSError):
            pass
        return delivered


class Broker:
    """The pool's parent: hands work to forked workers and supervises them.

    A driver of the explorer's campaign shell: :meth:`explore` runs the
    broker loop and merges the counters of every reply it records, and
    :meth:`pending` lists the global frontier plus every mirror.  Path
    *indices* reflect completion order, so cross-mode comparisons should
    use ``ExplorationResult.path_set()``.  The parent never executes the
    SUT, so its executor stays a pristine replay vehicle for certify.
    """

    def __init__(self, explorer, frontier):
        self.executor = explorer.executor
        self.config = explorer.config
        #: The global frontier: the root, requeued and restored items,
        #: and stolen items on their way to an idle seat.
        self.frontier = frontier
        self.slots: list = []
        self.peak = 0
        #: ``(name, width) -> variable`` for every input variable seen, so
        #: rebuilding each recorded path's or mirrored item's assignment
        #: does not re-intern its variables (see deserialize_assignment).
        self.variables: dict = {}
        self._next_uid = self.config.jobs - 1
        self._next_task = 0  # broker-assigned task ids count down from -1

    def _item_of(self, entry) -> WorkItem:
        """A mirror entry as a :class:`WorkItem` (to requeue or checkpoint)."""
        assignment, bound, digest, snapshot, novelty, failures, parent = entry
        return WorkItem(
            deserialize_assignment(assignment, self.variables),
            bound,
            novelty=novelty,
            digest=digest,
            snapshot=snapshot,
            failures=failures,
            parent=parent,
        )

    def pending(self):
        """Every unfinished item: global frontier plus all mirrors."""
        yield from self.frontier.items()
        for slot in self.slots:
            for entry in slot.mirror.values():
                yield self._item_of(entry)

    def handover(self) -> dict:
        """Nothing: every recorded reply's counters are merged already."""
        return {}

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, context, uid) -> _WorkerSlot:
        """Start one incarnation on fresh control/reply pipes."""
        control_recv, control_send = context.Pipe(duplex=False)
        reply_recv, reply_send = context.Pipe(duplex=False)
        running = memoryview(mmap.mmap(-1, 8)).cast("q")
        running[0] = _IDLE
        process = context.Process(
            target=_worker_main,
            args=(self, uid, control_recv, reply_send, running),
            daemon=True,
        )
        process.start()
        # The child inherited its ends; dropping the parent's copies
        # makes the reply pipe EOF as soon as the incarnation dies, and
        # a control send to a dead seat fail instead of filling a pipe
        # nobody reads.
        control_recv.close()
        reply_send.close()
        return _WorkerSlot(uid, process, control_send, reply_recv, running)

    def _await_replies(self, campaign):
        """Block until messages arrive or a worker death is detected.

        Returns ``(messages, dead_slots)`` with ``messages`` a list of
        ``(slot, message)`` pairs in per-seat pipe order, a batch
        unpacked into one pair per run reply.  A hard-killed
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
        slots = self.slots
        while True:
            campaign.check_deadline()
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
                if now - slot.last_beat > self.config.hang_timeout:
                    campaign.result.hung_workers += 1
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

    def _revive(self, slot, result, context) -> None:
        """Recover one dead seat: requeue its mirror, respawn.

        The item the worker was running, as its shared slot names it,
        goes back to the global frontier with ``failures`` bumped, or —
        after :data:`MAX_ITEM_FAILURES` deaths while running it — is
        recorded as an ``incomplete`` path.  The rest of the mirror is
        requeued unchanged, the items whose runs were lost in an unsent
        batch included.  Requeued items keep their snapshot references,
        which name the dead uid and so never match again: they re-execute
        from the entry point, the same sound fallback as a pool eviction.
        """
        slot.process.join()
        slot.reply.close()
        slot.control.close()
        running = slot.running[0]
        for item_id, entry in slot.mirror.items():
            item = self._item_of(entry)
            if item_id == running:
                result.worker_deaths += 1
                item.failures += 1
                if item.failures >= MAX_ITEM_FAILURES:
                    result.incomplete_paths += 1
                    continue
            self.frontier.push(item)
        slot.mirror = {}
        slot.steals = 0
        slot.asked = False
        # Seeded-jitter exponential backoff per seat: repeated respawns
        # slow down (capped), one-off crashes restart almost
        # immediately, and simultaneous seat deaths desynchronize.
        delay = _backoff_delay(self.config.seed, slot.uid, slot.respawns)
        if delay:
            time.sleep(delay)
        slot.respawns += 1
        self._next_uid += 1
        fresh = self._spawn(context, self._next_uid)
        slot.uid = fresh.uid
        slot.process = fresh.process
        slot.control = fresh.control
        slot.reply = fresh.reply
        slot.ready = fresh.ready
        slot.running = fresh.running
        slot.last_beat = fresh.last_beat

    def _shutdown(self) -> None:
        """Stop every worker, draining replies so none blocks on a send.

        A worker streams replies without waiting, so at a cut it may be
        blocked writing into a full reply pipe and never read its
        shutdown sentinel.  The parent discards replies while it waits;
        past the grace period it escalates to SIGTERM, then SIGKILL, so
        shutdown can never hang on a wedged worker.
        """
        slots = self.slots
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

    def _dispatch(self) -> None:
        """Give every seat with an empty mirror some work.

        Global items go first.  Otherwise a steal request goes to the
        seat with the most mirrored items not already promised to a
        thief, and only if it has at least two, because one of them is
        running.  Its answer lands on the global frontier.  If no seat
        has two, every busy seat not yet asked gets a flush request, so
        the children its batch holds back reach the mirror.
        """
        slots, frontier = self.slots, self.frontier
        idle = [slot for slot in slots if not slot.mirror]
        while idle and frontier:
            item = frontier.pop()
            assignment = serialize_assignment(item.assignment)
            slot = idle.pop()
            self._next_task -= 1
            slot.mirror[self._next_task] = (assignment, item.bound, item.digest,
                                            item.snapshot, item.novelty,
                                            item.failures, item.parent)
            slot.post(("task", self._next_task, assignment, item.bound,
                       item.snapshot, item.novelty))
        for _ in range(len(idle) - sum(slot.steals for slot in slots)):
            victim = max(slots, key=lambda slot: len(slot.mirror) - slot.steals)
            if len(victim.mirror) - victim.steals < 2:
                for slot in slots:
                    if slot.mirror and not slot.asked:
                        slot.asked = True
                        slot.post(("flush",))
                break
            victim.steals += 1
            victim.post(("steal",))

    def _absorb(self, slot, reply, campaign) -> bool:
        """Fold one run reply into the campaign; False if it was discarded.

        A reply for an item the mirror no longer holds belongs to a
        dropped duplicate the worker ran before the drop reached it: the
        run and its children are discarded, and the children dropped in
        turn.  Of its counters only the :data:`GAUGES` are merged, since
        they are sizes, not the discarded run's work.  Children whose
        flip query the campaign already queued are dropped the same way.
        """
        item_id, path, children, covered, counters = reply
        if path is None:
            raise RuntimeError(f"exploration worker failed:\n{children}")
        entry = slot.mirror.pop(item_id, None)
        if entry is None:
            campaign.result.merge_counters({k: counters[k] for k in GAUGES & counters.keys()})
            if children:
                slot.post(("drop", [child[0] for child in children]))
            return False
        campaign.result.merge_counters(counters)
        index = campaign.record(
            path[:4]
            + (deserialize_assignment(path[4], self.variables),)
            + path[5:],
            covered,
            parent=entry[6],
            bound=entry[1],
        )
        duplicates = []
        for child_id, assignment, bound, digest, snapshot, novelty in children:
            if not campaign.fresh(digest):
                duplicates.append(child_id)
                continue
            snapshot_ref = (slot.uid, snapshot) if snapshot is not None else None
            slot.mirror[child_id] = (
                assignment, bound, digest, snapshot_ref, novelty, 0, index
            )
        if duplicates:
            slot.post(("drop", duplicates))
        return True

    def explore(self, campaign) -> None:
        """The broker loop: dispatch, absorb replies, revive dead seats."""
        frontier, result = self.frontier, campaign.result
        max_paths = self.config.max_paths
        context = multiprocessing.get_context("fork")
        self.slots = [self._spawn(context, uid) for uid in range(self.config.jobs)]
        try:
            while result.num_paths < max_paths:
                campaign.check_deadline()
                self._dispatch()
                if not frontier and not any(slot.mirror for slot in self.slots):
                    break
                messages, dead = self._await_replies(campaign)
                for slot, message in messages:
                    if message[0] == _STOLEN:
                        slot.steals -= 1
                        entry = slot.mirror.pop(message[1], None)
                        if entry is not None:
                            frontier.push(self._item_of(entry))
                        continue
                    if not self._absorb(slot, message, campaign):
                        continue
                    self.peak = max(
                        self.peak,
                        len(frontier) + sum(len(s.mirror) for s in self.slots),
                    )
                    campaign.after_run(self)
                    if result.num_paths >= max_paths:
                        break
                else:  # no --max-paths stop: recover the dead seats
                    for slot in dead:
                        self._revive(slot, result, context)
        finally:
            self._shutdown()
            self.peak = max(self.peak, frontier.peak)
