"""Tests for multi-process exploration (core.parallel).

The load-bearing property: the flip-expansion rules fix the set of
feasible paths and the flip queries that find them, so parallel
exploration must discover exactly the serial path set, with the same
total query attribution.  They do not fix the models: each worker's
solver picks its own satisfying assignments, so a pooled run's per-path
inputs and parent links differ from a serial run's (35-41 of
bubble-sort's 120 links at ``jobs=2``), and so does completion order.
"""

import multiprocessing
import threading
import time

import pytest

from repro.asm import assemble
from repro.core import BinSymExecutor, Explorer, InputAssignment
from repro.core.parallel import MAX_ITEM_FAILURES
from repro.eval.engines import make_engine
from repro.eval.query_stats import RecordingSolver
from repro.eval.workloads import WORKLOADS
from repro.smt import terms as T
from repro.spec import rv32im

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")

# The quickstart example's PIN check: 5 paths, one per matched prefix.
PIN_CHECK = """\
_start:
    li a0, 0x30000
    li a1, 4
    li a7, 1337
    ecall
    li s0, 0x30000
    la s1, secret
    li t0, 0
check:
    li t1, 4
    beq t0, t1, unlocked
    add t2, s0, t0
    lbu t3, 0(t2)
    add t2, s1, t0
    lbu t4, 0(t2)
    bne t3, t4, locked
    addi t0, t0, 1
    j check
unlocked:
    li a0, 1
    li a7, 93
    ecall
locked:
    li a0, 0
    li a7, 93
    ecall
.data
secret:
    .byte 0x13, 0x37, 0x42, 0x99
"""

FAILING = """\
_start:
    li a0, 0x30000
    li a1, 1
    li a7, 1337
    ecall
    li t0, 0x30000
    lbu t1, 0(t0)
    li t2, 7
    beq t1, t2, lucky
    li a0, 0
    li a7, 93
    ecall
lucky:
    ebreak
"""

#: A load through a symbolic index: the engine pins the address with a
#: non-flippable record before the two branches.
PINNED_LOOKUP = """\
_start:
    li a0, 0x30000
    li a1, 2
    li a7, 1337
    ecall
    li t0, 0x30000
    lbu t1, 0(t0)
    andi t1, t1, 3
    la t2, table
    add t2, t2, t1
    lbu t3, 0(t2)
    lbu t4, 1(t0)
    bltu t3, t4, big
    li a0, 0
    li a7, 93
    ecall
big:
    li t5, 200
    bltu t4, t5, mid
    li a0, 2
    li a7, 93
    ecall
mid:
    li a0, 1
    li a7, 93
    ecall
.data
table:
    .byte 10, 20, 30, 40
"""


def build_executor(source):
    return BinSymExecutor(rv32im(), assemble(source))


@needs_fork
class TestParallelMatchesSerial:
    def compare(self, executor_factory, jobs=2, **kwargs):
        serial = Explorer(executor_factory(), **kwargs).explore()
        parallel = Explorer(executor_factory(), jobs=jobs, **kwargs).explore()
        assert parallel.workers == jobs
        assert parallel.num_paths == serial.num_paths
        assert parallel.path_set() == serial.path_set()
        return serial, parallel

    def test_quickstart_pin_check(self):
        serial, parallel = self.compare(lambda: build_executor(PIN_CHECK))
        assert serial.num_paths == 5
        assert parallel.exit_codes == {0, 1}

    def test_base64_workload(self):
        image = WORKLOADS["base64-encode"].image(1)
        expected = WORKLOADS["base64-encode"].expected_paths(1)
        serial, parallel = self.compare(
            lambda: BinSymExecutor(rv32im(), image)
        )
        assert parallel.num_paths == expected

    def test_assertion_failures_found(self):
        _, parallel = self.compare(lambda: build_executor(FAILING))
        assert len(parallel.assertion_failures) == 1

    @pytest.mark.parametrize("strategy", ["dfs", "bfs", "random", "coverage"])
    def test_all_strategies(self, strategy):
        self.compare(lambda: build_executor(PIN_CHECK), strategy=strategy, seed=3)

    def test_baseline_engine_gets_parallelism(self):
        image = WORKLOADS["bubble-sort"].image(3)
        isa = rv32im()
        self.compare(lambda: make_engine("binsec", isa, image))


@needs_fork
class TestParallelStats:
    def test_worker_stats_aggregate_exactly(self):
        serial = Explorer(build_executor(PIN_CHECK), use_cache=False).explore()
        parallel = Explorer(
            build_executor(PIN_CHECK), jobs=2, use_cache=False
        ).explore()
        # Same exploration tree => same total work, regardless of which
        # worker performed it.
        assert parallel.num_queries == serial.num_queries
        assert parallel.sat_checks == serial.sat_checks
        assert parallel.unsat_checks == serial.unsat_checks
        assert parallel.total_instructions == serial.total_instructions
        assert parallel.solver_time > 0.0
        assert parallel.wall_time > 0.0

    def test_max_paths_truncates(self):
        result = Explorer(build_executor(PIN_CHECK), jobs=2, max_paths=2).explore()
        assert result.num_paths <= 2
        assert result.truncated

    def test_summary_mentions_workers(self):
        result = Explorer(build_executor(FAILING), jobs=2).explore()
        assert "[2 workers]" in result.summary()


@needs_fork
class TestSnapshotAffinity:
    """Flip children resume on the worker that captured their snapshot:
    each worker pops its own frontier, and a seat that runs dry steals
    the oldest item of the busiest one, so steals (cross-worker
    re-executions) stay rare."""

    @pytest.mark.parametrize("name", ["bubble-sort", "insertion-sort"])
    def test_pool_keeps_children_on_their_owner(self, name):
        spec = WORKLOADS[name]
        image = spec.image(spec.fig6_scale)
        serial = Explorer(BinSymExecutor(rv32im(), image)).explore()
        pooled = Explorer(BinSymExecutor(rv32im(), image), jobs=2).explore()
        assert pooled.path_set() == serial.path_set()
        cross = pooled.snapshot_stats["snap_cross_worker_items"]
        assert cross * 10 <= pooled.num_paths, (name, cross)
        assert (
            pooled.executed_instructions * 100
            <= serial.executed_instructions * 125
        ), (name, pooled.executed_instructions, serial.executed_instructions)

    @pytest.mark.parametrize("engine", ["binsym-no-snapshots", "binsec"])
    def test_pool_without_snapshots_stays_depth_first(self, engine):
        """Without snapshots each worker still pops its own frontier
        LIFO; only a seat that runs dry takes the oldest item, so the
        pool never drifts into BFS order (a frontier several times
        larger)."""
        spec = WORKLOADS["bubble-sort"]
        image = spec.image(spec.fig6_scale)

        def explore(jobs):
            if engine == "binsec":
                executor = make_engine("binsec", rv32im(), image)
                return Explorer(executor, jobs=jobs).explore()
            executor = BinSymExecutor(rv32im(), image)
            return Explorer(executor, jobs=jobs, snapshots=False).explore()

        serial, pooled = explore(1), explore(2)
        assert pooled.path_set() == serial.path_set()
        assert pooled.frontier_peak <= 3 * serial.frontier_peak, (
            pooled.frontier_peak,
            serial.frontier_peak,
        )

    def test_superblock_counters_do_not_depend_on_steal_timing(self):
        """Every worker compiles the entry block on its first task, so
        the blocks a pool builds follow from the paths each worker runs,
        not from how many steals it happened to get."""
        spec = WORKLOADS["insertion-sort"]
        image = spec.image(spec.fig6_scale)
        built = {
            Explorer(BinSymExecutor(rv32im(), image), jobs=2)
            .explore()
            .superblock_stats["sb_blocks_built"]
            for _ in range(4)
        }
        assert len(built) == 1, built

    def test_pool_that_stops_capturing_stays_depth_first(self):
        """A zero memory budget walks each worker's governor to its last
        rung after a dozen runs, which turns snapshot capture off
        mid-exploration.  The children that follow carry no snapshot and
        must still be taken LIFO, not oldest-first."""
        spec = WORKLOADS["bubble-sort"]
        image = spec.image(spec.fig6_scale)
        serial = Explorer(BinSymExecutor(rv32im(), image)).explore()
        pooled = Explorer(
            BinSymExecutor(rv32im(), image), jobs=2, memory_budget_mb=0
        ).explore()
        assert pooled.path_set() == serial.path_set()
        assert pooled.governor_stats["gov_rung_snapshots_off"] >= 1
        assert pooled.frontier_peak <= 3 * serial.frontier_peak, (
            pooled.frontier_peak,
            serial.frontier_peak,
        )


# Symbolic bytes x, y, z: exit 2 when x >= 10, else 0 when y < 5, else
# 3 when z >= 3, else 1.  The root run (0, 0, 0) flips x and y.
THREE_BRANCHES = """\
_start:
    li a0, 0x30000
    li a1, 3
    li a7, 1337
    ecall
    li t0, 0x30000
    lbu t1, 0(t0)
    lbu t2, 1(t0)
    lbu t4, 2(t0)
    li t3, 10
    bgeu t1, t3, big_x
    li t3, 5
    bgeu t2, t3, big_y
    li a0, 0
    j done
big_y:
    li t3, 3
    bgeu t4, t3, big_z
    li a0, 1
    j done
big_z:
    li a0, 3
    j done
big_x:
    li a0, 2
done:
    li a7, 93
    ecall
"""


@needs_fork
class TestFlipDedup:
    """Flip dedup is the campaign's digest check in both drivers: a
    repeated flip query is solved where it arises and its child is
    dropped, so serial and pooled runs attribute the same queries."""

    @pytest.mark.parametrize(
        "engine", ["binsym", "binsec", "angr", "angr-buggy", "symex-vp"]
    )
    def test_fig6_trees_never_repeat_a_flip_query(self, engine):
        """A cross-worker duplicate needs two runs of the exploration
        tree that issue the same flip query.  Serial exploration solves
        every run's queries, and flip dedup counts each repeat as
        pruned.  None occurs, so no pool schedule can record a path
        twice on these workloads: a run re-derives another run's query
        only by diverging from the path its model predicted (the next
        test)."""
        for name, spec in WORKLOADS.items():
            image = spec.image(spec.fig6_scale)
            result = Explorer(make_engine(engine, rv32im(), image)).explore()
            assert result.num_paths > 0, name
            assert result.pruned_queries == 0, (engine, name)

    @staticmethod
    def _explore_diverging(jobs, slow_z=0.0):
        """THREE_BRANCHES on an executor that runs inputs with x >= 10 as
        if x were 0, sleeps 0.5 s on the y >= 5 paths and ``slow_z``
        seconds more on the z >= 3 one."""
        x = T.bv_var("in_00030000", 8)
        y = T.bv_var("in_00030001", 8)
        z = T.bv_var("in_00030002", 8)
        isa = rv32im()

        class DivergingExecutor(BinSymExecutor):
            def execute(self, assignment, capture_from=None, resume=None):
                values = dict(assignment.values)
                if values.get(x, 0) >= 10:
                    values[x] = 0
                if values.get(y, 0) >= 5:
                    time.sleep(0.5)
                    if values.get(z, 0) >= 3:
                        time.sleep(slow_z)
                return super().execute(InputAssignment(values))

        executor = DivergingExecutor(isa, assemble(THREE_BRANCHES, isa=isa))
        return Explorer(executor, jobs=jobs, snapshots=False).explore()

    @staticmethod
    def _attributed(result):
        return (
            result.num_queries
            + result.cache_hits
            + result.fast_path_answers
            + result.pruned_queries
        )

    def test_diverged_duplicate_on_another_worker_is_dropped(self):
        """Inputs with x >= 10 run as if x were 0, so the root's x-flip
        child re-runs the root's path and re-derives the root's y-flip
        query.  The y >= 5 paths are slow, so the root's worker is still
        running them when the idle seat steals the x-flip child: the
        duplicate query is solved on the thief, and the broker must drop
        its child before a y >= 5 path is recorded a second time.  A
        serial run solves the duplicate too and drops its child the
        same way, so both attribute the same queries."""
        serial, pooled = self._explore_diverging(1), self._explore_diverging(2)
        # Exits 0, 1 and 3, plus the diverged x-flip child's exit 0.
        assert serial.num_paths == pooled.num_paths == 4
        assert pooled.path_set() == serial.path_set()
        assert serial.pruned_queries == pooled.pruned_queries == 1
        assert self._attributed(pooled) == self._attributed(serial)

    def test_discarded_duplicate_run_adds_no_counters(self):
        """With the z >= 3 path 1 s slower, the thief has run the dropped
        child before the drop reached it, and that discarded run's reply
        reaches the broker before the last recorded run's.  Its solver
        work is not the exploration's: the pooled counters must cover
        the recorded runs only, exactly like the serial run's."""
        serial = self._explore_diverging(1, slow_z=1.0)
        pooled = self._explore_diverging(2, slow_z=1.0)
        assert serial.num_paths == pooled.num_paths == 4
        assert pooled.path_set() == serial.path_set()
        assert self._attributed(pooled) == self._attributed(serial)
        assert (
            pooled.solver_stats["sat_core_solves"]
            == serial.solver_stats["sat_core_solves"]
        )


class TestFallbacks:
    def test_jobs_one_stays_in_process(self):
        result = Explorer(build_executor(FAILING), jobs=1).explore()
        assert result.workers == 1
        assert result.num_paths == 2

    def test_explicit_solver_pins_serial(self):
        solver = RecordingSolver()
        result = Explorer(build_executor(FAILING), solver=solver, jobs=4).explore()
        assert result.workers == 1
        assert solver.stats.queries == result.num_queries
        assert result.num_paths == 2


class _ThreadedSeat:
    """One pool worker loop (``_worker_main``) driven in a thread over
    real pipes, with batches that never age out.  The thread shares the
    executor, so a test can read its snapshot pool."""

    def __init__(self, monkeypatch, executor):
        from types import SimpleNamespace

        from repro.core import parallel

        monkeypatch.setattr(parallel, "MAX_BATCH_AGE", 3600.0)
        broker = SimpleNamespace(
            executor=executor, config=Explorer(executor, jobs=2).config
        )
        self.control_recv, self.control = multiprocessing.Pipe(duplex=False)
        self.replies, self.reply_send = multiprocessing.Pipe(duplex=False)
        running = [0]  # the seat's running slot; a thread shares a list
        self.thread = threading.Thread(
            target=parallel._worker_main,
            args=(broker, 0, self.control_recv, self.reply_send, running),
        )
        self.thread.start()

    def post(self, *message) -> None:
        self.control.send(message)

    def receive(self):
        """The next message that is not a heartbeat: a batch of run
        replies or a steal answer."""
        from repro.core import parallel

        while True:
            assert self.replies.poll(30), "the worker loop ended early"
            message = self.replies.recv()
            if isinstance(message, list) or message[0] != parallel._HEARTBEAT:
                return message

    def stop(self) -> None:
        """Shut the loop down, reading what it still sends so that it
        never blocks on a full reply pipe."""
        self.control.send(None)
        deadline = time.monotonic() + 30
        while self.thread.is_alive() and time.monotonic() < deadline:
            while self.replies.poll(0.05):
                self.replies.recv()
            self.thread.join(timeout=0.05)
        for end in (self.control_recv, self.control, self.replies, self.reply_send):
            end.close()
        assert not self.thread.is_alive()


class _GatedExecutor(BinSymExecutor):
    """Holds its second run until ``gate`` opens, so the control messages
    a test posts meanwhile are read before any other child runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.calls = 0

    def execute(self, assignment, capture_from=None, resume=None):
        self.calls += 1
        if self.calls == 2:
            assert self.gate.wait(30)
        return super().execute(assignment, capture_from=capture_from, resume=resume)


def _check_holds(monkeypatch, strays: list) -> None:
    """Make every pool worker check, before each run, that its snapshot
    pool holds exactly the snapshots the item and its frontier name;
    each mismatch is appended to ``strays``."""
    from repro.core import explorer, parallel

    class CheckedWorker(explorer.Worker):
        def run(self, item):
            named = {other.snapshot for other in self.frontier.items()}
            named = (named | {item.snapshot}) - {None}
            held = set(self.executor.snapshot_pool._snapshots)
            if held != named:
                strays.append((item.id, held - named, named - held))
            return super().run(item)

    monkeypatch.setattr(parallel, "Worker", CheckedWorker)


_ROOT_TASK = ("task", -1, (), 0, None, 0)


@needs_fork
class TestWorkerFailure:
    def test_worker_exception_propagates(self):
        class ExplodingExecutor:
            def execute(self, assignment):
                raise RuntimeError("boom")

            def input_variables(self):
                return []

        with pytest.raises(RuntimeError, match="worker failed"):
            Explorer(ExplodingExecutor(), jobs=2).explore()

    def test_hard_killed_worker_recovered(self):
        """A worker that dies without replying must neither hang nor
        crash the campaign: the supervisor retries its item, and — since
        this executor dies on *every* run — abandons it after the retry
        budget as an explicitly counted incomplete path."""
        import os

        class DyingExecutor:
            def execute(self, assignment):
                os._exit(3)

            def input_variables(self):
                return []

        result = Explorer(DyingExecutor(), jobs=2).explore()
        assert result.num_paths == 0
        assert result.incomplete_paths == 1
        assert result.worker_deaths == MAX_ITEM_FAILURES
        assert "incomplete" in result.summary()

    def test_worker_death_mid_campaign_recovers_full_path_set(self):
        """Killing a worker once, mid-campaign, loses no paths: the held
        item is requeued and a respawned worker completes it."""
        import os

        from repro.core import BinSymExecutor
        from repro.spec import rv32im

        isa = rv32im()

        class KillOnceExecutor(BinSymExecutor):
            def execute(self, assignment, capture_from=None, resume=None):
                flag = os.environ.get("_TEST_KILL_ONCE")
                if flag and not os.path.exists(flag):
                    with open(flag, "w") as handle:
                        handle.write("dead")
                    os._exit(9)
                return super().execute(
                    assignment, capture_from=capture_from, resume=resume
                )

        import tempfile

        baseline = Explorer(build_executor(PIN_CHECK), jobs=1).explore()
        with tempfile.TemporaryDirectory() as tmp:
            os.environ["_TEST_KILL_ONCE"] = os.path.join(tmp, "killed")
            try:
                executor = KillOnceExecutor(isa, assemble(PIN_CHECK, isa=isa))
                result = Explorer(executor, jobs=2).explore()
            finally:
                del os.environ["_TEST_KILL_ONCE"]
        assert result.path_set() == baseline.path_set()
        assert result.worker_deaths == 1
        assert result.incomplete_paths == 0

    def test_worker_reports_an_item_before_running_it(self, monkeypatch):
        """A worker may hold finished runs back, but never the run that
        derived the item it starts next: the supervisor can charge a
        death only to an item the broker has heard of.  One worker
        loop, driven in a thread over real pipes with batches that never
        age out, must announce every child in an earlier message than
        the one carrying the child's own run, and still batch runs."""
        spec = WORKLOADS["bubble-sort"]
        paths = spec.expected_paths(spec.fig6_scale)
        seat = _ThreadedSeat(
            monkeypatch, BinSymExecutor(rv32im(), spec.image(spec.fig6_scale))
        )
        announced = {-1: -1}  # item id -> index of the message naming it
        batches = runs = 0
        try:
            seat.post(*_ROOT_TASK)
            while runs < paths:
                message = seat.receive()
                for item_id, path, children, *_ in message:
                    assert path is not None, children
                    assert announced.pop(item_id) < batches, item_id
                    announced.update((child[0], batches) for child in children)
                runs += len(message)
                batches += 1
        finally:
            seat.stop()
        assert runs == paths and not announced
        assert batches < runs

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_death_is_charged_to_the_running_item(self, jobs):
        """An executor that dies on every run of one non-root path must
        cost exactly the item that runs it: abandoned after
        MAX_ITEM_FAILURES deaths, with every path outside its subtree
        recorded.  Blaming a death on the newest item the broker heard
        of would abandon innocent items instead.  Which item runs the
        path depends on the models each worker's solver picks, so the
        subtree is read off that item's bound: the paths whose first
        ``bound`` compare-exchanges go the way the poisoned path's do.
        Four workers share two cores, so a crash loop is cut by the
        deadline."""
        import itertools
        import os

        spec = WORKLOADS["bubble-sort"]
        n = spec.fig6_scale
        image = spec.image(n)
        isa = rv32im()
        variables = [T.bv_var(f"in_{0x20000 + i:08x}", 8) for i in range(n)]

        def ordering(assignment):
            """The stable sort order of the input positions."""
            values = [assignment.values.get(var, 0) for var in variables]
            return tuple(sorted(range(n), key=lambda i: (values[i], i)))

        def swaps(order):
            """The compare-exchange outcomes of sorting ``order``, one
            per branch record of its path."""
            ranks = [order.index(i) for i in range(n)]
            outcomes = []
            for i in range(n - 1):
                for j in range(n - 1 - i):
                    outcomes.append(ranks[j + 1] < ranks[j])
                    if outcomes[-1]:
                        ranks[j], ranks[j + 1] = ranks[j + 1], ranks[j]
            return outcomes

        poisoned = (0, 2, 1, 3, 4)  # in[0] < in[2] < in[1] < in[3] < in[4]
        bound = multiprocessing.get_context("fork").Value("i", -1)

        class PoisonedExecutor(BinSymExecutor):
            def execute(self, assignment, capture_from=None, resume=None):
                if ordering(assignment) == poisoned:
                    bound.value = capture_from
                    os._exit(9)
                return super().execute(
                    assignment, capture_from=capture_from, resume=resume
                )

        result = Explorer(
            PoisonedExecutor(isa, image), jobs=jobs, deadline=30
        ).explore()
        assert not result.deadline_expired
        assert result.incomplete_paths == 1
        assert result.worker_deaths == MAX_ITEM_FAILURES
        assert bound.value > 0
        prefix = swaps(poisoned)[: bound.value]
        innocent = [
            order
            for order in itertools.permutations(range(n))
            if swaps(order)[: bound.value] != prefix
        ]
        recorded = [ordering(path.assignment) for path in result.paths]
        assert sorted(recorded) == innocent

    def test_heartbeats_never_put_the_parent_to_sleep(self, monkeypatch):
        """A ready pipe that delivered only heartbeats must not make the
        parent sleep: the other seat's reply (and its next task) would
        wait behind it.  Sleeping is for a pipe at EOF with no exit code
        posted yet, which a healthy run never sees."""
        import os
        import time

        from repro.core import parallel

        monkeypatch.setattr(parallel, "HEARTBEAT_INTERVAL", 0.01)
        parent = os.getpid()
        real_sleep = time.sleep
        parent_sleeps = []

        def counting_sleep(seconds):
            if os.getpid() == parent:
                parent_sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(parallel.time, "sleep", counting_sleep)
        spec = WORKLOADS["insertion-sort"]
        image = spec.image(spec.fig6_scale)
        result = Explorer(BinSymExecutor(rv32im(), image), jobs=2).explore()
        assert result.num_paths == spec.expected_paths(spec.fig6_scale)
        assert result.worker_deaths == 0
        assert parent_sleeps == []


@needs_fork
class TestSnapshotHolds:
    """A pool worker's snapshot pool holds what its pending items name.

    Each test drives one worker loop in a thread, as
    ``test_worker_reports_an_item_before_running_it`` does, and checks
    the pool before every run and at the end."""

    def test_dropped_and_stolen_items_give_their_snapshots_back(
        self, monkeypatch
    ):
        """The root's second-shallowest child is dropped and a steal
        takes the shallowest; both give their snapshot holds back, so
        when the frontier runs dry the pool is empty."""
        strays: list = []
        _check_holds(monkeypatch, strays)
        spec = WORKLOADS["bubble-sort"]
        executor = _GatedExecutor(rv32im(), spec.image(spec.fig6_scale))
        pool = executor.snapshot_pool
        seat = _ThreadedSeat(monkeypatch, executor)
        try:
            seat.post(*_ROOT_TASK)
            # The root's reply goes out before its first child runs.
            ((_, path, children, *_),) = seat.receive()
            assert path is not None, children
            handles = {child[0]: child[4] for child in children}
            assert len(set(handles.values()) - {None}) == len(children) > 2
            dropped = children[1][0]
            seat.post("drop", [dropped])
            seat.post("steal")
            executor.gate.set()
            pending = set(handles) - {dropped}
            stolen = None
            while pending:
                message = seat.receive()
                if not isinstance(message, list):
                    stolen = message[1]
                    pending.remove(stolen)
                    assert handles[stolen] not in pool._snapshots
                    continue
                for item_id, path, grandchildren, *_ in message:
                    assert path is not None, grandchildren
                    assert item_id in pending, item_id
                    pending.remove(item_id)
                    pending.update(child[0] for child in grandchildren)
            # Under DFS a steal takes the oldest item.  The last batch
            # went out when the frontier ran dry, after every hold of
            # the dropped item and the runs came back.
            assert stolen == children[0][0]
            assert len(pool) == 0 and pool.resident_bytes == 0
            assert pool.evictions == 0
        finally:
            seat.stop()
        assert strays == []

    def test_a_failed_run_gives_back_its_hold_and_its_captures(
        self, monkeypatch
    ):
        strays: list = []
        _check_holds(monkeypatch, strays)
        failed = []

        class FailingExecutor(BinSymExecutor):
            """Raises after the first resumed run that captured."""

            def execute(self, assignment, capture_from=None, resume=None):
                run = super().execute(
                    assignment, capture_from=capture_from, resume=resume
                )
                if not failed and resume is not None and run.snapshots:
                    failed.append((resume, set(run.snapshots.values())))
                    raise RuntimeError("injected")
                return run

        spec = WORKLOADS["bubble-sort"]
        executor = FailingExecutor(rv32im(), spec.image(spec.fig6_scale))
        pool = executor.snapshot_pool
        seat = _ThreadedSeat(monkeypatch, executor)
        try:
            seat.post(*_ROOT_TASK)
            while True:
                message = seat.receive()
                if any(reply[1] is None for reply in message):
                    break
        finally:
            seat.stop()
        ((resumed_from, captured),) = failed
        assert captured
        assert resumed_from not in pool._snapshots
        assert captured.isdisjoint(pool._snapshots)
        assert strays == []

    def test_a_task_naming_its_own_snapshot_holds_it(self, monkeypatch):
        """The div program's root leaves two children on one snapshot.
        A steal takes one of them, and it comes back as a task naming
        this worker's handle before the other child has run: the task
        holds the snapshot again, so all three children resume."""
        from test_snapshots import SHARED_DIV

        strays: list = []
        _check_holds(monkeypatch, strays)
        isa = rv32im()
        executor = _GatedExecutor(isa, assemble(SHARED_DIV, isa=isa))
        seat = _ThreadedSeat(monkeypatch, executor)
        try:
            seat.post(*_ROOT_TASK)
            ((_, path, children, *_),) = seat.receive()
            assert path is not None, children
            handles = [child[4] for child in children]
            assert len(handles) == 3 and handles[0] == handles[1] != handles[2]
            _, assignment, bound, _, handle, novelty = children[0]
            seat.post("steal")
            seat.post("task", -2, assignment, bound, (0, handle), novelty)
            executor.gate.set()
            ran, stolen = [], None
            while len(ran) < 3:
                message = seat.receive()
                if isinstance(message, list):
                    ran.extend(reply[0] for reply in message)
                else:
                    stolen = message[1]
        finally:
            seat.stop()
        assert stolen == children[0][0]
        assert sorted(ran) == sorted([-2, children[1][0], children[2][0]])
        assert executor.resumed_runs == 3 and executor.fallback_runs == 0
        assert len(executor.snapshot_pool) == 0
        assert strays == []

    def test_a_stolen_item_back_at_its_victim_is_a_cross_worker_item(
        self, monkeypatch
    ):
        """The broker may hand a stolen item straight back to the seat it
        was stolen from.  Each of bubble-sort's root children names a
        snapshot of its own, so the steal gave the last hold back and the
        task re-executes from the entry: a cross-worker item, not a
        fallback run and a pool miss."""
        strays: list = []
        _check_holds(monkeypatch, strays)
        spec = WORKLOADS["bubble-sort"]
        executor = _GatedExecutor(rv32im(), spec.image(spec.fig6_scale))
        seat = _ThreadedSeat(monkeypatch, executor)
        try:
            seat.post(*_ROOT_TASK)
            # The first reply carries every counter key.
            ((_, path, children, _, counters),) = seat.receive()
            assert path is not None, children
            handles = [child[4] for child in children]
            assert len(set(handles) - {None}) == len(children) > 2
            _, assignment, bound, _, handle, novelty = children[0]
            seat.post("steal")
            seat.post("task", -2, assignment, bound, (0, handle), novelty)
            executor.gate.set()
            pending = {child[0] for child in children} | {-2}
            stolen = None
            while pending:
                message = seat.receive()
                if not isinstance(message, list):
                    stolen = message[1]
                    pending.remove(stolen)
                    continue
                for item_id, path, grandchildren, _, moved in message:
                    assert path is not None, grandchildren
                    pending.remove(item_id)
                    pending.update(child[0] for child in grandchildren)
                    for key, value in moved.items():
                        counters[key] = counters.get(key, 0) + value
        finally:
            seat.stop()
        assert stolen == children[0][0]
        assert counters["snap_cross_worker_items"] == 1
        assert counters["snap_fallback_runs"] == 0
        assert counters["snap_pool_misses"] == 0
        assert len(executor.snapshot_pool) == 0
        assert strays == []


@needs_fork
class TestQueryDigest:
    def test_digest_stable_across_fork(self):
        """Terms interned *after* the fork must digest identically in
        parent and child — the property cross-worker dedup relies on."""
        import multiprocessing as mp

        from repro.core.scheduler import query_digest
        from repro.smt import terms as T

        def fresh_query():
            x = T.bv_var("digest_probe", 16)
            return [T.ult(x, T.bv(0x1234, 16)), T.eq(x, T.bv(7, 16))]

        context = mp.get_context("fork")
        parent_conn, child_conn = context.Pipe()

        def child_main(conn):
            conn.send(query_digest(fresh_query()))
            conn.close()

        process = context.Process(target=child_main, args=(child_conn,))
        process.start()
        child_digest = parent_conn.recv()
        process.join(timeout=10)
        assert child_digest == query_digest(fresh_query())

    def test_digest_distinguishes_order_and_structure(self):
        from repro.core.scheduler import query_digest
        from repro.smt import terms as T

        x = T.bv_var("digest_probe2", 8)
        a, b = T.ult(x, T.bv(3, 8)), T.eq(x, T.bv(1, 8))
        assert query_digest([a, b]) != query_digest([b, a])
        assert query_digest([a]) != query_digest([b])
        assert query_digest([a, b]) == query_digest([a, b])

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("program", ["bubble-sort", "pinned-lookup"])
    def test_child_digests_are_their_query_digests(self, program, jobs, monkeypatch):
        """Each trace record carries its prefix's digest, and each child
        extends it by its negation; every ``trace.digest(i)`` and every
        child's digest must still equal ``query_digest`` of the same
        conditions, serial and pooled, on runs resumed from a snapshot
        (whose records were copied, not folded) as on runs from the
        entry.  The pinned lookup puts a non-flippable record into every
        prefix."""
        import multiprocessing as mp

        from repro.core import explorer as explorer_module
        from repro.core.scheduler import expand_run, query_digest

        checked = mp.get_context("fork").Value("i", 0)

        def checking_expand_run(run, bound, *args, **kwargs):
            children = expand_run(run, bound, *args, **kwargs)
            conditions = run.trace.conditions()
            for index in range(len(conditions) + 1):
                expected = query_digest(conditions[:index])
                if run.trace.digest(index) != expected:
                    raise AssertionError((index, run.trace.digest(index), expected))
            for child in children:
                index = child.bound - 1
                negated = run.trace.records[index].negated()
                expected = query_digest(conditions[:index] + [negated])
                if child.digest != expected:
                    raise AssertionError((index, child.digest, expected))
                with checked.get_lock():
                    checked.value += 1
            return children

        monkeypatch.setattr(explorer_module, "expand_run", checking_expand_run)
        if program == "pinned-lookup":
            image, paths = assemble(PINNED_LOOKUP), 3
        else:
            spec = WORKLOADS[program]
            image = spec.image(spec.fig6_scale)
            paths = spec.expected_paths(spec.fig6_scale)
        result = Explorer(BinSymExecutor(rv32im(), image), jobs=jobs).explore()
        # A mismatch in a pool worker is a worker death and, repeated,
        # an abandoned item.
        assert (result.worker_deaths, result.incomplete_paths) == (0, 0)
        assert result.num_paths == paths
        assert result.resumed_runs > 0
        assert checked.value == paths - 1
