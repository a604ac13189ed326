"""Tests for multi-process exploration (core.parallel).

The load-bearing property: the flip-expansion rules fully determine the
reachable (assignment, bound) tree, so parallel exploration must
discover exactly the serial path set — only completion order may vary.
"""

import multiprocessing
import tempfile
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
    """Worker tries are per-process, so only the broker's digest check
    can stop two workers from issuing the same flip query."""

    @pytest.mark.parametrize(
        "engine", ["binsym", "binsec", "angr", "angr-buggy", "symex-vp"]
    )
    def test_fig6_trees_never_repeat_a_flip_query(self, engine):
        """A cross-worker duplicate needs two runs of the exploration
        tree that issue the same flip query.  Serial exploration without
        the prefix trie issues every run's queries, and the checkpoint's
        digest set counts each repeat as pruned.  None occurs, so no
        pool schedule can record a path twice on these workloads: a run
        re-derives another run's query only by diverging from the path
        its model predicted (the next test)."""
        for name, spec in WORKLOADS.items():
            image = spec.image(spec.fig6_scale)
            with tempfile.TemporaryDirectory() as tmp:
                result = Explorer(
                    make_engine(engine, rv32im(), image),
                    dedup_flips=False,
                    checkpoint_dir=tmp,
                    checkpoint_interval=10**9,
                ).explore()
            assert result.num_paths > 0, name
            assert result.pruned_queries == 0, (engine, name)

    def test_diverged_duplicate_on_another_worker_is_dropped(self):
        """Inputs with x >= 10 run as if x were 0, so the root's x-flip
        child re-runs the root's path and re-derives the root's y-flip
        query.  The y >= 5 paths are slow, so the root's worker is still
        running them when the idle seat steals the x-flip child: the
        duplicate query is solved on the thief, and the broker must drop
        its child before a y >= 5 path is recorded a second time."""
        x = T.bv_var("in_00030000", 8)
        y = T.bv_var("in_00030001", 8)
        isa = rv32im()

        class DivergingExecutor(BinSymExecutor):
            def execute(self, assignment, capture_from=None, resume=None):
                values = dict(assignment.values)
                if values.get(x, 0) >= 10:
                    values[x] = 0
                if values.get(y, 0) >= 5:
                    time.sleep(0.5)
                return super().execute(InputAssignment(values))

        def explore(jobs):
            executor = DivergingExecutor(isa, assemble(THREE_BRANCHES, isa=isa))
            return Explorer(executor, jobs=jobs, snapshots=False).explore()

        def attributed(result):
            return (
                result.num_queries
                + result.cache_hits
                + result.fast_path_answers
                + result.pruned_queries
            )

        serial, pooled = explore(1), explore(2)
        # Exits 0, 1 and 3, plus the diverged x-flip child's exit 0.
        assert serial.num_paths == pooled.num_paths == 4
        assert pooled.path_set() == serial.path_set()
        assert serial.pruned_queries == pooled.pruned_queries == 1
        assert attributed(pooled) == attributed(serial) + 1


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
    def test_child_digests_are_their_query_digests(
        self, program, jobs, monkeypatch, tmp_path
    ):
        """``expand_run`` folds the flip digests along the run; each
        child's digest must still equal ``query_digest`` of the query
        that produced it, serial with a journal and pooled.  The pinned
        lookup puts a non-flippable record into every prefix."""
        import multiprocessing as mp

        from repro.core import explorer as explorer_module
        from repro.core.scheduler import expand_run, query_digest

        checked = mp.get_context("fork").Value("i", 0)

        def checking_expand_run(run, bound, *args, **kwargs):
            children = expand_run(run, bound, *args, **kwargs)
            conditions = run.trace.conditions()
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
        journal = str(tmp_path) if jobs == 1 else None
        result = Explorer(
            BinSymExecutor(rv32im(), image), jobs=jobs, checkpoint_dir=journal
        ).explore()
        # A mismatch in a pool worker is a worker death and, repeated,
        # an abandoned item.
        assert (result.worker_deaths, result.incomplete_paths) == (0, 0)
        assert result.num_paths == paths
        assert checked.value == paths - 1
