"""Fault-tolerance invariants (core.faults / core.checkpoint / budgets).

The contract this file pins: exploration under *any* fault schedule —
worker kills, solver give-ups, snapshot eviction storms, queue hiccups,
interrupts — yields either the identical path set of a fault-free run,
or a strict subset whose shortfall is explicitly reported through the
``unknown_queries`` / ``incomplete_paths`` counters (and the
``interrupted`` flag).  Silent path loss is the one outcome that must
never happen.
"""

import multiprocessing
import os
import tempfile

import pytest

from repro.asm import assemble
from repro.core import BinSymExecutor, Explorer, FaultPlan
from repro.core.checkpoint import CHECKPOINT_FILENAME, GAUGES, CheckpointManager
from repro.core.parallel import Broker
from repro.eval.workloads import WORKLOADS
from repro.smt import terms as T
from repro.smt.solver import SolverConfig
from repro.smt.solver import CachingSolver, Result, Solver
from repro.spec import rv32im

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")

# The quickstart PIN check: 5 paths (one per matched prefix), deep
# enough that kills, evictions and give-ups all have branches to hit.
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


def build_executor(source=PIN_CHECK):
    isa = rv32im()
    return BinSymExecutor(isa, assemble(source, isa=isa))


def assert_subset_or_accounted(faulty, baseline):
    """The central invariant: subset, and any shortfall is counted."""
    faulty_set = faulty.path_set()
    baseline_set = baseline.path_set()
    assert faulty_set <= baseline_set, (
        f"faulty run invented paths: {faulty_set - baseline_set}"
    )
    degraded = (
        faulty.unknown_queries + faulty.incomplete_paths + int(faulty.interrupted)
    )
    if faulty_set != baseline_set:
        assert degraded > 0, (
            "paths were lost without any degradation being reported"
        )


class TestFaultPlanParse:
    def test_full_spec_round_trip(self):
        plan = FaultPlan.parse("kill=30,unknown=20,evict=50,hiccup=10,stop=5,seed=7")
        assert plan == FaultPlan(
            seed=7,
            kill_rate=30,
            unknown_rate=20,
            evict_rate=50,
            hiccup_rate=10,
            interrupt_after=5,
        )
        assert plan.active

    def test_empty_and_default_plans_inactive(self):
        assert not FaultPlan().active
        assert not FaultPlan.parse("").active
        assert FaultPlan(interrupt_after=0).active

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="crash"):
            FaultPlan.parse("crash=10")

    def test_non_integer_value_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            FaultPlan.parse("kill=lots")

    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=3, kill_rate=50)
        draws = [plan.should_kill("w0", n) for n in range(64)]
        assert draws == [plan.should_kill("w0", n) for n in range(64)]
        assert any(draws) and not all(draws)
        # A different seed or scope draws a different schedule.
        other = FaultPlan(seed=4, kill_rate=50)
        assert draws != [other.should_kill("w0", n) for n in range(64)]
        assert draws != [plan.should_kill("w1", n) for n in range(64)]

    def test_rates_clamp_sanely(self):
        always = FaultPlan(kill_rate=100)
        assert all(always.should_kill("w", n) for n in range(16))
        never = FaultPlan(kill_rate=0, hiccup_rate=0)
        assert not any(never.should_kill("w", n) for n in range(16))
        assert never.hiccup_delay("w", 0) == 0.0

    def test_hiccup_delay_bounded(self):
        plan = FaultPlan(hiccup_rate=100)
        delays = [plan.hiccup_delay("w", n) for n in range(16)]
        assert all(0.001 <= d <= 0.005 for d in delays)

    def test_solver_hook_gating(self):
        assert FaultPlan(unknown_rate=0).solver_hook("s") is None
        hook = FaultPlan(seed=1, unknown_rate=100).solver_hook("s")
        assert hook is not None and hook(1)


def _hard_query():
    """A query the CDCL core cannot decide by propagation alone (>100
    conflicts), so a conflict budget reliably runs out."""
    x = T.bv_var("budget_x", 8)
    y = T.bv_var("budget_y", 8)
    z = T.bv_var("budget_z", 8)
    return [
        T.eq(T.mul(x, y), z),
        T.eq(T.mul(y, z), x),
        T.eq(T.mul(z, x), y),
        T.ult(T.bv(1, 8), x),
        T.ult(x, y),
        T.ult(y, z),
    ]


class TestSolverDegradation:
    def test_conflict_budget_yields_unknown(self):
        solver = Solver(conflict_budget=0)
        verdict = solver.check(_hard_query())
        assert verdict is Result.UNKNOWN
        assert solver.num_unknowns == 1
        assert solver.statistics["unknowns"] == 1
        # The same solver, unbudgeted, answers the query exactly.
        assert Solver().check(_hard_query()) is Result.SAT

    def test_fault_hook_yields_unknown(self):
        solver = Solver()
        solver.set_fault_hook(lambda ordinal: True)
        assert solver.check(_hard_query()) is Result.UNKNOWN
        solver.set_fault_hook(None)
        assert solver.check(_hard_query()) is Result.SAT

    def test_unknown_is_never_cached(self):
        solver = CachingSolver(solver_config=SolverConfig())
        # Give up on the first CDCL solve only: if the UNKNOWN verdict
        # leaked into the cache, the retry would wrongly hit it.
        solver.set_fault_hook(lambda ordinal: ordinal == 1)
        assert solver.check(_hard_query()) is Result.UNKNOWN
        assert solver.check(_hard_query()) is Result.SAT
        stats = solver.pipeline_statistics
        assert stats["unknown_queries"] == 1
        assert stats["cache_hits"] == 0

    def test_budget_threads_through_config(self):
        config = SolverConfig(conflict_budget=0)
        solver = CachingSolver(solver_config=config)
        assert solver.check(_hard_query()) is Result.UNKNOWN
        assert solver.pipeline_statistics["unknown_queries"] == 1

    def test_unknown_queries_degrade_exploration_soundly(self):
        """Every CDCL solve abandoned: no branch is ever flipped, so
        only the seed path survives — and the shortfall is counted."""
        baseline = Explorer(build_executor(), use_cache=True).explore()
        degraded = Explorer(
            build_executor(),
            use_cache=True,
            faults=FaultPlan(unknown_rate=100),
        ).explore()
        assert_subset_or_accounted(degraded, baseline)
        assert degraded.unknown_queries > 0
        assert degraded.num_paths < baseline.num_paths
        assert "unknown" in degraded.summary()


class TestInterrupt:
    def test_interrupt_returns_partial_result(self):
        result = Explorer(
            build_executor(), faults=FaultPlan(interrupt_after=2)
        ).explore()
        assert result.interrupted
        assert result.num_paths == 2
        assert "[interrupted]" in result.summary()

    @needs_fork
    def test_interrupt_pool_returns_partial_result(self):
        result = Explorer(
            build_executor(), jobs=2, faults=FaultPlan(interrupt_after=2)
        ).explore()
        assert result.interrupted
        assert result.num_paths >= 2


def flip_counter_digit(data: bytearray) -> None:
    """Change the leading digit of the journal's ``total_instructions``.

    An integer, so the parsed state changes with the byte; the last
    digit of a float such as ``solver_time`` may parse back to the same
    value, and then the digest rightly still matches.
    """
    key = b'"total_instructions": '
    at = data.index(key) + len(key)
    data[at] = ord("2") if data[at] == ord("1") else ord("1")


def assert_journal_resumable(directory, paths, pending, jobs):
    """A cut campaign left a journal holding its paths and pending items,
    and a pooled resume rejects a copy of it with one byte flipped."""
    state = CheckpointManager(directory, strategy="dfs", seed=0).load()
    assert state is not None, "the cut run wrote no journal"
    assert (len(state.paths), len(state.frontier)) == (paths, pending)
    with open(os.path.join(directory, CHECKPOINT_FILENAME), "rb") as handle:
        data = bytearray(handle.read())
    flip_counter_digit(data)
    with tempfile.TemporaryDirectory() as damaged:
        with open(os.path.join(damaged, CHECKPOINT_FILENAME), "wb") as handle:
            handle.write(data)
        with pytest.raises(ValueError, match="integrity check"):
            Explorer(
                build_executor(), jobs=jobs, checkpoint_dir=damaged, resume=True
            ).explore()


class TestCheckpoint:
    def test_journal_written_and_complete(self):
        with tempfile.TemporaryDirectory() as tmp:
            result = Explorer(build_executor(), checkpoint_dir=tmp).explore()
            assert result.num_paths == 5
            assert os.path.exists(os.path.join(tmp, CHECKPOINT_FILENAME))
            state = CheckpointManager(tmp, strategy="dfs", seed=0).load()
            assert state.complete
            assert len(state.paths) == result.num_paths
            assert not state.frontier

    def test_resume_of_complete_campaign_is_a_noop(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = Explorer(build_executor(), checkpoint_dir=tmp).explore()
            resumed = Explorer(
                build_executor(), checkpoint_dir=tmp, resume=True
            ).explore()
            assert resumed.path_set() == baseline.path_set()
            assert resumed.total_instructions == baseline.total_instructions

    def test_strategy_mismatch_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            Explorer(build_executor(), checkpoint_dir=tmp).explore()
            with pytest.raises(ValueError, match="strategy"):
                Explorer(
                    build_executor(),
                    strategy="bfs",
                    checkpoint_dir=tmp,
                    resume=True,
                ).explore()

    @pytest.mark.parametrize("stop_after", [1, 2, 3])
    def test_kill_then_resume_completes_path_set(self, stop_after):
        """The PR's acceptance bar: interrupt mid-campaign, resume from
        the journal, and the union is exactly the uninterrupted set —
        with no recorded path executed twice."""
        baseline = Explorer(build_executor()).explore()
        with tempfile.TemporaryDirectory() as tmp:
            partial = Explorer(
                build_executor(),
                checkpoint_dir=tmp,
                faults=FaultPlan(interrupt_after=stop_after),
            ).explore()
            assert partial.interrupted
            assert partial.num_paths == stop_after
            resumed = Explorer(
                build_executor(), checkpoint_dir=tmp, resume=True
            ).explore()
        assert resumed.path_set() == baseline.path_set()
        assert not resumed.interrupted
        # Restored paths are not re-executed: the exactly-once counter
        # accounting makes the resumed total equal the uninterrupted
        # run's, not partial + a full re-run.
        assert resumed.total_instructions == baseline.total_instructions

    @needs_fork
    def test_kill_then_resume_with_pool(self):
        baseline = Explorer(build_executor()).explore()
        with tempfile.TemporaryDirectory() as tmp:
            partial = Explorer(
                build_executor(),
                jobs=4,
                checkpoint_dir=tmp,
                faults=FaultPlan(interrupt_after=2),
            ).explore()
            assert partial.interrupted
            assert partial.num_paths == 2
            # The PIN check's runs form a chain: one pending item.
            assert_journal_resumable(tmp, paths=2, pending=1, jobs=4)
            resumed = Explorer(
                build_executor(), jobs=4, checkpoint_dir=tmp, resume=True
            ).explore()
        assert resumed.path_set() == baseline.path_set()
        assert resumed.total_instructions == baseline.total_instructions

    @needs_fork
    @pytest.mark.parametrize("cut", [15, 40, 60])
    def test_pooled_cut_keeps_counters_exact(self, cut):
        """Pool workers send their runs home in batches, so a cut can
        fall inside one.  Each run carries its own cumulative counters,
        so the SAT core's solve count is that of the recorded runs on
        the cut result and on the resumed one, and the resumed campaign
        equals the uninterrupted run."""
        spec = WORKLOADS["insertion-sort"]
        image = spec.image(spec.fig6_scale)
        isa = rv32im()

        def explore(**options):
            return Explorer(BinSymExecutor(isa, image), jobs=2, **options).explore()

        def totals(result):
            return (
                result.num_paths,
                result.path_set(),
                result.total_instructions,
                result.sat_solves,
                result.solver_stats["sat_core_solves"],
            )

        baseline = explore()
        with tempfile.TemporaryDirectory() as tmp:
            partial = explore(
                checkpoint_dir=tmp, faults=FaultPlan(interrupt_after=cut)
            )
            resumed = explore(checkpoint_dir=tmp, resume=True)
        assert partial.interrupted
        assert partial.num_paths == cut
        for result in (partial, resumed):
            assert result.solver_stats["sat_core_solves"] == result.sat_solves
        assert totals(resumed) == totals(baseline)

    @pytest.mark.parametrize("strategy", ["bfs", "random", "coverage"])
    def test_resume_respects_strategy(self, strategy):
        baseline = Explorer(
            build_executor(), strategy=strategy, seed=5
        ).explore()
        with tempfile.TemporaryDirectory() as tmp:
            Explorer(
                build_executor(),
                strategy=strategy,
                seed=5,
                checkpoint_dir=tmp,
                faults=FaultPlan(interrupt_after=2),
            ).explore()
            resumed = Explorer(
                build_executor(),
                strategy=strategy,
                seed=5,
                checkpoint_dir=tmp,
                resume=True,
            ).explore()
        assert resumed.path_set() == baseline.path_set()


class CrashingExecutor(BinSymExecutor):
    """Raises on its ``crash_at``-th run, so the campaign dies without
    its final save and the journal stays at its last periodic one."""

    def __init__(self, isa, image, crash_at):
        super().__init__(isa, image)
        self.crash_at = crash_at
        self.runs = 0

    def execute(self, *args, **kwargs):
        self.runs += 1
        if self.runs == self.crash_at:
            raise RuntimeError("injected crash")
        return super().execute(*args, **kwargs)


class TestCrashResumeCounters:
    """Every counter survives a crash: the journal's periodic saves carry
    each process's counter record, and a resume adds its own on top."""

    @pytest.fixture
    def sort5(self):
        spec = WORKLOADS["insertion-sort"]
        return rv32im(), spec.image(spec.fig6_scale)

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_crash_then_resume_keeps_every_counter(self, sort5, jobs, monkeypatch):
        """The resumed result holds the journal's record plus the resumed
        processes' own: the executor's counters in process, the counters
        of the replies the broker recorded in a pool."""
        isa, image = sort5
        live: list = []
        absorb = Broker._absorb

        def spy(broker, slot, reply, campaign):
            recorded = absorb(broker, slot, reply, campaign)
            if recorded:
                live.append(reply[4])
            return recorded

        monkeypatch.setattr(Broker, "_absorb", spy)
        baseline = Explorer(BinSymExecutor(isa, image)).explore()
        with tempfile.TemporaryDirectory() as tmp:
            # A budget of 0 MB makes every process walk all three rungs
            # of its governor's ladder within its first 12 runs.
            with pytest.raises(RuntimeError):
                Explorer(
                    CrashingExecutor(isa, image, crash_at=40),
                    jobs=jobs,
                    checkpoint_dir=tmp,
                    memory_budget_mb=0,
                ).explore()
            journal = CheckpointManager(tmp, strategy="dfs", seed=0).load().stats
            live.clear()
            executor = BinSymExecutor(isa, image)
            resumed = Explorer(
                executor,
                jobs=jobs,
                checkpoint_dir=tmp,
                resume=True,
                memory_budget_mb=0,
            ).explore()
        assert resumed.path_set() == baseline.path_set()
        assert journal["gov_rungs_applied"] >= 3
        assert journal["snap_resumed_runs"] > 0 and journal["sb_hits"] > 0
        keys = ("gov_rungs_applied", "snap_resumed_runs", "sb_hits")
        if jobs == 1:
            assert resumed.degradations == 6  # three rungs in each process
            own = dict(
                executor.snapshot_statistics,
                **executor.superblock_statistics,
                gov_rungs_applied=3,
            )
        else:
            own = {
                key: sum(counters.get(key, 0) for counters in live)
                for key in keys
            }
        for key in keys:
            assert resumed.stats[key] == journal[key] + own[key]

    @needs_fork
    def test_gauges_are_not_carried_across_a_restore(self, sort5):
        """A pooled cut leaves snapshots held in the workers' pools and
        entries in their caches.  Those sizes die with the processes: the
        journal leaves them out, and the resumed campaign reports its own
        alone."""
        isa, image = sort5
        with tempfile.TemporaryDirectory() as tmp:
            cut = Explorer(
                BinSymExecutor(isa, image),
                jobs=2,
                use_cache=True,
                checkpoint_dir=tmp,
                faults=FaultPlan(interrupt_after=40),
            ).explore()
            assert cut.snapshot_stats["snap_pool_entries"] > 0
            journal = CheckpointManager(tmp, strategy="dfs", seed=0).load().stats
            assert journal == {
                key: value
                for key, value in cut.stats.items()
                if key not in GAUGES
            }
            explorer = Explorer(
                BinSymExecutor(isa, image),
                use_cache=True,
                checkpoint_dir=tmp,
                resume=True,
            )
            resumed = explorer.explore()
        assert resumed.snapshot_stats["snap_pool_entries"] == 0
        assert resumed.snapshot_stats["snap_pool_bytes"] == 0
        cache = explorer.solver.cache.statistics
        assert resumed.solver_stats["cache_entries"] == cache["entries"]
        assert resumed.solver_stats["cache_unsat_sets"] == cache["unsat_sets"]


CHAOS_MATRIX = [
    ("dfs", 0, 1),
    ("bfs", 1, 1),
    ("random", 2, 1),
    ("coverage", 3, 1),
    ("dfs", 4, 4),
    ("random", 5, 4),
]


class TestChaosInvariant:
    """Randomized (seeded) fault schedules against the central invariant."""

    @pytest.mark.parametrize("strategy,fault_seed,jobs", CHAOS_MATRIX)
    def test_any_schedule_is_subset_or_accounted(
        self, strategy, fault_seed, jobs
    ):
        if jobs > 1 and not HAS_FORK:
            pytest.skip("fork start method unavailable")
        baseline = Explorer(
            build_executor(), strategy=strategy, seed=1, use_cache=True
        ).explore()
        assert baseline.num_paths == 5
        plan = FaultPlan(
            seed=fault_seed,
            kill_rate=20,
            unknown_rate=15,
            evict_rate=50,
            hiccup_rate=10,
        )
        faulty = Explorer(
            build_executor(),
            strategy=strategy,
            seed=1,
            jobs=jobs,
            use_cache=True,
            faults=plan,
        ).explore()
        assert_subset_or_accounted(faulty, baseline)

    def test_inactive_plan_changes_nothing(self):
        baseline = Explorer(build_executor(), use_cache=True).explore()
        noop = Explorer(
            build_executor(), use_cache=True, faults=FaultPlan()
        ).explore()
        assert noop.path_set() == baseline.path_set()
        assert noop.unknown_queries == 0
        assert noop.incomplete_paths == 0
        assert not noop.interrupted


class TestSnapshotBudgetChaos:
    """PR 5's eviction contract under starvation: a zero/tiny snapshot
    pool only costs re-execution, never paths — serial and pooled."""

    @pytest.mark.parametrize("max_bytes", [1, 3 * 4096])
    def test_starved_pool_serial(self, max_bytes):
        baseline = Explorer(build_executor()).explore()
        engine = build_executor()
        engine.snapshot_pool.max_bytes = max_bytes
        result = Explorer(engine).explore()
        assert result.path_set() == baseline.path_set()

    @needs_fork
    @pytest.mark.parametrize("max_bytes", [1, 3 * 4096])
    def test_starved_pool_jobs_four(self, max_bytes):
        baseline = Explorer(build_executor()).explore()
        engine = build_executor()
        engine.snapshot_pool.max_bytes = max_bytes
        result = Explorer(engine, jobs=4).explore()
        assert result.path_set() == baseline.path_set()
        assert result.workers == 4

    @needs_fork
    def test_eviction_storm_with_pool(self):
        baseline = Explorer(build_executor()).explore()
        result = Explorer(
            build_executor(),
            jobs=4,
            faults=FaultPlan(seed=9, evict_rate=100),
        ).explore()
        assert result.path_set() == baseline.path_set()
