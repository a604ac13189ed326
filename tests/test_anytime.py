"""Anytime exploration invariants (PR 9: deadlines, watchdog, governor).

The contract this file pins: for any ``deadline`` / ``memory_budget_mb``
and any fault schedule including ``hang=`` / ``memhog=``, exploration
*terminates* and returns either the healthy run's path set or an
explicitly counted subset (``incomplete_paths`` + ``unknown_queries``
plus the ``deadline_expired`` flag and ``hung_workers`` /
``degradations`` counters) — never a hang, never a silent loss.  A
deadline-cut campaign checkpoints such that ``--resume`` completes the
uninterrupted run's exact path set.
"""

import tempfile
import time

import pytest

from repro.core import Explorer, FaultPlan, MemoryGovernor
from repro.core.faults import MEMHOG_BYTES
from repro.core.governor import build_exploration_governor
from repro.core.parallel import (
    DEFAULT_HANG_TIMEOUT,
    HEARTBEAT_INTERVAL,
    _backoff_delay,
)
from repro.smt.solver import SolverConfig
from repro.smt.sat import SatSolver
from repro.smt.solver import CachingSolver, Result, Solver
from tests.test_faults import (
    assert_journal_resumable,
    assert_subset_or_accounted,
    build_executor,
    needs_fork,
    _hard_query,
)


class TestFaultPlanAnytimeKinds:
    def test_hang_and_memhog_round_trip(self):
        plan = FaultPlan.parse("hang=10,memhog=20,seed=3")
        assert plan == FaultPlan(seed=3, hang_rate=10, memhog_rate=20)
        assert plan.active

    def test_hang_decisions_deterministic(self):
        plan = FaultPlan(seed=2, hang_rate=50)
        draws = [plan.should_hang("w0", n) for n in range(64)]
        assert draws == [plan.should_hang("w0", n) for n in range(64)]
        assert any(draws) and not all(draws)
        assert not any(FaultPlan().should_hang("w0", n) for n in range(64))

    def test_memhog_bytes(self):
        assert FaultPlan(memhog_rate=100).memhog_bytes("w", 0) == MEMHOG_BYTES
        assert FaultPlan(memhog_rate=0).memhog_bytes("w", 0) == 0


class TestWallClockBudget:
    def test_exhausted_wall_budget_yields_unknown(self):
        solver = Solver(wall_budget=0.0)
        assert solver.check(_hard_query()) is Result.UNKNOWN
        assert solver.num_unknowns == 1
        # The same query, unbudgeted, is answered exactly.
        assert Solver().check(_hard_query()) is Result.SAT

    def test_wall_budget_threads_through_config(self):
        config = SolverConfig(wall_budget=0.0)
        solver = CachingSolver(solver_config=config)
        assert solver.check(_hard_query()) is Result.UNKNOWN
        assert solver.pipeline_statistics["unknown_queries"] == 1

    def test_generous_wall_budget_changes_nothing(self):
        assert Solver(wall_budget=3600.0).check(_hard_query()) is Result.SAT

    def test_wall_give_up_resets_solver_state(self):
        """After a wall-clock UNKNOWN the core must answer the next
        query exactly (same reset contract as the conflict budget)."""
        solver = SatSolver(wall_budget=0.0)
        a = solver.new_var()
        solver.add_clause([a])
        assert solver.solve([]) is None  # UNKNOWN
        assert solver.statistics["budget_exhausted"] == 1
        solver.wall_budget = None
        assert solver.solve([]) is True

    def test_wall_budget_exploration_degrades_soundly(self):
        baseline = Explorer(build_executor(), use_cache=True).explore()
        degraded = Explorer(
            build_executor(),
            use_cache=True,
            solver_config=SolverConfig(wall_budget=0.0),
        ).explore()
        assert_subset_or_accounted(degraded, baseline)


class TestBackoff:
    def test_first_spawn_has_no_delay(self):
        assert _backoff_delay(0, 0, 0) == 0.0

    def test_deterministic_and_seed_sensitive(self):
        delays = [_backoff_delay(1, 2, n) for n in range(1, 8)]
        assert delays == [_backoff_delay(1, 2, n) for n in range(1, 8)]
        assert delays != [_backoff_delay(9, 2, n) for n in range(1, 8)]

    def test_exponential_envelope_and_cap(self):
        for respawns in range(1, 16):
            base = min(0.02 * (2 ** (respawns - 1)), 2.0)
            delay = _backoff_delay(7, 3, respawns)
            assert 0.5 * base <= delay < 1.5 * base
        assert _backoff_delay(7, 3, 40) < 3.0  # capped forever after

    def test_watchdog_constants_sane(self):
        assert HEARTBEAT_INTERVAL * 4 <= DEFAULT_HANG_TIMEOUT


class TestDeadline:
    def test_deadline_zero_cuts_before_any_run(self):
        result = Explorer(build_executor(), deadline=0.0).explore()
        assert result.deadline_expired
        assert result.interrupted
        assert result.num_paths == 0
        assert result.incomplete_paths >= 1
        assert "[deadline expired]" in result.summary()

    def test_no_deadline_changes_nothing(self):
        baseline = Explorer(build_executor()).explore()
        generous = Explorer(build_executor(), deadline=3600.0).explore()
        assert generous.path_set() == baseline.path_set()
        assert not generous.deadline_expired
        assert generous.incomplete_paths == 0

    def test_deadline_cut_then_resume_completes_path_set(self):
        """The PR's acceptance bar: a deadline-cut checkpointed campaign
        resumed without a deadline equals the uninterrupted run."""
        baseline = Explorer(build_executor()).explore()
        with tempfile.TemporaryDirectory() as tmp:
            cut = Explorer(
                build_executor(), checkpoint_dir=tmp, deadline=0.0
            ).explore()
            assert cut.deadline_expired
            assert cut.num_paths + cut.incomplete_paths >= 1
            resumed = Explorer(
                build_executor(), checkpoint_dir=tmp, resume=True
            ).explore()
        assert resumed.path_set() == baseline.path_set()
        assert not resumed.interrupted
        assert not resumed.deadline_expired
        # The drained-frontier count is not persisted: the resumed run
        # re-explored those items, so nothing is double-booked.
        assert resumed.incomplete_paths == 0
        assert resumed.total_instructions == baseline.total_instructions

    @needs_fork
    def test_deadline_cut_then_resume_with_pool(self):
        baseline = Explorer(build_executor()).explore()
        with tempfile.TemporaryDirectory() as tmp:
            cut = Explorer(
                build_executor(), jobs=2, checkpoint_dir=tmp, deadline=0.0
            ).explore()
            assert cut.deadline_expired
            assert cut.num_paths + cut.incomplete_paths >= 1
            assert_journal_resumable(
                tmp, paths=cut.num_paths, pending=cut.incomplete_paths, jobs=2
            )
            resumed = Explorer(
                build_executor(), jobs=2, checkpoint_dir=tmp, resume=True
            ).explore()
        assert resumed.path_set() == baseline.path_set()
        assert resumed.incomplete_paths == 0
        assert resumed.total_instructions == baseline.total_instructions

    def test_deadline_expired_run_terminates_promptly(self):
        start = time.monotonic()
        Explorer(build_executor(), deadline=0.0).explore()
        assert time.monotonic() - start < 30.0  # bounded grace


class TestWatchdog:
    @needs_fork
    def test_wedged_worker_detected_killed_and_accounted(self):
        """hang=100: every task wedges; the watchdog must recover every
        seat and the pool must drain with everything accounted."""
        result = Explorer(
            build_executor(),
            jobs=2,
            faults=FaultPlan(seed=0, hang_rate=100),
            hang_timeout=0.5,
        ).explore()
        assert result.num_paths == 0
        assert result.hung_workers >= 1
        assert result.worker_deaths >= 1
        assert result.incomplete_paths >= 1
        assert "hung workers" in result.summary()

    @needs_fork
    def test_moderate_hang_rate_subset_or_accounted(self):
        baseline = Explorer(build_executor(), use_cache=True).explore()
        faulted = Explorer(
            build_executor(),
            use_cache=True,
            jobs=2,
            faults=FaultPlan(seed=1, hang_rate=30),
            hang_timeout=0.5,
        ).explore()
        assert_subset_or_accounted(faulted, baseline)

    @needs_fork
    def test_healthy_pool_never_trips_watchdog(self):
        baseline = Explorer(build_executor()).explore()
        result = Explorer(build_executor(), jobs=2).explore()
        assert result.path_set() == baseline.path_set()
        assert result.hung_workers == 0


class TestMemoryGovernor:
    def test_ladder_walks_one_rung_per_pressure_sample(self):
        fired = []
        governor = MemoryGovernor(
            budget_bytes=100, check_interval=1, sampler=lambda: 200
        )
        governor.add_rung("first", lambda: fired.append("first"))
        governor.add_rung("second", lambda: fired.append("second"))
        assert governor.maybe_step()
        assert fired == ["first"]
        assert governor.maybe_step()
        assert fired == ["first", "second"]
        assert governor.exhausted
        # Pressure past the last rung is still counted, never re-fired.
        assert not governor.maybe_step()
        assert fired == ["first", "second"]
        stats = governor.statistics
        assert stats["gov_samples"] == 3
        assert stats["gov_pressure_events"] == 3
        assert stats["gov_rungs_applied"] == 2
        assert stats["gov_rung_first"] == 1

    def test_no_pressure_no_rungs(self):
        governor = MemoryGovernor(
            budget_bytes=100, check_interval=1, sampler=lambda: 50
        )
        governor.add_rung("never", lambda: pytest.fail("rung fired"))
        for _ in range(8):
            assert not governor.maybe_step()
        assert governor.statistics["gov_rungs_applied"] == 0

    def test_check_interval_throttles_sampling(self):
        governor = MemoryGovernor(
            budget_bytes=100, check_interval=4, sampler=lambda: 200
        )
        governor.add_rung("a", lambda: None)
        governor.add_rung("b", lambda: None)
        fires = [governor.maybe_step() for _ in range(8)]
        # Only every 4th tick samples; both samples saw pressure.
        assert governor.statistics["gov_samples"] == 2
        assert fires.count(True) == 2

    def test_standard_ladder_wiring(self):
        """The builder's three rungs: snapshot budget halves, caches
        tighten, capture flips off — in that order."""
        executor = build_executor()
        solver = CachingSolver(solver_config=SolverConfig())
        capture = {"snapshots": True}
        governor = build_exploration_governor(
            1, executor, solver, capture, sampler=lambda: 2**40
        )
        governor.check_interval = 1
        pool_budget = executor.snapshot_pool.max_bytes
        cache_entries = solver.cache._max_entries
        governor.maybe_step()
        assert executor.snapshot_pool.max_bytes == pool_budget // 2
        assert capture["snapshots"]
        governor.maybe_step()
        assert solver.cache._max_entries == max(64, cache_entries // 2)
        assert capture["snapshots"]
        governor.maybe_step()
        assert not capture["snapshots"]
        assert len(executor.snapshot_pool) == 0

    def test_tiny_budget_degrades_but_keeps_path_set(self):
        baseline = Explorer(build_executor(), use_cache=True).explore()
        squeezed = Explorer(
            build_executor(), use_cache=True, memory_budget_mb=0
        ).explore()
        assert squeezed.path_set() == baseline.path_set()
        assert squeezed.degradations >= 1
        assert squeezed.governor_stats["gov_pressure_events"] >= 1
        assert "memory degradations" in squeezed.summary()

    @needs_fork
    def test_tiny_budget_pool_keeps_path_set(self):
        baseline = Explorer(build_executor()).explore()
        squeezed = Explorer(
            build_executor(), jobs=2, memory_budget_mb=0
        ).explore()
        assert squeezed.path_set() == baseline.path_set()

    def test_generous_budget_changes_nothing(self):
        baseline = Explorer(build_executor(), use_cache=True).explore()
        result = Explorer(
            build_executor(), use_cache=True, memory_budget_mb=1 << 20
        ).explore()
        assert result.path_set() == baseline.path_set()
        assert result.degradations == 0


class TestMemhog:
    def test_memhog_serial_keeps_path_set(self):
        baseline = Explorer(build_executor()).explore()
        hogged = Explorer(
            build_executor(), faults=FaultPlan(seed=0, memhog_rate=100)
        ).explore()
        assert hogged.path_set() == baseline.path_set()

    @needs_fork
    def test_memhog_pool_with_governor(self):
        baseline = Explorer(build_executor()).explore()
        hogged = Explorer(
            build_executor(),
            jobs=2,
            faults=FaultPlan(seed=0, memhog_rate=100),
            memory_budget_mb=0,
        ).explore()
        assert hogged.path_set() == baseline.path_set()


class TestAnytimeCheckpointCounters:
    def test_new_counters_round_trip_through_journal(self):
        from repro.core.checkpoint import CheckpointManager

        with tempfile.TemporaryDirectory() as tmp:
            result = Explorer(
                build_executor(),
                use_cache=True,
                checkpoint_dir=tmp,
                memory_budget_mb=0,
            ).explore()
            assert result.degradations >= 1
            state = CheckpointManager(tmp, strategy="dfs", seed=0).load()
            assert state.counters["hung_workers"] == 0
            assert state.stats["gov_rungs_applied"] == result.degradations
            assert state.stats["gov_samples"] == result.governor_stats["gov_samples"]
            restored = Explorer(
                build_executor(),
                use_cache=True,
                checkpoint_dir=tmp,
                resume=True,
                memory_budget_mb=0,
            ).explore()
            assert restored.degradations == result.degradations
