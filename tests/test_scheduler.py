"""Tests for the exploration work-queue layer (core.scheduler)."""

import pytest

from repro.core.parallel import _owned_by as owned_by
from repro.core.scheduler import (
    Frontier,
    RunStats,
    WorkItem,
    deserialize_assignment,
    serialize_assignment,
)
from repro.core.state import InputAssignment
from repro.core.strategy import STRATEGIES, CoverageGuided, make_strategy
from repro.smt import terms as T


def items(count):
    return [WorkItem(InputAssignment(), bound=i, novelty=i % 3) for i in range(count)]


class TestFrontier:
    def test_dfs_pops_lifo(self):
        frontier = Frontier("dfs")
        batch = items(5)
        for item in batch:
            frontier.push(item)
        assert [frontier.pop() for _ in range(5)] == batch[::-1]

    def test_bfs_pops_fifo(self):
        frontier = Frontier("bfs")
        batch = items(5)
        for item in batch:
            frontier.push(item)
        assert [frontier.pop() for _ in range(5)] == batch

    def test_accounting(self):
        frontier = Frontier("dfs")
        for item in items(4):
            frontier.push(item)
        frontier.pop()
        frontier.pop()
        assert frontier.pushed == 4
        assert frontier.popped == 2
        assert frontier.peak == 4
        assert len(frontier) == 2
        assert bool(frontier)

    def test_accepts_strategy_instance(self):
        frontier = Frontier(CoverageGuided())
        frontier.push(WorkItem(InputAssignment(), 0))
        assert len(frontier) == 1


def owned_items(owners):
    """One item per entry of ``owners`` (None = no snapshot), oldest first,
    carrying the pool's ``(worker uid, handle)`` snapshot references."""
    return [
        WorkItem(
            InputAssignment(),
            bound=i,
            novelty=i % 3,
            snapshot=None if owner is None else (owner, i),
        )
        for i, owner in enumerate(owners)
    ]


class TestOwnerPreferringPop:
    def test_dfs_takes_newest_preferred_item(self):
        frontier = Frontier("dfs")
        batch = owned_items([0, 1, 0, 1, 2])
        for item in batch:
            frontier.push(item)
        assert frontier.pop(owned_by(1)) is batch[3]
        assert frontier.pop(owned_by(1)) is batch[1]
        assert frontier.pop(owned_by(0)) is batch[2]

    def test_dfs_steals_oldest_without_match(self):
        frontier = Frontier("dfs")
        batch = owned_items([2, 0, 0, 0])
        for item in batch:
            frontier.push(item)
        assert frontier.pop(owned_by(1)) is batch[0]
        assert frontier.pop(owned_by(1)) is batch[1]
        assert frontier.pop(owned_by(7)) is batch[2]

    def test_dfs_counts_snapshotless_items_as_own(self):
        """An item without a snapshot re-executes on any seat, so every
        seat takes it like its own; a pool that captures nothing pops
        plain LIFO instead of stealing the oldest item every time."""
        frontier = Frontier("dfs")
        batch = owned_items([None, 0, None, 0])
        for item in batch:
            frontier.push(item)
        assert frontier.pop(owned_by(1)) is batch[2]
        assert frontier.pop(owned_by(1)) is batch[0]
        assert frontier.pop(owned_by(1)) is batch[1]
        batch = owned_items([None] * 4)
        for item in batch:
            frontier.push(item)
        assert [frontier.pop(owned_by(1)) for _ in range(4)] == batch[::-1]

    def test_dfs_plain_pop_stays_lifo(self):
        frontier = Frontier("dfs")
        batch = owned_items([0, 1, 0, 1, 0, 1])
        for item in batch:
            frontier.push(item)
        assert frontier.pop(owned_by(0)) is batch[4]
        assert frontier.pop(None) is batch[5]
        assert [frontier.pop() for _ in range(4)] == [
            batch[3],
            batch[2],
            batch[1],
            batch[0],
        ]

    @pytest.mark.parametrize("name", ["bfs", "random", "coverage"])
    def test_other_strategies_ignore_the_preference(self, name):
        def pop_order(prefer):
            frontier = Frontier(name, seed=11)
            batch = owned_items([i % 3 if i % 4 else None for i in range(14)])
            for item in batch[:12]:
                frontier.push(item)
            order = []
            for step in range(14):
                order.append(batch.index(frontier.pop(prefer)))
                if step == 5:
                    # Pushes between pops must not desynchronize either.
                    frontier.push(batch[12])
                    frontier.push(batch[13])
            return order

        assert pop_order(owned_by(1)) == pop_order(None)

    def test_popped_counts_both_kinds(self):
        frontier = Frontier("dfs")
        for item in owned_items([0, 1, 0, 1]):
            frontier.push(item)
        frontier.pop()
        frontier.pop(owned_by(1))
        frontier.pop(owned_by(5))
        assert frontier.pushed == 4
        assert frontier.popped == 3
        assert len(frontier) == 1


class TestStrategyDeterminism:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_pop_order_is_deterministic_per_seed(self, name):
        def pop_order(seed):
            frontier = Frontier(name, seed=seed)
            batch = items(12)
            for item in batch:
                frontier.push(item)
            return [batch.index(frontier.pop()) for _ in range(12)]

        assert pop_order(7) == pop_order(7)

    def test_random_seed_changes_order(self):
        def pop_order(seed):
            strategy = make_strategy("random", seed)
            batch = items(16)
            for item in batch:
                strategy.push(item)
            return [batch.index(strategy.pop()) for _ in range(16)]

        orders = {tuple(pop_order(seed)) for seed in range(6)}
        assert len(orders) > 1  # astronomically unlikely to collide

    def test_coverage_prefers_novelty_then_fifo(self):
        strategy = make_strategy("coverage")
        low_a = WorkItem(InputAssignment(), 0, novelty=1)
        high = WorkItem(InputAssignment(), 1, novelty=9)
        low_b = WorkItem(InputAssignment(), 2, novelty=1)
        for item in (low_a, high, low_b):
            strategy.push(item)
        assert strategy.pop() is high
        assert strategy.pop() is low_a  # FIFO among equal novelty
        assert strategy.pop() is low_b

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("astar")


class TestRunStats:
    def test_merge_accumulates(self):
        a = RunStats(sat_checks=2, unsat_checks=1, cache_hits=3,
                     pruned_queries=1, solver_time=0.5, covered_pcs={4, 8})
        b = RunStats(sat_checks=1, unsat_checks=4, cache_hits=0,
                     pruned_queries=2, solver_time=0.25, covered_pcs={8, 12})
        a.merge(b)
        assert (a.sat_checks, a.unsat_checks) == (3, 5)
        assert a.cache_hits == 3
        assert a.pruned_queries == 3
        assert a.solver_time == pytest.approx(0.75)
        assert a.covered_pcs == {4, 8, 12}


class TestAssignmentSerialization:
    def test_roundtrip_reinterns_variables(self):
        x = T.bv_var("in_0", 8)
        y = T.bv_var("reg_10", 32)
        flag = T.bool_var("flag")
        assignment = InputAssignment({x: 0x41, y: 0xDEADBEEF, flag: 1})
        payload = serialize_assignment(assignment)
        restored = deserialize_assignment(payload)
        # Interned variables: identical term objects, identical values.
        assert restored.values == {x: 0x41, y: 0xDEADBEEF, flag: 1}

    def test_payload_is_plain_data(self):
        import pickle

        x = T.bv_var("in_0", 8)
        payload = serialize_assignment(InputAssignment({x: 7}))
        assert pickle.loads(pickle.dumps(payload)) == payload

    def test_empty_assignment(self):
        assert deserialize_assignment(serialize_assignment(InputAssignment())).values == {}
