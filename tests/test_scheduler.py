"""Tests for the exploration work-queue layer (core.scheduler)."""

import pytest

from repro.core.scheduler import (
    Frontier,
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


class TestSteal:
    def test_dfs_steals_the_oldest_item(self):
        """A worker that ran dry gets the bottom of the busiest worker's
        stack: the shallowest item, and so the largest subtree."""
        frontier = Frontier("dfs")
        batch = items(5)
        for item in batch:
            frontier.push(item)
        assert frontier.steal() is batch[0]
        assert frontier.pop() is batch[4]
        assert frontier.steal() is batch[1]
        assert [frontier.pop() for _ in range(2)] == [batch[3], batch[2]]
        assert frontier.popped == 5
        assert not frontier

    @pytest.mark.parametrize("name", ["bfs", "random", "coverage"])
    def test_other_strategies_steal_what_pop_would_take(self, name):
        def order(steal_every):
            frontier = Frontier(name, seed=11)
            batch = items(12)
            for item in batch:
                frontier.push(item)
            return [
                batch.index(
                    frontier.steal() if step % steal_every == 0 else frontier.pop()
                )
                for step in range(12)
            ]

        assert order(2) == order(13)


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
