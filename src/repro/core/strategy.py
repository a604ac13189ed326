"""Path-selection strategies for the offline executor.

The paper's BinSym uses depth-first search (Sect. III-B); BFS and a
seeded random strategy are provided for the search-strategy ablation
(``benchmarks/bench_ablation_search.py``).  A strategy is just a
worklist policy: ``push`` pending flip candidates, ``pop`` the next one,
and ``steal`` the one the worker pool hands a worker that ran dry.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Any

__all__ = [
    "Strategy",
    "DepthFirst",
    "BreadthFirst",
    "RandomChoice",
    "CoverageGuided",
    "STRATEGIES",
    "make_strategy",
]


class Strategy:
    """Worklist interface (items are opaque to the strategy)."""

    def push(self, item: Any) -> None:
        raise NotImplementedError

    def pop(self) -> Any:
        raise NotImplementedError

    def steal(self) -> Any:
        """Remove the item to hand a worker that ran dry.

        The worker pool asks the busiest worker for it.  By default that
        is what :meth:`pop` would take next.
        """
        return self.pop()

    def items(self) -> list:
        """Non-destructive snapshot of the pending items.

        Order is unspecified (policy-internal); checkpointing re-pushes
        the snapshot into a fresh strategy on resume.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0


class DepthFirst(Strategy):
    """LIFO worklist — the paper's configuration."""

    def __init__(self) -> None:
        self._items: list = []

    def push(self, item) -> None:
        self._items.append(item)

    def pop(self):
        return self._items.pop()

    def steal(self):
        """The oldest item: the one :meth:`pop` would take last, and the
        shallowest, so the largest subtree to keep the thief busy."""
        return self._items.pop(0)

    def items(self) -> list:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)


class BreadthFirst(Strategy):
    """FIFO worklist."""

    def __init__(self) -> None:
        self._items: deque = deque()

    def push(self, item) -> None:
        self._items.append(item)

    def pop(self):
        return self._items.popleft()

    def items(self) -> list:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)


class RandomChoice(Strategy):
    """Uniformly random worklist (seeded for reproducibility)."""

    def __init__(self, seed: int = 0) -> None:
        self._items: list = []
        self._rng = random.Random(seed)

    def push(self, item) -> None:
        self._items.append(item)

    def pop(self):
        index = self._rng.randrange(len(self._items))
        self._items[index], self._items[-1] = self._items[-1], self._items[index]
        return self._items.pop()

    def items(self) -> list:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)


class CoverageGuided(Strategy):
    """Max-heap on the pusher-supplied *novelty* score.

    The exploration driver scores each frontier entry with the number of
    previously-uncovered branch PCs its parent run discovered; entries
    descending from coverage-expanding runs are explored first.  Items
    without a ``novelty`` attribute score 0.  Ties break FIFO via a
    monotone sequence number, which makes pop order fully deterministic
    — the seed parameter exists only for interface uniformity.
    """

    def __init__(self, seed: int = 0) -> None:
        self._heap: list = []
        self._seq = 0

    def push(self, item) -> None:
        novelty = getattr(item, "novelty", 0)
        heapq.heappush(self._heap, (-novelty, self._seq, item))
        self._seq += 1

    def pop(self):
        return heapq.heappop(self._heap)[2]

    def items(self) -> list:
        return [entry[2] for entry in self._heap]

    def __len__(self) -> int:
        return len(self._heap)


#: name -> factory taking the exploration seed.
STRATEGIES = {
    "dfs": lambda seed: DepthFirst(),
    "bfs": lambda seed: BreadthFirst(),
    "random": RandomChoice,
    "coverage": CoverageGuided,
}


def make_strategy(name: str, seed: int = 0) -> Strategy:
    """Factory: ``dfs`` (default), ``bfs``, ``random`` or ``coverage``."""
    factory = STRATEGIES.get(name)
    if factory is None:
        raise ValueError(f"unknown strategy {name!r}")
    return factory(seed)
