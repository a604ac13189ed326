"""Exploration-driver benchmarks: serial vs parallel, cache on vs off.

Measures the two throughput levers this layer provides on top of the
paper's offline executor:

* **worker pool** — identical path sets from 1 vs N forked workers;
  wall-clock improves once per-path execution dominates dispatch cost
  (tiny workloads mostly measure the pool overhead, which is itself
  worth tracking),
* **cross-path query cache** — solved-query counts with and without the
  cache, including the multi-engine scenario (the difftest/eval drivers
  explore one image with four engines; a shared cache answers the
  repeat queries without touching the SAT core).

Path-set equality is asserted on every comparison: neither lever is
allowed to change what exploration finds.
"""

import multiprocessing

import pytest

from repro.core import BinSymExecutor, Explorer
from repro.eval.engines import make_engine
from repro.eval.workloads import WORKLOADS
from repro.smt.solver import CachingSolver
from repro.spec import rv32im

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

_EXPECTED_PATHS = 24  # bubble-sort at scale 4


@pytest.fixture(scope="module")
def isa():
    return rv32im()


@pytest.fixture(scope="module")
def image():
    return WORKLOADS["bubble-sort"].image(4)


def explore(isa, image, **kwargs):
    return Explorer(BinSymExecutor(isa, image), **kwargs).explore()


@pytest.mark.parametrize(
    "jobs",
    [1, 2, 4],
    ids=["serial", "jobs2", "jobs4"],
)
def test_exploration_jobs(benchmark, isa, image, jobs):
    benchmark.group = "explorer:jobs"
    if jobs > 1 and not HAS_FORK:
        pytest.skip("fork start method unavailable")
    reference = explore(isa, image)

    def run():
        return explore(isa, image, jobs=jobs)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.num_paths == _EXPECTED_PATHS
    assert result.path_set() == reference.path_set()
    benchmark.extra_info["paths"] = result.num_paths
    benchmark.extra_info["workers"] = result.workers
    # Anytime counters: deterministically zero on a healthy benchmark
    # run; bench_compare.py gates on them so a silently degraded run
    # can never pass as a performance baseline.
    benchmark.extra_info["deadline_expired"] = int(result.deadline_expired)
    benchmark.extra_info["degradations"] = result.degradations
    benchmark.extra_info["hung_workers"] = result.hung_workers
    # Persistent-store health: benchmarks run without --store, so both
    # must be exactly zero — non-zero means a store tier leaked into
    # the benchmark configuration or an artifact failed verification.
    benchmark.extra_info["store_quarantines"] = result.store_quarantines
    benchmark.extra_info["store_disabled"] = result.store_disabled


@pytest.mark.parametrize("cache", [False, True], ids=["cache-off", "cache-on"])
def test_single_exploration_query_counts(benchmark, isa, image, cache):
    benchmark.group = "explorer:cache"
    reference = explore(isa, image, use_cache=False)

    def run():
        return explore(isa, image, use_cache=cache)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.path_set() == reference.path_set()
    if cache:
        # Exact hits and UNSAT subsumption fire even within one
        # exploration: strictly fewer queries reach the SAT core.
        assert result.num_queries < reference.num_queries
        assert result.cache_hits > 0
    benchmark.extra_info["solved_queries"] = result.num_queries
    benchmark.extra_info["cache_hits"] = result.cache_hits


@pytest.mark.parametrize("cache", [False, True], ids=["cache-off", "cache-on"])
def test_multi_engine_query_counts(benchmark, isa, image, cache):
    """The eval/difftest pattern: four engines, one workload."""
    benchmark.group = "explorer:cache"
    engines = ("binsym", "binsec", "symex-vp", "angr")

    def run():
        shared = CachingSolver() if cache else None
        total_queries = 0
        total_hits = 0
        for key in engines:
            result = Explorer(
                make_engine(key, isa, image), solver=shared
            ).explore()
            assert result.num_paths == _EXPECTED_PATHS
            total_queries += result.num_queries
            total_hits += result.cache_hits
        return total_queries, total_hits

    queries, hits = benchmark.pedantic(run, rounds=1, iterations=1)
    if cache:
        # Engines after the first answer nearly everything from cache.
        assert hits > queries
    benchmark.extra_info["solved_queries"] = queries
    benchmark.extra_info["cache_hits"] = hits
