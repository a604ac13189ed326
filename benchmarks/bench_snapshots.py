"""Snapshot-resumed exploration: replay reduction and wall-time wins.

``BENCH_PR4.json`` left redundant prefix re-execution as the dominant
remaining exploration cost: the offline executor restarts the SUT from
the entry point for every flipped branch even though sibling paths
share almost their entire prefix.  PR 5's snapshot layer
(:mod:`repro.core.snapshots`) resumes each child run at its divergence
point instead.  The benchmarks here measure, over the Fig. 6 workload
set:

* **replayed instructions per exploration** with snapshots on vs off —
  the contract pins the >= 2x reduction the PR promises,
* **snapshot-pool behaviour** — resume rate (every non-root run on a
  DFS schedule), capture counts and eviction-driven fallbacks,
* **the pooled replay contract** — with ``--jobs 2`` flip children stay
  on the worker that captured their snapshot, so steals are rare and
  the pool replays about what a serial run does,
* **exploration wall time** on vs off, timed.

Identity contracts are asserted on every comparison: both builds must
discover the same path sets with the same query attribution — the
snapshot layer only changes how much of each path is re-executed.
Timings and derived metrics land in ``extra_info`` for the CI benchmark
JSON artifact (compare against ``BENCH_PR5.json``).
"""

import time

import pytest

from repro.core import BinSymExecutor, Explorer
from repro.eval.workloads import WORKLOADS
from repro.spec import rv32im

_FIG6_WORKLOADS = (
    "bubble-sort",
    "insertion-sort",
    "base64-encode",
    "uri-parser",
    "clif-parser",
)

_ATTRIBUTION = (
    "sat_checks",
    "unsat_checks",
    "cache_hits",
    "fast_path_answers",
    "sat_solves",
    "pruned_queries",
    "total_instructions",
)


def _explore(image, snapshots, **kwargs):
    engine = BinSymExecutor(rv32im(), image)
    return Explorer(
        engine, use_cache=True, snapshots=snapshots, **kwargs
    ).explore()


def _assert_identical(on, off, context):
    assert on.path_set() == off.path_set(), context
    for key in _ATTRIBUTION:
        assert getattr(on, key) == getattr(off, key), (context, key)


# ---------------------------------------------------------------------------
# The replay-reduction contract (the PR's headline metric)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", _FIG6_WORKLOADS)
def test_replayed_instructions_contract(benchmark, name):
    """Snapshots must cut executed instructions >= 2x, results identical."""
    benchmark.group = f"snapshots:replay:{name}"
    # The quick default scales leave too little shared prefix for the
    # sharpest workloads; the Fig. 6 timing scale is where the replay
    # contract is stated (and where exploration cost actually lives).
    spec = WORKLOADS[name]
    image = spec.image(spec.fig6_scale)

    def run():
        return _explore(image, snapshots=True)

    on = benchmark.pedantic(run, rounds=3, iterations=1)
    off = _explore(image, snapshots=False)
    _assert_identical(on, off, name)

    # Snapshots off: every instruction of every path is executed.
    assert off.executed_instructions == off.total_instructions
    # The contract: total replayed instructions drop at least 2x.
    assert on.executed_instructions * 2 <= off.executed_instructions, (
        name,
        on.executed_instructions,
        off.executed_instructions,
    )
    # DFS pops the deepest (most recently captured) child first, so
    # every non-root run resumes from a live snapshot.
    assert on.resumed_runs == on.num_paths - 1

    benchmark.extra_info["paths"] = on.num_paths
    benchmark.extra_info["instructions_total"] = on.total_instructions
    benchmark.extra_info["instructions_executed"] = on.executed_instructions
    benchmark.extra_info["instructions_saved"] = on.saved_instructions
    benchmark.extra_info["replay_reduction"] = round(
        off.executed_instructions / max(on.executed_instructions, 1), 2
    )
    benchmark.extra_info["resumed_runs"] = on.resumed_runs
    benchmark.extra_info["snapshots_captured"] = on.snapshot_stats.get(
        "snap_captured", 0
    )
    benchmark.extra_info["pool_hit_rate"] = round(
        on.snapshot_stats.get("snap_pool_hits", 0)
        / max(
            on.snapshot_stats.get("snap_pool_hits", 0)
            + on.snapshot_stats.get("snap_pool_misses", 0),
            1,
        ),
        3,
    )


@pytest.mark.parametrize("name", ("bubble-sort", "insertion-sort"))
def test_pooled_replay_contract(benchmark, name):
    """``--jobs 2`` keeps flip children on the worker holding their
    snapshot: at most 10% of items are steals re-executed from the
    entry point, and the pool executes at most 1.25x the serial run's
    instructions.  Steals depend on reply timing, so the pooled counters
    vary between runs and stay out of the deterministic gate's keys."""
    benchmark.group = f"snapshots:pooled:{name}"
    spec = WORKLOADS[name]
    image = spec.image(spec.fig6_scale)

    def run():
        return _explore(image, snapshots=True, jobs=2)

    pooled = benchmark.pedantic(run, rounds=3, iterations=1)
    serial = _explore(image, snapshots=True)
    assert pooled.path_set() == serial.path_set(), name
    cross = pooled.snapshot_stats["snap_cross_worker_items"]
    assert cross * 10 <= pooled.num_paths, (name, cross)
    assert (
        pooled.executed_instructions * 100
        <= serial.executed_instructions * 125
    ), (name, pooled.executed_instructions, serial.executed_instructions)

    benchmark.extra_info["paths"] = pooled.num_paths
    benchmark.extra_info["pooled_executed_instructions"] = (
        pooled.executed_instructions
    )
    benchmark.extra_info["cross_worker_items"] = cross


# ---------------------------------------------------------------------------
# Wall-time comparison (timed; compare against BENCH_PR5.json)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ("bubble-sort", "insertion-sort"))
def test_exploration_wall_time(benchmark, name):
    """On-vs-off wall time on the two longest-prefix workloads."""
    benchmark.group = f"snapshots:wall:{name}"
    image = WORKLOADS[name].image()

    def run():
        return _explore(image, snapshots=True)

    start = time.perf_counter()
    on = benchmark.pedantic(run, rounds=3, iterations=1)
    elapsed_on = time.perf_counter() - start

    start = time.perf_counter()
    off = _explore(image, snapshots=False)
    elapsed_off = time.perf_counter() - start
    _assert_identical(on, off, name)

    benchmark.extra_info["paths"] = on.num_paths
    # Coarse single-run numbers; BENCH_PR5.json carries best-of-N.
    benchmark.extra_info["wall_on_s"] = round(elapsed_on / 3, 4)
    benchmark.extra_info["wall_off_s"] = round(elapsed_off, 4)


# ---------------------------------------------------------------------------
# Pool starvation: eviction fallback must degrade, never break
# ---------------------------------------------------------------------------


def test_pool_starvation_fallback(benchmark):
    benchmark.group = "snapshots:starved-pool"
    image = WORKLOADS["bubble-sort"].image()

    def run():
        engine = BinSymExecutor(rv32im(), image)
        engine.snapshot_pool.max_bytes = 2 * 4096 * 4  # two live snapshots
        return Explorer(engine, use_cache=True, snapshots=True).explore()

    starved = benchmark.pedantic(run, rounds=3, iterations=1)
    reference = _explore(image, snapshots=False)
    _assert_identical(starved, reference, "starved-pool")
    assert starved.snapshot_stats["snap_pool_evictions"] > 0
    assert starved.snapshot_stats["snap_fallback_runs"] > 0
    benchmark.extra_info["evictions"] = starved.snapshot_stats[
        "snap_pool_evictions"
    ]
    benchmark.extra_info["fallback_runs"] = starved.snapshot_stats[
        "snap_fallback_runs"
    ]
    benchmark.extra_info["resumed_runs"] = starved.resumed_runs
