"""End-to-end and per-layer benchmark of ``repro explore``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured run is a fresh process (``perfbench/probe.py``) that calls
``repro.cli.main`` with the argv a user would type, using the CLI
defaults.  Runs follow each other in a closed loop, one at a time, until
``--seconds`` have passed; the metrics are medians over the runs.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:
``explore_s`` (wall time of ``Explorer.explore``), ``setup_s`` (process
start until exploration begins; for the warm workload plus the cold run
that fills its store), ``cpu_s`` (user plus system time of the run and
its worker children) and ``peak_rss_mb`` (largest resident set of any
process of the run).  The three times are at nominal machine speed: the
probe's speed sampler times a fixed slice of reference work every 25 ms
of the run and rescales the wall time between slices by it (see
``probe.SpeedSampler``).  On a shared 2-core host the raw times of the
same code drift by half between minutes; the rescaled ones by a few
per cent.  The raw explore time is printed beside each run.
``--trace 1`` alternates untraced runs with runs
whose layer entry points are wrapped in spans, and prints the per-layer
metrics: span times and calls, the engine's own counters, the tracing
overhead, and a check of which counters repeat exactly across runs and
``PYTHONHASHSEED`` values (``perfbench/layers.json`` lists the counters
expected to).

The seed fixes the ``PYTHONHASHSEED`` of every run.  A run fails if it
exits abnormally, if the output oracle (``perfbench/oracle.py``) rejects
its paths, or if it finished degraded (a non-zero health counter).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` over
``attempted`` is the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
from probe import RECORD_PREFIX  # noqa: E402

HERE = Path(__file__).resolve().parent
#: Scratch space for stores, under the checkout root; removed on exit.
WORK_DIR = ".bench_work"
#: Address of the symbolic input buffer in every program.
INPUT_BASE = 0x20000
#: Hard limit on one invocation, kept under three minutes.
INVOCATION_LIMIT_S = 170.0
#: Cold runs that fill a store, per timed and per traced invocation of
#: the warm workload; the timed set-up time takes their median.
TIMED_FILLS = 1
TRACED_FILLS = 1

#: Result fields that must be zero (or false) on a healthy run.
HEALTH_FIELDS = (
    "unknown_queries",
    "incomplete_paths",
    "worker_deaths",
    "hung_workers",
    "degradations",
    "deadline_expired",
    "certificate_failures",
    "interrupted",
    "truncated",
)
HEALTH_SOLVER_FIELDS = ("store_quarantines", "store_disabled")


@dataclass(frozen=True)
class Workload:
    program: str
    #: Symbolic input bytes, at INPUT_BASE.
    size: int
    #: ``check(inputs, size)`` from perfbench/oracle.py.
    check: Callable[[list, int], list]
    flags: tuple = ()
    #: Measure warm runs against a store that cold ``--certify`` runs fill.
    warm: bool = False

    def argv(self, store: Optional[Path] = None) -> list[str]:
        argv = ["explore", f"perfbench/programs/{self.program}", *self.flags]
        if store is not None:
            argv += ["--store", str(store)]
        return argv

    def problems(self, inputs: list[bytes]) -> list[str]:
        return self.check(inputs, self.size)


WORKLOADS = {
    "bubble-sort-6": Workload("bubble_sort6.s", 6, oracle.check_sort),
    "insertion-sort-7-jobs2": Workload(
        "insertion_sort7.s", 7, oracle.check_sort, ("--jobs", "2")
    ),
    "base64-encode-4": Workload("base64_encode4.s", 4, oracle.check_base64),
    "bubble-sort-6-certified-warm": Workload(
        "bubble_sort6.s", 6, oracle.check_sort, ("--certify",), warm=True
    ),
}


def at_nominal_speed(record: dict, wall: Optional[float] = None) -> dict:
    """A sampled run's times at nominal machine speed.

    Set-up and explore time are the speed sampler's per-phase
    ``nominal_s`` (see ``probe.SpeedSampler``).  CPU time less the
    slices' CPU time, and for a store fill the wall time ``wall`` spent
    after exploration, are rescaled by the run's mean speed.
    """
    setup, explore = record["reference"]["setup"], record["reference"]["explore"]
    nominal = setup["nominal_s"] + explore["nominal_s"]
    measured = (record["setup_s"] + record["explore_s"]
                - setup["slice_wall_s"] - explore["slice_wall_s"])
    speed = nominal / measured
    slice_cpu = setup["slice_cpu_s"] + explore["slice_cpu_s"]
    values = {
        "setup_s": setup["nominal_s"],
        "explore_s": explore["nominal_s"],
        "cpu_s": (record["cpu_s"] - slice_cpu) * speed,
        "peak_rss_mb": record["peak_rss_mb"],
    }
    if wall is not None:
        after = wall - record["setup_s"] - record["explore_s"]
        values["wall_s"] = nominal + after * speed
    return values


def _ratio(numerator, denominator):
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def layer_values(record: dict, workload: Workload) -> dict:
    """Per-layer metric values of one run; ``None`` where unreachable.

    Span metrics need a traced run.  In-process metrics (spans below the
    explorer and the SAT core's own counters) are unreachable when pool
    workers ran the layers: their spans stay in the worker, and only the
    counters the workers ship home are reported.
    """
    result = record["result"]
    solver = record["solver_stats"]
    snap = record["snapshot_stats"]
    sb = record["superblock_stats"]
    sat = record["sat_stats"]
    spans = record.get("spans")
    pooled = result["workers"] > 1
    certify = "--certify" in workload.flags

    def span(name, field):
        if spans is None:
            return None
        entry = spans.get(name)
        return entry[field] if entry else 0

    def local(value):
        return None if pooled else value

    def only(flag, value):
        return value if flag else None

    executed = result["executed_instructions"]
    flips = sum(
        result[key]
        for key in ("sat_checks", "unsat_checks", "cache_hits",
                    "fast_path_answers", "unknown_queries")
    )
    interval_decided = solver.get("interval_sat", 0) + solver.get("interval_unsat", 0)
    return {
        "executor.busy_s": local(span("executor", 1)),
        "executor.calls": local(span("executor", 0)),
        "executor.instructions": executed,
        "executor.total_instructions": result["total_instructions"],
        # Certificate replays run through the executor too, but their
        # instructions are not in the executed count.
        "executor.instr_per_s": only(
            not certify, local(_ratio(executed, span("executor", 1)))
        ),
        "snapshots.resumed_ratio": _ratio(
            snap.get("snap_resumed_runs", 0), result["num_paths"]
        ),
        "snapshots.saved_instructions": snap.get("snap_saved_instructions", 0),
        "snapshots.fallback_runs": snap.get("snap_fallback_runs", 0),
        "snapshots.pool_evictions": snap.get("snap_pool_evictions", 0),
        "superblock.block_instr_ratio": _ratio(
            sb.get("sb_block_instructions", 0), executed
        ),
        "superblock.blocks_built": sb.get("sb_blocks_built", 0),
        "superblock.deopts": sb.get("sb_deopts", 0),
        "explorer.self_s": span("explorer", 2),
        "explorer.runs": result["num_paths"],
        "explorer.frontier_peak": result["frontier_peak"],
        "query.check_s": local(span("query", 1)),
        "query.self_s": local(span("query", 2)),
        "query.hit_ratio": _ratio(result["cache_hits"], flips),
        "query.exact_hits": solver.get("cache_exact_hits", 0),
        "query.subsumption_hits": solver.get("cache_subsumption_hits", 0),
        "query.model_reuse_hits": solver.get("cache_model_reuse_hits", 0),
        "query.fast_path": result["fast_path_answers"],
        "preprocess.slice_s": local(span("preprocess.slice", 1)),
        "preprocess.rewrite_s": local(span("preprocess.rewrite", 1)),
        "preprocess.slices": solver.get("slices", 0),
        "preprocess.rewrite_decided": (
            solver.get("rewrite_sat", 0) + solver.get("rewrite_unsat", 0)
        ),
        "intervals.analyze_s": local(span("intervals", 1)),
        "intervals.calls": local(span("intervals", 0)),
        "intervals.decided_ratio": local(
            _ratio(interval_decided, span("intervals", 0))
        ),
        "scheduler.expand_s": local(span("scheduler", 1)),
        "scheduler.flip_queries": flips,
        "scheduler.pruned_queries": result["pruned_queries"],
        "bitblast.s": local(span("bitblast", 1)),
        "bitblast.sat_vars": local(sat.get("sat_vars", 0)),
        "sat.solve_s": local(span("sat", 1)),
        "sat.solve_calls": solver.get("sat_core_solves", 0),
        "sat.propagations": local(sat.get("propagations", 0)),
        "sat.conflicts": local(sat.get("conflicts", 0)),
        "sat.decisions": local(sat.get("decisions", 0)),
        "sat.trail_reused_lits": solver.get("sat_trail_reused_lits", 0),
        "sat.core_minimize_solves": solver.get("sat_core_minimize_solves", 0),
        "drat.check_s": only(certify, local(span("drat", 1))),
        "certificates.verify_s": only(certify, span("certificates", 1)),
        "certificates.paths": only(certify, result["certified_paths"]),
        "store.load_s": only(workload.warm, local(span("store", 1))),
        "store.hits": only(workload.warm, solver.get("store_hits", 0)),
        "store.hit_ratio": only(
            workload.warm,
            local(_ratio(solver.get("store_hits", 0), span("store", 0))),
        ),
        "parallel.worker_cpu_s": only(pooled, record["explore_children_cpu_s"]),
        "parallel.efficiency": only(
            pooled,
            _ratio(record["explore_children_cpu_s"],
                   result["workers"] * record["explore_s"]),
        ),
        "parallel.parent_wait_s": only(
            pooled, record["explore_s"] - record["explore_self_cpu_s"]
        ),
        "parallel.cross_worker_items": only(
            pooled, snap.get("snap_cross_worker_items", 0)
        ),
        "parallel.worker_deaths": only(pooled, result["worker_deaths"]),
    }


class Bench:
    """One invocation: spawns the runs, checks them, keeps the samples."""

    def __init__(self, root: Path, work: Path, name: str, seed: int):
        self.root = root
        self.work = work
        self.name = name
        self.workload = WORKLOADS[name]
        self.rng = random.Random(f"{name}/{seed}")
        self.deadline = time.monotonic() + INVOCATION_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []
        #: Run the probe's speed sampler (timed runs only).
        self.sampled = False
        #: Stable argsorts of the cold run that filled each store.
        self.cold_orders: dict[Path, set] = {}

    def spawn(self, argv: list[str], traced: bool) -> Optional[tuple[dict, float]]:
        """Run one probe; returns (record, wall seconds) or None on failure."""
        self.attempted += 1
        label = f"run {self.attempted}"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            self.failures.append(f"{label}: no time left")
            return None
        command = [sys.executable, str(HERE / "probe.py"),
                   "--inputs", f"{INPUT_BASE:#x}:{self.workload.size}"]
        if traced:
            command.append("--trace")
        if self.sampled:
            command.append("--sample")
        command += ["--", *argv]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = str(self.rng.randrange(1, 2**32 - 1))
        spawned_at = time.monotonic()
        env["PERFBENCH_SPAWNED_AT"] = repr(spawned_at)
        process = subprocess.Popen(
            command, cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=timeout)
        except BaseException as error:
            # The run's session holds it and any pool workers it forked.
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            if not isinstance(error, subprocess.TimeoutExpired):
                raise
            self.failures.append(f"{label}: timed out after {timeout:.0f} s")
            return None
        wall = time.monotonic() - spawned_at
        lines = [line for line in stdout.splitlines() if line.startswith(RECORD_PREFIX)]
        if process.returncode != 0 or not lines:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            self.failures.append(
                f"{label}: exit code {process.returncode}: {tail[0]}"
            )
            return None
        try:
            record = json.loads(lines[-1][len(RECORD_PREFIX):])
        except ValueError as error:
            self.failures.append(f"{label}: unreadable record: {error}")
            return None
        problems = self.check(record)
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
            return None
        return record, wall

    def check(self, record: dict) -> list[str]:
        """Oracle, oracle self-test and health check of one run."""
        problems = []
        if record["exit_code"] != 0:
            problems.append(f"the CLI returned {record['exit_code']}")
        if self.sampled and not record["reference"]["explore"]["slices"]:
            problems.append("no speed sample during exploration")
        result, solver = record["result"], record["solver_stats"]
        for field in HEALTH_FIELDS:
            if result.get(field):
                problems.append(f"degraded: {field} = {result[field]}")
        for field in HEALTH_SOLVER_FIELDS:
            if solver.get(field):
                problems.append(f"degraded: {field} = {solver[field]}")
        inputs = [bytes.fromhex(row) for row in record["inputs"]]
        problems += self.workload.problems(inputs)
        problems += oracle.rejects_broken_copies(self.workload.problems, inputs)
        return problems

    def fill(self, store: Path) -> Optional[float]:
        """Fill ``store`` with a cold certified run; returns its wall time
        (at nominal speed when sampled)."""
        outcome = self.spawn(self.workload.argv(store), traced=False)
        if outcome is None:
            return None
        record, wall = outcome
        if record["result"]["sat_solves"] == 0:
            self.failures.append(f"run {self.attempted}: the cold run solved nothing")
            return None
        self.cold_orders[store] = oracle.sort_orders(
            [bytes.fromhex(row) for row in record["inputs"]]
        )
        if self.sampled:
            return at_nominal_speed(record, wall)["wall_s"]
        return wall

    def measure(self, traced: bool, store: Optional[Path]) -> Optional[dict]:
        """One measured run; the warm workload reads ``store``."""
        outcome = self.spawn(self.workload.argv(store), traced)
        if outcome is None:
            return None
        record = outcome[0]
        if store is not None:
            problems = []
            if record["result"]["sat_solves"] != 0:
                problems.append(f"warm run made {record['result']['sat_solves']} SAT solves")
            if not record["solver_stats"].get("store_hits"):
                problems.append("warm run had no store hits")
            inputs = [bytes.fromhex(row) for row in record["inputs"]]
            if oracle.sort_orders(inputs) != self.cold_orders[store]:
                problems.append("warm path set differs from the cold run's")
            if problems:
                self.failures.append(f"run {self.attempted}: " + "; ".join(problems))
                return None
        return record

    def stores(self, count: int) -> tuple[list[Path], list[float]]:
        """Fill ``count`` stores (warm workload only)."""
        if not self.workload.warm:
            return [None], []
        stores, walls = [], []
        for index in range(count):
            store = self.work / f"store{index}"
            wall = self.fill(store)
            if wall is not None:
                stores.append(store)
                walls.append(wall)
        return stores, walls

    def timed(self, seconds: float) -> Optional[dict]:
        """End-to-end metrics: medians over untraced, sampled runs, at
        nominal speed."""
        self.sampled = True
        stores, fill_walls = self.stores(TIMED_FILLS)
        if not stores:
            return None
        runs = []
        start = time.monotonic()
        while time.monotonic() - start < seconds and time.monotonic() < self.deadline:
            record = self.measure(False, stores[self.attempted % len(stores)])
            if record is not None:
                runs.append(at_nominal_speed(record))
                explore = record["reference"]["explore"]
                print(f"run {self.attempted}: explore {record['explore_s']:.3f} s "
                      f"(nominal {runs[-1]['explore_s']:.3f} s, slice "
                      f"{1000 * explore['slice_cpu_s'] / explore['slices']:.2f} ms), "
                      f"setup {runs[-1]['setup_s']:.3f} s, cpu {runs[-1]['cpu_s']:.3f} s, "
                      f"rss {record['peak_rss_mb']:.1f} MB")
        if not runs:
            return None
        metrics = {name: statistics.median([r[name] for r in runs]) for name in runs[0]}
        if fill_walls:
            metrics["setup_s"] += statistics.median(fill_walls)
        return metrics

    def traced(self, seconds: float, timings: set, exact_on: dict) -> Optional[dict]:
        """Per-layer metrics: traced runs alternating with untraced ones.

        Counters come from the first traced run, ``timings`` (times and
        rates) are medians over all traced runs.
        """
        stores, _ = self.stores(TRACED_FILLS)
        if not stores:
            return None
        plain, traced = [], []
        start = time.monotonic()
        schedule = [False, True, True]
        while time.monotonic() < self.deadline and (
            schedule or time.monotonic() - start < seconds
        ):
            trace = schedule.pop(0) if schedule else len(traced) <= len(plain)
            record = self.measure(trace, stores[0])
            if record is not None:
                (traced if trace else plain).append(record)
        if not traced or not plain:
            return None
        values = [layer_values(r, self.workload) for r in traced]
        metrics = dict(values[0])
        for name, value in values[0].items():
            if name in timings and value is not None:
                metrics[name] = statistics.median([v[name] for v in values])
        traced_explore = statistics.median([r["explore_s"] for r in traced])
        plain_explore = statistics.median([r["explore_s"] for r in plain])
        metrics["trace.explore_s"] = traced_explore
        metrics["trace.overhead_s"] = traced_explore - plain_explore
        metrics["trace.overhead_ratio"] = traced_explore / plain_explore - 1.0
        metrics["trace.span_coverage"] = statistics.median([
            sum(entry[2] for entry in r["spans"].values()) / r["explore_s"]
            for r in traced
        ])
        missing = traced[0].get("missing_entry_points", [])
        metrics["trace.missing_entry_points"] = len(missing)
        for entry_point in missing:
            print(f"trace: entry point not found: {entry_point}")
        repeated, broken = self.repeatability(
            values + [layer_values(r, self.workload) for r in plain],
            timings,
            exact_on,
        )
        metrics["selfcheck.exact_counters"] = len(repeated)
        metrics["selfcheck.exact_mismatches"] = len(broken)
        for name in broken:
            print(f"selfcheck: {name} is listed as exact but did not repeat")
        return metrics

    def repeatability(self, values: list[dict], timings: set, exact_on: dict):
        """Counters that repeat across this invocation's runs, and the
        counters ``layers.json`` lists as exact that did not."""
        repeated, broken = [], []
        for name in values[0]:
            if name in timings:
                continue
            seen = [v[name] for v in values if v[name] is not None]
            if len(seen) < 2:
                continue
            if len(set(seen)) == 1:
                repeated.append(name)
            elif self.name in exact_on.get(name, ()):
                broken.append(name)
        return repeated, broken


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("perfbench: run from the root of a checkout (src/repro/cli.py "
              "not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    exact_on = {name: entry["exact_on"] for name, entry in layers["metrics"].items()}

    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(root, work, args.workload, args.seed)
    try:
        if args.trace:
            declared = spec["per_layer"]
            timings = {e["name"] for e in declared if e["unit"] in ("s", "1/s", "s/s")}
            values = bench.traced(args.seconds, timings, exact_on)
        else:
            values = bench.timed(args.seconds)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation still uses it
    for failure in bench.failures:
        print(f"FAILED {failure}")
    if values is None:
        print("perfbench: no run succeeded", file=sys.stderr)
        return 1
    unreachable = sorted(name for name, value in values.items() if value is None)
    if unreachable:
        print("not reachable on this workload (reported as 0): "
              + ", ".join(unreachable))
    metrics = {
        entry["name"]: {
            "value": float(values.get(entry["name"]) or 0.0),
            "unit": entry["unit"],
        }
        for entry in declared
    }
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
