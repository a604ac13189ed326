#!/usr/bin/env python3
"""CI chaos gate: the fault-tolerance invariant on the Fig. 6 workloads.

Each workload is explored twice — once clean, once under a seeded
``FaultPlan`` (worker kills, solver give-ups, snapshot eviction storms,
queue hiccups) — in serial and on a 4-worker pool.  The gate asserts
the PR 7 degradation contract on every run:

* the faulted paths are a sub-multiset of the clean ones (a chaos run
  must never *invent* paths, nor record one twice), and
* any shortfall is explicitly accounted: ``unknown_queries`` +
  ``incomplete_paths`` must be positive whenever a clean path is missing
  (silent path loss is the one forbidden outcome), and
* a schedule that reports no degradation found the identical paths.

Paths are compared as multisets of their ``path_set()`` key (halt
reason, exit code, trace length, stdout, final pc): every bubble-sort
path has the same key, so comparing sets would miss a lost or doubled
sort path while one path with that key survives.

``--corrupt`` runs the *cache-corruption* gate instead: each workload
is explored under a ``corrupt=`` schedule that bit-flips freshly stored
query-cache entries after their integrity digest is taken.  The
contract is stricter than the degradation one — corruption must be
*absorbed*, not degraded around:

* the paths are **identical** to the clean run's (a poisoned cached
  answer must be quarantined and re-solved, never served),
* total query attribution is conserved (a poisoned hit becomes a miss
  plus a fresh solve; no query disappears),
* the schedule fires on every workload, and
* at least one quarantine is observed over the workload set, proving
  poisoned entries are detected when read back.  Only a cache hit
  reads an entry back, so a workload without hits can neither serve
  nor detect its poison.

``--hang`` runs the PR 9 *liveness* gate: pool workers are wedged by a
``hang=`` schedule (heartbeats stop, the task is never answered) and
the heartbeat watchdog must detect, kill and recover every one of them
— the run terminates with the subset-plus-counters invariant intact
and ``hung_workers`` counting the recoveries.  A final
watchdog-recovery self-test wedges *every* task (``hang=100``) and
asserts the pool still drains: zero paths, everything accounted as
``incomplete_paths``, no wedged parent.

``--deadline-gate`` runs the PR 9 *anytime* gate: each workload is cut
by a global ``--deadline`` (immediately, and half way through the same
mode's uninterrupted run) into a checkpointed partial result whose
shortfall is explicitly counted, then ``--resume``d — the journal must
hold the cut's paths and pending items, a resume must read it (a
bit-flipped copy is rejected), and the resumed campaign must complete
exactly the uninterrupted run's path set, serial and pooled.  Each mode
must get at least one cut that lands mid-campaign.

``--store`` runs the PR 10 *persistent-store* gate: every workload is
explored cold into a ``--store`` directory and warm out of it — the
warm run must find the bit-identical path set with conserved query
attribution, strictly fewer CDCL solves and ``store_hits > 0`` (serial
and pooled); dirty campaigns under ``torn=``/``corrupt=`` schedules
killed mid-flight must be *healed* by the next clean run (quarantines
counted, never a wrong answer); ``iofail=`` must disable the tier
fail-soft; and a full store wipe mid-campaign must degrade to cold-run
behaviour, never an error.

``--memory-gate`` runs the *memory-budget* gate: every workload is
explored with ``memory_budget_mb=0``, serial and pooled, so each process
drops its snapshot pool at its fourth run.  The rung must give memory
back without changing what is explored:

* the paths are **identical** to the clean run's, each as often, with
  no unknown query and no incomplete path, and
* a serial run of at least four paths applies exactly one rung, a
  pooled run at most one per process, and some pooled run applies one.

Schedules are deterministic (``blake2b(seed, kind, site)``), so a
failure here reproduces locally with the printed seed.

Usage::

    python tools/chaos_check.py [--seeds N] [--jobs N] [--corrupt]
    python tools/chaos_check.py [--hang | --deadline-gate | --store]
    python tools/chaos_check.py --memory-gate [--jobs N]
    python tools/chaos_check.py --self-test

``--strategy {dfs,bfs,random,coverage}`` (default dfs) sets the search
strategy of every exploration a gate runs.

``--self-test`` drops a path from a clean result in memory and asserts
the invariant check trips, as it must when a bubble-sort path is lost
or recorded twice, perturbs a corruption-gate result and asserts that
check trips too, resumes a deadline cut without its journal and
asserts the journal check trips, and trips it again with a cut whose
counter record the journal does not hold, and drops a path from a
budgeted run and asserts the memory gate trips — proving the gates can
actually fail.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import Explorer, FaultPlan  # noqa: E402
from repro.core.checkpoint import (  # noqa: E402
    CHECKPOINT_FILENAME,
    GAUGES,
    CheckpointManager,
)
from repro.eval.engines import make_engine  # noqa: E402
from repro.eval.workloads import WORKLOADS  # noqa: E402
from repro.spec import rv32im  # noqa: E402

#: The paper's Fig. 6 workload set, at scales small enough for CI.
WORKLOAD_SCALES = {
    "bubble-sort": 4,
    "insertion-sort": 4,
    "base64-encode": 1,
    "uri-parser": 3,
    "clif-parser": 3,
}

#: Base chaos schedule; the per-run seed varies the fault sites.
RATES = {"kill_rate": 20, "unknown_rate": 15, "evict_rate": 50, "hiccup_rate": 10}

#: Cache-poisoning rate for the corruption gate (``--corrupt``).
CORRUPT_RATE = 30

#: Worker-wedging rate for the liveness gate (``--hang``), and the
#: missed-heartbeat threshold it runs with — short, so a full gate run
#: stays inside the CI chaos-job time limit while every hang still
#: costs the watchdog a real detection.
HANG_RATE = 15
HANG_TIMEOUT = 1.0

#: Deadline-gate cuts, as fractions of the wall time of the same mode's
#: uninterrupted checkpointed run: 0 cuts before any run, 0.5 about
#: half way through the campaign.
DEADLINE_FRACTIONS = (0.0, 0.5)

#: The deadline gate's scales: larger than WORKLOAD_SCALES, so that half
#: a run's wall time spans many runs and the cut lands mid-campaign.
DEADLINE_SCALES = {
    "bubble-sort": 5,
    "insertion-sort": 5,
    "base64-encode": 2,
    "uri-parser": 5,
    "clif-parser": 5,
}


#: Search strategy of every exploration the gates run (``--strategy``).
STRATEGY = "dfs"


def build_explorer(
    workload: str, jobs: int = 1, faults=None, scale=None, **kwargs
) -> Explorer:
    spec = WORKLOADS[workload]
    image = spec.image(scale if scale is not None else WORKLOAD_SCALES[workload])
    engine = make_engine("binsym", rv32im(), image)
    return Explorer(
        engine, jobs=jobs, use_cache=True, faults=faults, strategy=STRATEGY,
        **kwargs,
    )


def path_counts(result) -> Counter:
    """The multiset of the result's path keys, those of ``path_set()``."""
    return Counter(
        (p.halt_reason, p.exit_code, p.trace_length, p.stdout, p.final_pc)
        for p in result.paths
    )


def check_invariant(workload: str, clean, faulted, label: str) -> list[str]:
    """Return the violated invariants (empty = contract held)."""
    errors = []
    clean_counts = path_counts(clean)
    faulted_counts = path_counts(faulted)
    invented = sum((faulted_counts - clean_counts).values())
    if invented:
        errors.append(
            f"{workload} [{label}]: chaos run invented {invented} "
            f"path(s) not in the clean run"
        )
    degraded = faulted.unknown_queries + faulted.incomplete_paths
    missing = sum((clean_counts - faulted_counts).values())
    if missing and not degraded:
        errors.append(
            f"{workload} [{label}]: {missing} path(s) silently lost — "
            f"no unknown_queries / incomplete_paths reported"
        )
    if not missing and not invented and degraded and faulted_counts != clean_counts:
        errors.append(f"{workload} [{label}]: inconsistent path accounting")
    return errors


def total_attribution(result) -> int:
    """Every flip query lands in exactly one bucket, where it was
    answered; a repeat whose child flip dedup dropped also counts as
    pruned.  The total is a structural invariant of the exploration,
    not of the cache's luck."""
    return (
        result.num_queries
        + result.cache_hits
        + result.fast_path_answers
        + result.pruned_queries
        + result.unknown_queries
    )


def check_corruption_invariant(workload, clean, corrupted, label: str) -> list[str]:
    """Corruption must be absorbed: identical paths, conserved queries."""
    errors = []
    if path_counts(corrupted) != path_counts(clean):
        errors.append(
            f"{workload} [{label}]: corrupted run changed the paths "
            f"({corrupted.num_paths} vs {clean.num_paths} paths) — a "
            f"poisoned cache entry was served instead of quarantined"
        )
    if total_attribution(corrupted) != total_attribution(clean):
        errors.append(
            f"{workload} [{label}]: query attribution not conserved "
            f"({total_attribution(corrupted)} vs {total_attribution(clean)})"
        )
    return errors


def run_corruption_gate(seeds: int, jobs: int) -> int:
    failures: list[str] = []
    total_quarantines = 0
    for workload in WORKLOAD_SCALES:
        start = time.perf_counter()
        clean = build_explorer(workload).explore()
        quarantines = 0
        corruptions = 0
        for seed in range(seeds):
            plan = FaultPlan(seed=seed, corrupt_rate=CORRUPT_RATE)
            for label, n_jobs in (("serial", 1), (f"jobs={jobs}", jobs)):
                corrupted = build_explorer(
                    workload, jobs=n_jobs, faults=plan
                ).explore()
                errors = check_corruption_invariant(
                    workload, clean, corrupted, f"{label} seed={seed}"
                )
                failures.extend(errors)
                quarantines += corrupted.solver_stats.get("cache_quarantines", 0)
                corruptions += corrupted.solver_stats.get("cache_corruptions", 0)
                status = "FAIL" if errors else "ok"
                print(
                    f"  {status:4s} {workload:16s} {label:8s} seed={seed} "
                    f"paths={corrupted.num_paths}/{clean.num_paths} "
                    f"corruptions="
                    f"{corrupted.solver_stats.get('cache_corruptions', 0)} "
                    f"quarantines="
                    f"{corrupted.solver_stats.get('cache_quarantines', 0)}"
                )
        total_quarantines += quarantines
        if not corruptions:
            failures.append(
                f"{workload}: corrupt schedule never fired — the gate "
                f"proved nothing (raise CORRUPT_RATE or the seed count)"
            )
        print(
            f"{workload}: {clean.num_paths} clean paths, "
            f"{corruptions} corruptions / {quarantines} quarantines, "
            f"{time.perf_counter() - start:.1f}s"
        )
    if not total_quarantines:
        failures.append(
            "injected corruptions but no quarantine on any workload — "
            "poisoned entries went undetected"
        )
    if failures:
        print(f"\ncorruption gate FAILED ({len(failures)} violation(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"\ncorruption gate passed: no poisoned entry was served; "
        f"{total_quarantines} read back were quarantined and re-solved"
    )
    return 0


def run_hang_gate(seeds: int, jobs: int) -> int:
    """Liveness gate: wedged workers must be recovered, never waited on.

    ``hang=`` is pool-only (a wedged in-process run has no supervisor),
    so every faulted run here is pooled.  Beyond the standard
    subset-plus-counters invariant, the gate requires the schedule to
    have actually fired (``hung_workers`` summed over all runs) and
    finishes with a watchdog-recovery self-test: a ``hang=100``
    schedule wedges every task, and the pool must still drain — zero
    paths, the initial item abandoned as an ``incomplete`` path after
    :data:`repro.core.parallel.MAX_ITEM_FAILURES` recoveries.
    """
    failures: list[str] = []
    total_hung = 0
    for workload in WORKLOAD_SCALES:
        start = time.perf_counter()
        clean = build_explorer(workload).explore()
        for seed in range(seeds):
            plan = FaultPlan(seed=seed, hang_rate=HANG_RATE)
            faulted = build_explorer(
                workload, jobs=jobs, faults=plan, hang_timeout=HANG_TIMEOUT
            ).explore()
            errors = check_invariant(
                workload, clean, faulted, f"hang jobs={jobs} seed={seed}"
            )
            failures.extend(errors)
            total_hung += faulted.hung_workers
            status = "FAIL" if errors else "ok"
            print(
                f"  {status:4s} {workload:16s} jobs={jobs} seed={seed} "
                f"paths={faulted.num_paths}/{clean.num_paths} "
                f"hung={faulted.hung_workers} "
                f"incomplete={faulted.incomplete_paths} "
                f"deaths={faulted.worker_deaths}"
            )
        print(
            f"{workload}: {clean.num_paths} clean paths, "
            f"{time.perf_counter() - start:.1f}s"
        )
    if not total_hung:
        failures.append(
            "hang schedule never fired — the gate proved nothing "
            "(raise HANG_RATE or the seed count)"
        )
    # Watchdog-recovery self-test: every task hangs; the pool must
    # still terminate with everything explicitly accounted.
    plan = FaultPlan(seed=0, hang_rate=100)
    wedged = build_explorer(
        "clif-parser", jobs=jobs, faults=plan, hang_timeout=HANG_TIMEOUT
    ).explore()
    if wedged.num_paths != 0:
        failures.append(
            f"hang=100 run completed {wedged.num_paths} path(s) — the "
            f"schedule did not wedge every task"
        )
    if wedged.hung_workers == 0 or wedged.incomplete_paths == 0:
        failures.append(
            f"hang=100 run terminated without accounting: "
            f"hung={wedged.hung_workers} "
            f"incomplete={wedged.incomplete_paths}"
        )
    print(
        f"watchdog recovery: hang=100 drained with "
        f"{wedged.hung_workers} hung workers killed, "
        f"{wedged.incomplete_paths} incomplete path(s)"
    )
    if failures:
        print(f"\nhang gate FAILED ({len(failures)} violation(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "\nhang gate passed: every wedged worker was detected, killed "
        "and its item recovered or accounted"
    )
    return 0


def check_journal(workload, ckpt, cut, jobs, scale, resume=True) -> list[str]:
    """The cut left a journal holding its recorded paths, pending items
    and counter record (gauges left out), and a resume reads it: from a
    copy with one byte flipped it must fail the journal's integrity
    check.  ``resume=False`` stands in for a resume that ignores the
    journal (the self-test)."""
    state = CheckpointManager(ckpt, strategy=STRATEGY, seed=0).load()
    if state is None:
        return [f"{workload}: the cut run left no journal"]
    errors = []
    held = (len(state.paths), len(state.frontier))
    if held != (cut.num_paths, cut.incomplete_paths):
        errors.append(
            f"{workload}: journal holds {held[0]} path(s) and {held[1]} "
            f"pending item(s), the cut recorded {cut.num_paths} and "
            f"counted {cut.incomplete_paths} incomplete"
        )
    record = {key: value for key, value in cut.stats.items() if key not in GAUGES}
    if state.stats != record:
        differing = sorted(
            key
            for key in state.stats.keys() | record.keys()
            if state.stats.get(key) != record.get(key)
        )
        errors.append(
            f"{workload}: journal counter map differs from the cut's record "
            f"on {differing}"
        )
    data = bytearray((Path(ckpt) / CHECKPOINT_FILENAME).read_bytes())
    # The leading digit of an integer counter, so the parsed state
    # changes (a float's last digit may parse back to the same value).
    key = b'"total_instructions": '
    at = data.index(key) + len(key)
    data[at] = ord("2") if data[at] == ord("1") else ord("1")
    with tempfile.TemporaryDirectory() as damaged:
        (Path(damaged) / CHECKPOINT_FILENAME).write_bytes(bytes(data))
        try:
            build_explorer(
                workload, jobs=jobs, scale=scale, checkpoint_dir=damaged,
                resume=resume,
            ).explore()
        except ValueError:
            pass
        else:
            errors.append(
                f"{workload}: resume accepted a bit-flipped journal, so it "
                f"never read the journal"
            )
    return errors


def run_deadline_gate(jobs: int) -> int:
    """Anytime gate: deadline-cut + resume == the uninterrupted run.

    Cuts each workload at each :data:`DEADLINE_FRACTIONS` fraction of the
    same mode's uninterrupted checkpointed run into a checkpoint, then
    resumes without a deadline.  The cut run must report
    ``deadline_expired`` with its shortfall counted, never invent paths,
    and leave a journal the resume reads (:func:`check_journal`); the
    resumed campaign must finish exactly the clean path set — serial and
    pooled.  Each mode must get at least one cut that lands
    mid-campaign, or the gate never restored a mid-run journal.
    """
    failures: list[str] = []
    modes = (("serial", 1), (f"jobs={jobs}", jobs))
    mid_run_cuts = {label: 0 for label, _ in modes}
    for workload, scale in DEADLINE_SCALES.items():
        start = time.perf_counter()
        clean = build_explorer(workload, scale=scale).explore()
        for label, n_jobs in modes:
            with tempfile.TemporaryDirectory() as ckpt:
                reference = build_explorer(
                    workload, jobs=n_jobs, scale=scale, checkpoint_dir=ckpt
                ).explore()
            for fraction in DEADLINE_FRACTIONS:
                deadline = round(fraction * reference.wall_time, 4)
                before = len(failures)
                with tempfile.TemporaryDirectory() as ckpt:
                    cut = build_explorer(
                        workload,
                        jobs=n_jobs,
                        scale=scale,
                        deadline=deadline,
                        checkpoint_dir=ckpt,
                    ).explore()
                    tag = f"{label} deadline={deadline}"
                    if cut.path_set() - clean.path_set():
                        failures.append(
                            f"{workload} [{tag}]: cut run invented paths"
                        )
                    complete = cut.path_set() == clean.path_set()
                    if cut.deadline_expired:
                        if not complete and cut.incomplete_paths == 0:
                            failures.append(
                                f"{workload} [{tag}]: deadline shortfall "
                                f"not counted (incomplete_paths=0)"
                            )
                        if 0 < cut.num_paths < clean.num_paths:
                            mid_run_cuts[label] += 1
                    elif not complete:
                        failures.append(
                            f"{workload} [{tag}]: paths missing without "
                            f"deadline_expired"
                        )
                    failures.extend(
                        f"{error} [{tag}]"
                        for error in check_journal(
                            workload, ckpt, cut, n_jobs, scale
                        )
                    )
                    resumed = build_explorer(
                        workload,
                        jobs=n_jobs,
                        scale=scale,
                        checkpoint_dir=ckpt,
                        resume=True,
                    ).explore()
                    if resumed.path_set() != clean.path_set():
                        failures.append(
                            f"{workload} [{tag}]: resumed campaign found "
                            f"{resumed.num_paths} path(s), clean run "
                            f"found {clean.num_paths}"
                        )
                    status = "FAIL" if len(failures) > before else "ok"
                    print(
                        f"  {status:4s} {workload:16s} {tag:24s} "
                        f"cut={cut.num_paths} "
                        f"incomplete={cut.incomplete_paths} "
                        f"resumed={resumed.num_paths}/{clean.num_paths}"
                    )
        print(
            f"{workload}: {clean.num_paths} clean paths, "
            f"{time.perf_counter() - start:.1f}s"
        )
    for label, count in mid_run_cuts.items():
        if not count:
            failures.append(
                f"[{label}]: no cut landed mid-campaign (deadline_expired "
                f"with 0 < paths < clean), so no resume restored a "
                f"mid-run journal"
            )
    if failures:
        print(f"\ndeadline gate FAILED ({len(failures)} violation(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "\ndeadline gate passed: every cut was counted, every resume read "
        "its journal and completed the full path set"
    )
    return 0


#: Fault rates for the store gate's dirty campaign: torn writes and
#: cache/store poisoning high enough to damage several files per run,
#: plus the occasional injected I/O failure.
STORE_DIRTY_RATES = {"torn_rate": 40, "corrupt_rate": 30}
STORE_IOFAIL_RATE = 60


def run_store_gate(seeds: int, jobs: int) -> int:
    """Cross-run warm-start gate for the persistent store (``--store``).

    Per workload, over one shared store directory (the interner is
    reset between campaigns, so every warm run re-derives its keys
    from content exactly as a fresh process would):

    1. a cold ``--store`` run finds the clean path set and fills the
       store;
    2. a warm run finds the *bit-identical* path set with conserved
       query attribution, strictly fewer CDCL solves, and
       ``store_hits > 0`` — serial and pooled;
    3. seeded dirty campaigns (``torn=``/``corrupt=`` torn writes and
       poisoned files, killed mid-flight by ``stop=``) leave a damaged
       store; the next *clean* warm run must still match the clean
       path set with conserved attribution, quarantining the damage
       (``store_quarantines > 0`` summed over the gate);
    4. an ``iofail=`` run disables the tier mid-campaign and must
       still complete the clean path set (fail-soft, never an error);
    5. a full store wipe mid-campaign (deadline cut, ``rm -rf`` the
       store, resume) degrades to cold-run behaviour, never an error.
    """
    import shutil

    from repro.smt import terms as T

    failures: list[str] = []
    total_quarantines = 0
    for workload in WORKLOAD_SCALES:
        start = time.perf_counter()
        clean = build_explorer(workload).explore()
        clean_set = clean.path_set()
        with tempfile.TemporaryDirectory() as store_dir:
            cold = build_explorer(workload, store_dir=store_dir).explore()
            if cold.path_set() != clean_set:
                failures.append(
                    f"{workload} [cold]: --store changed the path set"
                )
            cold_solves = cold.solver_stats.get("sat_core_solves", 0)
            for label, n_jobs in (("warm", 1), (f"warm jobs={jobs}", jobs)):
                T.reset_interner()
                warm = build_explorer(
                    workload, jobs=n_jobs, store_dir=store_dir
                ).explore()
                errors = check_corruption_invariant(workload, clean, warm, label)
                warm_solves = warm.solver_stats.get("sat_core_solves", 0)
                if warm.store_hits == 0:
                    errors.append(
                        f"{workload} [{label}]: no warm hits served"
                    )
                if cold_solves and warm_solves >= cold_solves:
                    errors.append(
                        f"{workload} [{label}]: warm run solved as much as "
                        f"cold ({warm_solves} >= {cold_solves})"
                    )
                failures.extend(errors)
                status = "FAIL" if errors else "ok"
                print(
                    f"  {status:4s} {workload:16s} {label:14s} "
                    f"paths={warm.num_paths}/{clean.num_paths} "
                    f"solves={warm_solves}/{cold_solves} "
                    f"hits={warm.store_hits}"
                )
        # Dirty campaigns: torn/poisoned writes, killed mid-flight,
        # then a clean warm run over the damaged store.
        for seed in range(seeds):
            with tempfile.TemporaryDirectory() as store_dir:
                T.reset_interner()
                plan = FaultPlan(
                    seed=seed,
                    interrupt_after=max(1, clean.num_paths // 2),
                    **STORE_DIRTY_RATES,
                )
                dirty = build_explorer(
                    workload, faults=plan, store_dir=store_dir
                ).explore()
                T.reset_interner()
                healed = build_explorer(workload, store_dir=store_dir).explore()
                errors = check_corruption_invariant(
                    workload, clean, healed, f"healed seed={seed}"
                )
                failures.extend(errors)
                total_quarantines += healed.store_quarantines
                status = "FAIL" if errors else "ok"
                print(
                    f"  {status:4s} {workload:16s} dirty seed={seed}   "
                    f"interrupted={dirty.interrupted} "
                    f"healed={healed.num_paths}/{clean.num_paths} "
                    f"quarantined={healed.store_quarantines}"
                )
        # Fail-soft: injected I/O failures disable the tier mid-run,
        # the campaign still completes the clean path set.
        with tempfile.TemporaryDirectory() as store_dir:
            T.reset_interner()
            plan = FaultPlan(seed=0, iofail_rate=STORE_IOFAIL_RATE)
            soft = build_explorer(
                workload, faults=plan, store_dir=store_dir
            ).explore()
            errors = check_corruption_invariant(workload, clean, soft, "iofail")
            if soft.store_disabled == 0:
                errors.append(
                    f"{workload} [iofail]: schedule never fired "
                    f"(store_disabled=0)"
                )
            failures.extend(errors)
            status = "FAIL" if errors else "ok"
            print(
                f"  {status:4s} {workload:16s} iofail         "
                f"paths={soft.num_paths}/{clean.num_paths} "
                f"disabled={soft.store_disabled}"
            )
        # Store wipe mid-campaign: cut, destroy the store, resume.
        with tempfile.TemporaryDirectory() as parent:
            store_dir = str(Path(parent) / "store")
            ckpt = str(Path(parent) / "ckpt")
            T.reset_interner()
            build_explorer(
                workload,
                deadline=0.0,
                checkpoint_dir=ckpt,
                store_dir=store_dir,
            ).explore()
            shutil.rmtree(store_dir, ignore_errors=True)
            T.reset_interner()
            resumed = build_explorer(
                workload,
                checkpoint_dir=ckpt,
                resume=True,
                store_dir=store_dir,
            ).explore()
            errors = []
            if resumed.path_set() != clean_set:
                errors.append(
                    f"{workload} [wiped]: resume over a wiped store found "
                    f"{resumed.num_paths} path(s), clean run "
                    f"{clean.num_paths}"
                )
            if resumed.store_disabled:
                errors.append(
                    f"{workload} [wiped]: wiped store disabled the tier "
                    f"instead of restarting cold"
                )
            failures.extend(errors)
            status = "FAIL" if errors else "ok"
            print(
                f"  {status:4s} {workload:16s} wiped          "
                f"paths={resumed.num_paths}/{clean.num_paths} "
                f"stores={resumed.solver_stats.get('store_stores', 0)}"
            )
        print(
            f"{workload}: {clean.num_paths} clean paths, "
            f"{time.perf_counter() - start:.1f}s"
        )
    if not total_quarantines:
        failures.append(
            "dirty campaigns produced no store quarantine — the gate "
            "proved nothing (raise the rates or the seed count)"
        )
    if failures:
        print(f"\nstore gate FAILED ({len(failures)} violation(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "\nstore gate passed: warm starts are bit-identical and cheaper, "
        "damage is quarantined, I/O failure and store loss degrade softly"
    )
    return 0


def check_memory_invariant(workload, clean, squeezed, label: str) -> list[str]:
    """The rung must not change what is explored: the clean paths, each
    as often, nothing unknown or incomplete, and at most one rung per
    process — exactly one in a serial run of at least four paths."""
    errors = []
    if path_counts(squeezed) != path_counts(clean):
        errors.append(
            f"{workload} [{label}]: budgeted run changed the paths "
            f"({squeezed.num_paths} vs {clean.num_paths} paths)"
        )
    if squeezed.unknown_queries or squeezed.incomplete_paths:
        errors.append(
            f"{workload} [{label}]: {squeezed.unknown_queries} unknown "
            f"queries, {squeezed.incomplete_paths} incomplete paths"
        )
    rungs = squeezed.degradations
    if squeezed.workers == 1:
        wrong = rungs != (1 if squeezed.num_paths >= 4 else 0)
    else:
        wrong = rungs > squeezed.workers
    if wrong:
        errors.append(
            f"{workload} [{label}]: {rungs} rung(s) applied over "
            f"{squeezed.workers} process(es) and {squeezed.num_paths} paths"
        )
    return errors


def run_memory_gate(jobs: int) -> int:
    """Memory-budget gate: a zero budget changes nothing but speed."""
    failures: list[str] = []
    pooled_rungs = 0
    for workload in WORKLOAD_SCALES:
        start = time.perf_counter()
        clean = build_explorer(workload).explore()
        for label, n_jobs in (("serial", 1), (f"jobs={jobs}", jobs)):
            squeezed = build_explorer(
                workload, jobs=n_jobs, memory_budget_mb=0
            ).explore()
            errors = check_memory_invariant(workload, clean, squeezed, label)
            failures.extend(errors)
            if n_jobs > 1:
                pooled_rungs += squeezed.degradations
            status = "FAIL" if errors else "ok"
            print(
                f"  {status:4s} {workload:16s} {label:8s} "
                f"paths={squeezed.num_paths}/{clean.num_paths} "
                f"rungs={squeezed.degradations} "
                f"resumed={squeezed.resumed_runs}/{clean.resumed_runs}"
            )
        print(
            f"{workload}: {clean.num_paths} clean paths, "
            f"{time.perf_counter() - start:.1f}s"
        )
    if jobs > 1 and not pooled_rungs:
        failures.append(
            "no pooled run applied the rung — the gate proved nothing"
        )
    if failures:
        print(f"\nmemory gate FAILED ({len(failures)} violation(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "\nmemory gate passed: every process that dropped its snapshot "
        "pool still found the clean paths"
    )
    return 0


def run_gate(seeds: int, jobs: int) -> int:
    failures: list[str] = []
    for workload in WORKLOAD_SCALES:
        start = time.perf_counter()
        clean = build_explorer(workload).explore()
        for seed in range(seeds):
            plan = FaultPlan(seed=seed, **RATES)
            for label, n_jobs in (("serial", 1), (f"jobs={jobs}", jobs)):
                faulted = build_explorer(workload, jobs=n_jobs, faults=plan).explore()
                errors = check_invariant(workload, clean, faulted, f"{label} seed={seed}")
                failures.extend(errors)
                status = "FAIL" if errors else "ok"
                print(
                    f"  {status:4s} {workload:16s} {label:8s} seed={seed} "
                    f"paths={faulted.num_paths}/{clean.num_paths} "
                    f"unknown={faulted.unknown_queries} "
                    f"incomplete={faulted.incomplete_paths} "
                    f"deaths={faulted.worker_deaths}"
                )
        print(
            f"{workload}: {clean.num_paths} clean paths, "
            f"{time.perf_counter() - start:.1f}s"
        )
    if failures:
        print(f"\nchaos gate FAILED ({len(failures)} violation(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nchaos gate passed: every fault schedule degraded soundly")
    return 0


def self_test() -> int:
    """Prove the gate trips: a 'faulted' result that lost a path while
    reporting zero degradation must be flagged."""
    clean = build_explorer("clif-parser").explore()
    broken = build_explorer("clif-parser").explore()
    assert broken.unknown_queries == 0 and broken.incomplete_paths == 0
    # Silent loss: drop one path-set identity with no counter accounting.
    victim = next(iter(broken.path_set()))
    broken.paths = [
        p
        for p in broken.paths
        if (p.halt_reason, p.exit_code, p.trace_length, p.stdout, p.final_pc)
        != victim
    ]
    errors = check_invariant("clif-parser", clean, broken, "self-test")
    if not errors:
        print("self-test FAILED: silent path loss was not detected")
        return 1
    print(f"self-test passed: gate trips on silent loss ({errors[0]})")
    # Every bubble-sort path has the same key, so a lost or a doubled
    # one leaves the path *set* as it is; the multiset must still trip.
    sort = build_explorer("bubble-sort").explore()
    assert sort.unknown_queries == 0 and sort.incomplete_paths == 0
    for fault, paths in (
        ("lost", sort.paths[1:]),
        ("duplicated", sort.paths + sort.paths[:1]),
    ):
        faulted = replace(sort, paths=paths)
        errors = check_invariant("bubble-sort", sort, faulted, "self-test")
        if not errors:
            print(f"self-test FAILED: a {fault} bubble-sort path was not detected")
            return 1
        print(f"self-test passed: gate trips on a {fault} path ({errors[0]})")
    # The corruption gate must trip on both of its invariants: a served
    # poisoned answer (changed path set) and a vanished query.
    served = build_explorer("clif-parser").explore()
    lost = next(iter(served.path_set()))
    served.paths = [
        p
        for p in served.paths
        if (p.halt_reason, p.exit_code, p.trace_length, p.stdout, p.final_pc)
        != lost
    ]
    errors = check_corruption_invariant("clif-parser", clean, served, "self-test")
    if not errors:
        print("self-test FAILED: a changed path set was not detected")
        return 1
    print(f"self-test passed: corruption gate trips on path change ({errors[0]})")
    vanished = build_explorer("clif-parser").explore()
    vanished.cache_hits += 1  # one query attributed twice
    errors = check_corruption_invariant(
        "clif-parser", clean, vanished, "self-test"
    )
    if not errors:
        print("self-test FAILED: unconserved attribution was not detected")
        return 1
    print(f"self-test passed: corruption gate trips on attribution ({errors[0]})")
    # The deadline gate must trip on a resume that ignores the journal.
    scale = DEADLINE_SCALES["clif-parser"]
    with tempfile.TemporaryDirectory() as ckpt:
        cut = build_explorer(
            "clif-parser", scale=scale, deadline=0.0, checkpoint_dir=ckpt
        ).explore()
        errors = check_journal("clif-parser", ckpt, cut, 1, scale, resume=False)
    if not errors:
        print("self-test FAILED: a resume that ignores the journal passed")
        return 1
    print(f"self-test passed: deadline gate trips on an unread journal ({errors[0]})")
    # ... and on a journal whose counter map is not the cut's record.
    with tempfile.TemporaryDirectory() as ckpt:
        cut = build_explorer(
            "clif-parser", scale=scale, deadline=0.0, checkpoint_dir=ckpt
        ).explore()
        cut.solver_stats["sat_core_solves"] += 1
        errors = check_journal("clif-parser", ckpt, cut, 1, scale)
    if not errors:
        print("self-test FAILED: a journal with a stale counter map passed")
        return 1
    print(f"self-test passed: deadline gate trips on a stale counter map ({errors[0]})")
    # The memory gate must trip on a budgeted run that dropped a path.
    squeezed = build_explorer("bubble-sort", memory_budget_mb=0).explore()
    if check_memory_invariant("bubble-sort", sort, squeezed, "self-test"):
        print("self-test FAILED: the budgeted run itself does not pass")
        return 1
    dropped = replace(squeezed, paths=squeezed.paths[1:])
    errors = check_memory_invariant("bubble-sort", sort, dropped, "self-test")
    if not errors:
        print("self-test FAILED: a path dropped under a memory budget passed")
        return 1
    print(f"self-test passed: memory gate trips on a dropped path ({errors[0]})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=3,
                        help="fault schedules per workload (default 3)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="pool width for the parallel runs (default 4)")
    parser.add_argument("--corrupt", action="store_true",
                        help="run the cache-corruption gate instead of "
                             "the degradation gate")
    parser.add_argument("--hang", action="store_true",
                        help="run the liveness gate: wedged pool workers "
                             "must be watchdog-recovered, plus a "
                             "hang=100 recovery self-test")
    parser.add_argument("--deadline-gate", action="store_true",
                        help="run the anytime gate: deadline-cut + "
                             "resume must equal the uninterrupted "
                             "path set")
    parser.add_argument("--store", action="store_true",
                        help="run the persistent-store gate: warm "
                             "starts are bit-identical and cheaper, "
                             "torn/corrupt/iofail damage is "
                             "quarantined or degrades softly")
    parser.add_argument("--memory-gate", action="store_true",
                        help="run the memory-budget gate: under a zero "
                             "budget every process drops its snapshot "
                             "pool once, and the path multiset is the "
                             "clean run's")
    parser.add_argument("--strategy", default="dfs",
                        choices=("dfs", "bfs", "random", "coverage"),
                        help="search strategy of every exploration "
                             "(default dfs)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gates detect silent path loss, "
                             "served corruption and lost attribution")
    args = parser.parse_args(argv)
    global STRATEGY
    STRATEGY = args.strategy
    if args.self_test:
        return self_test()
    if args.corrupt:
        return run_corruption_gate(args.seeds, args.jobs)
    if args.hang:
        return run_hang_gate(args.seeds, args.jobs)
    if args.deadline_gate:
        return run_deadline_gate(args.jobs)
    if args.store:
        return run_store_gate(args.seeds, args.jobs)
    if args.memory_gate:
        return run_memory_gate(args.jobs)
    return run_gate(args.seeds, args.jobs)


if __name__ == "__main__":
    raise SystemExit(main())
