#!/usr/bin/env python3
"""CI certify gate: every reported answer on the Fig. 6 workloads checks.

Each workload is explored in certify mode — serial and on a 4-worker
pool, once with the plain incremental solver that exploration uses by
default and once with the query cache that ``--store`` runs use — and
the gate asserts the full evidence contract:

* no answer failed certification (``certify_failures == 0``),
* every query the SAT core solved was certified: its UNSAT answer by
  the independent DRAT checker, its SAT model by re-evaluation against
  the query (``certified_sat + certified_unsat >= sat_checks +
  unsat_checks``),
* every recorded path's certificate (inputs, observable outcome,
  path-condition digest chain) replayed identically under the unstaged
  reference evaluator (``certified_paths == num_paths``),
* the replay used the exploration tree: at least as many children
  resumed from their parent's reference state as exploration resumed
  from snapshots (``certificate_resumed >= resumed_runs``), so a checker
  that silently replays every child from the entry fails, and
* the certified path set equals the uncertified baseline's — certify
  mode observes the exploration, it must not change it.  The baseline
  keeps no clause log (the CDCL core logs only under ``--certify``),
  so this also shows that logging is pure evidence.

One more row per workload forces the replay stream, which the Fig. 6
CI scales never start on their own: a serial run with four usable CPUs
and a one-instruction start threshold (``stream serial``; a pool starts
no stream).  There the paths replay in a forked process while the
campaign explores, and the row also requires that the stream started
and lost no process.  On clif-parser a last row forces the stream and
makes every fork fail (``stream no-fork``): a replay process only buys
speed, so the run must still certify every path, try one start (a
failed fork would fail again, so the end step forks no share), count
it as one worker death, and leave no process behind.

Usage::

    python tools/certify_check.py [--jobs N] [--self-test]

``--self-test`` perturbs valid certificates, the root's and a resumed
child's, and asserts the tree replay rejects every perturbed claim; it
also gives a pristine child wrong ``parent``/``divergence`` links and
asserts they cost a from-entry replay, never a verdict — proving the
gate can actually fail and that links are only hints.  It then splits
the replay into two shards, which a tree this small never gets on its
own, and asserts a perturbed claim on a child the forked shard owns is
rejected too.  Last it forces the replay stream: with one CPU left
when the campaign ends, the replay process keeps the whole backlog, so
it owns every path, and a claim tampered on a resumed child must be
rejected there; then the replay process is killed once as it starts,
and the parent must replay its paths, reject the same claim and count
one worker death.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import multiprocessing
import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import ExplorationResult, Explorer  # noqa: E402
from repro.core import certificates  # noqa: E402
from repro.core.certificates import (  # noqa: E402
    reference_mode,
    replay_mismatches,
    verify_result,
)
from repro.eval.engines import make_engine  # noqa: E402
from repro.eval.workloads import WORKLOADS  # noqa: E402
from repro.smt.solver import SolverConfig  # noqa: E402
from repro.spec import rv32im  # noqa: E402

#: The paper's Fig. 6 workload set, at scales small enough for CI.
WORKLOAD_SCALES = {
    "bubble-sort": 4,
    "insertion-sort": 4,
    "base64-encode": 1,
    "uri-parser": 3,
    "clif-parser": 3,
}


#: Solver configurations under the gate: label -> ``use_cache``.
CONFIGURATIONS = {"plain": False, "cached": True}


def build_explorer(
    workload: str,
    jobs: int = 1,
    certify: bool = False,
    use_cache: bool = False,
) -> Explorer:
    spec = WORKLOADS[workload]
    engine = make_engine("binsym", rv32im(), spec.image(WORKLOAD_SCALES[workload]))
    solver_config = SolverConfig(certify=certify)
    return Explorer(
        engine, jobs=jobs, use_cache=use_cache, solver_config=solver_config
    )


def check_certified(workload: str, baseline, certified, label: str) -> list[str]:
    """Return the violated certify invariants (empty = contract held)."""
    errors = []
    if certified.path_set() != baseline.path_set():
        errors.append(
            f"{workload} [{label}]: certify mode changed the path set "
            f"({certified.num_paths} vs {baseline.num_paths} paths)"
        )
    if certified.certified_paths != certified.num_paths:
        errors.append(
            f"{workload} [{label}]: only {certified.certified_paths} of "
            f"{certified.num_paths} path certificates replayed cleanly"
        )
    if certified.certificate_resumed < certified.resumed_runs:
        errors.append(
            f"{workload} [{label}]: only {certified.certificate_resumed} "
            f"children resumed in certify replay, exploration resumed "
            f"{certified.resumed_runs}: the replay is not using the tree"
        )
    if certified.certificate_failures:
        errors.append(
            f"{workload} [{label}]: {certified.certificate_failures} "
            f"certificate failure(s): {certified.certificate_errors[:3]}"
        )
    stats = certified.solver_stats
    if stats.get("certify_failures", 0):
        errors.append(
            f"{workload} [{label}]: {stats['certify_failures']} solver "
            f"answer(s) failed certification"
        )
    evidence = stats.get("certified_sat", 0) + stats.get("certified_unsat", 0)
    if evidence < certified.num_queries:
        errors.append(
            f"{workload} [{label}]: {evidence} certified answers for "
            f"{certified.num_queries} solved queries — the evidence layer "
            f"skipped some"
        )
    return errors


@contextlib.contextmanager
def forced_stream(cpus: int = 4, after_start=None):
    """Start the replay stream after a campaign's first path, with
    ``cpus`` usable CPUs; yields the list of streams that started.
    ``after_start(stream)`` runs in the parent right after each fork."""
    saved = (
        certificates._usable_cpus,
        certificates.MIN_SHARD_INSTRUCTIONS,
        certificates.ReplayStream._start,
    )
    started: list = []
    start = saved[2]

    def spy(stream):
        start(stream)
        started.append(stream)
        if after_start is not None:
            after_start(stream)

    certificates._usable_cpus = lambda: cpus
    certificates.MIN_SHARD_INSTRUCTIONS = 1
    certificates.ReplayStream._start = spy
    try:
        yield started
    finally:
        (
            certificates._usable_cpus,
            certificates.MIN_SHARD_INSTRUCTIONS,
            certificates.ReplayStream._start,
        ) = saved


@contextlib.contextmanager
def failing_forks():
    """Make every fork of a replay process fail as ``fork`` does at the
    process limit; yields the list of attempts."""
    fork_process = multiprocessing.get_context("fork").Process
    attempts: list = []

    def failing(process):
        attempts.append(process)
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    fork_process.start = failing
    try:
        yield attempts
    finally:
        del fork_process.start


def run_gate(jobs: int) -> int:
    failures: list[str] = []
    for workload in WORKLOAD_SCALES:
        start = time.perf_counter()
        baseline = build_explorer(workload).explore()
        rows = [
            (f"{config} {mode}", use_cache, n_jobs, False, False)
            for config, use_cache in CONFIGURATIONS.items()
            for mode, n_jobs in (("serial", 1), (f"jobs={jobs}", jobs))
        ]
        rows.append(("stream serial", False, 1, True, False))
        if workload == "clif-parser":
            rows.append(("stream no-fork", False, 1, True, True))
        for label, use_cache, n_jobs, stream, no_fork in rows:
            with contextlib.ExitStack() as stack:
                started = stack.enter_context(forced_stream()) if stream else []
                attempts = stack.enter_context(failing_forks()) if no_fork else []
                certified = build_explorer(
                    workload, jobs=n_jobs, certify=True, use_cache=use_cache
                ).explore()
            errors = check_certified(workload, baseline, certified, label)
            if stream and (
                len(started) != 1
                or certified.worker_deaths != len(attempts)
                or (no_fork and (len(attempts) != 1 or started[0].process is not None))
                or multiprocessing.active_children()
            ):
                errors.append(
                    f"{workload} [{label}]: {len(started)} replay streams "
                    f"started, {len(attempts)} failed starts, "
                    f"{certified.worker_deaths} worker deaths, "
                    f"{len(multiprocessing.active_children())} processes left"
                )
            failures.extend(errors)
            stats = certified.solver_stats
            status = "FAIL" if errors else "ok"
            print(
                f"  {status:4s} {workload:16s} {label:15s} "
                f"paths={certified.certified_paths}/{certified.num_paths} "
                f"resumed={certified.certificate_resumed}"
                f"/{certified.resumed_runs} "
                f"solved={certified.num_queries} "
                f"sat={stats.get('certified_sat', 0)} "
                f"unsat={stats.get('certified_unsat', 0)} "
                f"failures={stats.get('certify_failures', 0)} "
                f"deaths={certified.worker_deaths}"
            )
        print(
            f"{workload}: {baseline.num_paths} paths, "
            f"{time.perf_counter() - start:.1f}s"
        )
    if failures:
        print(f"\ncertify gate FAILED ({len(failures)} violation(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "\ncertify gate passed: every answer and every path carried "
        "checkable evidence"
    )
    return 0


def _reverify(result, executor, forge: dict) -> ExplorationResult:
    """Certify ``result``'s paths again with ``forge`` (path index ->
    certificate mutation) applied as :func:`verify_result` builds each
    certificate; returns the fresh result."""
    honest = certificates.certificate_for

    def forged(path):
        cert = honest(path)
        mutation = forge.get(path.index)
        return mutation(cert) if mutation is not None else cert

    certificates.certificate_for = forged
    try:
        fresh = ExplorationResult(paths=list(result.paths))
        verify_result(fresh, executor)
    finally:
        certificates.certificate_for = honest
    return fresh


def self_test() -> int:
    """Prove the tree replay rejects perturbed claims, and only those."""
    explorer = build_explorer("clif-parser", certify=True)
    result = explorer.explore()
    executor = explorer.executor
    assert result.certificates, "certify run produced no certificates"
    children = result.num_paths - 1
    if result.certificate_resumed != children:
        print(
            f"self-test FAILED: {result.certificate_resumed} of {children} "
            f"children resumed from their parent"
        )
        return 1
    child = max(p.index for p in result.paths if p.parent is not None)
    tampered = [
        ("exit_code", lambda c: dataclasses.replace(c, exit_code=(c.exit_code or 0) ^ 1)),
        ("instret", lambda c: dataclasses.replace(c, instret=c.instret + 1)),
        ("stdout_digest", lambda c: dataclasses.replace(c, stdout_digest="0" * 32)),
        (
            "condition_digest",
            lambda c: dataclasses.replace(
                c, condition_digest=(c.condition_digest or 0) ^ 1
            ),
        ),
    ]
    with reference_mode(executor):
        clean = replay_mismatches(result.certificates[0], executor)
    if clean:
        print(f"self-test FAILED: pristine certificate rejected: {clean}")
        return 1
    for field_name, mutation in tampered:
        for target, role in ((0, "root"), (child, "resumed child")):
            forged = _reverify(result, executor, {target: mutation})
            # The child still resumes: a tampered claim is caught on
            # the tree path itself, not by a detour to the entry.
            if (
                forged.certificate_failures != 1
                or forged.certificate_resumed != children
            ):
                print(
                    f"self-test FAILED: tampered {field_name} on the {role} "
                    f"was accepted"
                )
                return 1
            print(
                f"self-test: tampered {field_name} on the {role} rejected "
                f"({forged.certificate_errors[0]})"
            )
    links = [
        ("parent", lambda c: dataclasses.replace(c, parent=c.index)),
        ("divergence", lambda c: dataclasses.replace(c, divergence=10_000)),
    ]
    for field_name, mutation in links:
        forged = _reverify(result, executor, {child: mutation})
        if (
            forged.certified_paths != result.num_paths
            or forged.certificate_resumed != children - 1
        ):
            print(
                f"self-test FAILED: a wrong {field_name} link changed the "
                f"verdict or was not replayed from the entry "
                f"({forged.certified_paths}/{result.num_paths} certified, "
                f"{forged.certificate_resumed} resumed)"
            )
            return 1
        print(
            f"self-test: wrong {field_name} link certified from the entry "
            f"({forged.certificate_resumed}/{children} children resumed)"
        )
    cpus, minimum = certificates._usable_cpus, certificates.MIN_SHARD_INSTRUCTIONS
    certificates._usable_cpus = lambda: 2
    certificates.MIN_SHARD_INSTRUCTIONS = 1
    try:
        if _sharded_self_test(result, executor, tampered):
            return 1
    finally:
        certificates._usable_cpus = cpus
        certificates.MIN_SHARD_INSTRUCTIONS = minimum
    if _stream_self_test(result, child, tampered[0]):
        return 1
    print(
        "self-test passed: the tree replay rejects every tampered claim, "
        "in one process or two, beside the campaign or after it, and a "
        "wrong link only costs a from-entry replay"
    )
    return 0


def _stream_self_test(result, child: int, tamper) -> int:
    """The forced replay stream rejects a claim tampered on resumed
    ``child``: first in the replay process, which owns every path when
    one CPU is left at the end, then in the parent, with the replay
    process killed as it starts.  The campaign pauses after each path
    it hands over, so the replay process replays the tampered path while
    the campaign runs, not only in the backlog.  Returns 1 on a
    failure."""
    field_name, mutation = tamper
    children = result.num_paths - 1

    def keep_everything(stream):
        certificates._usable_cpus = lambda: 1  # the backlog is one share

    def kill(stream):
        os.kill(stream.process.pid, signal.SIGKILL)

    honest = certificates.certificate_for
    add = certificates.ReplayStream.add

    def forged(path):
        cert = honest(path)
        return mutation(cert) if path.index == child else cert

    def paced(stream, index, divergences):
        add(stream, index, divergences)
        time.sleep(0.05)  # so the replay process keeps up with the campaign

    for where, after_start, deaths in (
        ("in the replay process", keep_everything, 0),
        ("in the parent after the replay process was killed", kill, 1),
    ):
        certificates.certificate_for = forged
        certificates.ReplayStream.add = paced
        try:
            with forced_stream(cpus=2, after_start=after_start) as started:
                streamed = build_explorer("clif-parser", certify=True).explore()
        finally:
            certificates.certificate_for = honest
            certificates.ReplayStream.add = add
        owned = started[0].owned if started else []
        if (
            len(started) != 1
            or (not deaths and owned != list(range(streamed.num_paths)))
            or streamed.certificate_failures != 1
            or not streamed.certificate_errors[0].startswith(f"path {child}: ")
            or streamed.certificate_resumed != children
            or streamed.worker_deaths != deaths
        ):
            print(
                f"self-test FAILED: tampered {field_name} on path {child} "
                f"was not rejected {where} ({len(started)} streams, "
                f"{streamed.certificate_failures} failures, "
                f"{streamed.worker_deaths} worker deaths)"
            )
            return 1
        print(
            f"self-test: tampered {field_name} on path {child} rejected "
            f"{where} ({streamed.certificate_errors[0]})"
        )
    return 0


def _sharded_self_test(result, executor, tampered) -> int:
    """Two shards: a pristine replay counts as one process's, and a
    tampered claim on a resumed child the forked shard owns is rejected.
    Returns 1 on a failure."""
    children = result.num_paths - 1
    shards = certificates._partition(result.certificates, True, 2)
    forked = [p for p in shards[-1][1] if result.paths[p].parent is not None]
    if len(shards) != 2 or not forked:
        print(f"self-test FAILED: no resumed child in a forked shard ({shards})")
        return 1
    target = forked[-1]
    pristine = _reverify(result, executor, {})
    if (
        pristine.certified_paths != result.num_paths
        or pristine.certificate_resumed != children
        or pristine.certificate_instructions != result.certificate_instructions
        or pristine.worker_deaths
    ):
        print("self-test FAILED: two shards did not replay as one process")
        return 1
    for field_name, mutation in tampered:
        forged = _reverify(result, executor, {target: mutation})
        if (
            forged.certificate_failures != 1
            or forged.certificate_resumed != children
            or forged.worker_deaths
            or not forged.certificate_errors[0].startswith(f"path {target}: ")
        ):
            print(
                f"self-test FAILED: tampered {field_name} on path {target}, "
                f"owned by the forked shard, was accepted"
            )
            return 1
        print(
            f"self-test: tampered {field_name} on path {target} (forked "
            f"shard) rejected ({forged.certificate_errors[0]})"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4,
                        help="pool width for the parallel runs (default 4)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate rejects tampered certificates")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    return run_gate(args.jobs)


if __name__ == "__main__":
    raise SystemExit(main())
