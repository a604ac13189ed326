"""The evidence layer: path certificates, certify mode, cache corruption
chaos, and checkpoint-journal integrity.

One contract ties these together (PR 8): every cached or reported
answer is either independently checkable or re-derived on demand, and a
failed check quarantines the evidence and falls back to a fresh
derivation — counted, never trusted.
"""

import dataclasses
import errno
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.arch.hart import HaltReason
from repro.asm import assemble
from repro.concrete.interpreter import ConcreteInterpreter
from repro.core import BinSymExecutor, ExplorationResult, Explorer, FaultPlan
from repro.core import certificates, explorer
from repro.core.certificates import (
    PathCertificate,
    certificate_from_state,
    certificate_to_state,
    reference_mode,
    replay_mismatches,
    verify_result,
)
from repro.core.checkpoint import CheckpointManager
from repro.core.concretize import ConcretizationPolicy
from repro.core.interpreter import SymbolicInterpreter
from repro.core.state import InputAssignment
from repro.eval.engines import make_engine
from repro.eval.workloads import WORKLOADS
from repro.smt import terms as T
from repro.smt.solver import Result, Solver, SolverConfig
from repro.spec import rv32im
from tests.test_faults import flip_counter_digit

SOURCE = """\
_start:
    li a0, 0x20000
    li a1, 2
    li a7, 1337
    ecall
    li t0, 0x20000
    lbu t1, 0(t0)
    lbu t2, 1(t0)
    li a0, 0
    bltu t1, t2, second
    addi a0, a0, 1
second:
    li t3, 100
    bltu t1, t3, done
    addi a0, a0, 2
done:
    li a7, 93
    ecall
"""

#: One symbolic byte; the two arms of the first branch rejoin after the
#: same number of instructions with the same machine state.
JOIN_SOURCE = """\
_start:
    li a0, 0x20000
    li a1, 1
    li a7, 1337
    ecall
    li t0, 0x20000
    lbu t1, 0(t0)
    li t2, 10
    li t3, 100
    bltu t1, t2, small
    addi t4, zero, 1
    j join
small:
    addi t4, zero, 1
    j join
join:
    bltu t1, t3, done
    li a0, 2
    li a7, 93
    ecall
done:
    li a0, 0
    li a7, 93
    ecall
"""

#: One symbolic byte counts the loop's iterations, so under a small step
#: budget the longer paths run out of fuel.
LOOP_SOURCE = """\
_start:
    li a0, 0x20000
    li a1, 1
    li a7, 1337
    ecall
    li t0, 0x20000
    lbu t1, 0(t0)
    li t2, 0
loop:
    bgeu t2, t1, done
    addi t2, t2, 1
    j loop
done:
    mv a0, t2
    li a7, 93
    ecall
"""


#: Three symbolic bytes; each iteration echoes its byte to stdout,
#: stores the byte's class to an output buffer, and only a big byte
#: writes s3.  So at a divergence point the machine holds stdout, output
#: bytes and registers that an earlier path's state would not match.
ECHO_SOURCE = """\
_start:
    li a0, 0x20000
    li a1, 3
    li a7, 1337
    ecall
    li s0, 0x20000
    li s1, 0x20003
    li s2, 0x20100
loop:
    li a0, 1
    mv a1, s0
    li a2, 1
    li a7, 64
    ecall
    lbu t0, 0(s0)
    li t1, 64
    bltu t0, t1, small
    mv s3, s0
    li t2, 0x42
    j next
small:
    li t2, 0x53
next:
    sb t2, 0(s2)
    addi s0, s0, 1
    addi s2, s2, 1
    bltu s0, s1, loop
    li a0, 0
    li a7, 93
    ecall
"""


SRC = Path(__file__).resolve().parent.parent / "src"


def make_executor():
    return BinSymExecutor(rv32im(), assemble(SOURCE))


@pytest.fixture()
def one_shard(monkeypatch):
    """Keep every replay in this process, where a spy or a profile hook
    sees all of it: no shard forks, and no replay stream starts, since no
    CPU is left beside the one that explores."""
    monkeypatch.setattr(certificates, "_usable_cpus", lambda: 1)


def force_shards(monkeypatch, count):
    """Split every replay into ``count`` shards, however little it claims.
    With ``count`` above one, a serial campaign also starts its replay
    stream after its first path."""
    monkeypatch.setattr(certificates, "_usable_cpus", lambda: count)
    monkeypatch.setattr(certificates, "MIN_SHARD_INSTRUCTIONS", 1)


def spy_streams(monkeypatch) -> list:
    """Every replay stream that forks its replay process, in order."""
    started: list = []
    start = certificates.ReplayStream._start

    def spy(self):
        start(self)
        started.append(self)

    monkeypatch.setattr(certificates.ReplayStream, "_start", spy)
    return started


def explore(certify=False, jobs=1, faults=None, workload=None, scale=3):
    if workload is not None:
        executor = make_engine("binsym", rv32im(), WORKLOADS[workload].image(scale))
    else:
        executor = make_executor()
    solver_config = SolverConfig(certify=certify)
    return Explorer(
        executor,
        jobs=jobs,
        use_cache=True,
        solver_config=solver_config,
        faults=faults,
    ).explore()


#: The certify gate's workloads and scales (tools/certify_check.py).
GATE_SCALES = {
    "bubble-sort": 4,
    "insertion-sort": 4,
    "base64-encode": 1,
    "uri-parser": 3,
    "clif-parser": 3,
}


def certify_workload(workload, scale, jobs=1):
    """(executor, result) of a certify exploration of a Fig. 6 workload."""
    executor = make_engine("binsym", rv32im(), WORKLOADS[workload].image(scale))
    result = Explorer(
        executor, jobs=jobs, solver_config=SolverConfig(certify=True)
    ).explore()
    return executor, result


def reverify(result, executor, monkeypatch=None, forge=None):
    """Certify ``result``'s paths again, into a fresh result.

    ``forge`` maps path indices to certificate mutations, applied as
    :func:`verify_result` builds each certificate.
    """
    if forge:
        honest = certificates.certificate_for

        def forged(path):
            cert = honest(path)
            mutation = forge.get(path.index)
            return mutation(cert) if mutation is not None else cert

        monkeypatch.setattr(certificates, "certificate_for", forged)
    fresh = ExplorationResult(paths=list(result.paths))
    verify_result(fresh, executor)
    return fresh


def mark_replay_process(monkeypatch) -> list:
    """A list that is empty except inside a stream's replay process: a
    spy tells that process from the parent and from forked shards."""
    marks: list = []
    stream_main = certificates._stream_main

    def marked(*args):
        marks.append(os.getpid())
        return stream_main(*args)

    monkeypatch.setattr(certificates, "_stream_main", marked)
    return marks


def fail_forks(monkeypatch) -> list:
    """Make every fork of a replay process fail, as ``fork`` does when
    the process limit is reached; returns the list of attempts."""
    attempts: list = []

    def failing(process):
        attempts.append(process)
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", failing)
    return attempts


def one_process(result, executor):
    """``result``'s paths certified again, in this process alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certificates, "_usable_cpus", lambda: 1)
        return reverify(result, executor)


def from_entry(result, executor):
    """``replay_mismatches`` of every certificate: the reference verdicts."""
    with reference_mode(executor):
        return [replay_mismatches(cert, executor) for cert in result.certificates]


def resumed_child(result):
    """The index of the last path with a parent link."""
    return max(p.index for p in result.paths if p.parent is not None)


def fresh_machine_agrees(replay, copy, env, regs, memory, stdout):
    """Check (2) on a concrete machine of its own: the verdict the
    replay's one reset machine must give for the same child."""
    interp = replay.interp
    machine = ConcreteInterpreter(interp.isa)
    machine.load_image(interp.image)
    for sym_input in interp.inputs.values():
        machine.memory.write_byte(sym_input.address, env[sym_input.variable])
    for index, variable in replay.executor.register_inputs.items():
        machine.write_register_int(index, env[variable])
    hart = machine.run(copy.instret)
    return (
        hart.halt_reason == HaltReason.OUT_OF_FUEL
        and hart.instret == copy.instret
        and hart.pc == copy.pc
        and all(hart.regs.read(i) == regs[i].concrete for i in range(32))
        and machine.platform.stdout == stdout
        and machine.memory.same_bytes(memory)
    )


class TestCertifyMode:
    """--certify: every answer and every path carries checked evidence."""

    def test_serial_all_paths_certified(self):
        result = explore(certify=True)
        assert result.num_paths == 4
        assert result.certified_paths == 4
        assert result.certificate_failures == 0
        assert result.certificate_errors == []
        assert len(result.certificates) == 4
        stats = result.solver_stats
        assert stats.get("certified_sat", 0) + stats.get("certified_unsat", 0) > 0
        assert stats.get("certify_failures", 0) == 0

    def test_sat_model_check_evaluates_every_query_term(self):
        """Two query terms on one literal: a blaster bug of exactly the
        kind the model check exists to catch.  The term that did not
        supply the literal must be evaluated too."""
        solver = Solver(certify=True)
        x = T.bv_var("certify_alias", 8)
        low, high = T.ult(x, T.bv(5, 8)), T.ugt(x, T.bv(100, 8))
        blaster = solver._blaster
        blaster._bool_cache[high] = blaster.lit(low)
        assert solver.check([low, high]) is Result.UNKNOWN
        assert (solver.certified_sat, solver.certify_failures) == (0, 1)
        assert solver.num_unknowns == 1

    def test_certify_does_not_change_path_set(self):
        plain = explore(certify=False)
        certified = explore(certify=True)
        assert certified.path_set() == plain.path_set()
        assert certified.num_queries == plain.num_queries

    def test_parallel_all_paths_certified(self):
        serial = explore(certify=True, workload="bubble-sort")
        pooled = explore(certify=True, jobs=2, workload="bubble-sort")
        assert pooled.path_set() == serial.path_set()
        for result in (serial, pooled):
            assert result.certified_paths == result.num_paths
            assert result.certificate_failures == 0

    def test_condition_digests_recorded_only_when_certifying(self):
        certified = explore(certify=True)
        plain = explore(certify=False)
        assert all(p.condition_digest is not None for p in certified.paths)
        assert all(p.condition_digest is None for p in plain.paths)

    def test_summary_mentions_certification(self):
        result = explore(certify=True)
        assert "certified: 4 paths, 0 failures" in result.summary()


class TestCompletedJournalResume:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resume_certifies_and_forks_nothing(self, tmp_path, monkeypatch, jobs):
        """Resuming a completed journal runs nothing, starts no pool,
        and still certifies every restored path."""

        def explore_journal(resume):
            image = WORKLOADS["bubble-sort"].image(3)
            return Explorer(
                make_engine("binsym", rv32im(), image),
                jobs=jobs,
                solver_config=SolverConfig(certify=True),
                checkpoint_dir=str(tmp_path),
                resume=resume,
            ).explore()

        first = explore_journal(resume=False)

        def no_pool(*args, **kwargs):
            raise AssertionError("a completed journal started a pool")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        resumed = explore_journal(resume=True)
        assert resumed.path_set() == first.path_set()
        assert resumed.certified_paths == resumed.num_paths == 6
        assert resumed.certificate_failures == 0


class TestJournaledTreeLinks:
    """The journal keeps each path's tree links and each pending item's
    parent, so a resumed certify campaign replays as a tree."""

    def explore_journal(self, directory, executor=None, **options):
        if executor is None:
            executor = make_engine("binsym", rv32im(), WORKLOADS["bubble-sort"].image(5))
        return Explorer(
            executor,
            solver_config=SolverConfig(certify=True),
            checkpoint_dir=str(directory),
            **options,
        ).explore()

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_resumed_campaign_replays_the_tree(self, tmp_path, monkeypatch, cpus):
        """With a CPU to spare, the resumed campaign's replay stream takes
        over the restored paths, each with its restored children and
        pending items as the children it kept."""
        clean = self.explore_journal(tmp_path / "clean")
        assert (clean.certificate_resumed, clean.certificate_instructions) == (119, 5950)
        cut = self.explore_journal(
            tmp_path / "cut", faults=FaultPlan(interrupt_after=60)
        )
        assert cut.interrupted and cut.num_paths == 60
        started = spy_streams(monkeypatch)
        force_shards(monkeypatch, cpus)
        executor = make_engine("binsym", rv32im(), WORKLOADS["bubble-sort"].image(5))
        resumed = self.explore_journal(tmp_path / "cut", executor, resume=True)
        assert len(started) == (cpus > 1) and resumed.worker_deaths == 0
        assert resumed.path_set() == clean.path_set()
        assert [p.index for p in resumed.paths if p.parent is None] == [0]
        assert resumed.certified_paths == 120
        assert resumed.certificate_resumed == 119
        assert resumed.certificate_instructions == 5950
        assert counters(resumed) == counters(one_process(resumed, executor))
        assert multiprocessing.active_children() == []

    def test_version_4_journal_refused(self, tmp_path):
        from repro.core import store

        self.explore_journal(tmp_path)
        journal = tmp_path / "checkpoint.json"
        raw = json.loads(journal.read_text())
        raw["state"]["version"] = 4
        raw["digest"] = store.state_digest(raw["state"])
        journal.write_text(json.dumps(raw))
        manager = CheckpointManager(str(tmp_path), strategy="dfs", seed=0)
        with pytest.raises(ValueError, match="unsupported version 4"):
            manager.load()


class TestCertificateTampering:
    """Replay must reject any perturbed claim — the gate can fail."""

    @pytest.fixture()
    def certified(self):
        executor = make_executor()
        solver_config = SolverConfig(certify=True)
        result = Explorer(
            executor, use_cache=True, solver_config=solver_config
        ).explore()
        return executor, result

    def test_pristine_certificates_replay_clean(self, certified):
        executor, result = certified
        with reference_mode(executor):
            for cert in result.certificates:
                assert replay_mismatches(cert, executor) == []

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda c: dataclasses.replace(c, exit_code=(c.exit_code or 0) ^ 1),
            lambda c: dataclasses.replace(c, instret=c.instret + 1),
            lambda c: dataclasses.replace(c, trace_length=c.trace_length + 1),
            lambda c: dataclasses.replace(c, stdout_digest="0" * 32),
            lambda c: dataclasses.replace(c, final_pc=c.final_pc ^ 4),
            lambda c: dataclasses.replace(
                c, condition_digest=(c.condition_digest or 0) ^ 1
            ),
        ],
        ids=[
            "exit_code",
            "instret",
            "trace_length",
            "stdout",
            "final_pc",
            "condition_digest",
        ],
    )
    def test_tampered_field_rejected(self, certified, mutation, monkeypatch):
        executor, result = certified
        cert = mutation(result.certificates[0])
        with reference_mode(executor):
            problems = replay_mismatches(cert, executor)
        assert problems, "tampered certificate was accepted"
        # Through the tree replay: the root replays from the entry and a
        # child resumes from its parent's copy; both must be rejected,
        # and the tampered claim does not stop the child resuming.
        assert result.certificate_resumed == result.num_paths - 1
        for target in (0, resumed_child(result)):
            with monkeypatch.context() as patch:
                forged = reverify(result, executor, patch, {target: mutation})
            assert forged.certificate_failures == 1, target
            assert forged.certified_paths == result.num_paths - 1
            assert forged.certificate_errors
            assert all(
                message.startswith(f"path {target}: ")
                for message in forged.certificate_errors
            )
            assert forged.certificate_resumed == result.num_paths - 1

    def test_verify_result_counts_failures(self, certified):
        executor, result = certified
        # Corrupt one recorded path in memory, the root's or a resumed
        # child's; re-verification must count exactly one failing
        # certificate and keep the rest.
        for target in (0, resumed_child(result)):
            paths = list(result.paths)
            paths[target] = dataclasses.replace(
                paths[target], instret=paths[target].instret + 1
            )
            fresh = ExplorationResult(paths=paths)
            failures = verify_result(fresh, executor)
            assert fresh.certificate_failures == 1
            assert fresh.certified_paths == result.num_paths - 1
            assert any("instret" in message for message in failures)

    def test_reference_mode_restores_configuration(self):
        executor = make_executor()
        assert executor.interpreter.staging
        assert executor.superblocks_enabled
        with reference_mode(executor):
            assert not executor.interpreter.staging
            assert not executor.superblocks_enabled
        assert executor.interpreter.staging
        assert executor.superblocks_enabled

    def test_certificate_survives_serialization_roundtrip(self, certified):
        executor, result = certified
        cert = result.certificates[0]
        # Certificates are plain data: a JSON round trip (as a
        # checkpoint or report would do) must preserve checkability.
        payload = json.loads(json.dumps(dataclasses.asdict(cert)))
        payload["inputs"] = tuple(tuple(entry) for entry in payload["inputs"])
        restored = type(cert)(**payload)
        with reference_mode(executor):
            assert replay_mismatches(restored, executor) == []


class TestTreeReplay:
    """verify_result replays the exploration tree: each child resumes at
    its parent's divergence point, and agrees with from-entry replay."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_paths_record_their_parent(self, jobs):
        _, result = certify_workload("bubble-sort", 4, jobs=jobs)
        root = [p for p in result.paths if p.parent is None]
        assert len(root) == 1 and root[0].divergence is None
        for path in result.paths:
            if path.parent is None:
                continue
            parent = result.paths[path.parent]
            assert path.parent < path.index
            assert 0 <= path.divergence < parent.trace_length
        certs = result.certificates
        assert [(c.parent, c.divergence) for c in certs] == [
            (p.parent, p.divergence) for p in result.paths
        ]

    def test_suffixes_replay_what_exploration_executed(self):
        executor, result = certify_workload("bubble-sort", 4)
        assert result.resumed_runs == result.num_paths - 1
        assert result.certificate_resumed == result.num_paths - 1
        # Exploration resumed every child at the same instruction the
        # checker copies its parent's state at.
        assert result.certificate_instructions == result.executed_instructions
        assert result.certificate_instructions < result.total_instructions

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("workload", sorted(GATE_SCALES))
    def test_verdicts_match_from_entry_replay(self, workload, jobs):
        executor, result = certify_workload(workload, GATE_SCALES[workload], jobs)
        entry = from_entry(result, executor)
        assert result.certified_paths == sum(not problems for problems in entry)
        assert result.certificate_failures == sum(bool(p) for p in entry)
        assert result.certificate_errors == [m for p in entry for m in p]
        assert result.certificate_failures == 0
        assert result.certificate_resumed == result.num_paths - 1

    @pytest.mark.usefixtures("one_shard")
    def test_live_fault_verdicts_match(self, monkeypatch):
        """A concolic-invariant fault in the shared interpreter: the
        shadow term of the byte at the input buffer's start is dropped
        on every store.  Exploration, from-entry replay and the tree
        all run it; the tree flags exactly the paths from-entry replay
        flags, and check (2) sends children back to the entry."""
        store = SymbolicInterpreter._store

        def lossy_store(self, address, value, width):
            store(self, address, value, width)
            if address <= 0x20000 < address + width // 8:
                self.shadow.set(0x20000, None)

        monkeypatch.setattr(SymbolicInterpreter, "_store", lossy_store)
        verdicts = []
        fresh = []
        agrees = certificates._TreeReplay._concrete_agrees

        def spy(self, *args):
            verdicts.append(agrees(self, *args))
            fresh.append(fresh_machine_agrees(self, *args))
            return verdicts[-1]

        monkeypatch.setattr(certificates._TreeReplay, "_concrete_agrees", spy)
        executor, result = certify_workload("bubble-sort", 4)
        entry = from_entry(result, executor)
        assert result.certificate_failures == sum(bool(p) for p in entry) > 0
        assert result.certificate_errors == [m for p in entry for m in p]
        assert False in verdicts
        assert result.certificate_resumed < result.num_paths - 1
        # The replay's one machine judges each child as a new one would.
        assert verdicts == fresh
        # Forked shards merge the same failing verdicts and counters.
        for count in (2, 3, 4):
            with monkeypatch.context() as patch:
                force_shards(patch, count)
                sharded = reverify(result, executor)
            assert counters(sharded) == counters(result), count
            assert sharded.worker_deaths == 0

    @pytest.mark.usefixtures("one_shard")
    @pytest.mark.parametrize("program", ["bubble-sort", "echo"])
    def test_check_two_machine_starts_each_child_clean(self, program, monkeypatch):
        """Check (2) runs every child on one machine, reset in between;
        nothing of the previous child's memory, registers or stdout may
        reach the next check.  ECHO_SOURCE's paths leave all three
        behind at their divergence points."""
        pairs = []
        agrees = certificates._TreeReplay._concrete_agrees

        def spy(self, *args):
            pairs.append((agrees(self, *args), fresh_machine_agrees(self, *args)))
            return pairs[-1][0]

        monkeypatch.setattr(certificates._TreeReplay, "_concrete_agrees", spy)
        if program == "echo":
            executor = BinSymExecutor(rv32im(), assemble(ECHO_SOURCE))
            result = Explorer(
                executor, solver_config=SolverConfig(certify=True)
            ).explore()
            assert result.num_paths == 8
            assert all(len(path.stdout) == 3 for path in result.paths)
        else:
            _, result = certify_workload("bubble-sort", 4)
        assert len(pairs) == result.num_paths - 1
        assert [shared for shared, _ in pairs] == [fresh for _, fresh in pairs]
        assert result.certificate_resumed == result.num_paths - 1
        assert result.certified_paths == result.num_paths

    @pytest.mark.usefixtures("one_shard")
    def test_reference_mode_runs_no_emitted_symbolic_code(self, monkeypatch):
        """The checker certifies the staged plans and superblocks that
        exploration ran, so none of their symbolic code may run while it
        replays; check (2)'s concrete machine runs emitted int code, as
        ``repro run`` does."""
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code.co_filename)

        verify = certificates.verify_result
        memo_holds_plans = []

        def profiled(result, executor, *stream):
            # Exploration left staged plans in the word memo, which
            # reference mode must not run.
            memo = executor.interpreter._exec_cache.values()
            memo_holds_plans.append(any(plan is not None for plan, _ in memo))
            sys.setprofile(profile)
            try:
                return verify(result, executor, *stream)
            finally:
                sys.setprofile(None)

        monkeypatch.setattr(certificates, "verify_result", profiled)
        _, result = certify_workload("bubble-sort", 4)
        assert result.certified_paths == result.num_paths
        assert memo_holds_plans == [True]
        symbolic = [n for n in called if n.startswith(("<plan sym", "<superblock sym"))]
        concrete = [n for n in called if n.startswith(("<plan int", "<superblock int"))]
        assert symbolic == []
        assert concrete

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda c: dataclasses.replace(c, parent=None, divergence=None),
            lambda c: dataclasses.replace(c, parent=c.index),
            lambda c: dataclasses.replace(c, parent=c.index + 1),
            lambda c: dataclasses.replace(c, parent=-1),
            lambda c: dataclasses.replace(c, divergence=10_000),
            lambda c: dataclasses.replace(c, divergence=c.divergence + 1),
        ],
        ids=[
            "missing",
            "parent_self",
            "parent_later",
            "parent_negative",
            "divergence_past_trace",
            "prefix_unsatisfied",
        ],
    )
    def test_wrong_link_costs_a_from_entry_replay(self, mutation, monkeypatch):
        """Links are hints: a pristine certificate with a wrong link
        still certifies, replayed from the entry and counted so."""
        executor, result = certify_workload("bubble-sort", 4)
        # A child whose parent has a record past its divergence point, so
        # a one-deeper divergence names a real copy whose prefix holds
        # the record the child flipped.
        child = max(
            p.index
            for p in result.paths
            if p.parent is not None
            and result.paths[p.parent].trace_length > p.divergence + 1
        )
        forged = reverify(result, executor, monkeypatch, {child: mutation})
        assert forged.certified_paths == result.num_paths
        assert forged.certificate_failures == 0
        assert forged.certificate_resumed == result.num_paths - 2

    def test_prefix_check_catches_what_the_state_check_cannot(self, monkeypatch):
        """Both arms of the first branch take two instructions and leave
        the same state, so a child linked to the wrong arm passes check
        (2) at the join; only check (1) sends it back to the entry."""
        executor = BinSymExecutor(rv32im(), assemble(JOIN_SOURCE))
        result = Explorer(
            executor, solver_config=SolverConfig(certify=True)
        ).explore()
        assert [(p.parent, p.divergence) for p in result.paths] == [
            (None, None),
            (0, 0),
            (1, 1),
        ]
        relink = {2: lambda c: dataclasses.replace(c, parent=0)}
        forged = reverify(result, executor, monkeypatch, relink)
        assert forged.certified_paths == 3
        assert forged.certificate_failures == 0
        assert forged.certificate_resumed == 1

    @pytest.mark.parametrize("verify_steps", [40, 25], ids=["same", "lower"])
    def test_fuel_bounded_verdicts_match(self, verify_steps):
        """A resumed suffix gets only what remains of the step budget, so
        paths that run out of fuel certify exactly when from-entry replay
        certifies them, also under a lower budget than explored with."""
        executor = BinSymExecutor(rv32im(), assemble(LOOP_SOURCE), max_steps=40)
        result = Explorer(
            executor, solver_config=SolverConfig(certify=True)
        ).explore()
        assert result.resumed_runs == result.num_paths - 1
        assert any(p.halt_reason == HaltReason.OUT_OF_FUEL for p in result.paths)
        executor.max_steps = verify_steps
        fresh = reverify(result, executor)
        entry = from_entry(fresh, executor)
        assert fresh.certified_paths == sum(not problems for problems in entry)
        assert fresh.certificate_failures == sum(bool(p) for p in entry)
        assert fresh.certificate_errors == [m for p in entry for m in p]
        assert fresh.certificate_resumed > 0
        # Explored under the same budget, every claim holds (exploration's
        # snapshot resumes are bounded the same way); under a lower one
        # the longer paths' claims fail.
        assert (fresh.certificate_failures > 0) == (verify_steps < 40)

    @pytest.mark.usefixtures("one_shard")
    def test_copies_stay_within_the_pool_budget(self, monkeypatch):
        """Live copies hold at most the snapshot-pool budget; a copy over
        it is not taken and its children replay from the entry, with the
        same verdicts."""
        image = WORKLOADS["bubble-sort"].image(4)
        executor = make_engine("binsym", rv32im(), image)
        result = Explorer(
            executor, strategy="bfs", solver_config=SolverConfig(certify=True)
        ).explore()
        assert result.certificate_resumed == result.num_paths - 1
        held = []
        replay = certificates._TreeReplay.replay

        def spy(self, position, cert):
            problems = replay(self, position, cert)
            held.append((self.held, self.budget))
            return problems

        monkeypatch.setattr(certificates._TreeReplay, "replay", spy)
        unbounded = reverify(result, executor)
        peak = max(bytes_held for bytes_held, _ in held)
        assert unbounded.certificate_resumed == result.num_paths - 1
        assert held[-1][0] == 0
        held.clear()
        executor.snapshot_pool.max_bytes = peak // 4
        bounded = reverify(result, executor)
        assert all(bytes_held <= budget == peak // 4 for bytes_held, budget in held)
        assert 0 < bounded.certificate_resumed < result.num_paths - 1
        assert bounded.certified_paths == result.num_paths
        assert held[-1][0] == 0

    def test_capture_hook_sees_the_snapshot_points(self):
        """The checker's hook and the snapshot pool share one guard."""
        image = WORKLOADS["bubble-sort"].image(4)
        executor = make_engine("binsym", rv32im(), image)
        assignment = InputAssignment()
        run = executor.execute(assignment, capture_from=0)
        seen = []
        executor.start(assignment)
        executor.interpreter.capture_with(lambda index, base: seen.append(index))
        executor.finish(assignment)
        assert run.snapshots and seen == sorted(run.snapshots)

    @pytest.mark.usefixtures("one_shard")
    def test_copies_are_dropped_after_their_last_child(self, monkeypatch):
        replays = []
        tree = certificates._TreeReplay.__init__

        def keep(self, *args):
            tree(self, *args)
            replays.append(self)

        monkeypatch.setattr(certificates._TreeReplay, "__init__", keep)
        _, result = certify_workload("bubble-sort", 4)
        (replay,) = replays
        assert replay.copies == {} and replay.held == 0
        assert result.certificate_resumed == result.num_paths - 1

    @pytest.mark.parametrize("engine", ["symex-vp", "binsym-free"])
    def test_other_engines_replay_from_entry(self, engine):
        """Other engines, and BinSym under FREE concretization (which
        does not pin symbolic addresses, so check (1) proves nothing)."""
        image = WORKLOADS["bubble-sort"].image(3)
        if engine == "binsym-free":
            executor = BinSymExecutor(
                rv32im(), image, concretization=ConcretizationPolicy.FREE
            )
        else:
            executor = make_engine(engine, rv32im(), image)
        result = Explorer(
            executor, solver_config=SolverConfig(certify=True)
        ).explore()
        assert result.certified_paths == result.num_paths == 6
        assert result.certificate_resumed == 0
        assert result.certificate_instructions == result.total_instructions


def counters(result):
    """What a replay reports: its messages in order and four counters."""
    return (
        result.certificate_errors,
        result.certified_paths,
        result.certificate_failures,
        result.certificate_resumed,
        result.certificate_instructions,
    )


def random_certificates(rng, count):
    """Certificates of a random tree, with extra roots and bad links."""
    certs = []
    for position in range(count):
        parent = rng.randrange(position) if position and rng.random() < 0.9 else None
        if rng.random() < 0.05:
            parent = position + rng.randrange(3)  # not an earlier path
        certs.append(
            PathCertificate(
                index=position,
                inputs=(),
                halt_reason="exit",
                exit_code=0,
                instret=rng.randrange(500),
                trace_length=8,
                stdout_digest="",
                final_pc=0,
                parent=parent,
                divergence=rng.randrange(8) if parent is not None else None,
            )
        )
    return certs


def ancestors(certs, position):
    """The positions a path's usable links lead up through."""
    chain = []
    link = certificates._link(certs[position], position)
    while link is not None:
        chain.append(link[0])
        link = certificates._link(certs[link[0]], link[0])
    return chain


class TestShardedReplay:
    """verify_result splits the tree over forked shard processes; the
    merged verdicts, messages and counters equal one process's."""

    @pytest.mark.usefixtures("one_shard")
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("workload", sorted(GATE_SCALES))
    def test_shards_equal_one_process(self, workload, jobs, monkeypatch):
        executor, result = certify_workload(workload, GATE_SCALES[workload], jobs)
        assert result.certificate_resumed == result.num_paths - 1
        for count in (2, 3, 4):
            with monkeypatch.context() as patch:
                force_shards(patch, count)
                shards = certificates._partition(result.certificates, True, count)
                assert len(shards) == count
                sharded = reverify(result, executor)
            assert counters(sharded) == counters(result), count
            assert sharded.worker_deaths == 0
            assert multiprocessing.active_children() == []

    def test_each_shard_runs_no_emitted_symbolic_code(self):
        """Every shard's member list, helpers included, replayed in this
        process under the profile hook of
        ``test_reference_mode_runs_no_emitted_symbolic_code``."""
        executor, result = certify_workload("bubble-sort", 4)
        executor.execute(InputAssignment())
        memo = executor.interpreter._exec_cache.values()
        assert any(plan is not None for plan, _ in memo)
        certs = result.certificates
        shards = certificates._partition(certs, True, 3)
        assert len(shards) == 3
        assert any(len(members) > len(owned) for members, owned in shards)
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code.co_filename)

        outcomes = []
        with reference_mode(executor):
            sys.setprofile(profile)
            try:
                for shard in shards:
                    outcomes.append(
                        certificates._replay_shard(executor, certs, True, *shard)
                    )
            finally:
                sys.setprofile(None)
        assert all(not problems for messages, _, _ in outcomes for problems in messages)
        assert sum(resumed for _, resumed, _ in outcomes) == result.num_paths - 1
        symbolic = [n for n in called if n.startswith(("<plan sym", "<superblock sym"))]
        concrete = [n for n in called if n.startswith(("<plan int", "<superblock int"))]
        assert symbolic == []
        assert concrete

    def test_each_shard_drops_its_copies(self, monkeypatch):
        """A shard copies states only for the children it replays, so
        every copy is dropped by the time it finishes."""
        replays = []
        tree = certificates._TreeReplay.__init__

        def keep(self, *args):
            tree(self, *args)
            replays.append(self)

        monkeypatch.setattr(certificates._TreeReplay, "__init__", keep)
        executor, result = certify_workload("bubble-sort", 4)
        replays.clear()
        certs = result.certificates
        shards = certificates._partition(certs, True, 3)
        with reference_mode(executor):
            for shard in shards:
                certificates._replay_shard(executor, certs, True, *shard)
        assert len(replays) == len(shards) == 3
        assert all(replay.copies == {} and replay.held == 0 for replay in replays)

    @pytest.mark.parametrize("seed", range(20))
    def test_partition_owns_each_path_once(self, seed):
        rng = random.Random(seed)
        certs = random_certificates(rng, rng.randrange(1, 200))
        for tree in (True, False):
            for count in range(1, 6):
                shards = certificates._partition(certs, tree, count)
                assert 1 <= len(shards) <= count
                owned = sorted(p for _, shard_owned in shards for p in shard_owned)
                assert owned == list(range(len(certs)))
                for members, shard_owned in shards:
                    assert members == sorted(set(members))
                    assert shard_owned == sorted(shard_owned)
                    needed = set(shard_owned)
                    if tree:
                        for position in shard_owned:
                            needed.update(ancestors(certs, position))
                    # Members are the owned paths and their ancestors.
                    assert set(members) == needed

    def test_partition_ignores_the_hash_seed(self):
        script = textwrap.dedent(
            """
            import random, sys
            sys.path.insert(0, sys.argv[1])
            from test_certificates import random_certificates
            from repro.core import certificates
            certs = random_certificates(random.Random(7), 300)
            print(certificates._partition(certs, True, 3))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )
        outputs = set()
        for hash_seed in ("0", "1", "12345"):
            env["PYTHONHASHSEED"] = hash_seed
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", script, str(Path(__file__).parent)],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
        assert len(outputs) == 1
        (output,) = outputs
        assert output.startswith("[([")

    @pytest.mark.usefixtures("one_shard")
    @pytest.mark.parametrize("fault", ["exit", "sigkill", "malformed", "short"])
    def test_lost_shard_replays_here(self, fault, monkeypatch):
        """A shard that dies or answers nonsense is replayed by the
        parent and counted as a worker death; the verdicts stay."""
        executor, result = certify_workload("bubble-sort", 4)
        parent = os.getpid()
        replay_shard = certificates._replay_shard

        def faulty(*shard):
            if os.getpid() == parent:
                return replay_shard(*shard)
            if fault == "exit":
                os._exit(3)
            if fault == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            messages, resumed, instructions = replay_shard(*shard)
            if fault == "malformed":
                return ["not", "a", "reply"], resumed, instructions
            return messages[1:], resumed, instructions

        monkeypatch.setattr(certificates, "_replay_shard", faulty)
        force_shards(monkeypatch, 2)
        sharded = reverify(result, executor)
        assert counters(sharded) == counters(result)
        assert sharded.worker_deaths == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.usefixtures("one_shard")
    def test_share_that_cannot_start_replays_here(self, monkeypatch):
        """A forked share whose fork fails replays in the parent, counted
        once as a worker death: a replay process only buys speed."""
        executor, result = certify_workload("bubble-sort", 4)
        attempts = fail_forks(monkeypatch)
        force_shards(monkeypatch, 2)
        sharded = reverify(result, executor)
        assert len(attempts) == 1
        assert sharded.worker_deaths == 1
        assert sharded.certified_paths == sharded.num_paths
        assert counters(sharded) == counters(one_process(result, executor))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_parent_error_stops_every_shard(self, error, monkeypatch):
        """The parent's own shard raises while the others still run:
        each child is stopped and reaped before the error propagates,
        and reference mode is left."""
        executor, result = certify_workload("bubble-sort", 4)
        parent = os.getpid()

        def failing(*shard):
            if os.getpid() == parent:
                raise error("the parent's shard failed")
            time.sleep(60)

        monkeypatch.setattr(certificates, "_replay_shard", failing)
        force_shards(monkeypatch, 3)
        start = time.monotonic()
        with pytest.raises(error):
            reverify(result, executor)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []
        assert executor.interpreter.staging and executor.superblocks_enabled

    def test_cli_output_printed_once(self, tmp_path):
        """Shards and the replay stream's process leave through
        ``os._exit``: output the parent buffered before forking is not
        printed again by a child."""
        source = tmp_path / "branches.s"
        source.write_text(SOURCE)
        script = textwrap.dedent(
            """
            import multiprocessing, sys
            from repro import cli
            from repro.core import certificates
            certificates._usable_cpus = lambda: 2
            certificates.MIN_SHARD_INSTRUCTIONS = 1
            streams = []
            start = certificates.ReplayStream._start
            def spy(self):
                start(self)
                streams.append(self)
            certificates.ReplayStream._start = spy
            print("buffered before the fork")
            code = cli.main(["explore", sys.argv[1], "--certify"])
            print("streams started:", len(streams))
            print("children alive:", len(multiprocessing.active_children()))
            sys.exit(code)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )
        run = subprocess.run(
            [sys.executable, "-c", script, str(source)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert lines.count("buffered before the fork") == 1
        certified = [line for line in lines if line.startswith("certified results:")]
        assert len(certified) == 1
        assert certified[0].startswith("certified results: 4 paths replayed (0 failed")
        assert "worker deaths" not in run.stdout
        assert lines[-2:] == ["streams started: 1", "children alive: 0"]


class TestReplayStream:
    """Certify replay beside a serial campaign: with a CPU left beside
    it, one forked replay process replays each path soon after it is
    recorded, and only the backlog left when the campaign ends is split.
    The merged verdicts, messages and counters equal one process's.  A
    pool starts no stream, even with CPUs to spare."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("workload", sorted(GATE_SCALES))
    def test_stream_equals_one_process(self, workload, jobs, monkeypatch):
        started = spy_streams(monkeypatch)
        force_shards(monkeypatch, 4)
        executor, result = certify_workload(workload, GATE_SCALES[workload], jobs)
        assert len(started) == (jobs == 1)
        assert multiprocessing.active_children() == []
        assert result.worker_deaths == 0
        assert counters(result) == counters(one_process(result, executor))
        entry = from_entry(result, executor)
        assert result.certificate_errors == [m for p in entry for m in p]
        assert result.certified_paths == sum(not p for p in entry) == result.num_paths
        assert result.certificate_resumed == result.num_paths - 1

    def test_tampered_claims_are_rejected(self, monkeypatch):
        """A claim tampered on an early path, which the replay process
        owns unless the campaign outran it, and on the last path."""
        honest = certificates.certificate_for
        last = 23  # bubble-sort at scale 4 has 24 paths

        def forged(path):
            cert = honest(path)
            if path.index == 1:
                return dataclasses.replace(cert, instret=cert.instret + 1)
            if path.index == last:
                return dataclasses.replace(cert, exit_code=(cert.exit_code or 0) ^ 1)
            return cert

        monkeypatch.setattr(certificates, "certificate_for", forged)
        started = spy_streams(monkeypatch)
        force_shards(monkeypatch, 4)
        executor, result = certify_workload("bubble-sort", 4)
        assert len(started) == 1 and result.num_paths == last + 1
        entry = from_entry(result, executor)
        assert result.certificate_failures == 2
        assert result.certificate_errors == [m for p in entry for m in p]
        assert result.certificate_errors[0].startswith("path 1: instret")
        assert counters(result) == counters(one_process(result, executor))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "fault", ["exit", "sigkill", "exit-at-end", "malformed", "short"]
    )
    def test_lost_replay_process_replays_here(self, fault, monkeypatch):
        """A replay process that dies while the campaign runs or at the
        end, or answers nonsense, is replayed by the parent and counted
        once as a worker death; the verdicts stay."""
        streaming = mark_replay_process(monkeypatch)
        replay = certificates._TreeReplay.replay
        replay_members = certificates._replay_members

        def dying(self, position, cert):
            if streaming:
                if fault == "exit":
                    os._exit(3)
                os.kill(os.getpid(), signal.SIGKILL)
            return replay(self, position, cert)

        def answering(*args):
            outcome = replay_members(*args)
            if not streaming:
                return outcome
            if fault == "exit-at-end":
                os._exit(3)
            messages, resumed, instructions = outcome
            if fault == "malformed":
                return ["not", "a", "reply"], resumed, instructions
            return messages[1:], resumed, instructions

        if fault in ("exit", "sigkill"):
            monkeypatch.setattr(certificates._TreeReplay, "replay", dying)
        else:
            monkeypatch.setattr(certificates, "_replay_members", answering)
        started = spy_streams(monkeypatch)
        force_shards(monkeypatch, 4)
        executor, result = certify_workload("bubble-sort", 4)
        assert len(started) == 1
        assert result.worker_deaths == 1
        assert counters(result) == counters(one_process(result, executor))
        assert result.certified_paths == result.num_paths
        assert multiprocessing.active_children() == []

    def test_stream_that_cannot_start_stays_off(self, monkeypatch):
        """The replay process cannot be forked: the stream tries once and
        stays off, the campaign finishes, and the end step forks nothing
        more: its other share replays in the parent.  The failed start
        is one worker death."""
        attempts = fail_forks(monkeypatch)
        started = spy_streams(monkeypatch)
        force_shards(monkeypatch, 2)
        executor, result = certify_workload("bubble-sort", 4)
        assert len(started) == 1 and started[0].process is None
        assert len(attempts) == 1
        assert result.worker_deaths == 1
        assert result.certified_paths == result.num_paths == 24
        assert counters(result) == counters(one_process(result, executor))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("streaming", [True, False])
    def test_no_fork_after_a_failed_start(self, streaming, monkeypatch):
        """Four usable CPUs and every fork failing: the first start
        fails, the stream's in a campaign or the first share's when a
        result is certified again, and no other process is tried.  All
        shares replay in the parent, for one worker death."""
        if streaming:
            attempts = fail_forks(monkeypatch)
            started = spy_streams(monkeypatch)
            force_shards(monkeypatch, 4)
            executor, checked = certify_workload("bubble-sort", 4)
            assert len(started) == 1 and started[0].process is None
        else:
            executor, result = certify_workload("bubble-sort", 4)
            attempts = fail_forks(monkeypatch)
            force_shards(monkeypatch, 4)
            checked = reverify(result, executor)
        assert len(attempts) == 1
        assert checked.worker_deaths == 1
        assert checked.certified_paths == checked.num_paths == 24
        assert counters(checked) == counters(one_process(checked, executor))
        assert multiprocessing.active_children() == []

    def test_lost_share_beside_the_stream_replays_here(self, tmp_path, monkeypatch):
        """The backlog splits four ways: the replay process, the parent
        and two forked shares.  One forked share exits; the parent
        replays it, counted once, and the others' verdicts stand."""
        parent = os.getpid()
        streaming = mark_replay_process(monkeypatch)
        ended = tmp_path / "ended"
        forked = tmp_path / "forked"
        replay = certificates._TreeReplay.replay
        replay_shard = certificates._replay_shard
        stop = certificates.ReplayStream.stop

        def held(self, position, cert):
            # The replay process starts its first path only once the
            # campaign has ended, so nearly every path is backlog.
            deadline = time.monotonic() + 30
            while streaming and not ended.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return replay(self, position, cert)

        def ending(stream):
            ended.touch()
            return stop(stream)

        def exiting(*share):
            if os.getpid() != parent:
                with open(forked, "a") as handle:
                    handle.write("share\n")
                try:
                    os.close(os.open(tmp_path / "lost", os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os._exit(3)  # the first forked share is lost
            return replay_shard(*share)

        monkeypatch.setattr(certificates._TreeReplay, "replay", held)
        monkeypatch.setattr(certificates.ReplayStream, "stop", ending)
        monkeypatch.setattr(certificates, "_replay_shard", exiting)
        started = spy_streams(monkeypatch)
        force_shards(monkeypatch, 4)
        executor, result = certify_workload("bubble-sort", 4)
        assert len(started) == 1
        assert forked.read_text() == "share\n" * 2
        assert result.worker_deaths == 1
        assert result.certified_paths == result.num_paths
        assert counters(result) == counters(one_process(result, executor))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "where, error",
        [
            ("campaign", RuntimeError),
            ("end", RuntimeError),
            ("end", KeyboardInterrupt),
        ],
    )
    def test_parent_error_stops_the_replay_process(self, where, error, monkeypatch):
        """The campaign, or the parent's share of the backlog, raises
        while the replay process runs: it is stopped and reaped before
        the error propagates, and the executor leaves reference mode."""
        parent = os.getpid()
        streaming = mark_replay_process(monkeypatch)
        replay = certificates._TreeReplay.replay
        replay_shard = certificates._replay_shard

        def slow(self, position, cert):
            if streaming:
                time.sleep(0.05)  # so the campaign leaves a backlog
            return replay(self, position, cert)

        def failing(*shard):
            if os.getpid() == parent:
                raise error("the parent's share failed")
            return replay_shard(*shard)

        class CrashingExecutor(BinSymExecutor):
            runs = 0

            def execute(self, *args, **kwargs):
                self.runs += 1
                if self.runs == 8:
                    raise error("the campaign failed")
                return super().execute(*args, **kwargs)

        monkeypatch.setattr(certificates._TreeReplay, "replay", slow)
        monkeypatch.setattr(certificates, "_replay_shard", failing)
        started = spy_streams(monkeypatch)
        force_shards(monkeypatch, 4)
        image = WORKLOADS["bubble-sort"].image(4)
        kind = CrashingExecutor if where == "campaign" else BinSymExecutor
        executor = kind(rv32im(), image)
        begin = time.monotonic()
        with pytest.raises(error):
            Explorer(executor, solver_config=SolverConfig(certify=True)).explore()
        assert time.monotonic() - begin < 30
        assert len(started) == 1
        assert started[0].process.exitcode is not None
        assert multiprocessing.active_children() == []
        assert executor.interpreter.staging and executor.superblocks_enabled

    def test_deadline_cut_certifies_exactly_its_recorded_paths(self, monkeypatch):
        started = spy_streams(monkeypatch)
        force_shards(monkeypatch, 4)
        executor = make_engine("binsym", rv32im(), WORKLOADS["bubble-sort"].image(6))
        result = Explorer(
            executor, solver_config=SolverConfig(certify=True), deadline=0.1
        ).explore()
        assert result.deadline_expired and result.incomplete_paths
        assert 0 < result.num_paths < 720
        assert len(started) == 1
        assert len(result.certificates) == result.num_paths
        assert result.certified_paths == result.num_paths
        assert result.worker_deaths == 0
        assert counters(result) == counters(one_process(result, executor))
        assert multiprocessing.active_children() == []

    def test_replay_process_drops_every_copy(self, tmp_path, monkeypatch):
        """A cut leaves children the campaign kept but never recorded, so
        the replay process, which the campaign's pauses let keep up,
        holds copies no recorded path names.  Keeping its share drops
        them and every copy no member of the share names; its share then
        drops the rest."""
        streaming = mark_replay_process(monkeypatch)
        notes = tmp_path / "copies"
        retain = certificates._TreeReplay.retain
        replay_members = certificates._replay_members

        def note(*values):
            if streaming:
                with open(notes, "a") as handle:
                    handle.write(" ".join(map(str, values)) + "\n")

        def noted_retain(self, certs, members):
            before = len(self.copies)
            retain(self, certs, members)
            note("retain", before, len(self.copies))

        def noted_members(replay, *args):
            outcome = replay_members(replay, *args)
            note("end", len(replay.copies), replay.held)
            return outcome

        add = certificates.ReplayStream.add

        def paced(stream, index, divergences):
            add(stream, index, divergences)
            time.sleep(0.01)  # so the replay process keeps up

        monkeypatch.setattr(certificates._TreeReplay, "retain", noted_retain)
        monkeypatch.setattr(certificates, "_replay_members", noted_members)
        monkeypatch.setattr(certificates.ReplayStream, "add", paced)
        started = spy_streams(monkeypatch)
        force_shards(monkeypatch, 4)
        executor = make_engine("binsym", rv32im(), WORKLOADS["bubble-sort"].image(4))
        result = Explorer(
            executor, solver_config=SolverConfig(certify=True), max_paths=15
        ).explore()
        assert result.truncated and result.num_paths == 15
        assert len(started) == 1
        assert result.certified_paths == 15 and result.worker_deaths == 0
        # Retained at the start (nothing to drop), at the end, then done.
        *_, retained, end = [line.split() for line in notes.read_text().splitlines()]
        assert retained[0] == "retain" and int(retained[1]) > int(retained[2])
        assert end == ["end", "0", "0"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("engine", ["symex-vp", "binsym-free"])
    def test_other_engines_stream_from_entry(self, engine, monkeypatch):
        started = spy_streams(monkeypatch)
        force_shards(monkeypatch, 4)
        image = WORKLOADS["bubble-sort"].image(4)
        if engine == "binsym-free":
            executor = BinSymExecutor(
                rv32im(), image, concretization=ConcretizationPolicy.FREE
            )
        else:
            executor = make_engine(engine, rv32im(), image)
        result = Explorer(executor, solver_config=SolverConfig(certify=True)).explore()
        assert len(started) == 1
        assert result.certified_paths == result.num_paths == 24
        assert result.certificate_resumed == 0 and result.worker_deaths == 0
        assert result.certificate_instructions == result.total_instructions
        assert multiprocessing.active_children() == []

    def test_no_stream_without_a_spare_cpu(self, monkeypatch):
        """A serial campaign on the one usable CPU starts no stream."""
        started = spy_streams(monkeypatch)
        force_shards(monkeypatch, 1)
        _, result = certify_workload("bubble-sort", 4)
        assert started == []
        assert result.certified_paths == result.num_paths

    def test_path_recorded_before_an_interrupt_is_certified(self, monkeypatch):
        """A Ctrl-C between recording a path and handing it over: the end
        step hands it over, so every recorded path gets a verdict."""
        fresh = explorer._Campaign.fresh

        def interrupting(campaign, digest):
            if campaign.result.num_paths >= 10:
                raise KeyboardInterrupt
            return fresh(campaign, digest)

        monkeypatch.setattr(explorer._Campaign, "fresh", interrupting)
        started = spy_streams(monkeypatch)
        force_shards(monkeypatch, 4)
        executor, result = certify_workload("bubble-sort", 4)
        assert result.interrupted and 10 <= result.num_paths < 24
        assert len(started) == 1 and result.worker_deaths == 0
        assert len(started[0].certificates) == result.num_paths
        assert result.certified_paths == result.num_paths
        assert counters(result) == counters(one_process(result, executor))
        assert multiprocessing.active_children() == []

    def test_stream_under_a_zero_memory_budget_certifies_every_path(
        self, monkeypatch
    ):
        """Under ``memory_budget_mb=0`` the campaign drops its snapshot
        pool at its fourth run while the stream replays beside it.  The
        replay keeps the pool's budget, so every path certifies and the
        counters are a one-process replay's."""
        started = spy_streams(monkeypatch)
        force_shards(monkeypatch, 4)
        executor = make_engine("binsym", rv32im(), WORKLOADS["bubble-sort"].image(4))
        result = Explorer(
            executor, solver_config=SolverConfig(certify=True), memory_budget_mb=0
        ).explore()
        assert len(started) == 1 and result.worker_deaths == 0
        assert result.degradations == 1
        assert result.certified_paths == result.num_paths
        assert counters(result) == counters(one_process(result, executor))
        assert multiprocessing.active_children() == []


class TestCertificateState:
    """Store state round trip and field validation."""

    @pytest.fixture()
    def state(self):
        _, result = certify_workload("bubble-sort", 3)
        return certificate_to_state(result.certificates[-1])

    def test_round_trip_keeps_links(self, state):
        cert = certificate_from_state(state)
        assert cert.parent is not None and cert.divergence is not None
        assert certificate_to_state(cert) == state

    def test_state_without_links_still_loads(self, state):
        for key in ("parent", "divergence", "condition_digest"):
            del state[key]
        cert = certificate_from_state(state)
        assert cert.parent is None and cert.divergence is None

    @pytest.mark.parametrize(
        "field, value",
        [
            ("index", True),
            ("index", -1),
            ("halt_reason", 5),
            ("exit_code", "x"),
            ("exit_code", False),
            ("instret", True),
            ("trace_length", "bad"),
            ("stdout_digest", 7),
            ("final_pc", 1.5),
            ("condition_digest", "zz"),
            ("parent", -1),
            ("parent", True),
            ("parent", "0"),
            ("divergence", -2),
            ("divergence", 1.5),
            ("inputs", [["in_00020000", True, 3]]),
            ("inputs", [["in_00020000", 8, "3"]]),
        ],
    )
    def test_malformed_field_rejected(self, state, field, value):
        state[field] = value
        with pytest.raises(ValueError, match="malformed"):
            certificate_from_state(state)


class TestCorruptionChaos:
    """corrupt= schedules: poisoned cache entries are absorbed."""

    def attribution(self, result):
        return (
            result.num_queries
            + result.cache_hits
            + result.fast_path_answers
            + result.pruned_queries
            + result.unknown_queries
        )

    def test_corruption_preserves_paths_and_attribution(self):
        # A poisoned entry is only detectable when a cache hit reads it
        # back.  uri-parser at scale 3 gets no hit, so it pins path set
        # and attribution only; bubble-sort at scale 4 re-reads entries
        # through exact and subsumption hits.
        quarantines = 0
        for workload, scale in (("uri-parser", 3), ("bubble-sort", 4)):
            clean = explore(workload=workload, scale=scale)
            for seed in range(3):
                plan = FaultPlan(seed=seed, corrupt_rate=40)
                faulted = explore(workload=workload, scale=scale, faults=plan)
                assert faulted.path_set() == clean.path_set()
                assert self.attribution(faulted) == self.attribution(clean)
                quarantines += faulted.solver_stats.get("cache_quarantines", 0)
        assert quarantines > 0

    def test_corruption_parallel(self):
        # Draws are keyed by worker uid and per-worker store ordinal, and
        # how the two workers split the cache entries depends on timing:
        # poisoning every entry keeps the check independent of the split.
        clean = explore(workload="bubble-sort")
        plan = FaultPlan(seed=1, corrupt_rate=100)
        faulted = explore(workload="bubble-sort", jobs=2, faults=plan)
        assert faulted.path_set() == clean.path_set()
        assert faulted.solver_stats.get("cache_corruptions", 0) > 0
        assert faulted.solver_stats.get("cache_quarantines", 0) > 0

    def test_corruption_with_certify(self):
        # Belt and braces: even with poisoning active, certify mode
        # still certifies every path (quarantine precedes any answer).
        plan = FaultPlan(seed=2, corrupt_rate=40)
        result = explore(certify=True, workload="uri-parser", faults=plan)
        assert result.certified_paths == result.num_paths
        assert result.certificate_failures == 0

    def test_corrupt_spec_parses(self):
        plan = FaultPlan.parse("corrupt=30,seed=5")
        assert plan.corrupt_rate == 30
        assert plan.seed == 5
        assert plan.active
        assert plan.corruptor("serial") is not None
        assert FaultPlan().corruptor("serial") is None

    def test_corruptor_is_deterministic(self):
        plan = FaultPlan(seed=7, corrupt_rate=50)
        first = plan.corruptor("w1")
        second = plan.corruptor("w1")
        draws = [(kind, n) for kind in ("model", "core") for n in range(20)]
        assert [first(k, n) for k, n in draws] == [second(k, n) for k, n in draws]
        assert any(first(k, n) for k, n in draws)


class TestCheckpointIntegrity:
    """The journal carries a content digest; damage is always an error."""

    def run_checkpointed(self, tmp_path, resume=False):
        return Explorer(
            make_executor(),
            use_cache=True,
            checkpoint_dir=str(tmp_path),
            resume=resume,
        ).explore()

    def test_clean_roundtrip_still_resumes(self, tmp_path):
        first = self.run_checkpointed(tmp_path)
        resumed = self.run_checkpointed(tmp_path, resume=True)
        assert resumed.path_set() == first.path_set()

    def test_truncated_journal_rejected(self, tmp_path):
        self.run_checkpointed(tmp_path)
        journal = tmp_path / "checkpoint.json"
        data = journal.read_bytes()
        journal.write_bytes(data[: len(data) // 2])
        manager = CheckpointManager(str(tmp_path), strategy="dfs", seed=0)
        with pytest.raises(ValueError, match="truncated"):
            manager.load()

    def test_bit_flipped_journal_rejected(self, tmp_path):
        self.run_checkpointed(tmp_path)
        journal = tmp_path / "checkpoint.json"
        data = bytearray(journal.read_bytes())
        flip_counter_digit(data)
        journal.write_bytes(bytes(data))
        manager = CheckpointManager(str(tmp_path), strategy="dfs", seed=0)
        with pytest.raises(ValueError, match="integrity check"):
            manager.load()

    def test_missing_digest_rejected(self, tmp_path):
        self.run_checkpointed(tmp_path)
        journal = tmp_path / "checkpoint.json"
        raw = json.loads(journal.read_text())
        journal.write_text(json.dumps(raw["state"]))  # digest stripped
        manager = CheckpointManager(str(tmp_path), strategy="dfs", seed=0)
        with pytest.raises(ValueError, match="missing integrity"):
            manager.load()

    def test_resume_surfaces_corruption_error(self, tmp_path):
        self.run_checkpointed(tmp_path)
        journal = tmp_path / "checkpoint.json"
        journal.write_bytes(journal.read_bytes()[:40])
        with pytest.raises(ValueError, match="truncated or damaged"):
            self.run_checkpointed(tmp_path, resume=True)

    def test_certify_digests_survive_checkpoint(self, tmp_path):
        executor = make_executor()
        solver_config = SolverConfig(certify=True)
        Explorer(
            executor,
            use_cache=True,
            solver_config=solver_config,
            checkpoint_dir=str(tmp_path),
        ).explore()
        manager = CheckpointManager(str(tmp_path), strategy="dfs", seed=0)
        state = manager.load()
        assert state is not None and state.complete
        digests = [payload[7] for payload in state.paths]
        assert digests and all(d is not None for d in digests)
