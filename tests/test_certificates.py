"""The evidence layer: path certificates, certify mode, cache corruption
chaos, and checkpoint-journal integrity.

One contract ties these together (PR 8): every cached or reported
answer is either independently checkable or re-derived on demand, and a
failed check quarantines the evidence and falls back to a fresh
derivation — counted, never trusted.
"""

import dataclasses
import json
import multiprocessing

import pytest

from repro.asm import assemble
from repro.core import BinSymExecutor, Explorer, FaultPlan
from repro.core.certificates import (
    reference_mode,
    replay_mismatches,
    verify_result,
)
from repro.core.checkpoint import CheckpointManager
from repro.eval.engines import make_engine
from repro.eval.workloads import WORKLOADS
from repro.smt.solver import SolverConfig
from repro.spec import rv32im

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


def make_executor():
    return BinSymExecutor(rv32im(), assemble(SOURCE))


def explore(
    certify=False, proof_log=True, jobs=1, faults=None, workload=None, scale=3
):
    if workload is not None:
        executor = make_engine("binsym", rv32im(), WORKLOADS[workload].image(scale))
    else:
        executor = make_executor()
    solver_config = SolverConfig(certify=certify, proof_log=proof_log)
    return Explorer(
        executor,
        jobs=jobs,
        use_cache=True,
        solver_config=solver_config,
        faults=faults,
    ).explore()


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

    def test_certify_does_not_change_path_set(self):
        plain = explore(certify=False)
        certified = explore(certify=True)
        assert certified.path_set() == plain.path_set()

    def test_parallel_all_paths_certified(self):
        serial = explore(certify=True, workload="bubble-sort")
        pooled = explore(certify=True, jobs=2, workload="bubble-sort")
        assert pooled.path_set() == serial.path_set()
        for result in (serial, pooled):
            assert result.certified_paths == result.num_paths
            assert result.certificate_failures == 0

    def test_no_proof_log_path_set_unchanged(self):
        logged = explore(proof_log=True)
        unlogged = explore(proof_log=False)
        assert unlogged.path_set() == logged.path_set()
        assert unlogged.num_queries == logged.num_queries

    def test_no_proof_log_parallel_path_set_unchanged(self):
        logged = explore(proof_log=True, jobs=2, workload="bubble-sort")
        unlogged = explore(proof_log=False, jobs=2, workload="bubble-sort")
        assert unlogged.path_set() == logged.path_set()

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
    def test_tampered_field_rejected(self, certified, mutation):
        executor, result = certified
        cert = mutation(result.certificates[0])
        with reference_mode(executor):
            problems = replay_mismatches(cert, executor)
        assert problems, "tampered certificate was accepted"

    def test_verify_result_counts_failures(self, certified):
        executor, result = certified
        # Corrupt one recorded path in memory; re-verification must
        # count exactly one failing certificate and keep the rest.
        result.certified_paths = 0
        result.certificate_failures = 0
        result.certificate_errors = []
        result.paths[0].instret += 1
        failures = verify_result(result, executor)
        assert result.certificate_failures == 1
        assert result.certified_paths == result.num_paths - 1
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
        # Flip one content byte inside the state object (a digit of a
        # counter or digest — never the JSON structure).
        victim = data.rindex(b"1")
        data[victim] = ord("2")
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
