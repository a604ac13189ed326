"""Persistent cross-run artifact store (PR 10: ``--store DIR``).

The contract this file pins: a warm start from an on-disk store is
**bit-identical** to a cold run (same path set, conserved query
attribution) and strictly cheaper (fewer SAT-core solves); every
artifact is verified on load (wrapper digest, format version, semantic
re-check) so torn writes, bit flips and version skew are quarantined
or rejected — never served; I/O failure disables the tier for the run
and wiping the store mid-campaign degrades to cold behaviour.  Store
keys are content-addressed (:mod:`repro.smt.digest`), so they survive
interner resets and process restarts.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

from repro.core import Explorer
from repro.core.store import (
    FORMAT_VERSION,
    ArtifactStore,
    read_wrapper,
    state_digest,
    validate_query_state,
)
from repro.smt import terms as T
from repro.smt.digest import store_key, term_digest
from repro.smt.solver import Model, Result
from tests.test_faults import HAS_FORK, build_executor, needs_fork


def bvv(name, width=8):
    return T.bv_var(name, width)


def sat_query():
    x = bvv("x")
    conds = [T.ult(x, T.bv(10, 8)), T.ugt(x, T.bv(3, 8))]
    return frozenset(conds), conds, Model({x: 5})


def unsat_query():
    x = bvv("y")
    conds = [T.ult(x, T.bv(4, 8)), T.ugt(x, T.bv(9, 8))]
    return frozenset(conds), conds


class TestStoreRoundTrip:
    def test_sat_round_trip(self, tmp_path):
        key, conds, model = sat_query()
        store = ArtifactStore(str(tmp_path))
        store.save_query(key, Result.SAT, model=model)
        assert store.stores == 1
        warm = store.load_query(key, conds)
        assert warm is not None
        verdict, warm_model, core = warm
        assert verdict is Result.SAT and core is None
        assert warm_model[bvv("x")] == 5
        assert store.hits == 1 and store.quarantines == 0

    def test_unsat_round_trip_returns_core(self, tmp_path):
        key, conds = unsat_query()
        store = ArtifactStore(str(tmp_path))
        store.save_query(key, Result.UNSAT, core=key)
        warm = store.load_query(key, conds)
        assert warm is not None
        verdict, model, core = warm
        assert verdict is Result.UNSAT and model is None
        assert core == key

    def test_missing_entry_is_a_silent_miss(self, tmp_path):
        key, conds, _ = sat_query()
        store = ArtifactStore(str(tmp_path))
        assert store.load_query(key, conds) is None
        assert store.quarantines == 0 and not store.disabled

    def test_keys_survive_interner_reset(self, tmp_path):
        """The restart-stability claim at its smallest: the same
        conditions, re-interned from scratch, address the same file."""
        key, _, model = sat_query()
        name = store_key(key)
        ArtifactStore(str(tmp_path)).save_query(key, Result.SAT, model=model)
        T.reset_interner()
        key2, conds2, _ = sat_query()
        assert store_key(key2) == name
        warm = ArtifactStore(str(tmp_path)).load_query(key2, conds2)
        assert warm is not None and warm[0] is Result.SAT

    def test_first_writer_wins(self, tmp_path):
        key, conds, model = sat_query()
        store = ArtifactStore(str(tmp_path))
        store.save_query(key, Result.SAT, model=model)
        store.save_query(key, Result.SAT, model=model)
        assert store.stores == 1  # second write skipped, not re-written


class TestVerificationOnLoad:
    def _entry_path(self, store, key):
        return os.path.join(store.root, "queries", store_key(key) + ".json")

    def test_truncated_file_is_quarantined(self, tmp_path):
        key, conds, model = sat_query()
        store = ArtifactStore(str(tmp_path))
        store.save_query(key, Result.SAT, model=model)
        path = self._entry_path(store, key)
        with open(path, "r+") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        assert store.load_query(key, conds) is None
        assert store.quarantines == 1
        assert os.path.exists(path + ".quarantined")
        assert not os.path.exists(path)
        # The quarantined entry reads as a miss forever after.
        assert store.load_query(key, conds) is None
        assert store.quarantines == 1

    def test_bit_flip_is_quarantined(self, tmp_path):
        key, conds, model = sat_query()
        store = ArtifactStore(str(tmp_path))
        store.set_corruptor(lambda kind, ordinal: kind == "store")
        store.save_query(key, Result.SAT, model=model)
        store.set_corruptor(None)
        assert store.load_query(key, conds) is None
        assert store.quarantines == 1

    def test_semantic_forgery_with_refreshed_digest_is_quarantined(
        self, tmp_path
    ):
        """A forged model whose wrapper digest was recomputed passes
        the structural checks; the semantic re-evaluation catches it."""
        x = bvv("x")
        conds = [T.eq(x, T.bv(3, 8))]
        key = frozenset(conds)
        store = ArtifactStore(str(tmp_path))
        store.save_query(key, Result.SAT, model=Model({x: 3}))
        path = self._entry_path(store, key)
        state = read_wrapper(path)
        state["model"] = [["x", 8, 4]]  # x=4 cannot satisfy x==3
        body = json.dumps({"digest": state_digest(state), "state": state})
        os.replace(path, path + ".bak")
        with open(path, "w") as handle:
            handle.write(body)
        assert store.load_query(key, conds) is None
        assert store.quarantines == 1

    def test_version_skew_is_rejected_but_left_in_place(self, tmp_path):
        key, conds, model = sat_query()
        store = ArtifactStore(str(tmp_path))
        store.save_query(key, Result.SAT, model=model)
        path = self._entry_path(store, key)
        state = read_wrapper(path)
        state["version"] = FORMAT_VERSION + 1
        body = json.dumps({"digest": state_digest(state), "state": state})
        with open(path, "w") as handle:
            handle.write(body)
        assert store.load_query(key, conds) is None
        assert store.skews == 1 and store.quarantines == 0
        # Skewed files belong to another format generation: left for
        # that generation (or fsck), never renamed.
        assert os.path.exists(path)

    def test_torn_write_hook_quarantines_on_next_read(self, tmp_path):
        key, conds, model = sat_query()
        store = ArtifactStore(str(tmp_path))
        store.set_fault_hook(lambda op, ordinal: "torn" if op == "write" else None)
        store.save_query(key, Result.SAT, model=model)
        store.set_fault_hook(None)
        assert store.load_query(key, conds) is None
        assert store.quarantines == 1

    def test_iofail_disables_the_tier_softly(self, tmp_path):
        key, conds, model = sat_query()
        store = ArtifactStore(str(tmp_path))
        store.set_fault_hook(lambda op, ordinal: "iofail")
        store.save_query(key, Result.SAT, model=model)
        assert store.disabled
        assert store.statistics["store_disabled"] == 1
        # Every later operation is a total no-op, not an error.
        store.set_fault_hook(None)
        store.save_query(key, Result.SAT, model=model)
        assert store.load_query(key, conds) is None
        assert store.stores == 0

    def test_wiped_store_reads_as_cold(self, tmp_path):
        key, conds, model = sat_query()
        store = ArtifactStore(str(tmp_path))
        store.save_query(key, Result.SAT, model=model)
        shutil.rmtree(str(tmp_path))
        assert store.load_query(key, conds) is None
        assert store.quarantines == 0

    def test_validate_rejects_foreign_key_name(self, tmp_path):
        key, conds, model = sat_query()
        store = ArtifactStore(str(tmp_path))
        store.save_query(key, Result.SAT, model=model)
        state = read_wrapper(self._entry_path(store, key))
        with pytest.raises(ValueError):
            validate_query_state(state, name="0" * 32)


class TestWarmExploration:
    """Cold run writes the store; warm run re-reads it bit-identically."""

    def _explore(self, store_dir, **kwargs):
        return Explorer(
            build_executor(), store_dir=store_dir, **kwargs
        ).explore()

    def test_warm_run_is_bit_identical_and_cheaper(self):
        baseline = Explorer(build_executor()).explore()
        with tempfile.TemporaryDirectory() as tmp:
            cold = self._explore(tmp)
            assert cold.path_set() == baseline.path_set()
            cold_solves = cold.solver_stats.get("sat_core_solves", 0)
            assert cold_solves > 0
            # Fresh interner = the next process of a restart: content
            # digests must re-address every artifact the cold run wrote.
            T.reset_interner()
            warm = self._explore(tmp)
        assert warm.path_set() == baseline.path_set()
        assert warm.store_hits > 0
        assert warm.store_quarantines == 0 and warm.store_disabled == 0
        assert warm.solver_stats.get("sat_core_solves", 0) < cold_solves
        # Attribution conservation: a warm hit is a cache hit, so the
        # total answered work is identical between cold and warm.
        def attribution(result):
            return (
                result.num_queries
                + result.cache_hits
                + result.fast_path_answers
                + result.pruned_queries
                + result.unknown_queries
            )

        assert attribution(warm) == attribution(cold)

    @needs_fork
    def test_warm_run_with_pool(self):
        baseline = Explorer(build_executor()).explore()
        with tempfile.TemporaryDirectory() as tmp:
            cold = self._explore(tmp, jobs=2)
            assert cold.path_set() == baseline.path_set()
            T.reset_interner()
            warm = self._explore(tmp, jobs=2)
        assert warm.path_set() == baseline.path_set()
        assert warm.store_hits > 0
        assert warm.store_quarantines == 0 and warm.store_disabled == 0

    def test_summary_reports_store_section(self):
        with tempfile.TemporaryDirectory() as tmp:
            cold = self._explore(tmp)
            T.reset_interner()
            warm = self._explore(tmp)
        assert "store:" in warm.summary()
        assert "store:" not in Explorer(build_executor()).explore().summary()
        assert cold.store_hits == 0

    def test_true_cold_process_warm_start(self):
        """The store written by a *separate OS process* warms this one:
        no shared interner, no shared memo, only the directory."""
        with tempfile.TemporaryDirectory() as tmp:
            script = (
                "import sys; sys.path.insert(0, {src!r}); "
                "sys.path.insert(0, {root!r}); "
                "from repro.core import Explorer; "
                "from tests.test_faults import build_executor; "
                "r = Explorer(build_executor(), store_dir={tmp!r}).explore(); "
                "print(len(r.path_set()))"
            ).format(
                src=os.path.join(os.path.dirname(__file__), "..", "src"),
                root=os.path.join(os.path.dirname(__file__), ".."),
                tmp=tmp,
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
            )
            assert int(proc.stdout.strip()) > 0
            baseline = Explorer(build_executor()).explore()
            warm = self._explore(tmp)
        assert warm.path_set() == baseline.path_set()
        assert warm.store_hits > 0
        assert warm.store_quarantines == 0


class TestCheckpointTimesStore:
    """Satellite: crash-safe checkpoints and the warm store compose."""

    def test_resume_with_warm_store_completes_cold_path_set(self):
        baseline = Explorer(build_executor()).explore()
        with tempfile.TemporaryDirectory() as ckpt, \
                tempfile.TemporaryDirectory() as store:
            # Populate the store with a full cold campaign first.
            cold = Explorer(build_executor(), store_dir=store).explore()
            assert cold.path_set() == baseline.path_set()
            T.reset_interner()
            cut = Explorer(
                build_executor(),
                store_dir=store,
                checkpoint_dir=ckpt,
                deadline=0.0,
            ).explore()
            assert cut.deadline_expired
            resumed = Explorer(
                build_executor(),
                store_dir=store,
                checkpoint_dir=ckpt,
                resume=True,
            ).explore()
        assert resumed.path_set() == baseline.path_set()
        assert resumed.incomplete_paths == 0
        assert cut.store_hits + resumed.store_hits > 0
        assert resumed.store_quarantines == 0 and resumed.store_disabled == 0

    @needs_fork
    def test_resume_with_warm_store_and_pool(self):
        baseline = Explorer(build_executor()).explore()
        with tempfile.TemporaryDirectory() as ckpt, \
                tempfile.TemporaryDirectory() as store:
            cold = Explorer(build_executor(), store_dir=store).explore()
            assert cold.path_set() == baseline.path_set()
            T.reset_interner()
            cut = Explorer(
                build_executor(),
                jobs=4,
                store_dir=store,
                checkpoint_dir=ckpt,
                deadline=0.0,
            ).explore()
            assert cut.deadline_expired
            resumed = Explorer(
                build_executor(),
                jobs=4,
                store_dir=store,
                checkpoint_dir=ckpt,
                resume=True,
            ).explore()
        assert resumed.path_set() == baseline.path_set()
        assert resumed.incomplete_paths == 0
        assert resumed.store_quarantines == 0 and resumed.store_disabled == 0


class TestCertificatePersistence:
    def test_certify_run_persists_and_reloads_certificates(self):
        """The serial driver and the pool each persist their replayed
        certificates to the store (one test id, so both jobs values
        run in a loop)."""
        from repro.smt.solver import SolverConfig

        for jobs in (1, 2) if HAS_FORK else (1,):
            with tempfile.TemporaryDirectory() as tmp:
                result = Explorer(
                    build_executor(),
                    jobs=jobs,
                    store_dir=tmp,
                    solver_config=SolverConfig(certify=True),
                ).explore()
                assert result.workers == jobs
                assert result.certificates and not result.certificate_failures
                store = ArtifactStore(tmp, certify=True)
                certs = store.load_certificates()
            assert len(certs) == len(result.certificates), jobs

    def test_certificate_state_round_trip(self):
        from repro.core.certificates import (
            certificate_from_state,
            certificate_to_state,
        )
        from repro.smt.solver import SolverConfig

        result = Explorer(
            build_executor(), solver_config=SolverConfig(certify=True)
        ).explore()
        for cert in result.certificates:
            state = certificate_to_state(cert)
            json.loads(json.dumps(state))  # JSON-stable
            assert certificate_from_state(state) == cert


class TestDigestStability:
    def test_term_digest_survives_interner_reset(self):
        before = term_digest(T.ult(bvv("x"), T.bv(10, 8)))
        T.reset_interner()
        after = term_digest(T.ult(bvv("x"), T.bv(10, 8)))
        assert before == after

    def test_store_key_ignores_order_and_duplicates(self):
        x = bvv("x")
        a, b = T.ult(x, T.bv(10, 8)), T.ugt(x, T.bv(3, 8))
        assert store_key(frozenset([a, b])) == store_key(frozenset([b, a]))
        assert store_key([a, b, a]) == store_key([a, b])
        assert store_key([a]) != store_key([b])
