"""Assumption-level UNSAT cores through the QF_BV solver stack.

Covers the PR 4 seam end to end: ``Solver.last_core`` (term-level
cores from the CDCL layer's ``analyzeFinal`` + greedy minimization),
minimal-core storage in :class:`QueryCache`, and the ablation flags'
behavioural invariants on a real exploration workload.
"""

import multiprocessing

import pytest

from repro.asm import assemble
from repro.core import BinSymExecutor, Explorer
from repro.smt import terms as T
from repro.smt.solver import CachingSolver, QueryCache, Result, Solver, SolverConfig
from repro.spec import rv32im

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def bvv(name, width=8):
    return T.bv_var(name, width)


class TestSolverCores:
    def test_core_subset_and_standalone_unsat(self):
        solver = Solver(unsat_cores=True)
        x, y = bvv("x"), bvv("y")
        relevant = [T.ult(x, T.bv(5, 8)), T.ugt(x, T.bv(10, 8))]
        irrelevant = [T.ult(y, T.bv(100, 8))]
        assert solver.check(irrelevant + relevant) is Result.UNSAT
        core = solver.last_core
        assert core is not None
        assert core <= set(irrelevant + relevant)
        assert core == set(relevant)  # minimization drops y entirely
        fresh = Solver()
        assert fresh.check(list(core)) is Result.UNSAT

    def test_cores_disabled_by_default(self):
        solver = Solver()
        x = bvv("x")
        assert solver.check([T.ult(x, T.bv(5, 8)), T.ugt(x, T.bv(10, 8))]) \
            is Result.UNSAT
        assert solver.last_core is None

    def test_sat_answer_clears_core(self):
        solver = Solver(unsat_cores=True)
        x = bvv("x")
        assert solver.check([T.ult(x, T.bv(5, 8)), T.ugt(x, T.bv(10, 8))]) \
            is Result.UNSAT
        assert solver.last_core
        assert solver.check([T.ult(x, T.bv(5, 8))]) is Result.SAT
        assert solver.last_core is None

    def test_const_false_core_is_the_constant(self):
        solver = Solver(unsat_cores=True)
        assert solver.check([T.false()]) is Result.UNSAT
        assert solver.last_core == {T.false()}


class TestConstTrueFastPath:
    """Regression for the core-solve attribution bug: constant-true
    assumptions pruned before ``solve()`` must not count a core solve."""

    def test_const_true_assumptions_skip_the_core(self):
        solver = Solver()
        assert solver.check([T.true()]) is Result.SAT
        assert solver.check([]) is Result.SAT
        assert solver.num_checks == 2
        assert solver.num_solves == 0

    def test_assertions_still_reach_the_core(self):
        solver = Solver()
        x = bvv("x")
        solver.add(T.ult(x, T.bv(5, 8)))
        assert solver.check([T.true()]) is Result.SAT
        assert solver.num_solves == 1

    def test_scoped_checks_still_reach_the_core(self):
        solver = Solver()
        x = bvv("x")
        solver.push()
        solver.add(T.ult(x, T.bv(5, 8)))
        assert solver.check([T.true()]) is Result.SAT
        assert solver.num_solves == 1
        solver.pop()

    def test_explorer_attribution_counts_fast_path(self):
        """Through expand_run accounting, a const-true-only query is a
        fast-path answer, not a solved query."""
        solver = Solver()
        before = solver.num_solves
        assert solver.check([T.true(), T.true()]) is Result.SAT
        assert solver.num_solves == before


class TestMinimalCoreCaching:
    def test_core_subsumes_unrelated_superset(self):
        """The payoff path: an UNSAT core stored once answers later
        queries that share only the guilty conjuncts."""
        solver = CachingSolver()
        x = bvv("x")
        guilty = [T.ult(x, T.bv(5, 8)), T.ugt(x, T.bv(10, 8))]
        padding = [T.ult(x, T.bv(200, 8)), T.ult(x, T.bv(199, 8))]
        assert solver.check(padding + guilty) is Result.UNSAT
        assert solver.pipeline_stats["unsat_cores"] >= 1
        before = solver.cache.subsumption_hits
        other_padding = [T.ult(x, T.bv(150, 8))]
        assert solver.check(other_padding + guilty) is Result.UNSAT
        assert solver.cache.subsumption_hits == before + 1

    def test_no_cores_no_subsumption_on_disjoint_padding(self):
        solver = CachingSolver(solver_config=SolverConfig(unsat_cores=False))
        x = bvv("x")
        guilty = [T.ult(x, T.bv(5, 8)), T.ugt(x, T.bv(10, 8))]
        padding = [T.ult(x, T.bv(200, 8))]
        assert solver.check(padding + guilty) is Result.UNSAT
        assert solver.pipeline_stats["unsat_cores"] == 0
        before = solver.cache.subsumption_hits
        assert solver.check([T.ult(x, T.bv(150, 8))] + guilty) is Result.UNSAT
        # Whole-key UNSAT sets cannot subsume across different paddings.
        assert solver.cache.subsumption_hits == before


class TestQueryCacheInvertedIndex:
    def test_rotation_evicts_index_postings(self):
        cache = QueryCache(max_unsat_sets=2)
        terms = [bvv(f"v{i}") for i in range(6)]
        keys = [frozenset({T.ult(t, T.bv(1, 8))}) for t in terms]
        for key in keys[:3]:
            cache.store_unsat(key)
        assert len(cache._unsat_sets) == 2
        # The first set rotated out: no posting survives for it.
        (evicted,) = keys[0]
        assert evicted not in cache._unsat_index
        # Still-resident sets keep answering supersets.
        probe = keys[2] | {T.ult(terms[5], T.bv(9, 8))}
        result, _ = cache.lookup(probe, list(probe))
        assert result is Result.UNSAT
        # The rotated-out set no longer answers.
        probe0 = keys[0] | {T.ult(terms[4], T.bv(9, 8))}
        result0, _ = cache.lookup(probe0, list(probe0))
        assert result0 is None

    def test_duplicate_sets_are_refreshed_not_duplicated(self):
        cache = QueryCache(max_unsat_sets=4)
        x = bvv("x")
        key = frozenset({T.ult(x, T.bv(1, 8))})
        cache.store_unsat(key)
        cache.store_unsat(key)
        assert len(cache._unsat_sets) == 1
        assert len(cache._unsat_ids) == 1

    def test_core_smaller_than_key_registers_core(self):
        cache = QueryCache()
        x, y = bvv("x"), bvv("y")
        a, b = T.ult(x, T.bv(5, 8)), T.ugt(x, T.bv(9, 8))
        pad = T.ult(y, T.bv(3, 8))
        key = frozenset({a, b, pad})
        cache.store_unsat(key, core=frozenset({a, b}))
        # Exact hit on the full key:
        result, _ = cache.lookup(key, list(key))
        assert result is Result.UNSAT
        # Subsumption from the *core*, under different padding:
        probe = frozenset({a, b, T.ult(y, T.bv(200, 8))})
        result, _ = cache.lookup(probe, list(probe))
        assert result is Result.UNSAT

    def test_empty_core_is_never_registered(self):
        cache = QueryCache()
        x = bvv("x")
        key = frozenset({T.ult(x, T.bv(5, 8))})
        cache.store_unsat(key, core=frozenset())
        probe = frozenset({T.ugt(x, T.bv(9, 8))})
        result, _ = cache.lookup(probe, list(probe))
        assert result is None


SATURATING = """\
_start:
    li a0, 0x30000
    li a1, 2
    li a7, 1337
    ecall
    li s0, 0x30000
    lbu t0, 0(s0)
    lbu t1, 1(s0)
    li t2, 40
    bltu t0, t2, small
    li t3, 1
    j sum
small:
    li t3, 0
sum:
    add t4, t0, t1
    li t5, 60
    bltu t4, t5, below
    li a0, 2
    j out
below:
    add a0, t3, zero
out:
    li a7, 93
    ecall
"""


def build_executor(source):
    isa = rv32im()
    return BinSymExecutor(isa, assemble(source, isa=isa))


class TestAblationInvariance:
    """Path sets and attribution totals are flag-invariant."""

    CONFIGS = {
        "full": SolverConfig(),
        "no-cores": SolverConfig(unsat_cores=False),
        "no-trail": SolverConfig(trail_reuse=False),
        "neither": SolverConfig(unsat_cores=False, trail_reuse=False),
    }

    def explore(self, config, jobs=1):
        return Explorer(
            build_executor(SATURATING),
            jobs=jobs,
            use_cache=True,
            solver_config=config,
        ).explore()

    def test_path_sets_identical_across_flags(self):
        reference = None
        total_answered = None
        for name, config in self.CONFIGS.items():
            result = self.explore(config)
            answered = (
                result.num_queries + result.cache_hits + result.fast_path_answers
            )
            if reference is None:
                reference = result.path_set()
                total_answered = answered
            assert result.path_set() == reference, name
            # Every query is still answered exactly once by some tier.
            assert answered == total_answered, name

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_parallel_matches_serial_with_cores(self):
        serial = self.explore(SolverConfig())
        parallel = self.explore(SolverConfig(), jobs=2)
        assert parallel.path_set() == serial.path_set()
        assert parallel.workers == 2
