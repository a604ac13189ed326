"""Tests for the cross-path query cache.

Covers :class:`CachingSolver` answers against a plain :class:`Solver`,
the cache's exact / UNSAT-subsumption tiers and their bookkeeping, and
the end-to-end property that caching never changes what exploration
discovers and attributes every flip query exactly once, where it was
answered, serial and on a worker pool.  Dropping the child of a
repeated flip query is the campaign's flip dedup, tested with the pool
(``TestFlipDedup`` in ``test_parallel_explorer.py``).
"""

import multiprocessing

import pytest

from repro.asm import assemble
from repro.core import BinSymExecutor, Explorer
from repro.eval.engines import make_engine
from repro.eval.workloads import WORKLOADS
from repro.smt import terms as T
from repro.smt.evalbv import evaluate
from repro.smt.solver import CachingSolver, QueryCache, Result, Solver
from repro.spec import rv32im

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def bvv(name, width=8):
    return T.bv_var(name, width)


class TestCachingSolverCorrectness:
    """Cache hits must never change SAT/UNSAT answers."""

    QUERIES = None

    @classmethod
    def build_queries(cls):
        if cls.QUERIES is None:
            x, y = bvv("x"), bvv("y")
            base = [
                [T.ult(x, T.bv(10, 8))],
                [T.ult(x, T.bv(10, 8)), T.ugt(x, T.bv(20, 8))],  # UNSAT
                [T.eq(T.add(x, y), T.bv(5, 8))],
                [T.eq(x, T.bv(3, 8)), T.eq(y, T.bv(4, 8))],
                [T.ult(x, T.bv(10, 8)), T.eq(y, x)],
                [T.eq(x, T.bv(7, 8)), T.ne(x, T.bv(7, 8))],  # UNSAT
            ]
            # Repeats and permutations: all should hit the cache.
            cls.QUERIES = base + [list(reversed(q)) for q in base] + base
        return cls.QUERIES

    def test_answers_match_plain_solver(self):
        cached = CachingSolver()
        for query in self.build_queries():
            reference = Solver()
            expected = reference.check(query)
            got = cached.check(query)
            assert got is expected, query
            if got is Result.SAT:
                model = cached.model()
                assignment = {var: model[var] for t in query for var in t.variables()}
                assert all(evaluate(t, assignment) for t in query), query
        assert cached.cache_hits > 0
        # Cached answers skip the SAT core entirely.
        assert cached.num_checks < len(self.build_queries())

    def test_permuted_and_duplicated_conditions_hit(self):
        solver = CachingSolver()
        x = bvv("x")
        a, b = T.ult(x, T.bv(50, 8)), T.ugt(x, T.bv(5, 8))
        assert solver.check([a, b]) is Result.SAT
        solver.model()
        checks_before = solver.num_checks
        assert solver.check([b, a]) is Result.SAT
        assert solver.check([a, b, a]) is Result.SAT
        assert solver.num_checks == checks_before
        assert solver.cache.exact_hits == 2

    def test_unsat_subsumption(self):
        solver = CachingSolver()
        x = bvv("x")
        core = [T.ult(x, T.bv(4, 8)), T.ugt(x, T.bv(9, 8))]
        assert solver.check(core) is Result.UNSAT
        checks_before = solver.num_checks
        superset = core + [T.ult(x, T.bv(100, 8))]
        assert solver.check(superset) is Result.UNSAT
        assert solver.num_checks == checks_before
        assert solver.cache.subsumption_hits == 1

    def test_matches_plain_solver_with_valid_models(self):
        solver = CachingSolver()
        x, y, z = bvv("mx"), bvv("my"), bvv("mz")
        queries = [
            [T.ult(x, T.bv(10, 8))],
            [T.ult(x, T.bv(10, 8)), T.ugt(x, T.bv(20, 8))],
            [T.eq(T.add(x, y), T.bv(5, 8))],
            [T.eq(x, T.bv(3, 8)), T.eq(y, T.bv(4, 8)), T.ult(z, T.bv(9, 8))],
            [T.ult(x, y), T.ult(y, z), T.ult(z, x)],          # cyclic UNSAT
            [T.ult(x, y), T.ult(y, z)],                        # chain SAT
            [T.eq(T.mul(x, x), T.bv(4, 8)), T.ult(y, T.bv(3, 8))],
            [T.slt(x, T.bv(0, 8)), T.eq(y, T.bv(1, 8))],
            [T.ne(x, T.bv(0, 8)), T.eq(T.urem(y, T.bv(3, 8)), T.bv(1, 8))],
        ]
        for query in queries:
            expected = Solver().check(query)
            assert solver.check(query) is expected, query
            if expected is Result.SAT:
                model = solver.model()
                # The witness binds exactly the query's own variables.
                assert {var for var, _ in model.items()} == {
                    var for term in query for var in term.free_vars()
                }
                assignment = dict(model.items())
                assert all(evaluate(term, assignment) for term in query), query

    def test_division_by_zero_query(self):
        """SMT-LIB division semantics survive the cache (Fig. 2)."""
        x, y = bvv("dvx"), bvv("dvy")
        # x < x/y is only satisfiable because y == 0 makes x/y all-ones.
        query = [T.ult(x, T.udiv(x, y))]
        solver = CachingSolver()
        assert solver.check(query) is Result.SAT
        model = solver.model()
        assignment = {x: model[x], y: model[y]}
        assert evaluate(query[0], assignment)

    def test_const_false_bypasses_cache(self):
        solver = CachingSolver()
        assert solver.check([T.false()]) is Result.UNSAT
        assert len(solver.cache) == 0

    def test_tainted_solver_bypasses_cache(self):
        solver = CachingSolver()
        x = bvv("x")
        solver.add(T.ult(x, T.bv(4, 8)))
        assert solver.check([T.ugt(x, T.bv(9, 8))]) is Result.UNSAT
        # Without the taint guard this exact set would now be answered
        # UNSAT even on a fresh solver where it is satisfiable.
        assert len(solver.cache) == 0
        assert solver.cache.hits == 0

    def test_tainted_solver_bypasses_pipeline(self):
        solver = CachingSolver()
        x = bvv("tnx")
        solver.add(T.ult(x, T.bv(4, 8)))
        assert solver.check([T.ugt(x, T.bv(9, 8))]) is Result.UNSAT
        assert solver.pipeline_stats["queries"] == 0
        assert len(solver.cache) == 0

    def test_statistics_shape(self):
        cache = QueryCache()
        stats = cache.statistics
        assert set(stats) == {
            "entries", "unsat_sets", "hits", "exact_hits", "subsumption_hits",
            "misses", "evictions", "integrity_checks", "quarantines",
            "corruptions",
        }

    def test_pipeline_statistics_shape(self):
        stats = CachingSolver().pipeline_statistics
        assert "sat_core_solves" in stats
        assert "cache_hits" in stats and "cache_misses" in stats
        for key in ("queries", "fast_path_queries", "unsat_cores",
                    "core_conjuncts_dropped", "unknown_queries"):
            assert stats[key] == 0, key

    def test_entry_cap_bounds_memo(self):
        solver = CachingSolver(QueryCache(max_entries=4))
        x = bvv("x", 16)
        for value in range(10):
            assert solver.check([T.eq(x, T.bv(value, 16))]) is Result.SAT
            solver.model()
        assert len(solver.cache) <= 4
        assert solver.cache.evictions > 0
        # Evicted entries simply re-solve; answers stay correct.
        assert solver.check([T.eq(x, T.bv(0, 16))]) is Result.SAT
        assert solver.model()[x] == 0

    def test_eviction_is_recency_aware(self):
        """A ``lookup``-hit entry must outlive never-again-used ones."""
        cache = QueryCache(max_entries=3)
        x = bvv("x", 16)
        queries = [[T.eq(x, T.bv(value, 16))] for value in range(3)]
        keys = [frozenset(q) for q in queries]
        for key, query in zip(keys, queries):
            cache.store_unsat(key)  # placeholder answers; shape is all that matters
        # Touch the oldest entry: it becomes most-recently-used.
        result, _ = cache.lookup(keys[0], queries[0])
        assert result is Result.UNSAT
        # The next store evicts the LRU entry — keys[1], not keys[0].
        extra = [T.eq(x, T.bv(99, 16))]
        cache.store_unsat(frozenset(extra))
        assert cache.evictions == 1
        assert keys[0] in cache._results
        assert keys[1] not in cache._results
        assert keys[2] in cache._results


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


class TestCachedExploration:
    def explore(self, **kwargs):
        executor = BinSymExecutor(rv32im(), assemble(SOURCE))
        return Explorer(executor, **kwargs).explore()

    def test_cache_does_not_change_path_set(self):
        plain = self.explore(use_cache=False)
        cached = self.explore(use_cache=True)
        assert cached.path_set() == plain.path_set()
        assert cached.num_paths == plain.num_paths == 4

    def test_cross_engine_cache_reuse(self):
        """Exploring the same image with a second engine through a shared
        caching solver answers (nearly) every query from cache."""
        image = WORKLOADS["bubble-sort"].image(3)
        isa = rv32im()
        shared = CachingSolver()
        first = Explorer(make_engine("binsym", isa, image), solver=shared).explore()
        second = Explorer(make_engine("binsec", isa, image), solver=shared).explore()
        assert second.num_paths == first.num_paths
        # final_pc differs across engines (engine-specific halt sites),
        # so compare the engine-agnostic part of the path identity.
        def identities(result):
            return {(p.halt_reason, p.exit_code, p.trace_length) for p in result.paths}

        assert identities(second) == identities(first)
        assert second.cache_hits > 0
        assert second.num_queries < first.num_queries

    def test_bubble_sort_path_set_invariant(self):
        image = WORKLOADS["bubble-sort"].image(3)
        plain = Explorer(BinSymExecutor(rv32im(), image)).explore()
        cached = Explorer(
            BinSymExecutor(rv32im(), image), use_cache=True
        ).explore()
        assert cached.path_set() == plain.path_set()
        assert cached.num_paths == 6  # 3!

    def test_uri_parser_signed_comparisons(self):
        """Signed-comparison-heavy workload: cache on == cache off."""
        image = WORKLOADS["uri-parser"].image(2)
        plain = Explorer(BinSymExecutor(rv32im(), image)).explore()
        cached = Explorer(
            BinSymExecutor(rv32im(), image), use_cache=True
        ).explore()
        assert cached.path_set() == plain.path_set()

    def test_stats_attribution_is_exhaustive(self):
        """solved + cached + fast-path covers every flip query."""
        # Scale 4: at scale 3 the cache gets no hit, so saves no solve.
        image = WORKLOADS["bubble-sort"].image(4)
        result = Explorer(
            BinSymExecutor(rv32im(), image), use_cache=True
        ).explore()
        answered = (
            result.num_queries + result.cache_hits + result.fast_path_answers
        )
        assert answered > 0
        assert result.solver_stats["queries"] == answered
        # Fewer core solves than answered queries: the cache earns rent.
        assert result.solver_stats["sat_core_solves"] == result.sat_solves
        assert result.sat_solves < answered

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_parallel_cached_matches_serial(self):
        image = WORKLOADS["bubble-sort"].image(3)
        serial = Explorer(
            BinSymExecutor(rv32im(), image), use_cache=True
        ).explore()
        parallel = Explorer(
            BinSymExecutor(rv32im(), image), jobs=2, use_cache=True
        ).explore()
        assert parallel.path_set() == serial.path_set()
        assert parallel.workers == 2

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_parallel_solver_stats_sum_exactly(self):
        image = WORKLOADS["bubble-sort"].image(3)
        result = Explorer(
            BinSymExecutor(rv32im(), image), jobs=2, use_cache=True
        ).explore()
        answered = (
            result.num_queries + result.cache_hits + result.fast_path_answers
        )
        assert result.solver_stats["queries"] == answered
        assert result.solver_stats["sat_core_solves"] == result.sat_solves


class TestCacheConsistencyFuzz:
    """Structural-consistency fuzz over random cache interleavings.

    Every reachable interleaving of store_sat / store_unsat / lookup —
    including the evictions they trigger at tiny caps — must
    leave the side tables exactly consistent with the primary maps:

    - ``_digests`` covers exactly the memoized keys;
    - ``_models`` binds a witness to exactly the keys memoized SAT;
    - ``_unsat_digests`` covers exactly the live UNSAT-set window;
    - ``_unsat_ids`` is the exact inverse of ``_unsat_sets``;
    - ``_unsat_index`` postings are exactly the live sets containing
      each term, with no empty posting lists left behind.

    A drifted side table is how quarantine/eviction bugs manifest:
    stale digests turn healthy hits into quarantines, stale postings
    resurrect evicted UNSAT sets.  No corruptor is installed — this
    pins the *clean* state machine; poisoned-state recovery is pinned
    by the chaos tests.
    """

    @staticmethod
    def check_invariants(cache: QueryCache) -> None:
        assert set(cache._digests) == set(cache._results)
        assert set(cache._models) == {
            key for key, verdict in cache._results.items()
            if verdict is Result.SAT
        }
        assert set(cache._unsat_digests) == set(cache._unsat_sets)
        assert cache._unsat_ids == {
            conds: set_id for set_id, conds in cache._unsat_sets.items()
        }
        assert len(cache._unsat_ids) == len(cache._unsat_sets)
        expected_index = {}
        for set_id, conds in cache._unsat_sets.items():
            for term in conds:
                expected_index.setdefault(term, set()).add(set_id)
        assert cache._unsat_index == expected_index

    @pytest.mark.parametrize("seed", range(8))
    def test_random_interleavings_stay_consistent(self, seed):
        import random

        rng = random.Random(seed)
        variables = [bvv(name) for name in "abcd"]
        pool = [
            term
            for var in variables
            for k in (3, 9, 27)
            for term in (
                T.ult(var, T.bv(k, 8)),
                T.ugt(var, T.bv(k, 8)),
                T.eq(var, T.bv(k, 8)),
            )
        ]
        # Stores must be semantically honest (a sound solver never
        # answers both verdicts for one key), so a real solver acts as
        # the oracle; its answers are memoized across iterations.
        oracle = Solver()
        answers: dict[frozenset, tuple] = {}

        def solve(key):
            answer = answers.get(key)
            if answer is None:
                verdict = oracle.check(list(key))
                model = oracle.model() if verdict is Result.SAT else None
                answer = answers[key] = (verdict, model)
            return answer

        # Tiny caps so every operation class triggers eviction paths.
        cache = QueryCache(max_unsat_sets=4, max_entries=8)
        self.check_invariants(cache)
        for _ in range(400):
            conditions = rng.sample(pool, rng.randint(1, 4))
            key = frozenset(conditions)
            op = rng.randrange(6)
            if op in (0, 1, 2):
                verdict, model = solve(key)
                if verdict is Result.SAT:
                    cache.store_sat(key, model)
                elif op == 2:
                    # A random subset only enters the subsumption
                    # window as a core when it is genuinely UNSAT.
                    core = frozenset(
                        rng.sample(conditions, rng.randint(1, len(conditions)))
                    )
                    if solve(core)[0] is not Result.UNSAT:
                        core = None
                    cache.store_unsat(key, core=core)
                else:
                    cache.store_unsat(key)
            else:
                cache.lookup(key, conditions)
            self.check_invariants(cache)
        # The run must have exercised all the interesting transitions.
        assert cache.evictions > 0
        assert cache.hits > 0
        assert cache.misses > 0
