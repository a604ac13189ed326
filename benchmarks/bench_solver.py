"""SMT substrate microbenchmarks: terms, bit-blasting, CDCL search.

These locate where solving time goes (the paper's future-work question
about SMT query complexity): term construction with/without interning
payoff, bit-blasting cost per operation class, CDCL behaviour on
structured instances, and the ``--store`` query cache's effect on the
number of queries that reach the CDCL core at all (the Fig. 6 workload
set).
"""

import pytest

from repro.core import BinSymExecutor, Explorer
from repro.eval.workloads import WORKLOADS
from repro.smt import terms as T
from repro.smt.sat import SatSolver
from repro.smt.solver import CachingSolver, Result, Solver
from repro.spec import rv32im


def build_chain(width, depth):
    x = T.bv_var("x", width)
    term = x
    for i in range(depth):
        term = T.add(T.xor(term, T.bv(i + 1, width)), x)
    return term


def test_term_construction_chain(benchmark):
    benchmark.group = "terms"
    benchmark(lambda: build_chain(32, 200))


def test_term_interning_hit_rate(benchmark):
    benchmark.group = "terms"
    build_chain(32, 200)  # warm

    def rebuild():
        return build_chain(32, 200)  # every node is an interner hit

    benchmark(rebuild)


def bitblast_and_solve(width, op):
    solver = Solver()
    a = T.bv_var("a", width)
    b = T.bv_var("b", width)
    out = T.bv_var("out", width)
    solver.add(T.eq(out, op(a, b)))
    solver.add(T.eq(a, T.bv(0x1234 & ((1 << width) - 1), width)))
    solver.add(T.eq(b, T.bv(0x0056, width)))
    assert solver.check() is Result.SAT
    return solver


@pytest.mark.parametrize("op_name", ["add", "mul", "udiv", "shl"])
def test_bitblast_op_32(benchmark, op_name):
    benchmark.group = "bitblast"
    op = {"add": T.add, "mul": T.mul, "udiv": T.udiv, "shl": T.shl}[op_name]
    benchmark.pedantic(
        lambda: bitblast_and_solve(32 if op_name != "udiv" else 16, op),
        rounds=3,
        iterations=1,
    )


def test_sat_pigeonhole(benchmark):
    """UNSAT proof of PHP(5 -> 4): CDCL learning workout."""
    benchmark.group = "sat"

    def php():
        solver = SatSolver()
        holes, pigeons = 4, 5
        var = {
            (p, h): solver.new_var()
            for p in range(pigeons)
            for h in range(holes)
        }
        for p in range(pigeons):
            solver.add_clause([var[p, h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var[p1, h], -var[p2, h]])
        assert solver.solve() is False
        return solver

    benchmark.pedantic(php, rounds=3, iterations=1)


def test_incremental_assumption_queries(benchmark):
    """The explorer's workhorse pattern: one solver, many queries."""
    benchmark.group = "sat"

    def run():
        solver = Solver()
        x = T.bv_var("x", 32)
        conditions = [
            T.ult(x, T.bv(bound, 32)) for bound in range(1000, 1030)
        ]
        sat_count = 0
        for i, condition in enumerate(conditions):
            prefix = conditions[:i]
            if solver.check(prefix + [T.bnot(condition)]) is Result.SAT:
                sat_count += 1
        return sat_count

    benchmark.pedantic(run, rounds=3, iterations=1)


# Fig. 6 / Table I workload set at default scales (bubble-sort at 4, as
# the acceptance criterion names it).
_PIPELINE_WORKLOADS = (
    "bubble-sort",
    "insertion-sort",
    "base64-encode",
    "uri-parser",
    "clif-parser",
)


def _explore_with(image, solver):
    result = Explorer(BinSymExecutor(rv32im(), image), solver=solver).explore()
    return result, solver


#: Workloads where later flip queries repeat earlier ones or contain a
#: cached UNSAT core, so the cache must save solves there outright; on
#: the others it gets no hit and breaks even.
_CACHE_PAYS_ON = ("bubble-sort", "base64-encode")


@pytest.mark.parametrize("workload", _PIPELINE_WORKLOADS)
def test_pipeline_reduces_sat_core_solves(benchmark, workload):
    """The query-cache contract: :class:`CachingSolver` against a plain
    :class:`Solver` finds identical path sets with no more CDCL
    ``solve()`` calls, and strictly fewer where flip queries repeat."""
    benchmark.group = "query-cache"
    image = WORKLOADS[workload].image(WORKLOADS[workload].default_scale)
    plain_result, plain_solver = _explore_with(image, Solver())

    def run():
        return _explore_with(image, CachingSolver())

    cached_result, cached_solver = benchmark.pedantic(run, rounds=1, iterations=1)
    assert cached_result.path_set() == plain_result.path_set()
    assert cached_solver.num_solves <= plain_solver.num_solves
    if workload in _CACHE_PAYS_ON:
        assert cached_solver.num_solves < plain_solver.num_solves
    benchmark.extra_info["solves_plain"] = plain_solver.num_solves
    benchmark.extra_info["solves_cached"] = cached_solver.num_solves
    benchmark.extra_info["cache_hits"] = cached_solver.cache_hits
    benchmark.extra_info["paths"] = cached_result.num_paths
