"""SAT-core benchmarks: trail reuse, assumption cores, minimal-core caching.

PR 4 rebuilt the decision-procedure stack around the branch-flip
workload shape; these benchmarks time the new mechanisms in isolation
and pin the behavioural contracts on the Fig. 6 workload set:

* shared-assumption-prefix **trail reuse** — consecutive queries along
  one path keep the trail segment their common prefix justifies,
* **assumption-level UNSAT cores** — `analyzeFinal` + greedy
  minimization, feeding the query cache *minimal* UNSAT sets,
* the **cores-enabled vs disabled subsumption contract** — with cores
  on, the cache's UNSAT-subsumption tier must answer at least as many
  queries per workload (strictly more in aggregate) and the CDCL core
  must run strictly fewer solves than the no-cores baseline solved,
* the **two-flip neighbourhood contract** — on the default plain
  solver, path counts and SAT/UNSAT attribution equal the values the
  CDCL search alone gave, and the neighbourhood check answers at least
  half of the SAT flips on both sorts without branching.
"""

import pytest

from repro.core import BinSymExecutor, Explorer
from repro.eval.workloads import WORKLOADS
from repro.smt import terms as T
from repro.smt.sat import SAT, UNSAT, SatSolver
from repro.smt.solver import CachingSolver, Result, Solver, SolverConfig
from repro.spec import rv32im

_FIG6_WORKLOADS = (
    "bubble-sort",
    "insertion-sort",
    "base64-encode",
    "uri-parser",
    "clif-parser",
)


# ---------------------------------------------------------------------------
# Core-level microbenchmarks
# ---------------------------------------------------------------------------


def _chain_solver(num_vars, trail_reuse):
    solver = SatSolver(trail_reuse=trail_reuse)
    v = [solver.new_var() for _ in range(num_vars)]
    for i in range(num_vars - 1):
        solver.add_clause([-v[i], v[i + 1]])
    return solver, v


def _prefix_queries(solver, v, rounds):
    sat_count = 0
    prefix = []
    for i in range(rounds):
        prefix.append(v[i])
        if solver.solve(prefix + [v[(i * 7) % len(v)]]) is SAT:
            sat_count += 1
        if solver.solve(prefix) is SAT:
            sat_count += 1
    return sat_count


def test_trail_reuse_prefix_queries(benchmark):
    """The explorer's pattern: many queries along one growing prefix."""
    benchmark.group = "sat-core"
    num_vars, rounds = 400, 120

    def run():
        solver, v = _chain_solver(num_vars, trail_reuse=True)
        return _prefix_queries(solver, v, rounds), solver

    sat_count, solver = benchmark.pedantic(run, rounds=3, iterations=1)
    baseline, v = _chain_solver(num_vars, trail_reuse=False)
    assert _prefix_queries(baseline, v, rounds) == sat_count
    assert solver.statistics["trail_reused_lits"] > 0
    assert baseline.statistics["trail_reused_lits"] == 0
    benchmark.extra_info["trail_reused_lits"] = solver.statistics[
        "trail_reused_lits"
    ]


def test_unsat_core_extraction(benchmark):
    """Core extraction + greedy minimization on padded UNSAT queries."""
    benchmark.group = "sat-core"

    def run():
        solver = Solver(unsat_cores=True)
        x = T.bv_var("x", 32)
        y = T.bv_var("y", 32)
        guilty = [T.ult(x, T.bv(5, 32)), T.ugt(x, T.bv(500, 32))]
        sizes = []
        for i in range(24):
            padding = [T.ult(y, T.bv(1000 + i, 32)), T.ugt(y, T.bv(i, 32))]
            assert solver.check(padding + guilty) is Result.UNSAT
            assert solver.last_core is not None
            sizes.append(len(solver.last_core))
        return sizes

    sizes = benchmark.pedantic(run, rounds=3, iterations=1)
    # Minimization must strip the satisfiable padding every time.
    assert all(size == 2 for size in sizes)


def test_glue_clause_learning(benchmark):
    """UNSAT proof workout exercising LBD-tiered clause management."""
    benchmark.group = "sat-core"

    def php():
        solver = SatSolver()
        holes, pigeons = 5, 6
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
        assert solver.solve() is UNSAT
        return solver

    solver = benchmark.pedantic(php, rounds=3, iterations=1)
    assert all(clause.lbd >= 1 for clause in solver._learned)
    benchmark.extra_info["conflicts"] = solver.statistics["conflicts"]
    benchmark.extra_info["learned_deleted"] = solver.statistics["learned_deleted"]


# ---------------------------------------------------------------------------
# Fig. 6 workload contracts
# ---------------------------------------------------------------------------


def _explore(image, config):
    solver = CachingSolver(solver_config=config)
    result = Explorer(BinSymExecutor(rv32im(), image), solver=solver).explore()
    return result, solver


def _workload_image(name):
    spec = WORKLOADS[name]
    return spec.image(spec.fig6_scale)


@pytest.mark.parametrize("workload", _FIG6_WORKLOADS)
def test_cores_subsumption_contract(benchmark, workload):
    """Cores on: identical path sets, no fewer subsumption answers and
    no more CDCL solves than the no-cores baseline, per workload."""
    benchmark.group = "sat-cores"
    image = _workload_image(workload)
    off_result, off_solver = _explore(
        image, SolverConfig(unsat_cores=False)
    )

    def run():
        return _explore(image, SolverConfig())

    on_result, on_solver = benchmark.pedantic(run, rounds=1, iterations=1)
    assert on_result.path_set() == off_result.path_set()
    assert (
        on_solver.cache.subsumption_hits >= off_solver.cache.subsumption_hits
    )
    assert on_solver.num_solves <= off_solver.num_solves
    benchmark.extra_info["solves_on"] = on_solver.num_solves
    benchmark.extra_info["solves_off"] = off_solver.num_solves
    benchmark.extra_info["subsumed_on"] = on_solver.cache.subsumption_hits
    benchmark.extra_info["subsumed_off"] = off_solver.cache.subsumption_hits
    benchmark.extra_info["min_cores"] = on_solver.pipeline_stats["unsat_cores"]


def test_cores_aggregate_contract(benchmark):
    """Across the Fig. 6 set, minimal cores must strictly increase
    subsumption answers and strictly cut the queries reaching CDCL."""
    benchmark.group = "sat-cores"

    def run():
        totals = {
            "subsumed_on": 0, "subsumed_off": 0,
            "solves_on": 0, "solved_off": 0,
            "trail_lits": 0,
        }
        for workload in _FIG6_WORKLOADS:
            image = _workload_image(workload)
            on_result, on_solver = _explore(image, SolverConfig())
            off_result, off_solver = _explore(
                image, SolverConfig(unsat_cores=False)
            )
            assert on_result.path_set() == off_result.path_set(), workload
            totals["subsumed_on"] += on_solver.cache.subsumption_hits
            totals["subsumed_off"] += off_solver.cache.subsumption_hits
            totals["solves_on"] += on_solver.num_solves
            totals["solved_off"] += off_result.num_queries
            totals["trail_lits"] += on_solver.pipeline_statistics[
                "sat_trail_reused_lits"
            ]
        return totals

    totals = benchmark.pedantic(run, rounds=1, iterations=1)
    # The headline PR 4 claims, in aggregate over the workload set:
    assert totals["subsumed_on"] > totals["subsumed_off"], totals
    assert totals["solves_on"] < totals["solved_off"], totals
    assert totals["trail_lits"] > 0, totals
    for key, value in totals.items():
        benchmark.extra_info[key] = value


#: (paths, SAT answers, UNSAT answers) of the default exploration at
#: Fig. 6 scale, as the CDCL search gave them before the neighbourhood
#: check existed.  A check that answers with a different model may send
#: a child down a different suffix, but never changes these.
_SEARCH_ATTRIBUTION = {
    "bubble-sort": (120, 119, 194),
    "insertion-sort": (120, 119, 0),
    "base64-encode": (75, 74, 25),
    "uri-parser": (16, 15, 0),
    "clif-parser": (33, 32, 0),
}


@pytest.mark.parametrize("workload", _FIG6_WORKLOADS)
def test_neighbourhood_contract(benchmark, workload):
    """Default exploration: search-only attribution, and at least half of
    the SAT flips answered by the neighbourhood check on both sorts."""
    benchmark.group = "sat-neighbourhood"
    image = _workload_image(workload)

    def run():
        return Explorer(BinSymExecutor(rv32im(), image)).explore()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    attribution = (result.num_paths, result.sat_checks, result.unsat_checks)
    assert attribution == _SEARCH_ATTRIBUTION[workload]
    stats = result.solver_stats
    hits = stats["sat_neighbourhood_hits"]
    misses = stats["sat_neighbourhood_misses"]
    assert hits + misses <= stats["sat_core_solves"]
    if workload.endswith("-sort"):
        assert 2 * hits >= result.sat_checks, (hits, result.sat_checks)
    benchmark.extra_info["paths"] = result.num_paths
    benchmark.extra_info["sat_checks"] = result.sat_checks
    benchmark.extra_info["unsat_checks"] = result.unsat_checks
    benchmark.extra_info["neighbourhood_hits"] = hits
    benchmark.extra_info["neighbourhood_misses"] = misses
