"""The SAT core's two-flip neighbourhood check (``SatSolver.solve``).

Before its first branching decision a solve tests, in one bit-parallel
pass over the query's gate cone, the saved phases with zero, one or two
free variables flipped.  These tests pin that a hit is a genuine model
of everything ever added, that a miss falls through to the unchanged
CDCL search, and that the check's cost stays bounded: at most 4,096
candidates and only the gates of the query's cone.  The cone cache and
the order heap persist across solves; neither may change an answer, a
model or a counter, and the cache stays within its bound.
"""

import random

from repro.smt import sat as sat_module
from repro.smt import terms as T
from repro.smt.sat import (
    GATE_AND,
    GATE_MUX,
    GATE_XOR,
    SAT,
    UNSAT,
    SatSolver,
    _NEIGHBOURHOOD_CANDIDATES,
    _flip_masks,
)
from repro.smt.solver import Result, Solver

FREE_BITS = 10
ASSIGNMENTS = 1 << FREE_BITS
ALL = (1 << ASSIGNMENTS) - 1


def bit_table(index):
    """Truth table of free bit ``index``: bit k set iff assignment k sets it."""
    return sum(1 << k for k in range(ASSIGNMENTS) if k >> index & 1)


class TestFlipMasks:
    def test_candidates_in_order_of_flips_then_variables(self):
        count = 6
        masks, full = _flip_masks(count)
        expected = [()]
        expected += [(i,) for i in range(count)]
        expected += [(i, j) for i in range(count) for j in range(i + 1, count)]
        assert full == (1 << len(expected)) - 1
        flipped = [
            tuple(i for i in range(count) if masks[i] >> bit & 1)
            for bit in range(full.bit_length())
        ]
        assert flipped == expected

    def test_candidate_count_never_exceeds_the_bound(self):
        assert _NEIGHBOURHOOD_CANDIDATES == 4096
        _, full = _flip_masks(90)
        assert full.bit_length() == 4096  # 1 + 90 + 90*89/2: pairs fit
        masks, full = _flip_masks(91)
        assert full.bit_length() == 92  # single flips only
        assert masks == [2 << i for i in range(91)]
        for count in (0, 1, 2, 45, 89, 90, 91, 500, 4095):
            masks, full = _flip_masks(count)
            assert full.bit_length() <= _NEIGHBOURHOOD_CANDIDATES
            assert all(0 < mask <= full for mask in masks)

    def test_solver_flips_at_most_the_bound(self, monkeypatch):
        built = []

        def recording_flip_masks(count):
            masks, full = _flip_masks(count)
            built.append((count, full))
            return masks, full

        monkeypatch.setattr(sat_module, "_flip_masks", recording_flip_masks)
        for width in (89, 90, 91, 5000):
            solver = SatSolver()
            lits = [solver.new_var() for _ in range(width)]
            # All-false phases falsify the clause; one flip satisfies it.
            solver.add_clause([-lits[0], -lits[1]])
            solver.add_clause(lits)
            assert solver.solve() is SAT
            assert solver.statistics["neighbourhood_hits"] == 1
            count, full = built[-1]
            assert count == min(width, _NEIGHBOURHOOD_CANDIDATES - 1)
            assert full.bit_length() <= _NEIGHBOURHOOD_CANDIDATES
            # The lowest candidate is the single flip of the first variable.
            assert [solver.value(v) for v in lits[:3]] == [True, False, False]


class TestFallThrough:
    def test_three_flips_fall_through_to_the_search(self):
        """Four disjoint clauses ``x_i or y_i`` need four flips from the
        all-false phases: the check misses and the CDCL search answers."""
        solver = SatSolver()
        pairs = [(solver.new_var(), solver.new_var()) for _ in range(4)]
        for x, y in pairs:
            solver.add_clause([x, y])
        assert solver.solve() is SAT
        stats = solver.statistics
        assert (stats["neighbourhood_hits"], stats["neighbourhood_misses"]) == (0, 1)
        assert stats["decisions"] > 0
        assert all(solver.value(x) or solver.value(y) for x, y in pairs)
        assert 0 not in solver._complete_model()[1:]
        # The search's model is now the saved phases: the next solve
        # needs no flip at all.
        decisions = stats["decisions"]
        assert solver.solve() is SAT
        assert stats["neighbourhood_hits"] == 1
        assert stats["decisions"] == decisions

    def test_unsat_after_a_miss(self):
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        for clause in ([a, b], [a, -b], [-a, b], [-a, -b]):
            solver.add_clause(clause)
        assert solver.solve() is UNSAT
        assert solver.statistics["neighbourhood_hits"] == 0


class TestCost:
    def test_only_the_query_cone_is_evaluated(self):
        """A large circuit of an earlier query stays out of the cone."""
        solver = Solver()
        p, q = T.bv_var("nbp", 12), T.bv_var("nbq", 12)
        product = T.eq(T.mul(p, q), T.bv(391, 12))
        assert solver.check([product, T.ugt(p, T.bv(1, 12)),
                             T.ugt(q, T.bv(1, 12))]) is Result.SAT
        sat = solver._sat
        big = sum(gate is not None for gate in sat._gates)
        x, y = T.bv_var("nbx", 8), T.bv_var("nby", 8)
        query = T.ult(x, y)
        solver._blaster.lit(query)
        small = sum(gate is not None for gate in sat._gates) - big
        assert 0 < small <= 16 and big > 20 * small
        before = dict(sat.statistics)
        assert solver.check([query]) is Result.SAT
        model = solver.model()
        assert model[x] < model[y]
        assert sat.statistics["neighbourhood_hits"] == before["neighbourhood_hits"] + 1
        gates = sat.statistics["neighbourhood_gates"] - before["neighbourhood_gates"]
        assert 0 < gates <= small


class TestSoundnessStream:
    """A seeded stream over one persistent ``Solver``: random and/xor/mux
    circuits over ten free bits, non-gate clauses (a push/pop scope
    included) and assumption lists, every verdict against brute force."""

    def random_circuit(self, rng, leaves, depth):
        """A (term, truth table) pair; tables are exact by construction."""
        if depth == 0 or rng.random() < 0.2:
            term, table = rng.choice(leaves)
        else:
            op = rng.choice(["and", "xor", "mux", "or"])
            a_term, a_table = self.random_circuit(rng, leaves, depth - 1)
            b_term, b_table = self.random_circuit(rng, leaves, depth - 1)
            if op == "and":
                term, table = T.band(a_term, b_term), a_table & b_table
            elif op == "xor":
                term, table = T.bxor(a_term, b_term), a_table ^ b_table
            elif op == "or":
                term, table = T.bor(a_term, b_term), a_table | b_table
            else:
                c_term, c_table = self.random_circuit(rng, leaves, depth - 1)
                chosen = T.ite(c_term, T.bool_to_bv(a_term), T.bool_to_bv(b_term))
                term = T.eq(chosen, T.bv(1, 1))
                table = (c_table & a_table) | (~c_table & ALL & b_table)
        if rng.random() < 0.3:
            term, table = T.bnot(term), table ^ ALL
        return term, table

    def test_stream_matches_brute_force(self):
        rng = random.Random(2024)
        bits = [T.bool_var(f"nbit{i}") for i in range(FREE_BITS)]
        tables = [bit_table(i) for i in range(FREE_BITS)]
        leaves = list(zip(bits, tables))
        solver = Solver()
        sat = solver._sat
        added: list[tuple[int, ...]] = []
        add_clause = sat._add_clause

        def recording_add_clause(lits):
            added.append(tuple(lits))
            return add_clause(lits)

        sat._add_clause = recording_add_clause
        solved: list[list[int]] = []
        solve = sat.solve

        def recording_solve(assumptions=()):
            solved.append(list(assumptions))
            return solve(assumptions)

        sat.solve = recording_solve
        lits = [solver._blaster.lit(bit) for bit in bits]
        constraint = ALL
        scoped = ALL
        verdicts = []
        for step in range(160):
            if step == 40:
                # A permanent assertion: a unit clause on a gate output.
                term, table = self.random_circuit(rng, leaves, 2)
                if table & constraint:
                    solver.add(term)
                    constraint &= table
            elif step in (20, 90):
                # A non-gate clause over three free bits.
                chosen = rng.sample(range(FREE_BITS), 3)
                clause = [lits[i] * rng.choice((1, -1)) for i in chosen]
                table = 0
                for i, lit in zip(chosen, clause):
                    table |= tables[i] if lit > 0 else tables[i] ^ ALL
                if table & constraint:
                    sat.add_clause(clause)
                    constraint &= table
            elif step == 60:
                solver.push()
                term, table = self.random_circuit(rng, leaves, 3)
                solver.add(term)
                scoped = table
            elif step == 120:
                solver.pop()
                scoped = ALL
            query = [
                self.random_circuit(rng, leaves, rng.randint(1, 4))
                for _ in range(rng.randint(1, 4))
            ]
            expected = constraint & scoped
            for _, table in query:
                expected &= table
            solved.clear()
            result = solver.check([term for term, _ in query])
            assert (result is Result.SAT) == (expected != 0), step
            verdicts.append(result)
            if result is not Result.SAT or not solved:
                continue
            model = sat._complete_model()
            assert 0 not in model[1:], "SAT with an unassigned variable"
            for clause in added:
                assert any(
                    model[abs(lit)] == (1 if lit > 0 else -1) for lit in clause
                ), (step, clause)
            for lit in solved[-1]:
                assert model[abs(lit)] == (1 if lit > 0 else -1), (step, lit)
            index = sum(1 << i for i, bit in enumerate(bits) if solver.value_of(bit))
            assert expected >> index & 1, step
        stats = sat.statistics
        assert Result.SAT in verdicts and Result.UNSAT in verdicts
        assert stats["neighbourhood_hits"] > 0
        assert stats["neighbourhood_misses"] > 0
        kinds = {gate[0] for gate in sat._gates if gate is not None}
        assert kinds == {GATE_AND, GATE_XOR, GATE_MUX}


class TestCachesChangeNothing:
    """The cone cache and the order heap persist across solves.  Neither
    may change an answer, a model or a counter."""

    def test_stream_matches_a_solver_without_caches(self, monkeypatch):
        rng = random.Random(4242)
        bits = [T.bool_var(f"dbit{i}") for i in range(FREE_BITS)]
        leaves = list(zip(bits, (bit_table(i) for i in range(FREE_BITS))))
        circuit = TestSoundnessStream().random_circuit
        cached, uncached = Solver(), Solver()
        sat = uncached._sat
        solve = sat.solve

        def solve_without_caches(assumptions=()):
            # As if neither the cone cache nor the heap outlived a call.
            sat._cones.clear()
            sat._cone_entries = 0
            sat._rebuild_heap()
            return solve(assumptions)

        monkeypatch.setattr(sat, "solve", solve_without_caches)
        solvers = (cached, uncached)
        verdicts = set()
        for step in range(240):
            if step in (50, 170):
                chosen = rng.sample(range(FREE_BITS), 3)
                for solver in solvers:
                    lits = [solver._blaster.lit(bits[i]) for i in chosen]
                    solver._sat.add_clause(lits)
            elif step == 90:
                term, _ = circuit(rng, leaves, 3)
                for solver in solvers:
                    solver.push()
                    solver.add(term)
            elif step == 140:
                for solver in solvers:
                    solver.pop()
            query = [
                circuit(rng, leaves, rng.randint(1, 4))[0]
                for _ in range(rng.randint(1, 5))
            ]
            results = [solver.check(query) for solver in solvers]
            assert results[0] is results[1], step
            verdicts.add(results[0])
            if results[0] is Result.SAT:
                # One vector read, gate outputs included, before anything
                # completed the model, against bit-by-bit reads.
                lits = [
                    rng.choice((1, -1)) * rng.randint(1, sat.num_vars)
                    for _ in range(16)
                ]
                expected = sum(
                    1 << i for i, lit in enumerate(lits) if sat.value(abs(lit)) == (lit > 0)
                )
                assert cached._sat.bits_value(lits) == expected, step
                models = [solver._sat._complete_model() for solver in solvers]
                assert models[0] == models[1], step
                assert dict(cached.model().items()) == dict(uncached.model().items())
            assert cached._sat.statistics == sat.statistics, step
        stats = sat.statistics
        assert verdicts == {Result.SAT, Result.UNSAT}
        assert stats["neighbourhood_hits"] > 0 and stats["neighbourhood_misses"] > 0
        assert stats["decisions"] > 0 and stats["conflicts"] > 0

    def test_cone_cache_stays_within_its_bound(self):
        """An xor chain makes every root's cone hold every older gate:
        checks over many roots overflow the cache, which is cleared
        and refilled, and never holds more than its bound."""
        solver = SatSolver()
        inputs = [solver.new_var() for _ in range(64)]
        chain = [inputs[0]]
        for var in inputs[1:]:
            chain.append(solver.add_gate(GATE_XOR, chain[-1], var))
        bound = sat_module._CONE_ENTRIES_PER_VAR * solver.num_vars
        rng = random.Random(5)
        roots_seen = set()
        for _ in range(40):
            roots = rng.sample(chain[1:], 12)
            assumptions = [root * rng.choice((1, -1)) for root in roots]
            assert solver.solve(assumptions) is SAT
            for lit in assumptions:
                assert solver.value(abs(lit)) == (lit > 0)
            roots_seen.update(roots)
            held = sum(len(g) + len(d) for g, d in solver._cones.values())
            assert held == solver._cone_entries <= bound
        assert len(solver._cones) < len(roots_seen), "the cache never overflowed"
        stats = solver.statistics
        assert stats["neighbourhood_hits"] + stats["neighbourhood_misses"] == 40
