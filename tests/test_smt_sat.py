"""Unit and property tests for the CDCL SAT solver."""

import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.sat import GATE_AND, GATE_MUX, GATE_XOR, SAT, UNSAT, SatSolver
from repro.smt.sat import _Clause, _GLUE_LBD


def make_solver(num_vars):
    solver = SatSolver()
    variables = [solver.new_var() for _ in range(num_vars)]
    return solver, variables


class TestBasics:
    def test_empty_formula_is_sat(self):
        solver = SatSolver()
        assert solver.solve() is SAT

    def test_unit_clause(self):
        solver, (a,) = make_solver(1)
        solver.add_clause([a])
        assert solver.solve() is SAT
        assert solver.value(a) is True

    def test_negative_unit_clause(self):
        solver, (a,) = make_solver(1)
        solver.add_clause([-a])
        assert solver.solve() is SAT
        assert solver.value(a) is False

    def test_contradictory_units(self):
        solver, (a,) = make_solver(1)
        solver.add_clause([a])
        assert solver.add_clause([-a]) is False
        assert solver.solve() is UNSAT

    def test_simple_implication_chain(self):
        solver, v = make_solver(4)
        solver.add_clause([v[0]])
        solver.add_clause([-v[0], v[1]])
        solver.add_clause([-v[1], v[2]])
        solver.add_clause([-v[2], v[3]])
        assert solver.solve() is SAT
        assert all(solver.value(x) for x in v)

    def test_tautology_is_dropped(self):
        solver, (a,) = make_solver(1)
        assert solver.add_clause([a, -a]) is True
        assert solver.solve() is SAT

    def test_duplicate_literals_collapse(self):
        solver, (a,) = make_solver(1)
        solver.add_clause([a, a, a])
        assert solver.solve() is SAT
        assert solver.value(a) is True

    def test_two_sat_conflict(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([a, b])
        solver.add_clause([a, -b])
        solver.add_clause([-a, b])
        solver.add_clause([-a, -b])
        assert solver.solve() is UNSAT

    def test_model_satisfies_all_clauses(self):
        solver, v = make_solver(5)
        clauses = [[v[0], -v[1]], [v[1], v[2]], [-v[2], v[3], -v[4]], [v[4], -v[0]]]
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is SAT
        for clause in clauses:
            assert any(
                solver.value(abs(lit)) == (lit > 0) for lit in clause
            ), f"clause {clause} falsified"


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([a, b])
        assert solver.solve([-a]) is SAT
        assert solver.value(a) is False
        assert solver.value(b) is True

    def test_conflicting_assumption(self):
        solver, (a,) = make_solver(1)
        solver.add_clause([a])
        assert solver.solve([-a]) is UNSAT

    def test_assumptions_do_not_persist(self):
        solver, (a,) = make_solver(1)
        assert solver.solve([-a]) is SAT
        assert solver.solve([a]) is SAT

    def test_contradictory_assumptions(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([-a, b])
        assert solver.solve([a, -b]) is UNSAT

    def test_many_assumptions(self):
        solver, v = make_solver(8)
        for i in range(7):
            solver.add_clause([-v[i], v[i + 1]])
        assert solver.solve([v[0]]) is SAT
        assert all(solver.value(x) for x in v)
        assert solver.solve([v[0], -v[7]]) is UNSAT

    def test_incremental_clause_addition(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([a, b])
        assert solver.solve() is SAT
        solver.add_clause([-a])
        assert solver.solve() is SAT
        assert solver.value(b) is True
        solver.add_clause([-b])
        assert solver.solve() is UNSAT


class TestLiteralValidation:
    """A zero or out-of-range literal is a ValueError raised before any
    solver state changes — the standing trail of the last SAT answer
    included."""

    BAD = [[0], [1, 0], [4], [1, -4]]

    def standing_solver(self):
        solver, (a, b, c) = make_solver(3)
        solver.add_clause([-a, b])
        assert solver.solve([a, c]) is SAT
        assert solver._trail_lim, "the SAT answer leaves its trail standing"
        return solver

    @staticmethod
    def state(solver):
        return (
            list(solver._trail),
            list(solver._trail_lim),
            list(solver._assign),
            list(solver._prev_assumptions),
            [list(c.lits) for c in solver._clauses],
            dict(solver.statistics),
            solver._ok,
        )

    @pytest.mark.parametrize("assumptions", BAD)
    def test_solve_rejects_bad_assumption(self, assumptions):
        solver = self.standing_solver()
        before = self.state(solver)
        with pytest.raises(ValueError, match="bad literal"):
            solver.solve(assumptions)
        assert self.state(solver) == before
        # The kept prefix [a] (variable 1) is still reused by the next query.
        assert solver.solve([1, -3]) is SAT
        assert solver.statistics["trail_reused_lits"] > 0

    @pytest.mark.parametrize("lits", BAD)
    def test_add_clause_rejects_bad_literal(self, lits):
        solver = self.standing_solver()
        before = self.state(solver)
        with pytest.raises(ValueError, match="bad literal"):
            solver.add_clause(lits)
        assert self.state(solver) == before

    @pytest.mark.parametrize("kind,inputs,message", [
        (GATE_AND, (1, 0), "bad literal"),
        (GATE_XOR, (4, 1), "bad literal"),
        (GATE_MUX, (1, 2, -4), "bad literal"),
        (7, (1, 2), "bad gate kind"),
    ])
    def test_add_gate_rejects_bad_input(self, kind, inputs, message):
        solver = self.standing_solver()
        before = self.state(solver), solver.num_vars
        with pytest.raises(ValueError, match=message):
            solver.add_gate(kind, *inputs)
        assert (self.state(solver), solver.num_vars) == before

    def test_rejected_under_optimized_python(self):
        """``python -O`` strips asserts; the checks must not be asserts."""
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.smt.sat import SatSolver\n"
            "solver = SatSolver(); solver.new_var()\n"
            "for call, lits in ((solver.add_clause, [0]), (solver.solve, [2])):\n"
            "    try:\n"
            "        call(lits)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    sys.exit('accepted %r' % (lits,))\n"
        ).format(src=os.path.join(os.path.dirname(__file__), "..", "src"))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


class TestPigeonhole:
    @pytest.mark.parametrize("holes", [1, 2, 3])
    def test_php_unsat(self, holes):
        """holes+1 pigeons into `holes` holes is UNSAT."""
        pigeons = holes + 1
        solver = SatSolver()
        var = {}
        for p in range(pigeons):
            for h in range(holes):
                var[p, h] = solver.new_var()
        for p in range(pigeons):
            solver.add_clause([var[p, h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var[p1, h], -var[p2, h]])
        assert solver.solve() is UNSAT

    def test_php_equal_is_sat(self):
        n = 3
        solver = SatSolver()
        var = {}
        for p in range(n):
            for h in range(n):
                var[p, h] = solver.new_var()
        for p in range(n):
            solver.add_clause([var[p, h] for h in range(n)])
        for h in range(n):
            for p1 in range(n):
                for p2 in range(p1 + 1, n):
                    solver.add_clause([-var[p1, h], -var[p2, h]])
        assert solver.solve() is SAT


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(
            any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


@st.composite
def random_cnf(draw):
    num_vars = draw(st.integers(min_value=1, max_value=8))
    num_clauses = draw(st.integers(min_value=1, max_value=24))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clause = [
            draw(st.integers(min_value=1, max_value=num_vars))
            * (1 if draw(st.booleans()) else -1)
            for _ in range(width)
        ]
        clauses.append(clause)
    return num_vars, clauses


class TestAgainstBruteForce:
    @given(random_cnf())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, problem):
        num_vars, clauses = problem
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(num_vars)]
        ok = True
        for clause in clauses:
            ok = solver.add_clause(clause) and ok
        expected = brute_force_sat(num_vars, clauses)
        if not ok:
            assert expected is False
            return
        result = solver.solve()
        assert (result is SAT) == expected
        if result is SAT:
            for clause in clauses:
                assert any(
                    solver.value(abs(lit)) == (lit > 0) for lit in clause
                )

    @given(random_cnf(), st.lists(st.integers(min_value=1, max_value=4), max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_assumptions_match_brute_force(self, problem, assumed_vars):
        num_vars, clauses = problem
        assumptions = [v for v in assumed_vars if v <= num_vars]
        solver = SatSolver()
        for _ in range(num_vars):
            solver.new_var()
        ok = True
        for clause in clauses:
            ok = solver.add_clause(clause) and ok
        augmented = clauses + [[a] for a in assumptions]
        expected = brute_force_sat(num_vars, augmented)
        if not ok:
            assert brute_force_sat(num_vars, clauses) is False
            return
        assert (solver.solve(assumptions) is SAT) == expected


class TestStatistics:
    def test_statistics_populated(self):
        solver, v = make_solver(6)
        for i in range(5):
            solver.add_clause([-v[i], v[i + 1]])
        solver.add_clause([v[0]])
        solver.solve()
        assert solver.statistics["propagations"] > 0


def load_clauses(clauses, num_vars, trail_reuse=True):
    solver = SatSolver(trail_reuse=trail_reuse)
    for _ in range(num_vars):
        solver.new_var()
    ok = True
    for clause in clauses:
        ok = solver.add_clause(clause) and ok
    return solver, ok


def random_instance(rng, num_vars, num_clauses, max_width=3):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, max_width)
        clauses.append(
            [rng.randint(1, num_vars) * rng.choice((1, -1)) for _ in range(width)]
        )
    return clauses


class TestUnsatCores:
    """Assumption-level core soundness: a core must be UNSAT standing
    alone and a subset of the assumptions it was extracted from."""

    def assert_core_sound(self, clauses, num_vars, assumptions, core):
        assert set(core) <= set(assumptions)
        fresh, ok = load_clauses(clauses, num_vars)
        if ok:
            assert fresh.solve(core) is UNSAT

    def test_contradictory_assumption_pair(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([a, b])
        assert solver.solve([a, -a]) is UNSAT
        core = solver.unsat_core()
        assert set(core) == {a, -a}

    def test_core_excludes_irrelevant_assumptions(self):
        solver, (a, b, c, d) = make_solver(4)
        solver.add_clause([-a, b])
        assert solver.solve([c, d, a, -b]) is UNSAT
        core = solver.unsat_core()
        self.assert_core_sound([[-a, b]], 4, [c, d, a, -b], core)
        minimized = solver.minimize_core(core)
        assert set(minimized) <= set(core)
        assert set(minimized) == {a, -b}

    def test_formula_level_unsat_yields_empty_core(self):
        solver, (a,) = make_solver(1)
        solver.add_clause([a])
        solver.add_clause([-a])
        assert solver.solve([a]) is UNSAT
        assert solver.unsat_core() == []

    def test_core_from_propagation_chain(self):
        solver, v = make_solver(8)
        for i in range(7):
            solver.add_clause([-v[i], v[i + 1]])
        assert solver.solve([v[3], v[0], -v[7]]) is UNSAT
        core = solver.unsat_core()
        self.assert_core_sound(
            [[-v[i], v[i + 1]] for i in range(7)], 8, [v[3], v[0], -v[7]], core
        )
        minimized = solver.minimize_core(core)
        # v[0] is redundant given v[3]; minimization must notice.
        assert set(minimized) == {v[3], -v[7]}

    @given(random_cnf(), st.lists(st.integers(min_value=1, max_value=8), max_size=5),
           st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_random_cores_sound(self, problem, assumed, rng):
        num_vars, clauses = problem
        assumptions = []
        for var in assumed:
            if var <= num_vars:
                lit = var if rng.random() < 0.5 else -var
                assumptions.append(lit)
        solver, ok = load_clauses(clauses, num_vars)
        if not ok:
            return
        if solver.solve(assumptions) is UNSAT:
            core = solver.unsat_core()
            if core:
                self.assert_core_sound(clauses, num_vars, assumptions, core)
                minimized = solver.minimize_core(core)
                self.assert_core_sound(clauses, num_vars, assumptions, minimized)
            else:
                # Empty core: the clause set itself must be UNSAT.
                assert brute_force_sat(num_vars, clauses) is False


class TestTrailReuse:
    """Trail reuse is invisible except in the statistics."""

    def shared_prefix_queries(self, num_vars):
        prefix = [v for v in range(1, num_vars + 1)]
        queries = []
        for i in range(num_vars):
            queries.append(prefix[:i] + [-prefix[i]])
            queries.append(prefix[: i + 1])
        return queries

    def test_matches_no_reuse_solver(self):
        rng = random.Random(7)
        for round_no in range(30):
            num_vars = rng.randint(3, 8)
            clauses = random_instance(rng, num_vars, rng.randint(2, 20))
            with_reuse, ok1 = load_clauses(clauses, num_vars, trail_reuse=True)
            without, ok2 = load_clauses(clauses, num_vars, trail_reuse=False)
            assert ok1 == ok2
            if not ok1:
                continue
            for query in self.shared_prefix_queries(num_vars):
                expected = brute_force_sat(
                    num_vars, clauses + [[lit] for lit in query]
                )
                assert (with_reuse.solve(query) is SAT) == expected
                assert (without.solve(query) is SAT) == expected

    def test_trail_actually_reused(self):
        solver, v = make_solver(12)
        for i in range(11):
            solver.add_clause([-v[i], v[i + 1]])
        prefix = [v[0], v[2], v[4]]
        assert solver.solve(prefix + [v[6]]) is SAT
        assert solver.solve(prefix + [v[8]]) is SAT
        assert solver.statistics["trail_reused_lits"] > 0

    def test_no_reuse_when_disabled(self):
        solver = SatSolver(trail_reuse=False)
        v = [solver.new_var() for _ in range(6)]
        for i in range(5):
            solver.add_clause([-v[i], v[i + 1]])
        assert solver.solve([v[0], v[1]]) is SAT
        assert solver.solve([v[0], v[2]]) is SAT
        assert solver.statistics["trail_reused_lits"] == 0

    def test_add_clause_cancels_standing_trail(self):
        solver, (a, b, c) = make_solver(3)
        solver.add_clause([a, b])
        assert solver.solve([a, c]) is SAT
        # The trail is still standing; adding a clause must fall back
        # to level 0 and stay sound.
        solver.add_clause([-c])
        assert solver.solve([a, c]) is UNSAT
        assert solver.solve([a]) is SAT
        assert solver.value(c) is False

    def test_flipped_prefix_invalidates_reuse(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([-a, b])
        assert solver.solve([a, b]) is SAT
        assert solver.solve([-a]) is SAT
        assert solver.value(a) is False


class LegacyAnalyzeSolver(SatSolver):
    """SatSolver with the pre-PR4 minimization (O(n) literal scan).

    Differential oracle for the ``_analyze`` satellite: the set-based
    membership test must reproduce this byte-for-byte — same learned
    clauses, same propagation/decision/conflict counts.
    """

    def _analyze(self, conflict):
        def seen_lit(var, learned):
            return any(abs(lit) == var for lit in learned)

        learned = [0]
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = 0
        index = len(self._trail) - 1
        clause = conflict
        current_level = self._decision_level()
        while True:
            assert clause is not None
            if clause.learned:
                self._bump_clause(clause)
            start = 1 if lit != 0 else 0
            for q in clause.lits[start:]:
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(self._trail[index])]:
                index -= 1
            lit = self._trail[index]
            index -= 1
            var = abs(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            clause = self._reason[var]
            if clause is not None and clause.lits[0] != lit:
                pos = clause.lits.index(lit)
                clause.lits[0], clause.lits[pos] = clause.lits[pos], clause.lits[0]
        learned[0] = -lit
        minimized = [learned[0]]
        for q in learned[1:]:
            reason = self._reason[abs(q)]
            if reason is None:
                minimized.append(q)
                continue
            redundant = all(
                seen_lit(abs(r), learned) or self._level[abs(r)] == 0
                for r in reason.lits[1:]
            )
            if not redundant:
                minimized.append(q)
        learned = minimized
        if len(learned) == 1:
            return learned, 0
        max_index = 1
        max_level = self._level[abs(learned[1])]
        for i in range(2, len(learned)):
            lvl = self._level[abs(learned[i])]
            if lvl > max_level:
                max_level = lvl
                max_index = i
        learned[1], learned[max_index] = learned[max_index], learned[1]
        return learned, max_level


def php_clauses(pigeons, holes):
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses, pigeons * holes


class TestAnalyzeDifferential:
    """The set-based clause minimization is a pure speedup: identical
    learned clauses and search trajectory as the linear-scan original."""

    def run_both(self, clauses, num_vars, assumptions=()):
        results = []
        for cls in (SatSolver, LegacyAnalyzeSolver):
            solver = cls()
            for _ in range(num_vars):
                solver.new_var()
            ok = True
            for clause in clauses:
                ok = solver.add_clause(clause) and ok
            answer = solver.solve(assumptions) if ok else UNSAT
            results.append(
                (
                    answer,
                    [list(c.lits) for c in solver._learned],
                    solver.statistics["conflicts"],
                    solver.statistics["decisions"],
                    solver.statistics["propagations"],
                )
            )
        return results

    @pytest.mark.parametrize("pigeons,holes", [(4, 3), (5, 4)])
    def test_php_identical_trajectory(self, pigeons, holes):
        clauses, num_vars = php_clauses(pigeons, holes)
        new, legacy = self.run_both(clauses, num_vars)
        assert new == legacy

    def test_random_instances_identical_trajectory(self):
        # Random 3-SAT near the satisfiability threshold: most instances
        # are out of reach of the two-flip neighbourhood check, so the
        # search, and with it ``_analyze``, runs.
        rng = random.Random(42)
        conflicts = 0
        for _ in range(40):
            num_vars = rng.randint(8, 16)
            clauses = [
                [v * rng.choice((1, -1)) for v in rng.sample(range(1, num_vars + 1), 3)]
                for _ in range(round(4.3 * num_vars))
            ]
            assumptions = [
                rng.randint(1, num_vars) * rng.choice((1, -1))
                for _ in range(rng.randint(0, 3))
            ]
            new, legacy = self.run_both(clauses, num_vars, assumptions)
            assert new == legacy
            conflicts += new[2]
        assert conflicts > 0


class TestLbdManagement:
    def test_learned_clauses_carry_lbd(self):
        clauses, num_vars = php_clauses(5, 4)
        solver, ok = load_clauses(clauses, num_vars)
        assert ok
        assert solver.solve() is UNSAT
        assert solver._learned, "PHP must learn clauses"
        assert all(c.lbd >= 1 for c in solver._learned)

    def test_reduce_db_spares_glue_and_binary_clauses(self):
        solver, v = make_solver(10)

        def learned(lits, lbd):
            clause = _Clause(list(lits), learned=True, lbd=lbd)
            solver._learned.append(clause)
            solver._watches[solver._widx(lits[0])].append(clause)
            solver._watches[solver._widx(lits[1])].append(clause)
            return clause

        glue = learned([v[0], v[1], v[2]], _GLUE_LBD)
        binary = learned([v[3], v[4]], 9)
        locals_ = [
            learned([v[i], v[(i + 1) % 10], v[(i + 2) % 10]], 3 + i)
            for i in range(6)
        ]
        solver._max_learned = 2
        solver._reduce_db()
        kept = {id(c) for c in solver._learned}
        assert id(glue) in kept
        assert id(binary) in kept
        assert solver.statistics["learned_deleted"] == len(locals_) // 2
        # Highest-LBD (most "local") clauses go first.
        dropped_lbds = [c.lbd for c in locals_ if id(c) not in kept]
        kept_lbds = [c.lbd for c in locals_ if id(c) in kept]
        assert min(dropped_lbds) > max(kept_lbds)
        # Dropped clauses must also vanish from the watch lists.
        for watch_list in solver._watches:
            assert all(id(c) in kept for c in watch_list)
