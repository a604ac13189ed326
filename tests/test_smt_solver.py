"""Tests for the incremental solver facade: scopes, assumptions, models."""

import pytest

from repro.smt import terms as T
from repro.smt.evalbv import EvalError, evaluate
from repro.smt.solver import Model, Result, Solver, is_satisfiable, solve_for_model


class TestCheckBasics:
    def test_empty_is_sat(self):
        assert Solver().check() is Result.SAT

    def test_true_assertion(self):
        solver = Solver()
        solver.add(T.true())
        assert solver.check() is Result.SAT

    def test_false_assertion(self):
        solver = Solver()
        solver.add(T.false())
        assert solver.check() is Result.UNSAT

    def test_add_requires_bool(self):
        solver = Solver()
        with pytest.raises(TypeError):
            solver.add(T.bv(1, 8))

    def test_simple_equation(self):
        x = T.bv_var("x", 32)
        solver = Solver()
        solver.add(T.eq(T.add(x, T.bv(1, 32)), T.bv(0, 32)))
        assert solver.check() is Result.SAT
        assert solver.model()[x] == 0xFFFFFFFF

    def test_conflicting_equations(self):
        x = T.bv_var("x", 8)
        solver = Solver()
        solver.add(T.eq(x, T.bv(1, 8)))
        solver.add(T.eq(x, T.bv(2, 8)))
        assert solver.check() is Result.UNSAT


class TestAssumptions:
    def test_assumption_restricts(self):
        x = T.bv_var("x", 8)
        solver = Solver()
        solver.add(T.ult(x, T.bv(10, 8)))
        assert solver.check([T.eq(x, T.bv(5, 8))]) is Result.SAT
        assert solver.check([T.eq(x, T.bv(15, 8))]) is Result.UNSAT
        # Assumptions are per-query.
        assert solver.check() is Result.SAT

    def test_const_assumptions_short_circuit(self):
        solver = Solver()
        assert solver.check([T.true()]) is Result.SAT
        assert solver.check([T.false()]) is Result.UNSAT

    def test_memoized_const_assumptions_short_circuit(self):
        """``check`` looks assumption terms up in the blaster's memo
        first; constants the memo holds (``add`` blasts them) must still
        be answered without a solve."""
        solver = Solver(unsat_cores=True)
        for term in (T.true(), T.false()):
            solver._blaster.lit(term)
        assert solver.check([T.true()]) is Result.SAT
        assert solver.check([T.false()]) is Result.UNSAT
        assert solver.last_core == frozenset({T.false()})
        assert solver.num_solves == 0

    def test_assumption_type_error(self):
        solver = Solver()
        with pytest.raises(TypeError):
            solver.check([T.bv(1, 1)])

    def test_flip_branch_pattern(self):
        """The concolic executor's workhorse: prefix + negated branch."""
        x = T.bv_var("x", 32)
        branch1 = T.ult(x, T.bv(100, 32))
        branch2 = T.eq(T.and_(x, T.bv(1, 32)), T.bv(1, 32))
        solver = Solver()
        assert solver.check([branch1, branch2]) is Result.SAT
        model = solver.model()
        assert model[x] < 100 and model[x] & 1 == 1
        assert solver.check([branch1, T.bnot(branch2)]) is Result.SAT
        model = solver.model()
        assert model[x] < 100 and model[x] & 1 == 0


class TestScopes:
    def test_push_pop_restores(self):
        x = T.bv_var("x", 8)
        solver = Solver()
        solver.add(T.ult(x, T.bv(10, 8)))
        solver.push()
        solver.add(T.eq(x, T.bv(20, 8)))
        assert solver.check() is Result.UNSAT
        solver.pop()
        assert solver.check() is Result.SAT

    def test_nested_scopes(self):
        x = T.bv_var("x", 8)
        solver = Solver()
        solver.push()
        solver.add(T.ugt(x, T.bv(5, 8)))
        solver.push()
        solver.add(T.ult(x, T.bv(5, 8)))
        assert solver.check() is Result.UNSAT
        solver.pop()
        assert solver.check() is Result.SAT
        assert solver.model()[x] > 5
        solver.pop()
        assert solver.scope_depth == 0

    def test_model_after_pop(self):
        x = T.bv_var("x", 8)
        solver = Solver()
        solver.push()
        solver.add(T.eq(x, T.bv(7, 8)))
        assert solver.check() is Result.SAT
        assert solver.model()[x] == 7


class TestModel:
    def test_model_requires_sat(self):
        solver = Solver()
        solver.add(T.false())
        solver.check()
        with pytest.raises(RuntimeError):
            solver.model()

    def test_model_requires_check(self):
        with pytest.raises(RuntimeError):
            Solver().model()

    def test_unconstrained_vars_default_zero(self):
        x = T.bv_var("unseen_var", 32)
        model = Model({})
        assert model[x] == 0
        assert model.eval(T.add(x, T.bv(5, 32))) == 5

    def test_model_eval_consistency(self):
        x = T.bv_var("x", 16)
        y = T.bv_var("y", 16)
        term = T.mul(T.add(x, y), T.bv(3, 16))
        solver = Solver()
        solver.add(T.eq(term, T.bv(33, 16)))
        assert solver.check() is Result.SAT
        model = solver.model()
        assert model.eval(term) == 33

    def test_bool_var_in_model(self):
        p = T.bool_var("p")
        solver = Solver()
        solver.add(p)
        assert solver.check() is Result.SAT
        assert solver.model()[p] == 1

    def test_model_iteration(self):
        x = T.bv_var("x", 8)
        solver = Solver()
        solver.add(T.eq(x, T.bv(3, 8)))
        solver.check()
        model = solver.model()
        assert x in model
        assert dict(model.items())[x] == 3
        assert len(model) >= 1
        assert model.get(T.bv_var("nope", 8), 42) == 42


class TestHelpers:
    def test_is_satisfiable(self):
        x = T.bv_var("x", 8)
        assert is_satisfiable(T.eq(x, T.bv(1, 8)))
        assert not is_satisfiable(T.ne(x, x))

    def test_solve_for_model(self):
        x = T.bv_var("x", 8)
        model = solve_for_model(T.eq(T.mul(x, T.bv(3, 8)), T.bv(9, 8)))
        assert model is not None
        assert (model[x] * 3) % 256 == 9
        assert solve_for_model(T.false()) is None

    def test_statistics(self):
        x = T.bv_var("x", 8)
        solver = Solver()
        solver.add(T.eq(x, T.bv(1, 8)))
        solver.check()
        stats = solver.statistics
        assert stats["checks"] == 1
        assert stats["sat_vars"] > 0


class TestEvaluator:
    def test_unbound_variable_raises(self):
        x = T.bv_var("x", 8)
        with pytest.raises(EvalError):
            evaluate(T.add(x, T.bv(1, 8)), {})

    def test_lookup_by_term_or_name(self):
        x = T.bv_var("x", 8)
        assert evaluate(x, {x: 5}) == 5
        assert evaluate(x, {"x": 5}) == 5

    def test_value_truncation(self):
        x = T.bv_var("x", 8)
        assert evaluate(x, {"x": 0x1FF}) == 0xFF

    def test_deep_term_no_recursion_error(self):
        x = T.bv_var("x", 32)
        term = x
        for i in range(3000):
            term = T.add(term, T.bv_var(f"v{i % 7}", 32))
        env = {f"v{i}": i for i in range(7)}
        env["x"] = 1
        evaluate(term, env)  # must not raise RecursionError

    def test_bool_ops(self):
        p, q = T.bool_var("p"), T.bool_var("q")
        term = T.band(p, T.bnot(q))
        assert evaluate(term, {"p": 1, "q": 0}) == 1
        assert evaluate(term, {"p": 1, "q": 1}) == 0
