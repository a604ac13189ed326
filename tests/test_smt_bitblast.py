"""Differential tests of the bit-blaster against the reference evaluator.

Strategy: build a term equation ``op(consts...) == var`` (or a random
term over variables), solve it, and check the model against
:mod:`repro.smt.evalbv`, whose integer semantics are independently
tested.  This exercises the full pipeline: smart constructors (disabled
by using variables), Tseitin gates, CDCL search and model extraction.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import terms as T
from repro.smt import bvops
from repro.smt.bitblast import BitBlaster
from repro.smt.evalbv import evaluate
from repro.smt.sat import SatSolver
from repro.smt.solver import Result, Solver

WIDTHS = [1, 3, 8, 16, 32]

BINOPS = {
    "add": (T.add, bvops.bv_add),
    "sub": (T.sub, bvops.bv_sub),
    "mul": (T.mul, bvops.bv_mul),
    "and": (T.and_, bvops.bv_and),
    "or": (T.or_, bvops.bv_or),
    "xor": (T.xor, bvops.bv_xor),
    "shl": (T.shl, bvops.bv_shl),
    "lshr": (T.lshr, bvops.bv_lshr),
    "ashr": (T.ashr, bvops.bv_ashr),
}

DIVOPS = {
    "udiv": (T.udiv, bvops.bv_udiv),
    "urem": (T.urem, bvops.bv_urem),
    "sdiv": (T.sdiv, bvops.bv_sdiv),
    "srem": (T.srem, bvops.bv_srem),
}

CMPOPS = {
    "ult": (T.ult, bvops.bv_ult),
    "ule": (T.ule, bvops.bv_ule),
    "slt": (T.slt, bvops.bv_slt),
    "sle": (T.sle, bvops.bv_sle),
}


def solve_eq(term, var):
    """Solve term == var and return the model value of var."""
    solver = Solver()
    solver.add(T.eq(var, term))
    assert solver.check() is Result.SAT
    return solver.model()[var]


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_binop_on_symbolic_inputs(data):
    """var-op-var == result forces the blaster's op circuit to agree."""
    name = data.draw(st.sampled_from(sorted(BINOPS)))
    width = data.draw(st.sampled_from([3, 8]))
    mk, ref = BINOPS[name]
    a_val = data.draw(st.integers(0, (1 << width) - 1))
    b_val = data.draw(st.integers(0, (1 << width) - 1))
    a, b = T.bv_var("a", width), T.bv_var("b", width)
    out = T.bv_var("out", width)
    solver = Solver()
    solver.add(T.eq(a, T.bv(a_val, width)))
    solver.add(T.eq(b, T.bv(b_val, width)))
    solver.add(T.eq(out, mk(a, b)))
    assert solver.check() is Result.SAT
    model = solver.model()
    assert model[a] == a_val
    assert model[b] == b_val
    assert model[out] == ref(a_val, b_val, width)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_division_ops_on_symbolic_inputs(data):
    name = data.draw(st.sampled_from(sorted(DIVOPS)))
    width = data.draw(st.sampled_from([3, 4]))
    mk, ref = DIVOPS[name]
    a_val = data.draw(st.integers(0, (1 << width) - 1))
    b_val = data.draw(st.integers(0, (1 << width) - 1))
    a, b = T.bv_var("a", width), T.bv_var("b", width)
    out = T.bv_var("out", width)
    solver = Solver()
    solver.add(T.eq(a, T.bv(a_val, width)))
    solver.add(T.eq(b, T.bv(b_val, width)))
    solver.add(T.eq(out, mk(a, b)))
    assert solver.check() is Result.SAT
    assert solver.model()[out] == ref(a_val, b_val, width)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_comparison_on_symbolic_inputs(data):
    name = data.draw(st.sampled_from(sorted(CMPOPS)))
    width = data.draw(st.sampled_from([3, 8]))
    mk, ref = CMPOPS[name]
    a_val = data.draw(st.integers(0, (1 << width) - 1))
    b_val = data.draw(st.integers(0, (1 << width) - 1))
    a, b = T.bv_var("a", width), T.bv_var("b", width)
    solver = Solver()
    solver.add(T.eq(a, T.bv(a_val, width)))
    solver.add(T.eq(b, T.bv(b_val, width)))
    expected = ref(a_val, b_val, width)
    cond = mk(a, b)
    result = solver.check([cond])
    assert (result is Result.SAT) == expected
    result = solver.check([T.bnot(cond)])
    assert (result is Result.SAT) == (not expected)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_unary_and_width_ops(data):
    width = data.draw(st.sampled_from([3, 8]))
    value = data.draw(st.integers(0, (1 << width) - 1))
    x = T.bv_var("x", width)
    solver = Solver()
    solver.add(T.eq(x, T.bv(value, width)))
    cases = {
        "not": (T.not_(x), bvops.bv_not(value, width), width),
        "neg": (T.neg(x), bvops.bv_neg(value, width), width),
        "zext": (T.zext(x, 4), value, width + 4),
        "sext": (T.sext(x, 4), bvops.bv_sext(value, width, 4), width + 4),
        "extract": (
            T.extract(x, width - 1, 1),
            bvops.bv_extract(value, width - 1, 1),
            width - 1,
        ),
        "concat": (
            T.concat(x, T.bv(0b101, 3)),
            bvops.bv_concat(value, 0b101, 3),
            width + 3,
        ),
    }
    for name, (term, expected, result_width) in cases.items():
        out = T.bv_var(f"out_{name}", result_width)
        solver.add(T.eq(out, term))
    assert solver.check() is Result.SAT
    model = solver.model()
    for name, (term, expected, result_width) in cases.items():
        out = T.bv_var(f"out_{name}", result_width)
        assert model[out] == expected, name


class TestComparators:
    """The unsigned/signed comparator circuits, exhaustively at 4 bits."""

    def test_every_operand_pair_matches_bvops(self):
        # Three operand shapes: both variable, one constant, and both
        # zero-extended (constant upper bits, as in the sort workloads).
        x, y = T.bv_var("cmpx", 4), T.bv_var("cmpy", 4)
        shapes = {
            "variables": (lambda a, b: (x, y), 4),
            "constant": (lambda a, b: (x, T.bv(b, 4)), 4),
            "zext": (lambda a, b: (T.zext(x, 4), T.zext(y, 4)), 8),
        }
        solver = Solver()
        for shape, (operands, width) in shapes.items():
            for name, (mk, ref) in sorted(CMPOPS.items()):
                for a in range(16):
                    for b in range(16):
                        pins = [T.eq(x, T.bv(a, 4)), T.eq(y, T.bv(b, 4))]
                        result = solver.check(pins + [mk(*operands(a, b))])
                        expected = bool(ref(a, b, width))
                        assert (result is Result.SAT) == expected, (shape, name, a, b)

    def test_ult_allocates_two_gates_per_bit(self):
        sat = SatSolver()
        blaster = BitBlaster(sat)
        a, b = T.bv_var("ultpin_a", 8), T.bv_var("ultpin_b", 8)
        blaster.bits(a)
        blaster.bits(b)
        before = sat.num_vars
        blaster.lit(T.ult(a, b))
        assert sat.num_vars - before <= 2 * 8


class TestSymbolicShifts:
    """Barrel shifter with genuinely symbolic shift amounts."""

    @pytest.mark.parametrize("width", [3, 8, 32])
    def test_shl_reaches_each_amount(self, width):
        x = T.bv_var(f"shx{width}", width)
        s = T.bv_var(f"shs{width}", width)
        solver = Solver()
        solver.add(T.eq(x, T.bv(1, width)))
        target = T.shl(x, s)
        # shifting 1 by (width - 1) gives the MSB
        solver.add(T.eq(target, T.bv(1 << (width - 1), width)))
        assert solver.check() is Result.SAT
        assert solver.model()[s] == width - 1

    def test_shift_amount_ge_width_is_zero(self):
        x = T.bv_var("sgx", 8)
        s = T.bv_var("sgs", 8)
        solver = Solver()
        solver.add(T.eq(x, T.bv(0xFF, 8)))
        solver.add(T.uge(s, T.bv(8, 8)))
        solver.add(T.ne(T.lshr(x, s), T.bv(0, 8)))
        assert solver.check() is Result.UNSAT

    def test_ashr_fills_with_sign(self):
        x = T.bv_var("afx", 8)
        s = T.bv_var("afs", 8)
        solver = Solver()
        solver.add(T.eq(x, T.bv(0x80, 8)))
        solver.add(T.eq(s, T.bv(200, 8)))
        solver.add(T.ne(T.ashr(x, s), T.bv(0xFF, 8)))
        assert solver.check() is Result.UNSAT

    def test_non_power_of_two_width(self):
        # width 5: in-range stage bits (1,2,4) can encode up to 7 >= 5.
        x = T.bv_var("npx", 5)
        s = T.bv_var("nps", 5)
        solver = Solver()
        solver.add(T.eq(x, T.bv(0b11111, 5)))
        solver.add(T.eq(s, T.bv(6, 5)))  # 6 >= width --> result 0
        solver.add(T.ne(T.shl(x, s), T.bv(0, 5)))
        assert solver.check() is Result.UNSAT


class TestUnsatCases:
    def test_no_solution_to_false_equation(self):
        x = T.bv_var("x", 8)
        solver = Solver()
        solver.add(T.eq(T.xor(x, x), T.bv(1, 8)))
        assert solver.check() is Result.UNSAT

    def test_add_is_invertible(self):
        x = T.bv_var("x", 8)
        y = T.bv_var("y", 8)
        solver = Solver()
        solver.add(T.eq(T.add(x, y), T.bv(0, 8)))
        solver.add(T.eq(x, T.bv(1, 8)))
        solver.add(T.ne(y, T.bv(0xFF, 8)))
        assert solver.check() is Result.UNSAT

    def test_mul_by_two_is_even(self):
        x = T.bv_var("x", 8)
        doubled = T.mul(x, T.bv(2, 8))
        solver = Solver()
        solver.add(T.eq(T.and_(doubled, T.bv(1, 8)), T.bv(1, 8)))
        assert solver.check() is Result.UNSAT

    def test_udiv_upper_bound(self):
        # x / 2 cannot exceed 127 at width 8 ... unless divisor is 0.
        x = T.bv_var("x", 8)
        solver = Solver()
        solver.add(T.ugt(T.udiv(x, T.bv(2, 8)), T.bv(127, 8)))
        assert solver.check() is Result.UNSAT

    def test_udiv_by_zero_reachable(self):
        # The RISC-V DIVU edge from the paper's Fig. 2: with a zero
        # divisor the quotient is all-ones, which is > the dividend.
        x = T.bv_var("x", 8)
        y = T.bv_var("y", 8)
        q = T.udiv(x, y)
        solver = Solver()
        solver.add(T.ugt(q, x))
        assert solver.check() is Result.SAT
        model = solver.model()
        assert bvops.bv_udiv(model[x], model[y], 8) > model[x]


@st.composite
def term_strategy(draw, width=4, depth=0):
    """Random BV terms over two variables of a fixed small width."""
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(
            st.sampled_from(
                ["a", "b", "const0", "const1", "const_any"]
            )
        )
        if leaf == "a":
            return T.bv_var("pa", width)
        if leaf == "b":
            return T.bv_var("pb", width)
        if leaf == "const0":
            return T.bv(0, width)
        if leaf == "const1":
            return T.bv(1, width)
        return T.bv(draw(st.integers(0, (1 << width) - 1)), width)
    op = draw(
        st.sampled_from(
            ["add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr", "ite"]
        )
    )
    lhs = draw(term_strategy(width=width, depth=depth + 1))
    rhs = draw(term_strategy(width=width, depth=depth + 1))
    if op == "ite":
        cond = T.ult(lhs, rhs)
        third = draw(term_strategy(width=width, depth=depth + 1))
        return T.ite(cond, rhs, third)
    return BINOPS[op][0](lhs, rhs)


@given(term_strategy(), st.integers(0, 15), st.integers(0, 15))
@settings(max_examples=100, deadline=None)
def test_random_term_solver_agrees_with_evaluator(term, a_val, b_val):
    """Pin variables, solve for the term value, compare with evaluate()."""
    width = 4
    a, b = T.bv_var("pa", width), T.bv_var("pb", width)
    out = T.bv_var("pout", width)
    solver = Solver()
    solver.add(T.eq(a, T.bv(a_val, width)))
    solver.add(T.eq(b, T.bv(b_val, width)))
    solver.add(T.eq(out, term))
    assert solver.check() is Result.SAT
    expected = evaluate(term, {"pa": a_val, "pb": b_val})
    assert solver.model()[out] == expected


class TestIncrementalCircuitDifferential:
    """One persistent solver answers a seeded stream of assumption
    queries over bit-blasted terms on two 4-bit inputs; the clause
    database grows between solves and the trail of each answer is left
    standing for the next.  Every verdict is checked against brute force
    over all 256 inputs, every model against the evaluator, and the CDCL
    search must only ever branch on free variables, never on a gate
    output (which propagation assigns once its inputs are)."""

    WIDTH = 4

    def random_term(self, rng, depth):
        x = T.bv_var("incx", self.WIDTH)
        y = T.bv_var("incy", self.WIDTH)
        if depth == 0 or rng.random() < 0.25:
            return rng.choice([x, y, T.bv(rng.randrange(16), self.WIDTH)])
        lhs = self.random_term(rng, depth - 1)
        rhs = self.random_term(rng, depth - 1)
        op = rng.choice(["add", "sub", "mul", "and", "xor", "udiv", "urem", "ite"])
        if op == "ite":
            return T.ite(self.random_cond(rng, 0), lhs, rhs)
        return {**BINOPS, **DIVOPS}[op][0](lhs, rhs)

    def random_cond(self, rng, depth=2):
        compare = rng.choice([T.ult, T.ule, T.slt, T.sle, T.eq, T.ne])
        cond = compare(self.random_term(rng, depth), self.random_term(rng, depth))
        return T.bnot(cond) if rng.random() < 0.3 else cond

    def test_stream_matches_brute_force(self):
        rng = random.Random(12)
        x = T.bv_var("incx", self.WIDTH)
        y = T.bv_var("incy", self.WIDTH)
        inputs = [{x: a, y: b} for a in range(16) for b in range(16)]
        masks: dict = {}

        def satisfying(cond):
            """Bit i set iff input i satisfies ``cond``."""
            if cond not in masks:
                masks[cond] = sum(
                    1 << i for i, env in enumerate(inputs) if evaluate(cond, env)
                )
            return masks[cond]

        solver = Solver()
        sat = solver._sat
        decided = []
        pick = sat._pick_branch_var

        def recording_pick():
            var = pick()
            decided.append(var)
            return var

        sat._pick_branch_var = recording_pick
        prefix = [self.random_cond(rng) for _ in range(4)]
        scoped: list = []
        verdicts = []
        sizes = []
        for step in range(80):
            if step == 30:
                solver.push()
                scoped = [self.random_cond(rng, 1)]
                solver.add(scoped[0])
            elif step == 55:
                solver.pop()
                scoped = []
            query = prefix[: rng.randint(0, 3)] + [self.random_cond(rng)]
            result = solver.check(query)
            sizes.append(sat.num_vars)
            mask = (1 << len(inputs)) - 1
            for cond in query + scoped:
                mask &= satisfying(cond)
            assert (result is Result.SAT) == (mask != 0), (step, query)
            verdicts.append(result)
            if result is Result.SAT:
                model = solver.model()
                env = {x: model[x], y: model[y]}
                assert all(evaluate(cond, env) for cond in query + scoped)
                assert 0 not in sat._complete_model()[1:], "SAT with an unassigned variable"
        # The stream covers what it claims: both verdicts, a database
        # growing after the first solve, reused trails, division witnesses.
        assert Result.SAT in verdicts and Result.UNSAT in verdicts
        assert sizes[-1] > sizes[0]
        assert sat.statistics["trail_reused_lits"] > 0
        assert solver._blaster._divrem_cache
        gates = solver._blaster.gates
        gate_outputs = {
            abs(lit)
            for cache in (gates._and_cache, gates._xor_cache, gates._mux_cache)
            for lit in cache.values()
        }
        branched = set(decided) - {0}
        assert branched, "the stream must exercise the decision heuristic"
        assert not branched & gate_outputs
