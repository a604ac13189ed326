"""Tests for BinSym: symbolic values, state, interpreter and explorer."""

import pytest

from repro.arch.hart import HaltReason
from repro.asm import assemble
from repro.core import (
    BinSymExecutor,
    ConcretizationPolicy,
    Explorer,
    InputAssignment,
    PathTrace,
    SymValue,
    SymDomain,
)
from repro.smt import terms as T
from repro.smt.digest import query_digest
from repro.spec import rv32im


def explore(source, engine_kwargs=None, explorer_kwargs=None):
    image = assemble(source)
    executor = BinSymExecutor(rv32im(), image, **(engine_kwargs or {}))
    return Explorer(executor, **(explorer_kwargs or {})).explore(), executor


SYMBOLIC_PROLOGUE = """\
_start:
    li a0, 0x20000
    li a1, {n}
    li a7, 1337
    ecall
"""


class TestSymValue:
    def test_concrete_fast_path(self):
        domain = SymDomain()
        a = domain.const(5, 32)
        b = domain.const(7, 32)
        result = domain.binop("add", a, b, 32)
        assert result.concrete == 12
        assert result.term is None  # no term built for concrete data

    def test_symbolic_taints_result(self):
        domain = SymDomain()
        var = SymValue(5, 32, T.bv_var("v", 32))
        result = domain.binop("add", var, domain.const(7, 32), 32)
        assert result.concrete == 12
        assert result.term is not None

    def test_force_terms_builds_always(self):
        domain = SymDomain(force_terms=True)
        result = domain.binop("add", domain.const(5, 32), domain.const(7, 32), 32)
        assert result.term is not None
        assert result.term.is_const  # folded, but present

    def test_cmpop_concolic(self):
        domain = SymDomain()
        var = SymValue(5, 32, T.bv_var("v", 32))
        cond = domain.cmpop("ult", var, domain.const(7, 32), 32)
        assert cond.concrete == 1 and cond.width == 1
        assert cond.condition_term().op == "ult"

    def test_condition_term_of_concrete(self):
        assert SymValue(1, 1).condition_term() is T.true()
        assert SymValue(0, 1).condition_term() is T.false()

    def test_condition_term_requires_width_one(self):
        with pytest.raises(ValueError):
            SymValue(1, 32).condition_term()

    def test_concat_bytes_little_endian(self):
        domain = SymDomain()
        parts = [SymValue(0x11, 8), SymValue(0x22, 8), SymValue(0x33, 8),
                 SymValue(0x44, 8)]
        value = domain.concat_bytes(parts)
        assert value.concrete == 0x44332211
        assert value.term is None

    def test_concat_bytes_with_taint(self):
        domain = SymDomain()
        parts = [SymValue(0x11, 8, T.bv_var("b0", 8)), SymValue(0x22, 8)]
        value = domain.concat_bytes(parts)
        assert value.width == 16
        assert value.term is not None


class TestPathTrace:
    def test_branch_as_taken_form(self):
        trace = PathTrace()
        cond = T.ult(T.bv_var("x", 8), T.bv(5, 8))
        trace.add_branch(cond, pc=0x10, taken=True)
        trace.add_branch(cond, pc=0x14, taken=False)
        assert trace.records[0].condition is cond
        assert trace.records[1].condition is T.bnot(cond)

    def test_assumption_not_flippable(self):
        trace = PathTrace()
        trace.add_assumption(T.eq(T.bv_var("a", 8), T.bv(1, 8)), pc=0)
        assert not trace.records[0].flippable

    def test_trivially_true_assumption_dropped(self):
        trace = PathTrace()
        trace.add_assumption(T.true(), pc=0)
        assert len(trace) == 0

    def test_prefix_conditions(self):
        trace = PathTrace()
        a = T.bool_var("a")
        b = T.bool_var("b")
        trace.add_branch(a, 0, True)
        trace.add_branch(b, 4, True)
        assert trace.prefix_conditions(1) == [a]

    def test_signature_only_flippable(self):
        trace = PathTrace()
        trace.add_branch(T.bool_var("a"), 0x10, True)
        trace.add_assumption(T.bool_var("p"), 0x14)
        assert trace.signature() == ((0x10, True),)

    def test_record_digests_are_prefix_query_digests(self):
        x = T.bv_var("x", 8)
        trace = PathTrace()
        trace.add_branch(T.ult(x, T.bv(5, 8)), 0x10, False)
        trace.add_assumption(T.eq(x, T.bv(9, 8)), 0x14)
        trace.add_assumption(T.true(), 0x18)  # dropped, folds nothing
        trace.add_branch(T.bool_var("a"), 0x1C, True)
        trace.add_assumption(T.bool_var("p"), 0x20)
        assert len(trace) == 4
        conditions = trace.conditions()
        for index in range(len(trace) + 1):
            assert trace.digest(index) == query_digest(conditions[:index])


class TestExplorationCounts:
    def test_independent_branches_power_of_two(self):
        # k independent single-bit branches -> 2^k paths.
        source = SYMBOLIC_PROLOGUE.format(n=3) + """\
    li t0, 0x20000
    li t6, 0
    lbu t1, 0(t0)
    andi t1, t1, 1
    beqz t1, skip0
    addi t6, t6, 1
skip0:
    lbu t1, 1(t0)
    andi t1, t1, 1
    beqz t1, skip1
    addi t6, t6, 1
skip1:
    lbu t1, 2(t0)
    andi t1, t1, 1
    beqz t1, skip2
    addi t6, t6, 1
skip2:
    mv a0, t6
    li a7, 93
    ecall
"""
        result, _ = explore(source)
        assert result.num_paths == 8
        assert result.exit_codes == {0, 1, 2, 3}

    def test_infeasible_paths_pruned(self):
        # Two branches on the same condition: only 2 feasible paths.
        source = SYMBOLIC_PROLOGUE.format(n=1) + """\
    li t0, 0x20000
    lbu t1, 0(t0)
    li t2, 10
    bltu t1, t2, small
    bgeu t1, t2, big     # always taken here
    ebreak               # unreachable
small:
    li a0, 1
    li a7, 93
    ecall
big:
    li a0, 2
    li a7, 93
    ecall
"""
        result, _ = explore(source)
        assert result.num_paths == 2
        assert not result.assertion_failures

    def test_equality_chain(self):
        # if (x == 5) / else: exactly two paths, model x==5 on one.
        source = SYMBOLIC_PROLOGUE.format(n=1) + """\
    li t0, 0x20000
    lbu t1, 0(t0)
    li t2, 5
    beq t1, t2, five
    li a0, 0
    li a7, 93
    ecall
five:
    li a0, 1
    li a7, 93
    ecall
"""
        result, executor = explore(source)
        assert result.num_paths == 2
        five_path = next(p for p in result.paths if p.exit_code == 1)
        sym_input = next(iter(executor.interpreter.inputs.values()))
        assert five_path.assignment.value_for(sym_input) == 5

    def test_loop_over_symbolic_bound(self):
        # Loop count depends on a symbolic byte capped at 3 -> 4 paths.
        source = SYMBOLIC_PROLOGUE.format(n=1) + """\
    li t0, 0x20000
    lbu t1, 0(t0)
    andi t1, t1, 3       # bound in 0..3
    li t2, 0
loop:
    bgeu t2, t1, done    # symbolic
    addi t2, t2, 1
    j loop
done:
    mv a0, t2
    li a7, 93
    ecall
"""
        result, _ = explore(source)
        assert result.num_paths == 4
        assert result.exit_codes == {0, 1, 2, 3}

    def test_max_paths_truncation(self):
        source = SYMBOLIC_PROLOGUE.format(n=2) + """\
    li t0, 0x20000
    lbu t1, 0(t0)
    beqz t1, a
a:  lbu t1, 1(t0)
    beqz t1, b
b:  li a7, 93
    li a0, 0
    ecall
"""
        result, _ = explore(source, explorer_kwargs={"max_paths": 2})
        assert result.num_paths == 2
        assert result.truncated


class TestSymbolicMemory:
    def test_word_load_concatenates_shadow(self):
        # Load 4 symbolic bytes as one word; branch on the whole word.
        source = SYMBOLIC_PROLOGUE.format(n=4) + """\
    li t0, 0x20000
    lw t1, 0(t0)
    li t2, 0x12345678
    beq t1, t2, hit
    li a0, 0
    li a7, 93
    ecall
hit:
    li a0, 1
    li a7, 93
    ecall
"""
        result, executor = explore(source)
        assert result.num_paths == 2
        hit = next(p for p in result.paths if p.exit_code == 1)
        inputs = sorted(executor.interpreter.inputs.values(),
                        key=lambda i: i.address)
        assert hit.assignment.as_bytes(inputs) == b"\x78\x56\x34\x12"

    def test_store_propagates_taint(self):
        # Copy the symbolic byte; branch on the copy.
        source = SYMBOLIC_PROLOGUE.format(n=1) + """\
    li t0, 0x20000
    lbu t1, 0(t0)
    sb t1, 8(t0)         # copy
    lbu t2, 8(t0)
    beqz t2, is_zero
    li a0, 1
    li a7, 93
    ecall
is_zero:
    li a0, 0
    li a7, 93
    ecall
"""
        result, _ = explore(source)
        assert result.num_paths == 2

    def test_overwrite_with_concrete_clears_taint(self):
        source = SYMBOLIC_PROLOGUE.format(n=1) + """\
    li t0, 0x20000
    li t1, 7
    sb t1, 0(t0)         # overwrite the symbolic byte
    lbu t2, 0(t0)
    beqz t2, is_zero        # concrete now: no fork
is_zero:
    li a0, 0
    li a7, 93
    ecall
"""
        result, _ = explore(source)
        assert result.num_paths == 1
        assert result.sat_checks + result.unsat_checks == 0

    def test_symbolic_address_concretized(self):
        # Table lookup with symbolic index: PIN policy pins the address.
        source = SYMBOLIC_PROLOGUE.format(n=1) + """\
    li t0, 0x20000
    lbu t1, 0(t0)
    andi t1, t1, 7
    la t2, table
    add t2, t2, t1
    lbu a0, 0(t2)        # symbolic address -> concretized
    li a7, 93
    ecall
.data
    .org 0x20100            # keep the table clear of the input buffer
table:
    .byte 10, 11, 12, 13, 14, 15, 16, 17
"""
        result, _ = explore(source)
        # With PIN, only the pinned index is explored (no flip of the
        # non-flippable assumption).
        assert result.num_paths == 1
        assert result.paths[0].exit_code == 10

    def test_divu_forks_on_symbolic_divisor(self):
        """Sect. III-B: DIVU with symbolic divisor explores both cases."""
        source = SYMBOLIC_PROLOGUE.format(n=1) + """\
    li t0, 0x20000
    lbu t1, 0(t0)        # symbolic divisor
    li t2, 100
    divu t3, t2, t1
    li a0, 0
    li a7, 93
    ecall
"""
        result, _ = explore(source)
        # RunIfElse on divisor==0 forks even without a visible branch.
        assert result.num_paths == 2


class TestSymbolicRegisters:
    def test_register_input(self):
        source = """\
_start:
    li t1, 41
    beq a0, t1, hit
    li a0, 0
    li a7, 93
    ecall
hit:
    li a0, 1
    li a7, 93
    ecall
"""
        image = assemble(source)
        executor = BinSymExecutor(rv32im(), image, symbolic_registers=(10,))
        result = Explorer(executor).explore()
        assert result.num_paths == 2
        assert result.exit_codes == {0, 1}


class TestDeterminismAndStrategies:
    SOURCE = SYMBOLIC_PROLOGUE.format(n=2) + """\
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

    def path_set(self, strategy):
        image = assemble(self.SOURCE)
        executor = BinSymExecutor(rv32im(), image)
        result = Explorer(executor, strategy=strategy).explore()
        return {(p.exit_code, p.trace_length) for p in result.paths}, result

    def test_exploration_is_deterministic(self):
        first, _ = self.path_set("dfs")
        second, _ = self.path_set("dfs")
        assert first == second

    def test_strategies_find_same_paths(self):
        dfs, dfs_result = self.path_set("dfs")
        bfs, _ = self.path_set("bfs")
        rnd, _ = self.path_set("random")
        assert dfs == bfs == rnd
        assert dfs_result.num_paths == 4

    def test_unknown_strategy_rejected(self):
        from repro.core.strategy import make_strategy

        with pytest.raises(ValueError):
            make_strategy("astar")


class TestConcretizationPolicies:
    SOURCE = SYMBOLIC_PROLOGUE.format(n=1) + """\
    li t0, 0x20000
    lbu t1, 0(t0)
    andi t1, t1, 1
    la t2, table
    add t2, t2, t1
    lbu t3, 0(t2)
    beqz t3, is_zero
    li a0, 1
    li a7, 93
    ecall
is_zero:
    li a0, 0
    li a7, 93
    ecall
.data
    .org 0x20100            # keep the table clear of the input buffer
table:
    .byte 0, 1
"""

    def count_paths(self, policy):
        image = assemble(self.SOURCE)
        executor = BinSymExecutor(rv32im(), image, concretization=policy)
        return Explorer(executor).explore().num_paths

    def test_pin_policy_restricts(self):
        assert self.count_paths(ConcretizationPolicy.PIN) == 1

    def test_free_policy_unconstrained(self):
        # FREE does not pin the address; flipping the beqz branch is
        # allowed but the new input still hits index 0 concretely, so
        # this program still yields 1 path (the flip query is UNSAT
        # given the loaded byte is concrete 0 -> condition is const).
        assert self.count_paths(ConcretizationPolicy.FREE) == 1


class TestAssertionFailures:
    def test_failure_reported_with_pc(self):
        source = SYMBOLIC_PROLOGUE.format(n=1) + """\
    li t0, 0x20000
    lbu t1, 0(t0)
    li t2, 0x42
    bne t1, t2, safe
fail_site:
    ebreak
safe:
    li a0, 0
    li a7, 93
    ecall
"""
        image = assemble(source)
        executor = BinSymExecutor(rv32im(), image)
        result = Explorer(executor).explore()
        failures = result.assertion_failures
        assert len(failures) == 1
        assert failures[0].final_pc == image.symbol("fail_site")
        assert failures[0].halt_reason == HaltReason.EBREAK
