"""Staged semantics execution (PR 3): differential and unit tests.

The staging layer (:mod:`repro.spec.staged`) must be observationally
invisible: for any program, input and interpreter, staged and unstaged
execution must produce identical machine states, traces, path sets and
solver-query attribution.  These tests pin that equivalence with
randomized single-instruction differentials over every encoding of the
composed ISA (including the Sect. IV MADD extension instruction) and
with whole-exploration differentials over the tier-1 workloads.
"""

import random

import pytest

from repro.asm import assemble
from repro.concrete import ConcreteInterpreter, TracingInterpreter
from repro.core import BinSymExecutor, Explorer, InputAssignment
from repro.core.interpreter import SymbolicInterpreter
from repro.core.symvalue import SymValue
from repro.eval.workloads import TABLE1_WORKLOADS, WORKLOADS
from repro.smt import terms as T
from repro.concrete.dift import DiftInterpreter
from repro.spec import rv32im, rv32im_zbb, rv32im_zimadd
from repro.spec.dsl import execute_semantics
from repro.spec.expr import imm
from repro.spec.primitives import Primitive, WriteRegister
from repro.spec.staged import bind_plan, record_plan

_TEXT = 0x0000_1000
_DATA = 0x0002_0000


@pytest.fixture(scope="module")
def isa():
    return rv32im_zimadd()


@pytest.fixture(scope="module")
def isa_zbb():
    return rv32im_zbb()


def _random_word(rng, encoding):
    """A uniformly random instance of one encoding."""
    return (rng.getrandbits(32) & ~encoding.mask & 0xFFFFFFFF) | encoding.match


def _interesting_words(isa_obj, rng, count):
    """Random instruction words covering every encoding of the ISA.

    ``ecall`` is excluded: with a random a7 it traps on an unknown
    syscall number in both execution modes, which proves nothing.
    """
    encodings = [e for e in isa_obj.encodings if e.name != "ecall"]
    words = [_random_word(rng, e) for e in encodings]  # one per encoding
    while len(words) < count:
        words.append(_random_word(rng, rng.choice(encodings)))
    return words


def _seed_concrete(interp, rng):
    for index in range(1, 32):
        # Small values keep load/store addresses inside the data page
        # often enough to exercise memory plans.
        value = rng.choice(
            (rng.getrandbits(32), _DATA + rng.randrange(0, 64), rng.randrange(0, 8))
        )
        interp.hart.regs.write(index, value & 0xFFFFFFFF)
    interp.memory.write_bytes(_DATA, bytes(rng.getrandbits(8) for _ in range(128)))
    interp.hart.reset(_TEXT)


class TestConcreteDifferential:
    def test_random_words_single_step(self, isa):
        rng = random.Random(1234)
        words = _interesting_words(isa, rng, 300)
        for word in words:
            seed = rng.getrandbits(32)
            states = []
            for staging in (True, False):
                interp = ConcreteInterpreter(isa, staging=staging)
                _seed_concrete(interp, random.Random(seed))
                interp.memory.write(_TEXT, word, 32)
                interp.step()
                states.append(
                    (
                        interp.hart.regs.snapshot(),
                        interp.hart.pc,
                        interp.hart.halted,
                        interp.hart.halt_reason,
                        interp.memory._pages,
                    )
                )
            staged, unstaged = states
            assert staged == unstaged, f"divergence on word {word:#010x}"

    def test_random_words_zbb(self, isa_zbb):
        rng = random.Random(99)
        for word in _interesting_words(isa_zbb, rng, 120):
            seed = rng.getrandbits(32)
            snaps = []
            for staging in (True, False):
                interp = ConcreteInterpreter(isa_zbb, staging=staging)
                _seed_concrete(interp, random.Random(seed))
                interp.memory.write(_TEXT, word, 32)
                interp.step()
                snaps.append((interp.hart.regs.snapshot(), interp.hart.pc))
            assert snaps[0] == snaps[1], f"divergence on word {word:#010x}"

    def test_trace_identical_on_workload(self, isa):
        image = WORKLOADS["bubble-sort"].image(3)
        renders = []
        for staging in (True, False):
            tracer = TracingInterpreter(isa, staging=staging)
            tracer.load_image(image)
            tracer.run()
            renders.append(tracer.render())
        assert renders[0] == renders[1]


def _seed_symbolic(interp, rng):
    interp.reset(InputAssignment())
    for index in range(1, 32):
        concrete = rng.getrandbits(32)
        if rng.random() < 0.4:
            term = T.bv_var(f"v{index}", 32)
            interp.hart.regs.write(index, SymValue(concrete, 32, term))
        elif rng.random() < 0.5:
            interp.hart.regs.write(
                index, SymValue(_DATA + rng.randrange(0, 64), 32)
            )
        else:
            interp.hart.regs.write(index, SymValue(concrete, 32))
    interp.memory.write_bytes(_DATA, bytes(rng.getrandbits(8) for _ in range(128)))
    interp.hart.pc = _TEXT


class TestSymbolicDifferential:
    def test_random_words_single_step(self, isa):
        rng = random.Random(4321)
        image = assemble("_start:\n nop\n")
        words = _interesting_words(isa, rng, 250)
        for word in words:
            seed = rng.getrandbits(32)
            states = []
            for staging in (True, False):
                interp = SymbolicInterpreter(isa, image, staging=staging)
                _seed_symbolic(interp, random.Random(seed))
                interp.memory.write(_TEXT, word, 32)
                interp.step()
                regs = interp.hart.regs.snapshot()
                states.append(
                    (
                        [(v.concrete, v.width, v.term) for v in regs],
                        interp.hart.pc,
                        interp.hart.halted,
                        [
                            (r.condition, r.pc, r.taken, r.flippable)
                            for r in interp.trace
                        ],
                        interp.shadow._shadow,
                        interp.memory._pages,
                    )
                )
            staged, unstaged = states
            assert staged == unstaged, f"divergence on word {word:#010x}"

    def test_force_terms_differential(self, isa):
        # force_terms exercises the no-const-folding compile path.
        rng = random.Random(77)
        image = assemble("_start:\n nop\n")
        for word in _interesting_words(isa, rng, 60):
            seed = rng.getrandbits(32)
            states = []
            for staging in (True, False):
                interp = SymbolicInterpreter(
                    isa, image, force_terms=True, staging=staging
                )
                _seed_symbolic(interp, random.Random(seed))
                interp.memory.write(_TEXT, word, 32)
                interp.step()
                regs = interp.hart.regs.snapshot()
                states.append(
                    (
                        [(v.concrete, v.width, v.term) for v in regs],
                        interp.hart.pc,
                        len(interp.trace),
                    )
                )
            assert states[0] == states[1], f"divergence on word {word:#010x}"


#: Straight-line words for the block differential: every R-type and
#: I-type ALU encoding, every M-extension one, MADD, and the U-types
#: (AUIPC reads the PC, a literal inside a block).
_STRAIGHT_LINE = (
    "lui", "auipc", "addi", "slti", "sltiu", "xori", "ori", "andi",
    "slli", "srli", "srai", "add", "sub", "sll", "slt", "sltu", "xor",
    "srl", "sra", "or", "and", "mul", "mulh", "mulhsu", "mulhu", "div",
    "divu", "rem", "remu", "madd",
)

#: The loop counter; the random words never write it.
_COUNTER = 31


def _loop_image(isa_obj, rng):
    """A loop whose body is one random word of each straight-line
    encoding, in random order, with ``rd`` never the counter or x0.
    The body runs 4 times: from the second pass on, as a superblock."""
    words = []
    for name in _STRAIGHT_LINE:
        word = _random_word(rng, isa_obj.decoder.by_name(name))
        words.append((word & ~(0x1F << 7)) | (rng.randrange(1, _COUNTER) << 7))
    rng.shuffle(words)
    body = "".join(f"    .word {word:#010x}\n" for word in words)
    source = (
        f"_start:\n    li x{_COUNTER}, 4\nloop:\n{body}"
        f"    addi x{_COUNTER}, x{_COUNTER}, -1\n"
        f"    bne x{_COUNTER}, zero, loop\n    ebreak\n"
    )
    return assemble(source, isa=isa_obj)


def _seed_values(rng):
    """Register seeds x1..x30: ``(concrete, symbolic)`` pairs, biased to
    the operands that reach division and shift edge cases."""
    seeds = []
    for _index in range(1, _COUNTER):
        concrete = rng.choice(
            (rng.getrandbits(32), rng.randrange(0, 34), 0x80000000, 0xFFFFFFFF)
        )
        seeds.append((concrete, rng.random() < 0.4))
    return seeds


class TestBlockDifferential:
    """Random straight-line words run inside a superblock equal the same
    words run one plan at a time and interpreted, on both interpreters;
    values keep their exact types (an ``int`` is never a ``bool``)."""

    SETTINGS = ((True, True), (True, False), (False, False))

    @pytest.mark.parametrize("seed", range(6))
    def test_symbolic_loop(self, isa, seed):
        rng = random.Random(seed)
        image = _loop_image(isa, rng)
        seeds = _seed_values(rng)
        outcomes = []
        for staging, superblocks in self.SETTINGS:
            interp = SymbolicInterpreter(
                isa, image, staging=staging, superblocks=superblocks
            )
            interp.reset(InputAssignment())
            for index, (concrete, symbolic) in enumerate(seeds, start=1):
                term = T.bv_var(f"r{index}", 32) if symbolic else None
                interp.hart.regs.write(index, SymValue(concrete, 32, term))
            hart = interp.run()
            outcomes.append((
                [
                    (type(v.concrete), v.concrete, v.width, v.term)
                    for v in hart.regs.snapshot()
                ],
                [(r.condition, r.pc, r.taken, r.flippable) for r in interp.trace],
                (hart.halt_reason, hart.instret, hart.pc),
            ))
            if superblocks:
                assert interp.sb_instructions > 2 * len(_STRAIGHT_LINE)
        blocks, staged, interpreted = outcomes
        assert all(kind is int for kind, *_rest in blocks[0])
        assert blocks == staged, "superblocks changed the run"
        assert blocks == interpreted, "staging changed the run"

    @pytest.mark.parametrize("seed", range(6))
    def test_concrete_loop(self, isa, seed):
        rng = random.Random(seed)
        image = _loop_image(isa, rng)
        seeds = _seed_values(rng)
        outcomes = []
        for staging, superblocks in self.SETTINGS:
            interp = ConcreteInterpreter(
                isa, staging=staging, superblocks=superblocks
            )
            interp.load_image(image)
            for index, (concrete, _symbolic) in enumerate(seeds, start=1):
                interp.hart.regs.write(index, concrete)
            hart = interp.run()
            regs = hart.regs.snapshot()
            outcomes.append((
                [type(value) for value in regs],
                regs,
                (hart.halt_reason, hart.instret, hart.pc),
            ))
            if superblocks:
                assert interp.sb_instructions > 2 * len(_STRAIGHT_LINE)
        blocks, staged, interpreted = outcomes
        assert all(kind is int for kind in blocks[0])
        assert blocks == staged, "superblocks changed the run"
        assert blocks == interpreted, "staging changed the run"


class TestExplorationDifferential:
    """Path sets and query attribution are staging-invariant."""

    @pytest.mark.parametrize("name", TABLE1_WORKLOADS)
    def test_workload_paths_and_queries(self, name):
        isa_obj = rv32im()
        image = WORKLOADS[name].image(3)
        results = {}
        for staging in (True, False):
            engine = BinSymExecutor(isa_obj, image, staging=staging)
            results[staging] = Explorer(engine, use_cache=True).explore()
        staged, unstaged = results[True], results[False]
        assert staged.path_set() == unstaged.path_set()
        assert staged.num_paths == unstaged.num_paths
        assert staged.total_instructions == unstaged.total_instructions
        assert staged.num_queries == unstaged.num_queries
        assert staged.sat_solves == unstaged.sat_solves
        assert staged.cache_hits == unstaged.cache_hits
        assert staged.fast_path_answers == unstaged.fast_path_answers
        assert staged.pruned_queries == unstaged.pruned_queries
        assert staged.solver_stats == unstaged.solver_stats

    def test_parallel_matches_serial_with_and_without_staging(self):
        isa_obj = rv32im()
        image = WORKLOADS["insertion-sort"].image(3)
        reference = None
        for staging in (True, False):
            for jobs in (1, 2):
                engine = BinSymExecutor(isa_obj, image, staging=staging)
                result = Explorer(engine, jobs=jobs, use_cache=True).explore()
                if reference is None:
                    reference = result
                else:
                    assert result.path_set() == reference.path_set()
                    assert result.num_queries == reference.num_queries
                    assert result.sat_solves == reference.sat_solves


class TestMaddExtension:
    """A MADD-style extension instruction stages with zero changes."""

    def test_madd_is_staged_and_identical(self, isa):
        source = """\
_start:
    li t0, 123456
    li t1, 789
    li t2, 55
    madd t3, t0, t1, t2
    li a7, 93
    li a0, 0
    ecall
"""
        image = assemble(source, isa=isa)
        regs = []
        for staging in (True, False):
            interp = ConcreteInterpreter(isa, staging=staging)
            interp.load_image(image)
            interp.run()
            regs.append(interp.hart.regs.snapshot())
        assert regs[0] == regs[1]
        assert regs[0][28] == (123456 * 789 + 55) & 0xFFFFFFFF

    def test_madd_plan_recorded(self, isa):
        word = isa.decoder.by_name("madd").match
        plan = record_plan(isa.semantics_for("madd"), word)
        assert plan is not None
        # 3 register reads + 1 register write.
        assert [s[0] for s in plan.steps] == ["reg", "reg", "reg", "wreg"]


class TestStagingMachinery:
    def test_division_semantics_stage_as_guarded_subplans(self, isa):
        image = assemble(
            """\
_start:
    li t0, 100
    li t1, 0
    divu t2, t0, t1
    li t1, 7
    divu t3, t0, t1
    rem t4, t0, t1
    li a7, 93
    li a0, 0
    ecall
"""
        )
        regs = []
        for staging in (True, False):
            interp = ConcreteInterpreter(isa, staging=staging)
            interp.load_image(image)
            interp.run()
            regs.append(interp.hart.regs.snapshot())
        assert regs[0] == regs[1]
        assert regs[0][7] == 0xFFFFFFFF  # t2: div-by-zero yields all-ones
        assert regs[0][28] == 100 // 7  # t3
        assert regs[0][29] == 100 % 7  # t4

    def test_compiled_plan_cache_shared_per_domain_key(self, isa):
        a = ConcreteInterpreter(isa)
        b = ConcreteInterpreter(isa)
        word = 0x002081B3  # add x3, x1, x2
        plan_a = isa.compiled_plan(word, "add", a.domain, a._domain_key)
        plan_b = isa.compiled_plan(word, "add", b.domain, b._domain_key)
        assert plan_a is plan_b

    def test_set_staging_clears_memo(self, isa):
        interp = ConcreteInterpreter(isa)
        interp.memory.write(_TEXT, 0x002081B3, 32)
        interp.hart.reset(_TEXT)
        interp.step()
        assert interp._exec_cache
        interp.set_staging(False)
        assert not interp._exec_cache
        assert interp.staging is False

    def test_decode_cache_lru(self, isa):
        decoder = isa.decoder
        decoder.cache_clear()
        first = decoder.decode(0x002081B3)
        again = decoder.decode(0x002081B3)
        assert first is again  # cache hit returns the memoized object
        entries, capacity = decoder.cache_info()
        assert entries >= 1 and capacity >= entries

    def test_unknown_primitive_falls_back(self, isa):
        class Mystery:
            pass

        def semantics():
            yield Mystery()

        assert record_plan(semantics, 0) is None

    @pytest.mark.parametrize("kind", ["concrete", "symbolic", "dift"])
    def test_handle_resolves_a_subclass_through_its_mro(self, isa, kind):
        """``handle`` dispatches on the primitive's exact class through
        one table; a subclass of a spec primitive is handled as its
        base, and a primitive no interpreter knows is an error."""

        class Tagged(WriteRegister):
            pass

        class Mystery(Primitive):
            pass

        def semantics(primitive):
            yield primitive

        if kind == "concrete":
            interp = ConcreteInterpreter(isa, staging=False)
        elif kind == "symbolic":
            interp = SymbolicInterpreter(isa, assemble("_start:\n    ecall\n"))
        else:
            interp = DiftInterpreter(isa)
        execute_semantics(semantics(Tagged(5, imm(42))), interp)
        value = interp.hart.regs.read(5)
        assert getattr(value, "concrete", getattr(value, "value", value)) == 42
        with pytest.raises(NotImplementedError, match="Mystery"):
            execute_semantics(semantics(Mystery()), interp)

    def test_bind_plan_roundtrip_concrete(self, isa):
        # addi x5, x0, 42
        word = 0x02A00293
        plan = record_plan(isa.semantics_for("addi"), word)
        assert plan is not None
        interp = ConcreteInterpreter(isa)
        compiled = bind_plan(plan, interp.domain)
        interp.hart.reset(_TEXT)
        interp._current_word = word
        interp._next_pc = _TEXT + 4
        compiled.run(interp)
        assert interp.hart.regs.read(5) == 42
