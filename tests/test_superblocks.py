"""Superblock trace compilation (PR 6): differential and unit tests.

The translation layer must be observationally invisible: for any
program, input, search strategy and job count, exploring with
superblocks on and off must discover identical path sets with identical
query attribution — stitching only changes how instructions are
*dispatched*.  These tests pin that equivalence over the Fig. 6
workloads (randomized over strategies and seeds, serial and
``jobs=4``), exercise the self-modifying-code invalidation path (a SUT
that stores into its own fetched page), the fuel-boundary deopt, and
unit-test the classifier, the trace scanner, the successor prediction
and the shared block cache underneath.
"""

import random

import pytest

from repro.arch.hart import HaltReason
from repro.arch.memory import ByteMemory
from repro.asm import assemble
from repro.baselines.vp import VpExecutor
from repro.concrete import ConcreteInterpreter
from repro.core import BinSymExecutor, Explorer
from repro.core.state import InputAssignment
from repro.eval.workloads import WORKLOADS
from repro.spec import rv32im
from repro.spec import superblock as sb
from repro.spec.superblock import (
    MAX_BLOCK_LEN,
    Superblock,
    SuperblockEngine,
    _static_target,
)

_ATTRIBUTION_KEYS = (
    "sat_checks",
    "unsat_checks",
    "cache_hits",
    "fast_path_answers",
    "sat_solves",
    "pruned_queries",
    "total_instructions",
)

_FIG6 = (
    ("bubble-sort", 4),
    ("insertion-sort", 4),
    ("base64-encode", 2),
    ("uri-parser", None),
    ("clif-parser", None),
)

_BARRIER = sb._BARRIER


def _explore(image, superblocks, engine_cls=BinSymExecutor, **kwargs):
    engine = engine_cls(rv32im(), image)
    return Explorer(
        engine, use_cache=True, superblocks=superblocks, **kwargs
    ).explore()


def _attribution(result):
    return tuple(getattr(result, key) for key in _ATTRIBUTION_KEYS)


def _assignments(result):
    return [
        tuple(
            sorted(
                (var.payload, value)
                for var, value in path.assignment.values.items()
            )
        )
        for path in result.paths
    ]


def _memory_for(source):
    """Assemble a snippet into a fresh ByteMemory; return image too."""
    image = assemble(source, isa=rv32im())
    memory = ByteMemory()
    image.load_into(memory)
    return image, memory


@pytest.fixture
def isa():
    return rv32im()


@pytest.fixture
def engine(isa):
    # A private engine (not isa.superblocks) so unit tests never leak
    # hotness or cached blocks into the shared per-ISA instance.
    return SuperblockEngine(isa)


# ---------------------------------------------------------------------------
# Classification, successor prediction, trace scanning
# ---------------------------------------------------------------------------


class TestClassification:
    def _classify(self, engine, source, label="probe"):
        image, memory = _memory_for(source)
        pc = image.symbols[label]
        return engine._classify_word(memory.read_word(pc), pc), pc

    def test_alu_is_plain_without_pc(self, engine):
        info, _pc = self._classify(
            engine, "probe:\n    add t0, t1, t2\n"
        )
        kind, wpc, _slots, needs_pc, has_store = info
        assert kind == "plain" and wpc is None
        assert not needs_pc and not has_store

    def test_load_is_plain_but_needs_pc(self, engine):
        """Loads pin hart.pc: concretization records its site."""
        info, _pc = self._classify(engine, "probe:\n    lw t0, 0(t1)\n")
        assert info[0] == "plain" and info[3]

    def test_direct_jal_is_plain_with_static_target(self, engine):
        source = "probe:\n    jal zero, away\n    nop\naway:\n    nop\n"
        info, pc = self._classify(engine, source)
        kind, wpc, slots = info[0], info[1], info[2]
        assert kind == "plain" and wpc is not None
        assert _static_target(wpc, slots, pc) == pc + 8

    def test_branch_is_cond_with_fallthrough(self, engine):
        info, _pc = self._classify(
            engine, "probe:\n    beq t0, t1, probe\n"
        )
        assert info[0] == "cond"
        assert info[2]  # the not-taken arm writes no PC: pc+4 possible

    def test_ecall_ebreak_fence_are_barriers(self, engine):
        for insn in ("ecall", "ebreak", "fence"):
            info, _pc = self._classify(engine, f"probe:\n    {insn}\n")
            assert info is _BARRIER, insn

    def test_illegal_word_is_barrier(self, engine):
        assert engine._classify_word(0x0000_0000, 0x10000) is _BARRIER

    def test_jalr_target_is_dynamic(self, engine):
        info, pc = self._classify(engine, "probe:\n    jalr zero, t0, 0\n")
        kind, wpc, slots = info[0], info[1], info[2]
        assert kind == "plain" and wpc is not None
        assert _static_target(wpc, slots, pc) is None

    def test_backward_branch_predicted_taken(self, engine):
        source = "back:\n    nop\nprobe:\n    bne t0, t1, back\n"
        info, pc = self._classify(engine, source)
        predicted, side_exits = engine._successors(info, pc)
        assert predicted == pc - 4  # the loop back-edge
        assert side_exits == (pc + 4,)

    def test_forward_branch_predicted_fallthrough(self, engine):
        source = "probe:\n    bne t0, t1, fwd\n    nop\nfwd:\n    nop\n"
        info, pc = self._classify(engine, source)
        predicted, side_exits = engine._successors(info, pc)
        assert predicted == pc + 4
        assert side_exits == (pc + 8,)


class TestScan:
    def test_trace_ends_at_barrier(self, engine):
        _image, memory = _memory_for(
            "entry:\n    add t0, t1, t2\n    sub t3, t0, t1\n    ecall\n"
        )
        words, exit_pc = engine._scan(0x10000, memory)
        assert len(words) == 2
        assert exit_pc == 0x10008  # the ecall's own pc

    def test_single_instruction_does_not_stitch(self, engine):
        _image, memory = _memory_for("entry:\n    add t0, t1, t2\n    ecall\n")
        assert engine._scan(0x10000, memory) is None

    def test_scan_follows_direct_jump(self, engine):
        source = (
            "entry:\n    add t0, t1, t2\n    jal zero, land\n"
            "    ecall\nland:\n    sub t3, t0, t1\n    ecall\n"
        )
        _image, memory = _memory_for(source)
        words, _exit_pc = engine._scan(0x10000, memory)
        pcs = [pc for pc, _word in words]
        assert 0x10008 not in pcs  # the skipped ecall
        assert pcs[-1] == 0x1000C  # the landing pad

    def test_scan_stitches_through_predicted_loop(self, engine):
        """A hot loop body closes on itself: the scan stitches the
        backward branch and stops when it loops back into the block."""
        image, memory = _memory_for(
            "entry:\n    li t0, 9\nloop:\n    addi t1, t1, 1\n"
            "    addi t0, t0, -1\n    bne t0, zero, loop\n    ecall\n"
        )
        loop = image.symbols["loop"]
        words, exit_pc = engine._scan(loop, memory)
        assert [pc for pc, _ in words] == [loop, loop + 4, loop + 8]
        assert exit_pc == loop  # predicted back-edge re-enters the block

    def test_scan_caps_block_length(self, engine):
        body = "".join("    addi t0, t0, 1\n" for _ in range(MAX_BLOCK_LEN + 9))
        _image, memory = _memory_for("entry:\n" + body + "    ecall\n")
        words, _exit_pc = engine._scan(0x10000, memory)
        assert len(words) == MAX_BLOCK_LEN


class TestBlockCache:
    SOURCE = "entry:\n    add t0, t1, t2\n    sub t3, t0, t1\n    ecall\n"

    def test_acquire_builds_once(self, isa, engine):
        _image, memory = _memory_for(self.SOURCE)
        from repro.concrete.interpreter import ConcreteInterpreter as CI

        domain, key = CI(isa).domain, CI._domain_key
        block, built = engine.acquire(0x10000, memory, domain, key)
        assert built and isinstance(block, Superblock)
        again, rebuilt = engine.acquire(0x10000, memory, domain, key)
        assert again is block and not rebuilt

    def test_acquire_revalidates_changed_code(self, isa, engine):
        _image, memory = _memory_for(self.SOURCE)
        from repro.concrete.interpreter import ConcreteInterpreter as CI

        domain, key = CI(isa).domain, CI._domain_key
        block, _ = engine.acquire(0x10000, memory, domain, key)
        # Overwrite the second instruction with addi t3, t0, 1.
        _donor_image, donor = _memory_for("entry:\n    addi t3, t0, 1\n")
        word = donor.read_word(0x10000)
        memory.write_bytes(0x10004, word.to_bytes(4, "little"))
        fresh, _ = engine.acquire(0x10000, memory, domain, key)
        assert fresh is not block
        assert fresh.words != block.words

    def test_cache_capacity_evicts_oldest(self, isa, engine, monkeypatch):
        monkeypatch.setattr(sb, "BLOCK_CACHE_CAPACITY", 2)
        body = "".join("    addi t0, t0, 1\n" for _ in range(8))
        _image, memory = _memory_for("entry:\n" + body + "    ecall\n")
        from repro.concrete.interpreter import ConcreteInterpreter as CI

        domain, key = CI(isa).domain, CI._domain_key
        for offset in (0, 4, 8):
            engine.acquire(0x10000 + offset, memory, domain, key)
        assert len(engine._blocks) == 2
        keys = list(engine._blocks)
        assert all(entry_pc != 0x10000 for _dk, entry_pc, _w in keys)

    def test_engine_shared_per_isa(self, isa):
        """Interpreters over one ISA bind the same lazy engine, so
        hotness and compiled blocks are shared (and fork-inherited)."""
        assert isa.superblocks is isa.superblocks
        image = assemble(self.SOURCE)
        first = ConcreteInterpreter(isa)
        second = ConcreteInterpreter(isa)
        first.load_image(image)
        second.load_image(image)
        assert first._sb_engine is second._sb_engine is isa.superblocks

    def test_noted_entry_run_compiles_the_entry_on_the_first_run(self):
        """Pool workers count their fork as one entry run
        (``note_entry_run``), so a worker's first task from the entry
        point already dispatches the entry block instead of waiting for
        a second full run that its local frontier may never give it."""
        image = assemble("_start:\n    li a0, 0\n    li a7, 93\n    ecall\n")
        cold = BinSymExecutor(rv32im(), image)
        cold.execute(InputAssignment())
        assert cold.superblock_statistics["sb_blocks_built"] == 0
        warm = BinSymExecutor(rv32im(), image)
        warm.note_entry_run()
        warm.execute(InputAssignment())
        assert warm.superblock_statistics["sb_blocks_built"] == 1
        assert warm.superblock_statistics["sb_hits"] == 1


# ---------------------------------------------------------------------------
# Self-modifying code: store into the fetched page
# ---------------------------------------------------------------------------

# Two passes over a hot loop; between them the SUT patches the loop's
# own first instruction (addi t1, t1, 1 -> addi t1, t1, 2) by loading
# the word, adding 1 << 20 to its I-immediate, and storing it back.
_SMC = """\
_start:
    li s0, 2
    la s1, loop
    li s3, 0x100
    slli s3, s3, 12         # 1 << 20: +1 on an I-type immediate
outer:
    li t0, 50
    li t1, 0
loop:
    addi t1, t1, 1          # patched to addi t1, t1, 2 after pass one
    addi t0, t0, -1
    bne t0, zero, loop
    addi s0, s0, -1
    beq s0, zero, done
    lw s2, 0(s1)
    add s2, s2, s3
    sw s2, 0(s1)            # store into the fetched page
    jal zero, outer
done:
    mv a0, t1
    li a7, 93
    ecall
"""


# One symbolic branch, two arms into the same loop.  The first run
# (input 0) patches the loop's first instruction on a page where no
# block has been resolved yet, so the store bumps no code epoch, and then
# runs the loop as a block; the other arm must run the unpatched loop.
_SMC_ONE_ARM = """\
_start:
    li a0, 0x20000
    li a1, 1
    li a7, 1337
    ecall                   # make_symbolic(buf, 1)
    li t5, 0x20000
    lbu t6, 0(t5)
    la s1, loop
    bne t6, zero, run       # input 0 falls through to the patch
    lw s2, 0(s1)
    li s3, 0x100
    slli s3, s3, 12         # 1 << 20: +1 on an I-type immediate
    add s2, s2, s3
    sw s2, 0(s1)            # addi t1, t1, 1 -> addi t1, t1, 2
run:
    j body
    .align 12               # the loop gets a code page of its own
body:
    li t0, 50
    li t1, 0
loop:
    addi t1, t1, 1
    addi t0, t0, -1
    bne t0, zero, loop
    mv a0, t1
    li a7, 93
    ecall
"""


class TestSelfModifyingCode:
    def run_concrete(self, superblocks):
        interp = ConcreteInterpreter(rv32im(), superblocks=superblocks)
        interp.load_image(assemble(_SMC))
        hart = interp.run()
        return hart, interp

    def test_concrete_differential(self):
        on, interp_on = self.run_concrete(True)
        off, interp_off = self.run_concrete(False)
        # Pass one counts 50 by ones, pass two 100 by twos.
        assert on.exit_code == off.exit_code == 100
        assert on.instret == off.instret
        assert interp_off.sb_hits == 0
        # The hot loop really ran as a block, and the patch invalidated.
        assert interp_on.sb_hits > 0
        assert interp_on.sb_invalidations >= 1

    def test_patched_block_is_rebuilt_not_stale(self):
        """After invalidation the new code must execute (the stale
        block would keep adding 1 and exit with 100 - 50 missing)."""
        hart, interp = self.run_concrete(True)
        assert hart.exit_code == 100
        assert interp.sb_blocks_built > 1  # re-stitched after the patch

    def test_symbolic_differential(self):
        """The same SMC kernel with a symbolic tail branch: exploration
        results are superblock-invariant even while code mutates."""
        source = _SMC.replace(
            "done:\n    mv a0, t1\n    li a7, 93\n    ecall\n",
            """\
done:
    li a0, 0x30000
    li a1, 1
    li a7, 1337
    ecall
    li t5, 0x30000
    lbu t6, 0(t5)
    li t4, 100
    bltu t6, t4, low
    li a0, 1
    li a7, 93
    ecall
low:
    li a0, 0
    li a7, 93
    ecall
""",
        )
        image = assemble(source, isa=rv32im())
        on = _explore(image, True)
        off = _explore(image, False)
        assert on.num_paths == off.num_paths == 2
        assert on.path_set() == off.path_set()
        assert _attribution(on) == _attribution(off)
        assert _assignments(on) == _assignments(off)
        assert on.superblock_stats.get("sb_invalidations", 0) >= 1

    @pytest.mark.parametrize("snapshots", [True, False])
    def test_patch_on_one_arm_stays_on_that_arm(self, snapshots):
        """The second arm resumes from the snapshot captured before the
        patch (or re-executes from the entry with snapshots off), so its
        memory holds the unpatched loop while the block map holds the
        patched one: the map survives only if the code pages match."""
        image = assemble(_SMC_ONE_ARM, isa=rv32im())
        on = _explore(image, True, snapshots=snapshots)
        off = _explore(image, False, snapshots=snapshots)
        assert sorted(path.exit_code for path in on.paths) == [50, 100]
        assert on.path_set() == off.path_set()
        assert _attribution(on) == _attribution(off)
        assert _assignments(on) == _assignments(off)
        assert on.resumed_runs == int(snapshots)
        assert on.superblock_hits > 0


# ---------------------------------------------------------------------------
# Fuel boundary: OUT_OF_FUEL truncation must be bit-identical
# ---------------------------------------------------------------------------


class TestFuelBoundary:
    @pytest.mark.parametrize("budget", [7, 64, 65, 150, 151, 152, 153])
    def test_truncation_identical(self, budget):
        source = (
            "entry:\n    li t0, 1000\nloop:\n    addi t1, t1, 1\n"
            "    addi t0, t0, -1\n    bne t0, zero, loop\n"
            "    li a7, 93\n    li a0, 0\n    ecall\n"
        )
        image = assemble(source)
        harts = []
        for superblocks in (True, False):
            interp = ConcreteInterpreter(rv32im(), superblocks=superblocks)
            interp.load_image(image)
            interp.run()  # warm: promote the loop, build blocks
            interp.load_image(image)
            harts.append(interp.run(max_steps=budget))
        on, off = harts
        assert on.halt_reason == off.halt_reason == HaltReason.OUT_OF_FUEL
        assert on.instret == off.instret == budget
        assert on.pc == off.pc
        assert on.regs.read(6) == off.regs.read(6)  # t1


# ---------------------------------------------------------------------------
# step() stays per-instruction (manual harnesses, tracers, debuggers)
# ---------------------------------------------------------------------------


def test_bare_step_retires_exactly_one_instruction():
    source = (
        "entry:\n    li t0, 20\nloop:\n    addi t1, t1, 1\n"
        "    addi t0, t0, -1\n    bne t0, zero, loop\n"
        "    li a7, 93\n    li a0, 0\n    ecall\n"
    )
    image = assemble(source)
    interp = ConcreteInterpreter(rv32im(), superblocks=True)
    interp.load_image(image)
    interp.run()  # blocks now exist for the loop
    interp.load_image(image)
    for expected in range(1, 30):
        interp.step()
        assert interp.hart.instret == expected
    assert interp.sb_hits > 0  # the run() pass did use blocks


# ---------------------------------------------------------------------------
# Superblock-on vs superblock-off differentials (the PR's contract)
# ---------------------------------------------------------------------------


class TestSuperblockDifferential:
    @pytest.mark.parametrize("name,scale", _FIG6)
    def test_workload_identity_serial(self, name, scale):
        image = WORKLOADS[name].image(scale or WORKLOADS[name].default_scale)
        on = _explore(image, True)
        off = _explore(image, False)
        assert on.path_set() == off.path_set()
        assert _attribution(on) == _attribution(off)
        assert _assignments(on) == _assignments(off)
        # The layer engaged, and block-retired instructions are a
        # subset of the unchanged architectural totals.
        assert on.superblock_hits > 0
        assert 0 < on.superblock_instructions <= on.total_instructions
        assert off.superblock_stats == {}

    def test_randomized_strategies_and_seeds(self):
        rng = random.Random(6)
        for _ in range(6):
            name, scale = rng.choice(_FIG6)
            image = WORKLOADS[name].image(
                scale or WORKLOADS[name].default_scale
            )
            strategy = rng.choice(["dfs", "bfs", "random", "coverage"])
            seed = rng.randrange(1000)
            on = _explore(image, True, strategy=strategy, seed=seed)
            off = _explore(image, False, strategy=strategy, seed=seed)
            assert on.path_set() == off.path_set(), (name, strategy, seed)
            assert _attribution(on) == _attribution(off), (
                name, strategy, seed,
            )
            assert _assignments(on) == _assignments(off), (
                name, strategy, seed,
            )

    @pytest.mark.parametrize(
        "name,scale", [("bubble-sort", 4), ("uri-parser", None)]
    )
    def test_workload_identity_parallel(self, name, scale):
        """jobs=4, superblocks on/off: identical path sets and totals.

        Parallel per-tier attribution depends on task->worker placement
        (each worker owns its cache); the pinned invariant is the path
        set, the answered-query total and the instruction total.
        """
        image = WORKLOADS[name].image(scale or WORKLOADS[name].default_scale)
        serial = _explore(image, True)
        for superblocks in (True, False):
            result = _explore(image, superblocks, jobs=4)
            assert result.path_set() == serial.path_set(), superblocks
            assert result.num_paths == serial.num_paths
            answered = (
                result.num_queries
                + result.cache_hits
                + result.fast_path_answers
                + result.pruned_queries
            )
            serial_answered = (
                serial.num_queries
                + serial.cache_hits
                + serial.fast_path_answers
                + serial.pruned_queries
            )
            assert answered == serial_answered, superblocks
            assert result.total_instructions == serial.total_instructions
            if superblocks:
                assert result.superblock_stats.get("sb_hits", 0) > 0

    @pytest.mark.parametrize("snapshots", [True, False])
    def test_composes_with_snapshot_ablation(self, snapshots):
        """Superblocks and PR 5's snapshot layer toggle independently;
        every combination discovers the same paths with the same
        attribution."""
        image = WORKLOADS["uri-parser"].image()
        on = _explore(image, True, snapshots=snapshots)
        off = _explore(image, False, snapshots=snapshots)
        assert on.path_set() == off.path_set()
        assert _attribution(on) == _attribution(off)
        assert _assignments(on) == _assignments(off)

    def test_vp_engine_keeps_superblocks_off(self):
        """The SymEx-VP-style engine models a per-instruction fetch
        quantum on its TLM bus; superblocks stay off by construction."""
        image = WORKLOADS["uri-parser"].image()
        result = _explore(image, True, engine_cls=VpExecutor)
        assert result.superblock_stats == {}
