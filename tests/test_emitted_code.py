"""Emitted plan and superblock code: whole-run identity and names.

Staged plans and superblocks run as Python functions emitted from the
recorded plans (:mod:`repro.spec.staged`, :mod:`repro.spec.superblock`).
Exploration-level differentials compare path sets and counters; these
tests compare each whole run.  Every program runs from its entry under
the assignments of the first paths an exploration finds, twice over on
one executor (so entry, loop and hot-branch blocks are warm the second
time), with staging and superblocks on, with superblocks off, and with
both off.  Every trace record, every capture point, the final machine
state and the output must agree; a block that recorded a branch at the
wrong pc, or retired the wrong count before a cond, differs here even
where the path set does not.  The concrete interpreter is held to the
same identity.  The naming tests pin that a traceback through emitted
code names the plan or block and that the kept source holds the line.
"""

import traceback

import pytest

from repro.asm import assemble
from repro.concrete import ConcreteInterpreter
from repro.core import BinSymExecutor, Explorer
from repro.core.symvalue import SymDomain
from repro.eval.workloads import WORKLOADS
from repro.spec import rv32im
from test_parallel_explorer import PINNED_LOOKUP
from test_superblocks import _SMC, _SMC_ONE_ARM

#: (staging, superblocks): both on, superblocks off, both off.
SETTINGS = ((True, True), (True, False), (False, False))

#: Assignments taken from the first paths an exploration finds.
PATHS = 6

#: Table lookups through symbolic indices inside a loop that also
#: branches on the input: from the second iteration on the loop runs as
#: a block, so branch records and address pins are made from inside it.
PINNED_LOOP = """\
_start:
    li a0, 0x30000
    li a1, 4
    li a7, 1337
    ecall
    li t0, 0x30000
    li t6, 4
    li s0, 0
    la t2, table
loop:
    lbu t1, 0(t0)
    andi t5, t1, 4
    beq t5, zero, skip
    addi s0, s0, 1
skip:
    andi t1, t1, 3
    add t3, t2, t1
    lbu t4, 0(t3)
    add s0, s0, t4
    addi t0, t0, 1
    addi t6, t6, -1
    bne t6, zero, loop
    mv a0, s0
    li a7, 93
    ecall
.data
table:
    .byte 10, 20, 30, 40
"""

PROGRAMS = {
    "bubble-sort-3": WORKLOADS["bubble-sort"].source(3),
    "insertion-sort-3": WORKLOADS["insertion-sort"].source(3),
    "base64-encode-2": WORKLOADS["base64-encode"].source(2),
    "uri-parser-3": WORKLOADS["uri-parser"].source(3),
    "clif-parser-3": WORKLOADS["clif-parser"].source(3),
    "pinned-lookup": PINNED_LOOKUP,
    "pinned-loop": PINNED_LOOP,
    "smc": _SMC,
    "smc-one-arm": _SMC_ONE_ARM,
}


@pytest.fixture(scope="module", params=sorted(PROGRAMS))
def program(request):
    """``(image, assignments)`` of one program."""
    image = assemble(PROGRAMS[request.param], isa=rv32im())
    result = Explorer(
        BinSymExecutor(rv32im(), image), max_paths=PATHS
    ).explore()
    return image, [path.assignment for path in result.paths]


def _symbolic_runs(image, assignments, staging, superblocks):
    """Every run's observable outcome on one executor, and its
    superblock hit count."""
    executor = BinSymExecutor(rv32im(), image)
    executor.set_staging(staging)
    executor.set_superblocks(superblocks)
    interp = executor.interpreter
    runs = []
    for assignment in assignments * 2:
        captures = []
        executor.start(assignment)
        interp.capture_with(
            lambda index, base: captures.append(
                (index, base, interp.hart.pc, interp.hart.instret)
            )
        )
        run = executor.finish(assignment)
        hart = interp.hart
        runs.append({
            "records": [
                (r.condition, r.pc, r.taken, r.flippable, r.digest)
                for r in run.trace.records
            ],
            "captures": captures,
            "halt": (run.halt_reason, run.exit_code, run.instret, run.final_pc),
            "registers": [
                (value.concrete, value.width, value.term)
                for value in hart.regs.snapshot()
            ],
            "stdout": run.stdout,
            "stdout_shadow": list(interp.stdout_shadow),
            "shadow": interp.shadow.snapshot_state(),
        })
        # Driver feedback as exploration gives it: the branches this
        # run recorded are hot, so their successors become entries.
        executor.note_hot_pcs({r.pc for r in run.trace.records if r.flippable})
    return runs, interp.sb_hits


def _concrete_runs(image, assignments, staging, superblocks):
    """The concrete interpreter's outcome per assignment; one ISA per
    setting, so blocks promoted by earlier runs serve later ones."""
    isa = rv32im()
    runs, hits = [], 0
    for assignment in assignments * 2:
        interp = ConcreteInterpreter(isa, staging=staging, superblocks=superblocks)
        interp.load_image(image)
        for variable, value in assignment.values.items():
            interp.memory.write_byte(int(variable.payload[3:], 16), value)
        hart = interp.run()
        runs.append({
            "halt": (hart.halt_reason, hart.exit_code, hart.instret, hart.pc),
            "registers": hart.regs.snapshot(),
            "pages": {
                number: bytes(page)
                for number, page in interp.memory.snapshot_pages().items()
            },
            "stdout": bytes(interp.platform.stdout),
        })
        hits += interp.sb_hits
    return runs, hits


class TestRunIdentity:
    def test_symbolic_runs_identical_across_settings(self, program):
        image, assignments = program
        outcomes = [
            _symbolic_runs(image, assignments, staging, superblocks)
            for staging, superblocks in SETTINGS
        ]
        (on, hits), (staged, _), (interpreted, _) = outcomes
        assert hits > 0  # the first setting really ran blocks
        assert len(on) == 2 * len(assignments)
        for index, run in enumerate(on):
            assert run == staged[index], f"superblocks changed run {index}"
            assert run == interpreted[index], f"staging changed run {index}"

    def test_concrete_runs_identical_across_settings(self, program):
        image, assignments = program
        outcomes = [
            _concrete_runs(image, assignments, staging, superblocks)
            for staging, superblocks in SETTINGS
        ]
        (on, hits), (staged, _), (interpreted, _) = outcomes
        assert hits > 0
        assert on == staged == interpreted


# ---------------------------------------------------------------------------
# Names and kept source of emitted code
# ---------------------------------------------------------------------------

_LOOP = (
    "entry:\n    li t0, 0x20000\n    li t2, 3\nloop:\n    lw t1, 0(t0)\n"
    "    addi t2, t2, -1\n    bne t2, zero, loop\n    li a7, 93\n    ecall\n"
)


class TestEmittedNames:
    def test_plan_filename_names_domain_key_and_word(self):
        isa = rv32im()
        word = 0x02A00293  # addi t0, zero, 42
        concrete = ConcreteInterpreter(isa)
        plan = isa.compiled_plan(word, "addi", concrete.domain, concrete._domain_key)
        assert plan.run.__code__.co_filename == "<plan int word=0x02a00293>"
        assert "regs[5] = 42" in plan.source
        symbolic = isa.compiled_plan(word, "addi", SymDomain(), ("sym", False))
        assert symbolic.run.__code__.co_filename == (
            "<plan sym-False word=0x02a00293>"
        )

    def test_emitted_source_holds_only_picked_names_and_ints(self):
        """Constants and functions reach the code through its namespace,
        so no object's repr is ever spliced into the source."""
        isa = rv32im()
        word = 0x0220C1B3  # div gp, ra, sp: nested conds, constants
        plan = isa.compiled_plan(word, "div", SymDomain(), ("sym", False))
        namespace = plan.run.__globals__
        assert "SymValue" not in plan.source and "<" not in plan.source
        for name in ("eq32", "and1", "sdiv32"):
            assert f"{name}(" in plan.source and callable(namespace[name])

    def test_host_error_in_block_names_block_and_kept_source(self):
        class Fault(Exception):
            pass

        isa = rv32im()
        interp = ConcreteInterpreter(isa)
        interp.load_image(assemble(_LOOP))
        interp.run()  # the back edge promotes the loop into a block
        interp.load_image(assemble(_LOOP))

        def faulty_load(width, address):
            raise Fault(address)

        interp.plan_load = faulty_load
        with pytest.raises(Fault) as caught:
            interp.run()
        blocks = {
            block.execute.__code__: block
            for block in isa.superblocks._blocks.values()
        }
        tb, hits = caught.value.__traceback__, []
        while tb is not None:
            if tb.tb_frame.f_code in blocks:
                hits.append((blocks[tb.tb_frame.f_code], tb.tb_lineno))
            tb = tb.tb_next
        assert hits, "the fault was not raised inside a block"
        block, lineno = hits[-1]
        name = f"<superblock int entry={block.entry_pc:#010x} len={block.length}>"
        frame = traceback.extract_tb(caught.value.__traceback__)[-2]
        assert (frame.filename, frame.lineno) == (name, lineno)
        assert "host.plan_load(32, " in block.source.splitlines()[lineno - 1]
