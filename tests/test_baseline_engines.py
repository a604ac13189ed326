"""Cross-engine agreement tests: all engines explore identical path sets.

The baseline engines (VEX/angr-like with the *fixed* lifter, DBA/
BINSEC-like, VP/SymEx-VP-like) must agree with BinSym on every program:
same number of paths, same exit codes, same assertion failures.  This is
the repo-level invariant behind Table I's "all engines find the same
paths" rows.
"""

import pytest

from repro.asm import assemble
from repro.baselines import DbaEngine, VexEngine, VpExecutor
from repro.baselines.vp import VpInterpreter
from repro.baselines.vp.bus import SimulationKernel, TlmBus, MemoryTarget, Transaction
from repro.core import BinSymExecutor, Explorer, SymbolicInterpreter
from repro.spec import rv32im

ENGINE_FACTORIES = {
    "binsym": lambda isa, img, **kw: BinSymExecutor(isa, img, **kw),
    "binsec": lambda isa, img, **kw: DbaEngine(isa, img, **kw),
    "angr": lambda isa, img, **kw: VexEngine(isa, img, **kw),
    "symex-vp": lambda isa, img, **kw: VpExecutor(isa, img, **kw),
}

PROGRAMS = {
    "two-byte-compare": """\
_start:
    li a0, 0x20000
    li a1, 2
    li a7, 1337
    ecall
    li t0, 0x20000
    lbu t1, 0(t0)
    lbu t2, 1(t0)
    li a0, 0
    bltu t1, t2, less
    addi a0, a0, 1
less:
    bne t1, t2, done
    addi a0, a0, 2
done:
    li a7, 93
    ecall
""",
    "signed-ranges": """\
_start:
    li a0, 0x20000
    li a1, 1
    li a7, 1337
    ecall
    li t0, 0x20000
    lb t1, 0(t0)            # sign-extended char
    li a0, 0
    bltz t1, negative
    li t2, 65
    blt t1, t2, below
    addi a0, a0, 4
below:
    addi a0, a0, 2
negative:
    addi a0, a0, 1
    li a7, 93
    ecall
""",
    "arith-mix": """\
_start:
    li a0, 0x20000
    li a1, 2
    li a7, 1337
    ecall
    li t0, 0x20000
    lbu t1, 0(t0)
    lbu t2, 1(t0)
    sll t3, t1, t2          # symbolic shift amount
    sra t4, t3, t2
    xor t5, t3, t4
    beqz t5, same
    li a0, 1
    li a7, 93
    ecall
same:
    li a0, 0
    li a7, 93
    ecall
""",
    "mul-branch": """\
_start:
    li a0, 0x20000
    li a1, 1
    li a7, 1337
    ecall
    li t0, 0x20000
    lbu t1, 0(t0)
    li t2, 3
    mul t3, t1, t2
    li t4, 21
    beq t3, t4, hit
    li a0, 0
    li a7, 93
    ecall
hit:
    li a0, 1
    li a7, 93
    ecall
""",
    "memory-copy-chain": """\
_start:
    li a0, 0x20000
    li a1, 1
    li a7, 1337
    ecall
    li t0, 0x20000
    lbu t1, 0(t0)
    sh t1, 16(t0)           # widen and copy
    lhu t2, 16(t0)
    li t3, 0x42
    beq t2, t3, hit
    ebreak
hit:
    li a0, 0
    li a7, 93
    ecall
""",
}


def signature(result):
    return (
        result.num_paths,
        sorted(result.exit_codes - {None}),
        len(result.assertion_failures),
    )


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_engines_agree(program):
    isa = rv32im()
    image = assemble(PROGRAMS[program])
    signatures = {}
    for key, factory in ENGINE_FACTORIES.items():
        result = Explorer(factory(isa, image)).explore()
        signatures[key] = signature(result)
    reference = signatures["binsym"]
    assert all(sig == reference for sig in signatures.values()), signatures


@pytest.mark.parametrize("engine", sorted(ENGINE_FACTORIES))
def test_concrete_program_single_path(engine):
    """A fully concrete program yields exactly one path, no queries."""
    source = """\
_start:
    li t0, 10
    li t1, 20
    add a0, t0, t1
    li a7, 93
    ecall
"""
    isa = rv32im()
    image = assemble(source)
    result = Explorer(ENGINE_FACTORIES[engine](isa, image)).explore()
    assert result.num_paths == 1
    assert result.paths[0].exit_code == 30
    assert result.sat_checks + result.unsat_checks == 0


class TestVexEngineDetails:
    def test_lift_cache_toggle(self):
        isa = rv32im()
        image = assemble(PROGRAMS["two-byte-compare"])
        cached = Explorer(VexEngine(isa, image, lift_cache=True)).explore()
        uncached = Explorer(VexEngine(isa, image, lift_cache=False)).explore()
        assert cached.num_paths == uncached.num_paths

    def test_lifter_rejects_unknown_instruction(self):
        from repro.baselines.vexir.lifter import VexLifter
        from repro.spec.decoder import IllegalInstruction

        lifter = VexLifter(rv32im())
        with pytest.raises(IllegalInstruction):
            lifter.lift(0xFFFFFFFF, 0)


class TestDbaEngineDetails:
    def test_block_cache_toggle(self):
        isa = rv32im()
        image = assemble(PROGRAMS["two-byte-compare"])
        cached = Explorer(DbaEngine(isa, image, block_cache=True)).explore()
        uncached = Explorer(DbaEngine(isa, image, block_cache=False)).explore()
        assert cached.num_paths == uncached.num_paths


class TestVirtualPrototype:
    def test_bus_counts_transactions(self):
        isa = rv32im()
        image = assemble(PROGRAMS["memory-copy-chain"])
        executor = VpExecutor(isa, image)
        Explorer(executor).explore()
        assert executor.interpreter.bus.transactions > 0
        assert executor.interpreter.kernel.now > 0
        assert executor.interpreter.kernel.delta_cycles > 0

    def test_kernel_event_ordering(self):
        kernel = SimulationKernel()
        fired = []
        kernel.schedule(5, lambda: fired.append("late"))
        kernel.schedule(1, lambda: fired.append("early"))
        kernel.wait(10)
        assert fired == ["early", "late"]
        assert kernel.now == 10

    def test_bus_decode_error(self):
        kernel = SimulationKernel()
        bus = TlmBus(kernel)
        bus.attach(
            MemoryTarget(
                base=0x1000, size=0x100,
                read_fn=lambda a, w: 0, write_fn=lambda a, v, w: None,
            )
        )
        with pytest.raises(RuntimeError):
            bus.transport(Transaction(0x5000, 32, is_write=False))

    def test_vp_executor_builds_one_interpreter_from_every_argument(
        self, monkeypatch
    ):
        """The executor builds only the VP interpreter, handing it every
        constructor argument, with superblocks pinned off."""
        built = []
        init = SymbolicInterpreter.__init__

        def counted(interp, *args, **kwargs):
            built.append(type(interp))
            init(interp, *args, **kwargs)

        monkeypatch.setattr(SymbolicInterpreter, "__init__", counted)
        image = assemble(PROGRAMS["signed-ranges"])
        executor = VpExecutor(rv32im(), image, force_terms=True, superblocks=True)
        assert built == [VpInterpreter]
        assert executor.interpreter.domain.force_terms
        assert not executor.superblocks_enabled

    def test_vp_matches_binsym_timing_free_results(self):
        isa = rv32im()
        image = assemble(PROGRAMS["signed-ranges"])
        vp = Explorer(VpExecutor(isa, image)).explore()
        plain = Explorer(BinSymExecutor(isa, image)).explore()
        assert vp.num_paths == plain.num_paths
        assert vp.exit_codes == plain.exit_codes
