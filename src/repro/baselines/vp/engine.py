"""SymEx-VP-style engine: BinSym semantics inside a virtual prototype.

SymEx-VP is also *execution-based* (no IR lifting — it interprets
instructions directly, like BinSym), but the SUT runs inside a SystemC
virtual prototype: every memory access becomes a TLM bus transaction and
simulated time advances through the kernel's event queue.  We reproduce
that by subclassing BinSym's symbolic interpreter and routing its loads
and stores through :class:`repro.baselines.vp.bus.TlmBus`, plus a
one-cycle kernel wait per retired instruction (the per-instruction
quantum of the ISS inside the VP).

Path counts therefore match BinSym exactly — Table I — while wall-clock
time carries the virtual-prototype overhead — Fig. 6.
"""

from __future__ import annotations

from ...core.executor import BinSymExecutor
from ...core.interpreter import SymbolicInterpreter
from ...core.symvalue import SymValue
from .bus import MemoryTarget, SimulationKernel, TlmBus, Transaction

__all__ = ["VpInterpreter", "VpExecutor"]


class VpInterpreter(SymbolicInterpreter):
    """Symbolic interpreter whose memory sits behind a TLM bus."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kernel = SimulationKernel()
        self.bus = TlmBus(self.kernel)
        # One flat RAM target covering the 32-bit space; a VP would
        # carve this into RAM/ROM/peripheral regions.
        self.bus.attach(
            MemoryTarget(
                base=0,
                size=1 << 32,
                read_fn=lambda addr, width: SymbolicInterpreter._load(self, addr, width),
                write_fn=lambda addr, value, width: SymbolicInterpreter._store(
                    self, addr, value, width
                ),
                latency=1,
            )
        )

    def _load(self, address: int, width: int) -> SymValue:
        tx = self.bus.transport(Transaction(address, width, is_write=False))
        return tx.value

    def _store(self, address: int, value: SymValue, width: int) -> None:
        self.bus.transport(Transaction(address, width, is_write=True, value=value))

    def step(self) -> None:
        # Instruction *fetch* also goes over the bus in a virtual
        # prototype — the ISS has no backdoor into the memory model.
        if not self.hart.halted:
            self.bus.transport(Transaction(self.hart.pc, 32, is_write=False))
        super().step()
        # Per-instruction time quantum of the ISS inside the VP.
        self.kernel.wait(1)


class VpExecutor(BinSymExecutor):
    """Executor adapter running the VP interpreter."""

    name = "symex-vp-like"
    interpreter_class = VpInterpreter

    def __init__(self, isa, image, **kwargs):
        # Superblocks stay off: the VP issues one fetch transaction and
        # one time quantum per retired instruction, so step() must not
        # batch instructions.
        super().__init__(isa, image, **{**kwargs, "superblocks": False})

    def set_superblocks(self, superblocks: bool) -> None:
        """Ignore enables: the per-instruction fetch/quantum contract
        above is structural, not an ablation default a caller may
        override."""
        self.interpreter.set_superblocks(False)
