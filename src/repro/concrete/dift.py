"""Dynamic information flow tracking (DIFT) — a third modular interpreter.

The paper (Sect. III-A) credits the executable-specification approach
with enabling multiple interpreters for one specification and cites
prior work's "interpreter performing dynamic information flow tracking"
[Tempel et al., TFP'23] alongside the concrete one.  This module is that
third interpreter: values carry a *taint bit* instead of (or rather:
alongside) SMT terms, and the primitive handlers propagate taint through
the same specification semantics the emulator and BinSym execute.

Taint sources: the ``make_symbolic`` ecall (the same hook BinSym uses
for symbolic input).  Reports: every control-flow decision (RunIf/
RunIfElse, WritePC) influenced by tainted data is recorded — the DIFT
analogue of BinSym's branch trace.

The value of the exercise is architectural: :class:`TaintDomain` +
handler below are ~150 lines, and not one line of the instruction
semantics is repeated or touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..arch.hart import HaltReason, Hart
from ..arch.memory import ByteMemory, ShadowMemory
from ..loader.image import Image
from ..smt import bvops
from ..spec.decoder import IllegalInstruction
from ..spec.dsl import PrimitiveDispatch, execute_semantics
from ..spec.expr import Expr, Val, eval_expr
from ..spec.isa import ISA
from ..spec.primitives import (
    Ebreak,
    Ecall,
    LoadMem,
    ReadPC,
    StoreMem,
    WritePC,
    WriteRegister,
)
from .interpreter import IntDomain
from .syscalls import SYS_EXIT, SYS_MAKE_SYMBOLIC, SYS_WRITE

__all__ = ["TaintedValue", "TaintDomain", "DiftInterpreter", "TaintedBranch"]

_WORD = 0xFFFFFFFF


@dataclass(frozen=True)
class TaintedValue:
    """A concrete value with a taint bit."""

    value: int
    tainted: bool = False


@dataclass(frozen=True)
class TaintedBranch:
    """Record of a control-flow decision influenced by tainted data."""

    pc: int
    taken: bool


class TaintDomain:
    """Expression evaluation over :class:`TaintedValue`.

    Concrete arithmetic delegates to :class:`IntDomain`; taint is the
    OR of the operands' taint (the classic DIFT propagation rule).
    """

    def __init__(self) -> None:
        self._ints = IntDomain()

    def const(self, value: int, width: int) -> TaintedValue:
        return TaintedValue(value & ((1 << width) - 1), False)

    def from_leaf(self, value, width: int) -> TaintedValue:
        if isinstance(value, TaintedValue):
            return value
        return self.const(int(value), width)

    def binop(self, op, lhs, rhs, width) -> TaintedValue:
        return TaintedValue(
            self._ints.binop(op, lhs.value, rhs.value, width),
            lhs.tainted or rhs.tainted,
        )

    def cmpop(self, op, lhs, rhs, width) -> TaintedValue:
        return TaintedValue(
            self._ints.cmpop(op, lhs.value, rhs.value, width),
            lhs.tainted or rhs.tainted,
        )

    def unop(self, op, arg, width) -> TaintedValue:
        return TaintedValue(self._ints.unop(op, arg.value, width), arg.tainted)

    def ext(self, kind, arg, amount, from_width) -> TaintedValue:
        return TaintedValue(
            self._ints.ext(kind, arg.value, amount, from_width), arg.tainted
        )

    def extract(self, arg, high, low) -> TaintedValue:
        return TaintedValue(self._ints.extract(arg.value, high, low), arg.tainted)

    def ite(self, cond, then_value, else_value, width) -> TaintedValue:
        chosen = then_value if cond.value else else_value
        return TaintedValue(chosen.value, chosen.tainted or cond.tainted)


class DiftInterpreter(PrimitiveDispatch):
    """Taint-tracking modular interpreter over the formal specification."""

    def __init__(self, isa: ISA):
        self.isa = isa
        self.domain = TaintDomain()
        self.memory = ByteMemory()
        self.taint: ShadowMemory[bool] = ShadowMemory()
        self.hart: Hart[TaintedValue] = Hart(zero_value=TaintedValue(0))
        self.tainted_branches: list[TaintedBranch] = []
        self.tainted_pc_writes: list[int] = []
        self._current_word = 0
        self._next_pc = 0

    # ------------------------------------------------------------------

    def load_image(self, image: Image) -> None:
        image.load_into(self.memory)
        self.hart.reset(image.entry)

    def taint_region(self, base: int, length: int) -> None:
        for offset in range(length):
            self.taint.set((base + offset) & _WORD, True)

    def step(self) -> None:
        hart = self.hart
        if hart.halted:
            return
        word = self.memory.read_word(hart.pc)
        try:
            decoded = self.isa.decoder.decode(word, hart.pc)
        except IllegalInstruction:
            hart.halt(HaltReason.ILLEGAL)
            raise
        self._current_word = word
        self._next_pc = (hart.pc + 4) & _WORD
        execute_semantics(self.isa.semantics_for(decoded.name)(), self)
        hart.instret += 1
        if not hart.halted:
            hart.pc = self._next_pc

    def run(self, max_steps: int = 1_000_000) -> Hart:
        for _ in range(max_steps):
            if self.hart.halted:
                return self.hart
            self.step()
        self.hart.halt(HaltReason.OUT_OF_FUEL)
        return self.hart

    # ------------------------------------------------------------------
    # Handler interface
    # ------------------------------------------------------------------

    def _reg_leaf(self, index: int) -> Val:
        return Val(self.hart.regs.read(index), 32)

    def _eval(self, expr: Expr) -> TaintedValue:
        return eval_expr(expr, self.domain)

    def branch(self, cond: Expr) -> bool:
        value = self._eval(cond)
        if value.tainted:
            self.tainted_branches.append(
                TaintedBranch(self.hart.pc, bool(value.value))
            )
        return bool(value.value)

    # Operand decoding, ReadRegister and Fence: see PrimitiveDispatch.
    PRIMITIVE_METHODS = {
        WriteRegister: "_on_write_register",
        ReadPC: "_on_read_pc",
        WritePC: "_on_write_pc",
        LoadMem: "_on_load",
        StoreMem: "_on_store",
        Ecall: "_on_ecall",
        Ebreak: "_on_ebreak",
    }

    def _on_write_register(self, primitive: WriteRegister) -> None:
        self.hart.regs.write(primitive.index, self._eval(primitive.value))

    def _on_read_pc(self, primitive: ReadPC) -> Val:
        return Val(TaintedValue(self.hart.pc), 32)

    def _on_write_pc(self, primitive: WritePC) -> None:
        target = self._eval(primitive.value)
        if target.tainted:
            self.tainted_pc_writes.append(self.hart.pc)
        self._next_pc = target.value

    def _on_load(self, primitive: LoadMem) -> Val:
        address = self._eval(primitive.addr)
        value = self.memory.read(address.value, primitive.width)
        tainted = address.tainted or any(
            self.taint.get((address.value + i) & _WORD)
            for i in range(primitive.width // 8)
        )
        return Val(TaintedValue(value, tainted), primitive.width)

    def _on_store(self, primitive: StoreMem) -> None:
        address = self._eval(primitive.addr)
        value = self._eval(primitive.value)
        self.memory.write(address.value, value.value, primitive.width)
        for i in range(primitive.width // 8):
            self.taint.set((address.value + i) & _WORD, value.tainted or None)

    def _on_ecall(self, primitive: Ecall) -> None:
        self._ecall()

    def _on_ebreak(self, primitive: Ebreak) -> None:
        self.hart.halt(HaltReason.EBREAK)

    def _ecall(self) -> None:
        number = self.hart.regs.read(17).value
        if number == SYS_EXIT:
            self.hart.halt(HaltReason.EXIT, self.hart.regs.read(10).value)
        elif number == SYS_WRITE:
            length = self.hart.regs.read(12).value
            self.hart.regs.write(10, TaintedValue(length))
        elif number == SYS_MAKE_SYMBOLIC:
            # The symbolic-input hook is DIFT's taint source.
            self.taint_region(
                self.hart.regs.read(10).value, self.hart.regs.read(11).value
            )
        else:
            raise ValueError(f"unknown syscall number {number}")
