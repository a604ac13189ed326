"""Concrete modular interpreter: an RV32 emulator derived from the spec.

This interpreter assigns the *integer* meaning to the specification's
primitives — it is the Python analogue of LibRISCV's concrete
interpreter and doubles as the differential-testing oracle for the
symbolic engines: for any program and concrete input, BinSym (and each
baseline engine) must take exactly the execution path this emulator
takes.

Nothing in this module knows about individual instructions; all
behaviour flows from :mod:`repro.spec` through the primitive handlers.
"""

from __future__ import annotations

from typing import Optional

from ..arch.hart import HaltReason, Hart
from ..arch.memory import ByteMemory
from ..loader.image import Image
from ..smt import bvops
from ..spec.expr import Expr, Val, eval_expr
from ..spec.isa import ISA
from ..spec.dsl import PrimitiveDispatch
from ..spec.staged import StagedStepper
from ..spec.primitives import (
    Ebreak,
    Ecall,
    LoadMem,
    ReadPC,
    StoreMem,
    WritePC,
    WriteRegister,
)
from .syscalls import HostPlatform, Platform

__all__ = ["IntDomain", "ConcreteInterpreter"]

_WORD = 0xFFFFFFFF


class IntDomain:
    """Expression evaluation over plain Python integers.

    Emitted plan and block code writes each operator tree as one int
    expression, calling :attr:`int_binops` for the operators it does
    not write out (see :class:`repro.spec.staged.Emitter`).
    """

    inline = "int"

    int_binops = {
        "add": bvops.bv_add,
        "sub": bvops.bv_sub,
        "mul": bvops.bv_mul,
        "udiv": bvops.bv_udiv,
        "sdiv": bvops.bv_sdiv,
        "urem": bvops.bv_urem,
        "srem": bvops.bv_srem,
        "and": bvops.bv_and,
        "or": bvops.bv_or,
        "xor": bvops.bv_xor,
        "shl": bvops.bv_shl,
        "lshr": bvops.bv_lshr,
        "ashr": bvops.bv_ashr,
    }

    _CMPOPS = {
        "eq": lambda a, b, w: a == b,
        "ne": lambda a, b, w: a != b,
        "ult": bvops.bv_ult,
        "ule": bvops.bv_ule,
        "ugt": lambda a, b, w: a > b,
        "uge": lambda a, b, w: a >= b,
        "slt": bvops.bv_slt,
        "sle": bvops.bv_sle,
        "sgt": lambda a, b, w: bvops.bv_slt(b, a, w),
        "sge": lambda a, b, w: bvops.bv_sle(b, a, w),
    }

    def const(self, value: int, width: int) -> int:
        return value & ((1 << width) - 1)

    def from_leaf(self, value, width: int) -> int:
        return value & ((1 << width) - 1)

    def binop(self, op: str, lhs: int, rhs: int, width: int) -> int:
        return self.int_binops[op](lhs, rhs, width)

    def cmpop(self, op: str, lhs: int, rhs: int, width: int) -> int:
        return 1 if self._CMPOPS[op](lhs, rhs, width) else 0

    def unop(self, op: str, arg: int, width: int) -> int:
        if op == "not":
            return bvops.bv_not(arg, width)
        if op == "neg":
            return bvops.bv_neg(arg, width)
        raise ValueError(f"unknown unary op {op}")

    def ext(self, kind: str, arg: int, amount: int, from_width: int) -> int:
        if kind == "zext":
            return arg
        return bvops.bv_sext(arg, from_width, amount)

    def extract(self, arg: int, high: int, low: int) -> int:
        return bvops.bv_extract(arg, high, low)

    def ite(self, cond: int, then_value: int, else_value: int, width: int) -> int:
        return then_value if cond else else_value


class ConcreteInterpreter(StagedStepper, PrimitiveDispatch):
    """RV32 emulator; also the `Handler` for the spec's primitives.

    ``staging=True`` (the default) executes instructions through the
    compiled per-word plans of :mod:`repro.spec.staged` where the
    semantics are staged, falling back to driving the semantics
    generator otherwise; ``staging=False`` always interprets.  Both
    modes decode each word once into the interpreter's word memo; the
    step loop itself lives in :class:`~repro.spec.staged.StagedStepper`.
    """

    #: Identifies IntDomain behaviour for the ISA's compiled-plan cache
    #: (the domain is stateless, so one key covers every instance).
    _domain_key = ("int",)

    def __init__(
        self,
        isa: ISA,
        platform: Optional[Platform] = None,
        staging: bool = True,
        superblocks: bool = True,
    ):
        self.isa = isa
        self.domain = IntDomain()
        self.memory = ByteMemory()
        self.hart: Hart[int] = Hart(zero_value=0)
        self.platform = platform if platform is not None else HostPlatform()
        self.staging = staging
        self._init_superblocks(superblocks)
        self._current_word = 0
        self._next_pc = 0
        # word -> (CompiledPlan | None, semantics generator function)
        self._exec_cache: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Program setup
    # ------------------------------------------------------------------

    def load_image(self, image: Image) -> None:
        image.load_into(self.memory)
        self.hart.reset(image.entry)
        self._sb_begin_run(self.hart.pc)

    def reset(self, image: Image) -> None:
        """Start over on ``image``: a new memory holding only the image,
        a new hart at its entry (zero registers, instret 0) and a new
        :class:`HostPlatform` (empty stdout).

        The word memo and the superblock map carry over; a run start
        revalidates the map against the new memory, so the run is the
        one a new interpreter would make, without its cold start.
        """
        self.memory = ByteMemory()
        self.hart = Hart(zero_value=0)
        self.platform = HostPlatform()
        self.load_image(image)

    def run(self, max_steps: int = 10_000_000) -> Hart:
        """Run until the hart halts or the step budget is exhausted.

        Bounded by retired instructions, not loop iterations: superblock
        dispatch (``_sb_step``) retires several instructions per
        iteration and uses ``_fuel_limit`` to deoptimize instead of
        overshooting, keeping OUT_OF_FUEL truncation identical with
        superblocks on or off.  Bare ``step()`` calls outside ``run``
        always retire exactly one instruction.
        """
        hart = self.hart
        limit = hart.instret + max_steps
        self._fuel_limit = limit
        step = self._sb_step
        while hart.instret < limit:
            if hart.halted:
                return hart
            step()
        if hart.halted:
            return hart
        hart.halt(HaltReason.OUT_OF_FUEL)
        return hart

    # ------------------------------------------------------------------
    # Platform hooks (see syscalls.HostPlatform)
    # ------------------------------------------------------------------

    def read_register_int(self, index: int) -> int:
        return self.hart.regs.read(index)

    def write_register_int(self, index: int, value: int) -> None:
        self.hart.regs.write(index, value & _WORD)

    def halt_exit(self, code: int) -> None:
        self.hart.halt(HaltReason.EXIT, exit_code=code)

    def make_symbolic(self, base: int, length: int) -> None:
        """Concrete execution: symbolic input marking is a no-op."""

    # ------------------------------------------------------------------
    # PlanHost interface: staged replay over integer machine state
    # ------------------------------------------------------------------

    def plan_reg(self, index: int) -> int:
        return self.hart.regs.read(index)

    def plan_load(self, width: int, address: int) -> int:
        return self.memory.read(address, width)

    def plan_write_reg(self, index: int, value: int) -> None:
        self.hart.regs.write(index, value)

    def plan_write_pc(self, value: int) -> None:
        self._next_pc = value

    def plan_store(self, width: int, address: int, value: int) -> None:
        self.memory.write(address, value, width)

    def plan_branch(self, value: int) -> bool:
        return bool(value)

    def plan_ecall(self) -> None:
        self.platform.ecall(self)

    def plan_ebreak(self) -> None:
        self.hart.halt(HaltReason.EBREAK)

    def plan_fence(self) -> None:
        pass

    # ------------------------------------------------------------------
    # Handler interface: the integer meaning of each primitive
    # ------------------------------------------------------------------

    def _reg_leaf(self, index: int) -> Val:
        return Val(self.hart.regs.read(index), 32)

    def _eval(self, expr: Expr) -> int:
        return eval_expr(expr, self.domain)

    def branch(self, cond: Expr) -> bool:
        return bool(self._eval(cond))

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
        return Val(self.hart.pc, 32)

    def _on_write_pc(self, primitive: WritePC) -> None:
        self._next_pc = self._eval(primitive.value)

    def _on_load(self, primitive: LoadMem) -> Val:
        address = self._eval(primitive.addr)
        return Val(self.memory.read(address, primitive.width), primitive.width)

    def _on_store(self, primitive: StoreMem) -> None:
        address = self._eval(primitive.addr)
        self.memory.write(address, self._eval(primitive.value), primitive.width)

    def _on_ecall(self, primitive: Ecall) -> None:
        self.platform.ecall(self)

    def _on_ebreak(self, primitive: Ebreak) -> None:
        self.hart.halt(HaltReason.EBREAK)
