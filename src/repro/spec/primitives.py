"""Stateful language primitives of the formal ISA specification.

These are the effectful half of the specification DSL — the operations
the paper's Fig. 2 sketches (``WriteRegister``, ``runIfElse``, ...).
Instruction semantics are Python generator functions that *yield*
primitive instances and receive the interpreter's answer back from
``yield``; the interpreters in :mod:`repro.concrete` and
:mod:`repro.core` give the primitives meaning (a free-monad structure,
exactly like LibRISCV's ``Operations`` functor).

Operand values travelling through the primitives are specification
expressions (:mod:`repro.spec.expr`), keeping the semantics fully
abstract over the value representation.

The primitives are values: equal fields make equal, equally hashing
primitives, except that ``RunIf`` and ``RunIfElse`` hash by identity
(their blocks are thunks).  They are slotted dataclasses rather than
``frozen`` ones because a frozen dataclass builds each instance through
``object.__setattr__``, about four times the cost of a plain slotted
one, and the unstaged interpreters build several per instruction.
Nothing mutates a primitive after construction, so hashing one stays
safe without the frozen guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .expr import Expr

__all__ = [
    "Primitive",
    "DecodeAndReadRType",
    "DecodeAndReadR4Type",
    "DecodeAndReadIType",
    "DecodeAndReadShamt",
    "DecodeAndReadSType",
    "DecodeAndReadBType",
    "DecodeUType",
    "DecodeJType",
    "ReadRegister",
    "WriteRegister",
    "ReadPC",
    "WritePC",
    "LoadMem",
    "StoreMem",
    "RunIf",
    "RunIfElse",
    "Ecall",
    "Ebreak",
    "Fence",
]


class Primitive:
    """Base class of all stateful specification primitives."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Operand decoding (decode-and-read, like LibRISCV's decodeAndReadRType)
# ---------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class DecodeAndReadRType(Primitive):
    """Yields ``(rs1_val, rs2_val, rd_index)`` for an R-type instruction."""


@dataclass(slots=True, unsafe_hash=True)
class DecodeAndReadR4Type(Primitive):
    """Yields ``(rs1_val, rs2_val, rs3_val, rd_index)`` (R4-type)."""


@dataclass(slots=True, unsafe_hash=True)
class DecodeAndReadIType(Primitive):
    """Yields ``(imm_expr, rs1_val, rd_index)``; imm is sign-extended."""


@dataclass(slots=True, unsafe_hash=True)
class DecodeAndReadShamt(Primitive):
    """Yields ``(shamt_expr, rs1_val, rd_index)`` for immediate shifts.

    The shift amount is the *unsigned* 5-bit immediate field — the exact
    spot where angr's lifter bug #4 treated it as signed.
    """


@dataclass(slots=True, unsafe_hash=True)
class DecodeAndReadSType(Primitive):
    """Yields ``(imm_expr, rs1_val, rs2_val)`` for stores."""


@dataclass(slots=True, unsafe_hash=True)
class DecodeAndReadBType(Primitive):
    """Yields ``(imm_expr, rs1_val, rs2_val)`` for conditional branches."""


@dataclass(slots=True, unsafe_hash=True)
class DecodeUType(Primitive):
    """Yields ``(imm_expr, rd_index)``; imm already shifted left by 12."""


@dataclass(slots=True, unsafe_hash=True)
class DecodeJType(Primitive):
    """Yields ``(imm_expr, rd_index)`` for JAL."""


# ---------------------------------------------------------------------------
# Machine state access
# ---------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class ReadRegister(Primitive):
    """Yields the value of register ``index`` as an expression leaf."""

    index: int


@dataclass(slots=True, unsafe_hash=True)
class WriteRegister(Primitive):
    """Writes ``value`` to register ``index`` (x0 writes are discarded)."""

    index: int
    value: Expr


@dataclass(slots=True, unsafe_hash=True)
class ReadPC(Primitive):
    """Yields the current program counter as an expression leaf."""


@dataclass(slots=True, unsafe_hash=True)
class WritePC(Primitive):
    """Sets the next program counter (overrides the implicit pc+4)."""

    value: Expr


@dataclass(slots=True, unsafe_hash=True)
class LoadMem(Primitive):
    """Yields the raw ``width``-bit value at ``addr`` (no extension)."""

    width: int  # 8, 16 or 32
    addr: Expr


@dataclass(slots=True, unsafe_hash=True)
class StoreMem(Primitive):
    """Stores the low ``width`` bits of ``value`` at ``addr``."""

    width: int
    addr: Expr
    value: Expr


# ---------------------------------------------------------------------------
# Control flow and environment
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class RunIf(Primitive):
    """Run ``block`` iff ``cond`` holds (the paper's ``runIfElse`` without
    an else branch).  ``block`` is a thunk returning a sub-generator."""

    cond: Expr
    block: Callable

    # A callable field: hash by identity.
    def __hash__(self) -> int:  # pragma: no cover - trivial
        return id(self)


@dataclass(slots=True)
class RunIfElse(Primitive):
    """Run ``then_block`` if ``cond`` holds, otherwise ``else_block``."""

    cond: Expr
    then_block: Callable
    else_block: Callable

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return id(self)


@dataclass(slots=True, unsafe_hash=True)
class Ecall(Primitive):
    """Environment call — interpretation is delegated to the platform."""


@dataclass(slots=True, unsafe_hash=True)
class Ebreak(Primitive):
    """Breakpoint — the evaluation harness treats it as assertion failure."""


@dataclass(slots=True, unsafe_hash=True)
class Fence(Primitive):
    """Memory ordering fence — a no-op for all interpreters in this repo."""
