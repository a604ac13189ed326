"""Free-monad machinery: driving semantics generators over a handler.

Instruction semantics are Python *generator functions*: they ``yield``
stateful primitives (:mod:`repro.spec.primitives`) and receive the
interpreter's answer as the value of the ``yield`` expression::

    def divu():
        rs1, rs2, rd = yield DecodeAndReadRType()
        yield RunIfElse(
            EqInt(rs2, imm(0)),
            lambda: write_register(rd, imm(0xFFFFFFFF)),
            lambda: write_register(rd, UDiv(rs1, rs2)),
        )

A *modular interpreter* is anything implementing :class:`Handler`; this
module contains the single generic driver loop shared by the concrete
interpreter, BinSym's symbolic interpreter, and the tracing interpreter.
This mirrors the paper's architecture: one executable specification, N
interpreters for its primitives.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Protocol

from . import fields
from .expr import Expr, Val
from .primitives import (
    DecodeAndReadBType,
    DecodeAndReadIType,
    DecodeAndReadR4Type,
    DecodeAndReadRType,
    DecodeAndReadSType,
    DecodeAndReadShamt,
    DecodeJType,
    DecodeUType,
    Fence,
    Primitive,
    ReadRegister,
    RunIf,
    RunIfElse,
)

__all__ = [
    "Handler",
    "PrimitiveDispatch",
    "execute_semantics",
    "write_register",
    "write_pc",
    "block",
]

SemanticsGenerator = Generator[Primitive, Any, None]


class Handler(Protocol):
    """The interface a modular interpreter provides to the driver loop."""

    def handle(self, primitive: Primitive) -> Any:
        """Interpret a non-control-flow primitive; the return value is
        sent back into the semantics generator."""

    def branch(self, cond: Expr) -> bool:
        """Decide a ``RunIf``/``RunIfElse`` condition.  Symbolic
        interpreters record a branch point here before answering with
        the concrete (concolic) verdict."""


class _PrimitiveTable(dict):
    """Primitive class -> the function interpreting it.  A class missing
    from the table (a subclass of a spec primitive) resolves through its
    MRO on first sight and is then in the table too."""

    def __missing__(self, kind: type) -> Callable:
        for base in kind.__mro__[1:]:
            if base in self:
                method = self[kind] = self[base]
                return method
        raise NotImplementedError(f"unhandled primitive {kind.__qualname__}")


class PrimitiveDispatch:
    """Mixin: a :class:`Handler` whose ``handle`` is one table lookup.

    ``handle`` calls the method its class maps the primitive's exact
    class to, so a primitive costs one dict lookup wherever it sits in
    the spec's vocabulary.  A class lists its entries in
    ``PRIMITIVE_METHODS`` (primitive class -> method name); each class
    gets its own table, merged along its MRO and resolved on that class
    when the class is created, so an override of a named method is what
    its ``handle`` calls.

    Operand decoding, ``ReadRegister`` and ``Fence`` mean the same in
    every interpreter and are answered here: a register operand is the
    subclass's ``_reg_leaf(index)``, an immediate a ``Val`` leaf of a
    field of ``_current_word``, the word being executed.
    """

    PRIMITIVE_METHODS: dict = {
        DecodeAndReadRType: "_on_decode_r",
        DecodeAndReadR4Type: "_on_decode_r4",
        DecodeAndReadIType: "_on_decode_i",
        DecodeAndReadShamt: "_on_decode_shamt",
        DecodeAndReadSType: "_on_decode_s",
        DecodeAndReadBType: "_on_decode_b",
        DecodeUType: "_on_decode_u",
        DecodeJType: "_on_decode_j",
        ReadRegister: "_on_read_register",
        Fence: "_on_fence",
    }

    _primitive_table: _PrimitiveTable

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names: dict = {}
        for base in reversed(cls.__mro__):
            names.update(vars(base).get("PRIMITIVE_METHODS", {}))
        cls._primitive_table = _PrimitiveTable(
            (kind, getattr(cls, name)) for kind, name in names.items()
        )

    def handle(self, primitive: Primitive) -> Any:
        return self._primitive_table[primitive.__class__](self, primitive)

    def _on_decode_r(self, primitive):
        word = self._current_word
        return (
            self._reg_leaf(fields.rs1(word)),
            self._reg_leaf(fields.rs2(word)),
            fields.rd(word),
        )

    def _on_decode_r4(self, primitive):
        word = self._current_word
        return (
            self._reg_leaf(fields.rs1(word)),
            self._reg_leaf(fields.rs2(word)),
            self._reg_leaf(fields.rs3(word)),
            fields.rd(word),
        )

    def _on_decode_i(self, primitive):
        word = self._current_word
        return (
            Val(fields.imm_i(word), 32),
            self._reg_leaf(fields.rs1(word)),
            fields.rd(word),
        )

    def _on_decode_shamt(self, primitive):
        word = self._current_word
        return (
            Val(fields.shamt(word), 32),
            self._reg_leaf(fields.rs1(word)),
            fields.rd(word),
        )

    def _on_decode_s(self, primitive):
        word = self._current_word
        return (
            Val(fields.imm_s(word), 32),
            self._reg_leaf(fields.rs1(word)),
            self._reg_leaf(fields.rs2(word)),
        )

    def _on_decode_b(self, primitive):
        word = self._current_word
        return (
            Val(fields.imm_b(word), 32),
            self._reg_leaf(fields.rs1(word)),
            self._reg_leaf(fields.rs2(word)),
        )

    def _on_decode_u(self, primitive):
        word = self._current_word
        return Val(fields.imm_u(word), 32), fields.rd(word)

    def _on_decode_j(self, primitive):
        word = self._current_word
        return Val(fields.imm_j(word), 32), fields.rd(word)

    def _on_read_register(self, primitive):
        return self._reg_leaf(primitive.index)

    def _on_fence(self, primitive):
        return None


def execute_semantics(generator: SemanticsGenerator, handler: Handler) -> None:
    """Drive one instruction's semantics generator to completion."""
    # The control-flow primitives are final (never subclassed), so exact
    # type tests replace the isinstance chain in this trampoline — it is
    # the hot loop for every semantics staging cannot specialize.
    answer: Any = None
    send = generator.send
    handle = handler.handle
    branch = handler.branch
    while True:
        try:
            primitive = send(answer)
        except StopIteration:
            return
        cls = primitive.__class__
        if cls is RunIfElse:
            taken = branch(primitive.cond)
            chosen = primitive.then_block if taken else primitive.else_block
            if chosen is not None:
                execute_semantics(chosen(), handler)
            answer = None
        elif cls is RunIf:
            taken = branch(primitive.cond)
            if taken and primitive.block is not None:
                execute_semantics(primitive.block(), handler)
            answer = None
        else:
            answer = handle(primitive)


# ---------------------------------------------------------------------------
# Small sub-generator helpers used as RunIf/RunIfElse blocks
# ---------------------------------------------------------------------------


def write_register(index: int, value: Expr) -> Callable[[], SemanticsGenerator]:
    """Thunk for a block performing a single register write."""
    from .primitives import WriteRegister

    def blk() -> SemanticsGenerator:
        yield WriteRegister(index, value)

    return blk


def write_pc(value: Expr) -> Callable[[], SemanticsGenerator]:
    """Thunk for a block performing a single PC write."""
    from .primitives import WritePC

    def blk() -> SemanticsGenerator:
        yield WritePC(value)

    return blk


def block(*primitives: Primitive) -> Callable[[], SemanticsGenerator]:
    """Thunk for a block yielding a fixed primitive sequence."""

    def blk() -> SemanticsGenerator:
        for primitive in primitives:
            yield primitive

    return blk
