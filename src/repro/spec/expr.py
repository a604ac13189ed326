"""Pure operand-expression DSL of the formal ISA specification.

This is the arithmetic/logic half of the specification's *language
primitives* (the paper's ``EqInt``, ``UDiv``, ``Mul``, ``sext`` ...).
Instruction semantics build these expression trees over abstract operand
leaves; they never compute values themselves.  Each *modular interpreter*
supplies an evaluation :class:`Domain` — the concrete interpreter maps
the ops to Python integer arithmetic, BinSym's symbolic interpreter maps
them to SMT terms.

Expressions are width-annotated (registers are 32-bit, multiplication
intermediates 64-bit, memory lanes 8/16-bit), mirroring the strongly
typed embedding of LibRISCV in Haskell.

Expressions are values: equal fields of the same class make equal,
equally hashing expressions (``Imm(5, 32) != SlotRef(5, 32)``).  The
classes are slotted dataclasses rather than ``frozen`` ones because a
frozen dataclass builds each instance through ``object.__setattr__``,
about four times the cost of a plain slotted one, and the unstaged
reference interpreters build several per instruction (``Val`` leaves,
``BinOp`` nodes).  Nothing mutates an expression after construction,
so hashing one stays safe without the frozen guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, Optional, Protocol, TypeVar

__all__ = [
    "Expr",
    "Val",
    "Imm",
    "SlotRef",
    "BinOp",
    "UnOp",
    "Ext",
    "Extract",
    "Ite",
    "Domain",
    "eval_expr",
    "BINARY_OPS",
    "COMPARISON_OPS",
    # constructor helpers (the names the semantics modules use)
    "imm",
    "Add",
    "Sub",
    "Mul",
    "UDiv",
    "SDiv",
    "URem",
    "SRem",
    "And",
    "Or",
    "Xor",
    "Shl",
    "LShr",
    "AShr",
    "EqInt",
    "NeqInt",
    "ULt",
    "ULe",
    "UGe",
    "UGt",
    "SLt",
    "SLe",
    "SGe",
    "SGt",
    "Not",
    "Neg",
    "sext",
    "zext",
    "sext_to",
    "zext_to",
    "extract",
    "extract32",
    "ite",
]

V = TypeVar("V")

#: Binary operations producing a value of the operand width.
BINARY_OPS = frozenset(
    {
        "add",
        "sub",
        "mul",
        "udiv",
        "sdiv",
        "urem",
        "srem",
        "and",
        "or",
        "xor",
        "shl",
        "lshr",
        "ashr",
    }
)

#: Binary operations producing a boolean (1-bit condition).
COMPARISON_OPS = frozenset({"eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge"})


class Expr:
    """Base class of specification expressions.

    ``width`` is the bit width of the produced value; comparison
    expressions have width 1 (conditions).
    """

    __slots__ = ()
    width: int


@dataclass(slots=True, unsafe_hash=True)
class Val(Expr):
    """A leaf holding an interpreter-domain value (register/memory read)."""

    value: Any
    width: int


@dataclass(slots=True, unsafe_hash=True)
class Imm(Expr):
    """An immediate constant of the given width."""

    value: int
    width: int


@dataclass(slots=True, unsafe_hash=True)
class SlotRef(Expr):
    """An abstract operand leaf used by staged plans (:mod:`.staged`).

    During plan recording the staging handler answers decode/read
    primitives with ``SlotRef`` leaves instead of concrete ``Val``
    leaves; at replay time the compiled executor resolves slot ``slot``
    from the per-execution environment.  ``SlotRef`` never reaches
    :func:`eval_expr` — recording aborts before a slot-bearing
    expression can leak into the interpretive path.
    """

    slot: int
    width: int


@dataclass(slots=True, unsafe_hash=True)
class BinOp(Expr):
    """Binary operation; ``op`` is one of BINARY_OPS or COMPARISON_OPS."""

    op: str
    lhs: Expr
    rhs: Expr
    width: int


@dataclass(slots=True, unsafe_hash=True)
class UnOp(Expr):
    """Unary operation: ``not`` (bitwise) or ``neg`` (two's complement)."""

    op: str
    arg: Expr
    width: int


@dataclass(slots=True, unsafe_hash=True)
class Ext(Expr):
    """Zero/sign extension of ``arg`` by ``amount`` additional bits."""

    kind: str  # "zext" | "sext"
    arg: Expr
    amount: int
    width: int


@dataclass(slots=True, unsafe_hash=True)
class Extract(Expr):
    """Bit slice [high:low] of ``arg`` (inclusive bounds, LSB = 0)."""

    arg: Expr
    high: int
    low: int
    width: int


@dataclass(slots=True, unsafe_hash=True)
class Ite(Expr):
    """Value-level if-then-else on a width-1 condition."""

    cond: Expr
    then_expr: Expr
    else_expr: Expr
    width: int


class Domain(Protocol[V]):
    """Evaluation domain an interpreter plugs into :func:`eval_expr`."""

    def const(self, value: int, width: int) -> V: ...

    def from_leaf(self, value: Any, width: int) -> V: ...

    def binop(self, op: str, lhs: V, rhs: V, width: int) -> V: ...

    def cmpop(self, op: str, lhs: V, rhs: V, width: int) -> V: ...

    def unop(self, op: str, arg: V, width: int) -> V: ...

    def ext(self, kind: str, arg: V, amount: int, from_width: int) -> V: ...

    def extract(self, arg: V, high: int, low: int) -> V: ...

    def ite(self, cond: V, then_value: V, else_value: V, width: int) -> V: ...


def eval_expr(expr: Expr, domain: Domain) -> Any:
    """Evaluate a specification expression in the given domain."""
    if isinstance(expr, Val):
        return domain.from_leaf(expr.value, expr.width)
    if isinstance(expr, Imm):
        return domain.const(expr.value, expr.width)
    if isinstance(expr, BinOp):
        lhs = eval_expr(expr.lhs, domain)
        rhs = eval_expr(expr.rhs, domain)
        if expr.op in COMPARISON_OPS:
            return domain.cmpop(expr.op, lhs, rhs, expr.lhs.width)
        return domain.binop(expr.op, lhs, rhs, expr.width)
    if isinstance(expr, UnOp):
        return domain.unop(expr.op, eval_expr(expr.arg, domain), expr.width)
    if isinstance(expr, Ext):
        return domain.ext(
            expr.kind, eval_expr(expr.arg, domain), expr.amount, expr.arg.width
        )
    if isinstance(expr, Extract):
        return domain.extract(eval_expr(expr.arg, domain), expr.high, expr.low)
    if isinstance(expr, Ite):
        return domain.ite(
            eval_expr(expr.cond, domain),
            eval_expr(expr.then_expr, domain),
            eval_expr(expr.else_expr, domain),
            expr.width,
        )
    if isinstance(expr, SlotRef):
        raise TypeError(
            f"staged slot {expr!r} leaked into eval_expr; "
            "slot-bearing expressions are replayed via repro.spec.staged"
        )
    raise TypeError(f"not a specification expression: {expr!r}")


# ---------------------------------------------------------------------------
# Constructor helpers — the vocabulary used by the semantics modules.
# The capitalized names deliberately mirror the paper's DSL (Fig. 2/4).
# ---------------------------------------------------------------------------


def imm(value: int, width: int = 32) -> Imm:
    """Immediate constant (defaults to register width)."""
    return Imm(value & ((1 << width) - 1), width)


def _binop(op: str) -> Callable[[Expr, Expr], BinOp]:
    def build(lhs: Expr, rhs: Expr) -> BinOp:
        if lhs.width != rhs.width:
            raise TypeError(
                f"{op}: operand width mismatch {lhs.width} vs {rhs.width}"
            )
        return BinOp(op, lhs, rhs, lhs.width)

    build.__name__ = op
    return build


def _cmpop(op: str) -> Callable[[Expr, Expr], BinOp]:
    def build(lhs: Expr, rhs: Expr) -> BinOp:
        if lhs.width != rhs.width:
            raise TypeError(
                f"{op}: operand width mismatch {lhs.width} vs {rhs.width}"
            )
        return BinOp(op, lhs, rhs, 1)

    build.__name__ = op
    return build


Add = _binop("add")
Sub = _binop("sub")
Mul = _binop("mul")
UDiv = _binop("udiv")
SDiv = _binop("sdiv")
URem = _binop("urem")
SRem = _binop("srem")
And = _binop("and")
Or = _binop("or")
Xor = _binop("xor")
Shl = _binop("shl")
LShr = _binop("lshr")
AShr = _binop("ashr")

EqInt = _cmpop("eq")
NeqInt = _cmpop("ne")
ULt = _cmpop("ult")
ULe = _cmpop("ule")
UGt = _cmpop("ugt")
UGe = _cmpop("uge")
SLt = _cmpop("slt")
SLe = _cmpop("sle")
SGt = _cmpop("sgt")
SGe = _cmpop("sge")


def Not(arg: Expr) -> UnOp:
    return UnOp("not", arg, arg.width)


def Neg(arg: Expr) -> UnOp:
    return UnOp("neg", arg, arg.width)


def sext(arg: Expr, amount: int) -> Ext:
    """Sign-extend by ``amount`` additional bits."""
    return Ext("sext", arg, amount, arg.width + amount)


def zext(arg: Expr, amount: int) -> Ext:
    """Zero-extend by ``amount`` additional bits."""
    return Ext("zext", arg, amount, arg.width + amount)


def sext_to(arg: Expr, width: int) -> Expr:
    """Sign-extend to an absolute target width (no-op if already there)."""
    if width < arg.width:
        raise TypeError("sext_to cannot shrink")
    if width == arg.width:
        return arg
    return sext(arg, width - arg.width)


def zext_to(arg: Expr, width: int) -> Expr:
    """Zero-extend to an absolute target width (no-op if already there)."""
    if width < arg.width:
        raise TypeError("zext_to cannot shrink")
    if width == arg.width:
        return arg
    return zext(arg, width - arg.width)


def extract(arg: Expr, high: int, low: int) -> Extract:
    if not (0 <= low <= high < arg.width):
        raise TypeError(f"extract [{high}:{low}] out of range for {arg.width}")
    return Extract(arg, high, low, high - low + 1)


def extract32(low: int, arg: Expr) -> Expr:
    """The paper's ``extract32``: a 32-bit slice starting at ``low``."""
    return extract(arg, low + 31, low)


def ite(cond: Expr, then_expr: Expr, else_expr: Expr) -> Ite:
    if then_expr.width != else_expr.width:
        raise TypeError("ite branch width mismatch")
    if cond.width != 1:
        raise TypeError("ite condition must have width 1")
    return Ite(cond, then_expr, else_expr, then_expr.width)
