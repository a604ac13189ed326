"""Concolic values: a concrete integer paired with an optional SMT term.

BinSym implements an *offline* (concolic) executor: every value has a
concrete integer under the current input assignment, and values that
data-depend on symbolic input additionally carry an SMT shadow term.
Purely concrete values skip term construction entirely — the *concrete
fast path* that keeps shadow expressions proportional to the symbolic
dataflow instead of the full instruction stream (ablation:
``benchmarks/bench_ablations.py::test_ablation_concrete_fastpath``).
In staged execution the fast path lives in the emitted plan and block
code: each operator tree is one integer expression behind a ``term is
None`` test, and the operators below run only for values that carry a
term (see :class:`repro.spec.staged.Emitter`).
"""

from __future__ import annotations

from typing import Optional

from ..smt import bvops
from ..smt import terms as T

__all__ = ["SymValue", "SymDomain"]


class SymValue:
    """A width-annotated concolic value.

    Attributes:
        concrete: unsigned integer value under the current assignment.
        term: SMT term, or None when the value is input-independent.
        width: bit width.
    """

    __slots__ = ("concrete", "term", "width")

    def __init__(self, concrete: int, width: int, term: Optional[T.Term] = None):
        self.concrete = concrete & ((1 << width) - 1)
        self.width = width
        self.term = term

    def term_or_const(self) -> T.Term:
        """The shadow term, lifting pure constants on demand."""
        if self.term is None:
            return T.bv(self.concrete, self.width)
        return self.term

    def condition_term(self) -> T.Term:
        """Interpret a width-1 value as a boolean SMT condition."""
        if self.width != 1:
            raise ValueError("condition_term on a non-condition value")
        term = self.term
        if term is None:
            return T.bool_const(bool(self.concrete))
        if term.op == "bool2bv":
            return term.args[0]
        return T.eq(term, T.bv(1, 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "" if self.term is None else " sym"
        return f"SymValue({self.concrete:#x}/{self.width}{tag})"


_INT_BINOPS = {
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

_TERM_BINOPS = {
    "add": T.add,
    "sub": T.sub,
    "mul": T.mul,
    "udiv": T.udiv,
    "sdiv": T.sdiv,
    "urem": T.urem,
    "srem": T.srem,
    "and": T.and_,
    "or": T.or_,
    "xor": T.xor,
    "shl": T.shl,
    "lshr": T.lshr,
    "ashr": T.ashr,
}

_INT_CMPOPS = {
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

_TERM_CMPOPS = {
    "eq": T.eq,
    "ne": T.ne,
    "ult": T.ult,
    "ule": T.ule,
    "ugt": T.ugt,
    "uge": T.uge,
    "slt": T.slt,
    "sle": T.sle,
    "sgt": T.sgt,
    "sge": T.sge,
}

_INT_UNOPS = {"not": bvops.bv_not, "neg": bvops.bv_neg}
_TERM_UNOPS = {"not": T.not_, "neg": T.neg}

# Single-lookup dispatch: op name -> (concrete fn, term builder).  One
# dict probe per evaluated operation instead of two, and no per-call
# if/elif chains (PR 3 hot-loop micro-opt; numbers in the PR notes).
_BINOP_PAIRS = {op: (_INT_BINOPS[op], _TERM_BINOPS[op]) for op in _INT_BINOPS}
_CMPOP_PAIRS = {op: (_INT_CMPOPS[op], _TERM_CMPOPS[op]) for op in _INT_CMPOPS}
_UNOP_PAIRS = {op: (_INT_UNOPS[op], _TERM_UNOPS[op]) for op in _INT_UNOPS}


class SymDomain:
    """Expression evaluation over :class:`SymValue`.

    Concrete computation mirrors :mod:`repro.smt.bvops`; shadow terms are
    built with the simplifying constructors of :mod:`repro.smt.terms`.
    ``track_terms=False`` turns the domain into a plain concrete domain
    (used by the fast-path ablation to measure the cost of always
    building terms: pass ``force_terms=True`` instead to disable the
    fast path).

    The domain is stateless apart from the ``force_terms`` flag, which
    is what lets staged plans compiled against one instance be shared by
    every behaviourally identical instance (see
    :meth:`repro.spec.isa.ISA.compiled_plan`).
    """

    #: Inlined emitted code (:class:`repro.spec.staged.Emitter`): the
    #: integer operators it calls, and the constructor of the one
    #: term-free value it builds per operator tree.
    int_binops = _INT_BINOPS
    term_free = SymValue

    def __init__(self, force_terms: bool = False):
        self.force_terms = force_terms
        # Constants fold at plan-compile time only when they carry no
        # interned term (terms must not outlive reset_interner()).
        self.supports_const_folding = not force_terms
        # A forcing domain builds every term, so its emitted code makes
        # every operator a domain call.
        self.inline = None if force_terms else "sym"

    # -- leaves ---------------------------------------------------------

    def const(self, value: int, width: int) -> SymValue:
        if self.force_terms:
            return SymValue(value, width, T.bv(value, width))
        return SymValue(value, width)

    def from_leaf(self, value, width: int) -> SymValue:
        if isinstance(value, SymValue):
            return value
        return self.const(int(value), width)

    # -- operations ------------------------------------------------------

    def _needs_term(self, *operands: SymValue) -> bool:
        return self.force_terms or any(op.term is not None for op in operands)

    def binop(self, op: str, lhs: SymValue, rhs: SymValue, width: int) -> SymValue:
        int_fn, term_fn = _BINOP_PAIRS[op]
        concrete = int_fn(lhs.concrete, rhs.concrete, width)
        if lhs.term is None and rhs.term is None and not self.force_terms:
            return SymValue(concrete, width)
        term = term_fn(lhs.term_or_const(), rhs.term_or_const())
        return SymValue(concrete, width, term)

    def cmpop(self, op: str, lhs: SymValue, rhs: SymValue, width: int) -> SymValue:
        int_fn, term_fn = _CMPOP_PAIRS[op]
        concrete = 1 if int_fn(lhs.concrete, rhs.concrete, width) else 0
        if lhs.term is None and rhs.term is None and not self.force_terms:
            return SymValue(concrete, 1)
        cond = term_fn(lhs.term_or_const(), rhs.term_or_const())
        return SymValue(concrete, 1, T.bool_to_bv(cond))

    def unop(self, op: str, arg: SymValue, width: int) -> SymValue:
        try:
            int_fn, term_fn = _UNOP_PAIRS[op]
        except KeyError:
            raise ValueError(f"unknown unary op {op}") from None
        concrete = int_fn(arg.concrete, width)
        if arg.term is None and not self.force_terms:
            return SymValue(concrete, width)
        return SymValue(concrete, width, term_fn(arg.term_or_const()))

    def ext(self, kind: str, arg: SymValue, amount: int, from_width: int) -> SymValue:
        if kind == "zext":
            concrete = arg.concrete
            builder = T.zext
        else:
            concrete = bvops.bv_sext(arg.concrete, from_width, amount)
            builder = T.sext
        width = from_width + amount
        if arg.term is None and not self.force_terms:
            return SymValue(concrete, width)
        return SymValue(concrete, width, builder(arg.term_or_const(), amount))

    # -- staged-compilation hooks (see repro.spec.staged) ----------------

    def specialize_binop(self, op: str, width: int):
        """A pre-dispatched binop closure for compiled plans."""
        int_fn, term_fn = _BINOP_PAIRS[op]
        force = self.force_terms

        def run(lhs: SymValue, rhs: SymValue) -> SymValue:
            concrete = int_fn(lhs.concrete, rhs.concrete, width)
            if lhs.term is None and rhs.term is None and not force:
                return SymValue(concrete, width)
            term = term_fn(lhs.term_or_const(), rhs.term_or_const())
            return SymValue(concrete, width, term)

        return run

    def specialize_cmpop(self, op: str, width: int):
        int_fn, term_fn = _CMPOP_PAIRS[op]
        force = self.force_terms

        def run(lhs: SymValue, rhs: SymValue) -> SymValue:
            concrete = 1 if int_fn(lhs.concrete, rhs.concrete, width) else 0
            if lhs.term is None and rhs.term is None and not force:
                return SymValue(concrete, 1)
            cond = term_fn(lhs.term_or_const(), rhs.term_or_const())
            return SymValue(concrete, 1, T.bool_to_bv(cond))

        return run

    def specialize_unop(self, op: str, width: int):
        int_fn, term_fn = _UNOP_PAIRS[op]
        force = self.force_terms

        def run(arg: SymValue) -> SymValue:
            concrete = int_fn(arg.concrete, width)
            if arg.term is None and not force:
                return SymValue(concrete, width)
            return SymValue(concrete, width, term_fn(arg.term_or_const()))

        return run

    def extract(self, arg: SymValue, high: int, low: int) -> SymValue:
        concrete = bvops.bv_extract(arg.concrete, high, low)
        width = high - low + 1
        if not self._needs_term(arg):
            return SymValue(concrete, width)
        return SymValue(concrete, width, T.extract(arg.term_or_const(), high, low))

    def ite(
        self, cond: SymValue, then_value: SymValue, else_value: SymValue, width: int
    ) -> SymValue:
        concrete = then_value.concrete if cond.concrete else else_value.concrete
        if not self._needs_term(cond, then_value, else_value):
            return SymValue(concrete, width)
        term = T.ite(
            cond.condition_term(),
            then_value.term_or_const(),
            else_value.term_or_const(),
        )
        return SymValue(concrete, width, term)

    # -- helpers used by the interpreters --------------------------------

    def concat_bytes(self, parts: list[SymValue]) -> SymValue:
        """Little-endian byte concatenation into one value."""
        concrete = 0
        for i, part in enumerate(parts):
            concrete |= part.concrete << (8 * i)
        width = 8 * len(parts)
        if not self._needs_term(*parts):
            return SymValue(concrete, width)
        term = parts[0].term_or_const()
        for part in parts[1:]:
            term = T.concat(part.term_or_const(), term)
        return SymValue(concrete, width, term)
