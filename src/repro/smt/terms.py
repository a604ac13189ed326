"""Hash-consed term language for the QF_BV fragment of SMT-LIB.

This module replaces the role Z3 plays in the original BinSym: it provides
an immutable, structurally shared term representation for bitvector and
boolean expressions together with *smart constructors* that perform
constant folding and light algebraic simplification at construction time.

Terms are interned: structurally identical terms are the same Python
object, so equality and hashing are identity-based and O(1).  This is the
property that keeps the concolic interpreter's shadow expressions compact
when program paths revisit the same computations.

The module exposes a functional construction API (``add``, ``xor``,
``ite``, ...).  Higher layers (e.g. :mod:`repro.core.symvalue`) wrap it in
more ergonomic operator overloading.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import bvops

__all__ = [
    "Term",
    "SortError",
    "reset_interner",
    "interner_size",
    "set_simplification",
    "simplification_enabled",
    # constants / variables
    "bv",
    "bv_var",
    "true",
    "false",
    "bool_var",
    "bool_const",
    # bitvector operations
    "add",
    "sub",
    "mul",
    "udiv",
    "urem",
    "sdiv",
    "srem",
    "and_",
    "or_",
    "xor",
    "not_",
    "neg",
    "shl",
    "lshr",
    "ashr",
    "concat",
    "extract",
    "zext",
    "sext",
    "ite",
    # predicates
    "eq",
    "ne",
    "ult",
    "ule",
    "ugt",
    "uge",
    "slt",
    "sle",
    "sgt",
    "sge",
    # boolean connectives
    "bnot",
    "band",
    "bor",
    "bxor",
    "implies",
    "conjoin",
    "disjoin",
    # canonical serialization
    "serialize_terms",
    "deserialize_terms",
]

# Sort marker used in Term.width for boolean-sorted terms.
BOOL = 0


class SortError(TypeError):
    """Raised when term constructors are applied at incompatible sorts."""


class Term:
    """A node of an interned BV/Bool expression DAG.

    Attributes:
        op: operation name (e.g. ``"add"``, ``"const"``, ``"ult"``).
        width: bit width of the term; ``0`` denotes the boolean sort.
        payload: operation-specific data (int for ``const``, str name for
            ``var``, ``(high, low)`` for ``extract``, extension amount for
            ``zext``/``sext``); ``None`` otherwise.
        args: child terms.
    """

    __slots__ = ("op", "width", "payload", "args", "_free_vars")

    def __init__(self, op: str, width: int, payload, args: tuple):
        self.op = op
        self.width = width
        self.payload = payload
        self.args = args
        self._free_vars: Optional[frozenset] = None

    # Identity-based equality/hash: interning guarantees structural
    # equality implies identity.

    @property
    def is_bool(self) -> bool:
        """Whether this term has boolean sort."""
        return self.width == BOOL

    @property
    def is_const(self) -> bool:
        """Whether this term is a (bitvector or boolean) literal."""
        return self.op == "const"

    @property
    def is_var(self) -> bool:
        """Whether this term is an uninterpreted variable."""
        return self.op == "var"

    def const_value(self) -> int:
        """Return the integer payload of a constant term."""
        if self.op != "const":
            raise ValueError(f"not a constant term: {self!r}")
        return self.payload

    def name(self) -> str:
        """Return the name of a variable term."""
        if self.op != "var":
            raise ValueError(f"not a variable term: {self!r}")
        return self.payload

    def free_vars(self) -> "frozenset[Term]":
        """Free variables of this DAG, computed once and cached per node.

        The query cache calls this on every conjunct of every SAT answer
        it restricts to the query's variables, so the result is memoized
        on the interned term itself and shared through the DAG: each
        node's set is the union of its children's cached sets.
        """
        cached = self._free_vars
        if cached is not None:
            return cached
        stack: list[tuple[Term, bool]] = [(self, False)]
        while stack:
            node, ready = stack.pop()
            if node._free_vars is not None:
                continue
            if not ready:
                stack.append((node, True))
                stack.extend(
                    (arg, False) for arg in node.args if arg._free_vars is None
                )
                continue
            if node.op == "var":
                node._free_vars = frozenset((node,))
            elif not node.args:
                node._free_vars = frozenset()
            else:
                node._free_vars = frozenset().union(
                    *(arg._free_vars for arg in node.args)
                )
        return self._free_vars

    def variables(self) -> "set[Term]":
        """Return the set of variable terms occurring in this DAG."""
        return set(self.free_vars())

    def size(self) -> int:
        """Number of distinct DAG nodes reachable from this term."""
        seen: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node.args)
        return len(seen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.op == "const":
            if self.is_bool:
                return "true" if self.payload else "false"
            return f"#x{self.payload:0{max(1, (self.width + 3) // 4)}x}[{self.width}]"
        if self.op == "var":
            return f"{self.payload}[{self.width or 'bool'}]"
        inner = " ".join(repr(a) for a in self.args)
        extra = f" {self.payload}" if self.payload is not None else ""
        return f"({self.op}{extra} {inner})"


_INTERN: dict = {}

#: When False, the smart constructors skip *algebraic* rewrites (the
#: identity/absorption rules) while keeping constant folding and sort
#: checks.  Exists for the simplification ablation benchmark
#: (``benchmarks/bench_ablation_simplify.py``); leave True otherwise.
_SIMPLIFY = True


def set_simplification(enabled: bool) -> bool:
    """Toggle algebraic simplification; returns the previous setting."""
    global _SIMPLIFY
    previous = _SIMPLIFY
    _SIMPLIFY = enabled
    return previous


def simplification_enabled() -> bool:
    return _SIMPLIFY


def _mk(op: str, width: int, payload, args: tuple) -> Term:
    key = (op, width, payload, args)
    term = _INTERN.get(key)
    if term is None:
        term = Term(op, width, payload, args)
        _INTERN[key] = term
    return term


def reset_interner() -> None:
    """Drop all interned terms (used by tests and benchmarks)."""
    _INTERN.clear()
    global _TRUE, _FALSE
    _TRUE = _mk("const", BOOL, 1, ())
    _FALSE = _mk("const", BOOL, 0, ())


def interner_size() -> int:
    """Number of live interned terms."""
    return len(_INTERN)


# ---------------------------------------------------------------------------
# Constants and variables
# ---------------------------------------------------------------------------


def bv(value: int, width: int) -> Term:
    """Construct a ``width``-bit constant (value is truncated)."""
    if width <= 0:
        raise SortError(f"bitvector width must be positive, got {width}")
    return _mk("const", width, bvops.truncate(value, width), ())


def bv_var(name: str, width: int) -> Term:
    """Construct a ``width``-bit variable."""
    if width <= 0:
        raise SortError(f"bitvector width must be positive, got {width}")
    return _mk("var", width, name, ())


_TRUE = _mk("const", BOOL, 1, ())
_FALSE = _mk("const", BOOL, 0, ())


def true() -> Term:
    return _TRUE


def false() -> Term:
    return _FALSE


def bool_const(value: bool) -> Term:
    return _TRUE if value else _FALSE


def bool_var(name: str) -> Term:
    return _mk("var", BOOL, name, ())


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------


def _require_bv(term: Term, who: str) -> None:
    if term.is_bool:
        raise SortError(f"{who} expects bitvector operands")


def _require_same_width(a: Term, b: Term, who: str) -> None:
    _require_bv(a, who)
    _require_bv(b, who)
    if a.width != b.width:
        raise SortError(f"{who}: width mismatch {a.width} vs {b.width}")


def _require_bool(term: Term, who: str) -> None:
    if not term.is_bool:
        raise SortError(f"{who} expects boolean operands")


def _commute_const_right(a: Term, b: Term) -> tuple[Term, Term]:
    """Canonicalize commutative operands: constants on the right."""
    if a.is_const and not b.is_const:
        return b, a
    return a, b


def _all_ones(width: int) -> int:
    return (1 << width) - 1


# ---------------------------------------------------------------------------
# Bitvector arithmetic
# ---------------------------------------------------------------------------


def add(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "add")
    a, b = _commute_const_right(a, b)
    if a.is_const and b.is_const:
        return bv(bvops.bv_add(a.payload, b.payload, a.width), a.width)
    if _SIMPLIFY:
        if b.is_const and b.payload == 0:
            return a
        # Re-associate (x + c1) + c2 -> x + (c1 + c2) to keep address
        # arithmetic chains flat (common in memory index computations).
        if b.is_const and a.op == "add" and a.args[1].is_const:
            folded = bvops.bv_add(a.args[1].payload, b.payload, a.width)
            return add(a.args[0], bv(folded, a.width))
    return _mk("add", a.width, None, (a, b))


def sub(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "sub")
    if a.is_const and b.is_const:
        return bv(bvops.bv_sub(a.payload, b.payload, a.width), a.width)
    if b.is_const and b.payload == 0:
        return a
    if a is b:
        return bv(0, a.width)
    return _mk("sub", a.width, None, (a, b))


def mul(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "mul")
    a, b = _commute_const_right(a, b)
    if a.is_const and b.is_const:
        return bv(bvops.bv_mul(a.payload, b.payload, a.width), a.width)
    if b.is_const:
        if b.payload == 0:
            return bv(0, a.width)
        if b.payload == 1:
            return a
    return _mk("mul", a.width, None, (a, b))


def udiv(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "udiv")
    if a.is_const and b.is_const:
        return bv(bvops.bv_udiv(a.payload, b.payload, a.width), a.width)
    if b.is_const and b.payload == 1:
        return a
    return _mk("udiv", a.width, None, (a, b))


def urem(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "urem")
    if a.is_const and b.is_const:
        return bv(bvops.bv_urem(a.payload, b.payload, a.width), a.width)
    if b.is_const and b.payload == 1:
        return bv(0, a.width)
    return _mk("urem", a.width, None, (a, b))


def sdiv(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "sdiv")
    if a.is_const and b.is_const:
        return bv(bvops.bv_sdiv(a.payload, b.payload, a.width), a.width)
    if b.is_const and b.payload == 1:
        return a
    return _mk("sdiv", a.width, None, (a, b))


def srem(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "srem")
    if a.is_const and b.is_const:
        return bv(bvops.bv_srem(a.payload, b.payload, a.width), a.width)
    return _mk("srem", a.width, None, (a, b))


# ---------------------------------------------------------------------------
# Bitvector logic
# ---------------------------------------------------------------------------


def and_(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "and")
    a, b = _commute_const_right(a, b)
    if a.is_const and b.is_const:
        return bv(a.payload & b.payload, a.width)
    if _SIMPLIFY:
        if b.is_const:
            if b.payload == 0:
                return bv(0, a.width)
            if b.payload == _all_ones(a.width):
                return a
        if a is b:
            return a
    return _mk("and", a.width, None, (a, b))


def or_(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "or")
    a, b = _commute_const_right(a, b)
    if a.is_const and b.is_const:
        return bv(a.payload | b.payload, a.width)
    if _SIMPLIFY:
        if b.is_const:
            if b.payload == 0:
                return a
            if b.payload == _all_ones(a.width):
                return bv(_all_ones(a.width), a.width)
        if a is b:
            return a
    return _mk("or", a.width, None, (a, b))


def xor(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "xor")
    a, b = _commute_const_right(a, b)
    if a.is_const and b.is_const:
        return bv(a.payload ^ b.payload, a.width)
    if _SIMPLIFY:
        if b.is_const:
            if b.payload == 0:
                return a
            if b.payload == _all_ones(a.width):
                return not_(a)
        if a is b:
            return bv(0, a.width)
    return _mk("xor", a.width, None, (a, b))


def not_(a: Term) -> Term:
    _require_bv(a, "not")
    if a.is_const:
        return bv(bvops.bv_not(a.payload, a.width), a.width)
    if a.op == "not":
        return a.args[0]
    return _mk("not", a.width, None, (a,))


def neg(a: Term) -> Term:
    _require_bv(a, "neg")
    if a.is_const:
        return bv(bvops.bv_neg(a.payload, a.width), a.width)
    if a.op == "neg":
        return a.args[0]
    return _mk("neg", a.width, None, (a,))


def shl(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "shl")
    if b.is_const:
        if a.is_const:
            return bv(bvops.bv_shl(a.payload, b.payload, a.width), a.width)
        if b.payload == 0:
            return a
        if b.payload >= a.width:
            return bv(0, a.width)
    return _mk("shl", a.width, None, (a, b))


def lshr(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "lshr")
    if b.is_const:
        if a.is_const:
            return bv(bvops.bv_lshr(a.payload, b.payload, a.width), a.width)
        if b.payload == 0:
            return a
        if b.payload >= a.width:
            return bv(0, a.width)
    return _mk("lshr", a.width, None, (a, b))


def ashr(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "ashr")
    if b.is_const:
        if a.is_const:
            return bv(bvops.bv_ashr(a.payload, b.payload, a.width), a.width)
        if b.payload == 0:
            return a
    return _mk("ashr", a.width, None, (a, b))


# ---------------------------------------------------------------------------
# Width manipulation
# ---------------------------------------------------------------------------


def concat(hi: Term, lo: Term) -> Term:
    _require_bv(hi, "concat")
    _require_bv(lo, "concat")
    if hi.is_const and lo.is_const:
        return bv(bvops.bv_concat(hi.payload, lo.payload, lo.width), hi.width + lo.width)
    return _mk("concat", hi.width + lo.width, None, (hi, lo))


def extract(a: Term, high: int, low: int) -> Term:
    _require_bv(a, "extract")
    if not (0 <= low <= high < a.width):
        raise SortError(f"extract [{high}:{low}] out of range for width {a.width}")
    if low == 0 and high == a.width - 1:
        return a
    if a.is_const:
        return bv(bvops.bv_extract(a.payload, high, low), high - low + 1)
    if _SIMPLIFY:
        if a.op == "extract":
            # extract of extract composes: offsets add up.
            inner_low = a.payload[1]
            return extract(a.args[0], inner_low + high, inner_low + low)
        if a.op == "concat":
            hi_part, lo_part = a.args
            if high < lo_part.width:
                return extract(lo_part, high, low)
            if low >= lo_part.width:
                return extract(hi_part, high - lo_part.width, low - lo_part.width)
        if a.op in ("zext", "sext"):
            base = a.args[0]
            if high < base.width:
                return extract(base, high, low)
            if a.op == "zext" and low >= base.width:
                return bv(0, high - low + 1)
    return _mk("extract", high - low + 1, (high, low), (a,))


def zext(a: Term, extra: int) -> Term:
    _require_bv(a, "zext")
    if extra < 0:
        raise SortError("zext amount must be non-negative")
    if extra == 0:
        return a
    if a.is_const:
        return bv(a.payload, a.width + extra)
    if a.op == "zext":
        return zext(a.args[0], extra + a.payload)
    return _mk("zext", a.width + extra, extra, (a,))


def sext(a: Term, extra: int) -> Term:
    _require_bv(a, "sext")
    if extra < 0:
        raise SortError("sext amount must be non-negative")
    if extra == 0:
        return a
    if a.is_const:
        return bv(bvops.bv_sext(a.payload, a.width, extra), a.width + extra)
    if a.op == "sext":
        return sext(a.args[0], extra + a.payload)
    return _mk("sext", a.width + extra, extra, (a,))


def ite(cond: Term, then_term: Term, else_term: Term) -> Term:
    """If-then-else over bitvector or boolean branches."""
    _require_bool(cond, "ite")
    if then_term.width != else_term.width:
        raise SortError(
            f"ite branches disagree: {then_term.width} vs {else_term.width}"
        )
    if cond.is_const:
        return then_term if cond.payload else else_term
    if then_term is else_term:
        return then_term
    if then_term.is_bool:
        # Boolean ite: encode through connectives so downstream only sees
        # and/or/not at boolean sort.
        return bor(band(cond, then_term), band(bnot(cond), else_term))
    if then_term.is_const and else_term.is_const and then_term.width == 1:
        if then_term.payload == 1 and else_term.payload == 0:
            return bool_to_bv(cond)
        if then_term.payload == 0 and else_term.payload == 1:
            return bool_to_bv(bnot(cond))
    return _mk("ite", then_term.width, None, (cond, then_term, else_term))


def bool_to_bv(cond: Term) -> Term:
    """Convert a boolean to a 1-bit bitvector (1 for true)."""
    _require_bool(cond, "bool_to_bv")
    if cond.is_const:
        return bv(cond.payload, 1)
    return _mk("bool2bv", 1, None, (cond,))


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def eq(a: Term, b: Term) -> Term:
    if a.is_bool != b.is_bool:
        raise SortError("eq: sort mismatch")
    if a.is_bool:
        return bnot(bxor(a, b))
    _require_same_width(a, b, "eq")
    a, b = _commute_const_right(a, b)
    if a.is_const and b.is_const:
        return bool_const(a.payload == b.payload)
    if _SIMPLIFY and a is b:
        return true()
    return _mk("eq", BOOL, None, (a, b))


def ne(a: Term, b: Term) -> Term:
    return bnot(eq(a, b))


def ult(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "ult")
    if a.is_const and b.is_const:
        return bool_const(a.payload < b.payload)
    if _SIMPLIFY:
        if a is b:
            return false()
        if b.is_const and b.payload == 0:
            return false()
        if a.is_const and a.payload == 0:
            return ne(b, bv(0, b.width))
    return _mk("ult", BOOL, None, (a, b))


def ule(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "ule")
    if a is b:
        return true()
    if a.is_const and b.is_const:
        return bool_const(a.payload <= b.payload)
    if a.is_const and a.payload == 0:
        return true()
    if b.is_const and b.payload == _all_ones(b.width):
        return true()
    return _mk("ule", BOOL, None, (a, b))


def ugt(a: Term, b: Term) -> Term:
    return ult(b, a)


def uge(a: Term, b: Term) -> Term:
    return ule(b, a)


def slt(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "slt")
    if a is b:
        return false()
    if a.is_const and b.is_const:
        return bool_const(
            bvops.to_signed(a.payload, a.width) < bvops.to_signed(b.payload, b.width)
        )
    return _mk("slt", BOOL, None, (a, b))


def sle(a: Term, b: Term) -> Term:
    _require_same_width(a, b, "sle")
    if a is b:
        return true()
    if a.is_const and b.is_const:
        return bool_const(
            bvops.to_signed(a.payload, a.width) <= bvops.to_signed(b.payload, b.width)
        )
    return _mk("sle", BOOL, None, (a, b))


def sgt(a: Term, b: Term) -> Term:
    return slt(b, a)


def sge(a: Term, b: Term) -> Term:
    return sle(b, a)


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------


def bnot(a: Term) -> Term:
    _require_bool(a, "bnot")
    if a.is_const:
        return bool_const(not a.payload)
    if a.op == "bnot":
        return a.args[0]
    return _mk("bnot", BOOL, None, (a,))


def band(a: Term, b: Term) -> Term:
    _require_bool(a, "band")
    _require_bool(b, "band")
    a, b = _commute_const_right(a, b)
    if b.is_const:
        return a if b.payload else false()
    if a.is_const:
        return b if a.payload else false()
    if a is b:
        return a
    if bnot(a) is b:
        return false()
    return _mk("band", BOOL, None, (a, b))


def bor(a: Term, b: Term) -> Term:
    _require_bool(a, "bor")
    _require_bool(b, "bor")
    a, b = _commute_const_right(a, b)
    if b.is_const:
        return true() if b.payload else a
    if a.is_const:
        return true() if a.payload else b
    if a is b:
        return a
    if bnot(a) is b:
        return true()
    return _mk("bor", BOOL, None, (a, b))


def bxor(a: Term, b: Term) -> Term:
    _require_bool(a, "bxor")
    _require_bool(b, "bxor")
    a, b = _commute_const_right(a, b)
    if a.is_const and b.is_const:
        return bool_const(bool(a.payload) != bool(b.payload))
    if b.is_const:
        return bnot(a) if b.payload else a
    if a is b:
        return false()
    return _mk("bxor", BOOL, None, (a, b))


def implies(a: Term, b: Term) -> Term:
    return bor(bnot(a), b)


def conjoin(terms: Iterable[Term]) -> Term:
    """N-ary conjunction."""
    result = true()
    for term in terms:
        result = band(result, term)
    return result


def disjoin(terms: Iterable[Term]) -> Term:
    """N-ary disjunction."""
    result = false()
    for term in terms:
        result = bor(result, term)
    return result


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------
#
# Interned terms cannot be pickled across process or run boundaries
# (identity hashing would no longer match the receiving interner), so
# artifacts that must outlive a process — the persistent store's UNSAT
# cores — travel as a flat, JSON-able node table instead and are
# re-interned on arrival.  The encoding is the raw structural identity
# (op, width, payload, children): re-interning goes through ``_mk``
# directly, not the smart constructors, so a round trip reproduces the
# exact DAG bit for bit (stored terms were already built through the
# smart constructors; simplification is a fixed point on them).


def serialize_terms(roots: Iterable[Term]) -> dict:
    """Encode a collection of term DAGs as a shared JSON-able table.

    Returns ``{"nodes": [[op, width, payload, [child indices]], ...],
    "roots": [indices]}`` with nodes in child-before-parent order and
    tuple payloads (``extract``) encoded as lists.  Shared subterms are
    emitted once.
    """
    index: dict[Term, int] = {}
    nodes: list = []
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if node in index:
                continue
            if not ready:
                stack.append((node, True))
                for arg in node.args:
                    if arg not in index:
                        stack.append((arg, False))
                continue
            payload = node.payload
            if isinstance(payload, tuple):
                payload = list(payload)
            nodes.append(
                [node.op, node.width, payload, [index[arg] for arg in node.args]]
            )
            index[node] = len(nodes) - 1
    return {"nodes": nodes, "roots": [index[root] for root in roots]}


def deserialize_terms(payload) -> list:
    """Re-intern a :func:`serialize_terms` table; the exact inverse.

    Defensive by design — the persistent store feeds this bytes read
    from disk, so *any* malformed shape (wrong types, forward or
    out-of-range child references, non-canonical payloads) raises
    ``ValueError`` rather than building a corrupt term.
    """
    if not isinstance(payload, dict):
        raise ValueError("term table: not a mapping")
    nodes = payload.get("nodes")
    roots = payload.get("roots")
    if not isinstance(nodes, list) or not isinstance(roots, list):
        raise ValueError("term table: missing nodes/roots lists")
    built: list[Term] = []
    for position, entry in enumerate(nodes):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ValueError(f"term table: malformed node {position}")
        op, width, raw, arg_ids = entry
        if not isinstance(op, str) or not isinstance(width, int):
            raise ValueError(f"term table: bad op/width at node {position}")
        if isinstance(raw, list):
            if not all(isinstance(part, int) for part in raw):
                raise ValueError(f"term table: bad tuple payload at node {position}")
            raw = tuple(raw)
        elif not (raw is None or isinstance(raw, (int, str))):
            raise ValueError(f"term table: bad payload at node {position}")
        if not isinstance(arg_ids, list):
            raise ValueError(f"term table: bad child list at node {position}")
        args = []
        for arg_id in arg_ids:
            # Child-before-parent order makes forward references (and
            # therefore cycles) unrepresentable; reject them explicitly.
            if not isinstance(arg_id, int) or not 0 <= arg_id < position:
                raise ValueError(f"term table: bad child reference at node {position}")
            args.append(built[arg_id])
        built.append(_mk(op, width, raw, tuple(args)))
    terms = []
    for root in roots:
        if not isinstance(root, int) or not 0 <= root < len(built):
            raise ValueError("term table: bad root reference")
        terms.append(built[root])
    return terms
