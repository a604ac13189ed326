"""Concrete evaluation of SMT terms under a variable assignment.

This is the reference interpreter for the term language: given a mapping
from variable terms (or variable names) to Python ints/bools it computes
the value of any term.  It is used to

* validate models returned by the SAT-based solver (every ``sat`` answer
  in the test-suite is checked against this evaluator),
* provide the oracle for property-based testing of the bit-blaster, and
* evaluate shadow expressions in diagnostics.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from . import bvops
from .terms import Term

__all__ = ["evaluate", "EvalError"]


class EvalError(KeyError):
    """Raised when a variable has no binding in the assignment."""


_BINOPS = {
    "add": bvops.bv_add,
    "sub": bvops.bv_sub,
    "mul": bvops.bv_mul,
    "udiv": bvops.bv_udiv,
    "urem": bvops.bv_urem,
    "sdiv": bvops.bv_sdiv,
    "srem": bvops.bv_srem,
    "and": bvops.bv_and,
    "or": bvops.bv_or,
    "xor": bvops.bv_xor,
    "shl": bvops.bv_shl,
    "lshr": bvops.bv_lshr,
    "ashr": bvops.bv_ashr,
}

_CMPOPS = {
    "ult": bvops.bv_ult,
    "ule": bvops.bv_ule,
    "slt": bvops.bv_slt,
    "sle": bvops.bv_sle,
}


def _lookup(assignment: Mapping, term: Term) -> int:
    if term in assignment:
        value = assignment[term]
    elif term.payload in assignment:
        value = assignment[term.payload]
    else:
        raise EvalError(f"unbound variable {term.payload!r}")
    if term.is_bool:
        return 1 if value else 0
    return bvops.truncate(int(value), term.width)


def evaluate(
    term: Term,
    assignment: Mapping[Union[Term, str], int],
    memo: Optional[dict] = None,
) -> int:
    """Evaluate ``term`` under ``assignment``.

    The assignment maps variable terms *or* their string names to integer
    values.  Bitvector results are returned as unsigned ints; boolean
    results as 0/1.  ``memo`` (node id -> value) may be shared by calls
    under the same assignment while their terms stay alive, so a
    subterm they share is evaluated once.
    """
    cache: dict[int, int] = {} if memo is None else memo
    # Iterative post-order evaluation: terms can be deep (long add chains
    # from loop-carried symbolic state) and Python's recursion limit is a
    # real hazard there.
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in cache:
            continue
        if not ready:
            stack.append((node, True))
            for arg in node.args:
                if id(arg) not in cache:
                    stack.append((arg, False))
            continue
        cache[id(node)] = _eval_node(node, cache, assignment)
    return cache[id(term)]


def _eval_node(node: Term, cache: dict[int, int], assignment: Mapping) -> int:
    op = node.op
    if op == "const":
        return node.payload
    if op == "var":
        return _lookup(assignment, node)
    args = [cache[id(a)] for a in node.args]
    if op in _BINOPS:
        return _BINOPS[op](args[0], args[1], node.width)
    if op in _CMPOPS:
        width = node.args[0].width
        return 1 if _CMPOPS[op](args[0], args[1], width) else 0
    if op == "not":
        return bvops.bv_not(args[0], node.width)
    if op == "neg":
        return bvops.bv_neg(args[0], node.width)
    if op == "concat":
        return bvops.bv_concat(args[0], args[1], node.args[1].width)
    if op == "extract":
        high, low = node.payload
        return bvops.bv_extract(args[0], high, low)
    if op == "zext":
        return args[0]
    if op == "sext":
        return bvops.bv_sext(args[0], node.args[0].width, node.payload)
    if op == "ite":
        return args[1] if args[0] else args[2]
    if op == "bool2bv":
        return args[0]
    if op == "eq":
        return 1 if args[0] == args[1] else 0
    if op == "bnot":
        return 1 - args[0]
    if op == "band":
        return args[0] & args[1]
    if op == "bor":
        return args[0] | args[1]
    if op == "bxor":
        return args[0] ^ args[1]
    raise NotImplementedError(f"evaluate: unknown op {op!r}")
