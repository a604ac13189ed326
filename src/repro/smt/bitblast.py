"""Bit-blasting of QF_BV terms into CNF.

Translates :class:`repro.smt.terms.Term` DAGs into SAT literals via the
gate builder.  Bitvectors become lists of literals (LSB first); boolean
terms become single literals.  The translation is cached per term, so a
term shared across many assertions is encoded exactly once — this is what
makes the assumption-based incremental solving in
:mod:`repro.smt.solver` cheap.

Encodings:

* add/sub/neg — ripple-carry adders,
* mul — shift-and-add over partial products,
* udiv/urem — fresh result vectors defined by the multiplication
  constraint ``zext(a) == zext(q)*zext(b) + zext(r) && r < b`` at double
  width, with the SMT-LIB division-by-zero cases asserted explicitly,
* sdiv/srem — sign-compensated wrappers around the unsigned encodings,
* shifts by a non-constant amount — logarithmic barrel shifter,
* comparisons — LSB-to-MSB mux chains (signed via MSB flip).

On top of the per-term cache, whole *networks* are structurally hashed
at the literal-vector level: adder, comparator and multiplier requests
over bit-identical operand vectors return the previously built output
literals instead of re-encoding — so structurally identical subterms
(``a+b`` vs ``b+a``, the same comparison reached through different term
shapes, re-sliced extract/concat recombinations) share one circuit.
Fully constant operand vectors are folded arithmetically at blast time
and never touch the gate builder at all.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from .cnf import GateBuilder
from .sat import SatSolver
from .terms import Term

__all__ = ["BitBlaster"]


class BitBlaster:
    """Term-to-CNF translator with per-term structural caching."""

    def __init__(self, sat: SatSolver) -> None:
        self.sat = sat
        self.gates = GateBuilder(sat)
        self._bv_cache: dict[Term, list[int]] = {}
        self._bool_cache: dict[Term, int] = {}
        self._divrem_cache: dict = {}
        # Network-level structural hashing: literal-vector keyed caches
        # for adder / comparator / multiplier circuits, shared across
        # every term that blasts to the same operand bits.
        self._add_cache: dict[tuple, tuple[list[int], int]] = {}
        self._ult_cache: dict[tuple, int] = {}
        self._eq_cache: dict[tuple, int] = {}
        self._mul_cache: dict[tuple, list[int]] = {}
        #: Network cache hits by kind, for the solver statistics.
        self.network_hits: dict[str, int] = {"add": 0, "ult": 0, "eq": 0, "mul": 0}
        # BV variable name -> literal list, for model extraction.
        self.var_bits: dict[Term, list[int]] = {}
        self.bool_vars: dict[Term, int] = {}
        #: Read-only view of the boolean memo: every term :meth:`lit`
        #: has blasted, constants included, to its literal.
        self.bool_lits: Mapping[Term, int] = MappingProxyType(self._bool_cache)

    def _const_value(self, bits: list[int]) -> "int | None":
        """Integer value of a fully constant literal vector, else None.

        Hot pre-check on every network-cache request, so the constant
        test is inlined (no GateBuilder calls) and bails at the first
        non-constant bit — the common case for variable operands.
        """
        true_lit = self.gates.true_lit
        false_lit = -true_lit
        value = 0
        for i, lit in enumerate(bits):
            if lit == true_lit:
                value |= 1 << i
            elif lit != false_lit:
                return None
        return value

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def bits(self, term: Term) -> list[int]:
        """Blast a bitvector term to its literal vector (LSB first)."""
        if term.is_bool:
            raise TypeError("bits() expects a bitvector term")
        cached = self._bv_cache.get(term)
        if cached is None:
            cached = self._blast_bv(term)
            assert len(cached) == term.width, (term.op, term.width, len(cached))
            self._bv_cache[term] = cached
        return cached

    def lit(self, term: Term) -> int:
        """Blast a boolean term to a single literal."""
        if not term.is_bool:
            raise TypeError("lit() expects a boolean term")
        cached = self._bool_cache.get(term)
        if cached is None:
            cached = self._blast_bool(term)
            self._bool_cache[term] = cached
        return cached

    # ------------------------------------------------------------------
    # Bitvector translation
    # ------------------------------------------------------------------

    def _fresh_vector(self, width: int) -> list[int]:
        return [self.sat.new_var() for _ in range(width)]

    def _const_vector(self, value: int, width: int) -> list[int]:
        g = self.gates
        return [g.const(bool((value >> i) & 1)) for i in range(width)]

    def _blast_bv(self, term: Term) -> list[int]:
        op = term.op
        g = self.gates
        if op == "const":
            return self._const_vector(term.payload, term.width)
        if op == "var":
            bits = self._fresh_vector(term.width)
            self.var_bits[term] = bits
            return bits
        if op == "ite":
            cond = self.lit(term.args[0])
            then_bits = self.bits(term.args[1])
            else_bits = self.bits(term.args[2])
            return [g.mux(cond, t, e) for t, e in zip(then_bits, else_bits)]
        if op == "bool2bv":
            return [self.lit(term.args[0])]
        if op == "not":
            return [-b for b in self.bits(term.args[0])]
        if op == "neg":
            a = self.bits(term.args[0])
            return self._ripple_add([-b for b in a], self._const_vector(0, term.width), g.true_lit)[0]
        if op == "concat":
            hi = self.bits(term.args[0])
            lo = self.bits(term.args[1])
            return lo + hi
        if op == "extract":
            high, low = term.payload
            return self.bits(term.args[0])[low : high + 1]
        if op == "zext":
            a = self.bits(term.args[0])
            return a + [g.false_lit] * term.payload
        if op == "sext":
            a = self.bits(term.args[0])
            return a + [a[-1]] * term.payload
        if op in ("and", "or", "xor"):
            a = self.bits(term.args[0])
            b = self.bits(term.args[1])
            gate = {"and": g.and2, "or": g.or2, "xor": g.xor2}[op]
            return [gate(x, y) for x, y in zip(a, b)]
        if op == "add":
            a = self.bits(term.args[0])
            b = self.bits(term.args[1])
            return self._ripple_add(a, b, g.false_lit)[0]
        if op == "sub":
            a = self.bits(term.args[0])
            b = self.bits(term.args[1])
            return self._ripple_add(a, [-x for x in b], g.true_lit)[0]
        if op == "mul":
            a = self.bits(term.args[0])
            b = self.bits(term.args[1])
            return self._multiply(a, b, term.width)
        if op == "udiv":
            q, _ = self._udivrem(term.args[0], term.args[1])
            return q
        if op == "urem":
            _, r = self._udivrem(term.args[0], term.args[1])
            return r
        if op == "sdiv":
            return self._sdiv(term.args[0], term.args[1])
        if op == "srem":
            return self._srem(term.args[0], term.args[1])
        if op == "shl":
            return self._barrel_shift(term, kind="shl")
        if op == "lshr":
            return self._barrel_shift(term, kind="lshr")
        if op == "ashr":
            return self._barrel_shift(term, kind="ashr")
        raise NotImplementedError(f"bitblast: unknown BV op {op!r}")

    def _ripple_add(
        self, a: list[int], b: list[int], carry_in: int
    ) -> tuple[list[int], int]:
        """Ripple-carry addition; returns (sum bits, carry out).

        Constant operands fold arithmetically; otherwise the adder
        network is hash-consed on its (commutatively normalized)
        operand vectors, so ``a+b`` and ``b+a`` share one circuit.
        """
        g = self.gates
        if g.is_const(carry_in):
            a_val = self._const_value(a)
            if a_val is not None:
                b_val = self._const_value(b)
                if b_val is not None:
                    width = len(a)
                    total = a_val + b_val + (1 if g.const_value(carry_in) else 0)
                    out = self._const_vector(total & ((1 << width) - 1), width)
                    return out, g.const(bool(total >> width))
        key_a, key_b = tuple(a), tuple(b)
        if key_b < key_a:
            key_a, key_b = key_b, key_a
        key = (key_a, key_b, carry_in)
        cached = self._add_cache.get(key)
        if cached is not None:
            self.network_hits["add"] += 1
            return list(cached[0]), cached[1]
        out: list[int] = []
        carry = carry_in
        for x, y in zip(a, b):
            s, carry = g.full_adder(x, y, carry)
            out.append(s)
        self._add_cache[key] = (list(out), carry)
        return out, carry

    def _multiply(self, a: list[int], b: list[int], width: int) -> list[int]:
        """Shift-and-add multiplier truncated to ``width`` bits.

        Fully constant products fold to a constant vector; the partial
        product loop is driven by whichever operand has more known-zero
        bits (multiplication mod ``2**width`` is commutative), and the
        whole network is hash-consed on the operand vectors.
        """
        g = self.gates
        a_val = self._const_value(a)
        b_val = self._const_value(b)
        if a_val is not None and b_val is not None:
            return self._const_vector((a_val * b_val) & ((1 << width) - 1), width)
        # Fewer non-zero multiplier bits => fewer partial products;
        # break ties lexicographically so mul(a,b) and mul(b,a) key
        # onto the same cached network.
        false_lit = g.false_lit
        if len(a) == len(b):
            nonzero_a = sum(1 for x in a if x != false_lit)
            nonzero_b = sum(1 for x in b if x != false_lit)
            if nonzero_a < nonzero_b or (
                nonzero_a == nonzero_b and tuple(b) < tuple(a)
            ):
                a, b = b, a
        key = (tuple(a), tuple(b), width)
        cached = self._mul_cache.get(key)
        if cached is not None:
            self.network_hits["mul"] += 1
            return list(cached)
        accum = self._const_vector(0, width)
        for i, b_bit in enumerate(b):
            if b_bit == false_lit:
                continue
            # Partial product: (a << i) AND b_bit, truncated to width.
            partial = [false_lit] * i + [g.and2(x, b_bit) for x in a[: width - i]]
            accum, _ = self._ripple_add(accum, partial, false_lit)
        self._mul_cache[key] = list(accum)
        return accum

    def _multiply_full(self, a: list[int], b: list[int]) -> list[int]:
        """Full-width product of two equal-width vectors (2w bits)."""
        g = self.gates
        width = len(a) * 2
        a_ext = a + [g.false_lit] * len(a)
        return self._multiply(a_ext, b + [g.false_lit] * len(b), width)

    def _udivrem(self, a_term: Term, b_term: Term) -> tuple[list[int], list[int]]:
        """Encode unsigned division via the multiplication constraint.

        Fresh vectors ``q`` and ``r`` are constrained such that either
        ``b == 0`` and ``q == all-ones, r == a`` (SMT-LIB semantics), or
        ``a == q*b + r`` exactly (checked at double width so the product
        cannot wrap) with ``r < b``.
        """
        return self._udivrem_bits(
            a_term, b_term, self.bits(a_term), self.bits(b_term), tag="udiv"
        )

    def _conditional_negate(self, cond: int, bits: list[int]) -> list[int]:
        """mux(cond, -bits, bits) via xor + conditional increment."""
        g = self.gates
        flipped = [g.xor2(bit, cond) for bit in bits]
        added, _ = self._ripple_add(
            flipped, self._const_vector(0, len(bits)), cond
        )
        return added

    def _sdiv(self, a_term: Term, b_term: Term) -> list[int]:
        g = self.gates
        a = self.bits(a_term)
        b = self.bits(b_term)
        sign_a, sign_b = a[-1], b[-1]
        abs_a = self._conditional_negate(sign_a, a)
        abs_b = self._conditional_negate(sign_b, b)
        q_u, _ = self._udivrem_bits(a_term, b_term, abs_a, abs_b, tag="sdiv")
        signs_differ = g.xor2(sign_a, sign_b)
        return self._conditional_negate(signs_differ, q_u)

    def _srem(self, a_term: Term, b_term: Term) -> list[int]:
        a = self.bits(a_term)
        b = self.bits(b_term)
        sign_a, sign_b = a[-1], b[-1]
        abs_a = self._conditional_negate(sign_a, a)
        abs_b = self._conditional_negate(sign_b, b)
        _, r_u = self._udivrem_bits(a_term, b_term, abs_a, abs_b, tag="sdiv")
        return self._conditional_negate(sign_a, r_u)

    def _udivrem_bits(
        self,
        a_term: Term,
        b_term: Term,
        a: list[int],
        b: list[int],
        tag: str,
    ) -> tuple[list[int], list[int]]:
        """Division constraint over explicit bit vectors (cached by tag)."""
        key = (tag, a_term, b_term)
        cached = self._divrem_cache.get(key)
        if cached is not None:
            return cached
        g = self.gates
        width = len(a)
        q = self._fresh_vector(width)
        r = self._fresh_vector(width)
        zero_pad = [g.false_lit] * width
        product = self._multiply_full(q, b)
        total, carry = self._ripple_add(product, r + zero_pad, g.false_lit)
        exact = g.big_and(
            [g.iff(t, av) for t, av in zip(total, a + zero_pad)] + [-carry]
        )
        r_lt_b = self._ult(r, b)
        b_is_zero = g.big_and([-x for x in b])
        q_ones = g.big_and(q)
        r_eq_a = g.big_and([g.iff(x, y) for x, y in zip(r, a)])
        constraint = g.mux(b_is_zero, g.and2(q_ones, r_eq_a), g.and2(exact, r_lt_b))
        self.sat.add_clause([constraint])
        self._divrem_cache[key] = (q, r)
        return q, r

    def _barrel_shift(self, term: Term, kind: str) -> list[int]:
        g = self.gates
        a = self.bits(term.args[0])
        amount = self.bits(term.args[1])
        width = term.width
        fill = a[-1] if kind == "ashr" else g.false_lit
        result = list(a)
        # Stages for shift-amount bits that can encode < width.
        stage_bits = []
        overflow_bits = []
        for i, amt_bit in enumerate(amount):
            if (1 << i) < width:
                stage_bits.append((i, amt_bit))
            else:
                overflow_bits.append(amt_bit)
        for i, amt_bit in stage_bits:
            step = 1 << i
            if kind == "shl":
                shifted = [fill] * step + result[: width - step]
            else:
                shifted = result[step:] + [fill] * step
            result = [g.mux(amt_bit, s, r) for s, r in zip(shifted, result)]
        # If the encoded amount is >= width, the result is all fill bits.
        # That happens when an overflow bit is set, or the in-range bits
        # sum to >= width (possible when width is not a power of two).
        max_in_range = sum(1 << i for i, _ in stage_bits)
        overflow = g.big_or(overflow_bits)
        if max_in_range >= width:
            # Compare the in-range amount against width.
            in_range_bits = [bit for _, bit in stage_bits]
            width_bits = self._const_vector(width, len(in_range_bits))
            ge_width = -self._ult(in_range_bits, width_bits)
            overflow = g.or2(overflow, ge_width)
        return [g.mux(overflow, fill, r) for r in result]

    # ------------------------------------------------------------------
    # Boolean translation
    # ------------------------------------------------------------------

    def _blast_bool(self, term: Term) -> int:
        op = term.op
        g = self.gates
        if op == "const":
            return g.const(bool(term.payload))
        if op == "var":
            lit = self.sat.new_var()
            self.bool_vars[term] = lit
            return lit
        if op == "bnot":
            return -self.lit(term.args[0])
        if op == "band":
            return g.and2(self.lit(term.args[0]), self.lit(term.args[1]))
        if op == "bor":
            return g.or2(self.lit(term.args[0]), self.lit(term.args[1]))
        if op == "bxor":
            return g.xor2(self.lit(term.args[0]), self.lit(term.args[1]))
        if op == "eq":
            return self._eq_vec(self.bits(term.args[0]), self.bits(term.args[1]))
        if op == "ult":
            return self._ult(self.bits(term.args[0]), self.bits(term.args[1]))
        if op == "ule":
            return -self._ult(self.bits(term.args[1]), self.bits(term.args[0]))
        if op == "slt":
            a = self._flip_msb(self.bits(term.args[0]))
            b = self._flip_msb(self.bits(term.args[1]))
            return self._ult(a, b)
        if op == "sle":
            a = self._flip_msb(self.bits(term.args[0]))
            b = self._flip_msb(self.bits(term.args[1]))
            return -self._ult(b, a)
        raise NotImplementedError(f"bitblast: unknown Bool op {op!r}")

    @staticmethod
    def _flip_msb(bits: list[int]) -> list[int]:
        return bits[:-1] + [-bits[-1]]

    def _eq_vec(self, a: list[int], b: list[int]) -> int:
        """Equality comparator over literal vectors, hash-consed."""
        g = self.gates
        a_val = self._const_value(a)
        if a_val is not None:
            b_val = self._const_value(b)
            if b_val is not None:
                return g.const(a_val == b_val)
        key_a, key_b = tuple(a), tuple(b)
        if key_b < key_a:
            key_a, key_b = key_b, key_a
        key = (key_a, key_b)
        cached = self._eq_cache.get(key)
        if cached is not None:
            self.network_hits["eq"] += 1
            return cached
        out = g.big_and([g.iff(x, y) for x, y in zip(a, b)])
        self._eq_cache[key] = out
        return out

    def _ult(self, a: list[int], b: list[int]) -> int:
        """Unsigned less-than over literal vectors (LSB first).

        A mux chain from the least significant bit up: where ``a_i`` and
        ``b_i`` differ, ``b_i`` decides; where they agree, the lower bits
        do.  Two gates per bit, and the xor gates are the ones
        :meth:`_eq_vec` builds for the same operands.  Constant
        comparisons fold; otherwise the chain is hash-consed per (a, b)
        operand pair (ordered — ult is not commutative).
        """
        g = self.gates
        a_val = self._const_value(a)
        if a_val is not None:
            b_val = self._const_value(b)
            if b_val is not None:
                return g.const(a_val < b_val)
        key = (tuple(a), tuple(b))
        cached = self._ult_cache.get(key)
        if cached is not None:
            self.network_hits["ult"] += 1
            return cached
        lt = g.false_lit
        for x, y in zip(a, b):
            lt = g.mux(g.xor2(x, y), y, lt)
        self._ult_cache[key] = lt
        return lt
