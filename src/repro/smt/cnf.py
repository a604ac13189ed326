"""Tseitin gate construction over a CDCL SAT solver.

The :class:`GateBuilder` provides AND/OR/XOR/MUX gates and adders with
constant propagation and structural hashing: repeated gate requests with
the same inputs return the same output literal instead of duplicating
clauses.  The bit-blaster (:mod:`repro.smt.bitblast`) is written entirely
in terms of these gates.

Literals follow the convention of :class:`repro.smt.sat.SatSolver`
(signed non-zero ints).  Boolean constants are represented by a dedicated
always-true variable so the gate code never needs special clause shapes.
"""

from __future__ import annotations

from .sat import GATE_AND, GATE_MUX, GATE_XOR, SatSolver

__all__ = ["GateBuilder"]


class GateBuilder:
    """Structural-hashing Tseitin encoder on top of a SAT solver.

    Every gate is registered with the SAT core through
    :meth:`SatSolver.add_gate`, which adds its clauses and keeps its
    definition: the output is fully defined by its inputs, so the CDCL
    search only branches on the free variables underneath it, and the
    core can evaluate candidate models gate by gate.
    """

    def __init__(self, sat: SatSolver) -> None:
        self.sat = sat
        self.true_lit = sat.new_var()
        sat.add_clause([self.true_lit])
        self._and_cache: dict[tuple[int, int], int] = {}
        self._xor_cache: dict[tuple[int, int], int] = {}
        self._mux_cache: dict[tuple[int, int, int], int] = {}

    @property
    def false_lit(self) -> int:
        return -self.true_lit

    def const(self, value: bool) -> int:
        """Literal for a boolean constant."""
        return self.true_lit if value else -self.true_lit

    def is_const(self, lit: int) -> bool:
        return abs(lit) == abs(self.true_lit)

    def const_value(self, lit: int) -> bool:
        """Value of a constant literal (only valid if :meth:`is_const`)."""
        return lit == self.true_lit

    # ------------------------------------------------------------------
    # Basic gates
    # ------------------------------------------------------------------

    def and2(self, a: int, b: int) -> int:
        if a == self.false_lit or b == self.false_lit:
            return self.false_lit
        if a == self.true_lit:
            return b
        if b == self.true_lit:
            return a
        if a == b:
            return a
        if a == -b:
            return self.false_lit
        key = (a, b) if a < b else (b, a)
        cached = self._and_cache.get(key)
        if cached is not None:
            return cached
        g = self.sat.add_gate(GATE_AND, a, b)
        self._and_cache[key] = g
        return g

    def or2(self, a: int, b: int) -> int:
        return -self.and2(-a, -b)

    def xor2(self, a: int, b: int) -> int:
        if self.is_const(a):
            return b if a == self.false_lit else -b
        if self.is_const(b):
            return a if b == self.false_lit else -a
        if a == b:
            return self.false_lit
        if a == -b:
            return self.true_lit
        # Normalize polarity: xor(-a, b) == -xor(a, b).
        flip = False
        if a < 0:
            a, flip = -a, not flip
        if b < 0:
            b, flip = -b, not flip
        key = (a, b) if a < b else (b, a)
        cached = self._xor_cache.get(key)
        if cached is None:
            g = self.sat.add_gate(GATE_XOR, a, b)
            self._xor_cache[key] = g
            cached = g
        return -cached if flip else cached

    def iff(self, a: int, b: int) -> int:
        return -self.xor2(a, b)

    def mux(self, cond: int, then_lit: int, else_lit: int) -> int:
        """If-then-else gate: ``cond ? then_lit : else_lit``."""
        if cond == self.true_lit:
            return then_lit
        if cond == self.false_lit:
            return else_lit
        if then_lit == else_lit:
            return then_lit
        if then_lit == -else_lit:
            return self.xor2(cond, else_lit)
        if then_lit == self.true_lit:
            return self.or2(cond, else_lit)
        if then_lit == self.false_lit:
            return self.and2(-cond, else_lit)
        if else_lit == self.true_lit:
            return self.or2(-cond, then_lit)
        if else_lit == self.false_lit:
            return self.and2(cond, then_lit)
        key = (cond, then_lit, else_lit)
        cached = self._mux_cache.get(key)
        if cached is not None:
            return cached
        g = self.sat.add_gate(GATE_MUX, cond, then_lit, else_lit)
        self._mux_cache[key] = g
        return g

    # ------------------------------------------------------------------
    # Arithmetic helper gates
    # ------------------------------------------------------------------

    def full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        """Return (sum, carry-out) of a single-bit full adder."""
        axb = self.xor2(a, b)
        total = self.xor2(axb, cin)
        carry = self.or2(self.and2(a, b), self.and2(axb, cin))
        return total, carry

    def big_and(self, lits: list[int]) -> int:
        result = self.true_lit
        for lit in lits:
            result = self.and2(result, lit)
        return result

    def big_or(self, lits: list[int]) -> int:
        result = self.false_lit
        for lit in lits:
            result = self.or2(result, lit)
        return result
