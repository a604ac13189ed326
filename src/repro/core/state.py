"""Symbolic machine state: branch traces, symbolic memory, input maps.

The state kept by one concolic run consists of

* the generic hart/register file instantiated at :class:`SymValue`,
* concrete byte memory plus a sparse per-byte *shadow* of 8-bit SMT
  terms (:class:`repro.arch.memory.ShadowMemory`),
* the **path trace**: the sequence of symbolic branch decisions
  (flippable) and concretization assumptions (not flippable) collected
  during execution — the raw material of the offline executor's
  branch-flipping queries.  Each record carries the query digest of the
  trace up to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..smt import terms as T
from ..smt.digest import extend_query_digest, query_digest

__all__ = [
    "BranchRecord",
    "PathTrace",
    "SymbolicInput",
    "InputAssignment",
]


@dataclass(frozen=True)
class BranchRecord:
    """One recorded path-condition element.

    ``condition`` is the SMT condition *as taken*: for a branch that
    evaluated to False the negated condition is stored, so the path
    condition is always the conjunction of ``condition`` fields.
    ``flippable`` distinguishes real branch decisions from
    concretization assumptions pinned by the memory model.  ``digest``
    is the :func:`~repro.smt.digest.query_digest` of the conditions up
    to and including this one; :class:`PathTrace` computes it when it
    creates the record.
    """

    condition: T.Term
    pc: int
    taken: bool
    flippable: bool
    digest: int

    def negated(self) -> T.Term:
        return T.bnot(self.condition)


#: ``query_digest`` of the empty condition list.
_EMPTY_DIGEST = query_digest(())


class PathTrace:
    """Ordered collection of branch records for one execution.

    A snapshot resume copies the records of its prefix whole, digests
    included, so a resumed run digests only the records it executes.
    """

    def __init__(self) -> None:
        self.records: list[BranchRecord] = []

    def _append(self, condition: T.Term, pc: int, taken: bool, flippable: bool):
        digest = extend_query_digest(self.digest(len(self.records)), condition)
        self.records.append(BranchRecord(condition, pc, taken, flippable, digest))

    def add_branch(self, condition: T.Term, pc: int, taken: bool) -> None:
        """Record a symbolic branch outcome (condition-as-taken form)."""
        self._append(condition if taken else T.bnot(condition), pc, taken, True)

    def add_assumption(self, condition: T.Term, pc: int) -> None:
        """Record a non-flippable constraint (e.g. address pinning)."""
        if condition.is_const and condition.payload:
            return  # trivially true assumptions carry no information
        self._append(condition, pc, True, False)

    def digest(self, index: int) -> int:
        """``query_digest`` of the conditions of records [0, index)."""
        return self.records[index - 1].digest if index else _EMPTY_DIGEST

    def conditions(self) -> list[T.Term]:
        return [record.condition for record in self.records]

    def prefix_conditions(self, index: int) -> list[T.Term]:
        """Conditions of records [0, index)."""
        return [record.condition for record in self.records[:index]]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def signature(self) -> tuple:
        """Hashable identity of the path (used for duplicate detection)."""
        return tuple(
            (record.pc, record.taken) for record in self.records if record.flippable
        )


@dataclass
class SymbolicInput:
    """One byte of symbolic program input.

    Created when the program calls ``make_symbolic`` (or when the
    harness pre-marks a region): address, stable SMT variable, and the
    default concrete byte (from the initial memory image).
    """

    address: int
    variable: T.Term
    default: int


class InputAssignment:
    """Concrete values for the symbolic input bytes of one run."""

    def __init__(self, values: Optional[dict[T.Term, int]] = None):
        self.values: dict[T.Term, int] = dict(values or {})

    def value_for(self, sym_input: SymbolicInput) -> int:
        return self.values.get(sym_input.variable, sym_input.default) & 0xFF

    def derive(self, model, variables) -> "InputAssignment":
        """New assignment taking ``variables``' values from a model.

        Variables the solver never saw keep their current value — the
        model knows nothing about them, and resetting them to zero
        would needlessly perturb unexplored program behaviour.
        """
        values = dict(self.values)
        for variable in variables:
            if variable in model:
                values[variable] = model[variable]
        return InputAssignment(values)

    def as_bytes(self, inputs: list[SymbolicInput]) -> bytes:
        """Render the assignment over an input region (for reports)."""
        return bytes(self.value_for(i) for i in inputs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{var.payload}={val:#04x}" for var, val in sorted(
                self.values.items(), key=lambda item: str(item[0].payload)
            )
        )
        return f"InputAssignment({parts})"
