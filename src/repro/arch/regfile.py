"""Register file parameterized over the value type.

One of the "generic versions of essential components" the paper credits
LibRISCV for: the same register file class serves the concrete
interpreter (values are ints) and BinSym (values are concolic
:class:`repro.core.symvalue.SymValue` objects).  The x0 hardwired-zero
behaviour lives here once, so every interpreter gets it right.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, TypeVar

V = TypeVar("V")

__all__ = ["RegisterFile", "ABI_NAMES", "register_index"]

#: RISC-V standard ABI register names, indexed by register number.
ABI_NAMES = (
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
)

_NAME_TO_INDEX = {name: i for i, name in enumerate(ABI_NAMES)}
_NAME_TO_INDEX.update({f"x{i}": i for i in range(32)})
_NAME_TO_INDEX["fp"] = 8  # alias for s0


def register_index(name: str) -> int:
    """Resolve an ABI or xN register name to its index."""
    try:
        return _NAME_TO_INDEX[name.lower()]
    except KeyError:
        raise ValueError(f"unknown register name {name!r}") from None


class RegisterFile(Generic[V]):
    """32-entry register file with a hardwired zero register.

    ``zero_value`` supplies the representation of the constant 0 in the
    interpreter's value domain (e.g. ``0`` for the emulator, a concrete
    SymValue for BinSym).

    ``values`` is the storage list itself, one object for the file's
    lifetime: emitted plan code (:mod:`repro.spec.staged`) indexes it
    directly.  ``values[0]`` always holds the zero value, and a writer
    that bypasses :meth:`write` must skip index 0.
    """

    __slots__ = ("values", "_zero")

    def __init__(self, zero_value: V):
        self._zero = zero_value
        self.values: list[V] = [zero_value] * 32

    def read(self, index: int) -> V:
        if not 0 <= index < 32:
            raise IndexError(f"register index {index} out of range")
        if index == 0:
            return self._zero
        return self.values[index]

    def write(self, index: int, value: V) -> None:
        if not 0 <= index < 32:
            raise IndexError(f"register index {index} out of range")
        if index == 0:
            return  # x0 writes are architectural no-ops
        self.values[index] = value

    def snapshot(self) -> list[V]:
        """A copy of the register contents (x0 included)."""
        values = list(self.values)
        values[0] = self._zero
        return values

    def fork(self) -> "RegisterFile[V]":
        """A cheap independent copy (values are shared, not copied).

        Sound for immutable value types — ints and
        :class:`repro.core.symvalue.SymValue` — which is every value
        domain the interpreters instantiate this class at.
        """
        copy: RegisterFile[V] = RegisterFile(self._zero)
        copy.values[:] = self.values
        return copy

    def load_snapshot(self, values) -> None:
        """Overwrite every register from a 32-entry sequence (x0 kept)."""
        if len(values) != 32:
            raise ValueError("snapshot must have 32 entries")
        self.values[:] = values
        self.values[0] = self._zero

    def __iter__(self) -> Iterator[V]:
        return iter(self.snapshot())

    def dump(self, render: Callable[[V], str] = str) -> str:
        """Human-readable register dump for diagnostics."""
        lines = []
        for i in range(0, 32, 4):
            cells = [
                f"{ABI_NAMES[j]:>4}={render(self.read(j))}" for j in range(i, i + 4)
            ]
            lines.append("  ".join(cells))
        return "\n".join(lines)
