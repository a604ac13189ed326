"""Byte-addressable memory components.

Two layers, matching how the interpreters use memory:

* :class:`ByteMemory` — the concrete backing store shared by every
  engine: a sparse, page-granular bytearray heap with little-endian
  multi-byte accessors (RISC-V is little-endian).
* :class:`ShadowMemory` — a sparse overlay used by the symbolic
  interpreters to attach a shadow value (an SMT term) to individual
  bytes; bytes without shadow entries are concrete-only.  Keeping
  symbolic state as a sparse overlay over a concrete store is what makes
  the concolic fast path cheap.

Both layers support O(resident-pages) copy-on-write forking for the
snapshot-resumed exploration layer (:mod:`repro.core.snapshots`): a
:meth:`ByteMemory.snapshot_pages`/:meth:`ByteMemory.adopt` pair aliases
the page bytearrays instead of copying them, and every write path
copies a page first when outstanding snapshot references exist — the
per-page refcounts in ``_shared``.  Reads never check the refcounts, so
the instruction-fetch fast path is unaffected.
"""

from __future__ import annotations

from typing import Generic, Iterable, Optional, TypeVar

__all__ = ["ByteMemory", "ShadowMemory", "MemoryFault"]

S = TypeVar("S")

_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_PAGE_MASK = _PAGE_SIZE - 1
_ADDR_MASK = 0xFFFFFFFF


class MemoryFault(Exception):
    """Raised on invalid-width accesses (alignment is not enforced)."""


class ByteMemory:
    """Sparse paged byte memory with little-endian word accessors.

    Copy-on-write invariant: a page bytearray may be aliased by
    snapshots (and by memories resumed from them).  ``_shared`` maps the
    page number to the number of outstanding snapshot references taken
    while that bytearray was current; every write path privatizes such a
    page (copies it and drops the refcount entry) before mutating.
    Reads alias freely — aliased pages are never written in place.
    """

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}
        #: page number -> outstanding snapshot references (see class doc).
        self._shared: dict[int, int] = {}
        #: Pages containing code stitched into superblocks (see
        #: repro.spec.superblock).  A write into a watched page bumps
        #: ``code_epoch``, invalidating every superblock resolved against
        #: this memory — the self-modifying-code guard.  Fresh memories
        #: (clone/adopt/fork/reset) start unwatched; the superblock layer
        #: re-watches as it re-resolves blocks.
        self._watched: set[int] = set()
        self.code_epoch = 0

    def _page_for(self, addr: int) -> bytearray:
        page_number = addr >> _PAGE_BITS
        if page_number in self._watched:
            self.code_epoch += 1
            self._watched.discard(page_number)
        page = self._pages.get(page_number)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[page_number] = page
        elif page_number in self._shared:
            page = bytearray(page)
            self._pages[page_number] = page
            del self._shared[page_number]
        return page

    def watch_pages(self, pages: Iterable[int]) -> None:
        """Mark code pages whose mutation must bump ``code_epoch``."""
        self._watched.update(pages)

    def same_pages(self, other: "ByteMemory", pages: Iterable[int]) -> bool:
        """True when ``other`` holds the same bytes on every page in ``pages``."""
        mine, theirs = self._pages, other._pages
        return all(mine.get(number) == theirs.get(number) for number in pages)

    def same_bytes(self, other: "ByteMemory") -> bool:
        """True when both memories read the same byte at every address
        (a page one side never allocated reads as zeros)."""
        zero = bytes(_PAGE_SIZE)
        mine, theirs = self._pages, other._pages
        return all(
            mine.get(number, zero) == theirs.get(number, zero)
            for number in mine.keys() | theirs.keys()
        )

    def read_byte(self, addr: int) -> int:
        addr &= _ADDR_MASK
        page = self._pages.get(addr >> _PAGE_BITS)
        if page is None:
            return 0
        return page[addr & _PAGE_MASK]

    def write_byte(self, addr: int, value: int) -> None:
        addr &= _ADDR_MASK
        self._page_for(addr)[addr & _PAGE_MASK] = value & 0xFF

    def read(self, addr: int, width_bits: int) -> int:
        """Little-endian read of 8/16/32 bits."""
        if width_bits not in (8, 16, 32):
            raise MemoryFault(f"unsupported access width {width_bits}")
        value = 0
        for i in range(width_bits // 8):
            value |= self.read_byte(addr + i) << (8 * i)
        return value

    def read_word(self, addr: int) -> int:
        """Little-endian 32-bit read, specialized for instruction fetch.

        Equivalent to ``read(addr, 32)`` but a single page probe and one
        ``int.from_bytes`` when the access does not straddle a page —
        the fetch in every interpreter step goes through here.
        """
        addr &= _ADDR_MASK
        offset = addr & _PAGE_MASK
        if offset <= _PAGE_SIZE - 4:
            page = self._pages.get(addr >> _PAGE_BITS)
            if page is None:
                return 0
            return int.from_bytes(page[offset : offset + 4], "little")
        return self.read(addr, 32)

    def write(self, addr: int, value: int, width_bits: int) -> None:
        """Little-endian write of 8/16/32 bits."""
        if width_bits not in (8, 16, 32):
            raise MemoryFault(f"unsupported access width {width_bits}")
        for i in range(width_bits // 8):
            self.write_byte(addr + i, (value >> (8 * i)) & 0xFF)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Bulk write via page-sized slice assignments.

        Image loading calls this once per segment on every run reset
        (the offline executor restarts the SUT per path), so it copies
        whole pages instead of dict-probing per byte.
        """
        addr &= _ADDR_MASK
        offset = 0
        remaining = len(data)
        while remaining:
            page_offset = addr & _PAGE_MASK
            chunk = min(remaining, _PAGE_SIZE - page_offset)
            page = self._page_for(addr)
            page[page_offset : page_offset + chunk] = data[offset : offset + chunk]
            addr = (addr + chunk) & _ADDR_MASK
            offset += chunk
            remaining -= chunk

    def read_bytes(self, addr: int, length: int) -> bytes:
        addr &= _ADDR_MASK
        out = bytearray()
        remaining = length
        while remaining:
            page_offset = addr & _PAGE_MASK
            chunk = min(remaining, _PAGE_SIZE - page_offset)
            page = self._pages.get(addr >> _PAGE_BITS)
            if page is None:
                out.extend(b"\x00" * chunk)
            else:
                out.extend(page[page_offset : page_offset + chunk])
            addr = (addr + chunk) & _ADDR_MASK
            remaining -= chunk
        return bytes(out)

    def read_cstring(self, addr: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated string (diagnostics / syscalls)."""
        out = bytearray()
        for i in range(limit):
            byte = self.read_byte(addr + i)
            if byte == 0:
                break
            out.append(byte)
        return bytes(out)

    def clone(self) -> "ByteMemory":
        copy = ByteMemory()
        copy._pages = {number: bytearray(page) for number, page in self._pages.items()}
        return copy

    # ------------------------------------------------------------------
    # Copy-on-write forking (the snapshot layer's capture primitive)
    # ------------------------------------------------------------------

    def snapshot_pages(self) -> dict[int, bytearray]:
        """Alias the current pages for a snapshot (O(resident pages)).

        Every current page gains one snapshot reference: this memory
        keeps executing and privatizes a page the first time it writes
        it, leaving the aliased bytearray to the snapshot untouched.
        The returned dict is owned by the snapshot and must never be
        mutated.
        """
        shared = self._shared
        for page_number in self._pages:
            shared[page_number] = shared.get(page_number, 0) + 1
        return dict(self._pages)

    def release_pages(self, pages: dict[int, bytearray]) -> None:
        """Drop one snapshot reference (snapshot evicted or consumed).

        Only pages this memory still aliases (same bytearray object)
        are decremented; pages already privatized — or replaced since —
        keep their accounting.  Dropping the last reference makes the
        page writable in place again.
        """
        shared = self._shared
        current = self._pages
        for page_number, page in pages.items():
            if current.get(page_number) is page:
                refs = shared.get(page_number, 0)
                if refs > 1:
                    shared[page_number] = refs - 1
                elif refs:
                    del shared[page_number]

    @classmethod
    def adopt(cls, pages: dict[int, bytearray]) -> "ByteMemory":
        """Memory resuming from a snapshot's aliased pages.

        All adopted pages are marked shared (the snapshot — and any
        sibling resume — still references them), so the first write to
        each page copies it; unwritten pages stay shared forever, which
        is what makes resuming O(pages touched by the suffix).
        """
        memory = cls()
        memory._pages = dict(pages)
        memory._shared = dict.fromkeys(pages, 1)
        return memory

    def fork(self) -> "ByteMemory":
        """A copy-on-write twin: both sides copy pages before writing."""
        return ByteMemory.adopt(self.snapshot_pages())

    @property
    def resident_bytes(self) -> int:
        """Bytes of allocated backing store (diagnostics)."""
        return len(self._pages) * _PAGE_SIZE

    @property
    def shared_pages(self) -> int:
        """Pages currently copy-on-write protected (diagnostics)."""
        return len(self._shared)


class ShadowMemory(Generic[S]):
    """Sparse per-byte shadow values over a concrete store."""

    def __init__(self) -> None:
        self._shadow: dict[int, S] = {}

    def get(self, addr: int) -> Optional[S]:
        return self._shadow.get(addr & _ADDR_MASK)

    def set(self, addr: int, value: Optional[S]) -> None:
        addr &= _ADDR_MASK
        if value is None:
            self._shadow.pop(addr, None)
        else:
            self._shadow[addr] = value

    def clear(self) -> None:
        self._shadow.clear()

    def snapshot_state(self) -> dict[int, S]:
        """Immutable-by-convention copy of the overlay (for snapshots)."""
        return dict(self._shadow)

    @classmethod
    def adopt(cls, state: dict[int, S]) -> "ShadowMemory[S]":
        """Overlay resuming from a snapshot's state (copies the dict)."""
        shadow: ShadowMemory[S] = cls()
        shadow._shadow = dict(state)
        return shadow

    def fork(self) -> "ShadowMemory[S]":
        """A copy of the overlay (values are shared; they are immutable)."""
        return ShadowMemory.adopt(self._shadow)

    def tainted_addresses(self) -> Iterable[int]:
        return self._shadow.keys()

    def __len__(self) -> int:
        return len(self._shadow)
