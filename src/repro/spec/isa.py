"""Extension registry: composing the base ISA with optional extensions.

RISC-V is modular — a base integer ISA plus ratified/custom extensions.
An :class:`Extension` bundles encodings with their formal semantics; an
:class:`ISA` composes extensions into a decoder plus a semantics lookup.
All execution engines (emulator, BinSym, the baseline engines' lifters)
and the assembler are instantiated with an :class:`ISA` value, so a new
extension (e.g. Sect. IV's Zimadd) propagates everywhere at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .decoder import Decoder
from .opcodes import RV32I_ENCODINGS, RV32M_ENCODINGS, Encoding

__all__ = ["Extension", "ISA", "rv32i", "rv32im", "rv32im_zimadd"]


@dataclass(frozen=True)
class Extension:
    """A named set of encodings and the matching semantics functions."""

    name: str
    encodings: tuple[Encoding, ...]
    semantics: Mapping[str, Callable]

    def __post_init__(self):
        missing = [e.name for e in self.encodings if e.name not in self.semantics]
        if missing:
            raise ValueError(
                f"extension {self.name}: encodings without semantics: {missing}"
            )


class ISA:
    """A composed instruction set: decoder + semantics registry."""

    def __init__(self, extensions: Iterable[Extension]):
        self.extensions = tuple(extensions)
        encodings: list[Encoding] = []
        semantics: dict[str, Callable] = {}
        for extension in self.extensions:
            encodings.extend(extension.encodings)
            for name, fn in extension.semantics.items():
                if name in semantics:
                    raise ValueError(f"duplicate semantics for {name!r}")
                semantics[name] = fn
        self.encodings = tuple(encodings)
        self.decoder = Decoder(encodings)
        self._semantics = semantics
        # Staging caches (see repro.spec.staged).  Plans are a pure
        # function of (word, this ISA's semantics) and compiled plans
        # additionally of the domain configuration, so both caches are
        # shared by every interpreter instance over this ISA and are
        # inherited coherently by forked exploration workers.
        self._plan_cache: dict[int, object] = {}
        self._compiled_cache: dict[tuple, object] = {}
        self._superblock_engine = None

    @property
    def name(self) -> str:
        return "+".join(ext.name for ext in self.extensions)

    def semantics_for(self, mnemonic: str) -> Callable:
        """The semantics generator function for a mnemonic."""
        return self._semantics[mnemonic.lower()]

    # ------------------------------------------------------------------
    # Staged execution: per-word plans and domain-bound emitted functions
    # ------------------------------------------------------------------

    #: Upper bound on cached plans / compiled plans per ISA.  Distinct
    #: executed instruction words are bounded by the SUT's text segment,
    #: so these caches never churn in practice; the cap is a backstop.
    STAGED_CACHE_CAPACITY = 1 << 17

    def plan_for(self, word: int, mnemonic: str):
        """The recorded :class:`~repro.spec.staged.Plan` for ``word``.

        ``RunIf``/``RunIfElse`` semantics stage as guarded sub-plans;
        ``None`` is returned (and the verdict cached) only when the
        semantics yield a primitive the recorder does not know.
        """
        from .staged import record_plan

        cache = self._plan_cache
        if word in cache:
            return cache[word]
        plan = record_plan(self._semantics[mnemonic], word)
        if len(cache) >= self.STAGED_CACHE_CAPACITY:
            del cache[next(iter(cache))]
        cache[word] = plan
        return plan

    def compiled_plan(self, word: int, mnemonic: str, domain, domain_key: tuple):
        """A :class:`~repro.spec.staged.CompiledPlan` for ``word``.

        ``domain_key`` must uniquely identify the *behaviour* of
        ``domain`` (e.g. ``("sym", force_terms)``): compiled plans are
        shared across interpreter instances whose domains are
        behaviourally identical.  The emitted code's filename names the
        key and the word.  Returns ``None`` for unstageable words.
        """
        from .staged import bind_plan, domain_label

        key = (domain_key, word)
        cache = self._compiled_cache
        if key in cache:
            return cache[key]
        plan = self.plan_for(word, mnemonic)
        compiled = None if plan is None else bind_plan(
            plan, domain, f"<plan {domain_label(domain_key)} word={word:#010x}>"
        )
        if len(cache) >= self.STAGED_CACHE_CAPACITY:
            del cache[next(iter(cache))]
        cache[key] = compiled
        return compiled

    @property
    def superblocks(self):
        """The :class:`~repro.spec.superblock.SuperblockEngine` of this
        ISA (created lazily).  Like the plan caches above, the engine —
        hotness bookkeeping and compiled blocks — is shared by every
        interpreter over this ISA and fork-inherited by exploration
        workers."""
        engine = self._superblock_engine
        if engine is None:
            from .superblock import SuperblockEngine

            engine = self._superblock_engine = SuperblockEngine(self)
        return engine

    def has_instruction(self, mnemonic: str) -> bool:
        return mnemonic.lower() in self._semantics

    def extended_with(self, extension: Extension) -> "ISA":
        """A new ISA with one more extension (non-destructive)."""
        return ISA(self.extensions + (extension,))

    def mnemonics(self) -> list[str]:
        return sorted(self._semantics)


def rv32i() -> ISA:
    """The RV32I base integer instruction set."""
    # Import the semantics dicts directly from the submodules: the
    # package attribute `rv32i` is shadowed by this factory function.
    from .rv32i import SEMANTICS as base_semantics

    return ISA([Extension("rv32i", RV32I_ENCODINGS, base_semantics)])


def rv32im() -> ISA:
    """RV32I plus the M (multiply/divide) extension."""
    from .rv32i import SEMANTICS as base_semantics
    from .rv32m import SEMANTICS as m_semantics

    return ISA(
        [
            Extension("rv32i", RV32I_ENCODINGS, base_semantics),
            Extension("rv32m", RV32M_ENCODINGS, m_semantics),
        ]
    )


def rv32im_zimadd() -> ISA:
    """RV32IM plus the Sect. IV case-study MADD extension."""
    from . import zimadd

    return rv32im().extended_with(
        Extension("zimadd", zimadd.ENCODINGS, zimadd.SEMANTICS)
    )


def rv32im_zbb() -> ISA:
    """RV32IM plus the (subset) Zbb bit-manipulation extension."""
    from . import zbb

    return rv32im().extended_with(Extension("zbb", zbb.ENCODINGS, zbb.SEMANTICS))
