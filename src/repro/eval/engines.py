"""Uniform construction of the four SE engines under comparison.

Mirrors the paper's evaluation setup: BINSEC, BinSym, SymEx-VP and angr
(with the fixed lifter for the Fig. 6 performance comparison, or with
the five historical bugs for the Table I accuracy experiment).  All
engines receive identical binaries and are driven by the same explorer
and solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..baselines.dba import DbaEngine
from ..baselines.vexir import FIVE_ANGR_BUGS, VexEngine
from ..baselines.vp import VpExecutor
from ..core import BinSymExecutor, ExplorationResult, ExploreConfig, Explorer
from ..loader.image import Image
from ..spec.isa import ISA, rv32im

__all__ = ["ENGINE_ORDER", "EngineSpec", "make_engine", "explore_with"]

#: Fig. 6 bar order: BINSEC, BinSym, SymEx-VP, angr.
ENGINE_ORDER = ("binsec", "binsym", "symex-vp", "angr")


@dataclass(frozen=True)
class EngineSpec:
    key: str
    label: str
    factory: Callable


def make_engine(
    key: str,
    isa: ISA,
    image: Image,
    symbolic_registers=(),
    max_steps: int = 1_000_000,
    staging: bool = True,
    superblocks: bool = True,
):
    """Instantiate an engine by key.

    Keys: ``binsym``, ``binsec``, ``symex-vp``, ``angr`` (fixed lifter)
    and ``angr-buggy`` (the five historical lifter bugs seeded).

    ``staging`` toggles staged semantics execution and ``superblocks``
    superblock trace compilation for the specification-derived engine
    (``binsym``); the IR-based baselines have their own translation
    caches and ignore both (the VP engine keeps superblocks off by
    construction — its bus models a per-instruction fetch quantum).
    """
    common = dict(symbolic_registers=symbolic_registers, max_steps=max_steps)
    if key == "binsym":
        return BinSymExecutor(
            isa, image, staging=staging, superblocks=superblocks, **common
        )
    if key == "binsec":
        return DbaEngine(isa, image, **common)
    if key == "symex-vp":
        return VpExecutor(isa, image, **common)
    if key == "angr":
        return VexEngine(isa, image, **common)
    if key == "angr-buggy":
        return VexEngine(isa, image, bugs=FIVE_ANGR_BUGS, **common)
    raise ValueError(f"unknown engine key {key!r}")


def explore_with(
    key: str,
    image: Image,
    isa: Optional[ISA] = None,
    symbolic_registers=(),
    max_paths: int = ExploreConfig.max_paths,
    max_steps: int = 1_000_000,
    strategy: str = ExploreConfig.strategy,
    jobs: int = ExploreConfig.jobs,
    use_cache: bool = ExploreConfig.use_cache,
    solver=None,
) -> ExplorationResult:
    """Build an engine, explore the image, return the result.

    The exploration knobs mirror :class:`repro.core.Explorer`: every
    baseline engine implements the same executor interface, so parallel
    workers and the cross-path query cache apply to all of them alike.
    A ``solver`` can be shared across calls — exploring the same image
    with several engines re-issues largely identical branch queries,
    which a shared :class:`repro.smt.CachingSolver` answers from cache.
    """
    engine = make_engine(
        key,
        isa if isa is not None else rv32im(),
        image,
        symbolic_registers=symbolic_registers,
        max_steps=max_steps,
    )
    return Explorer(
        engine,
        solver=solver,
        max_paths=max_paths,
        strategy=strategy,
        jobs=jobs,
        use_cache=use_cache,
    ).explore()
