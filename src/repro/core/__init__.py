"""BinSym — symbolic execution of RV32 binaries from formal ISA semantics.

The paper's primary contribution: a symbolic *modular interpreter* for
the executable formal specification in :mod:`repro.spec`, paired with an
offline (concolic) exploration driver.

* :mod:`repro.core.symvalue` — concolic values (concrete int + SMT term)
* :mod:`repro.core.interpreter` — the symbolic interpreter (semanticize
  + encode steps of the paper's Fig. 1)
* :mod:`repro.core.executor` — one concolic run of the SUT
* :mod:`repro.core.explorer` — dynamic symbolic execution driver
* :mod:`repro.core.scheduler` — frontier/work-queue + branch-flip expansion
* :mod:`repro.core.parallel` — the worker pool's broker (imported only
  when a pool runs)
* :mod:`repro.core.concretize` — address concretization policies
* :mod:`repro.core.strategy` — DFS/BFS/random/coverage path selection
* :mod:`repro.core.checkpoint` — crash-safe exploration journal
* :mod:`repro.core.faults` — deterministic fault-injection schedules
* :mod:`repro.core.governor` — memory budget: drops the snapshot pool
  under RSS pressure
* :mod:`repro.core.store` — crash-safe persistent cross-run artifact store
"""

from .checkpoint import CheckpointManager, CheckpointState
from .concretize import ConcretizationPolicy
from .executor import BinSymExecutor, RunResult
from .explorer import ExplorationResult, ExploreConfig, Explorer, PathInfo
from .faults import FaultPlan
from .governor import MemoryGovernor
from .interpreter import SymbolicInterpreter
from .scheduler import Frontier, WorkItem
from .store import ArtifactStore
from .state import (
    BranchRecord,
    InputAssignment,
    PathTrace,
    SymbolicInput,
)
from .symvalue import SymDomain, SymValue

__all__ = [
    "BinSymExecutor",
    "RunResult",
    "Explorer",
    "ExploreConfig",
    "ExplorationResult",
    "PathInfo",
    "Frontier",
    "WorkItem",
    "CheckpointManager",
    "CheckpointState",
    "FaultPlan",
    "ArtifactStore",
    "MemoryGovernor",
    "SymbolicInterpreter",
    "SymValue",
    "SymDomain",
    "PathTrace",
    "BranchRecord",
    "InputAssignment",
    "SymbolicInput",
    "ConcretizationPolicy",
]
