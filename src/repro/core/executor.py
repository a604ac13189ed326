"""The BinSym concolic executor: one run = one explored path.

Wraps :class:`SymbolicInterpreter` behind the engine-neutral executor
interface the explorer drives (the baseline engines implement the same
interface over their IRs).  Besides program-initiated symbolic input
(the ``make_symbolic`` ecall), the harness can pre-mark memory regions
and registers as symbolic — the Fig. 5 experiment feeds ``parse_word``'s
argument register this way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from ..loader.image import Image
from ..smt import terms as T
from ..spec.isa import ISA
from .concretize import ConcretizationPolicy
from .interpreter import SymbolicInterpreter
from .snapshots import SnapshotPool
from .state import InputAssignment, PathTrace
from .symvalue import SymValue

__all__ = ["RunResult", "BinSymExecutor"]


@dataclass
class RunResult:
    """Everything the explorer needs to know about one concolic run.

    ``snapshots`` maps flippable branch-record indices to snapshot-pool
    handles captured during the run (empty when capture was off), and
    ``resumed_instret`` is the prefix length this run did *not* execute
    because it resumed from a snapshot — ``instret`` always reports the
    full architectural path length, so exploration totals are identical
    with snapshots on and off.
    """

    trace: PathTrace
    halt_reason: Optional[str]
    exit_code: Optional[int]
    instret: int
    assignment: InputAssignment
    stdout: bytes
    final_pc: int = 0
    snapshots: dict[int, int] = field(default_factory=dict)
    resumed_instret: int = 0


class BinSymExecutor:
    """Engine adapter: repeatedly executes the SUT under new inputs.

    Supports snapshot-resumed runs (``supports_snapshots``): the
    exploration run step passes ``capture_from`` so the interpreter
    registers a :class:`~repro.core.snapshots.StateSnapshot` at every
    flippable branch beyond the re-flip bound, and ``resume`` to start
    a child run at its divergence point instead of ``pc = entry``.  The
    pool is a cache — an evicted (or cross-worker) handle transparently
    falls back to full re-execution, which discovers the same path.
    """

    name = "binsym"
    supports_snapshots = True

    def __init__(
        self,
        isa: ISA,
        image: Image,
        symbolic_memory: Iterable[tuple[int, int]] = (),
        symbolic_registers: Iterable[int] = (),
        concretization: ConcretizationPolicy = ConcretizationPolicy.PIN,
        force_terms: bool = False,
        max_steps: int = 1_000_000,
        staging: bool = True,
        superblocks: bool = True,
        snapshot_pool: Optional[SnapshotPool] = None,
    ):
        self.interpreter = SymbolicInterpreter(
            isa,
            image,
            concretization=concretization,
            force_terms=force_terms,
            staging=staging,
            superblocks=superblocks,
        )
        self.symbolic_memory = tuple(symbolic_memory)
        self.symbolic_registers = tuple(symbolic_registers)
        self.max_steps = max_steps
        #: Harness-marked symbolic registers: index -> input variable.
        self.register_inputs: dict[int, T.Term] = {
            index: T.bv_var(f"reg_{index}", 32) for index in self.symbolic_registers
        }
        self.snapshot_pool = (
            snapshot_pool if snapshot_pool is not None else SnapshotPool()
        )
        self.resumed_runs = 0
        self.saved_instructions = 0
        self.fallback_runs = 0

    def set_staging(self, staging: bool) -> None:
        """Toggle staged semantics execution (the --no-staging ablation)."""
        self.interpreter.set_staging(staging)

    def set_superblocks(self, superblocks: bool) -> None:
        """Toggle superblock execution (the --no-superblocks ablation)."""
        self.interpreter.set_superblocks(superblocks)

    def note_hot_pcs(self, pcs) -> None:
        """Driver feedback: branch PCs whose cumulative execution count
        crossed the superblock hotness threshold."""
        self.interpreter.note_hot_branches(pcs)

    def note_entry_run(self) -> None:
        """Count one run from the image entry toward superblock entry
        hotness without executing it (see ``ENTRY_HOT_RUNS``)."""
        interp = self.interpreter
        interp.isa.superblocks.note_run_entry(interp.image.entry)

    @property
    def superblocks_enabled(self) -> bool:
        return self.interpreter._sb_enabled

    @property
    def superblock_statistics(self) -> Mapping[str, int]:
        """Flat superblock counters (summable across workers)."""
        interp = self.interpreter
        return {
            "sb_hits": interp.sb_hits,
            "sb_block_instructions": interp.sb_instructions,
            "sb_blocks_built": interp.sb_blocks_built,
            "sb_block_cache_hits": interp.sb_block_cache_hits,
            "sb_deopts": interp.sb_deopts,
            "sb_invalidations": interp.sb_invalidations,
            "sb_unstitchable": interp.sb_unstitchable,
        }

    def input_environment(self, assignment: InputAssignment) -> dict[T.Term, int]:
        """Every known input variable's value under ``assignment``: the
        bytes :meth:`start` writes and the registers it seeds."""
        env = {
            sym_input.variable: assignment.value_for(sym_input)
            for sym_input in self.interpreter.inputs.values()
        }
        for variable in self.register_inputs.values():
            env[variable] = assignment.values.get(variable, 0)
        return env

    def start(self, assignment: InputAssignment) -> None:
        """Put the interpreter at the entry point under ``assignment``:
        the image, every known input byte, the harness's symbolic
        regions and registers."""
        interp = self.interpreter
        interp.reset(assignment)
        for base, length in self.symbolic_memory:
            interp.make_symbolic(base, length)
        for index, variable in self.register_inputs.items():
            concrete = assignment.values.get(variable, 0)
            interp.hart.regs.write(index, SymValue(concrete, 32, variable))

    def finish(
        self, assignment: InputAssignment, resumed_instret: int = 0
    ) -> RunResult:
        """Run the interpreter from where it stands to a halt.

        A run resumed mid-path has already retired ``resumed_instret``
        instructions, so it gets only the rest of ``max_steps``: it runs
        out of fuel at the same instruction a run from the entry does.
        """
        interp = self.interpreter
        hart = interp.run(self.max_steps - resumed_instret)
        return RunResult(
            trace=interp.trace,
            halt_reason=hart.halt_reason,
            exit_code=hart.exit_code,
            instret=hart.instret,
            assignment=assignment,
            stdout=bytes(interp.stdout),
            final_pc=hart.pc,
            snapshots=dict(interp.captured),
            resumed_instret=resumed_instret,
        )

    def execute(
        self,
        assignment: InputAssignment,
        capture_from: Optional[int] = None,
        resume: Optional[int] = None,
    ) -> RunResult:
        """Run the SUT once under ``assignment``; collect the trace.

        ``capture_from`` arms snapshot capture at flippable branch
        records with index >= the bound (None leaves capture off);
        ``resume`` names a pool handle to resume from, silently falling
        back to a full run when the snapshot was evicted or predates
        later-discovered symbolic inputs.
        """
        interp = self.interpreter
        snapshot = None
        if resume is not None:
            snapshot = self.snapshot_pool.get(resume)
            if snapshot is not None and snapshot.inputs_count != len(interp.inputs):
                # Inputs discovered after capture: permanently stale
                # (inputs only accumulate), so evict it and reclassify
                # the pool hit as a miss.
                self.snapshot_pool.discard(resume)
                snapshot = None
        resumed_instret = 0
        if snapshot is not None:
            env = self.input_environment(assignment)
            before = self.input_environment(snapshot.assignment)
            changed = {var for var, value in env.items() if before[var] != value}
            interp.resume(snapshot, assignment, env, changed)
            self.resumed_runs += 1
            self.saved_instructions += snapshot.instret
            resumed_instret = snapshot.instret
        else:
            if resume is not None:
                self.fallback_runs += 1
            self.start(assignment)
        interp.configure_capture(
            self.snapshot_pool if capture_from is not None else None,
            capture_from if capture_from is not None else 0,
        )
        return self.finish(assignment, resumed_instret)

    def execute_from(
        self,
        snapshot: Optional[int],
        assignment: InputAssignment,
        capture_from: Optional[int] = None,
    ) -> RunResult:
        """Resume a run from a snapshot handle (re-executes on miss)."""
        return self.execute(assignment, capture_from=capture_from, resume=snapshot)

    @property
    def snapshot_statistics(self) -> Mapping[str, int]:
        """Flat snapshot counters (summable across workers)."""
        stats = dict(self.snapshot_pool.statistics)
        stats["snap_resumed_runs"] = self.resumed_runs
        stats["snap_saved_instructions"] = self.saved_instructions
        stats["snap_fallback_runs"] = self.fallback_runs
        return stats

    def tighten_caches(self, factor: int = 2) -> None:
        """Shrink the staged-plan and superblock memo caches (governor rung).

        All of these are pure per-word memos: trimming costs a re-record
        or re-stitch on the next miss, never a different answer.  The
        staged caches get their (instance-shadowed) capacity halved and
        are trimmed FIFO down to it; the superblock engine's step-info
        and block caches are trimmed to half their current population
        (their capacity caps are module constants, so the trim itself is
        the pressure relief).
        """
        isa = self.interpreter.isa
        isa.STAGED_CACHE_CAPACITY = max(256, isa.STAGED_CACHE_CAPACITY // factor)
        for cache in (isa._plan_cache, isa._compiled_cache):
            while len(cache) > isa.STAGED_CACHE_CAPACITY:
                del cache[next(iter(cache))]
        engine = isa._superblock_engine
        if engine is not None:
            for cache in (engine._step_info, engine._blocks):
                keep = len(cache) // factor
                while len(cache) > keep:
                    del cache[next(iter(cache))]

    def purge_snapshots(self) -> None:
        """Drop every pooled snapshot (fault injection: eviction storm).

        Sound by the eviction contract: later resume attempts miss and
        fall back to full re-execution, discovering the same path.
        """
        self.snapshot_pool.clear()

    def input_variables(self) -> list[T.Term]:
        variables = self.interpreter.input_variables()
        variables.extend(self.register_inputs.values())
        return variables
