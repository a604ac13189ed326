"""BinSym's symbolic modular interpreter.

This is the paper's core contribution in executable form: a second
interpreter for the *same* formal ISA specification that

* evaluates the specification's arithmetic/logic primitives in the
  concolic :class:`SymDomain` (the *encode* step of Fig. 1 — expression
  DSL ops map 1:1 onto SMT bitvector terms), and
* gives the stateful primitives a symbolic meaning: the register file
  holds :class:`SymValue`, memory pairs a concrete store with per-byte
  shadow terms, and ``RunIf``/``RunIfElse`` conditions are recorded in
  the path trace before being answered concretely (the *semanticize*
  step).

No instruction-specific code exists here — supporting a new instruction
(Sect. IV's MADD) requires zero changes, which the test-suite asserts.
"""

from __future__ import annotations

import weakref
from typing import Optional

from ..arch.hart import HaltReason, Hart
from ..arch.memory import ByteMemory, ShadowMemory
from ..loader.image import Image
from ..smt import terms as T
from ..smt.evalbv import evaluate
from ..spec.expr import Expr, Val, eval_expr
from ..spec.isa import ISA
from ..spec.staged import StagedStepper
from ..spec import fields
from ..spec.primitives import (
    DecodeAndReadBType,
    DecodeAndReadIType,
    DecodeAndReadR4Type,
    DecodeAndReadRType,
    DecodeAndReadSType,
    DecodeAndReadShamt,
    DecodeJType,
    DecodeUType,
    Ebreak,
    Ecall,
    Fence,
    LoadMem,
    ReadPC,
    ReadRegister,
    StoreMem,
    WritePC,
    WriteRegister,
)
from .concretize import ConcretizationPolicy, concretize_address
from .snapshots import SnapshotPool, StateSnapshot
from .state import InputAssignment, PathTrace, SymbolicInput
from .symvalue import SymDomain, SymValue

__all__ = ["SymbolicInterpreter"]

_WORD = 0xFFFFFFFF


class SymbolicInterpreter(StagedStepper):
    """One concolic execution of an RV32 program.

    The interpreter is reset per run via :meth:`reset`; symbolic input
    *variables* persist across runs (they identify input bytes), while
    their concrete values come from the run's :class:`InputAssignment`.
    The fetch/execute step loop (staged plans plus the ``--no-staging``
    ablation path) comes from :class:`~repro.spec.staged.StagedStepper`.
    """

    def __init__(
        self,
        isa: ISA,
        image: Image,
        concretization: ConcretizationPolicy = ConcretizationPolicy.PIN,
        force_terms: bool = False,
        staging: bool = True,
        superblocks: bool = True,
    ):
        self.isa = isa
        self.image = image
        self.domain = SymDomain(force_terms=force_terms)
        self.concretization = concretization
        self.staging = staging
        self._init_superblocks(superblocks)
        # Identifies SymDomain behaviour for the compiled-plan cache:
        # plans compiled for one SymDomain serve every instance with the
        # same force_terms setting (the domain is otherwise stateless).
        self._domain_key = ("sym", force_terms)
        # word -> (CompiledPlan | None, semantics generator function)
        self._exec_cache: dict[int, tuple] = {}
        # Stable input variables: (address -> SymbolicInput), shared
        # across runs so solver models translate into new inputs.
        self.inputs: dict[int, SymbolicInput] = {}
        # Per-run state, created in reset():
        self.memory: ByteMemory = ByteMemory()
        self.shadow: ShadowMemory[T.Term] = ShadowMemory()
        self.hart: Hart[SymValue] = Hart(zero_value=SymValue(0, 32))
        self.trace = PathTrace()
        self.assignment = InputAssignment()
        self.stdout = bytearray()
        self._current_word = 0
        self._next_pc = 0
        # Snapshot capture state (see configure_capture): stdout bytes
        # that are input-dependent carry their shadow term so a resumed
        # run can re-concretize them under a new assignment.
        self.stdout_shadow: list[tuple[int, T.Term]] = []
        self.captured: dict[int, int] = {}
        self._capture_pool: Optional[SnapshotPool] = None
        #: Called as ``sink(index, base)`` where capture is allowed (see
        #: :meth:`_note_flippable`); ``None`` while capture is disarmed.
        self._capture_sink = None
        self._capture_from = 0
        self._capture_instret = -1
        self._capture_base = 0
        self._capture_handle: Optional[int] = None
        self._snapshot_unsafe = False
        #: instret of the last state mutation / assumption record — the
        #: runtime check behind the capture layer's instruction-start
        #: invariant (see :meth:`_note_flippable`).
        self._effect_instret = -1

    # ------------------------------------------------------------------
    # Run management
    # ------------------------------------------------------------------

    def reset(self, assignment: Optional[InputAssignment] = None) -> None:
        """Prepare a fresh run under the given input assignment."""
        self.memory = ByteMemory()
        self.image.load_into(self.memory)
        self.shadow = ShadowMemory()
        self.hart = Hart(zero_value=SymValue(0, 32))
        self.hart.reset(self.image.entry)
        self.trace = PathTrace()
        self.assignment = assignment if assignment is not None else InputAssignment()
        self.stdout = bytearray()
        self.stdout_shadow = []
        self.captured = {}
        self._capture_instret = -1
        self._capture_handle = None
        self._snapshot_unsafe = False
        self._effect_instret = -1
        # Arm superblocks while memory holds the pristine image: the
        # input replay below then lands on *watched* pages, so inputs
        # overlapping block code force revalidation via the epoch guard.
        self._sb_begin_run(self.hart.pc)
        # Re-apply previously discovered input regions: inputs persist
        # across runs even if the program marks them only on the first
        # execution path that reaches make_symbolic.
        for sym_input in self.inputs.values():
            value = self.assignment.value_for(sym_input)
            self.memory.write_byte(sym_input.address, value)
            self.shadow.set(sym_input.address, sym_input.variable)

    def run(self, max_steps: int = 1_000_000) -> Hart:
        """Execute until halt; returns the hart with halt bookkeeping.

        The loop is bounded by retired instructions (``instret``), not
        iterations: superblock dispatch (``_sb_step``) retires several
        instructions per iteration, and ``_fuel_limit`` lets it
        deoptimize rather than overshoot, so OUT_OF_FUEL paths truncate
        at exactly the same instruction with superblocks on or off.
        Bare ``step()`` calls outside ``run`` always retire exactly one
        instruction.
        """
        hart = self.hart
        limit = hart.instret + max_steps
        self._fuel_limit = limit
        step = self._sb_step
        while hart.instret < limit:
            if hart.halted:
                return hart
            step()
        if hart.halted:
            return hart
        hart.halt(HaltReason.OUT_OF_FUEL)
        return hart

    # step() is inherited from StagedStepper.

    # ------------------------------------------------------------------
    # Copy-on-write snapshots (capture at branch records, resume later)
    # ------------------------------------------------------------------

    def configure_capture(
        self, pool: Optional[SnapshotPool], capture_from: int = 0
    ) -> None:
        """Arm (or disarm, ``pool=None``) snapshot capture for this run.

        While armed, every flippable branch record with index >=
        ``capture_from`` registers a :class:`StateSnapshot` of the
        machine state at the *start of the recording instruction* in
        ``pool``; :attr:`captured` maps record index -> pool handle.
        ``capture_from`` mirrors the exploration bound: records below it
        are never flipped, so their snapshots would be dead weight.
        """
        self._capture_pool = pool
        self._capture_from = capture_from
        self._capture_sink = self._capture_snapshot if pool is not None else None

    def capture_with(self, hook) -> None:
        """Arm a plain capture hook for this run instead of a pool.

        ``hook(index, base)`` is called as each flippable branch record
        ``index`` is made while the machine state still equals the
        state at the start of the recording instruction — the guards of
        :meth:`_note_flippable` apply unchanged — with ``base`` the
        index of that instruction's first record, i.e. the length of
        the trace prefix a run resumed there keeps.  ``None`` disarms.
        The certificate checker copies its reference state this way.
        """
        self._capture_pool = None
        self._capture_from = 0
        self._capture_sink = hook

    def _note_flippable(self) -> None:
        """Capture guard, called as each flippable branch is recorded.

        Machine state at this point still equals the state at the start
        of the current instruction: the formal semantics evaluate every
        ``RunIf``/``RunIfElse`` condition before any register or memory
        effect of the instruction (this holds for nested branches too,
        e.g. the div/rem zero- and overflow-checks), so resuming means
        re-executing the whole instruction — which re-derives this
        record and flips naturally under the new assignment.  All
        records one instruction produces therefore share one snapshot,
        whose trace prefix is truncated to the instruction start.

        The invariant is *checked*, not assumed: every mutating or
        assumption-recording primitive stamps ``_effect_instret``, so a
        custom instruction that writes state (or pins an address)
        before branching simply skips capture here — its children fall
        back to full re-execution instead of resuming corrupt state.
        Where capture is allowed, the armed sink gets the record: the
        snapshot pool's (:meth:`configure_capture`) or a plain hook
        (:meth:`capture_with`).
        """
        instret = self.hart.instret
        index = len(self.trace.records)
        if instret != self._capture_instret:
            self._capture_instret = instret
            self._capture_base = index
            self._capture_handle = None
        if index < self._capture_from or self._effect_instret == instret:
            return
        self._capture_sink(index, self._capture_base)

    def _capture_snapshot(self, index: int, base: int) -> None:
        """The snapshot pool's sink: one shared snapshot per instruction."""
        handle = self._capture_handle
        if handle is None:
            snapshot = StateSnapshot(
                pc=self.hart.pc,
                instret=self.hart.instret,
                pages=self.memory.snapshot_pages(),
                shadow=self.shadow.snapshot_state(),
                regs=tuple(self.hart.regs.snapshot()),
                records=tuple(self.trace.records[:base]),
                stdout=bytes(self.stdout),
                stdout_shadow=tuple(self.stdout_shadow),
                inputs_count=len(self.inputs),
                assignment=self.assignment,
                source=weakref.ref(self.memory),
            )
            handle = self._capture_pool.add(snapshot)
            if handle is None:
                # Over the whole pool budget: undo the page references
                # and stop capturing — resident state only grows, so
                # every later snapshot of this run would be rejected
                # (and rebuilt, and leaked) the same way.
                self.memory.release_pages(snapshot.pages)
                self._capture_pool = self._capture_sink = None
                return
            self._capture_handle = handle
        self.captured[index] = handle

    def resume(
        self,
        snapshot: StateSnapshot,
        assignment: InputAssignment,
        env: dict[T.Term, int],
        changed: set,
    ) -> None:
        """Restore a captured state, re-concretized under ``assignment``.

        ``env`` must assign every input variable; ``changed`` holds the
        variables whose value differs from ``snapshot.assignment``.
        Exactness rests on the concolic invariant: the new assignment
        satisfies the prefix path condition, so control flow up to the
        divergence point is identical to a full re-execution — term-free
        state is therefore input-independent and identical, and every
        term-carrying datum (registers, shadowed memory bytes, symbolic
        stdout bytes) holds its term's value under the capture-time
        assignment.  A term's value depends only on its free variables,
        so only the data whose term reads a ``changed`` variable are
        re-evaluated under ``env`` with the reference evaluator; the
        rest keep the snapshot's values, yielding exactly what the full
        re-execution would have computed.  Aliased snapshot pages are
        adopted copy-on-write; only the re-evaluated bytes' pages are
        privatized.
        """
        self.memory = ByteMemory.adopt(snapshot.pages)
        self.shadow = ShadowMemory.adopt(snapshot.shadow)
        hart: Hart[SymValue] = Hart(zero_value=SymValue(0, 32), pc=snapshot.pc)
        hart.instret = snapshot.instret
        regs = hart.regs
        unchanged = changed.isdisjoint
        for index, value in enumerate(snapshot.regs):
            term = value.term
            if index and term is not None and not unchanged(term.free_vars()):
                value = SymValue(evaluate(term, env), value.width, term)
            regs.write(index, value)
        self.hart = hart
        self.trace = PathTrace()
        self.trace.records = list(snapshot.records)
        self.assignment = assignment
        self.stdout = bytearray(snapshot.stdout)
        for offset, term in snapshot.stdout_shadow:
            if not unchanged(term.free_vars()):
                self.stdout[offset] = evaluate(term, env) & 0xFF
        memory = self.memory
        for address, term in snapshot.shadow.items():
            if not unchanged(term.free_vars()):
                memory.write_byte(address, evaluate(term, env))
        self.stdout_shadow = list(snapshot.stdout_shadow)
        self.captured = {}
        self._capture_instret = -1
        self._capture_handle = None
        self._snapshot_unsafe = False
        self._effect_instret = -1
        # Resumes start mid-path (at a branch instruction, never a block
        # entry), so they don't count toward entry hotness; and their
        # memory descends from a mid-run capture whose code bytes may
        # differ from the last run's, so resolutions are revalidated.
        self._sb_begin_run(revalidate=True)

    def restore(
        self,
        pc: int,
        instret: int,
        memory: ByteMemory,
        shadow: ShadowMemory,
        regs: list,
        records: list,
        stdout: bytearray,
        stdout_shadow: list,
        assignment: InputAssignment,
    ) -> None:
        """Start a run mid-path from state the caller owns outright.

        The certificate checker's resume.  Unlike :meth:`resume`, which
        adopts a snapshot copy-on-write and re-concretizes it, this
        installs structures the caller built itself and shares with no
        one: ``pc`` and ``instret`` of an instruction start, the 32
        register values, the trace prefix, stdout and its shadow terms.
        """
        self.memory = memory
        self.shadow = shadow
        hart: Hart[SymValue] = Hart(zero_value=SymValue(0, 32), pc=pc)
        hart.instret = instret
        for index, value in enumerate(regs):
            hart.regs.write(index, value)
        self.hart = hart
        self.trace = PathTrace()
        self.trace.records = records
        self.assignment = assignment
        self.stdout = stdout
        self.stdout_shadow = stdout_shadow
        self.captured = {}
        self._capture_instret = -1
        self._capture_handle = None
        self._snapshot_unsafe = False
        self._effect_instret = -1
        self._sb_begin_run(revalidate=True)

    # ------------------------------------------------------------------
    # Symbolic input marking (the make_symbolic ecall / harness hook)
    # ------------------------------------------------------------------

    def make_symbolic(self, base: int, length: int) -> None:
        """Mark ``length`` bytes at ``base`` as symbolic input."""
        for offset in range(length):
            address = (base + offset) & _WORD
            sym_input = self.inputs.get(address)
            if sym_input is None:
                variable = T.bv_var(f"in_{address:08x}", 8)
                sym_input = SymbolicInput(
                    address, variable, self.memory.read_byte(address)
                )
                self.inputs[address] = sym_input
            value = self.assignment.value_for(sym_input)
            self.memory.write_byte(address, value)
            self.shadow.set(address, sym_input.variable)

    def input_variables(self) -> list[T.Term]:
        return [sym_input.variable for sym_input in self.inputs.values()]

    # ------------------------------------------------------------------
    # Platform hooks (HostPlatform-compatible, see concrete.syscalls)
    # ------------------------------------------------------------------

    def read_register_int(self, index: int) -> int:
        return self.hart.regs.read(index).concrete

    def write_register_int(self, index: int, value: int) -> None:
        self.hart.regs.write(index, SymValue(value & _WORD, 32))

    def halt_exit(self, code: int) -> None:
        self.hart.halt(HaltReason.EXIT, exit_code=code)

    def _consumes_symbolic(self, *indices: int) -> bool:
        """Snapshot-safety guard for syscalls.

        Syscalls consume register values *concretely* without pinning
        them in the trace; if a consumed register is input-dependent,
        downstream state is no longer re-derivable from terms alone, so
        capture is disabled for the rest of the run — children past
        this point simply fall back to full re-execution.
        """
        return any(self.hart.regs.read(index).term is not None for index in indices)

    def _ecall(self) -> None:
        from ..concrete.syscalls import SYS_EXIT, SYS_MAKE_SYMBOLIC, SYS_WRITE

        self._effect_instret = self.hart.instret
        number = self.read_register_int(17)  # a7
        if self._consumes_symbolic(17):
            self._snapshot_unsafe = True
        if number == SYS_EXIT:
            self.halt_exit(self.read_register_int(10))
        elif number == SYS_WRITE:
            if self._consumes_symbolic(11, 12):
                self._snapshot_unsafe = True
            base = self.read_register_int(11)
            length = self.read_register_int(12)
            if self._capture_sink is not None:
                # Input-dependent output bytes keep their shadow term
                # so a resume (from a snapshot or a certificate
                # checker's copy) can re-concretize the captured stdout;
                # with capture disarmed nothing can consume the overlay
                # scan, so skip it.
                offset = len(self.stdout)
                shadow = self.shadow
                for i in range(length):
                    term = shadow.get(base + i)
                    if term is not None:
                        self.stdout_shadow.append((offset + i, term))
            self.stdout.extend(self.memory.read_bytes(base, length))
            self.write_register_int(10, length)
        elif number == SYS_MAKE_SYMBOLIC:
            if self._consumes_symbolic(10, 11):
                self._snapshot_unsafe = True
            self.make_symbolic(self.read_register_int(10), self.read_register_int(11))
        else:
            raise ValueError(f"unknown syscall number {number}")

    # ------------------------------------------------------------------
    # Symbolic memory
    # ------------------------------------------------------------------

    def _load(self, address: int, width: int) -> SymValue:
        parts = []
        for i in range(width // 8):
            byte_addr = (address + i) & _WORD
            concrete = self.memory.read_byte(byte_addr)
            shadow = self.shadow.get(byte_addr)
            parts.append(SymValue(concrete, 8, shadow))
        return self.domain.concat_bytes(parts)

    def _store(self, address: int, value: SymValue, width: int) -> None:
        for i in range(width // 8):
            byte_addr = (address + i) & _WORD
            self.memory.write_byte(byte_addr, (value.concrete >> (8 * i)) & 0xFF)
            if value.term is None:
                self.shadow.set(byte_addr, None)
            else:
                self.shadow.set(
                    byte_addr, T.extract(value.term, 8 * i + 7, 8 * i)
                )

    # ------------------------------------------------------------------
    # PlanHost interface: staged replay over concolic machine state.
    # Each method is the staged twin of the matching `handle` case and
    # must stay behaviourally identical to it (the differential tests in
    # tests/test_staged.py pin this).
    # ------------------------------------------------------------------

    def plan_reg(self, index: int) -> SymValue:
        return self.hart.regs.read(index)

    def plan_pc(self) -> SymValue:
        return SymValue(self.hart.pc, 32)

    def plan_load(self, width: int, address: SymValue) -> SymValue:
        if address.term is not None:
            # Concretization may pin an assumption record; a capture
            # later in the same instruction must not claim
            # instruction-start state (see _note_flippable).
            self._effect_instret = self.hart.instret
        concrete_addr = concretize_address(
            address, self.concretization, self.trace, self.hart.pc
        )
        return self._load(concrete_addr, width)

    def plan_write_reg(self, index: int, value: SymValue) -> None:
        self._effect_instret = self.hart.instret
        self.hart.regs.write(index, value)

    def plan_write_pc(self, value: SymValue) -> None:
        self._effect_instret = self.hart.instret
        if value.term is not None:
            pinned = T.eq(value.term, T.bv(value.concrete, 32))
            self.trace.add_assumption(pinned, self.hart.pc)
        self._next_pc = value.concrete

    def plan_store(self, width: int, address: SymValue, value: SymValue) -> None:
        self._effect_instret = self.hart.instret
        concrete_addr = concretize_address(
            address, self.concretization, self.trace, self.hart.pc
        )
        self._store(concrete_addr, value, width)

    def plan_branch(self, value: SymValue) -> bool:
        """Staged twin of :meth:`branch`: the condition is pre-evaluated."""
        taken = bool(value.concrete)
        if value.term is not None and not value.term.is_const:
            if self._capture_sink is not None and not self._snapshot_unsafe:
                self._note_flippable()
            self.trace.add_branch(value.condition_term(), self.hart.pc, taken)
        return taken

    def plan_ecall(self) -> None:
        self._ecall()

    def plan_ebreak(self) -> None:
        self.hart.halt(HaltReason.EBREAK)

    def plan_fence(self) -> None:
        pass

    # ------------------------------------------------------------------
    # Handler interface
    # ------------------------------------------------------------------

    def _reg_leaf(self, index: int) -> Val:
        return Val(self.hart.regs.read(index), 32)

    def _eval(self, expr: Expr) -> SymValue:
        return eval_expr(expr, self.domain)

    def branch(self, cond: Expr) -> bool:
        """Record a symbolic branch decision; answer concolically."""
        value = self._eval(cond)
        taken = bool(value.concrete)
        # Constant terms (possible under force_terms) are not symbolic
        # decisions — only record conditions the solver could flip.
        if value.term is not None and not value.term.is_const:
            if self._capture_sink is not None and not self._snapshot_unsafe:
                self._note_flippable()
            self.trace.add_branch(value.condition_term(), self.hart.pc, taken)
        return taken

    def handle(self, primitive):
        word = self._current_word
        if isinstance(primitive, DecodeAndReadRType):
            return (
                self._reg_leaf(fields.rs1(word)),
                self._reg_leaf(fields.rs2(word)),
                fields.rd(word),
            )
        if isinstance(primitive, DecodeAndReadR4Type):
            return (
                self._reg_leaf(fields.rs1(word)),
                self._reg_leaf(fields.rs2(word)),
                self._reg_leaf(fields.rs3(word)),
                fields.rd(word),
            )
        if isinstance(primitive, DecodeAndReadIType):
            return (
                Val(fields.imm_i(word), 32),
                self._reg_leaf(fields.rs1(word)),
                fields.rd(word),
            )
        if isinstance(primitive, DecodeAndReadShamt):
            return (
                Val(fields.shamt(word), 32),
                self._reg_leaf(fields.rs1(word)),
                fields.rd(word),
            )
        if isinstance(primitive, DecodeAndReadSType):
            return (
                Val(fields.imm_s(word), 32),
                self._reg_leaf(fields.rs1(word)),
                self._reg_leaf(fields.rs2(word)),
            )
        if isinstance(primitive, DecodeAndReadBType):
            return (
                Val(fields.imm_b(word), 32),
                self._reg_leaf(fields.rs1(word)),
                self._reg_leaf(fields.rs2(word)),
            )
        if isinstance(primitive, DecodeUType):
            return Val(fields.imm_u(word), 32), fields.rd(word)
        if isinstance(primitive, DecodeJType):
            return Val(fields.imm_j(word), 32), fields.rd(word)
        if isinstance(primitive, ReadRegister):
            return self._reg_leaf(primitive.index)
        if isinstance(primitive, WriteRegister):
            self._effect_instret = self.hart.instret
            self.hart.regs.write(primitive.index, self._eval(primitive.value))
            return None
        if isinstance(primitive, ReadPC):
            return Val(SymValue(self.hart.pc, 32), 32)
        if isinstance(primitive, WritePC):
            self._effect_instret = self.hart.instret
            target = self._eval(primitive.value)
            if target.term is not None:
                # Indirect jump through symbolic data: concretize like a
                # memory address (pin under the PIN policy).
                pinned = T.eq(target.term, T.bv(target.concrete, 32))
                self.trace.add_assumption(pinned, self.hart.pc)
            self._next_pc = target.concrete
            return None
        if isinstance(primitive, LoadMem):
            address = self._eval(primitive.addr)
            if address.term is not None:
                self._effect_instret = self.hart.instret
            concrete_addr = concretize_address(
                address, self.concretization, self.trace, self.hart.pc
            )
            return Val(self._load(concrete_addr, primitive.width), primitive.width)
        if isinstance(primitive, StoreMem):
            self._effect_instret = self.hart.instret
            address = self._eval(primitive.addr)
            concrete_addr = concretize_address(
                address, self.concretization, self.trace, self.hart.pc
            )
            self._store(concrete_addr, self._eval(primitive.value), primitive.width)
            return None
        if isinstance(primitive, Ecall):
            self._ecall()
            return None
        if isinstance(primitive, Ebreak):
            self.hart.halt(HaltReason.EBREAK)
            return None
        if isinstance(primitive, Fence):
            return None
        raise NotImplementedError(f"unhandled primitive {primitive!r}")
