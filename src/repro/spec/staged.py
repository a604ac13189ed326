"""Staging layer: partial evaluation of the formal ISA semantics.

The paper's architecture pays interpreter overhead for accuracy: every
executed instruction re-drives its semantics *generator* and re-walks
its specification ``Expr`` trees through :func:`repro.spec.expr.eval_expr`'s
isinstance chain.  This module removes that overhead *without touching
the specification*: each decoded instruction word is partially evaluated
once, yielding a specialized executor that is replayed on every
subsequent execution — the classic first Futamura projection, applied to
the free-monad semantics.

Three cooperating pieces:

``record_plan``
    Drives an instruction's semantics generator exactly once with a
    *staging handler* that answers the decode/read primitives with
    abstract :class:`~repro.spec.expr.SlotRef` leaves instead of live
    machine state.  The recorded :class:`Plan` is the instruction's
    primitive sequence with register/pc/memory reads abstracted into
    numbered slots.  Specification-level control flow
    (``RunIf``/``RunIfElse``, e.g. the RV32M division edge cases) is
    recorded as a *guarded sub-plan*: both arms are staged eagerly
    (recording is pure — no interpreter state is touched) and replay
    asks the host's ``plan_branch`` — the staged twin of
    ``Handler.branch`` — which arm to run, preserving concolic branch
    recording and execution forking exactly.  Semantics yielding a
    primitive the recorder does not know return ``None`` and the
    interpreters keep driving the generator.  Plans are shared
    process-wide and survive ``fork`` into exploration workers.

:class:`Emitter`
    Writes a plan as Python source: one straight-line function whose
    slots are locals — no recursion, no isinstance dispatch and no
    closure per node at evaluation time.  For the integer domain and
    the concolic domain each spec ``Expr`` DAG is one integer
    expression, the concolic one behind a ``term is None`` test, and
    register, PC and branch steps touch machine state directly; values
    that carry a term, and every value of any other domain, go through
    nested calls of operator functions resolved at emit time (domains
    may expose ``specialize_binop``/``specialize_cmpop``/
    ``specialize_unop`` hooks returning pre-dispatched operator
    functions; absent those the emitter falls back to the generic
    protocol methods).  The superblock engine
    (:mod:`repro.spec.superblock`) emits whole traces the same way.

``bind_plan``
    Specializes a plan for one evaluation domain, producing a
    :class:`CompiledPlan` whose emitted function invokes the
    :class:`PlanHost` callbacks an interpreter provides (register file,
    memory, pc, environment calls).  One compiled plan serves every
    interpreter instance sharing that domain configuration — the
    binding is cached on the :class:`~repro.spec.isa.ISA`.

The DSL-facing API is untouched: instruction semantics remain plain
generator functions over :mod:`repro.spec.primitives`, and a new
instruction (Sect. IV's MADD) is staged automatically with zero changes
here or anywhere else.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Optional, Protocol

from . import fields
from .decoder import IllegalInstruction
from .dsl import execute_semantics
from .expr import (
    COMPARISON_OPS,
    BinOp,
    Expr,
    Ext,
    Extract,
    Imm,
    Ite,
    SlotRef,
    UnOp,
    Val,
)
from .primitives import (
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
    RunIf,
    RunIfElse,
    StoreMem,
    WritePC,
    WriteRegister,
)

__all__ = [
    "Plan",
    "CompiledPlan",
    "PlanHost",
    "StagedStepper",
    "record_plan",
    "bind_plan",
]

#: Superblock-map sentinel: the PC is a known block entry but no block
#: has been resolved for it yet this run (see ``_sb_dispatch``).
_SB_PENDING = object()

#: ``_fuel_limit`` default: effectively unlimited until ``run`` installs
#: the real budget (kept an int so the dispatch comparison stays cheap).
_NO_FUEL_LIMIT = 1 << 62


class PlanHost(Protocol):
    """Callbacks a modular interpreter provides for plan replay.

    These are the staged counterparts of the stateful primitives: the
    compiled plan calls them in recorded order with already-evaluated
    domain values, so an interpreter implements each as a direct state
    access with no expression wrapping.

    The emitted-code contract.  Code emitted for a domain without an
    inlined form makes every step a callback.  Code emitted for
    :class:`~repro.concrete.interpreter.IntDomain`, or for a concolic
    domain without ``force_terms``, makes callbacks only for loads,
    stores, ``ecall``/``ebreak``/``fence`` and for register writes, PC
    writes and branch conditions whose value carries a term.  Register
    reads and every other register write index ``hart.regs.values``
    directly, PC reads and writes use ``hart.pc`` and ``_next_pc``, a
    term-free branch decides without :meth:`plan_branch`, and the
    concolic host's ``_effect_instret`` is stamped directly where a
    later branch of the same plan can read it (see :class:`Emitter`).
    So the host must keep its state in those attributes; that code
    bypasses an override of ``plan_reg`` or ``plan_pc``, and one of
    ``plan_write_reg``, ``plan_write_pc`` or ``plan_branch`` sees only
    the values that carry a term.  Trace
    records, capture points, terms and all machine state are those of
    the all-callback form; the number and order of domain calls are not.
    """

    def plan_reg(self, index: int) -> Any: ...

    def plan_pc(self) -> Any: ...

    def plan_load(self, width: int, address: Any) -> Any: ...

    def plan_write_reg(self, index: int, value: Any) -> None: ...

    def plan_write_pc(self, value: Any) -> None: ...

    def plan_store(self, width: int, address: Any, value: Any) -> None: ...

    def plan_branch(self, value: Any) -> bool: ...

    def plan_ecall(self) -> None: ...

    def plan_ebreak(self) -> None: ...

    def plan_fence(self) -> None: ...


class StagedStepper:
    """Mixin: the staged fetch/execute step loop of an interpreter.

    Shared by the concrete and symbolic interpreters (any
    :class:`PlanHost` with ``isa``/``memory``/``hart``/``domain`` state
    and ``_current_word``/``_next_pc`` bookkeeping).  The host class
    sets ``staging``, an empty ``_exec_cache`` dict and a
    ``_domain_key`` identifying its domain behaviour; everything else —
    the staged/ablation split, the per-word memo and its backstop cap —
    lives here once, so the two execution modes cannot silently diverge
    between interpreters.
    """

    #: Backstop for the per-interpreter word memo, matching the capped
    #: decode/plan caches it sits in front of (only self-modifying code
    #: executing very many distinct words could ever approach it).
    EXEC_CACHE_CAPACITY = 1 << 17

    def set_staging(self, staging: bool) -> None:
        """Toggle staged execution.  Clears this interpreter's word memo,
        whose entries hold plans only while staging is on."""
        self.staging = staging
        self._exec_cache.clear()
        self._sb_map = None

    # ------------------------------------------------------------------
    # Superblock execution (see repro.spec.superblock)
    # ------------------------------------------------------------------

    def _init_superblocks(self, enabled: bool) -> None:
        """Constructor hook: superblock state and counters."""
        self._sb_enabled = enabled
        self._sb_engine = None
        #: entry_pc -> _SB_PENDING | Superblock | False.  Persists
        #: across runs (resolutions are revalidated, not redone, when a
        #: run can have changed the code bytes); ``None`` while
        #: superblocks are off (the step-loop fast check).
        self._sb_map: Optional[dict] = None
        #: Union of code pages of every block this interpreter resolved;
        #: re-watched on each run's memory so self-modifying writes keep
        #: bumping ``code_epoch`` even though the resolutions persist.
        self._sb_pages: set = set()
        #: The memory the map was last validated against, and whether a
        #: code-epoch bump was ever *observed* (dispatch re-resolves and
        #: re-syncs the epoch, so the flag outlives the mismatch).
        self._sb_memory = None
        self._sb_dirty = False
        self._sb_epoch = 0
        self._fuel_limit = _NO_FUEL_LIMIT
        self.sb_hits = 0
        self.sb_instructions = 0
        self.sb_blocks_built = 0
        self.sb_block_cache_hits = 0
        self.sb_deopts = 0
        self.sb_invalidations = 0
        self.sb_unstitchable = 0

    def set_superblocks(self, enabled: bool) -> None:
        """Toggle superblock execution (takes effect at next run start)."""
        self._sb_enabled = enabled
        self._sb_map = None

    def note_hot_branches(self, pcs) -> None:
        """Driver feedback: branch PCs whose cumulative executions
        crossed the hotness threshold.  Their successor PCs become block
        entries as the step loop observes them being taken."""
        self.isa.superblocks.note_hot_branches(pcs)

    def _sb_begin_run(
        self, entry_pc: Optional[int] = None, revalidate: bool = False
    ) -> None:
        """Arm superblock dispatch for a fresh run.

        Called after reset/image-load/snapshot-resume, when ``memory``
        holds the run's *code* bytes (symbolic-input replay may still
        follow — its writes land on watched pages and are caught by the
        epoch guard).  ``entry_pc`` counts toward entry hotness when
        given (``None`` for snapshot resumes, which start mid-path at a
        branch, never at a block entry).

        The map persists across runs.  Every entry is demoted to pending
        (the first dispatch re-reads the words) when a code write was
        observed (``_sb_dirty``, or an epoch bump after the last
        dispatch) or when some page in ``_sb_pages`` holds different
        bytes in ``memory`` than in ``_sb_memory``, the memory the map
        was validated against.  Otherwise every resolved block stays
        valid: it is guarded by the exact words it was stitched from,
        and all of them lie on its pages, which are in ``_sb_pages``.
        ``revalidate=True`` (snapshot resumes, whose memory descends
        from a mid-run capture) still demotes the ``False``
        (unstitchable) entries, whose scans may have read other pages.
        """
        if not (self._sb_enabled and self.staging):
            self._sb_map = None
            return
        engine = self.isa.superblocks
        self._sb_engine = engine
        if entry_pc is not None:
            engine.note_run_entry(entry_pc)
        memory = self.memory
        sb_map = self._sb_map
        if sb_map is None:
            self._sb_map = dict.fromkeys(engine.entries, _SB_PENDING)
        else:
            old = self._sb_memory
            if (
                self._sb_dirty
                or old.code_epoch != self._sb_epoch
                or not memory.same_pages(old, self._sb_pages)
            ):
                for key in sb_map:
                    sb_map[key] = _SB_PENDING
            elif revalidate:
                for key, entry in sb_map.items():
                    if entry is False:
                        sb_map[key] = _SB_PENDING
            if len(sb_map) < len(engine.entries):
                for pc in engine.entries:
                    if pc not in sb_map:
                        sb_map[pc] = _SB_PENDING
        memory.watch_pages(self._sb_pages)
        self._sb_memory = memory
        self._sb_dirty = False
        self._sb_epoch = memory.code_epoch

    def _sb_resolve(self, pc: int):
        """Resolve the map entry at ``pc`` to a validated block."""
        block, built = self._sb_engine.acquire(
            pc, self.memory, self.domain, self._domain_key
        )
        if block is None:
            self.sb_unstitchable += 1
            self._sb_map[pc] = False
            return False
        if built:
            self.sb_blocks_built += 1
        else:
            self.sb_block_cache_hits += 1
        self._sb_pages.update(block.pages)
        self.memory.watch_pages(block.pages)
        sb_map = self._sb_map
        sb_map[pc] = block
        if block.side_exits:
            # Mispredicted branches land on block entries too: promote
            # every alternative successor so the dispatch loop picks up
            # again right after a side exit.
            engine_entries = self._sb_engine.entries
            for target in block.side_exits:
                engine_entries.add(target)
                if target not in sb_map:
                    sb_map[target] = _SB_PENDING
        return block

    def _sb_dispatch(self, entry, pc: int):
        """Guards between a map hit and block execution.

        Returns a runnable block or ``None`` to deoptimize to the
        per-instruction path.  Guard order: code-epoch (self-modifying
        writes force re-resolution of every cached entry), resolution,
        then the fuel guard — a block that would overshoot the run's
        instruction budget deoptimizes so OUT_OF_FUEL paths truncate at
        exactly the same instruction with superblocks on or off.
        """
        if self.memory.code_epoch != self._sb_epoch:
            self.sb_invalidations += 1
            self._sb_dirty = True
            sb_map = self._sb_map
            for key in sb_map:
                sb_map[key] = _SB_PENDING
            self._sb_epoch = self.memory.code_epoch
            entry = _SB_PENDING
        if entry is _SB_PENDING:
            entry = self._sb_resolve(pc)
        if entry is False:
            return None
        if self.hart.instret + entry.length > self._fuel_limit:
            self.sb_deopts += 1
            return None
        return entry

    def _sb_step(self) -> None:
        """One ``run``-loop iteration: a superblock if one starts at the
        current PC, else a single :meth:`step`.

        Only the run loop dispatches superblocks — :meth:`step` itself
        always retires exactly one instruction, so external per-step
        drivers (the tracer, the VP's fetch-transaction hook, tests
        stepping N times) keep their contract regardless of the
        superblock setting.
        """
        hart = self.hart
        sb_map = self._sb_map
        if sb_map is not None:
            entry = sb_map.get(hart.pc)
            if entry is not None:
                block = self._sb_dispatch(entry, hart.pc)
                if block is not None:
                    self.sb_hits += 1
                    before = hart.instret
                    block.execute(self)
                    # Side exits retire fewer than block.length; count
                    # what actually ran.
                    self.sb_instructions += hart.instret - before
                    return
        self.step()

    def step(self) -> None:
        """Fetch, decode and execute a single instruction."""
        hart = self.hart
        if hart.halted:
            return
        pc = hart.pc
        sb_map = self._sb_map
        word = self.memory.read_word(pc)
        entry = self._exec_cache.get(word)
        if entry is None:
            entry = self._lookup(word, pc)
        self._current_word = word
        self._next_pc = (pc + 4) & 0xFFFFFFFF
        plan = entry[0]
        if plan is not None:
            plan.run(self)
        else:
            execute_semantics(entry[1](), self)
        hart.instret += 1
        if not hart.halted:
            target = self._next_pc
            hart.pc = target
            if sb_map is not None and (
                target < pc or pc in self._sb_engine.hot_branches
            ):
                # Two promotion rules make branch successors block
                # entries: a taken *backward* edge marks a loop header
                # (the classic trace-JIT heuristic — works without any
                # driver feedback, e.g. in the concrete interpreter),
                # and the exploration driver feeds branch PCs whose
                # cumulative flippable-hit counts crossed the hotness
                # threshold (covers hot *forward* arms across runs).
                # Either way the blocks on both arms get stitched as
                # execution takes them, so the deopt at the branch
                # costs one dispatch.
                if target not in sb_map:
                    self._sb_engine.entries.add(target)
                    sb_map[target] = _SB_PENDING

    def _decode_or_halt(self, word: int, pc: int):
        try:
            return self.isa.decoder.decode(word, pc)
        except IllegalInstruction:
            # Cold path; imported here so the spec package stays free of
            # module-level dependencies on the machine-state layer.
            from ..arch.hart import HaltReason

            self.hart.halt(HaltReason.ILLEGAL)
            raise

    def _lookup(self, word: int, pc: int) -> tuple:
        """Decode ``word`` and memoize its execution strategy: its
        compiled plan, or ``None`` with staging off (``--no-staging``)
        or where the semantics cannot be staged, and its semantics."""
        decoded = self._decode_or_halt(word, pc)
        plan = None
        if self.staging:
            plan = self.isa.compiled_plan(
                word, decoded.name, self.domain, self._domain_key
            )
        entry = (plan, self.isa.semantics_for(decoded.name))
        if len(self._exec_cache) >= self.EXEC_CACHE_CAPACITY:
            self._exec_cache.clear()
        self._exec_cache[word] = entry
        return entry


class Plan:
    """A recorded straight-line primitive sequence for one word.

    ``steps`` is a tuple of tagged tuples (see :class:`_PlanRecorder`);
    expressions inside the steps reference :class:`SlotRef` leaves, the
    values numbered reads produced earlier in the same execution.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: tuple):
        self.steps = steps


class _Unstageable(Exception):
    """Raised during recording when semantics are not straight-line."""


class _PlanRecorder:
    """The staging handler: answers primitives with slot references."""

    __slots__ = ("word", "steps", "n_slots")

    def __init__(self, word: int):
        self.word = word
        self.steps: list = []
        self.n_slots = 0

    def _reg(self, index: int) -> SlotRef:
        slot = self.n_slots
        self.n_slots = slot + 1
        self.steps.append(("reg", slot, index))
        return SlotRef(slot, 32)

    def record(self, primitive) -> Any:
        word = self.word
        kind = type(primitive)
        if kind is DecodeAndReadRType:
            return (
                self._reg(fields.rs1(word)),
                self._reg(fields.rs2(word)),
                fields.rd(word),
            )
        if kind is DecodeAndReadR4Type:
            return (
                self._reg(fields.rs1(word)),
                self._reg(fields.rs2(word)),
                self._reg(fields.rs3(word)),
                fields.rd(word),
            )
        if kind is DecodeAndReadIType:
            return (
                Imm(fields.imm_i(word), 32),
                self._reg(fields.rs1(word)),
                fields.rd(word),
            )
        if kind is DecodeAndReadShamt:
            return (
                Imm(fields.shamt(word), 32),
                self._reg(fields.rs1(word)),
                fields.rd(word),
            )
        if kind is DecodeAndReadSType:
            return (
                Imm(fields.imm_s(word), 32),
                self._reg(fields.rs1(word)),
                self._reg(fields.rs2(word)),
            )
        if kind is DecodeAndReadBType:
            return (
                Imm(fields.imm_b(word), 32),
                self._reg(fields.rs1(word)),
                self._reg(fields.rs2(word)),
            )
        if kind is DecodeUType:
            return Imm(fields.imm_u(word), 32), fields.rd(word)
        if kind is DecodeJType:
            return Imm(fields.imm_j(word), 32), fields.rd(word)
        if kind is ReadRegister:
            return self._reg(primitive.index)
        if kind is ReadPC:
            slot = self.n_slots
            self.n_slots = slot + 1
            self.steps.append(("pc", slot))
            return SlotRef(slot, 32)
        if kind is LoadMem:
            slot = self.n_slots
            self.n_slots = slot + 1
            self.steps.append(("load", slot, primitive.width, primitive.addr))
            return SlotRef(slot, primitive.width)
        if kind is WriteRegister:
            self.steps.append(("wreg", primitive.index, primitive.value))
            return None
        if kind is WritePC:
            self.steps.append(("wpc", primitive.value))
            return None
        if kind is StoreMem:
            self.steps.append(
                ("store", primitive.width, primitive.addr, primitive.value)
            )
            return None
        if kind is Ecall:
            self.steps.append(("ecall",))
            return None
        if kind is Ebreak:
            self.steps.append(("ebreak",))
            return None
        if kind is Fence:
            self.steps.append(("fence",))
            return None
        if kind is RunIfElse:
            self.steps.append(
                (
                    "cond",
                    primitive.cond,
                    self._record_block(primitive.then_block),
                    self._record_block(primitive.else_block),
                )
            )
            return None
        if kind is RunIf:
            self.steps.append(
                ("cond", primitive.cond, self._record_block(primitive.block), ())
            )
            return None
        raise _Unstageable  # unknown primitive: conservatively interpret

    def _record_block(self, thunk: Optional[Callable]) -> tuple:
        """Record a RunIf/RunIfElse arm into its own step tuple.

        Both arms are recorded eagerly; recording has no machine-state
        effects, so staging the arm the concrete run would not take is
        free.  Slots are allocated from the shared counter — at replay
        only the taken arm's steps populate theirs.
        """
        if thunk is None:
            return ()
        saved = self.steps
        self.steps = []
        try:
            _drive_recording(thunk(), self)
            return tuple(self.steps)
        finally:
            self.steps = saved


def _drive_recording(generator, recorder: _PlanRecorder) -> None:
    """Drive a semantics (sub-)generator against the staging handler."""
    answer: Any = None
    while True:
        try:
            primitive = generator.send(answer)
        except StopIteration:
            return
        answer = recorder.record(primitive)


def record_plan(semantics_fn: Callable, word: int) -> Optional[Plan]:
    """Stage one instruction word; ``None`` when it cannot be staged."""
    recorder = _PlanRecorder(word)
    generator = semantics_fn()
    try:
        _drive_recording(generator, recorder)
    except _Unstageable:
        generator.close()
        return None
    return Plan(tuple(recorder.steps))




# ---------------------------------------------------------------------------
# Code emission: plans (and superblocks) as Python source
# ---------------------------------------------------------------------------


def _binop_fn(domain, op: str, width: int) -> Callable:
    specialize = getattr(domain, "specialize_binop", None)
    if specialize is not None:
        return specialize(op, width)
    generic = domain.binop
    return lambda lhs, rhs: generic(op, lhs, rhs, width)


def _cmpop_fn(domain, op: str, width: int) -> Callable:
    specialize = getattr(domain, "specialize_cmpop", None)
    if specialize is not None:
        return specialize(op, width)
    generic = domain.cmpop
    return lambda lhs, rhs: generic(op, lhs, rhs, width)


def _unop_fn(domain, op: str, width: int) -> Callable:
    specialize = getattr(domain, "specialize_unop", None)
    if specialize is not None:
        return specialize(op, width)
    generic = domain.unop
    return lambda arg: generic(op, arg, width)


#: Integer source of binary operators over unsigned operands ``a`` and
#: ``b``, with result mask ``m`` and operand sign bit ``s``; each equals
#: the :mod:`repro.smt.bvops` function of the same name.  A shift is
#: written out only while its amount is known to be below the width
#: (:func:`_below`); other operators call the domain's integer function.
_INT_BINOPS = {
    "add": "(({a} + {b}) & {m:#x})",
    "sub": "(({a} - {b}) & {m:#x})",
    "mul": "(({a} * {b}) & {m:#x})",
    "and": "({a} & {b})",
    "or": "({a} | {b})",
    "xor": "({a} ^ {b})",
}
_INT_SHIFTS = {
    "shl": "(({a} << {b}) & {m:#x})",
    "lshr": "({a} >> {b})",
    "ashr": "(((({a} ^ {s:#x}) - {s:#x}) >> {b}) & {m:#x})",
}

#: Comparisons as Python conditions.  Flipping the sign bit maps signed
#: order onto unsigned order, so signed ones compare ``a ^ s``.
_CONDITIONS = {
    "eq": "{a} == {b}",
    "ne": "{a} != {b}",
    "ult": "{a} < {b}",
    "ule": "{a} <= {b}",
    "ugt": "{a} > {b}",
    "uge": "{a} >= {b}",
    "slt": "({a} ^ {s:#x}) < ({b} ^ {s:#x})",
    "sle": "({a} ^ {s:#x}) <= ({b} ^ {s:#x})",
    "sgt": "({a} ^ {s:#x}) > ({b} ^ {s:#x})",
    "sge": "({a} ^ {s:#x}) >= ({b} ^ {s:#x})",
}


#: Operators with a unit the emitter folds away (see ``Emitter._peel``):
#: 0 on either side, on the right only for ``sub``; all-ones for ``and``.
_IDENTITY_OPS = frozenset({"add", "sub", "or", "xor", "and"})


def _below(amount: Expr, width: int) -> bool:
    """True when a shift amount is an immediate, or masked by one,
    below ``width``."""
    if type(amount) is Imm:
        return amount.value & ((1 << amount.width) - 1) < width
    if type(amount) is BinOp and amount.op == "and":
        return any(
            type(side) is Imm and side.value & ((1 << side.width) - 1) < width
            for side in (amount.lhs, amount.rhs)
        )
    return False


class Emitter:
    """Writes one Python function over one evaluation domain.

    The function takes the :class:`PlanHost` as ``host`` and keeps
    slot values in locals ``s0``, ``s1``, ...  Everything else the code
    needs — folded constants, operator functions, the domain's bound
    methods, leaf values — enters through the function's namespace
    under a name picked here (``add32``, ``ext``, ``c3`` ...), so the
    source holds only those names, locals and int literals.
    :func:`bind_plan` emits one plan; the superblock engine emits a
    whole trace into one function, with its guards between the plans.

    Domain calls.  Expressions are written as nested calls: a shared
    sub-DAG is evaluated once per reference and ``Ite`` arms eagerly,
    in the order :func:`~repro.spec.expr.eval_expr` uses.  Every plan
    step is a :class:`PlanHost` callback.  A domain without an
    ``inline`` attribute, or with ``inline = None`` (a
    ``force_terms`` :class:`~repro.core.symvalue.SymDomain`), gets only
    this form.

    Inlined form.  A domain whose ``inline`` is ``"int"`` (values are
    ints) or ``"sym"`` (values are concolic: a ``concrete`` int and a
    ``term`` that is ``None`` when input-independent) also names its
    integer operator functions (``int_binops``), and a ``"sym"`` domain
    the constructor of a term-free value (``term_free``).  Each
    operator tree is then one integer expression on the operands'
    concrete values.  In the int domain that expression is the value.
    In the sym domain it stands behind one ``sN.term is None`` test per
    slot the tree reads, builds one value, and the domain calls above
    stay the path of a value that carries a term.  An identity
    operation (``x + 0``, ``x - 0``, ``x | 0``, ``x ^ 0``,
    ``x & all-ones``) is written as its operand, and a term-free value
    that is an operand slot passes that slot's value on unchanged
    (``addi rd, rs, 0``, a zero load or store offset).  Register reads and
    term-free register writes index ``host.hart.regs.values`` (x0 reads
    as the constant 0), term-free PC reads and writes use ``hart.pc``
    and ``host._next_pc``, and a term-free branch condition is a plain
    ``if``.  A sym-domain write made that way stamps
    ``host._effect_instret`` where a later branch of the same plan can
    read the stamp (the capture guard, see
    :meth:`repro.core.interpreter.SymbolicInterpreter._note_flippable`).
    Loads, stores, ``ecall``/``ebreak``/``fence`` and every value that
    carries a term keep their callbacks.  Trace records, capture points,
    terms and all machine state equal the callback form's; the number
    and order of domain calls do not.
    """

    __slots__ = (
        "domain", "fold", "inline", "lines", "namespace", "_names",
        "_int_binops", "_slots", "_pc", "_jumps",
    )

    def __init__(self, domain):
        self.domain = domain
        # A domain whose constants carry interned SMT terms must not
        # fold: cached code would pin terms across reset_interner().
        self.fold = getattr(domain, "supports_const_folding", True)
        self.inline = getattr(domain, "inline", None)
        self._int_binops = getattr(domain, "int_binops", None) or {}
        self.lines: list = []
        self.namespace: dict = {}
        self._names: dict = {}
        #: Per plan, in the inlined form: slot -> ``"pc"`` for a PC read
        #: (written as ``hart.pc`` where used), or the int a constant
        #: slot holds (x0, or the PC inside a block).
        self._slots: dict = {}
        self._pc: Optional[int] = None
        self._jumps = True

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def _bind(self, key, name: str, make: Callable[[], Any]) -> str:
        """The namespace name of ``make()``, built once per ``key``.

        Names are the spec's fixed operator names plus a width, a few
        fixed words, or numbered (``c``/``v`` plus the namespace size),
        so they are unique and never meet a local's name.
        """
        bound = self._names.get(key)
        if bound is None:
            bound = self._names[key] = name
            self.namespace[name] = make()
        return bound

    def _const(self, value: int, width: int) -> str:
        """Source of the folded domain constant ``value``."""
        folded = self.domain.const(value, width)
        if type(folded) is int:
            return f"{folded:d}"
        return self._bind(
            ("imm", value, width), f"c{len(self.namespace)}", lambda: folded
        )

    def _term_free(self) -> str:
        domain = self.domain
        return self._bind("term_free", "concrete", lambda: domain.term_free)

    def expr(self, expr: Expr) -> str:
        """Source of one evaluation of ``expr`` through domain calls."""
        domain = self.domain
        kind = type(expr)
        if kind is SlotRef:
            held = self._slots.get(expr.slot)
            if held is None:
                return f"s{expr.slot:d}"
            if held == "pc":
                if self.inline == "int":
                    return "hart.pc"
                return f"{self._term_free()}(hart.pc, {expr.width:d})"
            return self._const(held, expr.width)
        if kind is Imm:
            value, width = expr.value, expr.width
            if not self.fold:
                const = self._bind("const", "const", lambda: domain.const)
                return f"{const}({value:d}, {width:d})"
            return self._const(value, width)
        if kind is Val:
            leaf = self._bind(
                ("val", id(expr)), f"v{len(self.namespace)}", lambda: expr.value
            )
            from_leaf = self._bind("from_leaf", "from_leaf", lambda: domain.from_leaf)
            return f"{from_leaf}({leaf}, {expr.width:d})"
        if kind is BinOp:
            lhs, rhs = self.expr(expr.lhs), self.expr(expr.rhs)
            op = expr.op
            if op in COMPARISON_OPS:
                width = expr.lhs.width
                make = lambda: _cmpop_fn(domain, op, width)  # noqa: E731
                fn = self._bind(("cmpop", op, width), f"{op}{width}", make)
            else:
                width = expr.width
                make = lambda: _binop_fn(domain, op, width)  # noqa: E731
                fn = self._bind(("binop", op, width), f"{op}{width}", make)
            return f"{fn}({lhs}, {rhs})"
        if kind is UnOp:
            arg = self.expr(expr.arg)
            op, width = expr.op, expr.width
            make = lambda: _unop_fn(domain, op, width)  # noqa: E731
            fn = self._bind(("unop", op, width), f"{op}{width}", make)
            return f"{fn}({arg})"
        if kind is Ext:
            arg = self.expr(expr.arg)
            ext = self._bind("ext", "ext", lambda: domain.ext)
            ext_kind = self._bind(("ext", expr.kind), expr.kind, lambda: expr.kind)
            return f"{ext}({ext_kind}, {arg}, {expr.amount:d}, {expr.arg.width:d})"
        if kind is Extract:
            arg = self.expr(expr.arg)
            extract = self._bind("extract", "extract", lambda: domain.extract)
            return f"{extract}({arg}, {expr.high:d}, {expr.low:d})"
        if kind is Ite:
            cond = self.expr(expr.cond)
            then_value = self.expr(expr.then_expr)
            else_value = self.expr(expr.else_expr)
            ite = self._bind("ite", "ite", lambda: domain.ite)
            return f"{ite}({cond}, {then_value}, {else_value}, {expr.width:d})"
        raise TypeError(f"not a compilable specification expression: {expr!r}")

    # -- the inlined form ------------------------------------------------

    def _reads(self, expr: Expr) -> Optional[list]:
        """The slots ``expr`` reads, in order; ``None`` when it has no
        integer expression (a ``Val`` leaf, an unknown operator)."""
        kind = type(expr)
        if kind is SlotRef:
            return [expr.slot]
        if kind is Imm:
            return []
        if kind is BinOp:
            if expr.op not in _CONDITIONS and expr.op not in self._int_binops:
                return None
            children: tuple = (expr.lhs, expr.rhs)
        elif kind is UnOp:
            if expr.op not in ("not", "neg"):
                return None
            children = (expr.arg,)
        elif kind is Ext:
            if expr.kind not in ("zext", "sext"):
                return None
            children = (expr.arg,)
        elif kind is Extract:
            children = (expr.arg,)
        elif kind is Ite:
            children = (expr.cond, expr.then_expr, expr.else_expr)
        else:
            return None
        reads: list = []
        for child in children:
            found = self._reads(child)
            if found is None:
                return None
            reads.extend(found)
        return reads

    def _is_const(self, expr: Expr, value: int, mask: int) -> bool:
        """True when ``expr`` is the constant ``value`` (under ``mask``)."""
        kind = type(expr)
        if kind is Imm:
            return expr.value & mask == value
        return kind is SlotRef and self._slots.get(expr.slot) == value

    def _peel(self, expr: Expr) -> Expr:
        """``expr`` without identity operations: ``x + 0``, ``x - 0``,
        ``x | 0``, ``x ^ 0`` and ``x & all-ones`` are ``x``, since an
        operand's value is always within its width."""
        while type(expr) is BinOp and expr.op in _IDENTITY_OPS:
            op = expr.op
            mask = (1 << expr.width) - 1
            unit = mask if op == "and" else 0
            if self._is_const(expr.rhs, unit, mask):
                expr = expr.lhs
            elif op != "sub" and self._is_const(expr.lhs, unit, mask):
                expr = expr.rhs
            else:
                break
        return expr

    def _int(self, expr: Expr) -> str:
        """Integer source of ``expr``'s (concrete) value."""
        expr = self._peel(expr)
        kind = type(expr)
        if kind is SlotRef:
            held = self._slots.get(expr.slot)
            if held is None:
                suffix = ".concrete" if self.inline == "sym" else ""
                return f"s{expr.slot:d}{suffix}"
            if held == "pc":
                return "hart.pc"
            return f"{held:d}"
        width = expr.width
        mask = (1 << width) - 1
        if kind is Imm:
            return f"{expr.value & mask:d}"
        if kind is BinOp:
            op = expr.op
            if op in _CONDITIONS:
                return f"(1 if {self._truth(expr)} else 0)"
            a, b = self._int(expr.lhs), self._int(expr.rhs)
            template = _INT_BINOPS.get(op)
            if template is None and op in _INT_SHIFTS and _below(expr.rhs, width):
                template = _INT_SHIFTS[op]
            if template is not None:
                return template.format(a=a, b=b, m=mask, s=1 << (width - 1))
            int_fn = self._int_binops[op]
            fn = self._bind(("int", op), f"int_{op}", lambda: int_fn)
            return f"{fn}({a}, {b}, {width:d})"
        if kind is UnOp:
            a = self._int(expr.arg)
            if expr.op == "not":
                return f"({a} ^ {mask:#x})"
            return f"(-{a} & {mask:#x})"
        if kind is Ext:
            a = self._int(expr.arg)
            if expr.kind == "zext":
                return a
            sign = 1 << (expr.arg.width - 1)
            return f"((({a} ^ {sign:#x}) - {sign:#x}) & {mask:#x})"
        if kind is Extract:
            a = self._int(expr.arg)
            if expr.low:
                return f"(({a} >> {expr.low:d}) & {mask:#x})"
            return f"({a} & {mask:#x})"
        then_value, else_value = self._int(expr.then_expr), self._int(expr.else_expr)
        return f"({then_value} if {self._truth(expr.cond)} else {else_value})"

    def _truth(self, expr: Expr) -> str:
        """Source of ``expr`` as a Python condition."""
        if type(expr) is BinOp and expr.op in _CONDITIONS:
            return _CONDITIONS[expr.op].format(
                a=self._int(expr.lhs),
                b=self._int(expr.rhs),
                s=1 << (expr.lhs.width - 1),
            )
        return self._int(expr)

    def _split(self, expr: Expr, truth: bool = False) -> Optional[tuple]:
        """``(guard, source, constant)`` of ``expr`` in the inlined form.

        ``source`` is the integer (``truth``: condition) source of the
        concrete value, valid where ``guard`` holds: ``""`` when it
        always does, else a ``term is None`` test of each sym-domain
        slot the tree reads.  ``constant`` is the value, folded now,
        when the tree reads no slot that varies.  ``None`` when the
        tree has no integer expression, or the domain no inlined form.
        """
        reads = None if self.inline is None else self._reads(expr)
        if reads is None:
            return None
        slots = self._slots
        guard = ""
        if self.inline == "sym":
            guard = " and ".join(
                f"s{slot:d}.term is None"
                for slot in dict.fromkeys(reads)
                if slot not in slots
            )
        source = self._truth(expr) if truth else self._int(expr)
        if all(type(slots.get(slot)) is int for slot in reads):
            constant = int(eval(source, self.namespace))
            return guard, f"{constant:d}", constant
        return guard, source, None

    def _wrap(self, expr: Expr, source: str, constant: Optional[int]) -> str:
        """Source of the domain value whose concrete value is ``source``."""
        if self.inline == "int":
            return source
        if constant is not None:
            return self._const(constant, expr.width)
        operand = self._peel(expr)
        if type(operand) is SlotRef and operand.slot not in self._slots:
            return f"s{operand.slot:d}"  # the operand's own value
        return f"{self._term_free()}({source}, {expr.width:d})"

    def _value(self, expr: Expr) -> str:
        """Source of ``expr``'s domain value, as a callback argument."""
        if type(expr) is SlotRef:
            return self.expr(expr)
        split = self._split(expr)
        if split is None:
            return self.expr(expr)
        guard, source, constant = split
        fast = self._wrap(expr, source, constant)
        if guard:
            return f"{fast} if {guard} else {self.expr(expr)}"
        return fast

    def _guarded(
        self, indent: int, guard: str, fast: list, slow: Callable[[], str]
    ) -> None:
        """Write ``fast`` where ``guard`` holds, else the callback ``slow()``."""
        if not guard:
            for text in fast:
                self.line(indent, text)
            return
        if fast:
            self.line(indent, f"if {guard}:")
            for text in fast:
                self.line(indent + 1, text)
            self.line(indent, "else:")
        else:
            self.line(indent, f"if not ({guard}):")
        self.line(indent + 1, slow())

    def _stamp(self, later_branch: bool) -> list:
        """The capture guard's effect stamp, where a branch can read it."""
        if later_branch and self.inline == "sym":
            return ["host._effect_instret = hart.instret"]
        return []

    # -- steps -----------------------------------------------------------

    def steps(
        self, steps: tuple, indent: int, pc: Optional[int] = None,
        jumps: bool = True,
    ) -> None:
        """Write one plan's steps.

        In the inlined form, ``pc`` (known inside a superblock) makes the
        plan's PC reads literals, and ``jumps=False`` drops its PC
        writes, for a block that follows the instruction's static jump
        itself.
        """
        self._slots = {}
        self._pc = pc
        self._jumps = jumps
        self._steps(steps, indent, False)

    def _steps(self, steps: tuple, indent: int, branch_after: bool) -> None:
        """Write ``steps``; ``branch_after`` when a branch of the same
        plan follows them."""
        later = [branch_after] * len(steps)
        for index in range(len(steps) - 1, 0, -1):
            later[index - 1] = later[index] or steps[index][0] == "cond"
        for step, later_branch in zip(steps, later):
            self._step(step, indent, later_branch)

    def _arm(self, steps: tuple, indent: int, branch_after: bool) -> None:
        """Write a cond arm: its steps, or ``pass`` where none is left."""
        start = len(self.lines)
        self._steps(steps, indent, branch_after)
        if len(self.lines) == start:
            self.line(indent, "pass")

    def _step(self, step: tuple, indent: int, later_branch: bool) -> None:
        tag = step[0]
        inline = self.inline
        if tag == "reg":
            slot, index = step[1], step[2]
            if inline is None or not 0 <= index < 32:
                self.line(indent, f"s{slot:d} = host.plan_reg({index:d})")
            elif index == 0:
                self._slots[slot] = 0
            else:
                self.line(indent, f"s{slot:d} = regs[{index:d}]")
        elif tag == "pc":
            slot = step[1]
            if inline is None:
                self.line(indent, f"s{slot:d} = host.plan_pc()")
            else:
                # Nothing a plan does moves hart.pc, so a use reads it.
                self._slots[slot] = "pc" if self._pc is None else self._pc
        elif tag == "load":
            address = self._value(step[3])
            self.line(
                indent, f"s{step[1]:d} = host.plan_load({step[2]:d}, {address})"
            )
        elif tag == "wreg":
            index, expr = step[1], step[2]
            split = self._split(expr) if 0 <= index < 32 else None
            slow = lambda: f"host.plan_write_reg({index:d}, {self.expr(expr)})"  # noqa: E731
            if split is None:
                self.line(indent, slow())
                return
            guard, source, constant = split
            fast = self._stamp(later_branch)
            if index:
                value = self._wrap(expr, source, constant)
                fast.insert(0, f"regs[{index:d}] = {value}")
            self._guarded(indent, guard, fast, slow)
        elif tag == "wpc":
            expr = step[1]
            split = self._split(expr)
            slow = lambda: f"host.plan_write_pc({self.expr(expr)})"  # noqa: E731
            if split is None:
                self.line(indent, slow())
            elif self._jumps:
                guard, source, _constant = split
                fast = [f"host._next_pc = {source}", *self._stamp(later_branch)]
                self._guarded(indent, guard, fast, slow)
        elif tag == "store":
            address, value = self._value(step[2]), self._value(step[3])
            self.line(indent, f"host.plan_store({step[1]:d}, {address}, {value})")
        elif tag == "cond":
            expr = step[1]
            split = self._split(expr, truth=True)
            condition = f"host.plan_branch({self.expr(expr)})"
            if split is not None:
                guard, source, _constant = split
                if guard:
                    condition = f"({source}) if {guard} else {condition}"
                else:
                    condition = source
            self.line(indent, f"if {condition}:")
            self._arm(step[2], indent + 1, later_branch)
            if step[3]:
                self.line(indent, "else:")
                self._arm(step[3], indent + 1, later_branch)
        elif tag in ("ecall", "ebreak", "fence"):
            self.line(indent, f"host.plan_{tag}()")
        else:  # pragma: no cover - recorder and emitter move in lockstep
            raise ValueError(f"unknown plan step {step!r}")

    def function(self, name: str, filename: str) -> tuple[Callable, str]:
        """Compile the lines as ``def name(host)``; returns it and its source.

        ``filename`` names the code object, so a traceback through the
        function says which plan or block it is; the line numbers index
        the returned source.
        """
        text = "\n".join(self.lines)
        prologue = []
        if re.search(r"\bhart\b", text):
            prologue.append("    hart = host.hart")
        if re.search(r"\bregs\b", text):
            hart = "hart" if prologue else "host.hart"
            prologue.append(f"    regs = {hart}.regs.values")
        body = prologue + self.lines
        if all(text.lstrip().startswith("#") for text in body):
            body.append("    pass")
        source = "\n".join([f"def {name}(host):", *body]) + "\n"
        namespace = self.namespace
        exec(compile(source, filename, "exec"), namespace)
        return namespace.pop(name), source


# ---------------------------------------------------------------------------
# Plan binding: specialize a plan for one evaluation domain
# ---------------------------------------------------------------------------


class CompiledPlan:
    """A plan specialized for one domain: one emitted function.

    ``run(host)`` replays the plan against a :class:`PlanHost`;
    ``source`` is the function's text.
    """

    __slots__ = ("run", "source")

    def __init__(self, run: Callable, source: str):
        self.run = run
        self.source = source


def bind_plan(plan: Plan, domain, filename: str = "<plan>") -> CompiledPlan:
    """Emit a recorded plan as one Python function over ``domain``."""
    emitter = Emitter(domain)
    emitter.steps(plan.steps, 1)
    return CompiledPlan(*emitter.function("plan", filename))


def domain_label(domain_key: tuple) -> str:
    """A domain key as text for emitted code's filenames (``sym-False``)."""
    return "-".join(str(part) for part in domain_key)
