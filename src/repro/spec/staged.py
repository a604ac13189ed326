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

``compile_expr``
    Compiles a specification ``Expr`` DAG into a flat closure over a
    :class:`~repro.spec.expr.Domain` — no recursion, no isinstance
    dispatch at evaluation time.  Closures are composed once at compile
    time and cached per shared sub-DAG (the plan retains its interned
    expression nodes, so the ``id``-keyed memo is stable).  Domains may
    expose ``specialize_binop``/``specialize_cmpop``/``specialize_unop``
    hooks returning pre-dispatched operator closures; absent those the
    compiler falls back to the generic protocol methods.

``bind_plan``
    Specializes a plan for one evaluation domain, producing a
    :class:`CompiledPlan` whose steps are closures invoking the
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
    "compile_expr",
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
        """Toggle staged execution (clears this interpreter's memo)."""
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
        word = self.memory.read_word(hart.pc)
        if self.staging:
            entry = self._exec_cache.get(word)
            if entry is None:
                entry = self._lookup(word, hart.pc)
            self._current_word = word
            self._next_pc = (hart.pc + 4) & 0xFFFFFFFF
            plan = entry[0]
            if plan is not None:
                plan.run(self)
            else:
                execute_semantics(entry[1](), self)
        else:
            # Ablation path (--no-staging): per-step decode through the
            # shared decode cache, then interpret the specification.
            decoded = self._decode_or_halt(word, hart.pc)
            self._current_word = word
            self._next_pc = (hart.pc + 4) & 0xFFFFFFFF
            execute_semantics(self.isa.semantics_for(decoded.name)(), self)
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
        """Decode ``word`` and memoize its execution strategy."""
        decoded = self._decode_or_halt(word, pc)
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
    expressions inside the steps reference :class:`SlotRef` leaves
    resolved from a per-execution environment of ``n_slots`` entries.
    """

    __slots__ = ("steps", "n_slots")

    def __init__(self, steps: tuple, n_slots: int):
        self.steps = steps
        self.n_slots = n_slots


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
    return Plan(tuple(recorder.steps), recorder.n_slots)


# ---------------------------------------------------------------------------
# Expression compilation
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


def compile_expr(expr: Expr, domain, memo: Optional[dict] = None) -> Callable:
    """Compile an ``Expr`` DAG into a closure ``env -> value``.

    ``env`` is the plan's slot environment (a list).  The closure tree
    is composed once; evaluation performs no type dispatch and no
    attribute traversal of the expression nodes.  ``memo`` shares
    compiled closures across references to the same (interned) sub-DAG.
    """
    if memo is None:
        memo = {}
    cached = memo.get(id(expr))
    if cached is not None:
        return cached
    kind = type(expr)
    if kind is SlotRef:
        slot = expr.slot
        fn = lambda env: env[slot]  # noqa: E731
    elif kind is Imm:
        if getattr(domain, "supports_const_folding", True):
            # Domains are stateless: constants fold at compile time.
            const = domain.const(expr.value, expr.width)
            fn = lambda env: const  # noqa: E731
        else:
            # A domain whose constants carry interned SMT terms must not
            # fold: cached plans would pin terms across reset_interner().
            const_fn = domain.const
            value, width = expr.value, expr.width
            fn = lambda env: const_fn(value, width)  # noqa: E731
    elif kind is Val:
        from_leaf = domain.from_leaf
        value, width = expr.value, expr.width
        fn = lambda env: from_leaf(value, width)  # noqa: E731
    elif kind is BinOp:
        lhs = compile_expr(expr.lhs, domain, memo)
        rhs = compile_expr(expr.rhs, domain, memo)
        if expr.op in COMPARISON_OPS:
            op_fn = _cmpop_fn(domain, expr.op, expr.lhs.width)
        else:
            op_fn = _binop_fn(domain, expr.op, expr.width)
        fn = lambda env: op_fn(lhs(env), rhs(env))  # noqa: E731
    elif kind is UnOp:
        arg = compile_expr(expr.arg, domain, memo)
        op_fn = _unop_fn(domain, expr.op, expr.width)
        fn = lambda env: op_fn(arg(env))  # noqa: E731
    elif kind is Ext:
        arg = compile_expr(expr.arg, domain, memo)
        ext = domain.ext
        ext_kind, amount, from_width = expr.kind, expr.amount, expr.arg.width
        fn = lambda env: ext(ext_kind, arg(env), amount, from_width)  # noqa: E731
    elif kind is Extract:
        arg = compile_expr(expr.arg, domain, memo)
        extract = domain.extract
        high, low = expr.high, expr.low
        fn = lambda env: extract(arg(env), high, low)  # noqa: E731
    elif kind is Ite:
        cond = compile_expr(expr.cond, domain, memo)
        then_fn = compile_expr(expr.then_expr, domain, memo)
        else_fn = compile_expr(expr.else_expr, domain, memo)
        ite = domain.ite
        width = expr.width
        fn = lambda env: ite(cond(env), then_fn(env), else_fn(env), width)  # noqa: E731
    else:
        raise TypeError(f"not a compilable specification expression: {expr!r}")
    memo[id(expr)] = fn
    return fn


# ---------------------------------------------------------------------------
# Plan binding: specialize a plan for one evaluation domain
# ---------------------------------------------------------------------------


class CompiledPlan:
    """A plan specialized for one domain; replayed against a host."""

    __slots__ = ("ops", "n_slots")

    def __init__(self, ops: tuple, n_slots: int):
        self.ops = ops
        self.n_slots = n_slots

    def run(self, host: PlanHost) -> None:
        env = [None] * self.n_slots
        for op in self.ops:
            op(host, env)


def _bind_reg(slot: int, index: int) -> Callable:
    def run(host, env):
        env[slot] = host.plan_reg(index)

    return run


def _bind_pc(slot: int) -> Callable:
    def run(host, env):
        env[slot] = host.plan_pc()

    return run


def _bind_load(slot: int, width: int, addr_fn: Callable) -> Callable:
    def run(host, env):
        env[slot] = host.plan_load(width, addr_fn(env))

    return run


def _bind_wreg(index: int, value_fn: Callable) -> Callable:
    def run(host, env):
        host.plan_write_reg(index, value_fn(env))

    return run


def _bind_wpc(value_fn: Callable) -> Callable:
    def run(host, env):
        host.plan_write_pc(value_fn(env))

    return run


def _bind_store(width: int, addr_fn: Callable, value_fn: Callable) -> Callable:
    def run(host, env):
        host.plan_store(width, addr_fn(env), value_fn(env))

    return run


def _bind_cond(cond_fn: Callable, then_ops: tuple, else_ops: tuple) -> Callable:
    def run(host, env):
        if host.plan_branch(cond_fn(env)):
            for op in then_ops:
                op(host, env)
        else:
            for op in else_ops:
                op(host, env)

    return run


def _run_ecall(host, env):
    host.plan_ecall()


def _run_ebreak(host, env):
    host.plan_ebreak()


def _run_fence(host, env):
    host.plan_fence()


def _bind_steps(steps: tuple, domain, memo: dict) -> tuple:
    ops: list = []
    for step in steps:
        tag = step[0]
        if tag == "reg":
            ops.append(_bind_reg(step[1], step[2]))
        elif tag == "pc":
            ops.append(_bind_pc(step[1]))
        elif tag == "load":
            ops.append(_bind_load(step[1], step[2], compile_expr(step[3], domain, memo)))
        elif tag == "wreg":
            ops.append(_bind_wreg(step[1], compile_expr(step[2], domain, memo)))
        elif tag == "wpc":
            ops.append(_bind_wpc(compile_expr(step[1], domain, memo)))
        elif tag == "store":
            ops.append(
                _bind_store(
                    step[1],
                    compile_expr(step[2], domain, memo),
                    compile_expr(step[3], domain, memo),
                )
            )
        elif tag == "cond":
            ops.append(
                _bind_cond(
                    compile_expr(step[1], domain, memo),
                    _bind_steps(step[2], domain, memo),
                    _bind_steps(step[3], domain, memo),
                )
            )
        elif tag == "ecall":
            ops.append(_run_ecall)
        elif tag == "ebreak":
            ops.append(_run_ebreak)
        elif tag == "fence":
            ops.append(_run_fence)
        else:  # pragma: no cover - recorder and binder move in lockstep
            raise ValueError(f"unknown plan step {step!r}")
    return tuple(ops)


def bind_plan(plan: Plan, domain) -> CompiledPlan:
    """Compile a recorded plan's expressions for one domain."""
    return CompiledPlan(_bind_steps(plan.steps, domain, {}), plan.n_slots)
