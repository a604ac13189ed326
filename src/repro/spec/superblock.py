"""Superblock trace compilation on top of the staged plan cache.

The staging layer removed the semantics-interpretation cost per
instruction; what remains is the per-instruction *dispatch* — fetch,
word memo probe, ``CompiledPlan.run`` call, PC bookkeeping — paid once
per retired instruction.  This module removes most of that the way
dynamic binary translators do (QEMU's translation blocks, SymQEMU): hot
straight-line guest sequences are stitched into a single *superblock*
function, emitted as Python source, that runs the plans back to back
with the dispatch bookkeeping written inline between them.

The stitching rules keep the concolic semantics bit-exact:

* Straight-line instructions (no ``cond`` step, no ``ecall`` /
  ``ebreak`` / ``fence``, at most one ``wpc`` whose target is a
  *static* function of the instruction's own PC — direct ``jal``)
  concatenate freely.  An indirect ``jalr`` or any unknown primitive
  ends the block.
* A conditional instruction (``RunIf``/``RunIfElse`` — branches, but
  also ``div``'s zero/overflow checks) may be stitched *through* along
  a predicted direction, superblock-style: the block syncs ``hart.pc``,
  ``hart.instret`` and the default ``_next_pc`` to exactly the
  per-instruction state before running the instruction's plan — so
  flippable-branch records and snapshot capture points (both issued by
  the plan's own ``plan_branch`` call) observe bit-identical machine
  state — then compares the resulting ``_next_pc`` against the
  predicted successor and *side-exits* (sets the true PC and returns to
  the dispatch loop) on mismatch.  Prediction follows the classic
  trace-JIT rule: backward targets (loop back-edges) are predicted
  taken, forward branches fall through.
* Plain instructions execute with ``hart.pc`` pinned only where the
  plan observes it, so address-concretization pins and pinned
  indirect-target assumptions record exactly the PCs the
  per-instruction path would; ``instret`` is batched between conds —
  nothing else inside a block can observe it.
* A block is guarded on its entry PC and on the exact instruction words
  it was stitched from: the engine re-reads the words on first use per
  run, and :class:`~repro.arch.memory.ByteMemory` bumps a ``code_epoch``
  counter when a watched code page is written, forcing revalidation —
  self-modifying code deoptimizes instead of executing stale blocks.

Hotness is fed by the exploration run step (:class:`repro.core.explorer.Worker`)
from the per-PC flippable-branch hit counts
:func:`repro.core.scheduler.expand_run` takes of each run:
once a branch PC crosses :data:`BRANCH_HOT_HITS` cumulative executions,
the interpreters promote its successors to block entry points; run
entry PCs are promoted after :data:`ENTRY_HOT_RUNS` runs.  Compiled
superblocks live in a per-ISA LRU keyed by ``(domain_key, entry_pc,
words)`` — shared across interpreter instances over that ISA and
fork-inherited by the workers of the :mod:`repro.core.parallel` pool,
exactly like the plan caches they are built from.
"""

from __future__ import annotations

from typing import Optional

from .decoder import IllegalInstruction
from .expr import BinOp, Expr, Imm, SlotRef
from .staged import Emitter, domain_label

__all__ = [
    "Superblock",
    "SuperblockEngine",
    "MIN_BLOCK_LEN",
    "MAX_BLOCK_LEN",
    "ENTRY_HOT_RUNS",
    "BRANCH_HOT_HITS",
]

_WORD = 0xFFFFFFFF
_PAGE_BITS = 12  # must match repro.arch.memory._PAGE_BITS

#: A block must amortize its dispatch overhead: below this length the
#: per-instruction path is just as fast.
MIN_BLOCK_LEN = 2

#: Upper bound on stitched instructions per block; long straight-line
#: regions split into chained blocks, keeping the fuel guard cheap.
MAX_BLOCK_LEN = 64

#: Runs starting at the same entry PC before it becomes a block entry
#: (the first run pays discovery, every later run executes blocks).
ENTRY_HOT_RUNS = 2

#: Cumulative flippable-branch executions (summed over runs by the
#: exploration driver) before a branch PC counts as hot and the
#: interpreters promote its successors to superblock entries.
BRANCH_HOT_HITS = 8

#: Backstop for the per-ISA block cache and the word-classification
#: memo, matching the staged plan caches they sit beside.
BLOCK_CACHE_CAPACITY = 1 << 12
INFO_CACHE_CAPACITY = 1 << 17

#: Classification verdict for words that end a block (branch, ecall,
#: ebreak, fence, unstageable, illegal, indirect jump).
_BARRIER = ("barrier",)


def _static_target(expr: Expr, pc_slots: frozenset, pc: int) -> Optional[int]:
    """Evaluate a ``wpc`` target expression given only the entry PC.

    Returns the 32-bit target when ``expr`` is built from immediates,
    PC slots and add/sub/bitwise operators (the direct ``jal`` shape);
    ``None`` marks the jump data-dependent (``jalr``), i.e. a barrier.
    """
    kind = type(expr)
    if kind is Imm:
        return expr.value & ((1 << expr.width) - 1)
    if kind is SlotRef:
        return pc & _WORD if expr.slot in pc_slots else None
    if kind is BinOp:
        lhs = _static_target(expr.lhs, pc_slots, pc)
        if lhs is None:
            return None
        rhs = _static_target(expr.rhs, pc_slots, pc)
        if rhs is None:
            return None
        op = expr.op
        mask = (1 << expr.width) - 1
        if op == "add":
            return (lhs + rhs) & mask
        if op == "sub":
            return (lhs - rhs) & mask
        if op == "and":
            return lhs & rhs
        if op == "or":
            return lhs | rhs
        if op == "xor":
            return lhs ^ rhs
    return None


def _has_store(steps: tuple) -> bool:
    """True when any step (in any cond arm) is a memory store.

    Store instructions become *epoch-check boundaries* inside a block:
    a store can overwrite code that later instructions of the same
    block were stitched from, so the block re-checks the memory's
    ``code_epoch`` right after each store retires and side-exits at the
    next instruction if a watched code page changed (the QEMU
    store-into-current-TB rule).
    """
    for step in steps:
        tag = step[0]
        if tag == "store":
            return True
        if tag == "cond" and (_has_store(step[2]) or _has_store(step[3])):
            return True
    return False


class Superblock:
    """A stitched trace with side exits, emitted for one domain.

    ``execute(host)`` is one emitted Python function (see
    :meth:`SuperblockEngine.acquire`); ``source`` is its text.  Its code
    object's filename names the domain key, entry PC and length.
    ``words`` keeps the ``(pc, word)`` pairs the block was stitched
    from for revalidation, ``pages`` the code pages to watch for
    self-modifying writes, ``exit_pc`` the statically known successor
    when every guard holds, ``length`` the maximum retire count (the
    fuel guard's bound), and ``side_exits`` the non-predicted successor
    PCs — promoted to block entries so a mispredicted branch lands on
    another block instead of the per-instruction path.
    """

    __slots__ = (
        "entry_pc", "execute", "source", "words", "length", "exit_pc",
        "pages", "side_exits",
    )

    def __init__(
        self,
        entry_pc: int,
        execute,
        source: str,
        words: tuple,
        exit_pc: int,
        side_exits: tuple,
    ):
        self.entry_pc = entry_pc
        self.execute = execute
        self.source = source
        self.words = words
        self.length = len(words)
        self.exit_pc = exit_pc
        self.side_exits = side_exits
        pages = set()
        for pc, _word in words:
            pages.add(pc >> _PAGE_BITS)
            pages.add(((pc + 3) & _WORD) >> _PAGE_BITS)
        self.pages = frozenset(pages)


class SuperblockEngine:
    """Per-ISA stitcher, hotness bookkeeping and block cache.

    One engine hangs off each :class:`~repro.spec.isa.ISA` (see
    ``ISA.superblocks``) and is shared by every interpreter instance
    over that ISA — concrete and symbolic alike, since blocks are keyed
    by the interpreter's ``domain_key``.  Fork-based exploration
    workers inherit the engine (entries, hot branches, compiled blocks)
    copy-on-write, exactly like the plan caches.
    """

    def __init__(self, isa):
        self.isa = isa
        #: PCs promoted to block entry points (run entries past the run
        #: threshold plus successors of hot branches).
        self.entries: set[int] = set()
        #: Branch PCs the exploration driver reported as hot.
        self.hot_branches: set[int] = set()
        self._entry_runs: dict[int, int] = {}
        #: word -> _BARRIER | (wpc_expr | None, pc_slots frozenset)
        self._step_info: dict[int, tuple] = {}
        #: (domain_key, entry_pc, words) -> Superblock, LRU by reinsertion.
        self._blocks: dict[tuple, Superblock] = {}
        #: (domain_key, entry_pc) -> last Superblock resolved there; a
        #: fast revalidation path that skips re-classification when the
        #: code bytes still match.  Holds only blocks ``_blocks`` holds:
        #: :meth:`_evict` drops a block from both.
        self._by_entry: dict[tuple, Superblock] = {}

    # -- hotness ---------------------------------------------------------

    def note_run_entry(self, pc: int) -> None:
        """Count a run starting at ``pc``; promote it once hot."""
        runs = self._entry_runs.get(pc, 0) + 1
        self._entry_runs[pc] = runs
        if runs >= ENTRY_HOT_RUNS:
            self.entries.add(pc)

    def note_hot_branches(self, pcs) -> None:
        """Record branch PCs the driver measured as hot."""
        self.hot_branches.update(pcs)

    # -- stitching -------------------------------------------------------

    def _classify_word(self, word: int, pc: int) -> tuple:
        """Stitchability of one instruction word (memoized per word).

        Verdicts: :data:`_BARRIER`; ``("plain", wpc_expr | None,
        pc_slots, needs_pc)`` for straight-line instructions; or
        ``("cond", wpc_exprs, fallthrough_possible, pc_slots)`` for
        conditional instructions stitchable along a predicted
        direction — ``wpc_exprs`` are every PC write anywhere in the
        plan and ``fallthrough_possible`` is True when some path through
        the plan writes no PC (so ``pc + 4`` is a possible successor).
        """
        info = self._step_info.get(word)
        if info is not None:
            return info
        try:
            decoded = self.isa.decoder.decode(word, pc)
            plan = self.isa.plan_for(word, decoded.name)
        except IllegalInstruction:
            plan = None
        info = _BARRIER if plan is None else self._classify_steps(plan.steps)
        if len(self._step_info) >= INFO_CACHE_CAPACITY:
            self._step_info.clear()
        self._step_info[word] = info
        return info

    @staticmethod
    def _classify_steps(steps: tuple) -> tuple:
        """Classify a plan's step tree (see :meth:`_classify_word`)."""
        wpc_exprs: list = []
        pc_slots: set = set()
        has_cond = False

        def walk(block: tuple) -> Optional[bool]:
            """Collect info from one arm; returns ``wpc_always`` for
            the arm, or ``None`` to mark the whole plan a barrier."""
            nonlocal has_cond
            wpc_always = False
            for step in block:
                tag = step[0]
                if tag in ("reg", "load", "wreg", "store"):
                    continue
                if tag == "pc":
                    pc_slots.add(step[1])
                    continue
                if tag == "wpc":
                    wpc_exprs.append(step[1])
                    wpc_always = True
                    continue
                if tag == "cond":
                    has_cond = True
                    then_always = walk(step[2])
                    if then_always is None:
                        return None
                    else_always = walk(step[3])
                    if else_always is None:
                        return None
                    if then_always and else_always:
                        wpc_always = True
                    continue
                # ecall / ebreak / fence / unknown: not stitchable.
                return None
            return wpc_always

        wpc_always = walk(steps)
        if wpc_always is None:
            return _BARRIER
        slots = frozenset(pc_slots)
        has_store = _has_store(steps)
        if has_cond:
            return ("cond", tuple(wpc_exprs), not wpc_always, slots, has_store)
        if len(wpc_exprs) > 1:
            return _BARRIER  # two unconditional PC writes: keep it simple
        wpc = wpc_exprs[0] if wpc_exprs else None
        needs_pc = bool(slots) or has_store or any(
            step[0] == "load" for step in steps
        )
        return ("plain", wpc, slots, needs_pc, has_store)

    @staticmethod
    def _successors(
        info: tuple, pc: int
    ) -> Optional[tuple[int, tuple[int, ...]]]:
        """Predicted and alternative successors of a cond instruction.

        Returns ``(predicted, side_exits)``, or ``None`` when any PC
        write's target is data-dependent.  Prediction is the trace-JIT
        rule: a backward target (loop back-edge) is predicted taken,
        otherwise the branch falls through.
        """
        _kind, wpc_exprs, fallthrough, pc_slots = info[:4]
        targets: list = []
        for expr in wpc_exprs:
            target = _static_target(expr, pc_slots, pc)
            if target is None:
                return None
            if target not in targets:
                targets.append(target)
        if fallthrough:
            step_pc = (pc + 4) & _WORD
            if step_pc not in targets:
                targets.append(step_pc)
        predicted = None
        for target in targets:
            if target < pc:
                predicted = target  # backward: a loop back-edge
                break
        if predicted is None:
            predicted = (
                (pc + 4) & _WORD if fallthrough else targets[0]
            )
        return predicted, tuple(t for t in targets if t != predicted)

    def _scan(self, entry_pc: int, memory) -> Optional[tuple]:
        """Walk hot-trace code from ``entry_pc``.

        Straight-line instructions extend the trace; conditional
        instructions extend it along their predicted direction.
        Returns ``(words, exit_pc)`` — ``words`` the stitched ``(pc,
        word)`` pairs — or ``None`` when fewer than
        :data:`MIN_BLOCK_LEN` instructions stitch.
        """
        words: list = []
        seen: set[int] = set()
        pc = entry_pc
        while len(words) < MAX_BLOCK_LEN:
            if pc in seen:
                break  # looped back into the block (a closed hot loop)
            word = memory.read_word(pc)
            info = self._classify_word(word, pc)
            if info is _BARRIER:
                break
            if info[0] == "plain":
                wpc_expr, pc_slots = info[1], info[2]
                if wpc_expr is None:
                    next_pc = (pc + 4) & _WORD
                else:
                    target = _static_target(wpc_expr, pc_slots, pc)
                    if target is None:
                        break  # data-dependent jump (jalr)
                    next_pc = target
            else:
                successors = self._successors(info, pc)
                if successors is None:
                    break  # data-dependent conditional jump
                next_pc = successors[0]
            seen.add(pc)
            words.append((pc, word))
            pc = next_pc
        if len(words) < MIN_BLOCK_LEN:
            return None
        return tuple(words), pc

    def acquire(
        self, entry_pc: int, memory, domain, domain_key: tuple
    ) -> tuple[Optional[Superblock], bool]:
        """The superblock starting at ``entry_pc`` for the current code.

        Returns ``(block, built)``: ``block`` is ``None`` when fewer
        than :data:`MIN_BLOCK_LEN` instructions stitch there, ``built``
        is True only when this call compiled a new block (False for
        cache hits).  The block is always validated against the bytes
        currently in ``memory``.
        """
        fast = self._by_entry.get((domain_key, entry_pc))
        if fast is not None:
            for pc, word in fast.words:
                if memory.read_word(pc) != word:
                    fast = None
                    break
            if fast is not None:
                return fast, False
        scan = self._scan(entry_pc, memory)
        if scan is None:
            return None, False
        words, exit_pc = scan
        key = (domain_key, entry_pc, words)
        blocks = self._blocks
        block = blocks.get(key)
        if block is not None:
            del blocks[key]  # LRU touch: reinsertion order = recency
            blocks[key] = block
            self._by_entry[(domain_key, entry_pc)] = block
            return block, False
        block = self._emit(entry_pc, words, exit_pc, domain, domain_key)
        if len(blocks) >= BLOCK_CACHE_CAPACITY:
            self._evict(next(iter(blocks)))
        blocks[key] = block
        self._by_entry[(domain_key, entry_pc)] = block
        return block, True

    def _evict(self, key: tuple) -> None:
        """Drop the block cached under ``key`` from both block maps."""
        block = self._blocks.pop(key)
        entry = key[:2]
        if self._by_entry.get(entry) is block:
            del self._by_entry[entry]

    def _emit(
        self, entry_pc: int, words: tuple, exit_pc: int, domain, domain_key
    ) -> Superblock:
        """Write the trace ``words`` as one function over ``domain``.

        Each plan's steps are written inline, with the dispatch
        bookkeeping between them: ``hart.pc`` is set before each plan
        that observes it; ``instret`` is batched and made exact before
        each cond; before a cond, ``_next_pc`` gets its default and
        after it, a successor other than the predicted one side-exits
        with the hart's PC and instret exact.  After each store the
        memory's ``code_epoch`` is compared with its value at block
        entry: a store may have overwritten words later instructions
        were stitched from, so the block exits to the next instruction
        (the QEMU store-into-current-TB rule).  All plans share the slot
        locals — safe because a plan always writes a slot before reading
        it, so instructions cannot see each other's slot values.
        """
        isa = self.isa
        emit = Emitter(domain)
        line = emit.line
        infos = [self._classify_word(word, pc) for pc, word in words]
        if any(info[4] for info in infos):
            line(1, "memory = host.memory")
            line(1, "epoch = memory.code_epoch")
        side_exits: list = []
        pending = 0  # retired plain instructions not yet added to instret
        for index, (pc, word) in enumerate(words):
            info = infos[index]
            plan = isa.plan_for(word, isa.decoder.decode(word, pc).name)
            next_pc = words[index + 1][0] if index + 1 < len(words) else exit_pc
            line(1, f"# pc {pc:#010x} word {word:#010x}")
            if info[0] == "plain":
                if info[3] and (
                    emit.inline is None
                    or any(step[0] in ("load", "store") for step in plan.steps)
                ):
                    # The plan observes the architectural PC: a PC slot
                    # (a literal in inlined code), or a load/store whose
                    # concretization pin records its site.  Pure ALU
                    # plans need no PC bookkeeping.
                    line(1, f"hart.pc = {pc:#010x}")
                # The block follows a plain instruction's static jump.
                emit.steps(plan.steps, 1, pc=pc, jumps=False)
                pending += 1
                if not info[4]:
                    continue
                exit_to = next_pc
            else:
                predicted, exits = self._successors(info, pc)
                side_exits.extend(exits)
                if pending:
                    line(1, f"hart.instret += {pending:d}")
                    pending = 0
                line(1, f"hart.pc = {pc:#010x}")
                line(1, f"host._next_pc = {(pc + 4) & _WORD:#010x}")
                emit.steps(plan.steps, 1, pc=pc)
                line(1, "hart.instret += 1")
                line(1, "target = host._next_pc")
                line(1, f"if target != {predicted:#010x}:")
                line(2, "hart.pc = target")
                line(2, "return")
                if not info[4]:
                    continue
                exit_to = predicted
            # A store: epoch-check boundary (see _has_store).
            if pending:
                line(1, f"hart.instret += {pending:d}")
                pending = 0
            line(1, "if memory.code_epoch != epoch:")
            line(2, f"hart.pc = {exit_to:#010x}")
            line(2, "return")
        if pending:
            line(1, f"hart.instret += {pending:d}")
        line(1, f"hart.pc = {exit_pc:#010x}")
        execute, source = emit.function(
            "superblock",
            f"<superblock {domain_label(domain_key)} "
            f"entry={entry_pc:#010x} len={len(words)}>",
        )
        return Superblock(
            entry_pc, execute, source, words, exit_pc, tuple(side_exits)
        )
