"""Per-path certificates: replayable evidence for every reported path.

An exploration result is a *claim*: "these inputs drive the SUT down a
path with this halt reason, exit code, output and path condition".  The
claim is cheap to state and — because the exploring run may have gone
through staged plans, superblocks and snapshot resumption — worth
checking against something simpler.  A :class:`PathCertificate` pins
down everything observable about one path:

* the concrete **inputs** (the solver model that selected the path),
  serialized by variable name so a certificate survives process and
  checkpoint boundaries;
* the **observable outcome**: halt reason, exit code, architectural
  instruction count, final PC, and a digest of the captured stdout;
* the **path-condition digest chain**: the order-sensitive fold of
  :func:`repro.core.scheduler.query_digest` over the trace's branch
  conditions and assumptions, which identifies the logical path, not
  just its observable effects.

Verification is replay under the *reference evaluator*: staging and
superblocks off, no snapshot resumption — the plain recursive
interpretation of the formal ISA semantics.  Every field must match
exactly; the condition digest in particular certifies that the staged
plan compiler, the superblock stitcher and the snapshot layer produced
byte-for-byte the same path conditions the reference interpretation
derives.  A mismatch is counted and reported, never silently dropped
(same contract as the solver-side certification in
:mod:`repro.smt.solver`).

**The tree.**  A child path flipped one branch record of the path whose
run produced it, so the two share the prefix up to that record: the
certificate's ``parent`` and ``divergence`` links.  :func:`verify_result`
replays the certificates in path order and justifies each shared prefix
once.  While a parent replays, the checker copies the reference state
at every divergence point one of its children names; a child then
resumes from that copy, re-concretized under its own inputs, and replays
only its suffix.  It resumes only when two checks show that the resume
equals a from-entry replay, and replays from the entry otherwise:

1. every prefix condition of the parent that reads an input the child
   changed holds under the child's inputs (the concolic invariant a
   resume rests on), and
2. the re-concretized state equals the state the concrete interpreter
   (:class:`repro.concrete.interpreter.ConcreteInterpreter`, run with
   the defaults of ``repro run``) reaches from the entry under the
   child's inputs at the same instruction: pc, all 32 registers, every
   memory page and stdout.  One such machine serves a whole replay:
   for each child it is reset to a fresh image, zero registers, the
   entry pc, instret 0 and empty stdout, and keeps only its word memo
   and superblock map, which its run start revalidates against the
   fresh image's code bytes.

The resumed suffix runs on what remains of the executor's step budget,
so it runs out of fuel at the instruction a from-entry replay does; a
copy at or past the budget is never resumed.  Live copies in one
process together hold at most the snapshot pool's byte budget; a copy
over it is not taken, and the children naming it replay from the entry.

**Replay processes.**  The replay runs on every CPU the process may use
(``os.sched_getaffinity``).  The tree is cut into subtrees balanced by
the instructions the certificates claim, and each subtree goes to one
*share*, which owns its paths.  A share replays its paths in path order
as above, together with the ancestors of its subtrees that another
share owns.  These *helpers* only provide the copies its children
resume from: their verdicts, resumes and instructions are discarded.
Every path replays under the same links and copies as in one process,
so the verdicts, their messages and the counters are the same.  The
copy budget holds per process, as the snapshot pool's does per pool
worker: where it binds, a process that holds fewer copies may resume
more children than one process would.  A program whose paths discover
different inputs may also resume a different number of children, since
a copy taken before an input was known is not resumed.

A serial campaign forks one replay process (:class:`ReplayStream`) once
its recorded paths claim :data:`MIN_SHARD_INSTRUCTIONS` and a second
CPU is usable.  It inherits the certificates recorded so far; after
that the parent sends it each new path's certificate with the
divergence points (``bound - 1``) of the children the campaign kept for
that path, over an inbox pipe the parent writes without blocking.  It
replays the paths in path order under :class:`reference_mode` entered
in it alone, copying at each path's kept divergence points (on a
complete campaign, the points its recorded children name) within the
snapshot pool's byte budget, as a one-process replay does (the memory
governor may clear the pool, but never changes its budget).  When the
campaign ends (complete, cut by ``--deadline`` or ``--max-paths``, or
interrupted), :func:`verify_result` hands over any recorded path the
campaign did not, asks the process for the first position it has not
started, and splits only the backlog from there.  The stream's process
keeps the heaviest share; it needs no helpers before the backlog, and
drops every copy no path of its share names, those of kept children a
cut never recorded included.  The parent replays the next share (the
first, without a stream) and forks one replay process per other share,
each started the same way but without an inbox.  A pool's campaign
starts no stream: its broker would build and send every certificate
between replies, a cost not yet measured on a host with a CPU beside
the pool.

Every replay process (the pool's ``fork`` context, a daemon) sends the
messages of the paths it owns, in order, and its resume and
instruction counts over a one-way pipe, then leaves through
``os._exit``; the parent merges the verdicts in path order.  A process
only buys speed.  One that dies, whose answer is missing or malformed,
or that cannot start because a pipe or the fork fails, is counted once
in ``worker_deaths`` and its share replays in the parent.  A fork that
failed would fail again: once one process cannot start, the stream's or
a share's, the campaign forks no more, and every share left replays in
the parent without another death.  One ``finally`` reaps every
process, so an error in the parent stops them before it propagates.
The replay stays in one process where ``fork`` is unavailable, or where
a share would claim fewer than :data:`MIN_SHARD_INSTRUCTIONS`.

Links are hints, never evidence: a missing, out-of-range or wrong link
costs a from-entry replay, never a verdict.  The copies, the
re-concretization and both checks share no code with the snapshot layer
(:mod:`repro.core.snapshots`, ``ByteMemory.snapshot_pages``/``adopt``/
``fork``, ``SymbolicInterpreter.resume``), which they are the reference
for.  Other engines, and BinSym under ``FREE`` address concretization,
replay every path from the entry.

What the tree gives up: a from-entry replay re-derives a child's prefix
under the child's own inputs, so it also catches a bug in the shared
interpreter's concolic invariant whose effect is dead by the divergence
point.  Check (2) keeps that detection wherever the effect is still
live there.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import select
import signal
from dataclasses import dataclass
from typing import Optional

from ..arch.hart import HaltReason
from ..arch.memory import ShadowMemory
from ..concrete.interpreter import ConcreteInterpreter
from ..smt.evalbv import evaluate
from .concretize import ConcretizationPolicy
from .executor import BinSymExecutor
from .scheduler import deserialize_assignment, query_digest, serialize_assignment
from .symvalue import SymValue

__all__ = [
    "PathCertificate",
    "certificate_for",
    "certificate_to_state",
    "certificate_from_state",
    "replay_mismatches",
    "verify_result",
    "ReplayStream",
    "reference_mode",
    "stdout_digest",
    "MIN_SHARD_INSTRUCTIONS",
]

#: Claimed instructions each shard must get before the replay forks.
#: The replay takes 4-6 us per claimed instruction on the three
#: perfbench programs, so this is 30-50 ms of work, about ten times the
#: 3.3 ms (median of 30) that forking a shard, reading its reply and
#: joining it cost on a 2-core x86-64 container with Python 3.11.
MIN_SHARD_INSTRUCTIONS = 8_000

#: Subtrees cut per shard, so that the heaviest-first assignment can
#: balance them; more cuts mean more helper replays.
_PIECES_PER_SHARD = 4


def stdout_digest(data: bytes) -> str:
    """Short stable digest of a path's captured output."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@dataclass(frozen=True)
class PathCertificate:
    """Independently checkable claim about one explored path.

    ``inputs`` is the name-keyed serialized assignment (see
    :func:`repro.core.scheduler.serialize_assignment`), so the
    certificate is self-contained: any process holding the same SUT
    image can replay it.  ``condition_digest`` is ``None`` when the
    exploring driver did not record condition chains (certify mode
    off, or a path restored from a pre-certify checkpoint) — replay
    then checks the observable fields only.  ``parent`` and
    ``divergence`` link the path to the path whose run produced it and
    the branch record it flipped (``None`` for the root; a journal keeps
    both); they only steer the replay, never its verdict.
    """

    index: int
    inputs: tuple
    halt_reason: Optional[str]
    exit_code: Optional[int]
    instret: int
    trace_length: int
    stdout_digest: str
    final_pc: int
    condition_digest: Optional[int] = None
    parent: Optional[int] = None
    divergence: Optional[int] = None


def certificate_for(path) -> PathCertificate:
    """Build the certificate a recorded :class:`PathInfo` claims."""
    return PathCertificate(
        index=path.index,
        inputs=serialize_assignment(path.assignment),
        halt_reason=path.halt_reason,
        exit_code=path.exit_code,
        instret=path.instret,
        trace_length=path.trace_length,
        stdout_digest=stdout_digest(path.stdout),
        final_pc=path.final_pc,
        condition_digest=path.condition_digest,
        parent=path.parent,
        divergence=path.divergence,
    )


def certificate_to_state(cert: PathCertificate) -> dict:
    """JSON-able state block for the persistent artifact store.

    Pure data translation — ``inputs`` tuples become lists, everything
    else is already a scalar — so a certificate written by one process
    reads back bit-identically in another.
    """
    return {
        "index": cert.index,
        "inputs": [list(binding) for binding in cert.inputs],
        "halt_reason": cert.halt_reason,
        "exit_code": cert.exit_code,
        "instret": cert.instret,
        "trace_length": cert.trace_length,
        "stdout_digest": cert.stdout_digest,
        "final_pc": cert.final_pc,
        "condition_digest": cert.condition_digest,
        "parent": cert.parent,
        "divergence": cert.divergence,
    }


def _is_int(value) -> bool:
    """An int that is not a bool (JSON ``true`` loads as ``True``)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_int(value) and value >= 0


def certificate_from_state(state: dict) -> PathCertificate:
    """Rebuild a certificate from its store state; ``ValueError`` on rot.

    Every field is type-checked.  ``condition_digest``, ``parent`` and
    ``divergence`` are optional keys, so certificates written before the
    links existed still load.
    """
    if not isinstance(state, dict):
        raise ValueError("certificate state is not an object")
    try:
        inputs = state["inputs"]
        if not isinstance(inputs, list):
            raise ValueError("malformed certificate inputs")
        bindings = []
        for binding in inputs:
            name, width, value = binding
            if not (isinstance(name, str) and _is_int(width) and _is_int(value)):
                raise ValueError(f"malformed input binding {binding!r}")
            bindings.append((name, width, value))
        cert = PathCertificate(
            index=state["index"],
            inputs=tuple(bindings),
            halt_reason=state["halt_reason"],
            exit_code=state["exit_code"],
            instret=state["instret"],
            trace_length=state["trace_length"],
            stdout_digest=state["stdout_digest"],
            final_pc=state["final_pc"],
            condition_digest=state.get("condition_digest"),
            parent=state.get("parent"),
            divergence=state.get("divergence"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed certificate state: {exc}") from None
    checks = (
        ("index", _is_count(cert.index)),
        ("halt_reason", cert.halt_reason is None or isinstance(cert.halt_reason, str)),
        ("exit_code", cert.exit_code is None or _is_int(cert.exit_code)),
        ("instret", _is_count(cert.instret)),
        ("trace_length", _is_count(cert.trace_length)),
        ("stdout_digest", isinstance(cert.stdout_digest, str)),
        ("final_pc", _is_count(cert.final_pc)),
        ("condition_digest", cert.condition_digest is None or _is_int(cert.condition_digest)),
        ("parent", cert.parent is None or _is_count(cert.parent)),
        ("divergence", cert.divergence is None or _is_count(cert.divergence)),
    )
    for name, valid in checks:
        if not valid:
            raise ValueError(
                f"malformed certificate field {name}: {getattr(cert, name)!r}"
            )
    return cert


def _mismatches(cert: PathCertificate, run) -> list[str]:
    """Every field of ``cert`` that the replayed ``run`` contradicts."""
    checks = [
        ("halt_reason", cert.halt_reason, run.halt_reason),
        ("exit_code", cert.exit_code, run.exit_code),
        ("instret", cert.instret, run.instret),
        ("trace_length", cert.trace_length, len(run.trace)),
        ("stdout_digest", cert.stdout_digest, stdout_digest(run.stdout)),
        ("final_pc", cert.final_pc, run.final_pc),
    ]
    if cert.condition_digest is not None:
        checks.append(
            (
                "condition_digest",
                cert.condition_digest,
                query_digest(run.trace.conditions()),
            )
        )
    return [
        f"path {cert.index}: {name} mismatch (claimed {claimed!r}, replay {got!r})"
        for name, claimed, got in checks
        if claimed != got
    ]


def replay_mismatches(cert: PathCertificate, executor) -> list[str]:
    """Replay ``cert``'s inputs on ``executor``; list every mismatch.

    An empty list means the certificate checked.  The caller is
    responsible for putting the executor into reference configuration
    first (see :class:`reference_mode`) — this function only replays
    from the entry point and compares.  It is the from-entry check
    :func:`verify_result`'s tree replay must agree with.
    """
    return _mismatches(cert, executor.execute(deserialize_assignment(cert.inputs)))


class reference_mode:
    """Temporarily drop an executor to the reference evaluator.

    Staging and superblocks go off for the duration (engines without
    those knobs are left untouched); the previous configuration is
    restored on exit, so a certify pass does not perturb whatever runs
    the caller does next.  Replays never ask the executor for snapshot
    capture or resumption, so the snapshot layer stays out of the
    picture: a tree replay resumes only from the checker's own plain
    copies, under the two checks of the module docstring.
    """

    def __init__(self, executor):
        self.executor = executor
        self._staging: Optional[bool] = None
        self._superblocks: Optional[bool] = None

    def __enter__(self):
        executor = self.executor
        interpreter = getattr(executor, "interpreter", None)
        if hasattr(executor, "set_staging"):
            self._staging = getattr(interpreter, "staging", None)
            executor.set_staging(False)
        if hasattr(executor, "set_superblocks"):
            self._superblocks = getattr(executor, "superblocks_enabled", None)
            executor.set_superblocks(False)
        return executor

    def __exit__(self, *exc_info):
        if self._staging is not None:
            self.executor.set_staging(self._staging)
        if self._superblocks is not None:
            self.executor.set_superblocks(self._superblocks)
        return False


class _EntryReplay:
    """Replays every certificate from the entry point."""

    def __init__(self, executor):
        self.executor = executor
        #: Children resumed from their parent's copy, and instructions
        #: the symbolic replay executed.
        self.resumed = 0
        self.instructions = 0

    def replay(self, position: int, cert: PathCertificate) -> list[str]:
        run = self.executor.execute(deserialize_assignment(cert.inputs))
        self.instructions += run.instret
        return _mismatches(cert, run)

    def add(self, position: int, cert: PathCertificate, divergences) -> None:
        """A streamed path: nothing to plan without copies."""

    def retain(self, certificates, members) -> None:
        """Nothing to drop without copies."""


#: Estimated bytes per copied shadow entry, trace record, register or
#: stdout shadow term (the dict slot or list slot plus its share of the
#: containers).
_ENTRY_BYTES = 96


def _copy_size(interp, base: int) -> int:
    """Bytes a :class:`_Copy` of ``interp`` with ``base`` records holds."""
    entries = len(interp.shadow) + base + len(interp.stdout_shadow) + 32
    return interp.memory.resident_bytes + entries * _ENTRY_BYTES + len(interp.stdout)


class _Copy:
    """The reference interpreter's state at one instruction start,
    copied plainly: page bytes, the shadow dict, the registers, the
    trace prefix up to the instruction start, stdout and its shadow."""

    __slots__ = (
        "pc",
        "instret",
        "memory",
        "shadow",
        "regs",
        "records",
        "stdout",
        "stdout_shadow",
        "inputs_count",
        "env",
        "size",
        "links",
    )

    def __init__(self, interp, base: int, env: dict, size: int):
        hart, shadow = interp.hart, interp.shadow
        self.pc = hart.pc
        self.instret = hart.instret
        self.memory = interp.memory.clone()
        self.shadow = {
            address: shadow.get(address) for address in shadow.tainted_addresses()
        }
        self.regs = [hart.regs.read(index) for index in range(32)]
        self.records = interp.trace.records[:base]
        self.stdout = bytes(interp.stdout)
        self.stdout_shadow = list(interp.stdout_shadow)
        #: Inputs known at the copy: a later-discovered one would be
        #: written at a from-entry replay's start, so a resume refuses.
        self.inputs_count = len(interp.inputs)
        #: The copied run's input values (what the concrete data hold).
        self.env = env
        self.size = size
        #: Links still naming this copy (records of one instruction
        #: share it); its bytes are released when the last one drops.
        self.links = 0


class _TreeReplay(_EntryReplay):
    """Replays each child from its parent's copy (see the module doc).

    Live copies together hold at most the executor's snapshot-pool
    budget (``snapshot_pool.max_bytes``): a copy that would exceed it is
    not taken, and the children naming it replay from the entry.
    Copies are taken only for the children among ``members``, the
    positions this replay runs.  A streamed replay starts with no
    members and learns each path's link and its kept children's
    divergence points as the path arrives (:meth:`add`).
    """

    def __init__(self, executor, certificates, members):
        super().__init__(executor)
        self.interp = executor.interpreter
        self.budget = executor.snapshot_pool.max_bytes
        #: Bytes held by live copies.
        self.held = 0
        self.copies: dict = {}
        #: Check (2)'s concrete machine, built at the first resume.
        self.machine: Optional[ConcreteInterpreter] = None
        self.retain(certificates, members)

    def retain(self, certificates, members) -> None:
        """Plan for the children among ``members`` only, and drop every
        copy none of them names."""
        #: (parent, divergence) -> position of the last child linked
        #: there: the copy is dropped once that child has replayed.
        self.last_child: dict = {}
        for position in members:
            link = _link(certificates[position], position)
            if link is not None:
                self.last_child[link] = position
        #: Parent position -> divergence points its children name.
        self.wanted: dict = {}
        for parent, divergence in self.last_child:
            self.wanted.setdefault(parent, set()).add(divergence)
        for link in [link for link in self.copies if link not in self.last_child]:
            self._drop(link)

    def add(self, position: int, cert: PathCertificate, divergences) -> None:
        """A streamed path: its link, and the divergence points of the
        children the campaign kept for it, which it copies at."""
        link = _link(cert, position)
        if link is not None:
            self.last_child[link] = position
        if divergences:
            self.wanted[position] = set(divergences)

    def replay(self, position: int, cert: PathCertificate) -> list[str]:
        executor, interp = self.executor, self.interp
        assignment = deserialize_assignment(cert.inputs)
        link = _link(cert, position)
        copy = self.copies.get(link) if link is not None else None
        if copy is not None and self._resume(copy, assignment):
            self.resumed += 1
            resumed_instret = copy.instret
        else:
            executor.start(assignment)
            resumed_instret = 0
        if link is not None and self.last_child[link] == position:
            self._drop(link)
        wanted = self.wanted.get(position)
        interp.capture_with(self._copier(position, wanted) if wanted else None)
        run = executor.finish(assignment, resumed_instret)
        interp.capture_with(None)
        self.instructions += run.instret - resumed_instret
        return _mismatches(cert, run)

    def _drop(self, link: tuple) -> None:
        copy = self.copies.pop(link, None)
        if copy is not None:
            copy.links -= 1
            if not copy.links:
                self.held -= copy.size

    def _copier(self, position: int, wanted: set):
        """Capture hook: copy the state at each wanted divergence point
        (records of one instruction share one copy) within the budget."""
        interp, copies, executor = self.interp, self.copies, self.executor
        last: list = [None]

        def hook(index: int, base: int) -> None:
            if index not in wanted:
                return
            copy = last[0]
            if copy is None or copy.instret != interp.hart.instret:
                size = _copy_size(interp, base)
                if self.held + size > self.budget:
                    return
                env = executor.input_environment(interp.assignment)
                copy = last[0] = _Copy(interp, base, env, size)
                self.held += size
            copy.links += 1
            copies[position, index] = copy

        return hook

    def _resume(self, copy: _Copy, assignment) -> bool:
        """Install ``copy`` re-concretized under ``assignment`` if checks
        (1) and (2) hold; False leaves the interpreter untouched.

        A copy at or past the step budget is refused: a run from the
        entry has run out of fuel by then.  The resumed suffix gets only
        the rest of the budget (:meth:`BinSymExecutor.finish`).
        """
        interp = self.interp
        if (
            copy.inputs_count != len(interp.inputs)
            or copy.instret >= self.executor.max_steps
        ):
            return False
        env = self.executor.input_environment(assignment)
        changed = {
            variable for variable, value in env.items() if copy.env[variable] != value
        }

        def reads_changed(term) -> bool:
            return not changed.isdisjoint(term.free_vars())

        # One memo for every term evaluated under env here.
        memo: dict = {}
        # Check (1): the parent's prefix holds under the child's inputs.
        for record in copy.records:
            condition = record.condition
            if reads_changed(condition) and not evaluate(condition, env, memo):
                return False
        regs = list(copy.regs)
        for index, value in enumerate(regs):
            term = value.term
            if index and term is not None and reads_changed(term):
                regs[index] = SymValue(evaluate(term, env, memo), value.width, term)
        memory = copy.memory.clone()
        for address, term in copy.shadow.items():
            if reads_changed(term):
                memory.write_byte(address, evaluate(term, env, memo))
        stdout = bytearray(copy.stdout)
        for offset, term in copy.stdout_shadow:
            if reads_changed(term):
                stdout[offset] = evaluate(term, env, memo) & 0xFF
        if not self._concrete_agrees(copy, env, regs, memory, stdout):
            return False
        shadow = ShadowMemory()
        for address, term in copy.shadow.items():
            shadow.set(address, term)
        interp.restore(
            copy.pc,
            copy.instret,
            memory,
            shadow,
            regs,
            list(copy.records),
            stdout,
            list(copy.stdout_shadow),
            assignment,
        )
        return True

    def _concrete_agrees(self, copy: _Copy, env, regs, memory, stdout) -> bool:
        """Check (2): a concrete run from the entry under the child's
        inputs reaches exactly the re-concretized state.  One machine
        serves the whole replay, reset to the image for each child."""
        interp = self.interp
        machine = self.machine
        if machine is None:
            machine = self.machine = ConcreteInterpreter(interp.isa)
        machine.reset(interp.image)
        for sym_input in interp.inputs.values():
            machine.memory.write_byte(sym_input.address, env[sym_input.variable])
        for index, variable in self.executor.register_inputs.items():
            machine.write_register_int(index, env[variable])
        hart = machine.run(copy.instret)
        return (
            hart.halt_reason == HaltReason.OUT_OF_FUEL
            and hart.instret == copy.instret
            and hart.pc == copy.pc
            and all(hart.regs.read(i) == regs[i].concrete for i in range(32))
            and machine.platform.stdout == stdout
            and machine.memory.same_bytes(memory)
        )


def _link(cert: PathCertificate, position: int) -> Optional[tuple]:
    """``(parent, divergence)`` if the certificate names a usable link:
    a parent earlier in the list and a record index."""
    parent, divergence = cert.parent, cert.divergence
    if _is_int(parent) and 0 <= parent < position and _is_count(divergence):
        return parent, divergence
    return None


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _shard_count(certificates) -> int:
    """One shard per usable CPU, as long as each claims at least
    :data:`MIN_SHARD_INSTRUCTIONS`; one where ``fork`` is unavailable."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    claimed = sum(cert.instret for cert in certificates)
    return max(1, min(_usable_cpus(), claimed // MIN_SHARD_INSTRUCTIONS))


def _partition(
    certificates, tree: bool, count: int, start: int = 0
) -> list[tuple[list, list]]:
    """Split the positions from ``start`` on into at most ``count``
    shards, each a pair ``(members, owned)`` of sorted positions.  Every
    such position is owned by exactly one shard; a shard's members are
    the positions it owns and all their ancestors (none unless
    ``tree``), those before ``start`` included.

    Walking up from the leaves, a subtree is cut off as a piece once its
    uncut part claims ``1 / (count * _PIECES_PER_SHARD)`` of all claimed
    instructions from ``start`` on, and each root, or child of a path
    before ``start``, closes a piece.  Heaviest piece first, each piece
    goes to the shard whose claimed work, helpers from ``start`` on
    included, ends lowest.  Ties go to the lower position and shard, so
    the split depends on the certificates alone.  The shard claiming the
    most comes first: the replay stream's process keeps it, or else the
    parent replays it while the others fork.
    """
    parents: list = [None] * len(certificates)
    if tree:
        for position, cert in enumerate(certificates):
            link = _link(cert, position)
            if link is not None:
                parents[position] = link[0]
    claimed = [cert.instret if p >= start else 0 for p, cert in enumerate(certificates)]
    piece = sum(claimed) / (count * _PIECES_PER_SHARD)
    # A parent precedes its children, so reversed order visits every
    # child before its parent; ``rest`` ends as each piece's claim.
    rest = list(claimed)
    cut = [True] * len(certificates)
    for position in reversed(range(start, len(certificates))):
        parent = parents[position]
        if parent is not None and parent >= start and rest[position] < piece:
            rest[parent] += rest[position]
            cut[position] = False
    pieces: dict = {}
    top = list(range(len(certificates)))
    for position in range(start, len(certificates)):
        if not cut[position]:
            top[position] = top[parents[position]]
        pieces.setdefault(top[position], []).append(position)
    members: list = [set() for _ in range(count)]
    owned: list = [[] for _ in range(count)]
    load = [0] * count
    for root in sorted(pieces, key=lambda position: (-rest[position], position)):
        need = set(pieces[root])
        ancestor = parents[root]
        while ancestor is not None:
            need.add(ancestor)
            ancestor = parents[ancestor]
        grow = [sum(claimed[p] for p in need - members[s]) for s in range(count)]
        shard = min(range(count), key=lambda s: (load[s] + grow[s], s))
        load[shard] += grow[shard]
        members[shard] |= need
        owned[shard].extend(pieces[root])
    heaviest = sorted(range(count), key=lambda s: (-load[s], s))
    return [(sorted(members[s]), sorted(owned[s])) for s in heaviest if owned[s]]


def _replay_shard(executor, certificates, tree: bool, members, owned) -> tuple:
    """Replay ``members`` in path order.  Returns the messages of each
    ``owned`` position, in order, and the resumes and instructions of
    those positions: a helper's replay only leaves its copies behind."""
    replay = (
        _TreeReplay(executor, certificates, members) if tree else _EntryReplay(executor)
    )
    return _replay_members(replay, certificates, members, owned, [])


def _replay_members(replay, certificates, members, owned, messages: list) -> tuple:
    """:func:`_replay_shard` on a replay that may have run before:
    ``messages`` and its counts so far are those of positions it owned."""
    owns = set(owned)
    for position in members:
        resumed, instructions = replay.resumed, replay.instructions
        problems = replay.replay(position, certificates[position])
        if position in owns:
            messages.append(problems)
        else:
            replay.resumed, replay.instructions = resumed, instructions
    return messages, replay.resumed, replay.instructions


def _frame(message) -> bytes:
    """One message on the stream pipe: its pickle's length, then it."""
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    return len(data).to_bytes(4, "big") + data


class _Inbox:
    """The replay process's end of the stream pipe."""

    def __init__(self, fd: int):
        self.fd = fd
        self.buffer = bytearray()
        self.waiting = select.poll()
        self.waiting.register(fd, select.POLLIN)

    def read(self, block: bool) -> list:
        """Every message the pipe holds whole; with ``block``, at least
        one.  ``EOFError`` once every writer has closed it."""
        messages: list = []
        buffer = self.buffer
        while True:
            while len(buffer) >= 4:
                end = 4 + int.from_bytes(buffer[:4], "big")
                if len(buffer) < end:
                    break
                messages.append(pickle.loads(buffer[4:end]))
                del buffer[:end]
            if (messages or not block) and not self.waiting.poll(0):
                return messages
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                if messages:
                    return messages
                raise EOFError("the stream pipe closed")
            buffer += chunk


def _stream_main(inbox, reply, executor, certificates, kept, tree) -> tuple:
    """The replay of a :class:`ReplayStream`'s process.

    Replays the inherited certificates and each one the parent streams
    after them in path order, copying at the divergence points of each
    path's ``kept`` children, until the parent ends the stream
    (``None``).
    It answers the first position it has not started, then replays the
    share ``(members, owned)`` of the backlog the parent hands it, after
    dropping every copy no member names.  Returns the outcome of every
    position it owns, as :func:`_replay_shard` does for a share."""
    read, write = inbox
    os.close(write)  # the parent's end: the pipe closes when the parent's does
    inbox = _Inbox(read)
    with reference_mode(executor):
        replay = (
            _TreeReplay(executor, certificates, ()) if tree else _EntryReplay(executor)
        )
        for position, divergences in enumerate(kept):
            replay.add(position, certificates[position], divergences)
        messages: list = []
        ended = False
        while not ended:
            position = len(messages)
            for path in inbox.read(block=position == len(certificates)):
                if path is None:
                    ended = True
                    continue
                cert, divergences = path
                replay.add(len(certificates), cert, divergences)
                certificates.append(cert)
            if not ended:
                messages.append(replay.replay(position, certificates[position]))
        reply.send(len(messages))
        ((members, owned),) = inbox.read(block=True)
        replay.retain(certificates, members)
        return _replay_members(replay, certificates, members, owned, messages)


def _replay_main(reply, inbox, executor, certificates, tree, work) -> None:
    """A forked replay process: replay ``work`` and send the outcome
    home.  ``work`` is a share ``(members, owned)`` (:func:`_replay_shard`),
    or, with an ``inbox``, a stream's kept divergence points
    (:func:`_stream_main`).  multiprocessing then leaves through
    ``os._exit``.  Ctrl-C is the parent's to handle, and it stops its
    replay processes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if inbox is None:
        outcome = _replay_shard(executor, certificates, tree, *work)
    else:
        outcome = _stream_main(inbox, reply, executor, certificates, work, tree)
    reply.send(outcome)
    reply.close()


class _ReplayProcess:
    """A forked replay process and its one-way reply pipe (see the module
    doc).  ``members`` and ``owned`` are its share: the positions it
    replays and those whose verdicts it answers."""

    def __init__(self, members=(), owned=()):
        self.members, self.owned = members, owned
        self.process = None
        self._reply = None
        #: The parent's end of a stream's inbox.
        self._fd: Optional[int] = None

    def start(self, executor, certificates, tree: bool, work, stream=False) -> bool:
        """Fork the process on ``work`` (:func:`_replay_main`), with an
        inbox if it is a ``stream``'s.  False if a pipe or the fork
        fails: no process runs then, and nothing is left open."""
        context = multiprocessing.get_context("fork")
        read = send = inbox = None
        try:
            if stream:
                read, self._fd = os.pipe()
                inbox = (read, self._fd)
            self._reply, send = context.Pipe(duplex=False)
            self.process = context.Process(
                target=_replay_main,
                args=(send, inbox, executor, certificates, tree, work),
                daemon=True,
            )
            self.process.start()
        except OSError:
            self.close()
            self.process = None
            return False
        finally:
            if read is not None:
                os.close(read)
            if send is not None:
                send.close()  # so the reply pipe ends when the process does
        if stream:
            os.set_blocking(self._fd, False)
        return True

    def _answer(self):
        """The next reply, or None if the pipe ended or it is garbled."""
        try:
            return self._reply.recv()
        except (EOFError, OSError, pickle.UnpicklingError, TypeError, ValueError):
            return None

    def outcome(self) -> Optional[tuple]:
        """The outcome for the positions the process owns, or None if it
        never started, died, or its reply is missing or malformed."""
        if self.process is None:
            return None
        reply = self._answer()
        self.process.join()
        if self.process.exitcode or not isinstance(reply, tuple) or len(reply) != 3:
            return None
        messages, resumed, instructions = reply
        if (
            isinstance(messages, list)
            and len(messages) == len(self.owned)
            and all(
                isinstance(problems, list) and all(isinstance(m, str) for m in problems)
                for problems in messages
            )
            and _is_count(resumed)
            and _is_count(instructions)
        ):
            return reply
        return None

    def close(self) -> None:
        """Stop the process if it still runs; close the pipes."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        process = self.process
        if process is not None and process.pid is not None:
            if process.exitcode is None:
                process.kill()
            process.join()
        if self._reply is not None:
            self._reply.close()
            self._reply = None


class ReplayStream(_ReplayProcess):
    """Certify replay beside a serial campaign, on a CPU it leaves free
    (see the module doc).  The campaign
    (:class:`repro.core.explorer._Campaign`) hands over each path it
    records with the divergence points of the children it kept for it
    (:meth:`add`), and :func:`verify_result` ends the stream.  The inbox
    is written without blocking, so a replay process that falls behind
    never stalls the campaign."""

    def __init__(self, result, executor):
        super().__init__()
        self.result = result
        self.executor = executor
        #: Whether a replay process may be forked: a usable CPU is left
        #: beside the exploring process, and no start has failed.
        self.spare = (
            "fork" in multiprocessing.get_all_start_methods() and _usable_cpus() > 1
        )
        #: Until the fork: per recorded path, the divergence points of
        #: its kept children, and the instructions the paths claim.
        self.kept: list = []
        self.claimed = 0
        #: From the fork on: one certificate per recorded path.
        self.certificates: list = []
        self._outbox = bytearray()

    def restore(self, pending) -> None:
        """Take over a journal's paths: a path's kept children are its
        restored children and the restored ``pending`` items it queued."""
        paths = self.result.paths
        self.kept = [[] for _ in paths]
        children = [(path.parent, path.divergence) for path in paths]
        children += [(item.parent, item.bound - 1) for item in pending]
        for parent, divergence in children:
            if parent is not None and 0 <= parent < len(paths):
                self.kept[parent].append(divergence)
        self.claimed = sum(path.instret for path in paths)

    def add(self, index: int, divergences: list) -> None:
        """Path ``index`` is recorded, and the children the campaign kept
        for it, which name ``divergences``, are queued."""
        path = self.result.paths[index]
        if self.process is not None:
            cert = certificate_for(path)
            self.certificates.append(cert)
            self._send((cert, divergences))
        elif self.spare:
            self.kept.append(divergences)
            self.claimed += path.instret
            if self.claimed >= MIN_SHARD_INSTRUCTIONS:
                self._start()

    def _start(self) -> None:
        """Fork the replay process, once: a failed start counts as a lost
        process, and the campaign goes on without a stream and forks no
        replay process at its end."""
        self.certificates = [certificate_for(path) for path in self.result.paths]
        kept, self.kept = self.kept, []
        if not self.start(
            self.executor, self.certificates, _tree(self.executor), kept, stream=True
        ):
            self.spare = False
            self.result.worker_deaths += 1

    def _send(self, message) -> None:
        """Queue ``message`` and write what the pipe takes; nothing once
        the replay process is gone."""
        if self._fd is None:
            return
        self._outbox += _frame(message)
        try:
            while self._outbox:
                del self._outbox[: os.write(self._fd, self._outbox)]
        except BlockingIOError:
            pass  # the pipe is full: the rest goes with a later message
        except OSError:  # the replay process is gone; the end shows it
            os.close(self._fd)
            self._fd = None

    def stop(self) -> Optional[int]:
        """End the stream: the first position the replay process has not
        started, or None if it is lost, which stops it.  A path recorded
        but not handed over (a Ctrl-C between the two) goes first, with
        no kept children, since none of them is recorded."""
        for index in range(len(self.certificates), len(self.result.paths)):
            self.add(index, [])
        if self._fd is not None:
            os.set_blocking(self._fd, True)
        self._send(None)
        position = self._answer()
        if _is_count(position) and position <= len(self.certificates):
            return position
        self.close()
        return None

    def keep(self, start: int, members, owned) -> None:
        """Hand the replay process its share ``(members, owned)`` of the
        backlog from ``start``; it owns the positions before ``start``
        too, and replays them again if it is lost."""
        self._send(([p for p in members if p >= start], owned))
        if self._fd is not None:
            os.close(self._fd)  # processes forked from here do not inherit it
            self._fd = None
        self.members = sorted(set(range(start)).union(members))
        self.owned = list(range(start)) + owned


def _tree(executor) -> bool:
    """Whether ``executor``'s paths replay as a tree.  Under FREE
    concretization a symbolic address is not pinned in the trace, so a
    child satisfying its parent's prefix may still load through
    different addresses (other terms, same bytes): check (1) would not
    show the resume exact."""
    return (
        type(executor) is BinSymExecutor
        and executor.interpreter.concretization is ConcretizationPolicy.PIN
    )


def verify_result(result, executor, stream: Optional[ReplayStream] = None) -> list[str]:
    """Replay-verify every recorded path of an exploration result.

    Builds one certificate per path, replays each under the reference
    evaluator (as a tree for :class:`BinSymExecutor` under the default
    PIN concretization, see the module docstring; otherwise from the
    entry) in as many replay processes as it pays to fork, and folds the
    outcome into the result's accounting: ``certified_paths`` /
    ``certificate_failures`` counters, ``certificate_resumed`` /
    ``certificate_instructions``, the ``certificates`` list, and
    ``certificate_errors`` carrying one message per mismatching field,
    in path order.  Returns the error list.

    With a ``stream`` whose replay process runs, that process has
    replayed the paths up to the position it reports: only the backlog
    after it is split, and the process keeps the first share.  The
    parent replays the next share and forks the others.  A lost replay
    process's share is replayed here, counted in ``worker_deaths``;
    after a failed start, the stream's or a share's, the shares not yet
    forked are replayed here too, uncounted.
    """
    tree = _tree(executor)
    processes: list = []
    start = 0
    if stream is not None and stream.process is not None:
        certificates = stream.certificates
        start = stream.stop()
        if start is None:  # lost before the end: every path replays here
            result.worker_deaths += 1
            start = 0
        else:
            processes.append(stream)
    else:
        certificates = [certificate_for(path) for path in result.paths]
    shares = _partition(certificates, tree, _shard_count(certificates[start:]), start)
    if processes:
        stream.keep(start, *(shares.pop(0) if shares else ([], [])))
    forking = stream is None or stream.spare
    outcomes: list = []
    with reference_mode(executor):
        try:
            for members, owned in shares[1:]:
                process = _ReplayProcess(members, owned)
                if forking and not process.start(
                    executor, certificates, tree, (members, owned)
                ):
                    result.worker_deaths += 1
                    forking = False
                processes.append(process)
            if shares:  # the parent's own share
                members, owned = shares[0]
                shard = _replay_shard(executor, certificates, tree, members, owned)
                outcomes.append((owned, shard))
            for process in processes:
                outcome = process.outcome()
                if outcome is None:
                    if process.process is not None:  # lost, not unstarted
                        result.worker_deaths += 1
                    outcome = _replay_shard(
                        executor, certificates, tree, process.members, process.owned
                    )
                outcomes.append((process.owned, outcome))
        finally:
            for process in processes:
                process.close()
    verdicts: list = [None] * len(certificates)
    for owned, (messages, resumed, instructions) in outcomes:
        for position, problems in zip(owned, messages):
            verdicts[position] = problems
        result.certificate_resumed += resumed
        result.certificate_instructions += instructions
    failures: list[str] = []
    for problems in verdicts:
        if problems:
            failures.extend(problems)
            result.certificate_failures += 1
        else:
            result.certified_paths += 1
    result.certificates = certificates
    result.certificate_errors.extend(failures)
    return failures
