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
   memory page and stdout.

The resumed suffix runs on what remains of the executor's step budget,
so it runs out of fuel at the instruction a from-entry replay does; a
copy at or past the budget is never resumed.  Live copies together hold
at most the snapshot pool's byte budget; a copy over it is not taken,
and the children naming it replay from the entry.

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
    "reference_mode",
    "stdout_digest",
]


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
    the branch record it flipped (``None`` for the root and for paths
    restored from a journal); they only steer the replay, never its
    verdict.
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
    budget (``snapshot_pool.max_bytes``, which the memory governor
    lowers under ``--memory-budget``): a copy that would exceed it is
    not taken, and the children naming it replay from the entry.
    """

    def __init__(self, executor, certificates):
        super().__init__(executor)
        self.interp = executor.interpreter
        self.budget = executor.snapshot_pool.max_bytes
        #: Bytes held by live copies.
        self.held = 0
        #: (parent, divergence) -> position of the last child linked
        #: there: the copy is dropped once that child has replayed.
        self.last_child: dict = {}
        for position, cert in enumerate(certificates):
            link = _link(cert, position)
            if link is not None:
                self.last_child[link] = position
        #: Parent position -> divergence points its children name.
        self.wanted: dict = {}
        for parent, divergence in self.last_child:
            self.wanted.setdefault(parent, set()).add(divergence)
        self.copies: dict = {}

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

        # Check (1): the parent's prefix holds under the child's inputs.
        for record in copy.records:
            condition = record.condition
            if reads_changed(condition) and not evaluate(condition, env):
                return False
        regs = list(copy.regs)
        for index, value in enumerate(regs):
            term = value.term
            if index and term is not None and reads_changed(term):
                regs[index] = SymValue(evaluate(term, env), value.width, term)
        memory = copy.memory.clone()
        for address, term in copy.shadow.items():
            if reads_changed(term):
                memory.write_byte(address, evaluate(term, env))
        stdout = bytearray(copy.stdout)
        for offset, term in copy.stdout_shadow:
            if reads_changed(term):
                stdout[offset] = evaluate(term, env) & 0xFF
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
        inputs reaches exactly the re-concretized state."""
        interp = self.interp
        machine = ConcreteInterpreter(interp.isa)
        machine.load_image(interp.image)
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


def verify_result(result, executor) -> list[str]:
    """Replay-verify every recorded path of an exploration result.

    Builds one certificate per path, replays each under the reference
    evaluator (as a tree for :class:`BinSymExecutor` under the default
    PIN concretization, see the module docstring; otherwise from the
    entry), and folds the outcome into the result's accounting:
    ``certified_paths`` / ``certificate_failures`` counters,
    ``certificate_resumed`` / ``certificate_instructions``, the
    ``certificates`` list, and ``certificate_errors`` carrying one
    message per mismatching field.  Returns the error list.
    """
    certificates = [certificate_for(path) for path in result.paths]
    failures: list[str] = []
    # Under FREE concretization a symbolic address is not pinned in the
    # trace, so a child satisfying its parent's prefix may still load
    # through different addresses (other terms, same bytes): check (1)
    # would not show the resume exact.
    tree = (
        type(executor) is BinSymExecutor
        and executor.interpreter.concretization is ConcretizationPolicy.PIN
    )
    replay = _TreeReplay(executor, certificates) if tree else _EntryReplay(executor)
    with reference_mode(executor):
        for position, cert in enumerate(certificates):
            problems = replay.replay(position, cert)
            if problems:
                failures.extend(problems)
                result.certificate_failures += 1
            else:
                result.certified_paths += 1
    result.certificate_resumed += replay.resumed
    result.certificate_instructions += replay.instructions
    result.certificates = certificates
    result.certificate_errors.extend(failures)
    return failures
