"""Snapshot-resumed exploration (PR 5): differential and unit tests.

The snapshot layer must be observationally invisible: for any program,
input, search strategy and job count, exploring with snapshots on and
off must discover identical path sets with identical query attribution
— snapshots only change how much of each path is *re-executed*.  These
tests pin that equivalence over the Fig. 6 workloads (randomized over
strategies and seeds, serial and ``jobs=4``), exercise the eviction →
re-execution fallback and the capture-safety guards, and unit-test the
copy-on-write memory, the snapshot pool and the bounded digest memo.
"""

import random

import pytest

from repro.arch.memory import ByteMemory, ShadowMemory
from repro.arch.regfile import RegisterFile
from repro.asm import assemble
from repro.core import BinSymExecutor, Explorer, FaultPlan, InputAssignment
from repro.core.scheduler import WorkItem
from repro.core.snapshots import SnapshotPool, StateSnapshot
from repro.core import scheduler
from repro.baselines.vp import VpExecutor
from repro.eval.workloads import WORKLOADS
from repro.smt import terms as T
from repro.spec import Extension, rv32im
from repro.spec.dsl import write_register
from repro.spec.expr import Add, EqInt, imm
from repro.spec.opcodes import encodings_from_yaml
from repro.spec.primitives import DecodeAndReadRType, RunIf, WriteRegister

_ATTRIBUTION_KEYS = (
    "sat_checks",
    "unsat_checks",
    "cache_hits",
    "fast_path_answers",
    "sat_solves",
    "pruned_queries",
    "total_instructions",
)

_FIG6 = (
    ("bubble-sort", 4),
    ("insertion-sort", 4),
    ("base64-encode", 2),
    ("uri-parser", None),
    ("clif-parser", None),
)


#: A loop counted by one symbolic byte: long paths run out of fuel.
_COUNTDOWN = """\
_start:
    li a0, 0x20000
    li a1, 1
    li a7, 1337
    ecall
    lbu t1, 0(a0)
loop:
    beqz t1, done
    addi t1, t1, -1
    j loop
done:
    li a7, 93
    ecall
"""


def _explore(image, snapshots, engine_cls=BinSymExecutor, **kwargs):
    engine = engine_cls(rv32im(), image)
    return Explorer(engine, use_cache=True, snapshots=snapshots, **kwargs).explore()


def _attribution(result):
    return tuple(getattr(result, key) for key in _ATTRIBUTION_KEYS)


def _assignments(result):
    """Per-path input assignments in discovery order (exact identity)."""
    return [
        tuple(
            sorted(
                (var.payload, value)
                for var, value in path.assignment.values.items()
            )
        )
        for path in result.paths
    ]


# ---------------------------------------------------------------------------
# Copy-on-write memory
# ---------------------------------------------------------------------------


class TestCowMemory:
    def test_snapshot_isolated_from_later_writes(self):
        memory = ByteMemory()
        memory.write_bytes(0x1000, b"hello")
        pages = memory.snapshot_pages()
        assert memory.shared_pages == 1
        memory.write_byte(0x1001, 0xAA)  # privatizes the page
        assert memory.shared_pages == 0
        resumed = ByteMemory.adopt(pages)
        assert resumed.read_bytes(0x1000, 5) == b"hello"
        assert memory.read_byte(0x1001) == 0xAA

    def test_adopted_memory_writes_do_not_leak_back(self):
        memory = ByteMemory()
        memory.write_bytes(0x2000, b"abcd")
        twin = memory.fork()
        twin.write_byte(0x2000, ord("X"))
        assert memory.read_byte(0x2000) == ord("a")
        assert twin.read_byte(0x2000) == ord("X")
        # Unwritten pages stay physically shared.
        memory.write_bytes(0x5000, b"z")
        assert twin.read_byte(0x5000) == 0

    def test_refcounts_two_snapshots_one_release(self):
        memory = ByteMemory()
        memory.write_byte(0x3000, 1)
        first = memory.snapshot_pages()
        second = memory.snapshot_pages()
        assert memory._shared[0x3] == 2
        memory.release_pages(first)
        assert memory._shared[0x3] == 1
        memory.release_pages(second)
        assert memory.shared_pages == 0
        # With no outstanding references the write mutates in place.
        page = memory._pages[0x3]
        memory.write_byte(0x3001, 7)
        assert memory._pages[0x3] is page

    def test_release_after_privatization_is_a_noop(self):
        memory = ByteMemory()
        memory.write_byte(0x4000, 1)
        pages = memory.snapshot_pages()
        memory.write_byte(0x4000, 2)  # privatize
        memory.release_pages(pages)  # stale alias: must not underflow
        assert memory.read_byte(0x4000) == 2
        assert pages[0x4][0] == 1

    def test_bulk_write_respects_cow(self):
        memory = ByteMemory()
        memory.write_bytes(0x1000, bytes(range(16)))
        pages = memory.snapshot_pages()
        memory.write_bytes(0x1000, b"\xff" * 16)
        assert ByteMemory.adopt(pages).read_bytes(0x1000, 3) == b"\x00\x01\x02"

    def test_shadow_fork_isolated(self):
        shadow: ShadowMemory = ShadowMemory()
        var = T.bv_var("cow_shadow", 8)
        shadow.set(0x10, var)
        twin = shadow.fork()
        twin.set(0x10, None)
        twin.set(0x11, var)
        assert shadow.get(0x10) is var and shadow.get(0x11) is None

    def test_regfile_fork_isolated(self):
        regs: RegisterFile = RegisterFile(0)
        regs.write(5, 42)
        twin = regs.fork()
        twin.write(5, 7)
        assert regs.read(5) == 42 and twin.read(5) == 7

    def test_hart_fork_isolated(self):
        from repro.arch.hart import Hart

        hart: Hart = Hart(0, pc=0x1000)
        hart.regs.write(3, 9)
        hart.instret = 17
        twin = hart.fork(0)
        twin.regs.write(3, 1)
        twin.pc = 0x2000
        assert (hart.pc, hart.instret, hart.regs.read(3)) == (0x1000, 17, 9)
        assert (twin.pc, twin.instret, twin.regs.read(3)) == (0x2000, 17, 1)


# ---------------------------------------------------------------------------
# Snapshot pool
# ---------------------------------------------------------------------------


def _dummy_snapshot(n_pages=1):
    return StateSnapshot(
        pc=0,
        instret=0,
        pages={i: bytearray(4096) for i in range(n_pages)},
        shadow={},
        regs=(),
        records=(),
        stdout=b"",
        stdout_shadow=(),
        inputs_count=0,
        assignment=InputAssignment(),
    )


class TestSnapshotPool:
    def test_lru_eviction_by_bytes(self):
        pool = SnapshotPool(max_bytes=3 * 4096)
        handles = [pool.add(_dummy_snapshot()) for _ in range(3)]
        assert len(pool) == 3 and pool.evictions == 0
        assert pool.get(handles[0]) is not None  # touch: now most recent
        pool.add(_dummy_snapshot())  # evicts handles[1], the oldest
        assert pool.get(handles[1]) is None
        assert pool.get(handles[0]) is not None
        assert pool.evictions == 1 and pool.misses == 1
        assert pool.resident_bytes <= pool.max_bytes

    def test_oversized_snapshot_rejected(self):
        pool = SnapshotPool(max_bytes=4096)
        assert pool.add(_dummy_snapshot(n_pages=4)) is None
        assert len(pool) == 0

    def test_discard_reclassifies_hit_as_miss(self):
        pool = SnapshotPool()
        handle = pool.add(_dummy_snapshot())
        assert pool.get(handle) is not None
        assert (pool.hits, pool.misses) == (1, 0)
        pool.discard(handle)  # caller found the snapshot stale
        assert (pool.hits, pool.misses) == (0, 1)
        assert len(pool) == 0 and pool.resident_bytes == 0
        pool.discard(handle)  # double-discard is a no-op
        assert (pool.hits, pool.misses) == (0, 1)

    def test_eviction_releases_source_pages(self):
        """Evicting a snapshot hands its page refs back to the live
        capturing memory, un-marking pages nothing else protects."""
        import weakref

        memory = ByteMemory()
        memory.write_byte(0x1000, 1)
        snapshot = _dummy_snapshot()
        snapshot.pages = memory.snapshot_pages()
        snapshot.source = weakref.ref(memory)
        pool = SnapshotPool(max_bytes=2 * 4096)
        pool.add(snapshot)
        assert memory.shared_pages == 1
        pool.add(_dummy_snapshot(n_pages=2))  # evicts the first
        assert pool.evictions == 1
        assert memory.shared_pages == 0

    def test_last_release_frees_the_snapshot(self):
        """The capturing run holds a snapshot from add(), each hold()
        needs a release(), and the last one frees the snapshot and hands
        its page references back, as eviction does."""
        import weakref

        memory = ByteMemory()
        memory.write_byte(0x1000, 1)
        snapshot = _dummy_snapshot()
        snapshot.pages = memory.snapshot_pages()
        snapshot.source = weakref.ref(memory)
        pool = SnapshotPool()
        handle = pool.add(snapshot)
        pool.hold(handle)  # a child names it
        pool.release(handle)  # the capturing run's hold
        assert len(pool) == 1 and memory.shared_pages == 1
        pool.release(handle)  # the child ran
        assert len(pool) == 0 and pool.resident_bytes == 0
        assert memory.shared_pages == 0 and pool.evictions == 0
        pool.hold(handle)  # gone: neither call brings it back
        pool.release(handle)
        assert len(pool) == 0 and pool.get(handle) is None

    def test_release_from_frees_what_a_failed_run_captured(self):
        pool = SnapshotPool()
        kept = pool.add(_dummy_snapshot())
        first = pool.next_handle
        pool.add(_dummy_snapshot())
        pool.add(_dummy_snapshot())
        pool.release_from(first)
        assert len(pool) == 1 and pool.get(kept) is not None


# ---------------------------------------------------------------------------
# Bounded digest memo (satellite)
# ---------------------------------------------------------------------------


def test_digest_memo_bounded_and_stable(monkeypatch):
    from repro.smt import digest

    monkeypatch.setattr(digest, "DIGEST_MEMO_CAPACITY", 8)
    monkeypatch.setattr(digest, "_DIGEST_MEMO", {})
    variables = [T.bv_var(f"digest_lru_{i}", 32) for i in range(40)]
    terms = [T.eq(v, T.bv(i, 32)) for i, v in enumerate(variables)]
    first = [scheduler.term_digest(t) for t in terms]
    assert len(digest._DIGEST_MEMO) <= 8
    # Evicted digests recompute to the same value (pure structural hash).
    again = [scheduler.term_digest(t) for t in terms]
    assert first == again
    assert len(digest._DIGEST_MEMO) <= 8


def test_digest_memo_lru_keeps_hot_entries(monkeypatch):
    from repro.smt import digest

    monkeypatch.setattr(digest, "DIGEST_MEMO_CAPACITY", 4)
    monkeypatch.setattr(digest, "_DIGEST_MEMO", {})
    hot = T.bv_var("digest_hot", 8)
    scheduler.term_digest(hot)
    for i in range(16):
        scheduler.term_digest(T.bv_var(f"digest_cold_{i}", 8))
        scheduler.term_digest(hot)  # touch: must survive the churn
    assert hot in digest._DIGEST_MEMO


# ---------------------------------------------------------------------------
# Snapshot-on vs snapshot-off differentials (the PR's contract)
# ---------------------------------------------------------------------------


class TestSnapshotDifferential:
    @pytest.mark.parametrize("name,scale", _FIG6)
    def test_workload_identity_serial(self, name, scale):
        image = WORKLOADS[name].image(scale or WORKLOADS[name].default_scale)
        on = _explore(image, snapshots=True)
        off = _explore(image, snapshots=False)
        assert on.path_set() == off.path_set()
        assert _attribution(on) == _attribution(off)
        assert _assignments(on) == _assignments(off)
        # The point of the layer: most runs resume, replay drops.
        assert on.resumed_runs == on.num_paths - 1
        assert on.executed_instructions < off.executed_instructions
        assert off.executed_instructions == off.total_instructions

    def test_randomized_strategies_and_seeds(self):
        rng = random.Random(5)
        for _ in range(6):
            name, scale = rng.choice(_FIG6)
            image = WORKLOADS[name].image(scale or WORKLOADS[name].default_scale)
            strategy = rng.choice(["dfs", "bfs", "random", "coverage"])
            seed = rng.randrange(1000)
            on = _explore(image, True, strategy=strategy, seed=seed)
            off = _explore(image, False, strategy=strategy, seed=seed)
            assert on.path_set() == off.path_set(), (name, strategy, seed)
            assert _attribution(on) == _attribution(off), (name, strategy, seed)
            assert _assignments(on) == _assignments(off), (name, strategy, seed)

    @pytest.mark.parametrize("name,scale", [("bubble-sort", 4), ("uri-parser", None)])
    def test_workload_identity_parallel(self, name, scale):
        """jobs=4, snapshots on/off: identical path sets, exact totals.

        Parallel per-tier attribution depends on task->worker placement
        (each worker owns its cache), so the pinned invariant is the
        one the repo has guaranteed since PR 1: the discovered path set
        and the total number of answered queries.
        """
        image = WORKLOADS[name].image(scale or WORKLOADS[name].default_scale)
        serial = _explore(image, snapshots=True)
        for snap in (True, False):
            result = _explore(image, snap, jobs=4)
            assert result.path_set() == serial.path_set(), snap
            assert result.num_paths == serial.num_paths
            answered = (
                result.num_queries
                + result.cache_hits
                + result.fast_path_answers
                + result.pruned_queries
            )
            serial_answered = (
                serial.num_queries
                + serial.cache_hits
                + serial.fast_path_answers
                + serial.pruned_queries
            )
            assert answered == serial_answered, snap
            assert result.total_instructions == serial.total_instructions

    def test_identity_under_a_step_budget(self):
        """A resumed run gets only what remains of the step budget, so a
        path that runs out of fuel ends where a run from the entry does."""
        image = assemble(_COUNTDOWN, isa=rv32im())
        results = {}
        for snap in (True, False):
            engine = BinSymExecutor(rv32im(), image, max_steps=40)
            results[snap] = Explorer(engine, snapshots=snap).explore()
        on, off = results[True], results[False]
        assert on.path_set() == off.path_set()
        assert [(p.halt_reason, p.instret) for p in on.paths] == [
            (p.halt_reason, p.instret) for p in off.paths
        ]
        assert on.resumed_runs == on.num_paths - 1
        assert any(p.instret == 40 for p in on.paths)

    def test_vp_engine_inherits_snapshots(self):
        """The SymEx-VP-style engine resumes through the TLM bus."""
        image = WORKLOADS["uri-parser"].image()
        on = _explore(image, True, engine_cls=VpExecutor)
        off = _explore(image, False, engine_cls=VpExecutor)
        assert on.path_set() == off.path_set()
        assert _attribution(on) == _attribution(off)
        assert on.resumed_runs > 0

    def test_eviction_fallback_preserves_results(self):
        """A starved pool forces re-execution, never wrong results."""
        image = WORKLOADS["bubble-sort"].image(4)
        engine = BinSymExecutor(rv32im(), image)
        engine.snapshot_pool.max_bytes = 3 * 4096 * 4  # a few snapshots
        starved = Explorer(engine, use_cache=True, snapshots=True).explore()
        reference = _explore(image, snapshots=False)
        assert starved.path_set() == reference.path_set()
        assert _attribution(starved) == _attribution(reference)
        assert starved.snapshot_stats["snap_pool_evictions"] > 0
        assert starved.snapshot_stats["snap_fallback_runs"] > 0
        assert starved.resumed_runs + starved.snapshot_stats[
            "snap_fallback_runs"
        ] == starved.num_paths - 1


# ---------------------------------------------------------------------------
# Snapshot lifetime: the pool holds the snapshots pending items name
# ---------------------------------------------------------------------------

#: A ``div`` by an input word plus 1: its zero check and its overflow
#: check are two branch records of one instruction, so the two children
#: of the root that flip them name one snapshot.  Four paths.
SHARED_DIV = """\
_start:
    li a0, 0x20000
    li a1, 8
    li a7, 1337
    ecall
    lw t0, 0(a0)
    lw t1, 4(a0)
    addi t1, t1, 1
    div t2, t0, t1
    bltz t2, negative
    li a0, 0
    li a7, 93
    ecall
negative:
    li a0, 1
    li a7, 93
    ecall
"""


class TestSnapshotLifetime:
    @pytest.mark.parametrize("strategy", ["dfs", "bfs", "random", "coverage"])
    def test_a_budget_that_fits_the_frontier_loses_no_resume(self, strategy):
        """640 KiB holds every snapshot a pending item names, under any
        strategy, so no child falls back; a pool that also kept dead
        snapshots evicted live ones under this budget."""
        image = WORKLOADS["bubble-sort"].image(5)
        unbounded = _explore(image, snapshots=True, strategy=strategy)
        engine = BinSymExecutor(rv32im(), image)
        engine.snapshot_pool.max_bytes = 655_360
        bounded = Explorer(engine, use_cache=True, strategy=strategy).explore()
        assert bounded.path_set() == unbounded.path_set()
        assert _attribution(bounded) == _attribution(unbounded)
        assert bounded.snapshot_stats["snap_fallback_runs"] == 0
        assert bounded.resumed_runs == 119
        assert bounded.executed_instructions == unbounded.executed_instructions
        assert unbounded.executed_instructions == 5950

    def test_two_children_of_one_instruction_share_its_snapshot(self):
        """The snapshot two children name survives until both have run."""
        result = _explore_source(SHARED_DIV, snapshots=True)
        assert result.num_paths == 4
        assert result.snapshot_stats["snap_captured"] == 2
        assert result.resumed_runs == 3
        assert result.snapshot_stats["snap_fallback_runs"] == 0

    def test_a_finished_exploration_leaves_the_pool_empty(self):
        image = WORKLOADS["bubble-sort"].image(5)
        result = _explore(image, snapshots=True)
        stats = result.snapshot_stats
        assert result.resumed_runs == result.num_paths - 1
        assert stats["snap_pool_entries"] == 0
        assert stats["snap_pool_bytes"] == 0
        assert stats["snap_pool_evictions"] == 0

    @pytest.mark.parametrize(
        "cut",
        [{"max_paths": 10}, {"faults": FaultPlan(interrupt_after=10)}],
        ids=["max_paths=10", "stop=10"],
    )
    def test_a_cut_exploration_leaves_the_pool_empty(self, cut):
        """Items a cut leaves queued give back their snapshot holds but
        stay pending: the result keeps the cut's paths and flags."""
        engine = BinSymExecutor(rv32im(), WORKLOADS["bubble-sort"].image(5))
        result = Explorer(engine, **cut).explore()
        assert result.num_paths == 10
        assert result.truncated
        assert result.interrupted == ("faults" in cut)
        assert len(engine.snapshot_pool) == 0
        assert result.snapshot_stats["snap_pool_entries"] == 0
        assert result.snapshot_stats["snap_pool_bytes"] == 0


# ---------------------------------------------------------------------------
# Capture-safety guards
# ---------------------------------------------------------------------------

_DATA = 0x0002_0000


def _explore_source(source, snapshots, **kwargs):
    image = assemble(source, isa=rv32im())
    engine = BinSymExecutor(rv32im(), image)
    result = Explorer(
        engine, use_cache=True, snapshots=snapshots, **kwargs
    ).explore()
    return result


class TestCaptureGuards:
    def test_symbolic_stdout_rebased_on_resume(self):
        """stdout written from symbolic memory *before* the divergence
        must reflect each path's own input, not the parent's."""
        source = f"""\
_start:
    li a0, {_DATA}
    li a1, 1
    li a7, 1337
    ecall                   # make_symbolic(buf, 1)
    li a1, {_DATA}
    li a2, 1
    li a7, 64
    ecall                   # write(buf, 1): symbolic byte to stdout
    li t0, {_DATA}
    lbu t1, 0(t0)
    li t2, 65
    bltu t1, t2, low
    li a0, 1
    j done
low:
    li a0, 0
done:
    li a7, 93
    ecall
"""
        on = _explore_source(source, True)
        off = _explore_source(source, False)
        assert on.num_paths == off.num_paths == 2
        assert on.path_set() == off.path_set()
        assert {p.stdout for p in on.paths} == {p.stdout for p in off.paths}
        # Each path's stdout byte equals its own input assignment.
        for path in on.paths:
            expected = dict(
                (var.payload, value) for var, value in path.assignment.values.items()
            ).get(f"in_{_DATA:08x}", 0)
            assert path.stdout == bytes([expected])
        assert on.resumed_runs == 1

    def test_symbolic_syscall_argument_disables_capture(self):
        """A write() with an input-dependent length is not re-derivable
        from terms; capture stops and children fall back to re-execution
        — results stay identical to the snapshot-off build."""
        source = f"""\
_start:
    li a0, {_DATA}
    li a1, 1
    li a7, 1337
    ecall                   # make_symbolic(buf, 1)
    li t0, {_DATA}
    lbu t1, 0(t0)
    andi t1, t1, 1
    li a1, {_DATA}
    mv a2, t1               # symbolic length: 0 or 1 bytes
    li a7, 64
    ecall                   # write(buf, len)
    li t2, 1
    bltu t1, t2, zero_len
    li a0, 1
    j done
zero_len:
    li a0, 0
done:
    li a7, 93
    ecall
"""
        on = _explore_source(source, True)
        off = _explore_source(source, False)
        assert on.path_set() == off.path_set()
        assert _attribution(on) == _attribution(off)
        assert {p.stdout for p in on.paths} == {p.stdout for p in off.paths}
        # The guard refused to capture past the unsafe syscall.
        assert on.resumed_runs == 0

    def test_late_input_discovery_falls_back(self):
        """A snapshot captured before another path's make_symbolic ran
        is stale (its reset-time input application is incomplete); the
        inputs_count guard forces re-execution."""
        source = f"""\
_start:
    li a0, {_DATA}
    li a1, 1
    li a7, 1337
    ecall                   # make_symbolic(buf, 1)
    li t0, {_DATA}
    lbu t1, 0(t0)
    li t2, 7
    bltu t1, t2, small
    li a0, {_DATA + 8}
    li a1, 1
    li a7, 1337
    ecall                   # second region, only on the >= 7 branch
    lbu t3, 8(t0)
    li t2, 3
    bltu t3, t2, small
    li a0, 2
    j done
small:
    li a0, 0
done:
    li a7, 93
    ecall
"""
        on = _explore_source(source, True)
        off = _explore_source(source, False)
        assert on.path_set() == off.path_set()
        assert _attribution(on) == _attribution(off)
        assert _assignments(on) == _assignments(off)


# ---------------------------------------------------------------------------
# Resumed state == re-executed state
# ---------------------------------------------------------------------------

# Two kinds of input: a0 enters as a symbolic register, the buffer byte
# via make_symbolic.  Both reach registers, memory and stdout before the
# branches, so a flip that changes one leaves the other's data as is.
_SYMBOLIC_REGISTER = f"""\
_start:
    mv s0, a0               # symbolic register
    li a0, {_DATA}
    li a1, 1
    li a7, 1337
    ecall                   # make_symbolic(buf, 1)
    li t0, {_DATA}
    lbu s1, 0(t0)
    andi t1, s0, 0xff
    sb t1, 1(t0)            # register-derived byte in memory
    li a1, {_DATA}
    li a2, 2
    li a7, 64
    ecall                   # write(buf, 2): both bytes to stdout
    li t2, 40
    bltu t1, t2, reg_low
    addi s2, s2, 1
reg_low:
    li t2, 9
    bltu s1, t2, byte_low
    addi s2, s2, 2
byte_low:
    srli t3, s0, 8
    andi t3, t3, 0xff
    bltu t3, t2, done
    addi s2, s2, 4
done:
    mv a0, s2
    li a7, 93
    ecall
"""


def _machine_state(interp):
    """Everything a resume restores, in comparable form (terms are
    interned, so equal terms are the same object)."""
    hart = interp.hart
    return {
        "pc": hart.pc,
        "instret": hart.instret,
        "regs": [(v.concrete, v.width, v.term) for v in hart.regs.snapshot()],
        "pages": {n: bytes(page) for n, page in interp.memory._pages.items()},
        "shadow": interp.shadow.snapshot_state(),
        "stdout": bytes(interp.stdout),
        "stdout_shadow": list(interp.stdout_shadow),
        "records": list(interp.trace.records),
    }


def _explore_checking_resumes(image, monkeypatch, **engine_kwargs):
    """Explore ``image``, comparing the state after every ``resume()``
    with a from-entry run of the same assignment stopped at the
    snapshot's ``instret``.  Returns the counts of resumes, of the
    ``evaluate`` calls they made and of the term-carrying data they
    restored."""
    from repro.core import interpreter as interpreter_module

    engine = BinSymExecutor(rv32im(), image, **engine_kwargs)
    reference = BinSymExecutor(
        rv32im(), image, superblocks=False, **engine_kwargs
    )
    interp = engine.interpreter
    resume = interp.resume
    counts = {"resumes": 0, "evaluate": 0, "restored": 0}
    evaluate = interpreter_module.evaluate

    def counting_evaluate(term, env, memo=None):
        counts["evaluate"] += 1
        return evaluate(term, env, memo)

    def checked_resume(snapshot, assignment, *args):
        resume(snapshot, assignment, *args)
        counts["resumes"] += 1
        counts["restored"] += (
            sum(value.term is not None for value in snapshot.regs[1:])
            + len(snapshot.shadow)
            + len(snapshot.stdout_shadow)
        )
        reference.interpreter.inputs = dict(interp.inputs)
        reference.max_steps = snapshot.instret
        # Capture armed with a bound no record reaches: the reference
        # keeps stdout shadow terms, as a capturing run does, but
        # captures nothing.
        reference.execute(assignment, capture_from=1 << 62)
        assert _machine_state(interp) == _machine_state(reference.interpreter)

    monkeypatch.setattr(interpreter_module, "evaluate", counting_evaluate)
    monkeypatch.setattr(interp, "resume", checked_resume)
    result = Explorer(engine, use_cache=True, snapshots=True).explore()
    assert counts["resumes"] == result.resumed_runs == result.num_paths - 1
    return counts


class TestExactResume:
    @pytest.mark.parametrize(
        "name,scale",
        [("bubble-sort", 3), ("base64-encode", 2), ("uri-parser", None)],
    )
    def test_resumed_state_equals_reexecuted_state(
        self, name, scale, monkeypatch
    ):
        image = WORKLOADS[name].image(scale or WORKLOADS[name].default_scale)
        counts = _explore_checking_resumes(image, monkeypatch)
        assert counts["resumes"] > 0

    def test_symbolic_register_resume(self, monkeypatch):
        """The ``symbolic_registers`` path: register variables count as
        inputs when the executor computes what a flip changed."""
        image = assemble(_SYMBOLIC_REGISTER, isa=rv32im())
        counts = _explore_checking_resumes(
            image, monkeypatch, symbolic_registers=(10,)
        )
        assert counts["resumes"] == 7  # 8 paths, all but the first resume

    def test_resume_evaluates_only_changed_data(self, monkeypatch):
        """A flip on base64-encode changes some of the input bytes, so a
        resume re-evaluates some, but not all, of the data it restores."""
        image = WORKLOADS["base64-encode"].image(2)
        counts = _explore_checking_resumes(image, monkeypatch)
        assert 0 < counts["evaluate"] < counts["restored"]


# ---------------------------------------------------------------------------
# Driver plumbing
# ---------------------------------------------------------------------------


#: A custom R-type instruction (opcode custom-0) whose semantics write
#: ``rd`` and then branch on ``rs1``: state changes before the branch,
#: so a capture there must be vetoed.  The write reads only ``rs2``, so
#: with a symbolic ``rs1`` and a concrete ``rs2`` emitted code makes it
#: without a callback.
_WRIF_YAML = """\
wrif:
  encoding: '0000000----------000-----0001011'
  extension: [rv_zwrif]
  mask: '0xfe00707f'
  match: '0xb'
  variable_fields: [rd, rs1, rs2]
"""


def _wrif():
    rs1, rs2, rd = yield DecodeAndReadRType()
    yield WriteRegister(rd, Add(rs2, imm(1)))
    yield RunIf(EqInt(rs1, imm(7)), write_register(rd, imm(1)))


#: A loop over three symbolic bytes that branches inside ``wrif`` (a
#: vetoed capture) and on the byte's low bit (a capture).
_WRIF_LOOP = """\
_start:
    li a0, 0x30000
    li a1, 3
    li a7, 1337
    ecall
    li t0, 0x30000
    li t6, 3
    li s0, 0
loop:
    lbu t1, 0(t0)
    wrif t2, t1, s0
    add s0, s0, t2
    andi t3, t1, 1
    beq t3, zero, even
    addi s0, s0, 3
even:
    addi t0, t0, 1
    addi t6, t6, -1
    bne t6, zero, loop
    mv a0, s0
    li a7, 93
    ecall
"""


class TestPlumbing:
    def test_workitem_snapshot_defaults(self):
        item = WorkItem(InputAssignment(), 0)
        assert item.snapshot is None

    def test_instret_identical_for_resumed_paths(self):
        """RunResult.instret reports full path length on resume."""
        image = WORKLOADS["uri-parser"].image()
        on = _explore(image, True)
        off = _explore(image, False)
        assert sorted(p.instret for p in on.paths) == sorted(
            p.instret for p in off.paths
        )
        assert on.executed_instructions == (
            on.total_instructions - on.saved_instructions
        )

    def test_no_snapshots_leaves_stats_empty_serial(self):
        """--no-snapshots: no snapshot stats block, serial == parallel."""
        image = WORKLOADS["uri-parser"].image()
        result = _explore(image, snapshots=False)
        assert result.snapshot_stats == {}
        assert result.resumed_runs == 0

    def test_oversized_state_disables_capture(self):
        """State bigger than the whole pool budget: capture latches off
        after one rejected attempt, results stay identical."""
        image = WORKLOADS["uri-parser"].image()
        engine = BinSymExecutor(rv32im(), image)
        engine.snapshot_pool.max_bytes = 1  # every snapshot is oversized
        result = Explorer(engine, use_cache=True, snapshots=True).explore()
        reference = _explore(image, snapshots=False)
        assert result.path_set() == reference.path_set()
        assert _attribution(result) == _attribution(reference)
        assert result.snapshot_stats["snap_captured"] == 0
        assert result.resumed_runs == 0
        # The rejected attempt released its page references, so the
        # live memory is not left copy-on-write-protected forever.
        assert engine.interpreter.memory.shared_pages == 0

    def test_effect_before_branch_blocks_capture(self):
        """A primitive mutating state before the instruction's branch
        stamps _effect_instret, which must veto capture (the captured
        state would not be instruction-start state)."""
        from repro.core.interpreter import SymbolicInterpreter
        from repro.core.symvalue import SymValue

        image = WORKLOADS["uri-parser"].image()
        interp = SymbolicInterpreter(rv32im(), image)
        interp.reset(InputAssignment())
        interp.configure_capture(SnapshotPool(), 0)
        var = T.bv_var("effect_guard", 8)

        def record():
            value = SymValue(1, 1, T.bool_to_bv(T.eq(var, T.bv(1, 8))))
            interp.plan_branch(value)

        record()
        assert len(interp.captured) == 1  # clean instruction: captured
        interp.hart.instret += 1
        interp.plan_write_reg(5, SymValue(3, 32))  # effect first...
        record()  # ...then the branch: capture must be vetoed
        assert len(interp.captured) == 1
        interp.hart.instret += 1
        record()  # next instruction is clean again
        assert len(interp.captured) == 2

    def test_effect_before_branch_under_emitted_code(self):
        """The same guard when plans and blocks are emitted code, which
        writes registers without ``plan_write_reg``: a custom
        instruction that writes ``rd`` and then branches on a symbolic
        ``rs1`` captures, resumes and falls back exactly as interpreted
        semantics do, in a loop that runs as a superblock."""
        isa = rv32im().extended_with(
            Extension("zwrif", tuple(encodings_from_yaml(_WRIF_YAML)), {"wrif": _wrif})
        )
        image = assemble(_WRIF_LOOP, isa=isa)
        outcomes = []
        for staging, superblocks in ((True, True), (True, False), (False, False)):
            engine = BinSymExecutor(
                isa, image, staging=staging, superblocks=superblocks
            )
            result = Explorer(engine, use_cache=True, snapshots=True).explore()
            stats = result.snapshot_stats
            outcomes.append((
                result.path_set(),
                _attribution(result),
                stats["snap_captured"],
                stats["snap_fallback_runs"],
                result.resumed_runs,
            ))
            if superblocks:
                assert result.superblock_stats["sb_block_instructions"] > 0
        assert outcomes[0][0] and outcomes[0][2] > 0
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_non_snapshot_engine_unaffected(self):
        """Engines without snapshot support never see the new kwargs."""
        from repro.eval.engines import make_engine

        image = WORKLOADS["uri-parser"].image()
        engine = make_engine("binsec", rv32im(), image)
        result = Explorer(engine, use_cache=True, snapshots=True).explore()
        assert result.snapshot_stats == {}
        assert result.resumed_runs == 0
        assert result.executed_instructions == result.total_instructions
