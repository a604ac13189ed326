"""One measured ``repro explore`` run in a fresh process.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/probe.py [--trace] [--sample] \
        [--inputs ADDR:LEN] -- explore PROGRAM [FLAGS...]

The probe calls ``repro.cli.main`` with exactly the argv after ``--``,
so the run uses the defaults a user of the CLI gets.  It times the run
from outside, by wrapping ``Explorer.explore``, and prints one line
``PERFBENCH-RECORD {json}`` last: timings, CPU time and peak RSS of the
process and its worker children, the counters of the returned
``ExplorationResult``, and every path's input bytes over ``ADDR:LEN``
for the output oracle in ``perfbench/oracle.py``.

With ``--trace`` the public entry point of each layer is wrapped in a
span that records calls, busy time and self time (busy time minus the
time of the spans it encloses).  A recursive entry point is timed at its
outermost call only.  Spans opened in forked pool workers stay in the
worker and are not reported.

With ``--sample`` a speed sampler runs from the start of the probe until
``Explorer.explore`` returns: every ``SAMPLE_PERIOD_S`` of wall time a
``SIGALRM`` handler times one slice of fixed reference work.  The wall
time between two slices is rescaled by how long the second slice took
against ``NOMINAL_SLICE_S``, which gives each phase (set-up from the
spawn, explore) a time at nominal machine speed.  On a shared host the
speed a process gets swings by half or more within seconds; this
rescaling follows it.  Forked pool workers inherit the handler but not
the timer, so they never sample.

Environment: ``PERFBENCH_SPAWNED_AT`` is the ``time.monotonic()`` value
at which the parent spawned this process (system-wide on Linux), so the
record's ``explore_started_at`` minus it is the run's set-up time.
"""

from __future__ import annotations

import time

_STARTED_AT = time.monotonic()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

RECORD_PREFIX = "PERFBENCH-RECORD "

#: Wall time between two speed samples.
SAMPLE_PERIOD_S = 0.025
#: Rounds of reference work in one sample; about 2 ms on one core of a
#: 2-core Xeon container.
SLICE_ROUNDS = 1500
#: CPU time one slice takes at nominal speed.  Times "at nominal speed"
#: are what the run would have taken on a machine this fast.
NOMINAL_SLICE_S = 0.002

#: (span name, module, attribute path) of every wrapped entry point.
#: Entry points sharing a span name form one layer: a call of one inside
#: another is part of the outer span, not a new one.
ENTRY_POINTS = (
    ("explorer", "repro.core.explorer", "Explorer.explore"),
    ("executor", "repro.core.executor", "BinSymExecutor.execute"),
    ("executor", "repro.core.executor", "BinSymExecutor.execute_from"),
    ("scheduler", "repro.core.scheduler", "expand_run"),
    ("query", "repro.smt.solver", "CachingSolver.check"),
    ("preprocess.slice", "repro.smt.preprocess", "slice_conditions"),
    ("preprocess.rewrite", "repro.smt.preprocess", "rewrite_slice"),
    ("intervals", "repro.smt.intervals", "analyze_slice"),
    ("bitblast", "repro.smt.bitblast", "BitBlaster.lit"),
    ("bitblast", "repro.smt.bitblast", "BitBlaster.bits"),
    ("sat", "repro.smt.sat", "SatSolver.solve"),
    ("drat", "repro.smt.drat", "check_proof"),
    ("drat", "repro.smt.drat", "check_unsat"),
    ("drat", "repro.smt.drat", "check_core"),
    ("drat", "repro.smt.drat", "ProofChecker.feed"),
    ("drat", "repro.smt.drat", "ProofChecker.check_unsat"),
    ("drat", "repro.smt.drat", "ProofChecker.check_core"),
    ("certificates", "repro.core.certificates", "verify_result"),
    ("store", "repro.core.store", "ArtifactStore.load_query"),
)

#: Integer and flag fields copied from the ExplorationResult.
RESULT_FIELDS = (
    "sat_checks",
    "unsat_checks",
    "cache_hits",
    "fast_path_answers",
    "sat_solves",
    "pruned_queries",
    "unknown_queries",
    "incomplete_paths",
    "worker_deaths",
    "hung_workers",
    "degradations",
    "deadline_expired",
    "interrupted",
    "truncated",
    "total_instructions",
    "executed_instructions",
    "frontier_peak",
    "workers",
    "certified_paths",
    "certificate_failures",
)


class SpanTracer:
    """Calls, busy time and self time per span name, kept in memory."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.missing: list[str] = []
        self._open: set[str] = set()
        #: One child-time accumulator per open span, innermost last.
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn):
        calls, busy, self_time = self.calls, self.busy, self.self_time
        open_spans, stack = self._open, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if name in open_spans:
                return fn(*args, **kwargs)
            open_spans.add(name)
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_spans.discard(name)
                if stack:
                    stack[-1][0] += elapsed
                calls[name] = calls.get(name, 0) + 1
                busy[name] = busy.get(name, 0.0) + elapsed
                self_time[name] = self_time.get(name, 0.0) + elapsed - children[0]

        return span

    def install(self) -> None:
        """Wrap every entry point that exists; note the ones that do not.

        A module-level function is also rebound in every loaded ``repro``
        module that imported it by name, so calls through those copies
        are traced too.
        """
        for name, module_name, attr_path in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            wrapped = self.wrap(name, original)
            setattr(owner, attr, wrapped)
            if not parents:
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def spans(self) -> dict:
        return {
            name: [self.calls[name], self.busy[name], self.self_time[name]]
            for name in self.calls
        }


class _Link:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next):
        self.key, self.value, self.next = key, value, next


def reference_slice(rounds: int = SLICE_ROUNDS) -> int:
    """Fixed interpreter work of the kind the engine does: dict updates
    under tuple keys, small objects, a linked walk and a sort.  Shares no
    code with the engine, so a change to the engine cannot change it."""
    table: dict = {}
    chain = None
    state = 0x9E3779B9
    total = 0
    for index in range(rounds):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        key = (state >> 20, index & 63)
        table[key] = table.get(key, 0) + (state & 0xFF)
        chain = _Link(key, state, chain)
        if index & 255 == 255:
            values = []
            while chain is not None and len(values) < 64:
                values.append(chain.value ^ (chain.key[0] << 3))
                chain = chain.next
            values.sort()
            total = (total + values[len(values) // 2]) & 0xFFFFFFFF
            chain = None
    return total ^ len(table)


class SpeedSampler:
    """Times one reference slice after every ``SAMPLE_PERIOD_S`` of the run.

    The handler runs in the main thread between bytecodes, so each slice
    gets the machine speed the run gets at that moment.  The wall time
    since the previous slice is weighted by ``NOMINAL_SLICE_S`` over this
    slice's CPU time (CPU time, so that forked workers competing for the
    core do not count as a slow machine); time left after the last slice
    takes the last slice's weight.  Per phase the sampler keeps the
    slices' count, wall and CPU time, and ``nominal_s``, the phase's wall
    time without slices at nominal speed.
    """

    def __init__(self, started_at: float):
        self.phases: dict[str, dict] = {}
        #: End of the last slice or phase.
        self._mark = started_at
        #: (phase totals, wall seconds) not yet weighted by a slice.
        self._pending: list[tuple[dict, float]] = []
        self._weight: float | None = None
        self._totals = self._open("setup")

    def _open(self, name: str) -> dict:
        return self.phases.setdefault(
            name, {"slices": 0, "slice_wall_s": 0.0, "slice_cpu_s": 0.0, "nominal_s": 0.0}
        )

    def _cut(self, at: float) -> None:
        self._pending.append((self._totals, at - self._mark))
        self._mark = at

    def _flush(self) -> None:
        for totals, seconds in self._pending:
            totals["nominal_s"] += seconds * self._weight
        self._pending.clear()

    def phase(self, name: str) -> None:
        self._cut(time.monotonic())
        self._totals = self._open(name)

    def start(self) -> None:
        self._pid = os.getpid()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._cut(time.monotonic())
        if self._weight is not None:
            self._flush()

    def _sample(self, signum, frame) -> None:
        # The timer is re-armed only once a slice is done, so a slow slice
        # never nests; a forked worker never re-arms it.
        if os.getpid() != self._pid:
            return
        start, cpu = time.monotonic(), time.process_time()
        reference_slice()
        end, cpu = time.monotonic(), time.process_time() - cpu
        self._cut(start)
        self._weight = NOMINAL_SLICE_S / cpu
        self._flush()
        totals = self._totals
        totals["slices"] += 1
        totals["slice_wall_s"] += end - start
        totals["slice_cpu_s"] += cpu
        self._mark = end
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)


def _spawned_at() -> float:
    return float(os.environ.get("PERFBENCH_SPAWNED_AT", _STARTED_AT))


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


class ExploreHook:
    """Times the one ``Explorer.explore`` call of a CLI run."""

    def __init__(self, sampler: "SpeedSampler | None" = None):
        self.sampler = sampler
        self.explorer = None
        self.result = None
        self.started_at = None
        self.explore_s = None
        self.self_cpu_s = None
        self.children_cpu_s = None

    def install(self) -> None:
        from repro.core.explorer import Explorer

        original = Explorer.explore
        hook = self

        @functools.wraps(original)
        def explore(explorer):
            self_before = _cpu(resource.getrusage(resource.RUSAGE_SELF))
            children_before = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
            if hook.sampler is not None:
                hook.sampler.phase("explore")
            hook.started_at = start = time.monotonic()
            result = original(explorer)
            hook.explore_s = time.monotonic() - start
            if hook.sampler is not None:
                hook.sampler.stop()
            hook.self_cpu_s = (
                _cpu(resource.getrusage(resource.RUSAGE_SELF)) - self_before
            )
            hook.children_cpu_s = (
                _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)) - children_before
            )
            hook.explorer, hook.result = explorer, result
            return result

        Explorer.explore = explore


def _path_inputs(result, base: int, length: int) -> list[str]:
    """Each path's input bytes over [base, base+length) as hex strings.

    Bytes the path's assignment does not mention keep the zero the
    untouched input buffer holds.
    """
    names = [f"in_{base + offset:08x}" for offset in range(length)]
    rows = []
    for path in result.paths:
        values = {
            getattr(var, "payload", None): value
            for var, value in path.assignment.values.items()
        }
        rows.append(bytes(values.get(name, 0) & 0xFF for name in names).hex())
    return rows


def _record(hook: ExploreHook, exit_code: int, tracer, inputs) -> dict:
    result = hook.result
    fields = {name: getattr(result, name, 0) for name in RESULT_FIELDS}
    fields["num_paths"] = len(result.paths)
    solver = getattr(hook.explorer, "solver", None)
    sat_stats = dict(getattr(solver, "statistics", None) or {})
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {
        "exit_code": exit_code,
        "setup_s": hook.started_at - _spawned_at(),
        "explore_s": hook.explore_s,
        "explore_self_cpu_s": hook.self_cpu_s,
        "explore_children_cpu_s": hook.children_cpu_s,
        "cpu_s": _cpu(own) + _cpu(children),
        "peak_rss_mb": max(own.ru_maxrss, children.ru_maxrss) / 1024.0,
        "result": fields,
        "solver_stats": dict(getattr(result, "solver_stats", {}) or {}),
        "snapshot_stats": dict(getattr(result, "snapshot_stats", {}) or {}),
        "superblock_stats": dict(getattr(result, "superblock_stats", {}) or {}),
        "sat_stats": sat_stats,
        "inputs": _path_inputs(result, *inputs) if inputs else [],
        "reference": hook.sampler.phases if hook.sampler is not None else None,
    }
    if tracer is not None:
        record["spans"] = tracer.spans()
        record["missing_entry_points"] = tracer.missing
    return record


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, cli_argv = argv[:split], argv[split + 1:]
    traced = "--trace" in options
    inputs = None
    if "--inputs" in options:
        address, length = options[options.index("--inputs") + 1].split(":")
        inputs = (int(address, 0), int(length, 0))
    sampler = None
    if "--sample" in options:
        sampler = SpeedSampler(_spawned_at())
        sampler.start()

    import repro.cli

    hook = ExploreHook(sampler)
    hook.install()
    tracer = None
    if traced:
        # Load the modules the CLI imports lazily, so install() finds
        # and rebinds every entry point before the run starts.
        for module in ("repro.core.parallel", "repro.core.store",
                       "repro.core.certificates"):
            importlib.import_module(module)
        tracer = SpanTracer()
        tracer.install()
    exit_code = repro.cli.main(cli_argv)
    if hook.result is None:
        print("probe: the CLI run never called Explorer.explore", file=sys.stderr)
        return 2
    record = _record(hook, exit_code, tracer, inputs)
    sys.stdout.write(RECORD_PREFIX + json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
