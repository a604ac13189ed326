"""Command-line interface: assemble, run, disassemble and explore.

The downstream-user entry point::

    repro assemble prog.s -o prog.elf     # RV32 assembly -> ELF32
    repro run prog.s [--trace]            # emulate (spec-derived)
    repro disasm prog.elf                 # linear-sweep listing
    repro explore prog.s [--engine E]     # symbolic exploration

`run`/`explore`/`disasm` accept either assembly source (``.s``/``.asm``)
or an ELF32 executable; assembly is assembled in-memory.  Programs mark
their symbolic input with the ``make_symbolic`` ecall (a7=1337), or via
``--symbolic ADDR:LEN`` on the command line.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

from .asm import assemble
from .asm.disasm import disassemble_image
from .concrete import ConcreteInterpreter, HostPlatform, TracingInterpreter
from .core import ExploreConfig, Explorer, FaultPlan
from .eval.engines import make_engine
from .smt.solver import SolverConfig
from .loader import read_elf, write_elf
from .loader.image import Image
from .spec import rv32im, rv32im_zbb, rv32im_zimadd

__all__ = ["main"]

_ISA_FACTORIES = {
    "rv32im": rv32im,
    "rv32im+zimadd": rv32im_zimadd,
    "rv32im+zbb": rv32im_zbb,
}

#: (dest, flag) of the ``explore`` options that configure the query
#: cache (``CachingSolver``).  Only ``--store`` runs build one; a plain
#: run sends every flip query straight to the incremental solver.
_STORE_CACHE_FLAGS = (
    ("unsat_cores", "--no-unsat-cores"),
    ("core_budget", "--core-budget"),
)


def _load_program(path: str, isa) -> Image:
    data = Path(path).read_bytes()
    if data[:4] == b"\x7fELF":
        return read_elf(data)
    return assemble(data.decode("utf-8"), isa=isa)


def _parse_symbolic(spec: str) -> tuple[int, int]:
    try:
        address, length = spec.split(":")
        return int(address, 0), int(length, 0)
    except ValueError:
        raise SystemExit(f"bad --symbolic spec {spec!r}; expected ADDR:LEN")


def _cmd_assemble(args) -> int:
    isa = _ISA_FACTORIES[args.isa]()
    image = assemble(Path(args.input).read_text(), isa=isa)
    Path(args.output).write_bytes(write_elf(image))
    low, high = image.bounds()
    print(
        f"{args.output}: entry={image.entry:#x}, "
        f"{image.total_size()} bytes in [{low:#x}, {high:#x}), "
        f"{len(image.symbols)} symbols"
    )
    return 0


def _cmd_run(args) -> int:
    isa = _ISA_FACTORIES[args.isa]()
    image = _load_program(args.input, isa)
    if args.trace:
        tracer = TracingInterpreter(isa)
        tracer.load_image(image)
        hart = tracer.run(args.max_steps)
        print(tracer.render())
    else:
        platform = HostPlatform()
        interp = ConcreteInterpreter(isa, platform=platform)
        interp.load_image(image)
        hart = interp.run(args.max_steps)
        sys.stdout.write(platform.stdout_text())
    print(
        f"halted: {hart.halt_reason} "
        f"(exit code {hart.exit_code}, {hart.instret} instructions)"
    )
    return hart.exit_code or 0


def _cmd_disasm(args) -> int:
    isa = _ISA_FACTORIES[args.isa]()
    image = _load_program(args.input, isa)
    print(disassemble_image(image, isa=isa))
    return 0


def _cmd_explore(args) -> int:
    isa = _ISA_FACTORIES[args.isa]()
    image = _load_program(args.input, isa)
    symbolic_memory = [_parse_symbolic(s) for s in args.symbolic or ()]
    # Staging (--no-staging) is applied by the Explorer below, which
    # owns the ablation for serial and parallel runs alike.
    engine = make_engine(args.engine, isa, image, max_steps=args.max_steps)
    if symbolic_memory:
        # Configure harness-driven symbolic input on top of any
        # make_symbolic calls the program itself performs.
        engine.symbolic_memory = tuple(symbolic_memory)
    cache_knobs = {
        dest: getattr(args, dest)
        for dest, _ in _STORE_CACHE_FLAGS
        if getattr(args, dest) is not None
    }
    solver_config = SolverConfig(
        trail_reuse=args.trail_reuse,
        conflict_budget=args.conflict_budget,
        propagation_budget=args.propagation_budget,
        wall_budget=args.wall_budget,
        certify=args.certify,
        **cache_knobs,
    )
    faults = None
    if args.inject_faults:
        try:
            faults = FaultPlan.parse(args.inject_faults)
        except ValueError as error:
            raise SystemExit(f"bad --inject-faults spec: {error}")
    checkpoint_dir = args.resume if args.resume else args.checkpoint
    result = Explorer(
        engine,
        strategy=args.strategy,
        max_paths=args.max_paths,
        seed=args.seed,
        jobs=args.jobs,
        solver_config=solver_config,
        staging=args.staging,
        superblocks=args.superblocks,
        snapshots=args.snapshots,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        resume=bool(args.resume),
        faults=faults,
        deadline=args.deadline,
        memory_budget_mb=args.memory_budget,
        store_dir=args.store,
    ).explore()
    print(result.summary())
    if args.store:
        stats = result.solver_stats
        print(
            f"persistent store: {stats.get('store_hits', 0)} warm hits, "
            f"{stats.get('store_stores', 0)} artifacts written, "
            f"{stats.get('store_quarantines', 0)} quarantined, "
            f"{stats.get('store_skews', 0)} version-skewed, "
            f"{stats.get('store_disabled', 0)} tiers disabled"
        )
    if args.certify:
        stats = result.solver_stats
        print(
            f"certified results: {result.certified_paths} paths replayed "
            f"({result.certificate_failures} failed, "
            f"{result.certificate_resumed} resumed from their parent, "
            f"{result.certificate_instructions} instructions), "
            f"{stats.get('certified_sat', 0)} SAT models evaluated, "
            f"{stats.get('certified_unsat', 0)} UNSAT proofs checked, "
            f"{stats.get('certify_failures', 0)} certification failures, "
            f"{stats.get('cache_quarantines', 0)} cache quarantines"
        )
        for message in result.certificate_errors:
            print(f"  CERTIFICATE FAILURE: {message}")
    if args.stats:
        sections = (
            ("query", result.solver_stats, (
                f"queries answered     : {result.num_queries} solved, "
                f"{result.cache_hits} from cache, "
                f"{result.fast_path_answers} fast-path, "
                f"{result.pruned_queries} pruned, "
                f"{result.unknown_queries} unknown",
                f"SAT-core solve() calls: {result.sat_solves}",
            )),
            ("snapshot", result.snapshot_stats, (
                f"instructions executed: {result.executed_instructions} of "
                f"{result.total_instructions} ({result.saved_instructions} "
                f"skipped by {result.resumed_runs} resumed runs)",
            )),
            ("superblock", result.superblock_stats, (
                f"block instructions   : {result.superblock_instructions} of "
                f"{result.total_instructions} ({result.superblock_hits} "
                f"block dispatches)",
            )),
            ("memory governor", result.governor_stats, (
                f"degradation rungs    : {result.degradations}",
            )),
        )
        for name, stats, headlines in sections:
            if stats:
                print(f"{name} statistics:")
                for line in headlines:
                    print(f"  {line}")
                for key in sorted(stats):
                    print(f"  {key:21s}: {stats[key]}")
        if result.hung_workers or result.deadline_expired:
            print("anytime statistics:")
            print(f"  hung workers killed  : {result.hung_workers}")
            print(f"  deadline expired     : {result.deadline_expired}")
            print(f"  incomplete paths     : {result.incomplete_paths}")
    for path in result.paths[: args.show_paths]:
        marker = "FAIL" if path.is_assertion_failure else f"exit={path.exit_code}"
        print(f"  path {path.index:4d}: {marker:10s} {path.assignment}")
    if result.num_paths > args.show_paths:
        print(f"  ... and {result.num_paths - args.show_paths} more")
    failures = result.assertion_failures
    if failures:
        print(f"{len(failures)} assertion failure(s) found")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--isa", choices=sorted(_ISA_FACTORIES), default="rv32im",
        help="instruction set (default rv32im)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_assemble = sub.add_parser("assemble", help="assemble to ELF32")
    p_assemble.add_argument("input")
    p_assemble.add_argument("-o", "--output", required=True)
    p_assemble.set_defaults(func=_cmd_assemble)

    p_run = sub.add_parser("run", help="run concretely (emulator)")
    p_run.add_argument("input")
    p_run.add_argument("--trace", action="store_true",
                       help="print a per-instruction trace")
    p_run.add_argument("--max-steps", type=int, default=10_000_000)
    p_run.set_defaults(func=_cmd_run)

    p_disasm = sub.add_parser("disasm", help="disassemble the text segment")
    p_disasm.add_argument("input")
    p_disasm.set_defaults(func=_cmd_disasm)

    p_explore = sub.add_parser("explore", help="symbolic path exploration")
    p_explore.add_argument("input")
    p_explore.add_argument(
        "--engine", default="binsym",
        choices=["binsym", "binsec", "symex-vp", "angr", "angr-buggy"],
    )
    p_explore.add_argument("--strategy", default=ExploreConfig.strategy,
                           choices=["dfs", "bfs", "random", "coverage"])
    p_explore.add_argument("--symbolic", action="append", metavar="ADDR:LEN",
                           help="mark a memory region symbolic")
    p_explore.add_argument("--jobs", type=int, default=ExploreConfig.jobs,
                           metavar="N",
                           help="explore on N worker processes "
                                "(default %(default)s)")
    p_explore.add_argument("--seed", type=int, default=ExploreConfig.seed,
                           help="seed for the random search strategy")
    # The --store query cache flags default to None so that main() can
    # tell whether one was given without --store.
    p_explore.add_argument("--no-unsat-cores", dest="unsat_cores",
                           action="store_false", default=None,
                           help="--store query cache: disable "
                                "assumption-level UNSAT cores (the cache "
                                "falls back to whole-query UNSAT sets for "
                                "subsumption)")
    p_explore.add_argument("--no-trail-reuse", dest="trail_reuse",
                           action="store_false", default=True,
                           help="disable shared-assumption-prefix trail "
                                "reuse in the CDCL core (every query "
                                "re-propagates from decision level 0)")
    p_explore.add_argument("--no-staging", dest="staging",
                           action="store_false", default=True,
                           help="disable staged semantics execution "
                                "(compiled per-instruction plans); the "
                                "specification is re-interpreted every step")
    p_explore.add_argument("--no-superblocks", dest="superblocks",
                           action="store_false", default=True,
                           help="disable superblock trace compilation: "
                                "hot straight-line sequences execute "
                                "one compiled plan per step instead of "
                                "a stitched multi-instruction block")
    p_explore.add_argument("--no-snapshots", dest="snapshots",
                           action="store_false", default=True,
                           help="disable snapshot-resumed exploration: "
                                "every flipped branch re-executes the SUT "
                                "from the entry point instead of resuming "
                                "at the divergence point")
    p_explore.add_argument("--conflict-budget", type=int, default=None,
                           metavar="N",
                           help="per-query CDCL conflict budget: a query "
                                "exceeding it answers UNKNOWN (counted, "
                                "never flipped) instead of running forever")
    p_explore.add_argument("--propagation-budget", type=int, default=None,
                           metavar="N",
                           help="per-query CDCL propagation budget (sound "
                                "degradation, like --conflict-budget)")
    p_explore.add_argument("--solver-wall-budget", dest="wall_budget",
                           type=float, default=None, metavar="SECS",
                           help="per-solve CDCL wall-clock budget in "
                                "seconds: a solve exceeding it answers "
                                "UNKNOWN (sound degradation, like "
                                "--conflict-budget)")
    p_explore.add_argument("--core-budget", type=int, default=None,
                           metavar="N",
                           help="--store query cache: extra solves "
                                "UNSAT-core minimization may spend "
                                "shrinking a core (default 8)")
    p_explore.add_argument("--deadline", type=float, default=None,
                           metavar="SECS",
                           help="global exploration deadline in seconds: "
                                "when it fires, unexplored frontier items "
                                "are counted into incomplete_paths and "
                                "checkpointed (a --resume continues the "
                                "cut campaign to the full path set)")
    p_explore.add_argument("--memory-budget", type=int, default=None,
                           metavar="MB",
                           help="per-process RSS budget in megabytes: "
                                "under pressure the memory governor walks "
                                "a degradation ladder (shrink snapshot "
                                "pool, tighten caches, disable snapshot "
                                "capture) — each rung counted, path set "
                                "invariant")
    p_explore.add_argument("--checkpoint", metavar="DIR", default=None,
                           help="write a crash-safe exploration journal to "
                                "DIR (atomic-rename checkpoint.json)")
    p_explore.add_argument("--checkpoint-interval", type=int,
                           default=ExploreConfig.checkpoint_interval,
                           metavar="PATHS",
                           help="checkpoint every N recorded paths "
                                "(default %(default)s)")
    p_explore.add_argument("--resume", metavar="DIR", default=None,
                           help="resume a killed campaign from DIR's "
                                "journal (implies --checkpoint DIR); "
                                "completed paths are not re-executed")
    p_explore.add_argument("--store", metavar="DIR", default=None,
                           help="persistent cross-run artifact store, "
                                "behind the query cache it turns on: "
                                "query verdicts (models, UNSAT cores) "
                                "and path certificates are written to "
                                "DIR and verified warm hits served from "
                                "it on later runs; any torn/corrupt/"
                                "skewed file is quarantined and "
                                "re-solved, any I/O failure disables "
                                "the tier for the run (see "
                                "tools/store_fsck.py)")
    p_explore.add_argument("--certify", action="store_true", default=False,
                           help="certify every reported answer: UNSAT "
                                "answers are DRAT-checked, SAT models "
                                "re-evaluated, and every path replayed "
                                "under the unstaged reference evaluator; "
                                "failures are counted and downgraded, "
                                "never trusted")
    p_explore.add_argument("--inject-faults", metavar="SPEC", default=None,
                           help="deterministic chaos schedule, e.g. "
                                "'kill=30,unknown=20,evict=50,hiccup=10,"
                                "corrupt=30,hang=10,memhog=20,torn=20,"
                                "iofail=5,stop=5,seed=1' (rates in "
                                "percent; stop interrupts after N "
                                "paths; hang wedges pool workers for "
                                "the watchdog to kill, memhog leaks "
                                "memory to drive the governor, torn/"
                                "iofail tear and fail --store I/O)")
    p_explore.add_argument("--stats", action="store_true",
                           help="print detailed solver/cache statistics")
    p_explore.add_argument("--max-paths", type=int,
                           default=ExploreConfig.max_paths)
    p_explore.add_argument("--max-steps", type=int, default=1_000_000)
    p_explore.add_argument("--show-paths", type=int, default=20)
    p_explore.set_defaults(func=_cmd_explore)

    args = parser.parse_args(argv)
    if args.command == "explore" and args.store is None:
        given = [
            flag for dest, flag in _STORE_CACHE_FLAGS
            if getattr(args, dest) is not None
        ]
        if given:
            p_explore.error(
                f"{', '.join(given)}: requires --store, the only "
                f"configuration with a query cache"
            )
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (``repro explore ... | head``).  Point
        # stdout at devnull so the flush at exit cannot raise again, and
        # exit like a process killed by SIGPIPE: 1 means assertion
        # failures were found.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE


if __name__ == "__main__":
    raise SystemExit(main())
