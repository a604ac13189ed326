"""Tests for the `repro` command-line interface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = """\
_start:
    li a0, 0x30000
    li a1, 1
    li a7, 1337
    ecall
    li t0, 0x30000
    lbu t1, 0(t0)
    li t2, 7
    beq t1, t2, lucky
    li a0, 0
    li a7, 93
    ecall
lucky:
    ebreak
"""

# Two paths and two solved flip queries: ``t1 >= 10`` is SAT, and
# ``t1 == 20`` under ``t1 < 10`` is UNSAT.
RANGES = """\
_start:
    li a0, 0x30000
    li a1, 1
    li a7, 1337
    ecall
    li t0, 0x30000
    lbu t1, 0(t0)
    li t2, 10
    bgeu t1, t2, big
    li t2, 20
    beq t1, t2, lucky
    li a0, 0
    li a7, 93
    ecall
big:
    li a0, 0
    li a7, 93
    ecall
lucky:
    ebreak
"""

HELLO = """\
_start:
    li a0, 1
    la a1, msg
    li a2, 6
    li a7, 64
    ecall
    li a0, 0
    li a7, 93
    ecall
.data
msg:
    .asciz "hello\\n"
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(PROGRAM)
    return path


class TestAssemble:
    def test_produces_loadable_elf(self, tmp_path, program_file, capsys):
        out = tmp_path / "prog.elf"
        assert main(["assemble", str(program_file), "-o", str(out)]) == 0
        data = out.read_bytes()
        assert data[:4] == b"\x7fELF"
        assert "entry=0x10000" in capsys.readouterr().out


class TestRun:
    def test_runs_and_reports(self, tmp_path, capsys):
        path = tmp_path / "hello.s"
        path.write_text(HELLO)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "hello" in out
        assert "halted: exit" in out

    def test_trace_mode(self, tmp_path, capsys):
        path = tmp_path / "hello.s"
        path.write_text(HELLO)
        assert main(["run", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0x00010000:" in out

    def test_runs_elf_input(self, tmp_path, program_file, capsys):
        elf = tmp_path / "prog.elf"
        main(["assemble", str(program_file), "-o", str(elf)])
        capsys.readouterr()
        assert main(["run", str(elf)]) == 0


class TestDisasm:
    def test_listing(self, program_file, capsys):
        assert main(["disasm", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "_start:" in out
        assert "lucky:" in out
        assert "ebreak" in out


class TestExplore:
    def test_finds_assertion_failure(self, program_file, capsys):
        # Exit code 1 signals assertion failures found.
        assert main(["explore", str(program_file)]) == 1
        out = capsys.readouterr().out
        assert "2 paths" in out
        assert "assertion failure" in out

    def test_defaults_come_from_explore_config(self, program_file, monkeypatch):
        import repro.cli as cli
        from repro.core import ExploreConfig

        passed = {}
        real = cli.Explorer

        def recording(executor, **options):
            passed.update(options)
            return real(executor, **options)

        monkeypatch.setattr(cli, "Explorer", recording)
        assert main(["explore", str(program_file)]) == 1
        defaults = ExploreConfig()
        for name in ("strategy", "jobs", "seed", "max_paths", "checkpoint_interval"):
            assert passed[name] == getattr(defaults, name), name

    def test_engine_selection(self, program_file, capsys):
        assert main(["explore", "--engine", "binsec", str(program_file)]) == 1
        assert "2 paths" in capsys.readouterr().out

    def test_harness_symbolic_region(self, tmp_path, capsys):
        # A program with no make_symbolic call: input via --symbolic.
        path = tmp_path / "plain.s"
        path.write_text("""\
_start:
    li t0, 0x30000
    lbu t1, 0(t0)
    beqz t1, done
    nop
done:
    li a0, 0
    li a7, 93
    ecall
""")
        assert main(["explore", "--symbolic", "0x30000:1", str(path)]) == 0
        assert "2 paths" in capsys.readouterr().out

    def test_parallel_jobs(self, program_file, capsys):
        assert main(["explore", "--jobs", "2", str(program_file)]) == 1
        out = capsys.readouterr().out
        assert "2 paths" in out
        assert "assertion failure" in out

    def test_coverage_strategy(self, program_file, capsys):
        assert main(["explore", "--strategy", "coverage", str(program_file)]) == 1
        assert "2 paths" in capsys.readouterr().out

    def test_query_cache_toggle(self, tmp_path, program_file, capsys):
        assert main(
            ["explore", "--store", str(tmp_path / "store"), str(program_file)]
        ) == 1
        assert "2 paths" in capsys.readouterr().out

    def test_staging_toggle(self, program_file, capsys):
        assert main(["explore", "--no-staging", str(program_file)]) == 1
        assert "2 paths" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["binsym", "symex-vp"])
    def test_ablations_configure_the_engine(self, engine, program_file, monkeypatch):
        """``--no-staging`` and ``--no-superblocks`` are engine settings:
        the VP engine, which swaps in its own interpreter, runs unstaged
        too, and no memoized instruction carries a compiled plan."""
        import repro.cli as cli

        engines = []
        real = cli.Explorer

        def recording(executor, **options):
            engines.append(executor)
            return real(executor, **options)

        monkeypatch.setattr(cli, "Explorer", recording)
        argv = ["explore", "--engine", engine, "--no-staging", "--no-superblocks"]
        assert main(argv + [str(program_file)]) == 1
        (executor,) = engines
        memo = executor.interpreter._exec_cache.values()
        assert executor.interpreter.staging is False
        assert memo and all(plan is None for plan, _ in memo)
        assert not executor.superblocks_enabled

    def test_unsat_cores_toggle(self, tmp_path, program_file, capsys):
        assert main(
            ["explore", "--store", str(tmp_path / "store"),
             "--no-unsat-cores", str(program_file)]
        ) == 1
        assert "2 paths" in capsys.readouterr().out

    def test_trail_reuse_toggle(self, program_file, capsys):
        assert main(["explore", "--no-trail-reuse", str(program_file)]) == 1
        assert "2 paths" in capsys.readouterr().out

    def test_snapshots_toggle(self, program_file, capsys):
        assert main(["explore", "--no-snapshots", str(program_file)]) == 1
        out = capsys.readouterr().out
        assert "2 paths" in out
        assert "resumed" not in out

    def test_superblocks_toggle(self, program_file, capsys):
        assert main(["explore", "--no-superblocks", str(program_file)]) == 1
        out = capsys.readouterr().out
        assert "2 paths" in out
        assert "superblock statistics:" not in out

    def test_superblock_stats_output(self, program_file, capsys):
        assert main(["explore", "--stats", str(program_file)]) == 1
        out = capsys.readouterr().out
        assert "superblock statistics:" in out
        assert "sb_hits" in out

    def test_snapshot_stats_output(self, program_file, capsys):
        assert main(["explore", "--stats", str(program_file)]) == 1
        out = capsys.readouterr().out
        assert "snapshot statistics:" in out
        assert "snap_resumed_runs" in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_neighbourhood_stats_output(self, tmp_path, capsys, jobs):
        path = tmp_path / "ranges.s"
        path.write_text(RANGES)
        assert main(["explore", "--stats", "--jobs", jobs, str(path)]) == 0
        stats = {
            key: int(value)
            for key, value in re.findall(
                r"^\s+(sat_\w+)\s*: (\d+)$", capsys.readouterr().out, re.MULTILINE
            )
        }
        hits = stats["sat_neighbourhood_hits"]
        misses = stats["sat_neighbourhood_misses"]
        assert hits >= 1 and stats["sat_neighbourhood_gates"] >= 1
        assert hits + misses <= stats["sat_core_solves"]

    def test_solver_flags_without_query_cache(self, program_file, capsys):
        # The solver-level flags apply to the plain incremental solver.
        assert main(
            ["explore", "--no-trail-reuse", "--conflict-budget", "10000",
             str(program_file)]
        ) == 1
        assert "2 paths" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [
        pytest.param(["--no-unsat-cores"], id="flag3"),
        pytest.param(["--core-budget", "0"], id="flag4"),
    ])
    def test_pipeline_flag_requires_store(self, program_file, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["explore", *flag, str(program_file)])
        assert exit_info.value.code == 2
        assert f"{flag[0]}: requires --store" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--no-slicing", "--no-rewrite", "--no-intervals"])
    def test_removed_pipeline_flags_are_unknown(self, tmp_path, program_file, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["explore", "--store", str(tmp_path / "store"), flag,
                  str(program_file)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("store", [False, True], ids=["plain", "store"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_certify_counts_every_solved_query(self, tmp_path, capsys, jobs, store):
        path = tmp_path / "ranges.s"
        path.write_text(RANGES)
        store_args = ["--store", str(tmp_path / "store")] if store else []
        assert main(
            ["explore", "--certify", "--jobs", jobs, *store_args, str(path)]
        ) == 0
        out = capsys.readouterr().out
        solved = re.search(r"(\d+) solver queries \((\d+) sat / (\d+) unsat", out)
        certified = re.search(
            r"(\d+) SAT models evaluated, (\d+) UNSAT proofs checked, "
            r"0 certification failures", out
        )
        # The path replay walks the exploration tree: the child resumes
        # from its parent, so fewer instructions replay than were explored.
        split = re.search(
            r"certified results: (\d+) paths replayed \(0 failed, "
            r"(\d+) resumed from their parent, (\d+) instructions\)", out
        )
        total = re.search(r"(\d+) instructions, ", out)
        assert solved and certified and split and total, out
        num_solved, num_sat, num_unsat = map(int, solved.groups())
        assert num_sat and num_unsat
        assert sum(map(int, certified.groups())) == num_solved
        paths, resumed, replayed = map(int, split.groups())
        assert paths == 2 and resumed == 1
        assert 0 < replayed < 2 * int(total.group(1))

    def test_staging_toggle_parallel(self, program_file, capsys):
        assert main(
            ["explore", "--no-staging", "--jobs", "2", str(program_file)]
        ) == 1
        assert "2 paths" in capsys.readouterr().out

    def test_conflict_budget_flag(self, program_file, capsys):
        assert main(
            ["explore", "--conflict-budget", "10000", "--stats",
             str(program_file)]
        ) == 1
        out = capsys.readouterr().out
        assert "2 paths" in out
        assert "unknown" in out

    def test_core_budget_flag(self, tmp_path, program_file, capsys):
        assert main(
            ["explore", "--store", str(tmp_path / "store"), "--core-budget",
             "0", str(program_file)]
        ) == 1
        assert "2 paths" in capsys.readouterr().out

    def test_inject_faults_flag(self, program_file, capsys):
        assert main(
            ["explore", "--inject-faults", "evict=100,seed=3",
             str(program_file)]
        ) == 1
        assert "2 paths" in capsys.readouterr().out

    def test_checkpoint_and_resume(self, tmp_path, program_file, capsys):
        journal = tmp_path / "campaign"
        assert main(
            ["explore", "--checkpoint", str(journal), str(program_file)]
        ) == 1
        assert "2 paths" in capsys.readouterr().out
        assert (journal / "checkpoint.json").exists()
        # Resuming a complete campaign restores it without re-exploring.
        assert main(
            ["explore", "--resume", str(journal), str(program_file)]
        ) == 1
        assert "2 paths" in capsys.readouterr().out

    def test_interrupted_checkpoint_then_resume(
        self, tmp_path, program_file, capsys
    ):
        journal = tmp_path / "campaign"
        main(
            ["explore", "--checkpoint", str(journal),
             "--inject-faults", "stop=1", str(program_file)]
        )
        assert "[interrupted]" in capsys.readouterr().out
        assert main(
            ["explore", "--resume", str(journal), str(program_file)]
        ) == 1
        assert "2 paths" in capsys.readouterr().out

    def test_bad_inject_faults_spec(self, program_file):
        with pytest.raises(SystemExit, match="inject-faults"):
            main(["explore", "--inject-faults", "frobnicate=1",
                  str(program_file)])

    def test_bad_symbolic_spec(self, program_file):
        with pytest.raises(SystemExit):
            main(["explore", "--symbolic", "garbage", str(program_file)])

    def test_custom_isa(self, tmp_path, capsys):
        path = tmp_path / "zbb.s"
        path.write_text("""\
_start:
    li t0, 0xf0
    li t1, 0x0f
    andn a0, t0, t1
    li a7, 93
    ecall
""")
        assert main(["--isa", "rv32im+zbb", "run", str(path)]) == 0xF0


def test_closed_stdout_exits_like_sigpipe(tmp_path):
    """``repro explore prog.s | head`` prints no traceback and does not
    exit 1, which means assertion failures were found: it exits 141
    (128 + SIGPIPE), like a process the signal killed."""
    source = tmp_path / "ranges.s"
    source.write_text(RANGES)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "explore", str(source)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    process.stdout.close()  # the reader is gone before the first write
    stderr = process.stderr.read()
    process.stderr.close()
    assert process.wait(timeout=120) == 141
    assert b"Traceback" not in stderr, stderr.decode()
