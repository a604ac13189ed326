"""Tests for the experiment drivers (Table I, Fig. 6, reports, LOC)."""

import pytest

from repro.core import BinSymExecutor, Explorer
from repro.eval.engines import ENGINE_ORDER, explore_with, make_engine
from repro.eval.fig6 import render_fig6, run_fig6
from repro.eval.report import csv_lines, format_table, log_bar_chart
from repro.eval.table1 import main as table1_main, render_table1, run_table1
from repro.eval.workloads import WORKLOADS, build
from repro.smt import CachingSolver, Solver
from repro.spec import rv32im


class TestEngineFactory:
    def test_all_keys_construct(self):
        image = build("bubble-sort", 2)
        isa = rv32im()
        for key in ENGINE_ORDER + ("angr-buggy",):
            engine = make_engine(key, isa, image)
            assert hasattr(engine, "execute")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            make_engine("klee", rv32im(), build("bubble-sort", 2))

    def test_explore_with_defaults(self):
        result = explore_with("binsym", build("bubble-sort", 2))
        assert result.num_paths == 2


class TestTable1Driver:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table1(scale=2, benchmarks=("bubble-sort", "uri-parser"))

    def test_counts_collected_for_all_engines(self, rows):
        for row in rows:
            assert set(row.counts) == {"angr-buggy", "binsec", "symex-vp", "binsym"}

    def test_correct_engines_agree(self, rows):
        for row in rows:
            reference = row.counts["binsym"]
            assert row.counts["binsec"] == reference
            assert row.counts["symex-vp"] == reference

    def test_bubble_sort_row(self, rows):
        row = next(r for r in rows if r.benchmark == "bubble-sort")
        assert row.reference_count == 2
        assert not row.angr_misses_paths()  # no affected instructions

    def test_render_contains_dagger_note(self, rows):
        text = render_table1(rows)
        assert "Table I" in text
        assert "†" in text

    def test_main_runs(self, capsys):
        assert table1_main(["--scale", "2", "--benchmark", "bubble-sort"]) == 0
        out = capsys.readouterr().out
        assert "bubble-sort" in out


class TestFig6Driver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig6(scale=2, repeats=1, benchmarks=("bubble-sort",))

    def test_all_engines_timed(self, result):
        assert set(result.means) == {"binsec", "binsym", "symex-vp", "angr"}
        for means in result.means.values():
            assert len(means) == 1 and means[0] > 0

    def test_ordering_helper(self, result):
        ordering = result.ordering_for("bubble-sort")
        assert sorted(ordering) == sorted(result.means)

    def test_render(self, result):
        text = render_fig6(result)
        assert "log scale" in text
        assert "CSV:" in text
        assert "bubble-sort" in text


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "long-name" in lines[-1]

    def test_format_table_with_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_log_bar_chart_monotone(self):
        chart = log_bar_chart(["g"], {"fast": [0.01], "slow": [10.0]})
        fast_line = next(l for l in chart.splitlines() if "fast" in l)
        slow_line = next(l for l in chart.splitlines() if "slow" in l)
        assert slow_line.count("#") > fast_line.count("#")

    def test_log_bar_chart_empty(self):
        assert log_bar_chart(["g"], {"a": [0.0]}) == "(no data)"

    def test_csv_lines(self):
        lines = csv_lines(["a", "b"], [[1, 2], [3, 4]])
        assert lines == ["a,b", "1,2", "3,4"]


class TestLocReport:
    def test_counts_positive(self):
        from pathlib import Path

        import repro
        from repro.eval.loc_report import count_loc, package_loc

        root = Path(repro.__file__).parent
        totals = package_loc(root)
        assert totals["core"] > 500
        assert totals["spec"] > 800
        assert count_loc(root / "__init__.py") > 0

    def test_main_runs(self, capsys):
        from repro.eval.loc_report import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "BinSym core" in out


class TestBugsDriverMain:
    def test_main_runs(self, capsys):
        from repro.eval.bugs import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "reproduced" in out
        assert "FP" in out
        assert "division by zero" in out


class TestExplorationStatistics:
    def test_solver_time_and_coverage_tracked(self):
        result = explore_with("binsym", build("bubble-sort", 3))
        assert result.num_paths == 6
        assert result.solver_time > 0
        assert len(result.covered_branches) == 1  # one compare-exchange site
        assert "in solver" in result.summary()

    def test_reused_executor_reports_each_exploration_alone(self):
        """An executor's own counters cover every exploration it served;
        each result reports only its own exploration's runs."""
        executor = BinSymExecutor(rv32im(), build("bubble-sort", 4))
        first = Explorer(executor).explore()
        second = Explorer(executor).explore()
        assert second.snapshot_stats == first.snapshot_stats
        assert second.resumed_runs == second.num_paths - 1

    @pytest.mark.parametrize("solver_class", [Solver, CachingSolver])
    def test_shared_solver_reports_each_exploration_alone(self, solver_class):
        """A solver shared across explorations keeps lifetime counters;
        each result counts only the solves its own queries made."""
        image = build("bubble-sort", 4)
        solver = solver_class()
        for engine in ("binsym", "binsec"):
            result = explore_with(engine, image, solver=solver)
            assert result.solver_stats["sat_core_solves"] == result.num_queries


class TestRunAllReport:
    def test_generate_report_sections(self, tmp_path):
        from repro.eval.run_all import generate_report, main

        report = generate_report(repeats=1, scale=2)
        assert "# BinSym reproduction — experiment report" in report
        assert "Table I" in report
        assert "Fig. 6" in report
        assert "SMT query complexity" in report
        assert "LOC split" in report

        out = tmp_path / "report.md"
        assert main(["-o", str(out), "--scale", "2"]) == 0
        assert out.read_text().startswith("# BinSym reproduction")
