"""Fast tests for the experiment modules (rendering, small runs, CSV).

The heavy full-suite runs live in benchmarks/; these tests exercise the
code paths cheaply: rendering with synthetic rows, single small
benchmarks, and the export helpers.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.bench import load_benchmark
from repro.experiments import figure5, table1, table2, table3, table4
from repro.experiments.export import write_csv
from repro.experiments.harness import EngineRun, run_engine


def _engine_run(**overrides):
    base = dict(
        benchmark="x",
        engine="td",
        k=None,
        theta=None,
        seconds=1.25,
        work=1000,
        td_summary_counts={"main": 60, "f": 40},
        bu_summaries=0,
        timed_out=False,
        error_sites=frozenset(),
    )
    base.update(overrides)
    return EngineRun(**base)


def test_table1_render_contains_all_names():
    stats = table1.run()
    text = table1.render(stats)
    for name in ("jpat-p", "avrora", "sablecc-j"):
        assert name in text


def test_table2_row_cells_with_timeouts():
    row = table2.Table2Row(
        "bench",
        _engine_run(timed_out=True),
        _engine_run(engine="bu", timed_out=True),
        _engine_run(
            engine="swift", work=10, td_summary_counts={"main": 5}, bu_summaries=2
        ),
    )
    cells = row.cells()
    assert cells[0] == "bench"
    assert cells[1] == "timeout" and cells[2] == "timeout"
    # No work or wall-clock speedup against a timeout.
    assert cells[4] == cells[5] == cells[6] == "-"
    text = table2.render([row])
    assert "timeout" in text


def test_table2_run_one_small_benchmark():
    row = table2.run_one(load_benchmark("jpat-p"))
    assert not row.swift.timed_out
    assert row.swift.error_sites == row.td.error_sites
    assert row.bu.bu_summaries > row.swift.bu_summaries


def test_run_engine_records_metrics():
    run = run_engine(load_benchmark("jpat-p"), "swift", k=2, theta=2)
    assert run.engine == "swift" and run.k == 2 and run.theta == 2
    assert run.work > 0 and run.seconds >= 0


def test_figure5_series_and_chart():
    series = figure5.run_one("toba-s")
    assert series.benchmark == "toba-s"
    assert series.td_counts == sorted(series.td_counts, reverse=True)
    chart = figure5._ascii_chart(series)
    assert "T" in chart and "toba-s" in chart
    rendered = figure5.render([series])
    assert "methods" in rendered


def test_figure5_stats_row():
    series = figure5.Figure5Series("x", [100, 10, 1], [5, 5, 0], k=5)
    row = series.stats_row("TD", series.td_counts)
    assert row[0] == "x/TD"
    assert row[2] == 100  # max
    assert row[5] == 2  # methods above k


def test_table3_row_cells():
    row = table3.Table3Row(k=5, seconds=1.0, work=10, td_summaries=3, bu_triggers=1)
    assert row.cells()[0] == "5"
    text = table3.render([row])
    assert "avrora" in text


def test_table4_runs_one_benchmark():
    row = table4.run_one("toba-s")
    assert len(row.runs) == 2
    theta1, theta2 = row.runs
    assert not theta1.timed_out and not theta2.timed_out
    cells = row.cells()
    assert cells[0] == "toba-s" and len(cells) == 5


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "out" / "data.csv"
    write_csv(path, ["a", "b"], [[1, "x"], [2, "y"]])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,x" and lines[2] == "2,y"
