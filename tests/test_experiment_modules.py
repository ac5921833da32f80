"""Fast tests for the experiment modules (rendering, claims, small runs).

The full exhibits run through ``python -m repro.experiments``, which
prints each exhibit's missed shape claims (CI's "Paper shape claims
hold" step).  These tests exercise the same code cheaply: rendering
with synthetic rows, single small benchmarks whose claims must hold,
every ``missed_claims`` on a doctored row, and the hub-flood
scalability curve.
"""

import dataclasses

from repro.alias import points_to_oracle
from repro.bench import load_benchmark
from repro.bench.workloads import hub_flood
from repro.experiments import (
    ablations,
    figure5,
    shapes,
    table1,
    table2,
    table3,
    table4,
)
from repro.experiments.harness import EngineRun, run_engine
from repro.framework.config import AnalysisConfig
from repro.framework.session import analysis_session
from repro.typestate.properties import FILE_PROPERTY


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
    assert table1.missed_claims(stats) == []
    doctored = [
        dataclasses.replace(s, loc_total=s.loc_app) if s.name == "jpat-p" else s
        for s in stats
        if s.name != "avrora"
    ]
    assert table1.missed_claims(doctored) == [
        "twelve benchmarks",
        "avrora has the most application methods",
        "jpat-p's totals exceed its application classes, methods, KB and LOC",
    ]


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
    # "bench" is mid-size: BU's timeout is the paper's, TD's is not.
    assert table2.missed_claims([row]) == ["TD finishes on bench"]
    stuck = dataclasses.replace(
        row, benchmark="avrora", swift=dataclasses.replace(row.swift, timed_out=True)
    )
    assert table2.missed_claims([stuck]) == ["SWIFT finishes on avrora"]


def test_table2_run_one_small_benchmark():
    row = table2.run_one(load_benchmark("jpat-p"))
    assert not row.swift.timed_out
    assert row.swift.error_sites == row.td.error_sites
    assert row.bu.bu_summaries > row.swift.bu_summaries
    assert table2.missed_claims([row]) == []


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
    assert figure5.missed_claims([series]) == []


def test_figure5_stats_row():
    series = figure5.Figure5Series("x", [100, 10, 1], [5, 5, 0], k=5)
    row = series.stats_row("TD", series.td_counts)
    assert row[0] == "x/TD"
    assert row[2] == 100  # max
    assert row[5] == 2  # methods above k
    assert figure5.missed_claims([series]) == []
    swapped = figure5.Figure5Series("x", series.swift_counts, series.td_counts, k=5)
    assert figure5.missed_claims([swapped]) == [
        "TD's worst method needs at least twice SWIFT's on x",
        "SWIFT has fewer methods above k than TD on x",
        "SWIFT computes fewer summaries than TD on x",
    ]


def test_table3_row_cells():
    row = table3.Table3Row(k=5, seconds=1.0, work=10, td_summaries=3, bu_triggers=1)
    assert row.cells()[0] == "5"
    text = table3.render([row])
    assert "avrora" in text
    # Cross-row claims whose rows are absent are missed, not skipped.
    assert table3.missed_claims([row]) == ["no row k=50", "no row k=500"]
    rising = [
        dataclasses.replace(row, k=k, td_summaries=3 * k, work=10 * k)
        for k in (5, 50, 500)
    ]
    assert table3.missed_claims(rising) == [
        "k=500 triggers the bottom-up analysis less often than k=5"
    ]
    variants = [
        ablations.AblationRow(variant, 1.0, work, summaries, 0)
        for variant, work, summaries in (
            ("default", 10, 5),
            ("blind-ranking", 30, 4),
        )
    ]
    assert ablations.missed_claims(variants) == ["no row refresh-existing"]
    refresh = ablations.AblationRow("refresh-existing", 1.0, 12, 5, 0)
    assert ablations.missed_claims(variants + [refresh]) == [
        "frequency ranking computes fewer top-down summaries than blind ranking"
    ]
    shape = shapes.ShapeRow("wide", 10, "td", 1.0, 100, 10, 5, 0.1)
    assert shapes.missed_claims([shape, dataclasses.replace(shape, cone=3)]) == [
        "the demand cone is smaller than the program on wide (td)"
    ]


def test_table4_runs_one_benchmark():
    row = table4.run_one("toba-s")
    assert len(row.runs) == 2
    theta1, theta2 = row.runs
    assert not theta1.timed_out and not theta2.timed_out
    cells = row.cells()
    assert cells[0] == "toba-s" and len(cells) == 5
    assert table4.missed_claims([row]) == []
    worse = dataclasses.replace(
        theta2, td_summary_counts={"main": theta1.td_summaries + 1}
    )
    assert table4.missed_claims([table4.Table4Row("toba-s", [theta1, worse])]) == [
        "theta=2 computes no more top-down summaries than theta=1 on toba-s"
    ]


def test_scalability_work_ratio_widens():
    """TD's work grows faster than SWIFT's with the number of call
    sites flooding a shared helper (each flood state costs SWIFT one
    summary instantiation instead of one body re-analysis), so the
    TD/SWIFT work ratio widens with scale on the same exit states."""
    session = analysis_session()
    ratios = []
    for size in (16, 64, 256):
        program = hub_flood(size)
        # One oracle for both runs (it is the expensive part at 256).
        oracle = points_to_oracle(program)
        td, swift = (
            session.run(program, config, prop=FILE_PROPERTY, oracle=oracle)
            for config in (
                AnalysisConfig(engine="td", domain="full"),
                AnalysisConfig(engine="swift", domain="full", k=5, theta=1),
            )
        )
        assert swift.result.exit_states() == td.result.exit_states()
        assert td.metrics.total_work > 0 and swift.metrics.total_work > 0
        ratios.append(td.metrics.total_work / swift.metrics.total_work)
    # Decisive at the largest size (~2x here; the Table 2 suite reaches
    # 6x and more before TD fails outright).
    assert ratios == sorted(ratios) and ratios[-1] > 1.8, ratios
