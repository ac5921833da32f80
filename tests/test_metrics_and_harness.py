"""Unit tests for metrics/budgets and the experiment harness."""

import multiprocessing
import os
import time

import pytest

from repro.framework.metrics import Budget, BudgetExceededError, Metrics
from repro.experiments.harness import (
    EngineRun,
    drop_label,
    format_table,
    speedup_label,
)


def test_metrics_total_work_and_merge():
    a = Metrics(transfers=5, rtransfers=3, compositions=2, propagations=7)
    assert a.total_work == 17
    b = Metrics(transfers=1, summary_instantiations=4, pruned_relations=9)
    a.merge(b)
    assert a.transfers == 6
    assert a.summary_instantiations == 4
    assert a.pruned_relations == 9
    assert a.total_work == 22


def test_metrics_merge_folds_every_field():
    """The fold iterates dataclass fields, so newly added counter
    families (cache counters, store counters) can never be dropped."""
    import dataclasses

    a, b = Metrics(), Metrics()
    for i, spec in enumerate(dataclasses.fields(Metrics), start=1):
        setattr(b, spec.name, i)
    a.merge(b)
    for i, spec in enumerate(dataclasses.fields(Metrics), start=1):
        assert getattr(a, spec.name) == i, spec.name


def test_store_counters_not_in_total_work():
    m = Metrics(transfers=3, store_hits=100, store_misses=50, store_invalidated=7)
    assert m.total_work == 3


def test_budget_work_limit():
    budget = Budget(max_work=10)
    budget.check(Metrics(transfers=10))  # at the limit: fine
    with pytest.raises(BudgetExceededError) as info:
        budget.check(Metrics(transfers=11))
    assert info.value.what == "total_work"
    assert info.value.spent == 11 and info.value.limit == 10


def test_budget_relations_limit():
    budget = Budget(max_relations=2)
    with pytest.raises(BudgetExceededError):
        budget.check(Metrics(relations_created=3))


def test_budget_time_limit():
    budget = Budget(max_seconds=0.01)
    time.sleep(0.02)
    with pytest.raises(BudgetExceededError):
        budget.check(Metrics())
    budget.restart_clock()
    budget.max_seconds = 10.0
    budget.check(Metrics())  # fresh clock: fine


def test_budget_unlimited_by_default():
    Budget().check(Metrics(transfers=10**9))  # no limits, no raise


def test_budget_error_kind_matches_remaining_keys():
    from repro.framework.metrics import BUDGET_KINDS

    budget = Budget(max_work=10, max_relations=5)
    with pytest.raises(BudgetExceededError) as info:
        budget.check(Metrics(transfers=11))
    assert info.value.kind == info.value.what == "total_work"
    assert info.value.kind in BUDGET_KINDS
    headroom = budget.remaining(Metrics(transfers=4, relations_created=1))
    assert set(headroom) == set(BUDGET_KINDS)
    assert headroom["total_work"] == 6
    assert headroom["relations_created"] == 4
    assert headroom["seconds"] is None  # disabled limit


def test_budget_remaining_clamps_at_zero():
    headroom = Budget(max_work=10).remaining(Metrics(transfers=25))
    assert headroom["total_work"] == 0
    assert headroom["relations_created"] is None


def test_budget_seconds_error_reports_float():
    """Sub-second overruns used to be truncated by int(): a 0.6s overrun
    of a 0.05s budget reported spent=0."""
    budget = Budget(max_seconds=0.05)
    budget._started_at = time.monotonic() - 0.6
    with pytest.raises(BudgetExceededError) as info:
        budget.check(Metrics())
    assert info.value.what == "seconds"
    assert isinstance(info.value.spent, float)
    assert info.value.spent >= 0.5
    assert info.value.limit == 0.05


def _run(engine="td", work=100, timed_out=False, td=10, bu=0):
    return EngineRun(
        benchmark="x",
        engine=engine,
        k=None,
        theta=None,
        seconds=1.0,
        work=work,
        td_summary_counts={"main": td},
        bu_summaries=bu,
        timed_out=timed_out,
        error_sites=frozenset(),
    )


def test_time_label():
    assert _run().time_label == "1.00s"
    assert _run(timed_out=True).time_label == "timeout"


def test_speedup_label():
    baseline = _run(work=1000)
    swift = _run(engine="swift", work=100)
    assert speedup_label(baseline, swift) == "10.0X"
    assert speedup_label(_run(timed_out=True), swift) == "-"
    assert speedup_label(baseline, _run(work=0)) == "-"


def test_speedup_label_swift_timeout():
    """A ratio against a truncated SWIFT run is meaningless: "-" when
    *either* side timed out (previously only the baseline was checked,
    so a timed-out SWIFT run printed a bogus <1X speedup)."""
    baseline = _run(work=1000)
    truncated = _run(engine="swift", work=100, timed_out=True)
    assert speedup_label(baseline, truncated) == "-"
    assert speedup_label(
        _run(timed_out=True), _run(engine="swift", timed_out=True)
    ) == "-"


def test_drop_label():
    assert drop_label(100, 5, False) == "95%"
    assert drop_label(100, 100, False) == "0%"
    assert drop_label(100, 5, True) == "-"
    assert drop_label(0, 5, False) == "-"


def test_format_table_alignment():
    text = format_table(
        ["name", "count"],
        [["alpha", 1], ["b", 22]],
        title="T",
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1].startswith("name")
    assert "-----" in lines[2]
    # Numeric column right-aligned.
    assert lines[3].endswith("    1")
    assert lines[4].endswith("   22")


def test_format_table_empty_rows():
    text = format_table(["a", "bb"], [])
    assert "a" in text and "bb" in text


# -- Budget clock semantics ----------------------------------------------------------
def _tiny_program():
    from repro.ir.builder import ProgramBuilder

    b = ProgramBuilder()
    with b.proc("main") as p:
        p.new("a", "h1").invoke("a", "open").invoke("a", "close")
    return b.build()


def test_bottomup_analyze_restarts_stale_clock():
    """A Budget built long before the run must time the analysis, not
    the setup: analyze() restarts the wall clock uniformly (this was
    previously skipped whenever a shared Metrics was passed in)."""
    from repro.framework.bottomup import BottomUpEngine
    from repro.typestate.bu_analysis import SimpleTypestateBU
    from repro.typestate.properties import FILE_PROPERTY

    budget = Budget(max_seconds=5.0)
    budget._started_at = time.monotonic() - 60.0  # stale setup phase
    engine = BottomUpEngine(
        _tiny_program(),
        SimpleTypestateBU(FILE_PROPERTY),
        budget=budget,
        metrics=Metrics(),  # shared metrics, as SWIFT passes them
    )
    result = engine.analyze()
    assert not result.timed_out


def test_nested_run_keeps_enclosing_clock():
    """restart_clock=False (SWIFT's nested run_bu) must NOT extend the
    enclosing deadline: a stale clock times out immediately."""
    from repro.framework.bottomup import BottomUpEngine
    from repro.typestate.bu_analysis import SimpleTypestateBU
    from repro.typestate.properties import FILE_PROPERTY

    budget = Budget(max_seconds=5.0)
    budget._started_at = time.monotonic() - 60.0
    engine = BottomUpEngine(
        _tiny_program(),
        SimpleTypestateBU(FILE_PROPERTY),
        budget=budget,
        restart_clock=False,
    )
    result = engine.analyze()
    assert result.timed_out


def test_topdown_run_restarts_stale_clock():
    from repro.framework.topdown import TopDownEngine
    from repro.typestate.properties import FILE_PROPERTY
    from repro.typestate.states import bootstrap_state
    from repro.typestate.td_analysis import SimpleTypestateTD

    budget = Budget(max_seconds=5.0)
    budget._started_at = time.monotonic() - 60.0
    engine = TopDownEngine(
        _tiny_program(), SimpleTypestateTD(FILE_PROPERTY), budget=budget
    )
    result = engine.run([bootstrap_state(FILE_PROPERTY)])
    assert not result.timed_out


# -- parallel harness ----------------------------------------------------------------
def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _fail_in_worker_on_two(x):
    """Picklable row fn: raises for x == 2 only inside pool workers."""
    if x == 2 and _in_worker():
        raise ValueError("transient worker failure")
    return x * 10


def _kill_worker_on_three(x):
    """Picklable row fn: hard-kills its worker process for x == 3."""
    if x == 3 and _in_worker():
        os._exit(1)  # breaks the pool (no exception, no result)
    return x * 10


def _always_fail(x):
    raise KeyError(x)


def test_map_rows_preserves_order():
    from repro.experiments.harness import map_rows

    items = ["aaa", "b", "cc"]
    assert map_rows(len, items) == [3, 1, 2]
    assert map_rows(len, items, parallel=2) == [3, 1, 2]


def test_map_rows_recovers_failed_row():
    """A worker exception must not discard the completed rows: the
    failed item is re-run serially and order is preserved (previously
    pool.map dropped the whole table)."""
    from repro.experiments.harness import map_rows

    assert map_rows(_fail_in_worker_on_two, [1, 2, 3, 4], parallel=2) == [
        10,
        20,
        30,
        40,
    ]


def test_map_rows_recovers_from_broken_pool():
    """A worker killed outright (OOM killer, crashed interpreter) breaks
    the pool; completed rows are kept and the rest re-run serially."""
    from repro.experiments.harness import map_rows

    assert map_rows(_kill_worker_on_three, [1, 2, 3, 4], parallel=2) == [
        10,
        20,
        30,
        40,
    ]


def test_map_rows_deterministic_failure_raises_serially():
    """An fn that fails everywhere still raises — with the parent's
    traceback, after the serial retry."""
    from repro.experiments.harness import map_rows

    with pytest.raises(KeyError):
        map_rows(_always_fail, [1, 2], parallel=2)


def test_run_engine_records_trace(tmp_path):
    """With a trace dir set (--trace DIR), run_engine dumps per-run
    JSONL without perturbing the deterministic work counters, one file
    per row: two rows that differ only in theta keep both traces."""
    from repro.bench import load_benchmark
    from repro.experiments import harness
    from repro.framework.tracing import Profile, read_jsonl

    bench = load_benchmark("jpat-p")
    harness.set_trace_dir(tmp_path)
    try:
        traced = harness.run_engine(bench, "swift")
        theta2 = harness.run_engine(bench, "swift", theta=2)
        td = harness.run_engine(bench, "td", label="baseline")
    finally:
        harness.set_trace_dir(None)
    path = tmp_path / "jpat-p_swift_k5_theta1.jsonl"
    assert path.exists()
    assert read_jsonl(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "jpat-p_swift_k5_theta1.jsonl",
        "jpat-p_swift_k5_theta2.jsonl",
        "jpat-p_td_baseline.jsonl",
    ]
    # Each file holds its own row's run: the propagations it records
    # are exactly that run's.
    for run, name in (
        (traced, "jpat-p_swift_k5_theta1.jsonl"),
        (theta2, "jpat-p_swift_k5_theta2.jsonl"),
        (td, "jpat-p_td_baseline.jsonl"),
    ):
        profile = Profile.from_jsonl(tmp_path / name)
        assert profile.event_counts["propagate"] == run.metrics.propagations
    assert traced.metrics.propagations != theta2.metrics.propagations
    plain = harness.run_engine(bench, "swift")
    assert traced.work == plain.work
    assert traced.error_sites == plain.error_sites


def test_parallel_table2_rows_match_serial():
    """`experiments --parallel N` must produce the same rows as the
    serial run (work counters are deterministic; only wall clock may
    differ).  Uses the two smallest suite benchmarks."""
    from repro.experiments import table2
    from repro.experiments.harness import aggregate_metrics

    names = ["jpat-p", "elevator"]
    serial = table2.run(names=names)
    parallel = table2.run(names=names, parallel=2)
    assert [r.benchmark for r in serial] == [r.benchmark for r in parallel]
    for s, p in zip(serial, parallel):
        for a, b in ((s.td, p.td), (s.bu, p.bu), (s.swift, p.swift)):
            assert a.engine == b.engine
            assert a.work == b.work
            assert a.td_summaries == b.td_summaries
            assert a.bu_summaries == b.bu_summaries
            assert a.timed_out == b.timed_out
            assert a.error_sites == b.error_sites
    # Per-row Metrics crossed the process boundary and can be merged.
    merged = aggregate_metrics(r.swift for r in parallel)
    assert merged.total_work == sum(r.swift.work for r in parallel)
    # Table 3's k values and the ablation variants are rows too.
    from repro.experiments import ablations, table3

    def untimed(rows):
        return [row.cells()[:1] + row.cells()[2:] for row in rows]

    assert untimed(table3.run(benchmark_name="jpat-p", parallel=2)) == untimed(
        table3.run(benchmark_name="jpat-p")
    )
    assert untimed(ablations.run("jpat-p", parallel=2)) == untimed(
        ablations.run("jpat-p")
    )
