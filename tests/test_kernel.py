"""Bitset-kernel edge cases and the CompiledKernel sharing protocol.

DESIGN §11: the compiled kernel is wall-clock-only — every test here
locks byte-identical tables, reports, and deterministic work counters
against the object engines while exercising the corners of the
compilation layer:

* seed enumeration is a *superset* (unreachable seeds cost one id and
  nothing else) and a *subset* (states past the seeds get ids lazily);
* commands that never execute compile no transfer rows;
* the relational kernel's ``rcompose``/``rtransfer`` over empty sets;
* budget aborts inside the mask solver keep their
  :class:`BudgetExceededError` kind, partial tables still materialize,
  and the incremental driver refuses to save them;
* a :class:`CompiledKernel` handle reused across sequential engines
  (including the flush protocol that forces a previous borrower's
  lazily-materialized result out before the tables reset).
"""

import pytest

from repro.framework.kernel import RelationKernel, validate_kernel
from repro.framework.metrics import (
    KIND_SECONDS,
    KIND_WORK,
    Budget,
    BudgetExceededError,
    Metrics,
)
from repro.framework.swift import SwiftEngine
from repro.framework.topdown import TopDownEngine
from repro.framework.tracing import RingSink
from repro.ir.commands import Invoke
from repro.incremental import SummaryStore, analyze_with_store
from repro.typestate.bu_analysis import SimpleTypestateBU
from repro.typestate.client import run_typestate
from repro.typestate.enumerate import seed_states
from repro.typestate.properties import FILE_PROPERTY
from repro.typestate.states import AbstractState, bootstrap_state, intern_state
from repro.typestate.td_analysis import SimpleTypestateTD

from tests.helpers import all_small_programs, figure1_program, loop_program

INITIAL = [bootstrap_state(FILE_PROPERTY)]


def _run(program, **kwargs):
    return TopDownEngine(
        program, SimpleTypestateTD(FILE_PROPERTY), **kwargs
    ).run(INITIAL)


def _work_counters(metrics):
    return (
        metrics.transfers,
        metrics.propagations,
        metrics.td_summary_reuses,
        metrics.summary_instantiations,
        metrics.total_work,
    )


def _assert_same_result(kernel_result, object_result):
    assert kernel_result.td == object_result.td
    assert dict(kernel_result.entry_counts) == dict(object_result.entry_counts)
    assert kernel_result.call_records == object_result.call_records
    assert _work_counters(kernel_result.metrics) == _work_counters(
        object_result.metrics
    )


# -- seed enumeration edges -----------------------------------------------------------
def test_unreachable_seeds_cost_ids_only():
    """Seeding states no run reaches changes nothing but kernel_states."""
    program = figure1_program()
    baseline = _run(program)
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    seeds = seed_states(program, FILE_PROPERTY, analysis)
    ghosts = [
        intern_state(AbstractState("ghost-site", ts, frozenset({"zz"})))
        for ts in FILE_PROPERTY.states
    ]
    plain = TopDownEngine(
        program, analysis, kernel="bitset", kernel_seeds=seeds
    )
    padded = TopDownEngine(
        program, analysis, kernel="bitset", kernel_seeds=seeds + ghosts
    )
    plain_result = plain.run(INITIAL)
    padded_result = padded.run(INITIAL)
    _assert_same_result(plain_result, baseline)
    _assert_same_result(padded_result, baseline)
    assert (
        padded.metrics.kernel_states
        == plain.metrics.kernel_states + len(ghosts)
    )
    # Unreachable seeds never get transfer rows compiled for them.
    assert padded.metrics.kernel_rows == plain.metrics.kernel_rows


def test_states_past_the_seeds_get_ids_lazily():
    """An empty seed list is only a cold id space, never a wrong one."""
    for program in all_small_programs():
        baseline = _run(program)
        engine = TopDownEngine(
            program, SimpleTypestateTD(FILE_PROPERTY), kernel="bitset",
            kernel_seeds=[],
        )
        _assert_same_result(engine.run(INITIAL), baseline)
        assert engine.metrics.kernel_states > 0


def test_never_occurring_commands_compile_no_rows():
    """A dead procedure's commands stay out of the row tables."""
    base_program = figure1_program()
    procs = dict(base_program.procedures)
    dead = loop_program()
    procs["never_called"] = dead.procedures["use"]
    with_dead = type(base_program)(procs, main=base_program.main)

    live = TopDownEngine(
        base_program, SimpleTypestateTD(FILE_PROPERTY), kernel="bitset"
    )
    padded = TopDownEngine(
        with_dead, SimpleTypestateTD(FILE_PROPERTY), kernel="bitset"
    )
    live_result = live.run(INITIAL)
    padded_result = padded.run(INITIAL)
    assert live_result.td == padded_result.td
    assert padded.metrics.kernel_rows == live.metrics.kernel_rows


# -- relational kernel edges ----------------------------------------------------------
def test_rcompose_and_rtransfer_over_empty_sets():
    """Empty inputs produce empty outputs and count zero relations."""
    metrics = Metrics()
    krels = RelationKernel(SimpleTypestateBU(FILE_PROPERTY), metrics)
    out, created = krels.rcompose_set(frozenset(), frozenset())
    assert out == frozenset() and created == 0
    out, created = krels.rtransfer_set(Invoke("f", "open"), frozenset())
    assert out == frozenset() and created == 0
    assert metrics.kernel_relations == 0
    assert metrics.kernel_cells == 0


def test_rcompose_empty_callee_against_real_summary():
    """One side empty ⇒ empty cross product, whatever the other holds."""
    program = figure1_program()
    report = run_typestate(program, FILE_PROPERTY, engine="bu")
    summaries = report.result.summaries
    relations = next(
        s.relations for s in summaries.values() if s.relations
    )
    metrics = Metrics()
    krels = RelationKernel(SimpleTypestateBU(FILE_PROPERTY), metrics)
    out, created = krels.rcompose_set(relations, frozenset())
    assert out == frozenset() and created == 0
    out, created = krels.rcompose_set(frozenset(), relations)
    assert out == frozenset() and created == 0


# -- budget aborts --------------------------------------------------------------------
def _seeded_engine(program, **kwargs):
    """An engine with the seed propagation of ``run`` already applied,
    so ``_solve`` can be driven (and its exceptions observed) directly."""
    engine = TopDownEngine(program, SimpleTypestateTD(FILE_PROPERTY), **kwargs)
    main_entry, _ = engine._proc_points(program.main)
    for sigma in INITIAL:
        engine._record_entry(program.main, sigma)
        engine._propagate(main_entry, sigma, sigma)
    return engine


def test_kernel_solver_preserves_work_budget_kind():
    budget = Budget(max_work=3)
    engine = _seeded_engine(figure1_program(), budget=budget, kernel="bitset")
    assert engine._kernel_solver
    with pytest.raises(BudgetExceededError) as excinfo:
        engine._solve()
    assert excinfo.value.kind == KIND_WORK


def test_kernel_solver_preserves_clock_budget_kind():
    budget = Budget(max_seconds=0.0)
    budget.restart_clock()
    engine = _seeded_engine(figure1_program(), budget=budget, kernel="bitset")
    with pytest.raises(BudgetExceededError) as excinfo:
        engine._solve()
    assert excinfo.value.kind == KIND_SECONDS


class _CountingBudget(Budget):
    """Counts deadline checks; never fires."""

    def check_clock(self):
        self.clock_checks = getattr(self, "clock_checks", 0) + 1
        super().check_clock()


def test_kernel_reads_clock_less_than_once_per_path_edge():
    """The object loop checks the deadline once per popped path edge;
    the mask solver checks it once per wake-up and per saturated point,
    outside its pair-bit loops."""
    for program in all_small_programs():
        budget = _CountingBudget(max_seconds=3600.0)
        result = _run(program, budget=budget, kernel="bitset")
        assert not result.timed_out
        assert 0 < budget.clock_checks < result.metrics.propagations


def test_kernel_timeout_still_materializes_partial_tables():
    report = run_typestate(
        figure1_program(),
        FILE_PROPERTY,
        engine="td",
        budget=Budget(max_work=3),
        kernel="bitset",
    )
    assert report.timed_out
    # The lazy mask → object conversion runs for aborted solves too.
    partial = report.result.td
    assert isinstance(partial, dict)


def test_incremental_driver_never_saves_partial_kernel_results(tmp_path):
    store = SummaryStore(tmp_path)
    outcome = analyze_with_store(
        figure1_program(),
        FILE_PROPERTY,
        store,
        engine="td",
        domain="simple",
        budget=Budget(max_work=3),
        kernel="bitset",
    )
    assert outcome.report.timed_out
    assert not outcome.saved
    assert store.snapshot_paths() == []


def test_traced_kernel_run_emits_the_object_event_stream():
    """Tracing keeps the object control flow (causes are per item), so a
    traced bitset run must emit exactly the object run's events — for
    top-down runs even when the budget stops them, payload included.
    SWIFT is compared unbudgeted: its compiled BU operators check the
    counters once per set application, so a SWIFT timeout may land a
    step earlier than the object loop's (same kind, same limit)."""

    def events(program, engine, kernel, budget):
        sink = RingSink(capacity=1 << 20)
        td_analysis = SimpleTypestateTD(FILE_PROPERTY)
        if engine == "td":
            run = TopDownEngine(
                program, td_analysis, budget=budget, sink=sink, kernel=kernel
            )
        else:
            run = SwiftEngine(
                program, td_analysis, SimpleTypestateBU(FILE_PROPERTY), k=1,
                budget=budget, sink=sink, kernel=kernel,
            )
        run.run(INITIAL)
        return [(e.kind, e.proc, e.data) for e in sink.events]

    for program in all_small_programs():
        for engine, limits in (("td", (None, 5, 20)), ("swift", (None,))):
            for max_work in limits:
                object_events, kernel_events = (
                    events(program, engine, kernel, Budget(max_work=max_work))
                    for kernel in ("object", "bitset")
                )
                assert kernel_events == object_events, (engine, max_work)


def test_kernel_identical_without_caches():
    # With the memo off, rows compile through the raw transfer function.
    for program in all_small_programs():
        plain = _run(program, enable_caches=False)
        compiled = _run(program, enable_caches=False, kernel="bitset")
        _assert_same_result(compiled, plain)


# -- CompiledKernel sharing -----------------------------------------------------------
def test_compiled_kernel_reuse_is_identity():
    for program in all_small_programs():
        baseline = _run(program)
        analysis = SimpleTypestateTD(FILE_PROPERTY)
        compiler = TopDownEngine(program, analysis, kernel="bitset")
        first = compiler.run(INITIAL)
        _assert_same_result(first, baseline)
        tables = compiler.compiled_kernel()
        for scheduler in ("fifo", "callee-depth"):
            engine = TopDownEngine(
                program, analysis, kernel="bitset",
                kernel_tables=tables, scheduler=scheduler,
            )
            _assert_same_result(engine.run(INITIAL), baseline)
            # Table counters stay with the engine that compiled.
            assert engine.metrics.kernel_states == 0
            assert engine.metrics.kernel_compile_seconds == 0.0


def test_compiled_kernel_flush_protects_unread_results():
    """A result read only *after* a later borrower ran is still right:
    the next solve forces the previous borrower's lazy materialization
    out before resetting the shared run state."""
    program = figure1_program()
    baseline = _run(program)
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    compiler = TopDownEngine(program, analysis, kernel="bitset")
    unread_first = compiler.run(INITIAL)  # not read yet
    tables = compiler.compiled_kernel()
    second_engine = TopDownEngine(
        program, analysis, kernel="bitset", kernel_tables=tables
    )
    unread_second = second_engine.run(INITIAL)  # not read yet either
    third_engine = TopDownEngine(
        program, analysis, kernel="bitset", kernel_tables=tables
    )
    third = third_engine.run(INITIAL)
    # Read in reverse order of production: every result must have been
    # flushed out of the shared tables before they were reset.
    _assert_same_result(third, baseline)
    _assert_same_result(unread_second, baseline)
    _assert_same_result(unread_first, baseline)


def test_compiled_kernel_misuse_raises():
    program = figure1_program()
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    object_engine = TopDownEngine(program, analysis)
    with pytest.raises(ValueError):
        object_engine.compiled_kernel()
    kernel_engine = TopDownEngine(program, analysis, kernel="bitset")
    kernel_engine.run(INITIAL)
    tables = kernel_engine.compiled_kernel()
    with pytest.raises(ValueError):
        TopDownEngine(program, analysis, kernel_tables=tables)  # object kernel


def test_validate_kernel_rejects_unknown_names():
    with pytest.raises(ValueError):
        validate_kernel("simd")
