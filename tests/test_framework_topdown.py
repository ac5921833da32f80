"""Tests for the tabulating top-down engine against the denotational oracle."""

import pytest

from repro.framework.denotational import DenotationalInterpreter
from repro.framework.metrics import Budget
from repro.framework.topdown import TopDownEngine
from repro.typestate.properties import FILE_PROPERTY
from repro.typestate.states import bootstrap_state
from repro.typestate.td_analysis import SimpleTypestateTD

from tests.helpers import all_small_programs, figure1_program


@pytest.mark.parametrize("program", all_small_programs())
def test_tabulation_matches_denotational_at_main_exit(program):
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    oracle = DenotationalInterpreter(program, analysis).run(initial)
    result = TopDownEngine(program, analysis).run(initial)
    assert result.exit_states() == oracle


def test_figure1_summary_counts():
    """The paper's example: TD re-analyzes foo in many contexts.

    The paper counts five contexts (T1-T5); our modelling of
    parameters as global registers keeps caller variables (v1, v2, v3)
    in the must sets and adds the bootstrap object, so foo sees eight
    distinct incoming abstract states — same phenomenon, finer states.
    """
    program = figure1_program()
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    result = TopDownEngine(program, analysis).run([bootstrap_state(FILE_PROPERTY)])
    incoming = result.incoming_states("foo")
    assert len(incoming) == 8
    # The paper's T1/T2/T5 analogues: f in the must set, state closed.
    strong_contexts = [s for s in incoming if "f" in s.must and s.state == "closed"]
    assert len(strong_contexts) == 3


def test_states_at_every_point_nonempty_for_reachable():
    program = figure1_program()
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    result = TopDownEngine(program, analysis).run([bootstrap_state(FILE_PROPERTY)])
    main_cfg = result.cfgs["main"]
    for point in main_cfg.points:
        assert result.states_at(point), f"no states at {point}"


def test_budget_timeout_marks_result():
    program = figure1_program()
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    engine = TopDownEngine(program, analysis, budget=Budget(max_work=5))
    result = engine.run([bootstrap_state(FILE_PROPERTY)])
    assert result.timed_out


def test_entry_counts_are_multisets():
    program = figure1_program()
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    result = TopDownEngine(program, analysis).run([bootstrap_state(FILE_PROPERTY)])
    counts = result.entry_counts["foo"]
    assert sum(counts.values()) >= len(counts) >= 1


def test_summary_counts_by_proc_keys():
    program = figure1_program()
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    result = TopDownEngine(program, analysis).run([bootstrap_state(FILE_PROPERTY)])
    by_proc = result.summary_counts_by_proc()
    assert set(by_proc) == {"main", "foo"}
    assert by_proc["foo"] == result.summary_count("foo")
    assert result.total_summaries() == sum(by_proc.values())


# -- memo tables and the exit index are invisible (tables, counts, counters) ---------
from hypothesis import given

from tests.helpers import assert_memo_tables_exact
from tests.test_property_based import ENGINE_SETTINGS, programs


@ENGINE_SETTINGS
@given(program=programs())
def test_optimized_td_identical_to_unoptimized(program):
    """Every memo entry is the raw ``transfer``, the exit index is the
    scan it replaces, and the tables agree with the denotational
    reference; a second engine reproduces tables and counters exactly."""
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    engine = TopDownEngine(program, analysis)
    result = engine.run(initial)
    assert_memo_tables_exact(engine, result)
    oracle = DenotationalInterpreter(program, analysis).run(initial)
    assert result.exit_states() == oracle
    again = TopDownEngine(program, analysis).run(initial)
    assert again.td == result.td
    assert dict(again.entry_counts) == dict(result.entry_counts)
    assert again.metrics == result.metrics
