"""Tests for the SWIFT hybrid engine (Algorithm 1).

The headline correctness property (Section 2.4 / Theorem 3.1): SWIFT is
equivalent to the conventional top-down analysis — same abstract states
at every caller-side program point and at every procedure exit that
both engines analyzed, and identical states at main's exit — for every
choice of the thresholds ``k`` and ``theta``.
"""

import pytest

from repro.framework.denotational import DenotationalInterpreter
from repro.framework.swift import SwiftEngine
from repro.framework.topdown import TopDownEngine
from repro.typestate.bu_analysis import SimpleTypestateBU
from repro.typestate.properties import FILE_PROPERTY
from repro.typestate.states import bootstrap_state
from repro.typestate.td_analysis import SimpleTypestateTD

from tests.helpers import (
    all_small_programs,
    diamond_program,
    figure1_program,
    section24_program,
)


def _run_both(program, k, theta):
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    bu_analysis = SimpleTypestateBU(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    td_result = TopDownEngine(program, td_analysis).run(initial)
    swift_result = SwiftEngine(
        program, td_analysis, bu_analysis, k=k, theta=theta
    ).run(initial)
    return td_result, swift_result


@pytest.mark.parametrize("program", all_small_programs())
@pytest.mark.parametrize("k,theta", [(1, 1), (1, 2), (2, 1), (2, 3), (5, 1)])
def test_swift_equivalent_to_td(program, k, theta):
    td_result, swift_result = _run_both(program, k, theta)
    # Same final states at main's exit.
    assert swift_result.exit_states() == td_result.exit_states()
    # At every program point SWIFT computes a subset of TD's states
    # (it may skip callee contexts whose effect came from a summary) …
    for point, pairs in swift_result.td.items():
        td_states = td_result.states_at(point)
        for (_, sigma) in pairs:
            assert sigma in td_states, f"spurious state {sigma} at {point}"
    # … and at every point of main the states match exactly.
    for point in swift_result.cfgs["main"].points:
        assert swift_result.states_at(point) == td_result.states_at(point)


@pytest.mark.parametrize("program", all_small_programs())
def test_swift_matches_denotational(program):
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    bu_analysis = SimpleTypestateBU(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    oracle = DenotationalInterpreter(program, td_analysis).run(initial)
    swift_result = SwiftEngine(
        program, td_analysis, bu_analysis, k=1, theta=1
    ).run(initial)
    assert swift_result.exit_states() == oracle


def test_swift_triggers_bottom_up_on_figure1():
    """With k=2 the third incoming state of foo triggers run_bu
    (Section 2.3), and later calls reuse bottom-up summaries."""
    program = figure1_program()
    _, swift_result = _run_both(program, k=2, theta=2)
    assert "foo" in swift_result.bu
    assert swift_result.metrics.bu_triggers >= 1
    assert swift_result.metrics.summary_instantiations > 0


def test_swift_avoids_td_summaries():
    """SWIFT computes fewer top-down summaries for foo than TD
    (the paper's example: T4 and T5 are avoided)."""
    program = figure1_program()
    td_result, swift_result = _run_both(program, k=2, theta=2)
    assert swift_result.summary_count("foo") < td_result.summary_count("foo")


def test_swift_k_larger_than_contexts_degenerates_to_td():
    program = figure1_program()
    td_result, swift_result = _run_both(program, k=100, theta=1)
    assert not swift_result.bu
    assert swift_result.total_summaries() == td_result.total_summaries()


def test_section24_pruning_soundness_regression():
    """The Section 2.4 scenario: pruning must never produce results that
    differ from the conventional top-down analysis, even when several
    summaries apply to one state and some were pruned."""
    program = section24_program()
    for theta in (1, 2, 3):
        td_result, swift_result = _run_both(program, k=1, theta=theta)
        assert swift_result.exit_states() == td_result.exit_states(), (
            f"unsound result with theta={theta}"
        )


def test_swift_total_bu_relations_counts():
    program = figure1_program()
    _, swift_result = _run_both(program, k=2, theta=2)
    assert swift_result.total_bu_relations() == sum(
        s.case_count() for s in swift_result.bu.values()
    )
    assert swift_result.bu_procs() == frozenset(swift_result.bu)


def test_swift_rejects_bad_k():
    program = figure1_program()
    with pytest.raises(ValueError):
        SwiftEngine(
            program,
            SimpleTypestateTD(FILE_PROPERTY),
            SimpleTypestateBU(FILE_PROPERTY),
            k=0,
        )


def test_postpone_unseen_can_be_disabled():
    program = diamond_program()
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    bu_analysis = SimpleTypestateBU(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    eager = SwiftEngine(
        program, td_analysis, bu_analysis, k=1, theta=1, postpone_unseen=False
    ).run(initial)
    td_result = TopDownEngine(program, td_analysis).run(initial)
    assert eager.exit_states() == td_result.exit_states()


# -- memo tables and the exit index are invisible (tables, bu map, counters) ---------
import hypothesis.strategies as st
from hypothesis import given

from tests.helpers import assert_memo_tables_exact
from tests.test_property_based import ENGINE_SETTINGS, programs


@ENGINE_SETTINGS
@given(program=programs(), k=st.integers(1, 4), theta=st.integers(1, 3))
def test_optimized_swift_identical_to_unoptimized(program, k, theta):
    """SWIFT's TD and BU memo entries are the raw operators' results,
    its tables agree with TD's and with the denotational reference at
    main's exit, and a second engine reproduces its tables, bu map and
    counters exactly."""
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    bu_analysis = SimpleTypestateBU(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    engine = SwiftEngine(program, td_analysis, bu_analysis, k=k, theta=theta)
    result = engine.run(initial)
    assert_memo_tables_exact(engine, result)
    td_engine = TopDownEngine(program, td_analysis)
    td_result = td_engine.run(initial)
    assert_memo_tables_exact(td_engine, td_result)
    oracle = DenotationalInterpreter(program, td_analysis).run(initial)
    assert result.exit_states() == td_result.exit_states() == oracle
    again = SwiftEngine(program, td_analysis, bu_analysis, k=k, theta=theta).run(
        initial
    )
    assert again.td == result.td
    assert dict(again.entry_counts) == dict(result.entry_counts)
    # ProcedureSummary implements value equality: the bu maps match.
    assert again.bu == result.bu
    assert again.metrics == result.metrics
