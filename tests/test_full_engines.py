"""Engine-level tests over the full type-state domain.

The same equivalence and coincidence guarantees checked for the simple
domain must hold for the evaluation's four-component domain, with the
may-alias oracle in play.
"""

import pytest

from repro.alias import AndersenPointsTo, points_to_oracle
from repro.framework.bottomup import BottomUpEngine
from repro.framework.denotational import DenotationalInterpreter
from repro.framework.pruning import NoPruner
from repro.framework.swift import SwiftEngine
from repro.framework.topdown import TopDownEngine
from repro.typestate.client import run_typestate
from repro.typestate.dfa import ERROR
from repro.typestate.full import FullTypestateBU, FullTypestateTD, full_bootstrap_state
from repro.typestate.properties import FILE_PROPERTY

from tests.helpers import all_small_programs, figure1_program, section24_program


def _setup(program):
    oracle = points_to_oracle(program)
    td = FullTypestateTD(FILE_PROPERTY, oracle)
    bu = FullTypestateBU(FILE_PROPERTY, oracle)
    return td, bu, full_bootstrap_state(FILE_PROPERTY)


def test_andersen_on_figure1():
    program = figure1_program()
    result = AndersenPointsTo(program).solve()
    assert result.of_var("v1") == frozenset({"h1"})
    assert result.of_var("f") == frozenset({"h1", "h2", "h3"})
    assert result.may_alias_vars("f", "v2")
    assert not result.may_alias_vars("v1", "v2")


def test_figure1_full_td_reports_no_errors():
    """With must-not sets and may-alias reasoning, the paper's Figure 1
    program verifies cleanly (every open is matched by a close on a
    definitely-aliased receiver)."""
    program = figure1_program()
    report = run_typestate(program, FILE_PROPERTY, engine="td", domain="full")
    assert report.errors == frozenset()


def test_figure1_full_swift_matches_td_reports():
    program = figure1_program()
    td_report = run_typestate(program, FILE_PROPERTY, engine="td", domain="full")
    swift_report = run_typestate(
        program, FILE_PROPERTY, engine="swift", domain="full", k=2, theta=2
    )
    assert swift_report.errors == td_report.errors


@pytest.mark.parametrize("program", all_small_programs())
@pytest.mark.parametrize("k,theta", [(1, 1), (2, 1), (2, 3)])
def test_full_swift_equivalent_to_td(program, k, theta):
    td_analysis, bu_analysis, init = _setup(program)
    td_result = TopDownEngine(program, td_analysis).run([init])
    swift_result = SwiftEngine(
        program, td_analysis, bu_analysis, k=k, theta=theta
    ).run([init])
    assert swift_result.exit_states() == td_result.exit_states()
    for point in swift_result.cfgs["main"].points:
        assert swift_result.states_at(point) == td_result.states_at(point)


@pytest.mark.parametrize("program", all_small_programs())
def test_full_bu_coincidence_without_pruning(program):
    td_analysis, bu_analysis, init = _setup(program)
    result = BottomUpEngine(program, bu_analysis, pruner=NoPruner(bu_analysis)).analyze()
    oracle = DenotationalInterpreter(program, td_analysis)
    initial = frozenset([init])
    for proc in program.reachable():
        summary = result.summary(proc)
        expected = oracle.eval_proc(proc, initial)
        actual = set()
        for r in summary.relations:
            actual.update(bu_analysis.apply(r, init))
        assert frozenset(actual) == expected, f"mismatch for {proc}"


def test_full_section24_scenario_from_paper():
    """Section 2.4's two-state scenario: pruning B1 away must never make
    SWIFT report different results than TD for state A2.

    Error *sites* are compared rather than exact program points: when
    SWIFT applies a bottom-up summary it never enters the callee body,
    so an error that TD attributes to a point inside the callee shows up
    at the call's return point instead — same erroneous objects.
    """
    program = section24_program()
    for theta in (1, 2, 4):
        td_report = run_typestate(program, FILE_PROPERTY, engine="td", domain="full")
        swift_report = run_typestate(
            program, FILE_PROPERTY, engine="swift", domain="full", k=1, theta=theta
        )
        assert swift_report.error_sites == td_report.error_sites


def test_double_open_detected_in_full_domain():
    from repro.ir.builder import ProgramBuilder

    b = ProgramBuilder()
    with b.proc("main") as p:
        p.new("v", "h1").assign("f", "v")
        p.invoke("f", "open").invoke("f", "open")
    program = b.build()
    report = run_typestate(program, FILE_PROPERTY, engine="td", domain="full")
    assert report.error_sites == frozenset({"h1"})


def test_full_bu_engine_runs_on_figure1():
    program = figure1_program()
    report = run_typestate(program, FILE_PROPERTY, engine="bu", domain="full")
    assert not report.timed_out
    assert report.bu_summaries > 0
    assert report.errors == frozenset()
