"""Worklist scheduler policies: same results, locked default counters.

The counters-vs-wall-clock rule (DESIGN §4) extended to scheduling:
switching the worklist policy may change how much work the fixpoint
takes, but never the reported results.  Property-tested over random
programs: top-down tables and raw work counters are identical under
every policy, and SWIFT's error reports and main-exit states coincide
(the CI baseline byte-compare locks the default end to end).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.framework.scheduling import make_scheduler, scheduler_names
from repro.framework.swift import SwiftEngine
from repro.framework.topdown import TopDownEngine
from repro.ir.cfg import ProgramPoint
from repro.typestate.bu_analysis import SimpleTypestateBU
from repro.typestate.client import find_errors
from repro.typestate.properties import FILE_PROPERTY
from repro.typestate.states import bootstrap_state
from repro.typestate.td_analysis import SimpleTypestateTD

from tests.helpers import all_small_programs, diamond_program
from tests.test_property_based import programs

POLICIES = scheduler_names()

SCHEDULE_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _counters(metrics):
    return (
        metrics.transfers,
        metrics.rtransfers,
        metrics.compositions,
        metrics.propagations,
        metrics.summary_instantiations,
    )


# -- policy equivalence (property-based) --------------------------------------------
@SCHEDULE_SETTINGS
@given(program=programs())
def test_td_tables_identical_across_policies(program):
    """Identical tables AND identical raw work counters: for pure
    top-down tabulation every (point, entry, state) item is processed
    exactly once whatever the order, so even the work counters are
    invariant.  Only cache traffic may move."""
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    results = {
        policy: TopDownEngine(program, td_analysis, scheduler=policy).run(initial)
        for policy in POLICIES
    }
    base = results["lifo"]
    for result in results.values():
        assert result.td == base.td
        assert result.exit_states() == base.exit_states()
        assert find_errors(result) == find_errors(base)
        assert _counters(result.metrics) == _counters(base.metrics)


@SCHEDULE_SETTINGS
@given(program=programs(), k=st.integers(1, 3), theta=st.integers(1, 2))
def test_swift_reports_identical_across_policies(program, k, theta):
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    bu_analysis = SimpleTypestateBU(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    results = {
        policy: SwiftEngine(
            program, td_analysis, bu_analysis, k=k, theta=theta, scheduler=policy
        ).run(initial)
        for policy in POLICIES
    }
    base = results["lifo"]
    base_sites = frozenset(site for (_, site) in find_errors(base))
    for result in results.values():
        # Trigger timing (hence the tables' context sets) may differ,
        # but what is reported never does.
        assert result.exit_states() == base.exit_states()
        sites = frozenset(site for (_, site) in find_errors(result))
        assert sites == base_sites


@pytest.mark.parametrize("program", all_small_programs())
@pytest.mark.parametrize("policy", [p for p in POLICIES if p != "lifo"])
def test_td_tables_and_counters_match_lifo_on_small_programs(policy, program):
    """The property above pinned on the hand-written programs (Figure 1,
    Section 2.4, loops, recursion, a diamond)."""
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    base = TopDownEngine(program, td_analysis, scheduler="lifo").run(initial)
    result = TopDownEngine(program, td_analysis, scheduler=policy).run(initial)
    assert result.td == base.td
    assert find_errors(result) == find_errors(base)
    assert _counters(result.metrics) == _counters(base.metrics)


# -- default counters -------------------------------------------------------------
def test_default_config_counters_are_lifo():
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    for program in all_small_programs():
        default = TopDownEngine(program, td_analysis).run(initial)
        explicit = TopDownEngine(program, td_analysis, scheduler="lifo").run(initial)
        assert _counters(default.metrics) == _counters(explicit.metrics)


def test_callee_depth_is_deterministic():
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    for program in all_small_programs():
        first = TopDownEngine(program, td_analysis, scheduler="callee-depth").run(
            initial
        )
        second = TopDownEngine(program, td_analysis, scheduler="callee-depth").run(
            initial
        )
        assert first.td == second.td
        assert _counters(first.metrics) == _counters(second.metrics)


# -- the scheduler itself -----------------------------------------------------------
def test_callee_depth_pops_deepest_first_with_fifo_ties():
    program = diamond_program()  # main -> left/right -> helper
    scheduler = make_scheduler("callee-depth", program)
    at_main = (ProgramPoint("main", 0), None, "s1")
    at_helper_a = (ProgramPoint("helper", 0), None, "s2")
    at_left = (ProgramPoint("left", 0), None, "s3")
    at_helper_b = (ProgramPoint("helper", 1), None, "s4")
    for item in (at_main, at_helper_a, at_left, at_helper_b):
        scheduler.push(item)
    popped = [scheduler.pop() for _ in range(4)]
    assert popped == [at_helper_a, at_helper_b, at_left, at_main]
    assert not scheduler


def test_callee_depth_pops_unknown_procs_last():
    # Items for procedures outside the call graph (defensive: cannot
    # happen from the engines) rank at depth 0, behind every callee.
    scheduler = make_scheduler("callee-depth", diamond_program())
    ghost = (ProgramPoint("ghost", 0), None, "s1")
    at_helper = (ProgramPoint("helper", 0), None, "s2")
    scheduler.push(ghost)
    scheduler.push(at_helper)
    assert scheduler.pop() == at_helper
    assert scheduler.pop() == ghost
    assert not scheduler


def test_unknown_policy_raises_listing_choices():
    program = diamond_program()
    with pytest.raises(ValueError) as err:
        make_scheduler("random-walk", program)
    message = str(err.value)
    for name in POLICIES:
        assert name in message
    with pytest.raises(ValueError):
        TopDownEngine(
            program, SimpleTypestateTD(FILE_PROPERTY), scheduler="random-walk"
        )
