"""Tests for call inlining and worklist-order options."""

import pytest

from repro.framework.denotational import DenotationalInterpreter
from repro.framework.scheduling import scheduler_names
from repro.framework.topdown import TopDownEngine
from repro.ir.commands import Call
from repro.ir.inline import call_free, inline_calls
from repro.typestate.properties import FILE_PROPERTY
from repro.typestate.states import bootstrap_state
from repro.typestate.td_analysis import SimpleTypestateTD

from tests.helpers import (
    all_small_programs,
    diamond_program,
    figure1_program,
    recursive_program,
)


def test_full_inlining_removes_calls():
    inlined = inline_calls(figure1_program())
    assert call_free(inlined["main"])
    # Callee definitions are retained.
    assert "foo" in inlined


def test_inlining_preserves_semantics():
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    for program in all_small_programs():
        if program.is_recursive():
            continue
        inlined = inline_calls(program)
        original = DenotationalInterpreter(program, analysis).run(initial)
        after = DenotationalInterpreter(inlined, analysis).run(initial)
        assert after == original


def test_inlining_recursive_requires_depth():
    program = recursive_program()
    with pytest.raises(ValueError):
        inline_calls(program)
    bounded = inline_calls(program, max_depth=3)
    # Some residual recursive call remains, at greater depth.
    assert not call_free(bounded["main"])


def test_inlining_depth_zero_is_identity():
    program = diamond_program()
    same = inline_calls(program, max_depth=0)
    assert same["main"] == program["main"]


def test_inline_specific_procedure():
    program = diamond_program()
    inlined = inline_calls(program, proc="left")
    assert call_free(inlined["left"])
    assert isinstance(next(program["left"].calls(), None), Call)


def test_intraprocedural_analysis_of_inlined_matches_interprocedural():
    """Inline-then-analyze equals the interprocedural tabulation — the
    classic cross-check between the two strategies."""
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    program = figure1_program()
    inlined = inline_calls(program)
    inter = TopDownEngine(program, analysis).run(initial)
    intra = TopDownEngine(inlined, analysis).run(initial)
    assert intra.exit_states() == inter.exit_states()


@pytest.mark.parametrize("order", scheduler_names())
def test_worklist_orders_agree_on_results(order):
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    for program in all_small_programs():
        result = TopDownEngine(program, analysis, scheduler=order).run(initial)
        oracle = DenotationalInterpreter(program, analysis).run(initial)
        assert result.exit_states() == oracle


def test_bad_order_rejected():
    with pytest.raises(ValueError):
        TopDownEngine(
            figure1_program(), SimpleTypestateTD(FILE_PROPERTY), scheduler="dfs"
        )
