"""Property-based tests (hypothesis) for the core invariants.

Random small programs drive the headline guarantees:

* the unpruned bottom-up analysis coincides with the denotational
  semantics on every procedure (coincidence with Σ = ∅);
* pruned summaries coincide on every state outside the ignored set;
* the printer/parser round-trip;
* algebraic laws of the symbolic pieces (type-state functions,
  predicates, relations).

SWIFT ≡ TD on random programs (Theorem 3.1) is one of the differential
oracle's checks (``tests/test_differential.py``).
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.framework.bottomup import BottomUpEngine
from repro.framework.denotational import DenotationalInterpreter
from repro.framework.pruning import FrequencyPruner, NoPruner
from repro.ir.commands import Assign, Call, Invoke, New, Skip, choice, seq, star
from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from repro.ir.program import Program
from repro.typestate.bu_analysis import SimpleTypestateBU
from repro.typestate.dfa import TSFunction
from repro.typestate.properties import FILE_PROPERTY
from repro.typestate.states import AbstractState, bootstrap_state
from repro.typestate.td_analysis import SimpleTypestateTD

VARS = ["a", "b", "f"]
SITES = ["h1", "h2"]
METHODS = ["open", "close", "read"]

prims = st.one_of(
    st.just(Skip()),
    st.builds(New, st.sampled_from(VARS), st.sampled_from(SITES)),
    st.builds(Assign, st.sampled_from(VARS), st.sampled_from(VARS)),
    st.builds(Invoke, st.sampled_from(VARS), st.sampled_from(METHODS)),
)


def commands(call_targets):
    """Commands of bounded depth, calling only the given procedures."""
    leaves = prims if not call_targets else st.one_of(
        prims, st.builds(Call, st.sampled_from(call_targets))
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(lambda cs: seq(*cs)),
            st.lists(inner, min_size=2, max_size=2).map(lambda cs: choice(*cs)),
            inner.map(star),
        ),
        max_leaves=6,
    )


@st.composite
def programs(draw):
    """A random program: main plus up to two helpers (no recursion:
    helpers may call only later helpers)."""
    n_helpers = draw(st.integers(min_value=0, max_value=2))
    helper_names = [f"p{i}" for i in range(n_helpers)]
    procs = {}
    for i, name in enumerate(helper_names):
        procs[name] = draw(commands(helper_names[i + 1 :]))
    procs["main"] = draw(commands(helper_names))
    return Program(procs)


@st.composite
def abstract_states(draw):
    site = draw(st.sampled_from(SITES + ["<boot>"]))
    ts = draw(st.sampled_from(FILE_PROPERTY.states))
    must = frozenset(draw(st.sets(st.sampled_from(VARS), max_size=2)))
    return AbstractState(site, ts, must)


ENGINE_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@ENGINE_SETTINGS
@given(program=programs())
def test_unpruned_bottom_up_coincides(program):
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    bu_analysis = SimpleTypestateBU(FILE_PROPERTY)
    result = BottomUpEngine(program, bu_analysis, pruner=NoPruner(bu_analysis)).analyze()
    oracle = DenotationalInterpreter(program, td_analysis)
    init = bootstrap_state(FILE_PROPERTY)
    for proc in program.reachable():
        summary = result.summary(proc)
        assert summary.ignored.is_empty()
        expected = oracle.eval_proc(proc, frozenset([init]))
        actual = set()
        for r in summary.relations:
            actual.update(bu_analysis.apply(r, init))
        assert frozenset(actual) == expected


@ENGINE_SETTINGS
@given(program=programs(), sigma=abstract_states(), theta=st.integers(1, 2))
def test_pruned_summaries_coincide_outside_sigma(program, sigma, theta):
    """Theorem 3.1: on states the pruned analysis did not ignore, its
    summaries equal the top-down semantics."""
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    bu_analysis = SimpleTypestateBU(FILE_PROPERTY)
    pruner = FrequencyPruner(bu_analysis, theta=theta, incoming={})
    result = BottomUpEngine(program, bu_analysis, pruner=pruner).analyze()
    oracle = DenotationalInterpreter(program, td_analysis)
    for proc in program.reachable():
        summary = result.summary(proc)
        if sigma in summary.ignored:
            continue
        expected = oracle.eval_proc(proc, frozenset([sigma]))
        actual = set()
        for r in summary.relations:
            actual.update(bu_analysis.apply(r, sigma))
        assert frozenset(actual) == expected, proc


@settings(max_examples=60, deadline=None)
@given(program=programs())
def test_print_parse_round_trip(program):
    reparsed = parse_program(format_program(program))
    assert set(reparsed) == set(program)
    for name in program:
        assert reparsed[name] == program[name]


# -- algebraic laws -----------------------------------------------------------------------
ts_functions = st.sampled_from(
    [
        FILE_PROPERTY.identity_function(),
        FILE_PROPERTY.error_function(),
        FILE_PROPERTY.method_function("open"),
        FILE_PROPERTY.method_function("close"),
        FILE_PROPERTY.constant_function("closed"),
    ]
)


@given(f=ts_functions, g=ts_functions, h=ts_functions)
def test_ts_function_composition_associative(f, g, h):
    assert f.compose_after(g.compose_after(h)) == f.compose_after(g).compose_after(h)


@given(f=ts_functions)
def test_ts_function_identity_laws(f):
    ident = FILE_PROPERTY.identity_function()
    assert f.compose_after(ident) == f
    assert ident.compose_after(f) == f


@given(f=ts_functions, g=ts_functions, t=st.sampled_from(FILE_PROPERTY.states))
def test_ts_function_composition_pointwise(f, g, t):
    assert f.compose_after(g)(t) == f(g(t))


@given(sigma=abstract_states(), cmd=prims)
def test_c1_pointwise_on_random_states(sigma, cmd):
    """C1 instantiated at id#: trans(c)(σ) equals applying rtrans(c)(id#)."""
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    bu_analysis = SimpleTypestateBU(FILE_PROPERTY)
    via_bu = set()
    for r in bu_analysis.rtransfer(cmd, bu_analysis.identity()):
        via_bu.update(bu_analysis.apply(r, sigma))
    assert frozenset(via_bu) == td_analysis.transfer(cmd, sigma)


@given(
    sigma=abstract_states(),
    cmds=st.lists(prims, min_size=1, max_size=4),
)
def test_c2_pointwise_composition_chains(sigma, cmds):
    """Composing the per-command relations equals running them in
    sequence, for every start state (condition C2 along chains)."""
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    bu_analysis = SimpleTypestateBU(FILE_PROPERTY)
    # Path-sensitively compose one relation per command.
    composed = {bu_analysis.identity()}
    for cmd in cmds:
        step = set()
        for r in composed:
            step.update(bu_analysis.rtransfer(cmd, r))
        composed = step
    via_relations = set()
    for r in composed:
        via_relations.update(bu_analysis.apply(r, sigma))
    states = {sigma}
    for cmd in cmds:
        states = set(td_analysis.transfer_set(cmd, states))
    assert frozenset(via_relations) == frozenset(states)
