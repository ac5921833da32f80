"""Tests for the hot-path layer: memo tables, indexing, interning.

The contract under test (see framework/caching.py): the optimizations
change wall clock only — tables, entry counts and the deterministic
work counters are identical with caches on or off, including runs that
exhaust their Budget mid-flight.
"""

import pickle

import pytest

from repro.framework.caching import RComposeCache, RTransferCache, TransferCache
from repro.framework.metrics import Budget, BudgetExceededError, Metrics
from repro.framework.topdown import TopDownEngine, sorted_states, state_sort_key
from repro.ir.builder import ProgramBuilder
from repro.ir.commands import Invoke, New
from repro.typestate.bu_analysis import SimpleTypestateBU
from repro.typestate.properties import FILE_PROPERTY
from repro.typestate.states import AbstractState, bootstrap_state, intern_state
from repro.typestate.td_analysis import SimpleTypestateTD
from repro.typestate.full.atoms import InMust, InMustNot, NotInMust
from repro.typestate.full.states import FullAbstractState, intern_full_state


def _flood_program(n=8):
    b = ProgramBuilder()
    with b.proc("helper") as p:
        p.invoke("a", "open").invoke("a", "close")
    with b.proc("main") as p:
        p.new("a", "h1")
        for _ in range(n):
            p.call("helper")
    return b.build()


# -- memo tables ---------------------------------------------------------------------
def test_transfer_cache_hit_miss_counters():
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    metrics = Metrics()
    cache = TransferCache(analysis, metrics)
    sigma = bootstrap_state(FILE_PROPERTY)
    cmd = New("a", "h1")
    first = cache(cmd, sigma)
    second = cache(cmd, sigma)
    assert first == second == analysis.transfer(cmd, sigma)
    assert metrics.transfer_cache_misses == 1
    assert metrics.transfer_cache_hits == 1
    assert len(cache) == 1


def test_cache_fifo_eviction_is_bounded():
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    metrics = Metrics()
    cache = TransferCache(analysis, metrics, maxsize=2)
    sigma = bootstrap_state(FILE_PROPERTY)
    cache(New("a", "h1"), sigma)
    cache(New("b", "h1"), sigma)
    cache(New("c", "h1"), sigma)  # evicts the oldest entry
    assert len(cache) == 2
    # The first key was evicted: re-querying it is a miss again.
    cache(New("a", "h1"), sigma)
    assert metrics.transfer_cache_misses == 4
    cache.clear()
    assert len(cache) == 0


def test_bu_caches_match_raw_operators():
    analysis = SimpleTypestateBU(FILE_PROPERTY)
    metrics = Metrics()
    rtransfer = RTransferCache(analysis, metrics)
    rcompose = RComposeCache(analysis, metrics)
    ident = analysis.identity()
    cmd = Invoke("a", "open")
    rels = rtransfer(cmd, ident)
    assert rels == analysis.rtransfer(cmd, ident)
    assert rtransfer(cmd, ident) == rels and metrics.rtransfer_cache_hits == 1
    for r in rels:
        assert rcompose(ident, r) == analysis.rcompose(ident, r)
    assert metrics.rcompose_cache_misses == len(rels)


# -- counters are identical with caches on/off ----------------------------------------
@pytest.mark.parametrize("indexed", [True, False])
def test_work_counters_independent_of_caches(indexed):
    program = _flood_program()
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    on = TopDownEngine(
        program, analysis, enable_caches=True, indexed_summaries=indexed
    ).run(initial)
    off = TopDownEngine(
        program, analysis, enable_caches=False, indexed_summaries=indexed
    ).run(initial)
    assert on.td == off.td
    assert on.metrics.total_work == off.metrics.total_work
    assert on.metrics.transfers == off.metrics.transfers
    assert on.metrics.propagations == off.metrics.propagations
    # The cached engine saw real traffic and every transfer went
    # through the memo table; the uncached one reports none.
    assert (
        on.metrics.transfer_cache_hits + on.metrics.transfer_cache_misses
        == on.metrics.transfers
    )
    assert off.metrics.cache_hits == 0 and off.metrics.cache_misses == 0
    assert on.metrics.computed_work < on.metrics.total_work


def test_budget_timeout_rows_identical_with_caches_on_off():
    """The Budget sees raw counters, so a work-limited run stops at the
    same point — and reports the same totals — with caches on or off."""
    program = _flood_program(16)
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    outcomes = []
    for enable in (True, False):
        engine = TopDownEngine(
            program, analysis, budget=Budget(max_work=40), enable_caches=enable
        )
        result = engine.run(initial)
        assert result.timed_out
        outcomes.append((result.metrics.total_work, result.td))
    assert outcomes[0] == outcomes[1]


# -- interning and cached hashes ------------------------------------------------------
def test_intern_state_returns_canonical_instance():
    a = AbstractState("h1", "opened", frozenset({"a"}))
    b = AbstractState("h1", "opened", frozenset({"a"}))
    assert a is not b and a == b and hash(a) == hash(b)
    assert intern_state(a) is intern_state(b)
    fa = FullAbstractState("h1", "opened", frozenset({"a"}), frozenset({"b"}))
    fb = FullAbstractState("h1", "opened", frozenset({"a"}), frozenset({"b"}))
    assert intern_full_state(fa) is intern_full_state(fb)


def test_states_and_atoms_survive_pickling():
    """Cached hashes are per-process (string hash randomization); the
    pickle path must rebuild through __init__ so they stay valid."""
    values = [
        AbstractState("h1", "opened", frozenset({"a"})),
        FullAbstractState("h1", "closed", frozenset(), frozenset({"a"})),
        InMust("a.f"),
        NotInMust("a"),
        InMustNot("b"),
    ]
    for value in values:
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value and hash(clone) == hash(value)


def test_atom_hashes_distinguish_classes():
    # Field-only dataclass hashes would make these collide pairwise.
    atoms = [InMust("x"), NotInMust("x"), InMustNot("x")]
    assert len({hash(a) for a in atoms}) == len(atoms)


# -- the interned sort-key cache ----------------------------------------------------
def test_state_sort_key_matches_str_and_caches():
    sigma = bootstrap_state(FILE_PROPERTY)
    assert state_sort_key(sigma) == str(sigma)
    assert state_sort_key(sigma) is state_sort_key(sigma)  # served from cache


def test_sorted_states_orders_by_string_key():
    states = [
        AbstractState("h2", FILE_PROPERTY.initial, frozenset()),
        AbstractState("h1", FILE_PROPERTY.initial, frozenset()),
    ]
    assert sorted_states(states) == sorted(states, key=str)
    assert sorted_states(frozenset(states)) == sorted(states, key=str)
