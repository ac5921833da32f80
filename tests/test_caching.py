"""Tests for the hot-path layer: memo tables, indexing, interning.

The contract under test (see framework/caching.py): the memo tables
and the exit-summary index change wall clock only — every stored entry
is the raw operator's result, the index is the scan it replaces, and
the deterministic work counters count logical operator applications,
including in runs that exhaust their Budget mid-flight.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.framework.caching import RComposeCache, RTransferCache, TransferCache
from repro.framework.denotational import DenotationalInterpreter
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

from tests.helpers import assert_memo_tables_exact, figure1_program


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
    # One table per command, one FIFO across all of them: the oldest
    # entry goes first whichever table holds it, and a refill after an
    # eviction is a miss.
    metrics = Metrics()
    cache = TransferCache(analysis, metrics, maxsize=3)
    other = AbstractState("h1", FILE_PROPERTY.initial, frozenset({"a"}))
    load, store = New("a", "h1"), New("b", "h1")
    tables = cache.table(load), cache.table(store)
    for cmd, state in ((load, sigma), (store, sigma), (load, other), (store, other)):
        cache.fill(cache.table(cmd), cmd, state)
    assert len(cache) == 3
    assert list(tables[0]) == [other] and list(tables[1]) == [sigma, other]
    cache(load, other)  # still resident
    assert (metrics.transfer_cache_hits, metrics.transfer_cache_misses) == (1, 4)
    assert cache(load, sigma) == analysis.transfer(load, sigma)  # refilled
    assert (metrics.transfer_cache_hits, metrics.transfer_cache_misses) == (1, 5)
    assert list(tables[0]) == [other, sigma] and list(tables[1]) == [other]
    cache.clear()
    assert len(cache) == 0 and not tables[0] and not tables[1]
    assert cache.table(load) is tables[0]  # cleared in place, still live


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


# -- the tables hold exactly what the raw operators compute --------------------------
class _ReferenceMemo:
    """An analysis whose ``transfer`` goes through a plain
    ``(cmd, sigma)``-keyed memo, counting its hits and misses."""

    def __init__(self, analysis) -> None:
        self._analysis = analysis
        self._memo = {}
        self.hits = self.misses = 0

    def __getattr__(self, name):
        return getattr(self._analysis, name)

    def transfer(self, cmd, sigma):
        key = (cmd, sigma)
        if key in self._memo:
            self.hits += 1
        else:
            self.misses += 1
            self._memo[key] = self._analysis.transfer(cmd, sigma)
        return self._memo[key]


@pytest.mark.parametrize("shape", ["flood", "figure1"])
def test_work_counters_independent_of_caches(shape):
    program = _flood_program() if shape == "flood" else figure1_program()
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    reference = _ReferenceMemo(analysis)
    engine = TopDownEngine(program, reference)
    result = engine.run(initial)
    # Under the per-command tables, a (cmd, sigma)-keyed memo is asked
    # once per distinct transfer and never again: the tables miss
    # exactly where it misses and answer every repeat themselves.
    assert reference.misses == result.metrics.transfer_cache_misses > 0
    assert reference.hits == 0
    assert result.metrics.transfer_cache_hits > 0
    assert result.metrics.computed_work < result.metrics.total_work
    assert_memo_tables_exact(engine, result)
    # The counters are the analysis's own, not the wrapper's.
    plain = TopDownEngine(program, analysis).run(initial)
    assert plain.td == result.td
    assert plain.metrics == result.metrics
    assert result.exit_states() == DenotationalInterpreter(program, analysis).run(
        initial
    )


def test_budget_timeout_rows_identical_with_caches_on_off():
    """The Budget sees raw counters, so a work-limited run stops at a
    deterministic point: two fresh engines stop at the same totals, and
    what they tabulated is part of the unbudgeted run's tables."""
    program = _flood_program(16)
    analysis = SimpleTypestateTD(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    outcomes = []
    for _ in range(2):
        engine = TopDownEngine(program, analysis, budget=Budget(max_work=40))
        result = engine.run(initial)
        assert result.timed_out
        assert_memo_tables_exact(engine, result)
        outcomes.append((result.metrics.total_work, result.td))
    assert outcomes[0] == outcomes[1]
    full = TopDownEngine(program, analysis).run(initial)
    assert not full.timed_out
    assert full.metrics.total_work > outcomes[0][0]
    for point, pairs in outcomes[0][1].items():
        assert pairs <= full.td[point], point


# -- interning and cached hashes ------------------------------------------------------
def test_intern_state_returns_canonical_instance():
    a = AbstractState("h1", "opened", frozenset({"a"}))
    b = AbstractState("h1", "opened", frozenset({"a"}))
    assert a is not b and a == b and hash(a) == hash(b)
    assert intern_state(a) is intern_state(b)
    fa = FullAbstractState("h1", "opened", frozenset({"a"}), frozenset({"b"}))
    fb = FullAbstractState("h1", "opened", frozenset({"a"}), frozenset({"b"}))
    assert intern_full_state(fa) is intern_full_state(fb)


#: Builds ``values``: every kind of value that keys a hot table or
#: crosses a process boundary.  Run in this process and in both
#: processes of the two-hash-seed round trip below.
_PICKLE_VALUES = """
from repro.framework.predicates import TRUE, Conjunction
from repro.ir.cfg import ProgramPoint
from repro.ir.commands import Assign, Call, FieldLoad, FieldStore, Invoke, New, Skip
from repro.typestate.full.atoms import InMust, InMustNot, NotInMust
from repro.typestate.full.paths import ExactPath, HasField, Rooted
from repro.typestate.full.relations import FullConstRelation, FullTransformerRelation
from repro.typestate.full.states import FullAbstractState
from repro.typestate.properties import FILE_PROPERTY
from repro.typestate.states import AbstractState

full = FullAbstractState("h1", "closed", frozenset(), frozenset({"a"}))
values = [
    AbstractState("h1", "opened", frozenset({"a"})),
    full,
    InMust("a.f"),
    NotInMust("a"),
    InMustNot("b"),
    ProgramPoint("main", 3),
    New("a", "h1"),
    Assign("a", "b"),
    Invoke("a", "open"),
    FieldLoad("a", "b", "f"),
    FieldStore("a", "f", "b"),
    Skip(),
    Call("helper"),
    Rooted("v"),
    HasField("f"),
    ExactPath("v.f"),
    FullConstRelation(full, Conjunction.of([InMust("a")])),
    FullTransformerRelation(
        FILE_PROPERTY.method_function("open"),
        frozenset({Rooted("v"), HasField("f")}),
        frozenset({"w"}),
        frozenset({ExactPath("u.g")}),
        frozenset({"v"}),
        TRUE,
    ),
]
"""

_SEED_ROUND_TRIP = _PICKLE_VALUES + """
import pickle
import sys

if sys.argv[1] == "dump":
    sys.stdout.write(pickle.dumps(values).hex())
else:
    clones = pickle.loads(bytes.fromhex(sys.stdin.read()))
    for value, clone in zip(values, clones, strict=True):
        assert clone == value and hash(clone) == hash(value), value
        assert clone in {value} and {value: 1}[clone] == 1, value
    print(len(clones))
"""


def test_states_and_atoms_survive_pickling():
    """Cached hashes are per-process (string hash randomization); the
    pickle path must rebuild through the constructor so they stay
    valid — checked in-process and from a PYTHONHASHSEED=1 pickle
    loaded under PYTHONHASHSEED=2."""
    namespace = {}
    exec(_PICKLE_VALUES, namespace)
    values = namespace["values"]
    for value in values:
        clone = pickle.loads(pickle.dumps(value))
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
    env = {
        "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
        "PATH": "/usr/bin:/bin",
    }
    dumped = subprocess.run(
        [sys.executable, "-c", _SEED_ROUND_TRIP, "dump"],
        capture_output=True,
        text=True,
        env=dict(env, PYTHONHASHSEED="1"),
    )
    assert dumped.returncode == 0, dumped.stderr
    loaded = subprocess.run(
        [sys.executable, "-c", _SEED_ROUND_TRIP, "load"],
        input=dumped.stdout,
        capture_output=True,
        text=True,
        env=dict(env, PYTHONHASHSEED="2"),
    )
    assert loaded.returncode == 0, loaded.stderr
    assert int(loaded.stdout) == len(values)


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
