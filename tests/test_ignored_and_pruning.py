"""Unit tests for IgnoredStates, excl/clean, and the pruning operators."""

from collections import Counter

import hypothesis.strategies as st
from hypothesis import given

from repro.framework import pruning
from repro.framework.ignored import IgnoredStates, _interned
from repro.framework.metrics import Metrics
from repro.framework.predicates import FALSE, TRUE, Conjunction
from repro.framework.pruning import FrequencyPruner, NoPruner, clean, excl
from repro.typestate.bu_analysis import (
    HaveAtom,
    NotHaveAtom,
    SimpleTypestateBU,
    TransformerRelation,
)
from repro.typestate.properties import FILE_PROPERTY
from repro.typestate.states import AbstractState
from tests.test_framework_predicates import (
    _KEYS,
    _full_atoms,
    _full_state,
    _simple_atoms,
)


def _bu():
    return SimpleTypestateBU(FILE_PROPERTY)


def _ignored(bu, preds=()):
    return IgnoredStates(bu.pred_satisfied, bu.pred_entails, preds)


def _state(*must):
    return AbstractState("h", "closed", frozenset(must))


def _pred(*atoms):
    return Conjunction.of(list(atoms))


def _rel(pred):
    return TransformerRelation(
        FILE_PROPERTY.identity_function(), frozenset(), frozenset(), pred
    )


def _sigma_case(atoms, states):
    """Chains of union steps (each a list of satisfiable conjunctions)
    and states to test membership of."""
    preds = st.lists(atoms, max_size=3).map(Conjunction.of).filter(
        lambda p: p is not FALSE
    )
    return st.tuples(
        st.lists(st.lists(preds, max_size=3), min_size=1, max_size=4),
        st.lists(states, min_size=1, max_size=8),
    )


_sigma_cases = st.one_of(
    _sigma_case(_full_atoms, _full_state()),
    _sigma_case(
        _simple_atoms,
        st.lists(st.sampled_from(_KEYS), max_size=3).map(lambda must: _state(*must)),
    ),
)


def _ref_union(preds, new_preds):
    """Reference normalization: the pairwise insert scan, unmemoized."""
    kept = list(preds)
    for p in dict.fromkeys(q for q in new_preds if q not in preds):
        if any(p.entails(q) for q in kept):
            continue
        kept = [q for q in kept if not q.entails(p)] + [p]
    return frozenset(kept)


@given(_sigma_cases)
def test_membership_is_union_of_predicates(case):
    bu = _bu()
    sigma = _ignored(bu, [_pred(HaveAtom("f")), _pred(HaveAtom("g"))])
    assert _state("f") in sigma
    assert _state("g") in sigma
    assert _state("x") not in sigma
    # Compiled Σ (projection-keyed membership, interning, memoized
    # union/covers) against the reference on random chains: the
    # compiled callbacks and an equivalent pair the compiler does not
    # recognize, which keeps the reference membership test.
    steps, states = case
    # The bounded intern table is cleared when full, which only costs
    # sharing; start each example from an empty one so identity holds.
    _interned.clear()
    for satisfied, entails in [
        (Conjunction.satisfied_by, Conjunction.entails),
        (lambda p, s: p.satisfied_by(s), lambda p, q: p.entails(q)),
    ]:
        empty = IgnoredStates(satisfied, entails)
        chain, want = empty, frozenset()
        for i, step in enumerate(steps):
            # Alternate the two ways Σ grows, each twice (memo hits).
            for _ in range(2):
                if i % 2:
                    grown = chain.union_sets(IgnoredStates(satisfied, entails, step))
                else:
                    grown = chain.union(step)
                assert grown.predicates == _ref_union(want, step)
            assert chain.union(reversed(step)) is grown  # order-independent
            chain, want = grown, _ref_union(want, step)
            for sigma_state in states + states:
                assert (sigma_state in chain) == any(
                    p.satisfied_by(sigma_state) for p in want
                )
        everything = [p for step in steps for p in step]
        assert IgnoredStates(satisfied, entails, everything) is chain  # interned
        assert IgnoredStates(satisfied, entails, want) is chain
        for p in everything + everything:
            assert chain.covers(p) == any(p.entails(q) for q in want)


def test_normalization_drops_stronger_predicates():
    bu = _bu()
    weak = _pred(HaveAtom("f"))
    strong = _pred(HaveAtom("f"), HaveAtom("g"))
    sigma = _ignored(bu, [weak, strong])
    # strong entails weak, so only weak survives.
    assert sigma.predicates == frozenset({weak})


def test_union_is_incremental_and_monotone():
    bu = _bu()
    sigma = _ignored(bu, [_pred(HaveAtom("f"))])
    bigger = sigma.union([_pred(NotHaveAtom("g"))])
    assert len(bigger) == 2
    assert _state("f") in bigger and _state() in bigger
    # Union with an already-covered predicate returns the same object.
    same = bigger.union([_pred(HaveAtom("f"), HaveAtom("g"))])
    assert same.predicates == bigger.predicates


def test_union_sets_and_equality():
    bu = _bu()
    a = _ignored(bu, [_pred(HaveAtom("f"))])
    b = _ignored(bu, [_pred(HaveAtom("g"))])
    both = a.union_sets(b)
    assert len(both) == 2
    assert both == _ignored(bu, [_pred(HaveAtom("g")), _pred(HaveAtom("f"))])
    assert hash(both) == hash(a.union_sets(b))


def test_covers_conservative():
    bu = _bu()
    sigma = _ignored(bu, [_pred(HaveAtom("f"))])
    assert sigma.covers(_pred(HaveAtom("f"), NotHaveAtom("g")))
    assert not sigma.covers(_pred(NotHaveAtom("g")))


def test_excl_removes_covered_relations():
    bu = _bu()
    sigma = _ignored(bu, [_pred(HaveAtom("f"))])
    covered = _rel(_pred(HaveAtom("f")))
    alive = _rel(_pred(NotHaveAtom("f")))
    remaining = excl(bu, frozenset({covered, alive}), sigma)
    assert remaining == frozenset({alive})
    relations, out_sigma = clean(bu, frozenset({covered, alive}), sigma)
    assert relations == frozenset({alive}) and out_sigma is sigma


def test_no_pruner_keeps_everything():
    bu = _bu()
    pruner = NoPruner(bu)
    relations = frozenset({_rel(TRUE), _rel(_pred(HaveAtom("f")))})
    kept, sigma = pruner.prune("p", relations, _ignored(bu))
    assert kept == relations and sigma.is_empty()


def test_frequency_pruner_keeps_top_theta_by_rank(monkeypatch):
    bu = _bu()
    metrics = Metrics()
    incoming = {"p": Counter({_state("f"): 3, _state(): 1})}
    pruner = FrequencyPruner(bu, theta=1, incoming=incoming, metrics=metrics)
    have = _rel(_pred(HaveAtom("f")))
    havent = _rel(_pred(NotHaveAtom("f")))
    kept, sigma = pruner.prune("p", frozenset({have, havent}), _ignored(bu))
    assert kept == frozenset({have})
    assert _state() in sigma and _state("f") not in sigma
    assert metrics.pruned_relations == 1
    # Ties: only the tie group straddling the cut is ordered by the
    # (type name, str) key, and the outcome equals that of sorting every
    # relation by the full key.
    printed = []
    tie_break = pruning._tie_break
    monkeypatch.setattr(
        pruning, "_tie_break", lambda r: printed.append(r) or tie_break(r)
    )
    relations = [
        _rel(_pred(HaveAtom("f"))),  # rank 3
        _rel(_pred(HaveAtom("g"))),  # rank 3
        _rel(_pred(NotHaveAtom("f"))),  # rank 1
        _rel(_pred(NotHaveAtom("g"))),  # rank 1
        _rel(_pred(HaveAtom("h"))),  # rank 0
        _rel(_pred(NotHaveAtom("h"))),  # rank 4
    ]
    incoming = {"p": Counter({_state("f", "g"): 3, _state(): 1}), "q": Counter()}
    for proc, theta, size, straddles in [
        ("q", 2, 4, True),  # all four tie at rank 0
        ("p", 1, 6, False),  # the lone rank-4 relation fills the cut
        ("p", 2, 6, True),  # the rank-3 pair straddles it
        ("p", 3, 6, False),  # ... and fits it exactly
        ("p", 4, 6, True),  # the rank-1 pair straddles
        ("p", 5, 5, False),  # |R| <= theta: clean only
    ]:
        pruner = FrequencyPruner(bu, theta=theta, incoming=incoming)
        pool = frozenset(relations[:size])
        ignored = _ignored(bu, [_pred(HaveAtom("h"), HaveAtom("f"))])
        ranked = sorted(
            pool, key=lambda r: (-pruner.rank(proc, r), type(r).__name__, str(r))
        )
        want_sigma = ignored.union(r.pred for r in ranked[theta:])
        want_kept = excl(bu, frozenset(ranked[:theta]), want_sigma)
        printed.clear()
        kept, sigma = pruner.prune(proc, pool, ignored)
        assert kept == want_kept and sigma is want_sigma
        assert bool(printed) == (straddles and len(pool) > theta)


def test_frequency_pruner_small_sets_untouched():
    bu = _bu()
    pruner = FrequencyPruner(bu, theta=5, incoming={})
    relations = frozenset({_rel(TRUE)})
    kept, sigma = pruner.prune("p", relations, _ignored(bu))
    assert kept == relations and sigma.is_empty()


def test_frequency_pruner_rank_counts_multiplicity():
    bu = _bu()
    incoming = {"p": Counter({_state("f"): 2, _state("f", "g"): 5})}
    pruner = FrequencyPruner(bu, theta=1, incoming=incoming)
    assert pruner.rank("p", _rel(_pred(HaveAtom("f")))) == 7
    assert pruner.rank("p", _rel(_pred(HaveAtom("g")))) == 5
    assert pruner.rank("missing", _rel(TRUE)) == 0


def test_frequency_pruner_rejects_bad_theta():
    import pytest

    with pytest.raises(ValueError):
        FrequencyPruner(_bu(), theta=0)
