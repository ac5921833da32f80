"""Unit tests for the predicate machinery (repro.framework.predicates)."""

import hypothesis.strategies as st
from hypothesis import given

from repro.framework.predicates import FALSE, TRUE, Conjunction, conjoin
from repro.typestate.bu_analysis import HaveAtom, NotHaveAtom
from repro.typestate.full.atoms import (
    InMust,
    InMustNot,
    MayAliasAtom,
    NotInMust,
    NotInMustNot,
    NotMayAliasAtom,
)
from repro.typestate.full.states import FullAbstractState
from repro.typestate.states import AbstractState


def _state(*must):
    return AbstractState("h", "closed", frozenset(must))


def test_true_is_empty_conjunction():
    assert TRUE.is_true
    assert TRUE.satisfied_by(_state())
    assert TRUE.satisfied_by(_state("a", "b"))


def test_false_satisfies_nothing():
    assert FALSE.is_false
    assert not FALSE.satisfied_by(_state())


def test_atom_satisfaction():
    p = Conjunction.of([HaveAtom("f")])
    assert p.satisfied_by(_state("f"))
    assert not p.satisfied_by(_state("g"))
    q = Conjunction.of([NotHaveAtom("f")])
    assert q.satisfied_by(_state("g"))
    assert not q.satisfied_by(_state("f"))


def test_contradiction_detected_on_build():
    assert Conjunction.of([HaveAtom("f"), NotHaveAtom("f")]) is FALSE


def test_contradiction_detected_on_conjoin():
    p = Conjunction.of([HaveAtom("f")])
    assert p.conjoin(NotHaveAtom("f")) is FALSE
    assert p.conjoin(HaveAtom("g")) is not FALSE


def test_conjoin_idempotent():
    p = Conjunction.of([HaveAtom("f")])
    assert p.conjoin(HaveAtom("f")) is p


def test_conjoin_pred():
    p = Conjunction.of([HaveAtom("f")])
    q = Conjunction.of([NotHaveAtom("g")])
    both = p.conjoin_pred(q)
    assert both.satisfied_by(_state("f"))
    assert not both.satisfied_by(_state("f", "g"))
    assert p.conjoin_pred(FALSE) is FALSE


def test_conjoin_helper():
    p = Conjunction.of([HaveAtom("f")])
    assert conjoin(p, FALSE) is FALSE
    assert conjoin(FALSE, p) is FALSE
    assert conjoin(p, TRUE) == p


# -- reference pairwise algebra ------------------------------------------------------
# The O(n^2) definitions the compiled algebra replaced, with the atom
# relations spelled out per class pair instead of read from the atoms.
_CONTRADICTING = {
    (HaveAtom, NotHaveAtom),
    (InMust, NotInMust),
    (InMust, InMustNot),
    (InMustNot, NotInMustNot),
    (MayAliasAtom, NotMayAliasAtom),
}
_IMPLYING = {(InMust, NotInMustNot), (InMustNot, NotInMust)}


def _identity(atom):
    if isinstance(atom, (MayAliasAtom, NotMayAliasAtom)):
        return (atom.var, atom.sites)
    return atom.key


def _ref_contradicts(a, b):
    pair = {(type(a), type(b)), (type(b), type(a))}
    return _identity(a) == _identity(b) and bool(pair & _CONTRADICTING)


def _ref_implies(a, b):
    return _identity(a) == _identity(b) and (type(a), type(b)) in _IMPLYING


def _ref_of(atoms):
    atoms = list(dict.fromkeys(atoms))
    if any(_ref_contradicts(a, b) for a in atoms for b in atoms):
        return FALSE
    return frozenset(
        a for a in atoms if not any(b != a and _ref_implies(b, a) for b in atoms)
    )


def _ref_conjoin(atoms, new_atoms):
    atoms = set(atoms)
    for a in new_atoms:
        if a in atoms:
            continue
        if any(_ref_contradicts(a, b) for b in atoms):
            return FALSE
        if any(_ref_implies(b, a) for b in atoms):
            continue
        atoms = {b for b in atoms if not _ref_implies(a, b)}
        atoms.add(a)
    return frozenset(atoms)


def _ref_entails(atoms, other):
    return all(b in atoms or any(_ref_implies(a, b) for a in atoms) for b in other)


_KEYS = ["x", "y", "x.f"]
_SITES = [frozenset({"h1"}), frozenset({"h1", "h2"})]
_full_atoms = st.one_of(
    st.builds(
        lambda cls, key: cls(key),
        st.sampled_from([InMust, NotInMust, InMustNot, NotInMustNot]),
        st.sampled_from(_KEYS),
    ),
    st.builds(
        lambda cls, var, sites: cls(var, sites),
        st.sampled_from([MayAliasAtom, NotMayAliasAtom]),
        st.sampled_from(_KEYS[:2]),
        st.sampled_from(_SITES),
    ),
)
_simple_atoms = st.builds(
    lambda cls, key: cls(key),
    st.sampled_from([HaveAtom, NotHaveAtom]),
    st.sampled_from(_KEYS),
)


@st.composite
def _full_state(draw):
    where = draw(
        st.lists(st.sampled_from(["must", "mustnot", None]), min_size=3, max_size=3)
    )
    must = frozenset(k for k, w in zip(_KEYS, where) if w == "must")
    mustnot = frozenset(k for k, w in zip(_KEYS, where) if w == "mustnot")
    site = draw(st.sampled_from(["h1", "h2", "h3"]))
    return FullAbstractState(site, "closed", must, mustnot)


_cases = st.one_of(
    st.tuples(
        st.lists(_full_atoms, max_size=6),
        st.lists(_full_atoms, max_size=4),
        _full_state(),
    ),
    st.tuples(
        st.lists(_simple_atoms, max_size=5),
        st.lists(_simple_atoms, max_size=3),
        st.lists(st.sampled_from(_KEYS), max_size=3).map(lambda must: _state(*must)),
    ),
)


@given(_cases)
def test_entailment_is_atom_subset(case):
    strong = Conjunction.of([HaveAtom("f"), NotHaveAtom("g")])
    weak = Conjunction.of([HaveAtom("f")])
    assert strong.entails(weak)
    assert not weak.entails(strong)
    assert strong.entails(TRUE)
    assert not strong.entails(FALSE)
    # The compiled algebra (declared atom relations, closures, grouped
    # satisfaction tests) agrees with the reference pairwise one.
    atoms, more, sigma = case
    for a in atoms + more:
        for b in atoms + more:
            assert (b in a.contradicted()) == _ref_contradicts(a, b)
            assert (b in a.implied()) == _ref_implies(a, b)
        for b in a.contradicted():
            assert a in b.contradicted()  # declared symmetrically
    p, q = Conjunction.of(atoms), Conjunction.of(more)
    assert (p is FALSE) == (_ref_of(atoms) is FALSE)
    if p is FALSE or q is FALSE:
        return
    assert p.atoms == _ref_of(atoms) and q.atoms == _ref_of(more)
    both = p.conjoin(*more)
    assert p.conjoin_pred(q) == conjoin(p, q) == both
    want = _ref_conjoin(p.atoms, more)
    assert both is FALSE if want is FALSE else both.atoms == want
    assert p.entails(q) == _ref_entails(p.atoms, q.atoms)
    assert q.entails(p) == _ref_entails(q.atoms, p.atoms)
    assert all(p.entails(Conjunction.of([a])) for a in atoms)
    assert both is FALSE or (both.entails(p) and both.entails(q))
    assert p.satisfied_by(sigma) == all(a.satisfied_by(sigma) for a in atoms)
    assert Conjunction.of(p.atoms) is p  # hash-consed


def test_conjunction_hashable_and_canonical():
    p1 = Conjunction.of([HaveAtom("f"), HaveAtom("g")])
    p2 = Conjunction.of([HaveAtom("g"), HaveAtom("f")])
    assert p1 == p2
    assert hash(p1) == hash(p2)


def test_str_forms():
    assert str(TRUE) == "true"
    p = Conjunction.of([HaveAtom("f"), NotHaveAtom("g")])
    assert "have(f)" in str(p) and "notHave(g)" in str(p)
