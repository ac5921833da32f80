"""Symbolic representation of the ignored-state sets ``Sigma``.

The pruned bottom-up semantics (Section 3.4) operates on pairs
``(R, Sigma)`` where ``Sigma`` is the set of incoming abstract states
the analysis has decided to ignore.  ``Sigma`` is built from the
domains of pruned abstract relations, so it is naturally a *union of
domain predicates*; representing it extensionally would be infeasible
for realistic state spaces.

:class:`IgnoredStates` stores ``Sigma`` as a frozenset of predicates
(normalized by syntactic entailment) and supports the three operations
the engines need:

* membership of an abstract state (the ``sigma not in Sigma'`` check of
  Algorithm 1, line 12);
* union (the join of the pruned domain);
* conservative coverage of a predicate (used by ``excl`` to drop
  relations whose entire domain is ignored).

Values are compiled (DESIGN §14, "Compiled Σ"):

* *Hash-consed.*  Construction hands out the one interned instance per
  ``(callbacks, predicate set)`` from a bounded table, so equal sets are
  the same object and share their memos; ``union`` and ``covers`` are
  memoized on that instance, so the pairwise normalization scan runs
  once per distinct ``(Sigma, new predicates)`` pair.
* *Projection-keyed membership.*  When the predicates are
  :class:`~repro.framework.predicates.Conjunction` values evaluated
  state-wise and every atom declares the state component it reads
  (:attr:`~repro.framework.predicates.Atom.reads`), membership depends
  only on :func:`projector`'s projection of the state onto the keys the
  atoms mention, and is memoized on it.  Other domains (kill/gen,
  copy propagation, the numeric product) keep the reference test: any
  predicate satisfied, through the analysis's callback.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    Iterator,
    Optional,
    TypeVar,
)

from repro.framework.predicates import Conjunction

S = TypeVar("S")
P = TypeVar("P")

# Bounds.  The intern table is cleared wholesale when full (equality is
# by predicate set, so a cleared table only costs sharing); each
# instance's memos are cleared when they reach theirs.  A full-domain
# SWIFT run on kawa-c interns a few hundred sets.
_INTERN_LIMIT = 1 << 14
_MEMO_LIMIT = 1 << 12

#: ``_project`` of a set whose membership is not compiled.
_UNCOMPILED = False


def projector(preds: Iterable) -> Optional[Callable[[object], tuple]]:
    """The projection deciding every predicate of ``preds``, or ``None``.

    ``preds`` must be conjunctions whose atoms all declare
    :attr:`~repro.framework.predicates.Atom.reads`; otherwise ``None``.
    The projection maps a state to one frozenset per component read,
    ``atom keys ∩ reads(sigma)`` over the atoms reading it.  Each atom's
    truth is decided by which of its own keys the component holds, so
    two states with equal projections satisfy exactly the same
    predicates of ``preds``: the projection is exact by construction.
    """
    parts: Dict[Callable, set] = {}
    for p in preds:
        if p.__class__ is not Conjunction:
            return None
        for a in p.atoms:
            reads = a.reads
            if reads is None:
                return None
            parts.setdefault(reads, set()).update(a.keys())
    probes = [(frozenset(keys).intersection, reads) for reads, keys in parts.items()]
    return lambda sigma: tuple([i(r(sigma)) for i, r in probes])


class IgnoredStates(Generic[S, P]):
    """An upward-growing union of state predicates.

    Parameters
    ----------
    satisfied:
        ``satisfied(p, sigma)`` — does ``sigma`` satisfy predicate ``p``?
    entails:
        ``entails(p, q)`` — does ``p ==> q`` hold?  May be conservative
        (answering ``False``); that only costs normalization, never
        soundness.
    preds:
        Initial predicates.

    Construction returns the interned instance for the normalized
    predicate set, so equal sets built with the same callbacks are the
    same object.
    """

    __slots__ = (
        "_satisfied",
        "_entails",
        "_preds",
        "_hash",
        "_project",
        "_members",
        "_unions",
        "_covers",
    )

    def __new__(
        cls,
        satisfied: Callable[[P, S], bool],
        entails: Callable[[P, P], bool],
        preds: Iterable[P] = (),
    ) -> "IgnoredStates[S, P]":
        kept: list = []
        for p in dict.fromkeys(preds):
            _insert(entails, kept, p)
        return _intern(satisfied, entails, frozenset(kept))

    def __reduce__(self):
        # Rebuild through the intern table: the cached hash is per
        # process, and equal sets share one instance.
        return (IgnoredStates, (self._satisfied, self._entails, tuple(self._preds)))

    # -- queries --------------------------------------------------------------------
    def __contains__(self, sigma: S) -> bool:
        if not self._preds:
            return False
        project = self._project
        if project is None:
            # Membership is compiled only for conjunctions evaluated
            # state-wise: a domain whose callback evaluates them on
            # something else (a product value's rows) keeps its own.
            if self._satisfied is Conjunction.satisfied_by:
                project = projector(self._preds)
            self._project = project = project or _UNCOMPILED
        if project is _UNCOMPILED:
            return self._holds(sigma)
        key = project(sigma)
        members = self._members
        hit = members.get(key)
        if hit is None:
            if len(members) >= _MEMO_LIMIT:
                members.clear()
            hit = members[key] = self._holds(sigma)
        return hit

    def _holds(self, sigma: S) -> bool:
        """The reference membership test: some predicate holds."""
        satisfied = self._satisfied
        return any(satisfied(p, sigma) for p in self._preds)

    def covers(self, pred: P) -> bool:
        """Conservatively: does ``pred ==> Sigma`` hold?

        Checks entailment against each stored predicate individually,
        so it can miss coverage by a genuine union — which only means a
        redundant relation survives ``excl``, never an unsound drop.
        """
        covers = self._covers
        hit = covers.get(pred)
        if hit is None:
            if len(covers) >= _MEMO_LIMIT:
                covers.clear()
            entails = self._entails
            hit = covers[pred] = any(entails(pred, q) for q in self._preds)
        return hit

    @property
    def predicates(self) -> FrozenSet[P]:
        return self._preds

    def is_empty(self) -> bool:
        return not self._preds

    def __iter__(self) -> Iterator[P]:
        return iter(self._preds)

    def __len__(self) -> int:
        return len(self._preds)

    # -- construction -----------------------------------------------------------------
    def union(self, preds: Iterable[P]) -> "IgnoredStates[S, P]":
        current = self._preds
        new_preds = tuple(dict.fromkeys(p for p in preds if p not in current))
        if not new_preds:
            return self
        unions = self._unions
        out = unions.get(new_preds)
        if out is None:
            # The existing set is already normalized: insert incrementally.
            kept = list(current)
            entails = self._entails
            for p in new_preds:
                _insert(entails, kept, p)
            out = _intern(self._satisfied, entails, frozenset(kept))
            if len(unions) >= _MEMO_LIMIT:
                unions.clear()
            unions[new_preds] = out
        return out

    def union_sets(self, other: "IgnoredStates[S, P]") -> "IgnoredStates[S, P]":
        """``self ∪ other``, memoized on ``other`` (an interned value)."""
        if other is self or not other._preds:
            return self
        unions = self._unions
        out = unions.get(other)
        if out is None:
            out = self.union(other._preds)
            if len(unions) >= _MEMO_LIMIT:
                unions.clear()
            unions[other] = out
        return out

    # -- equality (for fixpoint detection) ---------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, IgnoredStates):
            return NotImplemented
        return self._preds == other._preds

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._preds:
            return "Sigma{}"
        inner = ", ".join(sorted(str(p) for p in self._preds))
        return f"Sigma{{{inner}}}"


def _insert(entails: Callable, kept: list, p) -> None:
    """Incremental normalization step: insert ``p`` into a list of
    mutually non-redundant predicates, dropping the ones that entail it
    (or ``p`` itself, when it entails one of them)."""
    survivors = []
    for q in kept:
        if entails(p, q):
            # p is at least as strong as some kept q: redundant.
            return
        if not entails(q, p):
            survivors.append(q)
    if len(survivors) != len(kept):
        kept[:] = survivors
    kept.append(p)


_interned: Dict[tuple, IgnoredStates] = {}


def _intern(satisfied: Callable, entails: Callable, preds: FrozenSet) -> IgnoredStates:
    """The canonical instance for an already-normalized predicate set."""
    key = (satisfied, entails, preds)
    known = _interned.get(key)
    if known is None:
        if len(_interned) >= _INTERN_LIMIT:
            _interned.clear()
        known = object.__new__(IgnoredStates)
        known._satisfied = satisfied
        known._entails = entails
        known._preds = preds
        known._hash = hash(preds)
        known._project = None
        known._members = {}
        known._unions = {}
        known._covers = {}
        _interned[key] = known
    return known
