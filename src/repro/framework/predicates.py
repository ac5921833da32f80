"""Conjunctive predicates ``phi`` over abstract states.

The bottom-up type-state analysis of Figure 3 uses predicates::

    phi ::= true | phi /\\ phi | have(v) | notHave(v)

This module generalizes that to conjunctions of arbitrary *atoms*.  An
atom is any hashable object implementing :class:`Atom`; the analysis
decides what atoms exist (``have``/``notHave`` for the simple
type-state analysis; must/must-not/may-alias atoms for the full one)
and declares, per atom, the finite tuples of atoms it implies and it
contradicts.

Conjunctions are kept in a canonical form (a frozenset of atoms, none
implied by another, with the distinguished :data:`FALSE` object
representing an unsatisfiable predicate), so they are hashable and
support exact equality — which the fixpoint computations of the
bottom-up engine rely on.  Equal conjunctions are hash-consed, so the
compiled forms below (the implication closure behind :meth:`entails`
and the grouped set tests behind :meth:`satisfied_by`) are built once
per distinct conjunction (DESIGN §14, "Value identity and cost").
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple


class Atom:
    """Base class for predicate atoms.

    Subclasses must be immutable and hashable, implement
    :meth:`satisfied_by`, and may override :meth:`declare_implied` and
    :meth:`declare_contradicted`.  Contradictions must be declared
    symmetrically (``b in a.contradicted()`` iff ``a in
    b.contradicted()``): a conjunction checks only its newly added
    atoms.  Undeclared relations are conservative — they cost
    canonicity, never soundness.
    """

    __slots__ = ("_implied", "_contradicted")

    #: Optional grouped form of :meth:`satisfied_by` for a
    #: :class:`KeyedAtom` class: ``group_test(keys, sigma)`` holds iff
    #: every atom of the class whose key is in ``keys`` holds.
    group_test: Optional[Callable[[FrozenSet, object], bool]] = None

    #: The state component the atom reads, for compiled Σ membership
    #: (:func:`repro.framework.ignored.projector`): ``reads(sigma)`` is
    #: an iterable, and whether the atom holds is decided by which of
    #: :meth:`keys` it contains.  Atoms reading one component share one
    #: ``reads`` object (a non-binding callable: an ``itemgetter`` or a
    #: ``staticmethod``).  ``None``: undeclared, which keeps the sets
    #: holding this atom on the reference membership test.
    reads: Optional[Callable[[object], Iterable]] = None

    def keys(self) -> FrozenSet:
        """The elements of :attr:`reads`'s component deciding the atom."""
        raise NotImplementedError

    def satisfied_by(self, sigma) -> bool:
        """Does the abstract state ``sigma`` satisfy this atom?"""
        raise NotImplementedError

    def declare_implied(self) -> Iterable["Atom"]:
        """The atoms ``self`` implies, itself excluded."""
        return ()

    def declare_contradicted(self) -> Iterable["Atom"]:
        """The atoms ``b`` for which ``self /\\ b`` is unsatisfiable."""
        return ()

    def implied(self) -> Tuple["Atom", ...]:
        """:meth:`declare_implied`, cached on the atom."""
        try:
            return self._implied
        except AttributeError:
            object.__setattr__(self, "_implied", tuple(self.declare_implied()))
            return self._implied

    def contradicted(self) -> Tuple["Atom", ...]:
        """:meth:`declare_contradicted`, cached on the atom."""
        try:
            return self._contradicted
        except AttributeError:
            object.__setattr__(self, "_contradicted", tuple(self.declare_contradicted()))
            return self._contradicted


class KeyedAtom(Atom):
    """An atom identified by its class and one key (a variable or an
    access path).  The hash is computed once and mixes in the class, so
    ``have(x)`` and ``notHave(x)`` do not collide in predicate sets;
    pickling rebuilds through ``__init__`` (string hashes differ per
    process).  A subclass with a :attr:`~Atom.group_test` declares the
    set component that test reads as :attr:`~Atom.reads`: the atom
    holds or fails by whether that component contains the key."""

    __slots__ = ("key", "_hash")

    def __init__(self, key: str) -> None:
        self.key = key
        self._hash = hash((type(self), key))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            other.__class__ is self.__class__ and other.key == self.key
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.key,))

    def keys(self) -> FrozenSet[str]:
        return frozenset((self.key,))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.key!r})"


class _FalsePredicate:
    """The unsatisfiable predicate.  A singleton: compare with ``is``."""

    __slots__ = ()
    _instance: Optional["_FalsePredicate"] = None

    def __new__(cls) -> "_FalsePredicate":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FALSE"

    def satisfied_by(self, sigma) -> bool:
        return False

    @property
    def is_false(self) -> bool:
        return True


FALSE = _FalsePredicate()


class Conjunction:
    """A satisfiable-so-far conjunction of atoms.

    ``atoms`` is the identity: ``hash``, ``==`` and ``str`` read only
    it.  Use :meth:`of` / :meth:`conjoin`, which check contradictions,
    drop implied atoms, return :data:`FALSE` when the result is
    unsatisfiable and hand out the interned instance.
    """

    __slots__ = ("atoms", "_hash", "_closure", "_tests")

    def __init__(self, atoms: FrozenSet[Atom]) -> None:
        self.atoms = atoms
        self._hash = hash((atoms,))
        self._closure: Optional[FrozenSet[Atom]] = None
        self._tests: tuple = ()

    def __reduce__(self):
        # Rebuild through the intern table: the cached hash is per
        # process (string hashes differ), and equal conjunctions share
        # one instance.
        return (_intern, (self.atoms,))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Conjunction:
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Conjunction(atoms={self.atoms!r})"

    @property
    def is_false(self) -> bool:
        return False

    @property
    def is_true(self) -> bool:
        return not self.atoms

    @property
    def closure(self) -> FrozenSet[Atom]:
        """``atoms`` plus every atom they imply (``atoms`` itself when
        they imply nothing)."""
        closure = self._closure
        if closure is None:
            implied = [b for a in self.atoms for b in a.implied()]
            closure = self.atoms.union(implied) if implied else self.atoms
            self._closure = closure
        return closure

    @staticmethod
    def of(atoms: Iterable[Atom]):
        """Build a conjunction, returning :data:`FALSE` on contradiction.

        Atoms implied by another atom in the set are dropped (e.g.
        ``π ∈ n`` implies ``π ∉ a``), keeping conjunctions canonical.
        """
        collected = frozenset(atoms)
        known = _interned.get(collected)
        if known is not None:
            return known
        return _fold(_EMPTY, collected)

    def conjoin(self, *new_atoms: Atom):
        """``self /\\ new_atoms`` with contradiction checking and
        redundancy removal."""
        closure = self.closure
        fresh = [a for a in new_atoms if a not in closure]
        if not fresh:
            return self
        return _fold(self.atoms, fresh)

    def conjoin_pred(self, other):
        """Conjoin with another predicate (conjunction or FALSE)."""
        if other is FALSE:
            return FALSE
        if self.atoms <= other.closure:
            return other
        return self.conjoin(*other.atoms)

    def satisfied_by(self, sigma) -> bool:
        for test, arg in self._tests or self._compile():
            if not test(arg, sigma):
                return False
        return True

    def _compile(self) -> tuple:
        """One ``(test, arg)`` pair per atom class with a
        :attr:`Atom.group_test`, one per atom of the other classes."""
        groups: Dict[Callable, list] = {}
        tests = []
        for a in self.atoms:
            group = type(a).group_test
            if group is None:
                tests.append((type(a).satisfied_by, a))
            else:
                groups.setdefault(group, []).append(a.key)
        tests.extend((group, frozenset(keys)) for group, keys in groups.items())
        self._tests = tuple(tests)
        return self._tests

    def entails(self, other: "Conjunction") -> bool:
        """Syntactic entailment: ``self ==> other`` when every atom of
        ``other`` is one of (or implied by one of) ours.  Sound but
        incomplete."""
        return other is not FALSE and other.atoms <= self.closure

    def __str__(self) -> str:
        if not self.atoms:
            return "true"
        return " & ".join(sorted(str(a) for a in self.atoms))


_EMPTY: FrozenSet[Atom] = frozenset()

# Hash-consing table, bounded (a full-domain SWIFT run on antlr or
# kawa-c interns about a thousand conjunctions).  Clearing it is safe
# because equality is by atoms, not identity.
_INTERN_LIMIT = 1 << 14
_interned: Dict[FrozenSet[Atom], Conjunction] = {}


def _intern(atoms: FrozenSet[Atom]) -> Conjunction:
    """The canonical instance for an already-canonical atom set."""
    known = _interned.get(atoms)
    if known is None:
        if len(_interned) >= _INTERN_LIMIT:
            _interned.clear()
            _interned[_EMPTY] = TRUE
        known = _interned[atoms] = Conjunction(atoms)
    return known


def _fold(base: FrozenSet[Atom], fresh):
    """``base /\\ fresh`` for a canonical, satisfiable ``base`` and atoms
    ``fresh`` none of which ``base`` already implies."""
    combined = base.union(fresh)
    implied = []
    for a in fresh:
        if not combined.isdisjoint(a.contradicted()):
            return FALSE
        implied.extend(a.implied())
    if implied:
        combined = combined.difference(implied)
    return _intern(combined)


TRUE = _intern(_EMPTY)


def conjoin(p, q):
    """Conjoin two predicates, either of which may be :data:`FALSE`."""
    if p is FALSE or q is FALSE:
        return FALSE
    return p.conjoin_pred(q)


class GuardedRelations:
    """The Σ machinery of a bottom-up analysis whose relations carry
    their exact domain as a conjunction ``r.pred`` and which defines
    ``wp_pred(r, φ)``.  Mix in before ``BottomUpAnalysis``."""

    pred_satisfied = staticmethod(Conjunction.satisfied_by)
    pred_entails = staticmethod(Conjunction.entails)

    def domain_predicate(self, r) -> Conjunction:
        return r.pred

    def in_domain(self, r, sigma) -> bool:
        return r.pred.satisfied_by(sigma)

    def precondition(self, r, p):
        """``dom(r) /\\ wp(r, p)``, or :data:`FALSE`."""
        wp = self.wp_pred(r, p)
        return FALSE if wp is FALSE else r.pred.conjoin_pred(wp)

    def pre_image(self, r, p) -> FrozenSet[Conjunction]:
        pre = self.precondition(r, p)
        return frozenset() if pre is FALSE else frozenset({pre})
