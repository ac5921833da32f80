"""Conjunctive predicates ``phi`` over abstract states.

The bottom-up type-state analysis of Figure 3 uses predicates::

    phi ::= true | phi /\\ phi | have(v) | notHave(v)

This module generalizes that to conjunctions of arbitrary *atoms*.  An
atom is any hashable object implementing :class:`Atom`; the analysis
decides what atoms exist (``have``/``notHave`` for the simple
type-state analysis; must/must-not/may-alias atoms for the full one)
and which pairs of atoms are contradictory.

Conjunctions are kept in a canonical form (a frozenset of atoms, with
the distinguished :data:`FALSE` object representing an unsatisfiable
predicate), so they are hashable and support exact equality — which the
fixpoint computations of the bottom-up engine rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple


class Atom:
    """Base class for predicate atoms.

    Subclasses must be immutable and hashable, implement
    :meth:`satisfied_by`, and may override :meth:`contradicts` to
    declare unsatisfiable combinations (used to detect ``phi <=> false``
    during conjunction, case splitting, and ``rcomp``).
    """

    __slots__ = ()

    def satisfied_by(self, sigma) -> bool:
        """Does the abstract state ``sigma`` satisfy this atom?"""
        raise NotImplementedError

    def contradicts(self, other: "Atom") -> bool:
        """Is ``self /\\ other`` unsatisfiable?  Conservative: may return
        ``False`` for contradictory pairs (losing canonicity, not
        soundness)."""
        return False

    def implies(self, other: "Atom") -> bool:
        """Does ``self ==> other`` hold?  Used to drop redundant atoms
        from conjunctions (canonicity only; conservative ``False`` is
        always sound)."""
        return False


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


@dataclass(frozen=True)
class Conjunction:
    """A satisfiable-so-far conjunction of atoms.

    ``Conjunction(frozenset())`` is ``true``.  Use :meth:`of` /
    :meth:`conjoin` which perform contradiction checking and return
    :data:`FALSE` when the result is unsatisfiable.
    """

    atoms: FrozenSet[Atom]

    __slots__ = ("atoms",)

    def __reduce__(self):
        # Rebuild through __init__: frozen fields cannot be set by the
        # default slot-state unpickling.
        return (Conjunction, (self.atoms,))

    @property
    def is_false(self) -> bool:
        return False

    @property
    def is_true(self) -> bool:
        return not self.atoms

    @staticmethod
    def of(atoms: Iterable[Atom]):
        """Build a conjunction, returning :data:`FALSE` on contradiction.

        Atoms implied by another atom in the set are dropped (e.g.
        ``π ∈ n`` implies ``π ∉ a``), keeping conjunctions canonical.
        """
        collected = frozenset(atoms)
        atom_list = tuple(collected)
        for i, a in enumerate(atom_list):
            for b in atom_list[i + 1 :]:
                if a.contradicts(b) or b.contradicts(a):
                    return FALSE
        kept = frozenset(
            a
            for a in atom_list
            if not any(b != a and b.implies(a) for b in atom_list)
        )
        return Conjunction(kept)

    def conjoin(self, *new_atoms: Atom):
        """``self /\\ new_atoms`` with contradiction checking and
        incremental redundancy removal."""
        if all(a in self.atoms for a in new_atoms):
            return self
        atoms = set(self.atoms)
        for a in new_atoms:
            if a in atoms:
                continue
            redundant = False
            for b in atoms:
                if a.contradicts(b) or b.contradicts(a):
                    return FALSE
                if b.implies(a):
                    redundant = True
            if redundant:
                continue
            atoms = {b for b in atoms if not a.implies(b)}
            atoms.add(a)
        if atoms == self.atoms:
            return self
        return Conjunction(frozenset(atoms))

    def conjoin_pred(self, other):
        """Conjoin with another predicate (conjunction or FALSE)."""
        if other is FALSE:
            return FALSE
        return self.conjoin(*other.atoms)

    def satisfied_by(self, sigma) -> bool:
        return all(atom.satisfied_by(sigma) for atom in self.atoms)

    def entails(self, other: "Conjunction") -> bool:
        """Syntactic entailment: ``self ==> other`` when every atom of
        ``other`` is one of (or implied by one of) ours.  Sound but
        incomplete."""
        if other is FALSE:
            return False
        if other.atoms <= self.atoms:  # fast path: plain subset
            return True
        return all(
            b in self.atoms or any(a.implies(b) for a in self.atoms)
            for b in other.atoms
        )

    def __str__(self) -> str:
        if not self.atoms:
            return "true"
        return " & ".join(sorted(str(a) for a in self.atoms))


TRUE = Conjunction(frozenset())

Predicate = Tuple  # documentation alias: a predicate is Conjunction or FALSE


def conjoin(p, q):
    """Conjoin two predicates, either of which may be :data:`FALSE`."""
    if p is FALSE or q is FALSE:
        return FALSE
    return p.conjoin_pred(q)
