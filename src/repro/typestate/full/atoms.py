"""Predicate atoms of the full relational type-state analysis.

The analysis case-splits three ways on the status of an access path
``π`` in the incoming state — in the must set, in the must-not set, or
in neither — so it needs the four membership atoms below plus their
mutual-exclusion rules (``π`` cannot be in both sets at once).

May-alias facts are baked into atoms at creation time: a
:class:`MayAliasAtom` carries the frozen set of sites its variable may
point to, so satisfaction only needs the state's site and the atoms
stay self-contained hashable values.

Each atom declares the state component it reads (``reads``): the must
set, the must-not set, or the site.  Compiled ignored sets project
states onto those components (DESIGN §14, "Compiled Σ").
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import FrozenSet, Tuple

from repro.framework.predicates import Atom, KeyedAtom
from repro.typestate.full.states import FullAbstractState

# The components the atoms read (FullAbstractState is (h, t, a, n)).
_SITE = itemgetter(0)
_MUST = itemgetter(2)
_MUSTNOT = itemgetter(3)


def _site(sigma: FullAbstractState) -> Tuple[str]:
    return (_SITE(sigma),)


class InMust(KeyedAtom):
    """``π ∈ a`` (the paper's ``have``); the key is the path ``π``."""

    __slots__ = ()
    reads = _MUST

    def satisfied_by(self, sigma: FullAbstractState) -> bool:
        return self.key in sigma.must

    @staticmethod
    def group_test(paths: FrozenSet[str], sigma: FullAbstractState) -> bool:
        return paths <= sigma.must

    def declare_implied(self):
        # π ∈ a implies π ∉ n (the sets are disjoint).
        return (NotInMustNot(self.key),)

    def declare_contradicted(self):
        # must and must-not are disjoint, so π ∈ a contradicts π ∈ n.
        return (NotInMust(self.key), InMustNot(self.key))

    def __str__(self) -> str:
        return f"inMust({self.key})"


class NotInMust(KeyedAtom):
    """``π ∉ a``."""

    __slots__ = ()
    reads = _MUST

    def satisfied_by(self, sigma: FullAbstractState) -> bool:
        return self.key not in sigma.must

    @staticmethod
    def group_test(paths: FrozenSet[str], sigma: FullAbstractState) -> bool:
        return paths.isdisjoint(sigma.must)

    def declare_contradicted(self):
        return (InMust(self.key),)

    def __str__(self) -> str:
        return f"notInMust({self.key})"


class InMustNot(KeyedAtom):
    """``π ∈ n`` (the paper's ``notHave`` in the four-component domain)."""

    __slots__ = ()
    reads = _MUSTNOT

    def satisfied_by(self, sigma: FullAbstractState) -> bool:
        return self.key in sigma.mustnot

    @staticmethod
    def group_test(paths: FrozenSet[str], sigma: FullAbstractState) -> bool:
        return paths <= sigma.mustnot

    def declare_implied(self):
        # π ∈ n implies π ∉ a (the sets are disjoint).
        return (NotInMust(self.key),)

    def declare_contradicted(self):
        return (NotInMustNot(self.key), InMust(self.key))

    def __str__(self) -> str:
        return f"inMustNot({self.key})"


class NotInMustNot(KeyedAtom):
    """``π ∉ n``."""

    __slots__ = ()
    reads = _MUSTNOT

    def satisfied_by(self, sigma: FullAbstractState) -> bool:
        return self.key not in sigma.mustnot

    @staticmethod
    def group_test(paths: FrozenSet[str], sigma: FullAbstractState) -> bool:
        return paths.isdisjoint(sigma.mustnot)

    def declare_contradicted(self):
        return (InMustNot(self.key),)

    def __str__(self) -> str:
        return f"notInMustNot({self.key})"


class _AliasAtom(Atom):
    """Shared hash/pickle machinery for the two may-alias atoms."""

    __slots__ = ()

    reads = staticmethod(_site)

    def keys(self) -> FrozenSet[str]:
        return self.sites

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((type(self), self.var, self.sites)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.var, self.sites))


@dataclass(frozen=True)
class MayAliasAtom(_AliasAtom):
    """``mayalias(v, h)`` — the state's site is among the sites ``v``
    may point to (per the oracle snapshot baked in at creation)."""

    var: str
    sites: FrozenSet[str]

    __slots__ = ("var", "sites", "_hash")
    __hash__ = _AliasAtom.__hash__

    def satisfied_by(self, sigma: FullAbstractState) -> bool:
        return sigma.site in self.sites

    def declare_contradicted(self):
        return (NotMayAliasAtom(self.var, self.sites),)

    def __str__(self) -> str:
        # The site set is part of the atom's identity (two snapshots of
        # the oracle can disagree), so it must appear in the canonical
        # form — otherwise string-keyed total orders and the summary
        # store's serialized relations would conflate distinct atoms.
        return f"mayalias({self.var}:{{{','.join(sorted(self.sites))}}})"


@dataclass(frozen=True)
class NotMayAliasAtom(_AliasAtom):
    """``¬mayalias(v, h)``."""

    var: str
    sites: FrozenSet[str]

    __slots__ = ("var", "sites", "_hash")
    __hash__ = _AliasAtom.__hash__

    def satisfied_by(self, sigma: FullAbstractState) -> bool:
        return sigma.site not in self.sites

    def declare_contradicted(self):
        return (MayAliasAtom(self.var, self.sites),)

    def __str__(self) -> str:
        return f"!mayalias({self.var}:{{{','.join(sorted(self.sites))}}})"
