"""Abstract states of the full type-state analysis: ``(h, t, a, n)``.

``a`` (must) and ``n`` (must-not) are disjoint finite sets of access
paths; ``a`` lists expressions that definitely point to the abstract
object, ``n`` expressions that definitely do not (Section 2).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, FrozenSet, Iterable

from repro.typestate.dfa import TypestateProperty
from repro.typestate.states import BOOTSTRAP_SITE, _INTERN_LIMIT


class FullAbstractState(tuple):
    """``(h, t, a, n)`` — site, type-state, must set, must-not set.

    A ``tuple`` subclass: the four-component states are the hottest
    hash keys of the full-domain engines, and a tuple hashes and
    compares in C (its hash is the one the former dataclass cached, and
    the string and frozenset components cache their own).  Equal
    instances can be canonicalized via :func:`intern_full_state`.
    """

    __slots__ = ()

    def __new__(
        cls, site: str, state: str, must: FrozenSet[str], mustnot: FrozenSet[str]
    ) -> "FullAbstractState":
        overlap = must & mustnot
        if overlap:
            raise ValueError(f"must/must-not overlap: {sorted(overlap)}")
        return tuple.__new__(cls, (site, state, must, mustnot))

    site = property(itemgetter(0))
    state = property(itemgetter(1))
    must = property(itemgetter(2))
    mustnot = property(itemgetter(3))

    def __reduce__(self):
        # Through the constructor: tuple's own __getnewargs__ would hand
        # __new__ a single tuple argument.
        return (FullAbstractState, tuple(self))

    def __repr__(self) -> str:
        site, state, must, mustnot = self
        return (
            f"FullAbstractState(site={site!r}, state={state!r}, "
            f"must={must!r}, mustnot={mustnot!r})"
        )

    def with_state(self, state: str) -> "FullAbstractState":
        return intern_full_state(FullAbstractState(self[0], state, self[2], self[3]))

    def with_sets(
        self, must: Iterable[str], mustnot: Iterable[str]
    ) -> "FullAbstractState":
        return intern_full_state(
            FullAbstractState(self[0], self[1], frozenset(must), frozenset(mustnot))
        )

    def __str__(self) -> str:
        site, state, must, mustnot = self
        a = "{" + ",".join(sorted(must)) + "}"
        n = "{" + ",".join(sorted(mustnot)) + "}"
        return f"({site},{state},{a},{n})"


_interned: Dict[FullAbstractState, FullAbstractState] = {}


def intern_full_state(sigma: FullAbstractState) -> FullAbstractState:
    """The canonical instance equal to ``sigma``."""
    if len(_interned) > _INTERN_LIMIT:
        _interned.clear()
    return _interned.setdefault(sigma, sigma)


def full_bootstrap_state(prop: TypestateProperty) -> FullAbstractState:
    """The initial abstract state fed to ``main``."""
    return intern_full_state(
        FullAbstractState(BOOTSTRAP_SITE, prop.initial, frozenset(), frozenset())
    )
