"""Type-state properties as DFAs, and type-state functions ``T -> T``.

A :class:`TypestateProperty` is a deterministic finite automaton over
method names: states ``T`` (containing a distinguished initial state
and the sink state ``error``), and transitions ``delta(t, m)``.  A
method invoked in a state with no outgoing transition for it drives the
object to ``error`` — the usual typestate convention (e.g. ``close``
on an already-closed file).

A :class:`TSFunction` is an element of the domain
``I = {λt.t, λt.init, λt.error, ...}`` of Figure 3: a total function
``T -> T`` represented extensionally (a canonical sorted tuple of
pairs), so functions are hashable, comparable, and composable —
exactly what the bottom-up analysis needs for its symbolic
transformers like ``ι_close ∘ ι_open``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

ERROR = "error"


class TypestateProperty:
    """A typestate DFA.

    Parameters
    ----------
    name:
        Property name (e.g. ``"File"``).
    states:
        All non-error states.  ``error`` is added automatically.
    initial:
        The state a freshly allocated object starts in.
    transitions:
        ``(state, method) -> state`` pairs.  Any ``(state, method)``
        combination not listed — for a method the property *does*
        track — falls to ``error``.
    """

    def __init__(
        self,
        name: str,
        states: Iterable[str],
        initial: str,
        transitions: Mapping[Tuple[str, str], str],
    ) -> None:
        self.name = name
        state_list = list(dict.fromkeys(states))
        if ERROR in state_list:
            raise ValueError("the error state is implicit; do not list it")
        if initial not in state_list:
            raise ValueError(f"initial state {initial!r} not among states")
        self.states: Tuple[str, ...] = tuple(state_list) + (ERROR,)
        self.initial = initial
        self._delta: Dict[Tuple[str, str], str] = {}
        self._methods: set = set()
        # method -> its TSFunction, built on first use: every tracked
        # Invoke transfer asks for one.
        self._method_fns: Dict[str, TSFunction] = {}
        for (src, method), dst in transitions.items():
            if src not in self.states or dst not in self.states:
                raise ValueError(f"transition {src}-{method}->{dst} uses unknown state")
            self._delta[(src, method)] = dst
            self._methods.add(method)

    # -- queries ------------------------------------------------------------------
    @property
    def methods(self) -> FrozenSet[str]:
        """Methods the property tracks."""
        return frozenset(self._methods)

    def tracks(self, method: str) -> bool:
        return method in self._methods

    def step(self, state: str, method: str) -> str:
        """``delta(state, method)``; untracked methods are identity."""
        if method not in self._methods:
            return state
        if state == ERROR:
            return ERROR
        return self._delta.get((state, method), ERROR)

    # -- type-state functions --------------------------------------------------------
    def identity_function(self) -> "TSFunction":
        return TSFunction.identity(self.states)

    def constant_function(self, state: str) -> "TSFunction":
        if state not in self.states:
            raise ValueError(f"unknown state {state!r}")
        return TSFunction.constant(self.states, state)

    def error_function(self) -> "TSFunction":
        return self.constant_function(ERROR)

    def method_function(self, method: str) -> Optional["TSFunction"]:
        """``[m] : T -> T`` for a tracked method; ``None`` otherwise."""
        fn = self._method_fns.get(method)
        if fn is None:
            if method not in self._methods:
                return None
            fn = self._method_fns[method] = TSFunction.of(
                self.states, lambda t: self.step(t, method)
            )
        return fn

    def __repr__(self) -> str:
        return f"TypestateProperty({self.name!r}, {len(self.states)} states)"


class TSFunction:
    """A total function ``T -> T`` in canonical extensional form."""

    __slots__ = ("table", "_map", "_hash")

    def __init__(self, table: Tuple[Tuple[str, str], ...]) -> None:
        self.table = tuple(sorted(table))
        self._map = dict(self.table)
        self._hash = hash(self.table)

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is recomputed in
        # the unpickling process (string hashes differ per process).
        return (TSFunction, (self.table,))

    # -- constructors -----------------------------------------------------------------
    @staticmethod
    def of(states: Iterable[str], fn) -> "TSFunction":
        return TSFunction(tuple((t, fn(t)) for t in states))

    @staticmethod
    def identity(states: Iterable[str]) -> "TSFunction":
        return TSFunction.of(states, lambda t: t)

    @staticmethod
    def constant(states: Iterable[str], target: str) -> "TSFunction":
        return TSFunction.of(states, lambda _t: target)

    # -- operations --------------------------------------------------------------------
    def __call__(self, state: str) -> str:
        return self._map[state]

    def compose_after(self, inner: "TSFunction") -> "TSFunction":
        """``self ∘ inner`` — apply ``inner`` first (e.g.
        ``ι_close.compose_after(ι_open)`` is ``ι_close ∘ ι_open``)."""
        return TSFunction(tuple((t, self._map[u]) for t, u in inner.table))

    def is_identity(self) -> bool:
        return all(t == u for t, u in self.table)

    # -- value semantics ----------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TSFunction):
            return NotImplemented
        return self.table == other.table

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.is_identity():
            return "ι_id"
        targets = {u for _, u in self.table}
        if len(targets) == 1:
            return f"ι_const[{next(iter(targets))}]"
        inner = ",".join(f"{t}->{u}" for t, u in self.table if t != u)
        return f"ι[{inner}]"
