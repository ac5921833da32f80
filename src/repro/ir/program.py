"""Programs: maps from procedure names to commands (Section 3.5).

A :class:`Program` is the analysis unit ``Gamma : PName -> C`` of the
paper, together with a designated ``main`` procedure.  The class also
offers derived information used throughout the framework: the static
call graph over procedures, reachability, the variable universe, and the
universes of allocation sites and invoked methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.ir.commands import Call, Command, Invoke, New, Prim

_T = TypeVar("_T")


@dataclass(frozen=True)
class Procedure:
    """A named procedure: a name plus its body command."""

    name: str
    body: Command

    def __str__(self) -> str:
        return f"{self.name}() {{ {self.body} }}"


class Program:
    """A whole program ``Gamma`` with a designated entry procedure.

    Parameters
    ----------
    procedures:
        Mapping from procedure name to body command.  Every ``Call``
        inside any body must target a name in this mapping.
    main:
        Entry procedure name; defaults to ``"main"``.
    metadata:
        Optional free-form information recorded by frontends (e.g. which
        procedures belong to the application vs. the library).
    """

    def __init__(
        self,
        procedures: Mapping[str, Command],
        main: str = "main",
        metadata: Optional[Mapping[str, object]] = None,
    ) -> None:
        if main not in procedures:
            raise ValueError(f"main procedure {main!r} not defined")
        self._procedures: Dict[str, Command] = dict(procedures)
        self.main = main
        self.metadata: Dict[str, object] = dict(metadata or {})
        self._callees_cache: Optional[Dict[str, FrozenSet[str]]] = None
        self._derived: Dict[str, object] = {}

    # -- basic mapping interface -------------------------------------------------
    def __getitem__(self, name: str) -> Command:
        return self._procedures[name]

    def __contains__(self, name: str) -> bool:
        return name in self._procedures

    def __iter__(self) -> Iterator[str]:
        return iter(self._procedures)

    def __len__(self) -> int:
        return len(self._procedures)

    @property
    def procedures(self) -> Mapping[str, Command]:
        return dict(self._procedures)

    def names(self) -> List[str]:
        return list(self._procedures)

    def procedure(self, name: str) -> Procedure:
        return Procedure(name, self._procedures[name])

    # -- derived universes --------------------------------------------------------
    def variables(self) -> FrozenSet[str]:
        """All variables mentioned by any primitive command."""
        out: Set[str] = set()
        for body in self._procedures.values():
            out.update(body.variables())
        return frozenset(out)

    def allocation_sites(self) -> FrozenSet[str]:
        """All allocation sites ``h`` appearing in ``new`` commands."""
        out: Set[str] = set()
        for prim in self.primitives():
            if isinstance(prim, New):
                out.add(prim.site)
        return frozenset(out)

    def invoked_methods(self) -> FrozenSet[str]:
        """All method names appearing in ``v.m()`` commands."""
        out: Set[str] = set()
        for prim in self.primitives():
            if isinstance(prim, Invoke):
                out.add(prim.method)
        return frozenset(out)

    def primitives(self) -> Iterator[Prim]:
        for body in self._procedures.values():
            yield from body.primitives()

    def memo(self, key: str, build: Callable[[], _T]) -> _T:
        """Derived per-program state, built once per instance.

        A program never changes after construction, so whatever is
        computed from it alone (CFGs, fingerprints, the call-graph
        condensation, points-to facts, the content digest) stays valid
        for its lifetime.  Keeping it on the instance ties its lifetime
        to the program's: no module-level table keeps a program alive.
        Racing first calls may both build; every caller gets the value
        stored first.
        """
        got = self._derived.get(key)
        if got is None:
            got = self._derived.setdefault(key, build())
        return got

    # -- static call structure ----------------------------------------------------
    def callees(self, name: str) -> FrozenSet[str]:
        """Procedures directly called from ``name``'s body."""
        if self._callees_cache is None:
            self._callees_cache = {
                proc: frozenset(call.proc for call in body.calls())
                for proc, body in self._procedures.items()
            }
        return self._callees_cache[name]

    def callers(self) -> Dict[str, FrozenSet[str]]:
        """Inverse of :meth:`callees` for every procedure."""
        inverse: Dict[str, Set[str]] = {name: set() for name in self._procedures}
        for caller in self._procedures:
            for callee in self.callees(caller):
                inverse[callee].add(caller)
        return {name: frozenset(callers) for name, callers in inverse.items()}

    def reachable_from(self, root: str) -> FrozenSet[str]:
        """Procedures reachable from ``root`` via call chains (inclusive).

        This is the set ``F`` used by ``run_bu`` in Algorithm 1.
        """
        seen: Set[str] = set()
        stack = [root]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(c for c in self.callees(name) if c not in seen)
        return frozenset(seen)

    def reachable(self) -> FrozenSet[str]:
        """Procedures reachable from ``main``."""
        return self.reachable_from(self.main)

    def topological_order(self) -> List[str]:
        """Reverse-postorder of the call graph from ``main``.

        Callers come before callees; cycles (recursion) are broken
        arbitrarily.  Useful for bottom-up scheduling (process reversed).
        """
        order: List[str] = []
        seen: Set[str] = set()

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            for callee in sorted(self.callees(name)):
                visit(callee)
            order.append(name)

        visit(self.main)
        for name in sorted(self._procedures):
            visit(name)
        order.reverse()
        return order

    def is_recursive(self) -> bool:
        """True if the static call graph has a cycle."""
        colors: Dict[str, int] = {}

        def visit(name: str) -> bool:
            colors[name] = 1
            for callee in self.callees(name):
                state = colors.get(callee, 0)
                if state == 1:
                    return True
                if state == 0 and visit(callee):
                    return True
            colors[name] = 2
            return False

        return any(visit(name) for name in self._procedures if colors.get(name, 0) == 0)

    def __repr__(self) -> str:
        return f"Program({len(self._procedures)} procedures, main={self.main!r})"
