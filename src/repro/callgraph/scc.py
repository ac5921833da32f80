"""SCC condensation of the call graph (iterative Tarjan).

Recursion makes the call graph cyclic, so neither "callees before
callers" nor "one procedure at a time" is well-defined on the raw
graph.  The *condensation* — contract every strongly connected
component (SCC) to one node — is a DAG, and two orders over it serve
this repo:

* the **reverse-topological** order (callee SCCs before their callers)
  is the classic bottom-up summarization order (Whaley–Lam): once every
  callee SCC of a component is summarized, the component itself can be
  summarized without ever revisiting it.
  :meth:`Condensation.wavefronts` groups that order into
  dependency-respecting levels so independent SCCs can be summarized in
  parallel (:class:`repro.framework.concurrent.ConcurrentSwiftEngine`);
* its dual, the **topological** order (caller SCCs first), walks a
  procedure only after every caller that can reach it.  The query
  planner's component split and the value-mode engines' recursion test
  (:meth:`Condensation.is_cyclic`) read the same condensation.

Tarjan's algorithm is implemented iteratively (an explicit work stack,
no recursion) so pathological call chains cannot hit CPython's
recursion limit, and it emits SCCs in reverse-topological order as a
by-product — no separate topological sort pass is needed.  Neighbor
iteration is sorted, so the component order and numbering are a pure
function of the program (no hash-seed dependence).

The condensation is immutable for the lifetime of a program and is
memoized per :class:`~repro.ir.program.Program` instance
(:func:`condensation`), so schedulers and engines constructed for the
same program share one instance.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.ir.program import Program


def tarjan_sccs(
    neighbors: Dict[str, Sequence[str]], roots: Iterable[str]
) -> List[Tuple[str, ...]]:
    """Strongly connected components, in reverse-topological order.

    ``neighbors`` maps every node to its (deterministically ordered)
    successor list; ``roots`` seeds the traversal (nodes unreachable
    from every root are not visited).  Iterative Tarjan: a component is
    emitted only after every component it can reach, so the returned
    list has callee SCCs before caller SCCs.  Members are sorted.
    """
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: set = set()
    stack: List[str] = []
    sccs: List[Tuple[str, ...]] = []
    counter = 0
    for root in roots:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            descended = False
            kids = neighbors.get(node, ())
            for i in range(child_i, len(kids)):
                kid = kids[i]
                if kid not in index:
                    work[-1] = (node, i + 1)
                    work.append((kid, 0))
                    descended = True
                    break
                if kid in on_stack and index[kid] < low[node]:
                    low[node] = index[kid]
            if descended:
                continue
            work.pop()
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(tuple(sorted(component)))
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
    return sccs


class Condensation:
    """The call graph's SCC condensation DAG for one program.

    ``sccs`` holds the components in reverse-topological order (callee
    SCCs first); a procedure's *rank* is its component's position in
    that order, so ``rank(callee) < rank(caller)`` whenever the two are
    not mutually recursive.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        neighbors = {
            proc: sorted(program.callees(proc)) for proc in program
        }
        roots = [program.main]
        roots.extend(sorted(p for p in program if p != program.main))
        self.sccs: Tuple[Tuple[str, ...], ...] = tuple(
            tarjan_sccs(neighbors, roots)
        )
        self._index: Dict[str, int] = {}
        for i, component in enumerate(self.sccs):
            for proc in component:
                self._index[proc] = i
        # Per-component callee components (self-edges dropped): the
        # condensation DAG's edge relation.
        callee_sccs: List[FrozenSet[int]] = []
        for i, component in enumerate(self.sccs):
            out: set = set()
            for proc in component:
                for callee in program.callees(proc):
                    j = self._index[callee]
                    if j != i:
                        out.add(j)
            callee_sccs.append(frozenset(out))
        self._callee_sccs: Tuple[FrozenSet[int], ...] = tuple(callee_sccs)

    # -- queries ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.sccs)

    def scc_index(self, proc: str) -> int:
        """Reverse-topological position of ``proc``'s component."""
        return self._index[proc]

    def members(self, i: int) -> Tuple[str, ...]:
        return self.sccs[i]

    def callee_sccs(self, i: int) -> FrozenSet[int]:
        """Components directly called from component ``i`` (no self)."""
        return self._callee_sccs[i]

    def is_cyclic(self, i: int) -> bool:
        """Does component ``i`` contain a cycle (recursion)?"""
        component = self.sccs[i]
        if len(component) > 1:
            return True
        proc = component[0]
        return proc in self.program.callees(proc)

    def ranks(self) -> Dict[str, int]:
        """``proc -> reverse-topological component position`` for every
        procedure (callees rank lower than their callers)."""
        return dict(self._index)

    def reverse_topological(self) -> Tuple[Tuple[str, ...], ...]:
        """Components, callee SCCs first (the Whaley–Lam order)."""
        return self.sccs

    def topological(self) -> Tuple[Tuple[str, ...], ...]:
        """Components, caller SCCs first."""
        return tuple(reversed(self.sccs))

    # -- parallel summarization support ---------------------------------------------
    def wavefronts(
        self, procs: Optional[Iterable[str]] = None
    ) -> List[List[Tuple[str, ...]]]:
        """Dependency-respecting levels of the condensation DAG.

        Restricted to ``procs`` when given (components are intersected
        with the set; dependencies on excluded components are treated as
        already satisfied — the caller supplies their summaries as
        ``external``).  Every component in wave ``n`` depends only on
        components in waves ``< n``, so all components of one wave can
        be summarized in parallel.  Waves and their components are
        deterministically ordered.
        """
        if procs is None:
            included = {i: self.sccs[i] for i in range(len(self.sccs))}
        else:
            proc_set = set(procs)
            included = {}
            for i, component in enumerate(self.sccs):
                kept = tuple(p for p in component if p in proc_set)
                if kept:
                    included[i] = kept
        remaining: Dict[int, set] = {
            i: {j for j in self._callee_sccs[i] if j in included}
            for i in included
        }
        waves: List[List[Tuple[str, ...]]] = []
        done: set = set()
        while remaining:
            ready = sorted(i for i, deps in remaining.items() if deps <= done)
            if not ready:  # pragma: no cover - the condensation is a DAG
                raise RuntimeError("condensation wavefronts did not converge")
            waves.append([included[i] for i in ready])
            done.update(ready)
            for i in ready:
                del remaining[i]
        return waves


#: Per-program memo: the condensation is immutable once built, and the
#: query planner, the concurrent engine and value-mode TD all want the
#: same instance.
_CONDENSATIONS: "WeakKeyDictionary[Program, Condensation]" = WeakKeyDictionary()


def condensation(program: Program) -> Condensation:
    """The (memoized) SCC condensation of ``program``'s call graph."""
    cached = _CONDENSATIONS.get(program)
    if cached is None:
        cached = _CONDENSATIONS[program] = Condensation(program)
    return cached
