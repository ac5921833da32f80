"""SCC condensation of the call graph (iterative Tarjan).

Recursion makes the call graph cyclic, so neither "callees before
callers" nor "one procedure at a time" is well-defined on the raw
graph.  The *condensation* — contract every strongly connected
component (SCC) to one node — is a DAG.  Four readers share it: the
query planner's component split and the slicer walk its edges
(:meth:`Condensation.callee_sccs`, :meth:`Condensation.members`),
value-mode TD's recursion test reads :meth:`Condensation.is_cyclic`,
and the store's cone fingerprints hash it bottom-up
(:class:`repro.incremental.fingerprint.ProgramFingerprints`).

Tarjan's algorithm is implemented iteratively (an explicit work stack,
no recursion) so pathological call chains cannot hit CPython's
recursion limit, and it emits SCCs in reverse-topological order as a
by-product — no separate topological sort pass is needed.  Neighbor
iteration is sorted, so the component order and numbering are a pure
function of the program (no hash-seed dependence).

The condensation is immutable for the lifetime of a program and is
memoized on the :class:`~repro.ir.program.Program` instance itself
(:func:`condensation`), so the engines and queries constructed for the
same program share one instance, and it dies with the program.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

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
    SCCs first), so a callee's component index is below its caller's
    whenever the two are not mutually recursive.
    """

    def __init__(self, program: Program) -> None:
        # No reference to ``program`` is kept: memoized on it, a
        # back-reference would form a cycle only the cyclic collector
        # frees, keeping each one-shot run's program alive past its run.
        self._self_calls: FrozenSet[str] = frozenset(
            proc for proc in program if proc in program.callees(proc)
        )
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
        return component[0] in self._self_calls


def condensation(program: Program) -> Condensation:
    """The SCC condensation of ``program``'s call graph, memoized on the
    program: the query planner, the slicer and value-mode TD all share
    one instance."""
    return program.memo("condensation", lambda: Condensation(program))
