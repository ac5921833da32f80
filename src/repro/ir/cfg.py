"""Control-flow-graph view of structured commands.

Algorithm 1 of the paper assumes the program is given both as a map
``Gamma`` from procedure names to commands and as a control-flow graph
``G``.  This module lowers each structured command into a per-procedure
CFG whose edges carry either a primitive command or a procedure call.

Program points (:class:`ProgramPoint`) are the vertices; they are
interned per procedure so they are cheap to hash and compare.  The
lowering is the standard one:

* ``c``        — one edge ``entry --c--> exit``
* ``C1 ; C2``  — graphs chained through a fresh midpoint
* ``C1 + C2``  — both graphs share entry and exit
* ``C*``       — a loop node with a back edge through ``C`` and a skip
  edge to the exit (zero iterations)
* ``f()``      — one *call edge* ``entry --call f--> exit``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple, Union

from repro.ir.commands import Call, Choice, Command, Prim, Seq, Skip, Star
from repro.ir.program import Program


class ProgramPoint(NamedTuple):
    """A vertex of a procedure's control-flow graph.

    Points key every hot table of the engines (``td``, successor
    caches, the workset), so they are plain named tuples: the
    hash and equality run in C on every probe, and a point pickles
    through its constructor (no per-process cached hash travels with
    it).  The ``repr`` is the dataclass-style ``ProgramPoint(proc=...,
    index=...)`` that sorted CLI output depends on.
    """

    proc: str
    index: int

    def __str__(self) -> str:
        return f"{self.proc}:{self.index}"


@dataclass(frozen=True)
class CFGEdge:
    """A CFG edge labelled with a primitive command or a procedure call."""

    source: ProgramPoint
    label: Union[Prim, Call]
    target: ProgramPoint

    @property
    def is_call(self) -> bool:
        return isinstance(self.label, Call)

    def __str__(self) -> str:
        return f"{self.source} --[{self.label}]--> {self.target}"


class CFG:
    """Control-flow graph of one procedure."""

    def __init__(self, proc: str, body: Command) -> None:
        self.proc = proc
        self._points: List[ProgramPoint] = []
        self._succs: Dict[ProgramPoint, List[CFGEdge]] = {}
        self._preds: Dict[ProgramPoint, List[CFGEdge]] = {}
        self.entry = self._fresh()
        self.exit = self._build(body, self.entry)
        self._back_edges: Optional[List[CFGEdge]] = None
        self._loop_heads: Optional[Tuple[ProgramPoint, ...]] = None

    # -- construction -------------------------------------------------------------
    def _fresh(self) -> ProgramPoint:
        point = ProgramPoint(self.proc, len(self._points))
        self._points.append(point)
        self._succs[point] = []
        self._preds[point] = []
        return point

    def _edge(self, src: ProgramPoint, label: Union[Prim, Call], dst: ProgramPoint) -> None:
        edge = CFGEdge(src, label, dst)
        self._succs[src].append(edge)
        self._preds[dst].append(edge)

    def _build(self, cmd: Command, entry: ProgramPoint) -> ProgramPoint:
        """Lower ``cmd`` starting at ``entry``; return its exit point."""
        if isinstance(cmd, Prim):
            exit_ = self._fresh()
            self._edge(entry, cmd, exit_)
            return exit_
        if isinstance(cmd, Call):
            exit_ = self._fresh()
            self._edge(entry, cmd, exit_)
            return exit_
        if isinstance(cmd, Seq):
            point = entry
            for part in cmd.parts:
                point = self._build(part, point)
            return point
        if isinstance(cmd, Choice):
            exit_ = self._fresh()
            for alt in cmd.alternatives:
                alt_exit = self._build(alt, entry)
                self._edge(alt_exit, Skip(), exit_)
            return exit_
        if isinstance(cmd, Star):
            # entry --skip--> head; head --body--> tail --skip--> head;
            # head --skip--> exit.  The head is the loop join point.
            head = self._fresh()
            self._edge(entry, Skip(), head)
            tail = self._build(cmd.body, head)
            self._edge(tail, Skip(), head)
            exit_ = self._fresh()
            self._edge(head, Skip(), exit_)
            return exit_
        raise TypeError(f"unknown command node {cmd!r}")

    # -- queries ------------------------------------------------------------------
    @property
    def points(self) -> List[ProgramPoint]:
        return list(self._points)

    def successors(self, point: ProgramPoint) -> List[CFGEdge]:
        return list(self._succs[point])

    def predecessors(self, point: ProgramPoint) -> List[CFGEdge]:
        return list(self._preds[point])

    def edges(self) -> Iterator[CFGEdge]:
        for edges in self._succs.values():
            yield from edges

    def call_edges(self) -> Iterator[CFGEdge]:
        return (edge for edge in self.edges() if edge.is_call)

    # -- loop structure -----------------------------------------------------------
    def back_edges(self) -> List[CFGEdge]:
        """The DFS back edges, in deterministic order.

        An iterative depth-first search from the entry (then from any
        point the entry does not reach, in creation order) colors
        points white/gray/black; an edge into a gray point is a back
        edge.  Points are created and successor lists appended in
        lowering order, so the DFS — and hence the returned list — is
        deterministic.  For the structured lowering every back edge is
        the ``tail --skip--> head`` edge of a ``Star``, but the search
        makes no reducibility assumption: it reports one back edge per
        retreating edge of whatever graph it is given.
        """
        if self._back_edges is not None:
            return list(self._back_edges)
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {point: WHITE for point in self._points}
        back: List[CFGEdge] = []
        for root in self._points:
            if color[root] != WHITE:
                continue
            color[root] = GRAY
            stack: List[Tuple[ProgramPoint, int]] = [(root, 0)]
            while stack:
                point, next_edge = stack.pop()
                edges = self._succs[point]
                if next_edge < len(edges):
                    stack.append((point, next_edge + 1))
                    target = edges[next_edge].target
                    if color[target] == GRAY:
                        back.append(edges[next_edge])
                    elif color[target] == WHITE:
                        color[target] = GRAY
                        stack.append((target, 0))
                else:
                    color[point] = BLACK
        self._back_edges = back
        return list(back)

    def loop_heads(self) -> Tuple[ProgramPoint, ...]:
        """Back-edge targets, deduplicated, in first-discovery order.

        These are the widening points of the value-mode fixpoint
        (DESIGN §14): placing a widening on every back-edge target cuts
        every cycle of the graph, which is what guarantees the
        ascending iteration stabilizes for infinite-height domains.
        """
        if self._loop_heads is None:
            heads: List[ProgramPoint] = []
            seen = set()
            for edge in self.back_edges():
                if edge.target not in seen:
                    seen.add(edge.target)
                    heads.append(edge.target)
            self._loop_heads = tuple(heads)
        return self._loop_heads

    def __len__(self) -> int:
        return len(self._points)

    def __str__(self) -> str:
        lines = [f"cfg {self.proc} (entry={self.entry.index}, exit={self.exit.index}):"]
        lines.extend(f"  {edge}" for edge in self.edges())
        return "\n".join(lines)


class ControlFlowGraphs:
    """CFGs for every procedure of a program, built lazily and cached."""

    def __init__(self, program: Program) -> None:
        # The bodies, not the program: memoized on its program
        # (:func:`program_cfgs`), a back-reference would be a cycle that
        # keeps an evicted program alive until the cyclic collector
        # runs (DESIGN §10).
        self._bodies = program.procedures
        self._cfgs: Dict[str, CFG] = {}

    def __getitem__(self, proc: str) -> CFG:
        cfg = self._cfgs.get(proc)
        if cfg is None:
            # setdefault: threads sharing one instance agree on one CFG.
            cfg = self._cfgs.setdefault(proc, CFG(proc, self._bodies[proc]))
        return cfg

    def entry(self, proc: str) -> ProgramPoint:
        return self[proc].entry

    def exit(self, proc: str) -> ProgramPoint:
        return self[proc].exit

    def all(self) -> Dict[str, CFG]:
        for proc in self._bodies:
            self[proc]
        return dict(self._cfgs)

    def total_points(self) -> int:
        return sum(len(self[proc]) for proc in self._bodies)


def program_cfgs(program: Program) -> ControlFlowGraphs:
    """The program's own :class:`ControlFlowGraphs`, built lazily once.

    For resident hosts that solve many times over one program (demand
    queries, batches).  Engines still default to a fresh instance, so a
    one-shot run holds its CFGs no longer than its result.
    """
    return program.memo("cfgs", lambda: ControlFlowGraphs(program))
