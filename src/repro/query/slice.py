"""Query targets and backward-slice cones over the call graph.

The *cone* of a query target ``t`` is the set of procedures whose
analysis the answer at ``t`` can depend on from above::

    cone(t) = { q | t is reachable from q in the call graph }
              ∩ reachable_from(main)

i.e. the transitive callers of ``t`` (including ``t`` itself, and the
whole SCC of every caller), restricted to what ``main`` can reach at
all.  Both directions matter: a procedure that cannot reach ``t``
never contributes a context to it, and a "caller" that ``main`` cannot
reach never runs.  The cone is computed on the SCC condensation from
:mod:`repro.callgraph.scc` — reverse reachability over component
edges, then expanded back to members — so a target inside a recursive
SCC automatically pulls its whole cycle into the cone.

Because the cone is closed under callers, *no out-of-cone procedure
ever calls into the cone*: every call edge crossing the boundary
leaves it.  The procedures those edges land on are the cone's
``frontier`` — the out-of-cone direct callees of cone procedures —
and they are exactly the places a cone-restricted solve may satisfy
from stored summaries (see DESIGN §13 for the soundness argument).

:func:`plan_batch` plans the solves of any set of targets from their
cones: targets whose caller closures overlap share one solve of the
union of their cones.  A point query is the plan of one target.

Malformed targets raise :class:`UnknownTargetError` (a ``ValueError``
subclass), never an engine crash: queries arrive from CLI arguments
and service requests, so "no such procedure" is an answer, not a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.callgraph.scc import condensation
from repro.ir.cfg import ControlFlowGraphs, ProgramPoint, program_cfgs
from repro.ir.program import Program


class QueryError(ValueError):
    """A malformed or unanswerable demand query (typed, not a crash)."""


class UnknownTargetError(QueryError):
    """The query names a procedure or point the program does not have."""


@dataclass(frozen=True)
class QueryTarget:
    """A resolved query target: a procedure, or one point inside it.

    ``index=None`` targets the whole procedure (any point in it);
    an integer index targets the single point ``proc:index``.
    """

    proc: str
    index: Optional[int] = None

    def __str__(self) -> str:
        if self.index is None:
            return self.proc
        return f"{self.proc}:{self.index}"

    def point(self) -> Optional[ProgramPoint]:
        if self.index is None:
            return None
        return ProgramPoint(self.proc, self.index)

    def covers(self, point: ProgramPoint) -> bool:
        """Does this target include ``point``?"""
        if point.proc != self.proc:
            return False
        return self.index is None or point.index == self.index


TargetSpec = Union[QueryTarget, ProgramPoint, str]


def resolve_target(
    program: Program,
    spec: TargetSpec,
    cfgs: Optional[ControlFlowGraphs] = None,
) -> QueryTarget:
    """Parse and validate a target against ``program``.

    Accepts a :class:`QueryTarget`, a :class:`ProgramPoint`, or a
    string — ``"proc"`` for a whole procedure, ``"proc:index"`` for a
    single point (the same spelling ``ProgramPoint`` prints).  Raises
    :class:`UnknownTargetError` when the procedure does not exist or
    the index is outside the procedure's CFG.
    """
    if isinstance(spec, QueryTarget):
        proc, index = spec.proc, spec.index
    elif isinstance(spec, ProgramPoint):
        proc, index = spec.proc, spec.index
    elif isinstance(spec, str):
        text = spec.strip()
        if not text:
            raise UnknownTargetError("empty query target")
        proc, sep, idx_text = text.rpartition(":")
        if sep and proc:
            try:
                index = int(idx_text)
            except ValueError:
                raise UnknownTargetError(
                    f"bad point index {idx_text!r} in target {text!r}"
                ) from None
        else:
            proc, index = text, None
    else:
        raise UnknownTargetError(
            f"unsupported query target of type {type(spec).__name__}"
        )
    if proc not in program:
        raise UnknownTargetError(f"no procedure named {proc!r} in the program")
    if index is not None:
        if cfgs is None:
            cfgs = ControlFlowGraphs(program)
        n_points = len(cfgs[proc].points)
        if not 0 <= index < n_points:
            raise UnknownTargetError(
                f"point index {index} out of range for {proc!r} "
                f"(has points 0..{n_points - 1})"
            )
    return QueryTarget(proc, index)


@dataclass(frozen=True)
class QueryCone:
    """The slice of the program one query can observe.

    ``cone`` — procedures the solve must tabulate; ``frontier`` —
    out-of-cone procedures called directly from the cone (candidates
    for stored-summary reuse); ``reachable`` — everything ``main``
    reaches (cone ⊆ reachable); ``callers`` — the target's whole
    caller closure, before the ``reachable`` restriction (cone =
    callers ∩ reachable).  An empty cone means the target is
    unreachable from ``main``: the whole-program analysis has no rows
    there, so the query short-circuits to the safe empty answer.
    """

    target: QueryTarget
    cone: FrozenSet[str]
    frontier: FrozenSet[str]
    reachable: FrozenSet[str]
    callers: FrozenSet[str]

    @property
    def size(self) -> int:
        return len(self.cone)

    def out_of_cone(self) -> FrozenSet[str]:
        return self.reachable - self.cone


def _caller_sccs(program: Program) -> Tuple[Tuple[int, ...], ...]:
    """The condensation's reverse edges, built once per program."""

    def build():
        cond = condensation(program)
        reverse: List[List[int]] = [[] for _ in range(len(cond))]
        for i in range(len(cond)):
            for j in cond.callee_sccs(i):
                reverse[j].append(i)
        return tuple(map(tuple, reverse))

    return program.memo("caller_sccs", build)


def compute_cone(program: Program, target: QueryTarget) -> QueryCone:
    """The backward-slice cone of ``target`` (see module docstring)."""
    if target.proc not in program:
        raise UnknownTargetError(
            f"no procedure named {target.proc!r} in the program"
        )
    cond = condensation(program)
    reverse = _caller_sccs(program)
    start = cond.scc_index(target.proc)
    seen = {start}
    stack = [start]
    while stack:
        i = stack.pop()
        for j in reverse[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    callers = frozenset(proc for i in seen for proc in cond.members(i))
    reachable = program.memo(
        "reachable_from_main", lambda: program.reachable_from(program.main)
    )
    cone = callers & reachable
    frontier = frozenset(
        callee
        for proc in cone
        for callee in program.callees(proc)
        if callee not in cone
    )
    return QueryCone(target, cone, frontier, reachable, callers)


# -- batch planning ---------------------------------------------------------------------


@dataclass(frozen=True)
class BatchComponent:
    """One connected component of the batch's caller-closure union."""

    index: int
    targets: Tuple[QueryTarget, ...]  # targets answered by this solve
    procs: FrozenSet[str]  # closure members (may include unreachable)
    solve_cone: FrozenSet[str]  # procs ∩ reachable — what the solve tabulates
    frontier: FrozenSet[str]  # out-of-cone direct callees of the solve cone

    @property
    def solvable(self) -> bool:
        """Empty solve cone ⇒ every target is unreachable from main:
        the exact answer is empty and no engine run is needed."""
        return bool(self.solve_cone)


@dataclass(frozen=True)
class BatchPlan:
    """The solve schedule for one batch of targets."""

    targets: Tuple[QueryTarget, ...]  # resolved, input order, deduplicated
    components: Tuple[BatchComponent, ...]
    reachable: FrozenSet[str]
    cones: Mapping[QueryTarget, QueryCone]  # each target's own cone

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def n_solves(self) -> int:
        return sum(1 for c in self.components if c.solvable)

    def component_of(self, target: QueryTarget) -> BatchComponent:
        for component in self.components:
            if target in component.targets:
                return component
        raise KeyError(f"target {target} not in this plan")


def plan_batch(
    program: Program,
    targets: Sequence[TargetSpec],
    cfgs: Optional[ControlFlowGraphs] = None,
) -> BatchPlan:
    """Resolve ``targets`` and partition them into solve components.

    A point query is the plan of one target.  For N targets:

    1. **Caller closures.**  Each target's closure is its
       :func:`compute_cone`'s ``callers`` — *without* the
       reachable-from-``main`` restriction, which would glue every
       reachable target's closure together through ``main`` and defeat
       the partition.
    2. **Connected components.**  A closure is caller-closed, so a call
       edge between two closures has both ends in both: closures touch
       exactly where they overlap, and the union's connected
       components are the overlap classes.  Overlapping closures are
       solved together — one warm-start solve covers both cones.  A
       target in a detached subsystem (unreachable from ``main``)
       never pays for the main program's cone.
    3. **One solve cone per component**: the union of its targets'
       cones, with their frontiers minus that union as its frontier.
       It is caller-closed within the reachable program, the property
       the single-cone soundness argument needs (DESIGN §13).  A
       component whose solve cone is empty holds only unreachable
       targets: its answer is the exact empty verdict at zero cost.

    Deterministic: duplicate target specs collapse to one resolved
    target, a component lists its targets in input order, and
    components are ordered by their smallest member SCC index.
    """
    if not targets:
        raise QueryError("empty batch: need at least one query target")
    if cfgs is None:
        cfgs = program_cfgs(program)
    cones: Dict[QueryTarget, QueryCone] = {}
    for spec in targets:
        target = resolve_target(program, spec, cfgs)
        if target not in cones:
            cones[target] = compute_cone(program, target)

    groups: List[Set[str]] = []
    for cone in cones.values():
        procs = set(cone.callers)
        for group in [g for g in groups if not procs.isdisjoint(g)]:
            groups.remove(group)
            procs |= group
        groups.append(procs)
    scc_index = condensation(program).scc_index
    groups.sort(key=lambda procs: min(map(scc_index, procs)))

    components: List[BatchComponent] = []
    for index, procs in enumerate(groups):
        members = [cone for cone in cones.values() if cone.target.proc in procs]
        solve_cone = frozenset().union(*(cone.cone for cone in members))
        frontier = frozenset().union(*(cone.frontier for cone in members))
        components.append(
            BatchComponent(
                index=index,
                targets=tuple(cone.target for cone in members),
                procs=frozenset(procs),
                solve_cone=solve_cone,
                frontier=frontier - solve_cone,
            )
        )
    return BatchPlan(
        targets=tuple(cones),
        components=tuple(components),
        reachable=next(iter(cones.values())).reachable,
        cones=cones,
    )
