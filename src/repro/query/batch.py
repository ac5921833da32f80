"""Batch demand-query planning: N targets, one solve per component.

Answering N point queries with N independent :func:`~repro.query.
engine.run_query` calls re-solves every procedure shared between the
targets' cones — on a wide-fanout program, ``main`` (the widest cone
member) is tabulated once *per target*.  The batch planner removes
that duplication without touching the per-target verdicts:

1. **Union the caller closures.**  For every target, take the
   transitive-caller closure of its SCC over the call graph
   condensation (:mod:`repro.callgraph.scc`) — *without* the
   reachable-from-``main`` restriction yet.  The restriction comes
   later, per component; applying it first would glue every reachable
   target's closure together through ``main`` and defeat the
   partition.
2. **Partition into connected components.**  Two closures that share
   an SCC (or touch through a call edge inside the union) must be
   solved together — their cones overlap, and one warm-start solve
   covers both.  Closures with no connection stay separate: a target
   in a detached subsystem (unreachable from ``main``) never pays for
   the main program's cone.
3. **One cone solve per component.**  A component's *solve cone* is
   its procedures ∩ reachable-from-``main`` — exactly the union of
   its targets' individual cones (a caller of any member that main
   reaches is itself a transitive caller inside the closure, so the
   solve cone is caller-closed within the reachable program, the
   property the single-query soundness argument needs).  Components
   whose solve cone is empty hold only unreachable targets: their
   answer is the exact empty verdict at zero cost.  Each solve runs
   through the same :func:`~repro.query.engine.solve_cone` machinery
   as a single query — snapshot frontier-view warm start, pinned-TD or
   SWIFT precision — and every target reads its verdict out of its
   component's one finished result via the same answer extraction.

Per-target answers are therefore byte-identical to per-target
``run_query`` (property-tested and fuzzed), while shared cone work is
solved once — ``BatchOutcome`` carries the per-component counters
(``batch_components``, solve counts, ``frontier_snapshot_hits``,
per-target attribution) that prove it.  Components solve one after
another: any two main-reachable targets share ``main``, so at most one
component of a batch has a non-empty solve cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.callgraph.scc import condensation
from repro.framework.config import AnalysisConfig, make_config
from repro.incremental.driver import _WARM_CACHE, WarmCache, prepare_store_run
from repro.ir.cfg import ControlFlowGraphs, program_cfgs
from repro.ir.program import Program
from repro.query.engine import _extract_answer, check_query_mode, solve_cone
from repro.query.slice import (
    QueryError,
    QueryTarget,
    TargetSpec,
    resolve_target,
)
from repro.typestate.dfa import TypestateProperty


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

    Deterministic: component membership comes from set reachability
    over the (deterministically numbered) condensation, components are
    ordered by their smallest member SCC index, and duplicate target
    specs collapse to one resolved target.
    """
    if not targets:
        raise QueryError("empty batch: need at least one query target")
    if cfgs is None:
        cfgs = ControlFlowGraphs(program)
    resolved: List[QueryTarget] = []
    seen_targets = set()
    for spec in targets:
        target = resolve_target(program, spec, cfgs)
        if target not in seen_targets:
            seen_targets.add(target)
            resolved.append(target)

    cond = condensation(program)
    n = len(cond)
    reverse: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in cond.callee_sccs(i):
            reverse[j].append(i)

    # Caller closure (SCC indices) per distinct target component.
    closures: Dict[int, FrozenSet[int]] = {}
    for target in resolved:
        start = cond.scc_index(target.proc)
        if start in closures:
            continue
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in reverse[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        closures[start] = frozenset(seen)

    union: FrozenSet[int] = frozenset().union(*closures.values())

    # Weakly connected components of the union under condensation
    # edges (both directions, restricted to the union).
    component_of_scc: Dict[int, int] = {}
    component_sccs: List[List[int]] = []
    for seed in sorted(union):
        if seed in component_of_scc:
            continue
        comp_index = len(component_sccs)
        members = [seed]
        component_of_scc[seed] = comp_index
        stack = [seed]
        while stack:
            i = stack.pop()
            for j in list(cond.callee_sccs(i)) + reverse[i]:
                if j in union and j not in component_of_scc:
                    component_of_scc[j] = comp_index
                    members.append(j)
                    stack.append(j)
        component_sccs.append(sorted(members))

    reachable = program.reachable_from(program.main)
    grouped: Dict[int, List[QueryTarget]] = {}
    for target in resolved:
        grouped.setdefault(
            component_of_scc[cond.scc_index(target.proc)], []
        ).append(target)

    components: List[BatchComponent] = []
    for comp_index, sccs in enumerate(component_sccs):
        procs = frozenset(
            proc for i in sccs for proc in cond.members(i)
        )
        cone = procs & reachable
        frontier = frozenset(
            callee
            for proc in cone
            for callee in program.callees(proc)
            if callee not in cone
        )
        components.append(
            BatchComponent(
                index=comp_index,
                targets=tuple(grouped.get(comp_index, ())),
                procs=procs,
                solve_cone=cone,
                frontier=frontier,
            )
        )
    return BatchPlan(
        targets=tuple(resolved),
        components=tuple(components),
        reachable=reachable,
    )


@dataclass
class ComponentOutcome:
    """What one component's solve did (or why it was skipped)."""

    index: int
    targets: Tuple[QueryTarget, ...]
    cone_size: int
    frontier_size: int
    solved: bool = False  # False ⇒ empty solve cone, zero-cost answer
    cold: bool = False
    frontier_snapshot: str = "none"
    store_load_seconds: float = 0.0
    total_work: int = 0
    out_of_cone_interior_rows: int = 0
    timed_out: bool = False


@dataclass
class BatchOutcome:
    """N answered targets out of ``n_solves`` cone solves."""

    kind: str
    config_fp: str
    plan: BatchPlan = field(repr=False, default=None)
    answers: Dict[QueryTarget, FrozenSet] = field(default_factory=dict)
    components: List[ComponentOutcome] = field(default_factory=list)
    query_precision: str = "td"

    def answer_for(self, target: TargetSpec) -> FrozenSet:
        if isinstance(target, QueryTarget):
            return self.answers[target]
        for resolved, answer in self.answers.items():
            if str(resolved) == str(target).strip():
                return answer
        raise KeyError(f"target {target} not in this batch")

    @property
    def batch_components(self) -> int:
        return len(self.components)

    @property
    def solves(self) -> int:
        return sum(1 for c in self.components if c.solved)

    @property
    def frontier_snapshot_hits(self) -> int:
        return sum(1 for c in self.components if c.frontier_snapshot == "hit")

    @property
    def total_work(self) -> int:
        return sum(c.total_work for c in self.components)

    @property
    def store_load_seconds(self) -> float:
        return sum(c.store_load_seconds for c in self.components)

    @property
    def out_of_cone_interior_rows(self) -> int:
        return sum(c.out_of_cone_interior_rows for c in self.components)

    @property
    def cold(self) -> bool:
        return any(c.cold for c in self.components if c.solved)

    @property
    def timed_out(self) -> bool:
        return any(c.timed_out for c in self.components)

    def attribution(self) -> List[dict]:
        """Per-target rows: which component answered each target."""
        by_index = {c.index: c for c in self.components}
        rows = []
        for target in self.plan.targets:
            component = self.plan.component_of(target)
            outcome = by_index[component.index]
            rows.append(
                {
                    "target": str(target),
                    "component": component.index,
                    "cone": outcome.cone_size,
                    "solved": outcome.solved,
                    "answer_size": len(self.answers[target]),
                }
            )
        return rows


def run_query_batch(
    program: Program,
    prop: TypestateProperty,
    store,
    targets: Sequence[TargetSpec],
    kind: str = "errors",
    config: Optional[AnalysisConfig] = None,
    *,
    warm_cache: Optional[WarmCache] = None,
    query_precision: str = "td",
    **fields,
) -> BatchOutcome:
    """Answer a batch of demand queries with one solve per component.

    Takes its configuration as :func:`~repro.query.engine.run_query`
    does; every target's answer is byte-identical to what the
    single-target path returns for it.  Queries never save.
    """
    check_query_mode(kind, query_precision)
    config = make_config(config, {"domain": "simple"}, **fields)
    run = prepare_store_run(program, prop, config)
    cache = warm_cache if warm_cache is not None else _WARM_CACHE

    cfgs = program_cfgs(program)
    plan = plan_batch(program, targets, cfgs)

    outcome = BatchOutcome(
        kind=kind,
        config_fp=run.config_fp,
        plan=plan,
        query_precision=query_precision,
    )

    def solve_component(component: BatchComponent) -> ComponentOutcome:
        record = ComponentOutcome(
            index=component.index,
            targets=component.targets,
            cone_size=len(component.solve_cone),
            frontier_size=len(component.frontier),
        )
        if not component.solvable:
            return record
        solve = solve_cone(
            program,
            prop,
            store,
            config,
            run,
            cfgs,
            component.solve_cone,
            component.frontier,
            cache,
            query_precision=query_precision,
        )
        record.solved = True
        record.cold = solve.cold
        record.frontier_snapshot = solve.frontier_snapshot
        record.store_load_seconds = solve.store_load_seconds
        record.total_work = solve.result.metrics.total_work
        record.out_of_cone_interior_rows = solve.out_of_cone_interior_rows
        record.timed_out = solve.session_out.timed_out
        record.session_out = solve.session_out  # type: ignore[attr-defined]
        return record

    for record in map(solve_component, plan.components):
        outcome.components.append(record)
        session_out = getattr(record, "session_out", None)
        for target in record.targets:
            if session_out is None:
                # Unreachable target: the exact empty answer, for every
                # kind — matching run_query's empty-cone short-circuit.
                outcome.answers[target] = frozenset()
            else:
                outcome.answers[target] = _extract_answer(
                    kind, target, session_out
                )
    return outcome
