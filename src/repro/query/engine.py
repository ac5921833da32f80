"""Cone-restricted solves: answer one question, analyze one cone.

:func:`run_query` is the demand-driven counterpart of
:func:`repro.incremental.driver.analyze_with_store`.  It plans the
target as a batch of one (:func:`~repro.query.slice.plan_batch`, which
takes the target's backward-slice cone from
:func:`~repro.query.slice.compute_cone`), loads the store snapshot for
the *same* config fingerprint a whole-program ``analyze --store`` run
would use, and runs the configured engine with a **trimmed** warm
start:

* stored contexts and bottom-up summaries are preloaded **only for
  out-of-cone procedures** (and only when their fingerprints survived
  the invalidation diff), so every cone procedure is tabulated fresh;
* preloaded contexts keep only their entry and exit rows, with no call
  records — activation is O(rows) and spawns no children, because a
  frontier call only needs the callee's exit summaries;
* new bottom-up triggers are disabled (``bu_triggers=False``), so the
  cone itself is solved at full top-down precision whatever hybrid
  engine runs it.  ``query_precision="swift"`` lifts that pin: BU
  triggers stay live inside the cone, trading the reference-precision
  guarantee for SWIFT's own (sound) hybrid verdict.

Together (DESIGN §13) this makes the query verdict at the target equal
to the whole-program *reference* (top-down) verdict restricted to the
target — identical across engines and schedulers — while
the work counters stay proportional to the cone: the solve never
tabulates an out-of-cone interior point (``QueryOutcome.
out_of_cone_interior_rows`` proves it per run).

Warm starts read the same snapshot file ``analyze --store`` writes,
through the same lazy per-procedure view
(:class:`~repro.incremental.invalidate.WarmStart`, built here by
:func:`build_query_warm`): a procedure's segment is parsed only when a
run is offered it and asks, so decode cost scales with the frontier
instead of the program.  ``QueryOutcome.frontier_snapshot`` records
whether a snapshot was there (``"hit"``), not (``"cold"``), or never
looked for because the target is unreachable from ``main`` and nothing
was solved (``"none"``).

Queries never write the store: a cone solve is a partial fixpoint of
the whole program, and stored snapshots must be complete.

The process keeps one entry per store version in the
:class:`~repro.incremental.driver.WarmCache` the analyze path uses (the
daemon passes its own), loaded by the same
:func:`~repro.incremental.driver.load_warm`: the snapshot, whose
decoded segments, BU summaries and SWIFT instantiations of them are
memoized on it for every run — cone or whole-program.  Each query gets
a view *offered* ``stored ∩ cone.frontier ∩ plan.valid − cone`` — the
view checks that set before serving anything from the shared memo, so
a procedure inside this cone is never answered from what an earlier
run decoded.  Work and store counters are those of a fresh-cache run
(DESIGN §13).  The program's CFGs, fingerprints and
points-to facts are memoized on the :class:`~repro.ir.program.Program`
(:func:`~repro.ir.cfg.program_cfgs`,
:func:`~repro.incremental.fingerprint.program_fingerprints`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.framework.config import AnalysisConfig, make_config
from repro.framework.session import analysis_session
from repro.incremental.codec import Codec
from repro.incremental.driver import (
    _WARM_CACHE,
    StoreRun,
    WarmCache,
    load_warm,
    prepare_store_run,
)
from repro.incremental.invalidate import InvalidationPlan, WarmStart
from repro.incremental.store import Snapshot, SummaryStore
from repro.ir.cfg import ControlFlowGraphs, program_cfgs
from repro.ir.program import Program
from repro.query.slice import (
    BatchComponent,
    BatchPlan,
    QueryCone,
    QueryError,
    QueryTarget,
    TargetSpec,
    plan_batch,
)
from repro.typestate.client import QUERY_KINDS, QUERY_PRECISIONS
from repro.typestate.dfa import TypestateProperty

def check_query_mode(kind: str, query_precision: str) -> None:
    """Refuse an unknown query kind or precision (:class:`QueryError`)."""
    if kind not in QUERY_KINDS:
        raise QueryError(
            f"unknown query kind {kind!r}; expected one of {QUERY_KINDS}"
        )
    if query_precision not in QUERY_PRECISIONS:
        raise QueryError(
            f"unknown query precision {query_precision!r}; "
            f"expected one of {QUERY_PRECISIONS}"
        )


@dataclass
class QueryOutcome:
    """One answered demand query, with the evidence for its cost."""

    kind: str
    target: QueryTarget
    answer: FrozenSet  # kind-shaped: error pairs / summary pairs / states
    cone: QueryCone = field(repr=False, default=None)
    config_fp: str = ""
    cold: bool = True  # no usable snapshot existed
    store_hits: int = 0
    store_misses: int = 0
    store_invalidated: int = 0
    total_work: int = 0
    #: td rows at out-of-cone points other than entry/exit — always 0
    #: when frontier calls were answered from the store; >0 only for
    #: procedures the solve had to tabulate cold.
    out_of_cone_interior_rows: int = 0
    timed_out: bool = False
    store_load_seconds: float = 0.0
    #: ``"hit"`` — the warm start came from the stored snapshot;
    #: ``"cold"`` — no usable store data; ``"none"`` — nothing solved.
    frontier_snapshot: str = "cold"
    query_precision: str = "td"
    result: object = field(repr=False, default=None)  # raw engine result

    @property
    def cone_size(self) -> int:
        return self.cone.size if self.cone is not None else 0

    @property
    def frontier_size(self) -> int:
        return len(self.cone.frontier) if self.cone is not None else 0


def build_query_warm(
    snapshot: Snapshot,
    plan: InvalidationPlan,
    codec: Codec,
    cfgs: ControlFlowGraphs,
    cone: FrozenSet[str],
    wanted: FrozenSet[str],
) -> WarmStart:
    """One cone's view of a resident snapshot, as a warm start.

    The cone is *offered* exactly the stored procedures it can consume:
    ``stored ∩ wanted ∩ plan.valid − cone``, where ``wanted`` is the
    cone's frontier; contexts come cut to their entry/exit rows with no
    call records (``cfgs`` gives the exit indices).  Nothing is parsed
    or decoded here: the solve pulls the segments it demands through the
    snapshot's one decoder, and whatever an earlier run — a cone or a
    whole-program analyze — already decoded is served from the
    snapshot's memo.  On shapes where stored BU summaries answer every
    frontier call, the context rows never materialize at all.
    """
    segments, valid = snapshot.segments, plan.valid
    offered = frozenset(
        proc for proc in wanted
        if proc in segments and proc in valid and proc not in cone
    )
    return WarmStart(snapshot, codec, offered, plan.invalidated, cfgs)


#: The cone view under its earlier name; resolved by name by the
#: end-to-end benchmark's tracer (benchmarks/e2e/trace.py).
build_query_warm_from_frontier = build_query_warm


def _extract_answer(kind: str, target: QueryTarget, session_out) -> FrozenSet:
    """The kind-shaped answer from a finished cone solve."""
    if kind == "errors":
        return frozenset(
            (point, site)
            for point, site in session_out.findings
            if target.covers(point)
        )
    result = session_out.result
    if kind == "summaries":
        return frozenset(result.summaries(target.proc))
    return frozenset(result.incoming_states(target.proc))


@dataclass
class ComponentOutcome:
    """What one plan component's cone solve did (or why it was skipped)."""

    index: int
    targets: Tuple[QueryTarget, ...]
    cone_size: int
    frontier_size: int
    solved: bool = False  # False ⇒ empty solve cone, zero-cost answer
    cold: bool = False
    frontier_snapshot: str = "none"
    store_load_seconds: float = 0.0
    store_hits: int = 0
    store_misses: int = 0
    store_invalidated: int = 0
    total_work: int = 0
    out_of_cone_interior_rows: int = 0
    timed_out: bool = False
    session_out: object = field(repr=False, default=None)  # the finished run


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


def solve_cone(
    program: Program,
    store: SummaryStore,
    config: AnalysisConfig,
    run: StoreRun,
    cfgs: ControlFlowGraphs,
    component: BatchComponent,
    cache: WarmCache,
    query_precision: str = "td",
) -> ComponentOutcome:
    """Run one component's cone-restricted solve and account for its cost.

    The solve cone is tabulated fresh; its frontier is preloaded from
    the resident store snapshot through a cone view
    (:func:`build_query_warm`).  ``run`` is the config's
    :func:`~repro.incremental.driver.prepare_store_run` preamble, whose
    domain the solve runs on.  A component with an empty solve cone is
    not run at all.
    """
    outcome = ComponentOutcome(
        index=component.index,
        targets=component.targets,
        cone_size=len(component.solve_cone),
        frontier_size=len(component.frontier),
    )
    if not component.solvable:
        return outcome
    cone = component.solve_cone
    load_started = time.perf_counter()
    snapshot, plan = load_warm(store, run.config_fp, run.fingerprints, cache)
    warm = None
    if snapshot is not None:
        warm = build_query_warm(
            snapshot, plan, run.codec, cfgs, cone, component.frontier
        )
    store_load_seconds = time.perf_counter() - load_started

    session_out = analysis_session().run(
        program,
        config.replace(preload=warm, bu_triggers=(query_precision == "swift")),
        cfgs=cfgs,
        instance=run.instance,
    )
    metrics = session_out.result.metrics
    metrics.store_load_seconds += store_load_seconds

    out_rows = 0
    for point, pairs in session_out.result.td.items():
        if point.proc in cone:
            continue
        if point.index == 0 or point == cfgs.exit(point.proc):
            continue
        out_rows += len(pairs)

    outcome.solved = True
    outcome.cold = warm is None
    outcome.frontier_snapshot = "cold" if warm is None else "hit"
    outcome.store_load_seconds = store_load_seconds
    outcome.store_hits = metrics.store_hits
    outcome.store_misses = metrics.store_misses
    outcome.store_invalidated = metrics.store_invalidated
    outcome.total_work = metrics.total_work
    outcome.out_of_cone_interior_rows = out_rows
    outcome.timed_out = session_out.timed_out
    outcome.session_out = session_out
    return outcome


def _answer(
    program: Program,
    prop: TypestateProperty,
    store: SummaryStore,
    targets: Sequence[TargetSpec],
    kind: str,
    config: Optional[AnalysisConfig],
    warm_cache: Optional[WarmCache],
    query_precision: str,
    fields: dict,
) -> BatchOutcome:
    """Plan ``targets``, solve each solvable component, read the answers.

    The one demand path under :func:`run_query` (a plan of one target)
    and :func:`~repro.query.batch.run_query_batch`.
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
    for component in plan.components:
        record = solve_cone(
            program, store, config, run, cfgs, component, cache,
            query_precision=query_precision,
        )
        outcome.components.append(record)
        for target in component.targets:
            if record.session_out is None:
                # Unreachable from main: the whole-program analysis has
                # no rows at the target, so the empty answer is exact —
                # for every kind — and free.
                outcome.answers[target] = frozenset()
            else:
                outcome.answers[target] = _extract_answer(
                    kind, target, record.session_out
                )
    return outcome


def run_query(
    program: Program,
    prop: TypestateProperty,
    store: SummaryStore,
    target: TargetSpec,
    kind: str = "errors",
    config: Optional[AnalysisConfig] = None,
    *,
    warm_cache: Optional[WarmCache] = None,
    query_precision: str = "td",
    **fields,
) -> QueryOutcome:
    """Answer one demand query against ``program`` and ``store``.

    ``target`` is a procedure name, ``"proc:index"`` point spelling,
    :class:`~repro.ir.cfg.ProgramPoint`, or :class:`QueryTarget`.
    ``kind`` selects the question: ``"errors"`` ("can an error state
    reach the target?"), ``"summaries"`` (the target procedure's
    entry/exit summary pairs), ``"entries"`` (the entry states
    observed at the target procedure).  The run is ``config`` or the
    config folded from keyword ``fields``, as for
    :func:`~repro.incremental.driver.analyze_with_store`.  With the
    default ``query_precision="td"`` the verdict is at reference
    (top-down) precision regardless of the engine; ``"swift"`` leaves
    BU triggers live inside the cone — see the module docstring.

    The store is read with the fingerprint of the *user's* config, so
    snapshots populated by ``analyze --store`` (or the service) are
    what queries consume; an empty or fully-invalidated store degrades
    to solving the cone cold, never to an error.  Queries never save.
    The query is a one-target batch plan: its answer and its work and
    store counters are those of
    :func:`~repro.query.batch.run_query_batch` on ``[target]``.
    """
    batch = _answer(
        program, prop, store, [target], kind, config, warm_cache,
        query_precision, fields,
    )
    (component,) = batch.components
    (resolved,) = component.targets
    session_out = component.session_out
    return QueryOutcome(
        kind=kind,
        target=resolved,
        answer=batch.answers[resolved],
        cone=batch.plan.cones[resolved],
        config_fp=batch.config_fp,
        cold=component.cold,
        store_hits=component.store_hits,
        store_misses=component.store_misses,
        store_invalidated=component.store_invalidated,
        total_work=component.total_work,
        out_of_cone_interior_rows=component.out_of_cone_interior_rows,
        timed_out=component.timed_out,
        store_load_seconds=component.store_load_seconds,
        frontier_snapshot=component.frontier_snapshot,
        query_precision=query_precision,
        result=None if session_out is None else session_out.result,
    )
