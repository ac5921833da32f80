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
through its *frontier view*
(:func:`~repro.incremental.store.project_frontier`): a procedure's
segment is parsed and projected to its entry/exit rows only when a
cone is offered that procedure, so decode cost scales with the
frontier instead of the program.  ``QueryOutcome.frontier_snapshot``
records whether a snapshot was there (``"hit"``) or not (``"cold"``).

Queries never write the store: a cone solve is a partial fixpoint of
the whole program, and stored snapshots must be complete.

The process keeps one :class:`FrontierEntry` per store version in the
:class:`~repro.incremental.driver.WarmCache` the analyze path uses (the
daemon passes its own), shared by every cone: the frontier view plus
memos of decoded contexts, decoded BU summaries and SWIFT's
instantiations of them.  A new entry views the analyze path's resident
snapshot instead of reading the file again.  Each query gets a
thin view *offered* ``available ∩ cone.frontier ∩ plan.valid − cone``
— the view checks that set before serving anything from a shared
memo, so a procedure inside this cone is never answered from what an
earlier cone decoded.  Work and store counters are those of a
fresh-cache run (DESIGN §13).  The program's CFGs, fingerprints and
points-to facts are memoized on the :class:`~repro.ir.program.Program`
(:func:`~repro.ir.cfg.program_cfgs`,
:func:`~repro.incremental.fingerprint.program_fingerprints`).
"""

from __future__ import annotations

import time
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.framework.config import AnalysisConfig, make_config
from repro.framework.session import analysis_session
from repro.incremental.codec import Codec
from repro.incremental.driver import (
    _WARM_CACHE,
    StoreRun,
    WarmCache,
    prepare_store_run,
)
from repro.incremental.fingerprint import ProgramFingerprints
from repro.incremental.invalidate import (
    InvalidationPlan,
    WarmStart,
    diff_fingerprints,
)
from repro.incremental.store import (
    FrontierSnapshot,
    Snapshot,
    SummaryStore,
    file_signature,
    project_frontier,
)
from repro.ir.cfg import ControlFlowGraphs, ProgramPoint, program_cfgs
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
    #: ``"cold"`` — no usable store data.
    frontier_snapshot: str = "cold"
    query_precision: str = "td"
    result: object = field(repr=False, default=None)  # raw engine result

    @property
    def cone_size(self) -> int:
        return self.cone.size if self.cone is not None else 0

    @property
    def frontier_size(self) -> int:
        return len(self.cone.frontier) if self.cone is not None else 0


class LazyWarmContext:
    """A :class:`WarmContext` whose rows decode on first activation.

    Engines consume contexts through duck typing (``proc`` / ``entry``
    / ``rows`` / ``records``), so a property suffices; the decoded rows
    are cached on the instance, which the :class:`WarmCache` shares
    across queries — steady state decodes each context at most once.
    """

    __slots__ = ("proc", "entry", "_codec", "_enc_rows", "_rows")

    #: Frontier contexts never carry call records (they cannot cascade).
    records: Tuple = ()

    def __init__(self, proc, entry, enc_rows, codec) -> None:
        self.proc = proc
        self.entry = entry
        self._codec = codec
        self._enc_rows = enc_rows
        self._rows = None

    @property
    def rows(self):
        rows = self._rows
        if rows is None:
            codec, proc = self._codec, self.proc
            rows = self._rows = [
                (ProgramPoint(proc, idx), codec.decode_state(enc))
                for idx, enc in self._enc_rows
            ]
        return rows


class LazyConeContexts:
    """``(proc, entry) -> context`` mapping parsing per procedure on demand.

    The top-down engine probes this only via ``.get`` (activation);
    a probe for a procedure the cone is offered projects that one
    segment and decodes its context *keys* — the rows stay lazy inside
    each :class:`LazyWarmContext`.  Procedures nobody calls cost
    nothing.  ``by_proc`` is the materialized-procedure memo of the
    store version's :class:`FrontierEntry`, shared by every cone's
    view; a probe checks this view's own ``offered`` set before
    touching it.  Concurrent probes may duplicate a parse, never
    corrupt one.
    """

    def __init__(
        self, frontier, codec, offered: FrozenSet[str], by_proc=None
    ) -> None:
        self._frontier = frontier
        self._codec = codec
        self._offered = offered
        self._by_proc: dict = {} if by_proc is None else by_proc

    def get(self, key, default=None):
        proc, entry = key
        if proc not in self._offered:
            return default
        by_entry = self._by_proc.get(proc)
        if by_entry is None:
            by_entry = self._by_proc.setdefault(proc, self._materialize(proc))
        return by_entry.get(entry, default)

    def _materialize(self, proc: str) -> dict:
        payload = self._frontier.payload(proc) or {}
        decode = self._codec.decode_state
        return {
            entry: LazyWarmContext(proc, entry, enc_rows, self._codec)
            for entry, enc_rows in (
                (decode(entry_enc), enc_rows)
                for entry_enc, enc_rows in payload.get("contexts", [])
            )
        }

    def __getitem__(self, key):
        got = self.get(key)
        if got is None:
            raise KeyError(key)
        return got

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def __bool__(self) -> bool:
        return bool(self._offered)

    def __len__(self) -> int:
        # Forces a full parse; nothing on the query path calls this.
        for proc in self._offered:
            if proc not in self._by_proc:
                self._by_proc[proc] = self._materialize(proc)
        return sum(len(self._by_proc[proc]) for proc in self._offered)


class LazySummaries(MutableMapping):
    """``proc -> ProcedureSummary`` decoding each summary on demand.

    Backed by the frontier view's ``bu_procs`` set, so membership,
    ``len``, and iteration are parse-free; only ``[]`` (and therefore
    ``.get``) decodes.  Engines adopt a :meth:`lazy_view` instead of
    copying: views share the encoded payloads, the decoded-value memo
    ``decoded`` and the instantiation memo ``instantiations`` of the
    store version's :class:`FrontierEntry`, but keep engine writes in a
    per-view overlay, so a run never leaks fresh summaries into the
    shared entry or a concurrently running sibling.

    The offered gate comes first: a summary decoded while ``P`` sat on
    an earlier cone's frontier is never served to a view whose cone
    contains ``P`` (that cone must tabulate ``P`` fresh).
    """

    def __init__(
        self,
        codec,
        frontier,
        offered,
        decoded=None,
        local=None,
        instantiations=None,
    ):
        self._codec = codec
        self._frontier = frontier
        self._offered = offered
        self.decoded = {} if decoded is None else decoded
        self.instantiations = {} if instantiations is None else instantiations
        self._local = {} if local is None else dict(local)

    def lazy_view(self) -> "LazySummaries":
        return LazySummaries(
            self._codec, self._frontier, self._offered,
            self.decoded, self._local, self.instantiations,
        )

    def get(self, proc, default=None):
        # The engine probes every call edge: no KeyError round trip.
        got = self._local.get(proc)
        if got is not None:
            return got
        if proc not in self._offered:
            return default
        got = self.decoded.get(proc)
        if got is not None:
            return got
        payload = self._frontier.payload(proc) or {}
        enc = payload.get("bu")
        if enc is None:
            return default
        return self.decoded.setdefault(proc, self._codec.decode_summary(enc))

    def __getitem__(self, proc):
        got = self.get(proc)
        if got is None:
            raise KeyError(proc)
        return got

    def __setitem__(self, proc, value) -> None:
        self._local[proc] = value

    def __delitem__(self, proc) -> None:
        raise NotImplementedError("warm summaries are never deleted")

    def __contains__(self, proc) -> bool:
        return proc in self._local or proc in self._offered

    def __iter__(self):
        yield from sorted(set(self._local) | self._offered)

    def __len__(self) -> int:
        return len(set(self._local) | self._offered)


class FrontierEntry:
    """One store version's frontier view, resident for every cone.

    The warm cache holds one entry per ``(store, config)``, snapshot
    signature and program fingerprints.  It keeps the
    :class:`~repro.incremental.store.FrontierSnapshot` view (every
    segment unparsed until a cone is offered its procedure), the
    invalidation plan against the program fingerprints it was built
    for, and three memos every cone's view shares:

    * ``contexts`` — materialized procedures' decoded context keys;
    * ``summaries`` — decoded bottom-up summaries;
    * ``instantiations`` — SWIFT's ``(callee, σ) -> outputs`` results
      for those summaries (``None`` when ``σ`` is ignored).

    Each memo value depends only on the stored segment it came from, so
    it holds for any cone that is offered that procedure.
    """

    __slots__ = ("frontier", "plan", "contexts", "summaries", "instantiations")

    def __init__(self, frontier: FrontierSnapshot, plan: InvalidationPlan):
        self.frontier = frontier
        self.plan = plan
        self.contexts: dict = {}
        self.summaries: dict = {}
        self.instantiations: dict = {}


def build_query_warm(
    snapshot: Snapshot,
    fingerprints: ProgramFingerprints,
    cfgs: ControlFlowGraphs,
) -> FrontierEntry:
    """A store version's resident entry, for the program of ``cfgs``.

    Diffs the snapshot's fingerprints against the program's and wraps
    the snapshot in its frontier view, keeping the program's exit
    indices for the projection.  Parses no segment: every cone's
    :func:`build_query_warm_from_frontier` view pulls what it needs.
    """
    exits = {proc: cfgs.exit(proc).index for proc in cfgs.program.names()}
    plan = diff_fingerprints(snapshot.fingerprints, fingerprints)
    return FrontierEntry(project_frontier(snapshot, exits), plan)


def build_query_warm_from_frontier(
    entry: FrontierEntry,
    codec: Codec,
    cone: FrozenSet[str],
    wanted: FrozenSet[str],
) -> WarmStart:
    """One cone's view of a resident frontier entry, as a warm start.

    The cone is *offered* exactly the stored procedures it can consume:
    ``available ∩ wanted ∩ plan.valid − cone``, where ``wanted`` is the
    cone's frontier.  Nothing is parsed or decoded here.  The solve
    pulls exactly the payloads it demands through
    :class:`LazyConeContexts` / :class:`LazySummaries` — on shapes
    where stored BU summaries answer every frontier call, the context
    rows never materialize at all — and whatever an earlier cone
    already decoded is served from the entry's memos.
    """
    plan, frontier = entry.plan, entry.frontier
    warm = WarmStart(invalidated=dict(plan.invalidated))
    offered = frozenset(
        proc for proc in wanted
        if proc in frontier.available and proc in plan.valid and proc not in cone
    )
    warm.contexts = LazyConeContexts(frontier, codec, offered, entry.contexts)
    warm.bu = LazySummaries(
        codec,
        frontier,
        offered & frontier.bu_procs,
        decoded=entry.summaries,
        instantiations=entry.instantiations,
    )
    return warm


def _load_query_warm(
    store: SummaryStore,
    config_fp: str,
    fingerprints: ProgramFingerprints,
    codec: Codec,
    cone: FrozenSet[str],
    wanted: FrozenSet[str],
    cfgs: ControlFlowGraphs,
    cache: WarmCache,
) -> Tuple[Optional[InvalidationPlan], Optional[WarmStart], str]:
    """Load + diff + view, through the decode cache.

    ``cone`` is the set of procedures the solve will tabulate fresh
    (excluded from the preload); ``wanted`` is the set whose stored
    rows the solve can consume — the cone's frontier.  Returns
    ``(plan, warm, source)`` with ``source`` ``"hit"``, or ``"cold"``
    when no usable snapshot exists (plan and warm are then ``None``).

    One :class:`FrontierEntry` per store version is cached under
    ``(store, config#demand:frontier)``, validated by the snapshot's
    file signature and the program fingerprints, so a store rewrite or
    program edit misses naturally.  On a miss the snapshot comes from
    the analyze path's resident entry in the same cache when that
    entry's signature still matches (the daemon shares one cache), and
    from a checksum-checked :meth:`SummaryStore.load` otherwise.
    """
    signature = file_signature(store.path_for(config_fp))
    if signature is None:
        return None, None, "cold"
    root = str(store.root.resolve())
    key = (root, f"{config_fp}#demand:frontier")
    fp_key = fingerprints.as_dict()
    hit = cache.lookup(key, signature, fp_key)
    if hit is not None:
        (entry,) = hit
    else:
        resident = cache.get((root, config_fp), signature)
        snapshot = resident[1] if resident is not None else store.load(config_fp)
        if snapshot is None:
            cache.invalidate(key)
            return None, None, "cold"
        entry = build_query_warm(snapshot, fingerprints, cfgs)
        cache.insert(key, snapshot.signature, fp_key, entry)
    warm = build_query_warm_from_frontier(entry, codec, cone, wanted)
    return entry.plan, warm, "hit"


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
    prop: TypestateProperty,
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
    the store snapshot's frontier view.  ``run`` is the config's
    :func:`~repro.incremental.driver.prepare_store_run` preamble.  A
    component with an empty solve cone is not run at all.
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
    _, warm, source = _load_query_warm(
        store, run.config_fp, run.fingerprints, run.codec, cone,
        component.frontier, cfgs, cache,
    )
    store_load_seconds = time.perf_counter() - load_started

    session_out = analysis_session().run(
        program,
        config.replace(preload=warm, bu_triggers=(query_precision == "swift")),
        cfgs=cfgs,
        prop=prop,
        oracle=run.oracle,
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
    outcome.cold = source == "cold"
    outcome.frontier_snapshot = source
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
            program, prop, store, config, run, cfgs, component, cache,
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
    solved = {}
    if component.solved:
        # An unreachable target keeps the cold, zero-cost defaults.
        solved = dict(
            cold=component.cold,
            store_hits=component.store_hits,
            store_misses=component.store_misses,
            store_invalidated=component.store_invalidated,
            total_work=component.total_work,
            out_of_cone_interior_rows=component.out_of_cone_interior_rows,
            timed_out=component.timed_out,
            store_load_seconds=component.store_load_seconds,
            frontier_snapshot=component.frontier_snapshot,
            result=component.session_out.result,
        )
    return QueryOutcome(
        kind=kind,
        target=resolved,
        answer=batch.answers[resolved],
        cone=batch.plan.cones[resolved],
        config_fp=batch.config_fp,
        query_precision=query_precision,
        **solved,
    )
