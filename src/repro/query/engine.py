"""Cone-restricted solves: answer one question, analyze one cone.

:func:`run_query` is the demand-driven counterpart of
:func:`repro.incremental.driver.analyze_with_store`.  It computes the
target's backward-slice cone (:mod:`repro.query.slice`), loads the
store snapshot for the *same* config fingerprint a whole-program
``analyze --store`` run would use, and runs the configured engine with
a **trimmed** warm start:

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

A resident host keeps one :class:`FrontierEntry` per store version in
a :class:`~repro.incremental.driver.WarmCache`, shared by every cone:
the frontier view plus memos of decoded contexts, decoded BU summaries
and SWIFT's instantiations of them.  The daemon's cache also holds the
analyze path's resident snapshot, which a new entry views instead of
reading the file again.  Each query gets a
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
from typing import FrozenSet, Optional, Tuple

from repro.framework.config import AnalysisConfig
from repro.framework.metrics import Budget
from repro.framework.session import analysis_session
from repro.incremental.codec import Codec
from repro.incremental.driver import _SHORT_DOMAINS, WarmCache, _snapshot_signature
from repro.incremental.fingerprint import (
    ProgramFingerprints,
    config_fingerprint,
    program_alias,
    program_fingerprints,
)
from repro.incremental.invalidate import (
    InvalidationPlan,
    WarmStart,
    diff_fingerprints,
)
from repro.incremental.store import (
    FrontierSnapshot,
    Snapshot,
    SummaryStore,
    project_frontier,
)
from repro.ir.cfg import ControlFlowGraphs, ProgramPoint, program_cfgs
from repro.ir.program import Program
from repro.query.slice import (
    QueryCone,
    QueryError,
    QueryTarget,
    TargetSpec,
    compute_cone,
    resolve_target,
)
from repro.typestate.client import make_analyses
from repro.typestate.dfa import TypestateProperty

#: The typed questions a demand query can ask.
QUERY_KINDS = ("errors", "summaries", "entries")


def encode_answer(kind: str, answer) -> list:
    """An answer as the strings it prints, in print order: ``[point,
    site]`` pairs for errors, ``[entry, exit]`` pairs for summaries,
    state strings for entries.  Summaries and entries sort by their
    printed text: a state's ``repr`` (inside a tuple's ``str``) shows
    frozensets in hash-seed-dependent order."""
    if kind == "errors":
        return [[str(point), site] for point, site in sorted(answer, key=str)]
    if kind == "summaries":
        return sorted([str(entry), str(exit_state)] for entry, exit_state in answer)
    return sorted(str(state) for state in answer)


#: The precision modes a query can run at: ``"td"`` pins the cone to
#: reference (top-down) precision; ``"swift"`` leaves BU triggers live
#: inside the cone (the engine's own hybrid verdict).
QUERY_PRECISIONS = ("td", "swift")

#: Process-level cache of :class:`FrontierEntry` objects, one per store
#: version, for hosts that pass no cache of their own.
_QUERY_CACHE = WarmCache(capacity=64)


def clear_query_cache() -> None:
    """Drop every cached frontier entry (tests, long-lived hosts)."""
    _QUERY_CACHE.clear()


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


def normalize_query_config(
    *,
    engine: str = "swift",
    k: int = 5,
    theta: int = 1,
    domain: str = "simple",
    budget: Optional[Budget] = None,
    tracked_sites: Optional[FrozenSet[str]] = None,
    enable_caches: bool = True,
    indexed_summaries: bool = True,
    scheduler: Optional[str] = None,
    sink=None,
    config: Optional[AnalysisConfig] = None,
) -> AnalysisConfig:
    """Fold the query keyword ladder into one validated config."""
    if config is None:
        config = AnalysisConfig(
            engine=engine,
            domain=domain,
            k=k,
            theta=theta,
            tracked_sites=tracked_sites,
            enable_caches=enable_caches,
            indexed_summaries=indexed_summaries,
            scheduler=scheduler if scheduler is not None else "lifo",
        )
    if budget is not None and config.budget is not budget:
        config = config.replace(budget=budget)
    if sink is not None and config.sink is not sink:
        config = config.replace(sink=sink)
    if config.engine not in ("td", "swift"):
        raise ValueError(
            f"demand queries support td and swift, not {config.engine!r}"
        )
    if config.domain not in _SHORT_DOMAINS:
        raise ValueError(
            f"demand queries are type-state only, not {config.domain!r}"
        )
    return config


def prepare_query_analysis(
    program: Program, prop: TypestateProperty, config: AnalysisConfig
):
    """The shared per-(program, prop, config) query machinery.

    Returns ``(oracle, fingerprints, config_fp, codec)``.  The store
    fingerprint is computed from the *user's* config — the same one a
    whole-program ``analyze --store`` run writes under — before any
    query-specific ``bu_triggers`` override.  The oracle and the
    program fingerprints are memoized on the program, so a resident
    host computes them once per program version.
    """
    domain_short = _SHORT_DOMAINS[config.domain]
    with_alias = domain_short == "full"
    oracle = program_alias(program)[0] if with_alias else None
    fingerprints = program_fingerprints(program, with_alias)
    _, config_fp = config_fingerprint(prop, config=config)
    _, bu_analysis, _ = make_analyses(
        program, prop, domain_short, config.tracked_sites, oracle
    )
    codec = Codec(domain_short, bu_analysis)
    return oracle, fingerprints, config_fp, codec


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
    signature = _snapshot_signature(store, config_fp)
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
class ConeSolve:
    """One finished cone-restricted engine run (shared by the single-
    target path and the batch planner's per-component solves)."""

    session_out: object = field(repr=False, default=None)
    result: object = field(repr=False, default=None)
    cold: bool = True
    frontier_snapshot: str = "cold"
    store_load_seconds: float = 0.0
    out_of_cone_interior_rows: int = 0


def solve_cone(
    program: Program,
    prop: TypestateProperty,
    store: SummaryStore,
    config: AnalysisConfig,
    config_fp: str,
    codec: Codec,
    fingerprints: ProgramFingerprints,
    oracle,
    cfgs: ControlFlowGraphs,
    cone: FrozenSet[str],
    frontier: FrozenSet[str],
    cache: WarmCache,
    query_precision: str = "td",
) -> ConeSolve:
    """Run one cone-restricted solve and account for its cost.

    ``cone`` is tabulated fresh; ``frontier`` is preloaded from the
    store snapshot's frontier view.
    """
    load_started = time.perf_counter()
    plan, warm, source = _load_query_warm(
        store, config_fp, fingerprints, codec, cone, frontier, cfgs, cache
    )
    store_load_seconds = time.perf_counter() - load_started

    session_out = analysis_session().run(
        program,
        config.replace(preload=warm, bu_triggers=(query_precision == "swift")),
        cfgs=cfgs,
        prop=prop,
        oracle=oracle,
    )
    result = session_out.result
    result.metrics.store_load_seconds += store_load_seconds

    out_rows = 0
    for point, pairs in result.td.items():
        if point.proc in cone:
            continue
        if point.index == 0 or point == cfgs.exit(point.proc):
            continue
        out_rows += len(pairs)

    return ConeSolve(
        session_out=session_out,
        result=result,
        cold=source == "cold",
        frontier_snapshot=source,
        store_load_seconds=store_load_seconds,
        out_of_cone_interior_rows=out_rows,
    )


def run_query(
    program: Program,
    prop: TypestateProperty,
    store: SummaryStore,
    target: TargetSpec,
    kind: str = "errors",
    engine: str = "swift",
    k: int = 5,
    theta: int = 1,
    domain: str = "simple",
    budget: Optional[Budget] = None,
    tracked_sites: Optional[FrozenSet[str]] = None,
    enable_caches: bool = True,
    indexed_summaries: bool = True,
    scheduler: Optional[str] = None,
    sink=None,
    config: Optional[AnalysisConfig] = None,
    warm_cache: Optional[WarmCache] = None,
    query_precision: str = "td",
) -> QueryOutcome:
    """Answer one demand query against ``program`` and ``store``.

    ``target`` is a procedure name, ``"proc:index"`` point spelling,
    :class:`~repro.ir.cfg.ProgramPoint`, or :class:`QueryTarget`.
    ``kind`` selects the question: ``"errors"`` ("can an error state
    reach the target?"), ``"summaries"`` (the target procedure's
    entry/exit summary pairs), ``"entries"`` (the entry states
    observed at the target procedure).  With the default
    ``query_precision="td"`` the verdict is at reference (top-down)
    precision regardless of ``engine``; ``"swift"`` leaves BU triggers
    live inside the cone — see the module docstring.

    The store is read with the fingerprint of the *user's* config, so
    snapshots populated by ``analyze --store`` (or the service) are
    what queries consume; an empty or fully-invalidated store degrades
    to solving the cone cold, never to an error.  Queries never save.
    """
    if kind not in QUERY_KINDS:
        raise QueryError(
            f"unknown query kind {kind!r}; expected one of {QUERY_KINDS}"
        )
    if query_precision not in QUERY_PRECISIONS:
        raise QueryError(
            f"unknown query precision {query_precision!r}; "
            f"expected one of {QUERY_PRECISIONS}"
        )
    config = normalize_query_config(
        engine=engine,
        k=k,
        theta=theta,
        domain=domain,
        budget=budget,
        tracked_sites=tracked_sites,
        enable_caches=enable_caches,
        indexed_summaries=indexed_summaries,
        scheduler=scheduler,
        sink=sink,
        config=config,
    )
    cache = warm_cache if warm_cache is not None else _QUERY_CACHE

    cfgs = program_cfgs(program)
    resolved = resolve_target(program, target, cfgs)
    cone = compute_cone(program, resolved)
    oracle, fingerprints, config_fp, codec = prepare_query_analysis(
        program, prop, config
    )

    if not cone.cone:
        # Unreachable from main: the whole-program analysis has no rows
        # at the target, so the empty answer is exact — and free.
        return QueryOutcome(
            kind=kind,
            target=resolved,
            answer=frozenset(),
            cone=cone,
            config_fp=config_fp,
            query_precision=query_precision,
        )

    solve = solve_cone(
        program,
        prop,
        store,
        config,
        config_fp,
        codec,
        fingerprints,
        oracle,
        cfgs,
        cone.cone,
        cone.frontier,
        cache,
        query_precision=query_precision,
    )
    metrics = solve.result.metrics

    return QueryOutcome(
        kind=kind,
        target=resolved,
        answer=_extract_answer(kind, resolved, solve.session_out),
        cone=cone,
        config_fp=config_fp,
        cold=solve.cold,
        store_hits=metrics.store_hits,
        store_misses=metrics.store_misses,
        store_invalidated=metrics.store_invalidated,
        total_work=metrics.total_work,
        out_of_cone_interior_rows=solve.out_of_cone_interior_rows,
        timed_out=solve.session_out.timed_out,
        store_load_seconds=solve.store_load_seconds,
        frontier_snapshot=solve.frontier_snapshot,
        query_precision=query_precision,
        result=solve.result,
    )
