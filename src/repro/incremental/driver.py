"""The load → diff → warm-run → save loop.

:func:`analyze_with_store` is the incremental counterpart of
:func:`repro.typestate.client.run_typestate` and what
``repro-swift analyze --store DIR`` calls: it fingerprints the program
and configuration, loads the matching snapshot (if any), invalidates
stored entries whose body or cone changed, runs the engine with the
survivors as a warm start, and — when the run finished within budget —
writes the merged snapshot back.  Timed-out runs are never saved: a
stored context must be a *finished* fixpoint, and a partial table would
be trusted as complete by the next warm run.

Repeated warm runs in one process (watch loops, benchmark drivers, the
test suite, the analysis service) keep the stored snapshot resident in
a process-level cache (:class:`WarmCache`) keyed on (store root, config
fingerprint), with the snapshot file's identity ``(inode, mtime, size)``
validating each hit.  An entry holds the snapshot's header and segment
text, its decoded per-procedure entries, the frontier lines written
with it, and the :class:`WarmStart` built for the program fingerprints
it last served.  The same program is a plain hit; an edited program
re-diffs against the cached header and filters the decoded segments by
``plan.valid`` — no read, no decode.  After a save the entry is patched
in place: the new snapshot's reused segments keep their decoded
entries, the re-encoded ones take the run's own objects, and the
signature is the one ``SummaryStore.save`` took from its temp file, so
a concurrent writer's file is never mistaken for ours.  Engines never
mutate a ``WarmStart`` (activation copies rows into their own tables),
so sharing one across runs — sequential or concurrent — is sound.  The
cache is a true LRU behind one lock: hits refresh recency, insertion
over capacity evicts the least recently used entry, and every
operation is atomic, so the service daemon's request threads can
hammer one shared instance.  The wall time actually spent on load +
diff + decode is reported per run as ``Metrics.store_load_seconds``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.framework.config import AnalysisConfig
from repro.framework.metrics import Budget
from repro.framework.session import analysis_session
from repro.incremental.codec import Codec
from repro.incremental.fingerprint import (
    ProgramFingerprints,
    config_fingerprint,
    program_alias,
    program_fingerprints,
)
from repro.incremental.invalidate import (
    InvalidationPlan,
    build_snapshot,
    build_warm_start,
    diff_fingerprints,
)
from repro.incremental.store import (
    FrontierSnapshot,
    Snapshot,
    SummaryStore,
    file_signature,
    project_frontier,
)
from repro.ir.cfg import ControlFlowGraphs
from repro.ir.program import Program
from repro.typestate.client import TypestateReport, make_analyses
from repro.typestate.dfa import TypestateProperty

#: Canonical registry domain names back to the short spellings the
#: codec and ``make_analyses`` use.  ``analyze_with_store`` is
#: type-state only: the snapshot codec encodes type-state summaries.
_SHORT_DOMAINS = {
    "typestate-simple": "simple",
    "typestate-full": "full",
    "typestate-interval": "interval-typestate",
}


#: ``WarmCache._take`` wildcard: match any program fingerprints.
_ANY_PROGRAM = object()


class WarmCache:
    """Bounded, thread-safe, true-LRU cache of decoded warm starts.

    Keys are ``(store root, config fingerprint)``.  Each entry carries
    the file signature and program fingerprints it was built for, so a
    rewrite of the store by another writer misses naturally;
    :meth:`lookup` also misses on an edited program, while
    :meth:`get` leaves that check to the caller (the analyze path
    re-diffs a resident snapshot instead of re-reading it).  A hit
    refreshes recency (move-to-end); inserting over capacity evicts the
    least recently used entry.  One lock covers check + reorder +
    insert, so concurrent request threads can share a single instance
    without torn lookups.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, str], Tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Tuple[str, str], signature) -> Optional[Tuple]:
        """``(fp_key, *payload)`` of the entry for the file with
        ``signature``, or ``None`` (a miss)."""
        entry = self._take(key, signature, _ANY_PROGRAM)
        return None if entry is None else entry[1:]

    def lookup(
        self, key: Tuple[str, str], signature, fp_key
    ) -> Optional[Tuple]:
        """The cached payload when both the file signature and the
        program fingerprints match, else ``None`` (a miss)."""
        entry = self._take(key, signature, fp_key)
        return None if entry is None else entry[2:]

    def _take(self, key, signature, fp_key) -> Optional[Tuple]:
        # A stale entry counts as a miss but is left in place: the
        # caller re-decodes and overwrites it via insert().
        with self._lock:
            entry = self._entries.get(key)
            if (
                entry is not None
                and entry[0] == signature
                and (fp_key is _ANY_PROGRAM or entry[1] == fp_key)
            ):
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
            return None

    def insert(self, key: Tuple[str, str], signature, fp_key, *payload) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            elif len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = (signature, fp_key) + payload

    def invalidate(self, key: Tuple[str, str]) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


#: Process-level WarmStart decode cache; long-lived hosts (the service
#: daemon) construct their own bounded instance instead.
_WARM_CACHE = WarmCache(capacity=64)


def clear_warm_cache() -> None:
    """Drop every cached decoded warm start (tests, long-lived hosts)."""
    _WARM_CACHE.clear()


def _snapshot_signature(store: SummaryStore, config_fp: str):
    """File identity of the stored snapshot, or None when absent."""
    return file_signature(store.path_for(config_fp))


def _frontier_signature(store: SummaryStore, config_fp: str):
    """File identity of the stored frontier projection, or None."""
    return file_signature(store.frontier_path_for(config_fp))


def write_frontier(
    store: SummaryStore,
    snapshot: Snapshot,
    cfgs: ControlFlowGraphs,
    previous: Optional[FrontierSnapshot] = None,
):
    """Persist ``snapshot``'s entry/exit-only frontier projection.

    Called right after every snapshot save (and to backfill a missing
    projection next to a pre-existing snapshot), so demand queries can
    decode O(frontier) instead of O(program) — DESIGN §13.  ``cfgs``
    are the analyzed program's CFGs (the run's own).  ``previous`` is
    the projection written with the snapshot ``snapshot`` was built
    from; lines of reused segments are copied from it.  The projection
    is kept as ``snapshot.frontier``.
    """
    exits = {proc: cfgs.exit(proc).index for proc in cfgs.program.names()}
    frontier = project_frontier(snapshot, exits, previous)
    path = store.save_frontier(frontier)
    snapshot.frontier = frontier
    return path


def _load_warm(
    store: SummaryStore,
    config_fp: str,
    fingerprints: ProgramFingerprints,
    codec: Codec,
    cache: WarmCache,
):
    """Load + diff + decode, through the resident cache.

    Returns ``(snapshot, plan, warm)`` — all ``None``/``None``/``None``
    on a cold start.  A resident snapshot whose file is unchanged is
    re-diffed when the program changed, never re-read; only a file
    rewritten by someone else (or none cached) is loaded from disk.
    The cached ``WarmStart`` is returned as-is: engines only read it
    (context activation copies rows into the run's own tables), which
    is what makes the share safe.
    """
    key = (str(store.root.resolve()), config_fp)
    fp_key = fingerprints.as_dict()
    snapshot = None
    signature = _snapshot_signature(store, config_fp)
    if signature is not None:
        entry = cache.get(key, signature)
        if entry is not None:
            cached_fp, snapshot, plan, warm = entry
            if cached_fp == fp_key:
                return snapshot, plan, warm
    if snapshot is None:
        snapshot = store.load(config_fp)
        if snapshot is None:
            cache.invalidate(key)
            return None, None, None
    plan = diff_fingerprints(snapshot.fingerprints, fingerprints)
    warm = build_warm_start(snapshot, plan, codec)
    cache.insert(key, snapshot.signature, fp_key, snapshot, plan, warm)
    return snapshot, plan, warm


@dataclass
class IncrementalOutcome:
    """What one ``analyze --store`` run did, beyond the report itself."""

    report: TypestateReport
    config_fp: str
    cold: bool  # no usable snapshot existed
    store_hits: int
    store_misses: int
    store_invalidated: int
    valid: FrozenSet[str] = frozenset()  # procs whose stored entries survived
    invalidated: FrozenSet[str] = frozenset()
    added: FrozenSet[str] = frozenset()
    saved: bool = False
    snapshot_path: Optional[str] = None
    segments_written: int = 0  # procedures whose segment was encoded
    segments_reused: int = 0  # procedures whose segment text was copied
    plan: Optional[InvalidationPlan] = field(default=None, repr=False)


def analyze_with_store(
    program: Program,
    prop: TypestateProperty,
    store: SummaryStore,
    engine: str = "swift",
    k: int = 5,
    theta: int = 1,
    budget: Optional[Budget] = None,
    tracked_sites: Optional[FrozenSet[str]] = None,
    domain: str = "simple",
    enable_caches: bool = True,
    indexed_summaries: bool = True,
    scheduler: Optional[str] = None,
    sink=None,
    save: bool = True,
    meta: Optional[dict] = None,
    kernel: str = "object",
    widening_delay: int = 2,
    descending_iters: int = 0,
    config: Optional[AnalysisConfig] = None,
    warm_cache: Optional[WarmCache] = None,
) -> IncrementalOutcome:
    """Run ``prop`` over ``program`` with a persistent summary store.

    Accepts the ``td`` and ``swift`` engines; a pure bottom-up run has
    no preload hook (its whole point is recomputing every summary), so
    ``engine="bu"`` raises ``ValueError``.  ``kernel`` selects the
    operator representation exactly as in ``run_typestate`` (a warm
    start disables the mask solver but keeps the compiled rows).

    ``config=`` replaces the keyword ladder with a full
    :class:`AnalysisConfig` (the analysis service parses one from
    JSON): its identity fields — including the kernel and the
    scheduler — flow into the run and the store fingerprint;
    explicit ``budget``/``sink`` keywords still override its runtime
    fields.  ``warm_cache=`` selects the decode cache — defaults to
    the process-level one; a long-lived host passes its own bounded
    :class:`WarmCache` so eviction policy and stats stay per-host.
    """
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
            kernel=kernel,
            widening_delay=widening_delay,
            descending_iters=descending_iters,
        )
    if budget is not None and config.budget is not budget:
        config = config.replace(budget=budget)
    if sink is not None and config.sink is not sink:
        config = config.replace(sink=sink)
    if config.engine not in ("td", "swift"):
        raise ValueError(
            f"analyze_with_store supports td and swift, not {config.engine!r}"
        )
    domain_short = _SHORT_DOMAINS.get(config.domain)
    if domain_short is None:
        raise ValueError(
            f"analyze_with_store is type-state only, not {config.domain!r}"
        )
    cache = warm_cache if warm_cache is not None else _WARM_CACHE
    with_alias = domain_short == "full"
    oracle = program_alias(program)[0] if with_alias else None
    fingerprints = program_fingerprints(program, with_alias)
    config_desc, config_fp = config_fingerprint(prop, config=config)
    _, bu_analysis, _ = make_analyses(
        program, prop, domain_short, config.tracked_sites, oracle
    )
    codec = Codec(domain_short, bu_analysis)

    load_started = time.perf_counter()
    snapshot, plan, warm = _load_warm(
        store, config_fp, fingerprints, codec, cache
    )
    store_load_seconds = time.perf_counter() - load_started

    session_out = analysis_session().run(
        program, config.replace(preload=warm), prop=prop, oracle=oracle
    )
    report = TypestateReport(
        prop.name,
        config.engine,
        session_out.findings,
        session_out.td_summaries,
        session_out.bu_summaries,
        session_out.timed_out,
        session_out.result,
    )
    metrics = report.result.metrics
    metrics.store_load_seconds += store_load_seconds
    outcome = IncrementalOutcome(
        report=report,
        config_fp=config_fp,
        cold=snapshot is None,
        store_hits=metrics.store_hits,
        store_misses=metrics.store_misses,
        store_invalidated=metrics.store_invalidated,
        valid=plan.valid if plan else frozenset(),
        invalidated=frozenset(plan.invalidated) if plan else frozenset(),
        added=plan.added if plan else frozenset(fingerprints.body),
        plan=plan,
    )
    if save and not report.timed_out:
        # A warm run over an unchanged program would rebuild exactly the
        # snapshot it loaded: every stored entry survived the diff, and
        # zero deterministic work means every table row came from
        # activating stored contexts (a genuinely new context would
        # have cost at least one propagation).  Skipping the save keeps
        # the file's identity stable, so the resident cache entry stays
        # valid for the next run.  A changed snapshot is written with
        # every unchanged segment copied, and the cache entry is
        # replaced by the snapshot just written.
        unchanged = (
            snapshot is not None
            and plan is not None
            and not plan.invalidated
            and not plan.added
            and metrics.total_work == 0
        )
        if unchanged:
            outcome.snapshot_path = str(store.path_for(config_fp))
            # Backfill the frontier projection for snapshots written
            # before the projection existed (or whose projection was
            # swept), without disturbing the parent file's identity.
            if not store.frontier_path_for(config_fp).is_file():
                write_frontier(store, snapshot, report.result.cfgs)
        else:
            new_snapshot = build_snapshot(
                config_desc,
                config_fp,
                fingerprints,
                report.result,
                codec,
                previous=snapshot,
                meta=meta,
                warm=warm,
            )
            outcome.snapshot_path = str(store.save(new_snapshot))
            write_frontier(
                store,
                new_snapshot,
                report.result.cfgs,
                previous=snapshot.frontier if snapshot is not None else None,
            )
            outcome.segments_reused = len(new_snapshot.reused)
            outcome.segments_written = (
                len(new_snapshot.segments) - outcome.segments_reused
            )
            new_snapshot.payloads = {}  # resident: text and decoded only
            cache.insert(
                (str(store.root.resolve()), config_fp),
                new_snapshot.signature,
                None,  # no program served yet: the next lookup re-diffs
                new_snapshot,
                None,
                None,
            )
        outcome.saved = True
    return outcome
