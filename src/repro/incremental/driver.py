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

Repeated runs in one process (watch loops, benchmark drivers, the test
suite, the analysis service) keep the stored snapshot resident in one
:class:`WarmCache` per process (the daemon brings its own) keyed on
(store root, config fingerprint), with the snapshot file's identity
``(inode, mtime, size)`` validating each hit.  An entry holds the
snapshot — its header, segment text and the per-procedure entries
decoded so far — and the invalidation plan for the program
fingerprints it last served.  :func:`load_warm` is the one loader: the
same program is a plain hit; an edited program re-diffs against the
cached header — no read, no decode.  Each run then takes its own view
of the snapshot: ``analyze`` offered ``plan.valid``
(:func:`~repro.incremental.invalidate.build_warm_start`), a demand
cone offered its frontier (:mod:`repro.query.engine`).  Segments
decode when a run first asks for them, once per snapshot, whichever
path asks.  After a save the entry is replaced by the snapshot just
written, with no program served yet: its reused segments keep their
decoded entries, the re-encoded ones take the run's own objects, and
the signature is the one ``SummaryStore.save`` took from the file it
wrote (the locked file after an append, the temp file before a
rename), so a concurrent writer's file is never mistaken for ours.
Engines only read a view (a finite-domain run reads an activated
context in place, value mode copies its rows into its own tables), so
sharing a snapshot across runs — sequential or concurrent — is sound.
:func:`prepare_store_run` is the preamble both paths share.  The wall
time spent on load + diff + view is reported per run as
``Metrics.store_load_seconds``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import FrozenSet, NamedTuple, Optional, Tuple

from repro.framework.config import AnalysisConfig, make_config
from repro.framework.registry import DomainInstance
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
from repro.incremental.store import Snapshot, SummaryStore, file_signature
from repro.ir.program import Program
from repro.typestate.client import TypestateReport
from repro.typestate.dfa import TypestateProperty


class LruCache:
    """Bounded, thread-safe, true-LRU map with hit/miss/eviction counts.

    A hit refreshes recency (move-to-end); inserting over capacity
    evicts the least recently used entry.  One lock covers check +
    reorder + insert, so concurrent request threads can share a single
    instance without torn lookups.  The service daemon keeps its
    parsed programs and finished results in two of these.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def fetch(self, key, accept=None):
        """The value under ``key`` (a hit), or ``None`` (a miss) when
        there is none or ``accept(value)`` refuses it."""
        # A refused entry is left in place: the caller rebuilds it and
        # overwrites it via put().
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and (accept is None or accept(entry)):
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
            return None

    def put(self, key, value) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            elif len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = value

    def invalidate(self, key) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
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


class WarmCache(LruCache):
    """The :class:`LruCache` of resident snapshots.

    Keys are ``(store root, config fingerprint)``.  Each entry carries
    the file signature it was read from or written to and the program
    fingerprints its plan was diffed for: a rewrite of the store by
    another writer misses, an edited program is the caller's to re-diff
    (:func:`load_warm`).
    """

    def get(self, key: Tuple[str, str], signature) -> Optional[Tuple]:
        """``(fp_key, snapshot, plan)`` of the entry for the file with
        ``signature``, or ``None`` (a miss)."""
        entry = self.fetch(key, lambda entry: entry[0] == signature)
        return None if entry is None else entry[1:]

    def insert(self, key: Tuple[str, str], signature, fp_key, snapshot, plan) -> None:
        self.put(key, (signature, fp_key, snapshot, plan))


#: The process-level cache of resident snapshots; long-lived hosts (the
#: service daemon) construct their own bounded instance instead.
_WARM_CACHE = WarmCache(capacity=64)


def clear_warm_cache() -> None:
    """Drop every resident snapshot (tests, benchmarks)."""
    _WARM_CACHE.clear()


def load_warm(
    store: SummaryStore,
    config_fp: str,
    fingerprints: ProgramFingerprints,
    cache: WarmCache,
) -> Tuple[Optional[Snapshot], Optional[InvalidationPlan]]:
    """Load + diff, through the resident cache: ``(snapshot, plan)``, or
    ``(None, None)`` on a cold start.

    A resident snapshot whose file is unchanged is re-diffed when the
    program changed, never re-read; only a file rewritten by someone
    else (or none cached) is loaded from disk.  The snapshot is
    returned as-is: runs only read it through their views, which is
    what makes the share safe.
    """
    key = (str(store.root.resolve()), config_fp)
    fp_key = fingerprints.as_dict()
    snapshot = None
    signature = file_signature(store.path_for(config_fp))
    if signature is not None:
        entry = cache.get(key, signature)
        if entry is not None:
            cached_fp, snapshot, plan = entry
            if cached_fp == fp_key:
                return snapshot, plan
    if snapshot is None:
        snapshot = store.load(config_fp)
        if snapshot is None:
            cache.invalidate(key)
            return None, None
    plan = diff_fingerprints(snapshot.fingerprints, fingerprints)
    cache.insert(key, snapshot.signature, fp_key, snapshot, plan)
    return snapshot, plan


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
    bytes_written: int = 0  # what the save wrote: a log record, or a base
    plan: Optional[InvalidationPlan] = field(default=None, repr=False)


class StoreRun(NamedTuple):
    """What every store-backed run derives from (program, prop, config)
    before it touches the store: see :func:`prepare_store_run`."""

    instance: DomainInstance
    fingerprints: ProgramFingerprints
    config_desc: dict
    config_fp: str
    codec: Codec


def prepare_store_run(
    program: Program, prop: TypestateProperty, config: AnalysisConfig
) -> StoreRun:
    """The preamble shared by ``analyze_with_store``, ``run_query`` and
    ``run_query_batch``.

    Refuses (``ValueError``) a config the store cannot serve: the
    snapshot codec encodes type-state summaries, and a pure bottom-up
    run has no preload hook.  The config fingerprint is the *user's*
    config — demand queries read what ``analyze --store`` wrote under
    it, before any query-specific ``bu_triggers`` override.  The domain
    is built once here: the codec decodes with its bottom-up analysis,
    and every solve of the request runs on it.  The oracle and the
    program fingerprints are memoized on the program, so a resident
    host computes them once per program version.
    """
    if config.engine not in ("td", "swift"):
        raise ValueError(
            f"the summary store serves td and swift, not {config.engine!r}"
        )
    if config.domain not in Codec.DOMAINS:
        raise ValueError(
            f"the summary store is type-state only, not {config.domain!r}"
        )
    with_alias = config.domain == "typestate-full"
    oracle = program_alias(program)[0] if with_alias else None
    fingerprints = program_fingerprints(program, with_alias)
    config_desc, config_fp = config_fingerprint(prop, config=config)
    instance = analysis_session().build_domain(
        program, config, prop=prop, oracle=oracle
    )
    codec = Codec(config.domain, instance.bu_analysis)
    return StoreRun(instance, fingerprints, config_desc, config_fp, codec)


def analyze_with_store(
    program: Program,
    prop: TypestateProperty,
    store: SummaryStore,
    config: Optional[AnalysisConfig] = None,
    *,
    save: bool = True,
    meta: Optional[dict] = None,
    warm_cache: Optional[WarmCache] = None,
    **fields,
) -> IncrementalOutcome:
    """Run ``prop`` over ``program`` with a persistent summary store.

    The run is ``config``, or the :class:`AnalysisConfig` folded from
    keyword ``fields`` as in :func:`~repro.typestate.client.
    run_typestate` (the domain defaults to ``simple``); given fields
    override ``config`` (the service passes its parsed config plus a
    trace ``sink``).  Accepts the ``td`` and ``swift`` engines; a pure
    bottom-up run has no preload hook (its whole point is recomputing
    every summary), so ``engine="bu"`` raises ``ValueError``.
    ``warm_cache=`` selects the resident cache — defaults to the
    process-level one; a long-lived host passes its own bounded
    :class:`WarmCache` so eviction policy and stats stay per-host.
    """
    config = make_config(config, {"domain": "simple"}, **fields)
    cache = warm_cache if warm_cache is not None else _WARM_CACHE
    instance, fingerprints, config_desc, config_fp, codec = prepare_store_run(
        program, prop, config
    )

    load_started = time.perf_counter()
    snapshot, plan = load_warm(store, config_fp, fingerprints, cache)
    warm = None if snapshot is None else build_warm_start(snapshot, plan, codec)
    store_load_seconds = time.perf_counter() - load_started

    session_out = analysis_session().run(
        program, config.replace(preload=warm), instance=instance
    )
    report = TypestateReport.of(prop, config, session_out)
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
        # valid for the next run.  A changed snapshot is built with
        # every unchanged segment copied and appended to the file as a
        # log record over the snapshot it was built from (a base is
        # written instead when that is not possible), and the cache
        # entry is replaced by the snapshot just written.
        unchanged = (
            snapshot is not None
            and plan is not None
            and not plan.invalidated
            and not plan.added
            and metrics.total_work == 0
        )
        if unchanged:
            outcome.snapshot_path = str(store.path_for(config_fp))
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
            outcome.snapshot_path = str(store.save(new_snapshot, snapshot))
            outcome.bytes_written = new_snapshot.written
            outcome.segments_reused = len(new_snapshot.reused)
            outcome.segments_written = (
                len(new_snapshot.segments) - outcome.segments_reused
            )
            cache.insert(
                (str(store.root.resolve()), config_fp),
                new_snapshot.signature,
                None,  # no program served yet: the next load re-diffs
                new_snapshot,
                None,
            )
        outcome.saved = True
    return outcome
