"""Persistent summary store and incremental re-analysis.

Every ``repro-swift`` run today starts cold; summary-based analyses get
their scalability from reusing summaries *across* runs and program
versions.  This package adds that layer:

* :mod:`repro.incremental.fingerprint` — canonical, hash-seed-
  independent fingerprints of procedure bodies, transitive-callee
  cones, and the analysis configuration;
* :mod:`repro.incremental.codec` — canonical JSON encoding of abstract
  states, relations, predicates and summaries (simple + full domains);
* :mod:`repro.incremental.store` — the versioned on-disk
  :class:`SummaryStore` (JSONL snapshots with an append-only log,
  corrupt files fall back to cold);
* :mod:`repro.incremental.invalidate` — fingerprint diffing, the
  invalidation rule, the one segment decoder, and the lazy
  :class:`WarmStart` view the engines accept via their ``preload=``
  hook;
* :mod:`repro.incremental.driver` — the load → diff → warm-run → save
  loop behind ``repro-swift analyze --store DIR``.
"""

from repro.incremental.codec import Codec
from repro.incremental.driver import (
    IncrementalOutcome,
    LruCache,
    StoreRun,
    WarmCache,
    analyze_with_store,
    clear_warm_cache,
    load_warm,
    prepare_store_run,
)
from repro.incremental.fingerprint import (
    ProgramFingerprints,
    config_fingerprint,
)
from repro.incremental.invalidate import (
    InvalidationPlan,
    WarmStart,
    build_snapshot,
    build_warm_start,
    diff_fingerprints,
    stored_proc,
)
from repro.incremental.store import Snapshot, SummaryStore

__all__ = [
    "Codec",
    "IncrementalOutcome",
    "InvalidationPlan",
    "LruCache",
    "ProgramFingerprints",
    "Snapshot",
    "StoreRun",
    "SummaryStore",
    "WarmCache",
    "WarmStart",
    "analyze_with_store",
    "clear_warm_cache",
    "build_snapshot",
    "build_warm_start",
    "config_fingerprint",
    "diff_fingerprints",
    "load_warm",
    "prepare_store_run",
    "stored_proc",
]
