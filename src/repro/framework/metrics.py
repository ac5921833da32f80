"""Work counters and budgets.

The paper's evaluation reports wall-clock times on HotSpot and declares
a run failed when it exceeds 24 hours or 16 GB (Table 2, "timeout").
This reproduction runs on CPython over much smaller programs, so in
addition to wall-clock timing the engines maintain deterministic *work
counters* (transfer-function applications, relations created, summary
instantiations).  A :class:`Budget` bounds those counters so that the
paper's timeout rows reproduce deterministically and quickly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Dict, Optional

#: Canonical budget-kind names, shared by ``Budget.check`` (via
#: ``BudgetExceededError.kind``) and ``Budget.remaining`` so callers
#: can match the two without string guessing.
KIND_WORK = "total_work"
KIND_RELATIONS = "relations_created"
KIND_SECONDS = "seconds"

BUDGET_KINDS = (KIND_WORK, KIND_RELATIONS, KIND_SECONDS)


class BudgetExceededError(RuntimeError):
    """Raised by an engine when its work budget is exhausted.

    The experiment harness treats this as the paper's "timeout" outcome.
    ``what`` (alias ``kind``) is one of :data:`BUDGET_KINDS`.
    """

    def __init__(self, what: str, spent: float, limit: float) -> None:
        super().__init__(f"budget exceeded: {what} = {spent} > {limit}")
        self.what = what
        self.spent = spent
        self.limit = limit

    @property
    def kind(self) -> str:
        """The exhausted budget's kind, one of :data:`BUDGET_KINDS`."""
        return self.what


@dataclass
class Metrics:
    """Deterministic work counters shared by all engines."""

    transfers: int = 0  # trans(c) applications (top-down work)
    rtransfers: int = 0  # rtrans(c) applications (bottom-up work)
    compositions: int = 0  # rcomp applications
    relations_created: int = 0  # abstract relations materialized
    propagations: int = 0  # path edges propagated by tabulation
    summary_instantiations: int = 0  # bottom-up summaries applied at calls
    td_summary_reuses: int = 0  # tabulation cache hits at calls
    bu_triggers: int = 0  # run_bu invocations (SWIFT only)
    bu_postponements: int = 0  # run_bu triggers declined by postpone_unseen
    pruned_relations: int = 0  # relations dropped by prune
    # Memo-table traffic (framework.caching).  These are *not* part of
    # total_work: the work counters above count logical operator
    # applications whether or not the result came from a cache, so
    # Budget-driven timeouts are identical with caches on or off.  A
    # hit means the corresponding computation was skipped; computed
    # work = raw work - hits.
    transfer_cache_hits: int = 0
    transfer_cache_misses: int = 0
    rtransfer_cache_hits: int = 0
    rtransfer_cache_misses: int = 0
    rcompose_cache_hits: int = 0
    rcompose_cache_misses: int = 0
    # Summary-store traffic (repro.incremental).  Same rule as the memo
    # counters above: *not* part of total_work — a store hit means a
    # whole tabulation context was reconstructed instead of recomputed,
    # and warm/cold equivalence is asserted on the raw work counters.
    store_hits: int = 0  # preloaded contexts/summaries installed
    store_misses: int = 0  # lookups the store could not serve
    store_invalidated: int = 0  # procedures whose entries were discarded
    # Summary-store decode wall time (repro.incremental.driver); a
    # non-work observability metric, not part of total_work.
    store_load_seconds: float = 0.0

    def merge(self, other: "Metrics") -> None:
        """Fold ``other``'s counters into this one.

        Iterates the dataclass fields so a newly added counter family
        (the PR-1 cache counters and the store counters both postdate
        the original hand-written fold) can never be silently dropped
        by ``aggregate_metrics``.
        """
        for spec in fields(self):
            setattr(
                self, spec.name, getattr(self, spec.name) + getattr(other, spec.name)
            )

    @property
    def total_work(self) -> int:
        """A single scalar proxy for analysis cost.

        Counts *raw* (logical) operator applications — cache hits
        included — so the value is deterministic and independent of
        what the memo tables hold (their size bound, their eviction).
        """
        return (
            self.transfers
            + self.rtransfers
            + self.compositions
            + self.propagations
            + self.summary_instantiations
        )

    @property
    def cache_hits(self) -> int:
        """Total memo-table hits across all three operator caches."""
        return (
            self.transfer_cache_hits
            + self.rtransfer_cache_hits
            + self.rcompose_cache_hits
        )

    @property
    def cache_misses(self) -> int:
        return (
            self.transfer_cache_misses
            + self.rtransfer_cache_misses
            + self.rcompose_cache_misses
        )

    @property
    def computed_work(self) -> int:
        """``total_work`` minus the operator applications served from
        caches — the work actually executed this run."""
        return self.total_work - self.cache_hits


@dataclass
class Budget:
    """Limits on the work an engine may perform.

    ``None`` disables a limit.  ``check`` raises
    :class:`BudgetExceededError` once any limit is crossed.
    """

    max_work: Optional[int] = None
    max_relations: Optional[int] = None
    max_seconds: Optional[float] = None
    _started_at: float = field(default_factory=time.monotonic, repr=False)

    def restart_clock(self) -> None:
        self._started_at = time.monotonic()

    def check(self, metrics: Metrics) -> None:
        if self.max_work is not None and metrics.total_work > self.max_work:
            raise BudgetExceededError(KIND_WORK, metrics.total_work, self.max_work)
        if (
            self.max_relations is not None
            and metrics.relations_created > self.max_relations
        ):
            raise BudgetExceededError(
                KIND_RELATIONS, metrics.relations_created, self.max_relations
            )
        if self.max_seconds is not None:
            elapsed = time.monotonic() - self._started_at
            if elapsed > self.max_seconds:
                # Report the measured float, not a truncated int: a
                # 0.9s overrun used to surface as "0 > 0" noise.
                raise BudgetExceededError(
                    KIND_SECONDS, round(elapsed, 3), self.max_seconds
                )

    def remaining(self, metrics: Metrics) -> Dict[str, Optional[float]]:
        """Headroom left per budget kind, keyed like
        :class:`BudgetExceededError.kind` (:data:`BUDGET_KINDS`).

        ``None`` marks a disabled limit; exhausted kinds clamp at 0.
        """
        out: Dict[str, Optional[float]] = dict.fromkeys(BUDGET_KINDS)
        if self.max_work is not None:
            out[KIND_WORK] = max(0, self.max_work - metrics.total_work)
        if self.max_relations is not None:
            out[KIND_RELATIONS] = max(0, self.max_relations - metrics.relations_created)
        if self.max_seconds is not None:
            elapsed = time.monotonic() - self._started_at
            out[KIND_SECONDS] = max(0.0, round(self.max_seconds - elapsed, 3))
        return out
