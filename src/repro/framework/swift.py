"""The SWIFT hybrid engine — Algorithm 1 of the paper.

SWIFT runs the tabulation-based top-down analysis, but at every call
edge it first consults the table ``bu`` of bottom-up summaries:

* if the callee ``g`` has a bottom-up summary ``(R0, Σ0)`` and the
  current abstract state ``σ`` is not in the ignored set ``Σ0``
  (line 12), the summary is *instantiated* —
  ``Σ_out = {σ' | (σ, σ') ∈ γ†(R0)}`` — and the callee body is never
  re-analyzed (lines 13–14);
* otherwise the call is handled by ordinary tabulation (line 16), and
  afterwards SWIFT checks the trigger (line 17): once the number of
  distinct incoming abstract states of ``g`` recorded by the top-down
  analysis exceeds the threshold ``k`` and ``g`` has no bottom-up
  summary yet, it runs the pruned bottom-up analysis over every
  procedure reachable from ``g`` (``run_bu``, line 18), ranking cases
  against the incoming-state multisets observed so far and keeping at
  most ``theta`` cases per pruning step.

The implementation also reproduces the two heuristics discussed at the
end of Section 4: ``run_bu`` is postponed while some reachable
procedure has no recorded incoming abstract state (``postpone_unseen``),
and the ranking data is the whole-program incoming multiset of each
procedure (not the per-context one).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.framework.bottomup import BottomUpEngine, ProcedureSummary
from repro.framework.caching import RComposeCache, RTransferCache
from repro.framework.interfaces import BottomUpAnalysis, TopDownAnalysis
from repro.framework.metrics import Budget
from repro.framework.pruning import FrequencyPruner
from repro.framework.topdown import TopDownEngine, TopDownResult, sorted_states
from repro.framework.tracing import TraceEvent, TraceSink
from repro.ir.cfg import CFGEdge, ControlFlowGraphs
from repro.ir.program import Program

#: Sentinel distinguishing "not cached" from a cached None (fallback).
_CACHE_MISS = object()


class SwiftResult(TopDownResult):
    """Result of a SWIFT run: the top-down tables plus the ``bu`` map."""

    def __init__(
        self,
        base: TopDownResult,
        bu: Dict[str, ProcedureSummary],
    ) -> None:
        super().__init__(
            base.program,
            base.cfgs,
            base.td,
            base.entry_counts,
            base.metrics,
            timed_out=base.timed_out,
            call_records=base.call_records,
            activated=base.activated,
        )
        self.bu = bu

    def total_bu_relations(self) -> int:
        """Total number of bottom-up summaries (Table 2 statistic)."""
        return sum(s.case_count() for s in self.bu.values())

    def bu_procs(self) -> FrozenSet[str]:
        return frozenset(self.bu)


class SwiftEngine(TopDownEngine):
    """Algorithm 1: hybrid top-down / bottom-up analysis.

    Parameters
    ----------
    program, td_analysis:
        The program and the top-down analysis ``A`` it is analyzed with.
    bu_analysis:
        The bottom-up analysis ``B``; must satisfy conditions C1–C3
        w.r.t. ``td_analysis`` (see :mod:`repro.framework.conditions`).
    k:
        Trigger threshold: the bottom-up analysis of ``g`` starts once
        the top-down analysis has seen more than ``k`` distinct incoming
        abstract states for ``g``.
    theta:
        Maximum number of cases the pruned bottom-up analysis keeps.
    budget:
        A single budget bounding the combined top-down + bottom-up work.
    postpone_unseen:
        Postpone ``run_bu`` while some procedure reachable from the
        trigger has no recorded incoming state (Section 4).
    """

    def __init__(
        self,
        program: Program,
        td_analysis: TopDownAnalysis,
        bu_analysis: BottomUpAnalysis,
        k: int = 5,
        theta: int = 1,
        budget: Optional[Budget] = None,
        postpone_unseen: bool = True,
        refresh_existing: bool = False,
        pruner_factory=None,
        cfgs: Optional[ControlFlowGraphs] = None,
        sink: Optional[TraceSink] = None,
        preload=None,
        scheduler: str = "lifo",
        bu_triggers: bool = True,
        widening_delay: int = 2,
        descending_iters: int = 0,
    ) -> None:
        super().__init__(
            program,
            td_analysis,
            budget=budget,
            cfgs=cfgs,
            sink=sink,
            preload=preload,
            scheduler=scheduler,
            widening_delay=widening_delay,
            descending_iters=descending_iters,
        )
        if k < 1:
            raise ValueError("k must be at least 1")
        self.bu_analysis = bu_analysis
        self.k = k
        self.theta = theta
        # When False, preloaded summaries are still consulted but no
        # *new* bottom-up runs ever fire — the demand-driven query
        # engine relies on this to keep a cone solve at full top-down
        # precision while frontier calls are answered from the store.
        self.bu_triggers = bu_triggers
        self.postpone_unseen = postpone_unseen
        # Algorithm 1's run_bu recomputes every procedure reachable from
        # the trigger; by default we keep summaries computed by earlier
        # triggers (they stay sound — only their ranking data was
        # older).  Set refresh_existing=True for the literal behaviour.
        self.refresh_existing = refresh_existing
        # Hook for ablations: how run_bu builds its pruning operator.
        # Signature: (analysis, theta, incoming, metrics) -> PruneOperator.
        self.pruner_factory = pruner_factory or FrequencyPruner
        self.bu: Dict[str, ProcedureSummary] = {}
        self._bu_disabled: Set[str] = set()
        # reachable_from(root) is a fresh graph walk each call; a
        # postponed trigger re-checks the same root on every later call
        # edge, so cache the frozenset per root (the call graph is
        # immutable for the lifetime of a run).
        self._reachable_cache: Dict[str, FrozenSet[str]] = {}
        # Bottom-up operator caches shared across triggers, so a later
        # run_bu reuses compositions derived by an earlier one.
        self._bu_rtransfer_cache = RTransferCache(bu_analysis, self.metrics)
        self._bu_rcompose_cache = RComposeCache(bu_analysis, self.metrics)
        # Instantiation cache: (callee, sigma) -> outputs, or None when
        # sigma is in the summary's ignored set (top-down fallback).
        # Entries are only valid for the summary they were computed
        # against, so the cache is cleared whenever bu is updated.
        self._apply_cache: Dict[Tuple[str, object], Optional[FrozenSet]] = {}
        # Warm start (repro.incremental.invalidate.WarmStart): install
        # the stored bottom-up summaries the view offers immediately
        # (they answer call edges from the very first pop) and overlay
        # the stored incoming multisets onto the live ones so a freshly
        # triggered pruner ranks against realistic traffic.  Their
        # instantiations outlive this run: the snapshot keeps
        # (callee, sigma) -> outputs for every run over it, and only a
        # summary that *is* the stored one (``_stored_bu``) reads or
        # writes that memo — locally installed ones never do.
        self._stored_bu: Dict[str, ProcedureSummary] = {}
        self._shared_apply: Optional[Dict] = None
        self._rank_counts = self._entry_counts
        if preload is not None:
            self._stored_bu = preload.summaries()
            self.bu.update(self._stored_bu)
            self._shared_apply = preload.instantiations
            self._rank_counts = _MergedCounts(self._entry_counts, preload.ranks)

    # -- Algorithm 1, lines 9-20 -----------------------------------------------------
    def _handle_call(self, edge: CFGEdge, entry_sigma, sigma) -> None:
        callee = edge.label.proc
        summary = self.bu.get(callee)
        if summary is not None:
            key = (callee, sigma)
            outputs = self._apply_cache.get(key, _CACHE_MISS)
            cached = outputs is not _CACHE_MISS
            shared = None
            if not cached and self._shared_apply is not None:
                if self._stored_bu.get(callee) is summary:
                    shared = self._shared_apply
                    outputs = shared.get(key, _CACHE_MISS)
                    if outputs is not _CACHE_MISS:
                        # Counted as the instantiation it replaces, so
                        # every work counter matches a fresh run.
                        if outputs is not None:
                            self.metrics.summary_instantiations += len(
                                summary.relations
                            )
                        self._apply_cache[key] = outputs
            if outputs is _CACHE_MISS:
                if sigma in summary.ignored:
                    outputs = None
                else:
                    # Lines 12-14: instantiate the bottom-up summary.
                    collected = set()
                    for r in summary.relations:
                        self.metrics.summary_instantiations += 1
                        collected.update(self.bu_analysis.apply(r, sigma))
                    # Cached in canonical order so propagation order is
                    # hash-seed independent (see topdown.sorted_states).
                    outputs = tuple(sorted_states(collected))
                self._apply_cache[key] = outputs
                if shared is not None:
                    shared[key] = outputs
            if outputs is not None:
                if self._tracing:
                    self._sink.emit(
                        TraceEvent(
                            "summary_instantiated",
                            callee,
                            {
                                "state": str(sigma),
                                "outs": len(outputs),
                                "cached": cached,
                            },
                        )
                    )
                    self._cause = ("summary", edge.source, sigma, entry_sigma)
                for sigma_out in outputs:
                    self._propagate(edge.target, entry_sigma, sigma_out)
                return
        # Line 16: fall back to the top-down analysis.
        self._tabulate_call(edge, entry_sigma, sigma)
        # Lines 17-19: maybe trigger the bottom-up analysis.
        if not self.bu_triggers:
            return
        if callee in self.bu or callee in self._bu_disabled:
            return
        incoming = self._entry_counts.get(callee)
        if incoming is not None and len(incoming) > self.k:
            self._run_bu(callee)

    # -- run_bu ------------------------------------------------------------------------
    def _reachable(self, root: str) -> FrozenSet[str]:
        reachable = self._reachable_cache.get(root)
        if reachable is None:
            reachable = self._reachable_cache[root] = frozenset(
                self.program.reachable_from(root)
            )
        return reachable

    def _run_bu(self, root: str) -> None:
        """``bu := run_bu(Γ, θ, f, bu)`` over procedures reachable from ``root``."""
        reachable = self._reachable(root)
        if self.postpone_unseen:
            unseen = [proc for proc in reachable if not self._entry_counts.get(proc)]
            if unseen:
                # Section 4, first difficult scenario: without top-down
                # data for some reachable procedure the pruner cannot
                # identify its common cases — postpone until every
                # procedure has been entered at least once.
                self.metrics.bu_postponements += 1
                if self._tracing:
                    self._sink.emit(
                        TraceEvent("bu_postponed", root, {"unseen": sorted(unseen)})
                    )
                return
        targets = (
            reachable
            if self.refresh_existing
            else frozenset(p for p in reachable if p not in self.bu)
        )
        if not targets:
            return
        pruner = self.pruner_factory(
            self.bu_analysis,
            self.theta,
            incoming=self._rank_counts,
            metrics=self.metrics,
        )
        if self._tracing:
            # Custom pruner factories keep their 4-arg signature; the
            # sink is handed over post-construction (PruneOperator.sink).
            pruner.sink = self._sink
            self._sink.emit(
                TraceEvent("bu_trigger", root, {"targets": sorted(targets)})
            )
        engine = BottomUpEngine(
            self.program,
            self.bu_analysis,
            pruner=pruner,
            budget=self.budget,
            metrics=self.metrics,
            restart_clock=False,
            rtransfer_cache=self._bu_rtransfer_cache,
            rcompose_cache=self._bu_rcompose_cache,
            sink=self._sink,
            widening_delay=self.widening_delay,
        )
        self.metrics.bu_triggers += 1
        result = engine.analyze(targets, external=self.bu, root=root)
        if result.timed_out:
            # Budget ran out mid-run: the partial summaries are not at
            # fixpoint and must not be applied.  Disable the trigger for
            # these procedures and re-raise on the next budget check.
            self._bu_disabled.update(reachable)
            return
        self.bu.update(result.summaries)
        self._apply_cache.clear()

    # -- warm start ---------------------------------------------------------------------
    def _preload_install(self) -> None:
        super()._preload_install()
        stored = self._stored_bu
        self.metrics.store_hits += len(stored)
        if self._tracing:
            for proc in sorted(stored):
                summary = stored[proc]
                self._sink.emit(
                    TraceEvent(
                        "store_hit",
                        proc,
                        {"what": "bu", "cases": summary.case_count()},
                    )
                )

    # -- driver -----------------------------------------------------------------------
    def run(self, initial_states: Iterable) -> SwiftResult:
        return SwiftResult(super().run(initial_states), dict(self.bu))


class _MergedCounts:
    """Read view merging live entry counts with stored ranking data.

    ``get(proc)`` is the per-state *maximum* of the two multisets: the
    live counter of a warm run already re-counts every replayed call
    record, so summing would double-count; the stored multiset fills in
    traffic the warm run no longer sees (calls its preloaded bottom-up
    summaries answer).  ``stored(proc)`` reads the warm start's
    multiset (``None`` when it has none).  Quacks like the mapping
    ``FrequencyPruner`` expects.
    """

    __slots__ = ("_observed", "_stored")

    def __init__(
        self,
        observed: Dict[str, Counter],
        stored: Callable[[str], Optional[Counter]],
    ) -> None:
        self._observed = observed
        self._stored = stored

    def get(self, proc: str, default=None):
        observed = self._observed.get(proc)
        stored = self._stored(proc)
        if not stored:
            return observed if observed else default
        merged = Counter(stored)
        if observed:
            for sigma, n in observed.items():
                if n > merged[sigma]:
                    merged[sigma] = n
        return merged
