"""Asynchronous SWIFT — the parallelization sketched in Section 7.

    "A possible way to parallelize our hybrid approach is to modify it
    such that whenever a bottom-up summary is to be computed, it spawns
    a new thread to do this bottom-up analysis, and itself continues
    the top-down analysis."

:class:`ConcurrentSwiftEngine` implements exactly that: a trigger
submits the ``run_bu`` job to a background worker and the top-down
analysis keeps tabulating; completed summaries are installed at the
next call-handling step.  The equivalence guarantee is unaffected —
summaries are only ever *applied* once fully computed, and any call
handled before they land simply took the top-down path, which is the
result SWIFT is equivalent to anyway.  What changes is performance
determinism: how many calls benefit from a summary now depends on
thread timing, so the engine's summary counts may vary from run to run
(under CPython's GIL the benefit is architectural rather than
wall-clock; the design is what the paper's future-work paragraph
describes).

The ranking data (the incoming-state multisets ``M``) is snapshotted at
submission time so the worker never races the tabulation loop.

A trigger's target set is not submitted as one monolithic job: it is
split along the call graph's SCC condensation
(:mod:`repro.callgraph.scc`) into dependency-respecting *wavefronts*.
All components of a wave are independent, so each becomes its own
worker job and they summarize in parallel up to ``max_workers``; the
next wave is submitted only once the previous one has fully landed,
which guarantees every component runs with its callee components'
summaries already installed (the Whaley–Lam reverse-topological order,
spread across workers).  Worker metrics still fold through
``Metrics.merge`` at harvest, one job at a time.

Error handling: a worker that raises must never mask the tabulation
result or an in-flight exception.  Harvesting therefore *collects*
worker exceptions (folding whatever metrics are recoverable) and, only
after the executor is fully shut down and only if the run itself
succeeded, raises one :class:`ConcurrentHarvestError` aggregating
them.  A worker failure observed mid-run (at a drain point) raises the
same aggregate immediately — outside any ``finally`` block.

Tracing: the engine hands its sink to every worker; all sinks in
:mod:`repro.framework.tracing` are thread-safe, so worker events
(``prune_drop``, ``budget_exceeded``) interleave safely with the
tabulation thread's.  Trace event *order* is not deterministic in
concurrent mode — only serial traces are a regression oracle.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.callgraph.scc import condensation
from repro.framework.bottomup import BottomUpEngine
from repro.framework.metrics import Metrics
from repro.framework.pruning import FrequencyPruner
from repro.framework.swift import SwiftEngine
from repro.framework.tracing import TraceEvent
from repro.ir.cfg import CFGEdge


class _SccPlan:
    """Bookkeeping for one trigger's wavefronted bottom-up run.

    ``waves`` are the dependency-respecting levels of the condensation
    DAG restricted to the trigger's targets
    (:meth:`repro.callgraph.scc.Condensation.wavefronts`): every
    component of wave ``n`` only calls components of waves ``< n`` (or
    procedures that already have summaries), so all of one wave's
    components can be summarized concurrently, and wave ``n+1`` is
    submitted once the whole of wave ``n`` has been harvested.
    """

    __slots__ = ("root", "waves", "wave", "outstanding", "aborted")

    def __init__(self, root: str, waves: List[List[Tuple[str, ...]]]) -> None:
        self.root = root
        self.waves = waves
        self.wave = 0  # index of the wave currently in flight
        self.outstanding = 0  # jobs of the current wave not yet harvested
        self.aborted = False

    def unsubmitted_procs(self) -> frozenset:
        """Procedures of the waves that have not been submitted yet."""
        return frozenset(
            proc
            for wave in self.waves[self.wave + 1 :]
            for component in wave
            for proc in component
        )


class ConcurrentHarvestError(RuntimeError):
    """One or more bottom-up workers raised; their errors, aggregated.

    Raised by :class:`ConcurrentSwiftEngine` *after* the failing
    futures have been harvested (metrics folded, pending bookkeeping
    cleared) so it never masks the engine's own result or exception.
    """

    def __init__(self, errors: List[BaseException]) -> None:
        self.errors = list(errors)
        detail = "; ".join(f"{type(e).__name__}: {e}" for e in self.errors)
        super().__init__(
            f"{len(self.errors)} bottom-up worker(s) failed: {detail}"
        )


class ConcurrentSwiftEngine(SwiftEngine):
    """SWIFT with run_bu on a background thread pool."""

    def __init__(self, *args, max_workers: int = 1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._max_workers = max_workers
        self._executor: Optional[ThreadPoolExecutor] = None
        # (root, targets, future) triples for submitted run_bu jobs.
        self._in_flight: List[Tuple[str, frozenset, Future]] = []
        self._pending_procs: set = set()
        # Wavefront bookkeeping: which plan a future belongs to.  Jobs
        # without a plan entry (tests inject bare futures) harvest
        # exactly as before.
        self._job_plan: Dict[Future, Tuple[_SccPlan, Tuple[str, ...]]] = {}

    # -- lifecycle ---------------------------------------------------------------------
    def run(self, initial_states):
        self._executor = ThreadPoolExecutor(
            max_workers=self._max_workers, thread_name_prefix="swift-bu"
        )
        harvest_errors: List[BaseException] = []
        try:
            result = super().run(initial_states)
        finally:
            # Whatever is still in flight cannot help anymore (the
            # workset is empty) — wait for it so resources are released,
            # then fold the workers' metrics in.  Worker exceptions are
            # *collected*, never raised from this finally block: raising
            # here would mask the result (or the in-flight exception)
            # of the run itself.
            for _, _, future in self._in_flight:
                future.cancel()
            self._executor.shutdown(wait=True)
            for root, targets, future in self._in_flight:
                error = self._harvest(root, targets, future, install=False)
                if error is not None:
                    harvest_errors.append(error)
            self._in_flight.clear()
            self._executor = None
        if harvest_errors:
            raise ConcurrentHarvestError(harvest_errors)
        return result

    # -- trigger handling ------------------------------------------------------------------
    def _handle_call(self, edge: CFGEdge, entry_sigma, sigma) -> None:
        self._drain_completed()
        super()._handle_call(edge, entry_sigma, sigma)

    def _run_bu(self, root: str) -> None:
        """Submit the bottom-up work instead of running it inline.

        The trigger's target set is split along the call graph's SCC
        condensation: independent components of the same wavefront run
        as separate worker jobs (in parallel up to ``max_workers``),
        and the next wavefront is submitted once the current one has
        fully landed — so a component is only ever summarized with its
        callee components' summaries already installed, exactly the
        Whaley–Lam reverse-topological order, spread across workers.
        """
        reachable = self._reachable(root)
        if self.postpone_unseen:
            unseen = [proc for proc in reachable if not self._entry_counts.get(proc)]
            if unseen:
                self.metrics.bu_postponements += 1
                if self._tracing:
                    self._sink.emit(
                        TraceEvent("bu_postponed", root, {"unseen": sorted(unseen)})
                    )
                return
        if reachable & self._pending_procs:
            # Another in-flight job owns part of this subgraph.  The
            # fixpoint must be closed over every procedure without a
            # finished summary, so wait — the trigger re-fires on later
            # calls once the other job has landed.
            return
        targets = frozenset(proc for proc in reachable if proc not in self.bu)
        if not targets:
            return
        waves = condensation(self.program).wavefronts(targets)
        if not waves:
            return
        self._pending_procs |= targets
        if self._tracing:
            self._sink.emit(
                TraceEvent("bu_trigger", root, {"targets": sorted(targets)})
            )
        self.metrics.bu_triggers += 1
        self._submit_wave(_SccPlan(root, waves))

    def _submit_wave(self, plan: _SccPlan) -> None:
        """Submit every component of the plan's current wave."""
        wave = plan.waves[plan.wave]
        plan.outstanding = len(wave)
        for component in wave:
            self._submit_component(plan, component)

    def _submit_component(self, plan: _SccPlan, component: Tuple[str, ...]) -> None:
        """Submit one condensation component as a worker job.

        Snapshots taken here (ranking data, the ``bu`` map) are read on
        the tabulation thread — submission happens at trigger or
        harvest time, never on a worker — so the worker races nothing.
        A later wave's snapshot naturally includes the summaries the
        previous waves installed.
        """
        targets = frozenset(component)
        incoming_snapshot: Dict[str, Counter] = {
            proc: Counter(self._entry_counts.get(proc, Counter()))
            for proc in component
        }
        bu_snapshot = dict(self.bu)
        worker_metrics = Metrics()
        pruner = FrequencyPruner(
            self.bu_analysis,
            self.theta,
            incoming=incoming_snapshot,
            metrics=worker_metrics,
        )
        if self._tracing:
            # Thread-safe sink handoff: all tracing sinks lock their
            # mutable state, so the worker's prune/budget events may
            # interleave with the tabulation thread's.
            pruner.sink = self._sink
            self._sink.emit(
                TraceEvent(
                    "bu_scc_submitted",
                    plan.root,
                    {"wave": plan.wave, "procs": sorted(component)},
                )
            )
        # The worker builds its own operator caches: SWIFT's shared ones
        # are not touched off the tabulation thread.
        engine = BottomUpEngine(
            self.program,
            self.bu_analysis,
            pruner=pruner,
            budget=self.budget,
            metrics=worker_metrics,
            enable_caches=self.enable_caches,
            restart_clock=False,
            sink=self._sink if self._tracing else None,
            # Workers build their own compiled relation tables, like
            # the object caches: SWIFT's shared RelationKernel is not
            # touched off the tabulation thread.
            kernel=self.kernel,
            widening_delay=self.widening_delay,
        )
        future = self._executor.submit(self._timed_analyze, engine, targets, bu_snapshot)
        self._job_plan[future] = (plan, component)
        self._in_flight.append((plan.root, targets, future))

    def _abort_plan(self, plan: Optional[_SccPlan], disable: bool) -> None:
        """Stop submitting a plan's later waves (first abort only).

        Jobs of the current wave that are already running are left to
        finish and harvest normally; the waves never submitted release
        their pending reservation and, on ``disable`` (budget timeout),
        join the disabled set like the serial engine's whole-trigger
        disable.
        """
        if plan is None or plan.aborted:
            return
        plan.aborted = True
        unsubmitted = plan.unsubmitted_procs()
        self._pending_procs -= unsubmitted
        if disable:
            self._bu_disabled.update(unsubmitted)

    @staticmethod
    def _timed_analyze(engine: BottomUpEngine, targets: frozenset, external: dict):
        started = time.perf_counter()
        result = engine.analyze(targets, external=external)
        return result, time.perf_counter() - started

    # -- installing finished summaries --------------------------------------------------------
    def _drain_completed(self) -> None:
        still_running = []
        errors: List[BaseException] = []
        for root, targets, future in self._in_flight:
            if future.done():
                error = self._harvest(root, targets, future, install=True)
                if error is not None:
                    errors.append(error)
            else:
                still_running.append((root, targets, future))
        self._in_flight = still_running
        if errors:
            raise ConcurrentHarvestError(errors)

    def _harvest(
        self, root: str, targets: frozenset, future: Future, install: bool
    ) -> Optional[BaseException]:
        """Fold one finished job in; return its exception, never raise."""
        self._pending_procs -= targets
        plan_entry = self._job_plan.pop(future, None)
        plan = plan_entry[0] if plan_entry is not None else None
        if future.cancelled():
            self._abort_plan(plan, disable=False)
            return None
        error = future.exception()
        if error is not None:
            self._abort_plan(plan, disable=False)
            return error
        result, seconds = future.result()
        self.metrics.merge(result.metrics)
        if self.profile is not None:
            self.profile.add_bu_wall(root, seconds)
        if not install:
            return None
        if result.timed_out:
            # Matches the serial engine, which disables the trigger's
            # whole reachable set: this component plus everything the
            # plan would still have submitted.
            self._bu_disabled.update(targets)
            self._abort_plan(plan, disable=True)
            return None
        self.bu.update(result.summaries)
        if plan is not None:
            plan.outstanding -= 1
            if (
                plan.outstanding == 0
                and not plan.aborted
                and plan.wave + 1 < len(plan.waves)
                and self._executor is not None
            ):
                # The wave has fully landed; its summaries are installed,
                # so the next wave's components see their callee
                # summaries in the ``bu`` snapshot taken at submission.
                plan.wave += 1
                self._submit_wave(plan)
        if self._tracing:
            for proc in sorted(result.summaries):
                summary = result.summaries[proc]
                self._sink.emit(
                    TraceEvent(
                        "bu_installed",
                        proc,
                        {
                            "root": root,
                            "cases": summary.case_count(),
                            "ignored": len(summary.ignored),
                        },
                    )
                )
        self._apply_cache.clear()
        return None
