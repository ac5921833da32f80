"""Bottom-up interprocedural engine on the pruned domain (Sections 3.4–3.5).

The engine evaluates the abstract semantics ``[[C]]^r`` over pairs
``(R, Sigma)`` — a set of abstract relations plus the set of ignored
incoming abstract states — exactly as defined in the paper::

    [[c]]^r(R, Σ)       = (prune ∘ clean)(rtrans(c)†(R), Σ)
    [[C1 + C2]]^r(R, Σ) = prune([[C1]]^r(R, Σ) ⊔ [[C2]]^r(R, Σ))
    [[C1 ; C2]]^r(R, Σ) = [[C2]]^r([[C1]]^r(R, Σ))
    [[C*]]^r(R, Σ)      = fix_(R,Σ) F
        where F(R', Σ') = prune((R', Σ') ⊔ [[C]]^r(R', Σ'))
    [[g()]]^r(R, Σ)     = let (R0, Σ0) = η(g)
                          let R00 = rcomp†(R, R0)
                          let Σ00 = pre-image of Σ0 under R
                          (prune ∘ clean)(R00, Σ ∪ Σ00)

Whole programs are solved by the iterative fixpoint over the procedure
summary map ``η``, starting from ``η0 = λf.(∅, ∅)``.

Running with :class:`repro.framework.pruning.NoPruner` yields the
conventional compositional/symbolic analysis — the ``BU`` baseline of
the evaluation, complete over all incoming states (``Σ`` stays empty).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.framework.caching import RComposeCache, RTransferCache
from repro.framework.ignored import IgnoredStates
from repro.framework.interfaces import BottomUpAnalysis
from repro.framework.metrics import Budget, BudgetExceededError, Metrics
from repro.framework.pruning import NoPruner, PruneOperator, clean
from repro.framework.tracing import NULL_SINK, TraceEvent, TraceSink
from repro.ir.commands import Call, Choice, Command, Prim, Seq, Star
from repro.ir.program import Program

_MAX_LOOP_ITERATIONS = 100_000


class ProcedureSummary:
    """A bottom-up procedure summary: relations plus ignored states."""

    __slots__ = ("relations", "ignored")

    def __init__(self, relations: FrozenSet, ignored: IgnoredStates) -> None:
        self.relations = relations
        self.ignored = ignored

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProcedureSummary):
            return NotImplemented
        return self.relations == other.relations and self.ignored == other.ignored

    def __hash__(self) -> int:
        return hash((self.relations, self.ignored))

    def case_count(self) -> int:
        return len(self.relations)

    def __repr__(self) -> str:
        return f"ProcedureSummary({len(self.relations)} relations, {len(self.ignored)} ignored preds)"


class BottomUpResult:
    """Summaries computed by a bottom-up run."""

    def __init__(
        self,
        program: Program,
        analysis: BottomUpAnalysis,
        summaries: Dict[str, ProcedureSummary],
        metrics: Metrics,
        timed_out: bool = False,
    ) -> None:
        self.program = program
        self.analysis = analysis
        self.summaries = summaries
        self.metrics = metrics
        self.timed_out = timed_out

    def summary(self, proc: str) -> ProcedureSummary:
        return self.summaries[proc]

    def total_relations(self) -> int:
        """Total number of bottom-up summaries (the Table 2 statistic)."""
        return sum(s.case_count() for s in self.summaries.values())

    def apply_to(self, proc: str, states: Iterable) -> FrozenSet:
        """Instantiate ``proc``'s summary on concrete incoming states.

        Raises :class:`ValueError` if any state was pruned away
        (``sigma in Sigma``) — callers must fall back to a top-down
        (re-)analysis for those, as SWIFT does.
        """
        summary = self.summaries[proc]
        out: Set = set()
        for sigma in states:
            if sigma in summary.ignored:
                raise ValueError(
                    f"state {sigma!r} was pruned from {proc}'s bottom-up summary"
                )
            for r in summary.relations:
                self.metrics.summary_instantiations += 1
                out.update(self.analysis.apply(r, sigma))
        return frozenset(out)


class BottomUpEngine:
    """Fixpoint solver for the pruned bottom-up semantics."""

    def __init__(
        self,
        program: Program,
        analysis: BottomUpAnalysis,
        pruner: Optional[PruneOperator] = None,
        budget: Optional[Budget] = None,
        metrics: Optional[Metrics] = None,
        enable_caches: bool = True,
        restart_clock: bool = True,
        rtransfer_cache: Optional[RTransferCache] = None,
        rcompose_cache: Optional[RComposeCache] = None,
        sink: Optional[TraceSink] = None,
        widening_delay: int = 2,
    ) -> None:
        if widening_delay < 0:
            raise ValueError("widening_delay must be non-negative")
        self.program = program
        self.analysis = analysis
        self.pruner = pruner if pruner is not None else NoPruner(analysis)
        self.budget = budget
        # Relation-set widening for infinite R (DESIGN §14): after
        # ``widening_delay`` iterations, loop (Star) fixpoints and the
        # outer η rounds widen the joined relation set via
        # ``analysis.rwiden``.  Finite relation sets never take these
        # branches, so the paper's saturation semantics is untouched.
        self.widening_delay = widening_delay
        self._lattice_r = not analysis.r_is_finite()
        # Tracing sink (see repro.framework.tracing); the pruner emits
        # its prune_drop events through the same sink unless the caller
        # already gave it one.
        self._sink = sink if sink is not None else NULL_SINK
        self._tracing = bool(self._sink.enabled)
        if self._tracing and getattr(self.pruner, "sink", None) is None:
            self.pruner.sink = self._sink
        # SWIFT shares one Metrics across its top-down and bottom-up
        # parts so a single budget bounds their combined work.
        self.metrics = metrics if metrics is not None else Metrics()
        self._owns_metrics = metrics is None
        # Engines restart the budget's wall clock at the start of their
        # outermost run (so a Budget built before a long setup phase
        # times the analysis, not the setup).  A nested run — SWIFT's
        # run_bu, which shares the enclosing engine's budget mid-run —
        # passes restart_clock=False; restarting there would extend the
        # enclosing deadline.
        self._restart_clock = restart_clock
        self.enable_caches = enable_caches
        if enable_caches:
            # SWIFT passes long-lived caches here so later triggers
            # reuse the operator results of earlier ones.
            self._rtransfer = (
                rtransfer_cache
                if rtransfer_cache is not None
                else RTransferCache(analysis, self.metrics)
            )
            self._rcompose = (
                rcompose_cache
                if rcompose_cache is not None
                else RComposeCache(analysis, self.metrics)
            )
        else:
            self._rtransfer = analysis.rtransfer
            self._rcompose = analysis.rcompose

    # -- public API -----------------------------------------------------------------
    def analyze(
        self,
        procs: Optional[Iterable[str]] = None,
        external: Optional[Mapping[str, ProcedureSummary]] = None,
    ) -> BottomUpResult:
        """Compute summaries for ``procs`` (default: all reachable).

        ``external`` supplies fixed summaries for procedures *outside*
        the analyzed set (SWIFT passes previously computed ones so a new
        trigger does not re-analyze the whole reachable subgraph).  On
        budget exhaustion a partial result is returned with
        ``timed_out=True``.
        """
        if self.budget is not None and self._restart_clock:
            self.budget.restart_clock()
        # Sorted so a frozenset argument (SWIFT's reachable cone) yields
        # the same evaluation order under every interpreter hash seed.
        targets = sorted(procs) if procs is not None else sorted(self.program.reachable())
        target_set = set(targets)
        # Process callees before callers within each round for speed.
        order = [p for p in reversed(self.program.topological_order()) if p in target_set]
        order.extend(p for p in targets if p not in set(order))
        eta: Dict[str, ProcedureSummary] = {}
        if external:
            eta.update(
                (proc, summary)
                for proc, summary in external.items()
                if proc not in target_set
            )
        for proc in targets:
            eta[proc] = ProcedureSummary(frozenset(), self._empty_ignored())
        timed_out = False
        try:
            changed = True
            rounds = 0
            while changed:
                changed = False
                for proc in order:
                    relations, ignored = self._eval(
                        proc,
                        self.program[proc],
                        frozenset([self.analysis.identity()]),
                        self._empty_ignored(),
                        eta,
                    )
                    joined = self._join(
                        (eta[proc].relations, eta[proc].ignored), (relations, ignored)
                    )
                    if self._lattice_r and rounds >= self.widening_delay:
                        # Widen the η chain for recursive programs: the
                        # summary sets of a cyclic SCC would otherwise
                        # keep growing round after round.
                        joined = (
                            self.analysis.rwiden(eta[proc].relations, joined[0]),
                            joined[1],
                        )
                    new_summary = ProcedureSummary(*joined)
                    if new_summary != eta[proc]:
                        eta[proc] = new_summary
                        changed = True
                rounds += 1
        except BudgetExceededError as exc:
            timed_out = True
            if self._tracing:
                self._sink.emit(
                    TraceEvent(
                        "budget_exceeded",
                        "",
                        {
                            "engine": "bu",
                            "what": exc.what,
                            "spent": exc.spent,
                            "limit": exc.limit,
                        },
                    )
                )
        computed = {proc: eta[proc] for proc in targets}
        return BottomUpResult(self.program, self.analysis, computed, self.metrics, timed_out)

    # -- semantics ------------------------------------------------------------------
    def _empty_ignored(self) -> IgnoredStates:
        return IgnoredStates(self.analysis.pred_satisfied, self.analysis.pred_entails)

    def _join(
        self,
        left: Tuple[FrozenSet, IgnoredStates],
        right: Tuple[FrozenSet, IgnoredStates],
    ) -> Tuple[FrozenSet, IgnoredStates]:
        """``⊔ = clean(R1 ∪ R2, Σ1 ∪ Σ2)``."""
        relations = left[0] | right[0]
        ignored = left[1].union_sets(right[1])
        return clean(self.analysis, relations, ignored)

    def _eval(
        self,
        proc: str,
        cmd: Command,
        relations: FrozenSet,
        ignored: IgnoredStates,
        eta: Mapping[str, ProcedureSummary],
    ) -> Tuple[FrozenSet, IgnoredStates]:
        """``[[cmd]]^r_{proc,eta}(relations, ignored)``."""
        if self.budget is not None:
            self.budget.check(self.metrics)
        if isinstance(cmd, Prim):
            out = set()
            rtransfer = self._rtransfer
            for i, r in enumerate(relations):
                if self.budget is not None and i % 128 == 127:
                    self.budget.check(self.metrics)
                self.metrics.rtransfers += 1
                produced = rtransfer(cmd, r)
                self.metrics.relations_created += len(produced)
                out.update(produced)
            return self._prune(proc, *clean(self.analysis, frozenset(out), ignored))
        if isinstance(cmd, Seq):
            state = (relations, ignored)
            for part in cmd.parts:
                state = self._eval(proc, part, state[0], state[1], eta)
            return state
        if isinstance(cmd, Choice):
            results = [
                self._eval(proc, alt, relations, ignored, eta)
                for alt in cmd.alternatives
            ]
            joined = results[0]
            for res in results[1:]:
                joined = self._join(joined, res)
            return self._prune(proc, *joined)
        if isinstance(cmd, Star):
            state = (relations, ignored)
            for iteration in range(_MAX_LOOP_ITERATIONS):
                body = self._eval(proc, cmd.body, state[0], state[1], eta)
                joined = self._join(state, body)
                if self._lattice_r and iteration >= self.widening_delay:
                    joined = (
                        self.analysis.rwiden(state[0], joined[0]),
                        joined[1],
                    )
                new_state = self._prune(proc, *joined)
                if new_state[0] == state[0] and new_state[1] == state[1]:
                    return state
                state = new_state
            raise RuntimeError("loop fixpoint did not stabilize")
        if isinstance(cmd, Call):
            callee = eta.get(cmd.proc)
            if callee is None:
                # Callee outside the analyzed set: treat as having no
                # summary yet (η0); the interprocedural fixpoint or a
                # later run will refine it.
                callee = ProcedureSummary(frozenset(), self._empty_ignored())
            composed: Set = set()
            rcompose = self._rcompose
            for r in relations:
                # The cross product |R| x |R0| is where the conventional
                # bottom-up analysis explodes; check the budget inside it
                # or a single call step could run unbounded.
                if self.budget is not None:
                    self.budget.check(self.metrics)
                for r0 in callee.relations:
                    self.metrics.compositions += 1
                    produced = rcompose(r, r0)
                    self.metrics.relations_created += len(produced)
                    composed.update(produced)
            # Σ00: states whose images under some r land in the callee's
            # ignored set must be ignored here too (propagated via wp).
            pre_preds: List = []
            for r in relations:
                for pred in callee.ignored:
                    pre_preds.extend(self.analysis.pre_image(r, pred))
            widened = ignored.union(pre_preds)
            return self._prune(proc, *clean(self.analysis, frozenset(composed), widened))
        raise TypeError(f"unknown command node {cmd!r}")

    def _prune(
        self, proc: str, relations: FrozenSet, ignored: IgnoredStates
    ) -> Tuple[FrozenSet, IgnoredStates]:
        return self.pruner.prune(proc, relations, ignored)
