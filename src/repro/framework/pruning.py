"""The pruning operator of Section 3.4.

A pruning operator is a function ``f(R, Sigma) = (R', Sigma')`` with

* ``Sigma ⊆ Sigma'`` and
* ``R' = excl(R, Sigma')`` where
  ``excl(R, Sigma) = {r in R | dom(r) ⊄ Sigma}``.

SWIFT constructs its operator (:class:`FrequencyPruner`) by ranking
abstract relations against the multiset ``M`` of incoming abstract
states that the *top-down* analysis has observed for the procedure, and
keeping only the top ``theta`` relations::

    rank(r)   = Σ_{σ in dom(r)} (# of copies of σ in M)
    prune(R, Sigma) = let R' = best_theta(R) in
                      let Sigma' = Sigma ∪ ⋃{dom(r) | r in R \\ R'} in
                      (excl(R', Sigma'), Sigma')

:class:`NoPruner` keeps every case — running the bottom-up engine with
it yields the conventional ``BU`` baseline of the evaluation.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.framework.ignored import IgnoredStates
from repro.framework.interfaces import BottomUpAnalysis
from repro.framework.metrics import Metrics

#: Bound on a pruner's memo of pruning steps per procedure.
_MEMO_LIMIT = 1 << 10


class PruneOperator:
    """Base class: a per-procedure pruning operator (Section 3.5 allows
    the operator to be parametrized by the procedure name)."""

    #: Optional tracing sink (repro.framework.tracing).  Engines hand
    #: their sink over after construction so custom pruner factories
    #: keep the 4-argument signature; ``None`` means no tracing.
    sink = None

    def prune(
        self, proc: str, relations: FrozenSet, ignored: IgnoredStates
    ) -> Tuple[FrozenSet, IgnoredStates]:
        raise NotImplementedError


def excl(
    analysis: BottomUpAnalysis, relations: FrozenSet, ignored: IgnoredStates
) -> FrozenSet:
    """``excl(R, Sigma) = {r | dom(r) ⊄ Sigma}``.

    Coverage is checked conservatively (see
    :meth:`IgnoredStates.covers`), so at worst a redundant relation is
    kept — never an applicable one dropped.
    """
    if ignored.is_empty():
        return relations
    covers = ignored.covers
    domain = analysis.domain_predicate
    kept = [r for r in relations if not covers(domain(r))]
    return relations if len(kept) == len(relations) else frozenset(kept)


def clean(
    analysis: BottomUpAnalysis, relations: FrozenSet, ignored: IgnoredStates
) -> Tuple[FrozenSet, IgnoredStates]:
    """``clean(R, Sigma) = (excl(R, Sigma), Sigma)``."""
    return excl(analysis, relations, ignored), ignored


class NoPruner(PruneOperator):
    """Keep every case (``theta = ∞``): the conventional bottom-up analysis."""

    def __init__(self, analysis: BottomUpAnalysis) -> None:
        self.analysis = analysis

    def prune(
        self, proc: str, relations: FrozenSet, ignored: IgnoredStates
    ) -> Tuple[FrozenSet, IgnoredStates]:
        return clean(self.analysis, relations, ignored)


class FrequencyPruner(PruneOperator):
    """The paper's frequency-ranked pruner.

    Parameters
    ----------
    analysis:
        The bottom-up analysis (for domain predicates and membership).
    theta:
        Maximum number of cases to keep per pruning step.
    incoming:
        ``proc -> Counter of incoming abstract states`` — the multiset
        ``M`` collected by the top-down analysis.  May be updated in
        place by the caller between runs.
    metrics:
        Optional counters; ``pruned_relations`` is incremented per drop.
    """

    def __init__(
        self,
        analysis: BottomUpAnalysis,
        theta: int,
        incoming: Optional[Mapping[str, Counter]] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if theta < 1:
            raise ValueError("theta must be at least 1")
        self.analysis = analysis
        self.theta = theta
        self.incoming: Mapping[str, Counter] = incoming if incoming is not None else {}
        self.metrics = metrics
        # proc -> (the M its steps were computed against, step memo)
        self._steps: Dict[str, Tuple[dict, dict]] = {}

    def rank(self, proc: str, r) -> int:
        """``Σ_{σ in dom(r)} count_M(σ)`` for this procedure's ``M``."""
        counts = self.incoming.get(proc)
        if not counts:
            return 0
        return sum(
            n for sigma, n in counts.items() if self.analysis.in_domain(r, sigma)
        )

    def prune(
        self, proc: str, relations: FrozenSet, ignored: IgnoredStates
    ) -> Tuple[FrozenSet, IgnoredStates]:
        if len(relations) <= self.theta:
            return clean(self.analysis, relations, ignored)
        # A step depends only on its arguments and on M, so steps are
        # memoized per procedure while M stays equal: one run_bu meets
        # the same steps round after round.  dict.__eq__ compares in C;
        # Counter's own __eq__ is Python code.
        counts = self.incoming.get(proc) or {}
        memo = self._steps.get(proc)
        if memo is None or len(memo[1]) >= _MEMO_LIMIT or not dict.__eq__(memo[0], counts):
            memo = self._steps[proc] = (dict(counts), {})
        steps = memo[1]
        step = steps.get((relations, ignored))
        if step is None:
            step = steps[relations, ignored] = self._step(proc, relations, ignored)
        kept, dropped, widened, out = step
        if self.metrics is not None:
            self.metrics.pruned_relations += len(dropped)
        if self.sink is not None and self.sink.enabled:
            from repro.framework.tracing import TraceEvent

            self.sink.emit(
                TraceEvent(
                    "prune_drop",
                    proc,
                    {
                        "kept": sorted(str(r) for r in kept),
                        "dropped": sorted(str(r) for r in dropped),
                    },
                )
            )
        return out, widened

    def _step(self, proc: str, relations: FrozenSet, ignored: IgnoredStates) -> tuple:
        """One pruning step: ``(kept, dropped, Sigma', excl(kept, Sigma'))``."""
        theta = self.theta
        # best_theta: the theta highest-ranked relations.  Ties are
        # broken by a total order (type name, then the canonical string
        # form — all relation/atom strings print every identity-bearing
        # field), so the kept set never depends on set-iteration order;
        # only the tie group straddling the cut needs it, so only that
        # group is printed.
        candidates = list(relations)
        ranks = [self.rank(proc, r) for r in candidates]
        cut = sorted(ranks, reverse=True)[theta - 1]
        above = [r for r, n in zip(candidates, ranks) if n > cut]
        tied = [r for r, n in zip(candidates, ranks) if n == cut]
        room = theta - len(above)
        if room < len(tied):
            tied.sort(key=_tie_break)
        kept = frozenset(above + tied[:room])
        dropped = tied[room:]
        dropped.extend(r for r, n in zip(candidates, ranks) if n < cut)
        if not self.analysis.r_is_finite():
            # Infinite R (DESIGN §14): ranking against M bounds the
            # *count* of retained relations but not the *height* of
            # their payload chains; collapsing the kept set through the
            # analysis's widening (rwiden(X, X) is a pure same-skeleton
            # collapse) makes repeated prune-join rounds stabilize.
            kept = self.analysis.rwiden(kept, kept)
        # Σ' does not depend on the order of the dropped domains:
        # normalization keeps the entailment-maximal predicates.
        widened = ignored.union(
            self.analysis.domain_predicate(r) for r in dropped
        )
        return kept, dropped, widened, excl(self.analysis, kept, widened)


def _tie_break(r) -> Tuple[str, str]:
    return (type(r).__name__, str(r))
