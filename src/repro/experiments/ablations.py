"""Ablations of SWIFT's design choices (DESIGN.md §7).

Not from the paper — these isolate the knobs the paper's design
discussion motivates:

* **ranking strategy** — the frequency-based ``rank`` against the
  top-down multiset ``M`` (the paper's pruner) vs. a data-blind
  arbitrary choice.  The paper argues (Section 7, discussing Calcagno
  et al.) that conjectured common cases are "not robust"; the blind
  pruner reproduces that: it keeps the wrong case, the ignored set
  swallows the hot states, and summary reuse collapses.
* **trigger postponement** — Section 4's first difficult scenario:
  running ``run_bu`` although some reachable procedure has no top-down
  data yet.
* **summary refresh** — literal Algorithm 1 (every trigger recomputes
  all reachable summaries) vs. the incremental default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from repro.bench import load_benchmark
from repro.experiments.harness import DEFAULT_BUDGET_WORK, format_table
from repro.framework.ignored import IgnoredStates
from repro.framework.metrics import Budget
from repro.framework.pruning import FrequencyPruner, PruneOperator, clean, excl
from repro.framework.session import request_scope
from repro.framework.swift import SwiftEngine
from repro.typestate.client import make_analyses
from repro.typestate.properties import FILE_PROPERTY

BENCHMARK = "antlr"


class BlindPruner(PruneOperator):
    """Keeps theta cases chosen *without* top-down frequency data
    (deterministic arbitrary order) — the conjecture-based strategy the
    paper contrasts with SWIFT's sampling.

    The constructor signature matches ``SwiftEngine.pruner_factory``;
    the frequency data is accepted and ignored.
    """

    def __init__(self, analysis, theta: int, incoming=None, metrics=None) -> None:
        self.analysis = analysis
        self.theta = theta

    def prune(
        self, proc: str, relations: FrozenSet, ignored: IgnoredStates
    ) -> Tuple[FrozenSet, IgnoredStates]:
        if len(relations) <= self.theta:
            return clean(self.analysis, relations, ignored)
        ranked = sorted(relations, key=str)
        kept = frozenset(ranked[: self.theta])
        widened = ignored.union(
            self.analysis.domain_predicate(r) for r in ranked[self.theta :]
        )
        return excl(self.analysis, kept, widened), widened


@dataclass
class AblationRow:
    variant: str
    seconds: float
    work: int
    td_summaries: int
    instantiations: int

    def cells(self) -> list:
        return [
            self.variant,
            f"{self.seconds:.2f}s",
            self.work,
            self.td_summaries,
            self.instantiations,
        ]


def _run_variant(
    variant: str,
    benchmark_name: str = BENCHMARK,
    k: int = 5,
    theta: int = 1,
) -> AblationRow:
    benchmark = load_benchmark(benchmark_name)
    td_a, bu_a, init = make_analyses(benchmark.program, FILE_PROPERTY, "full")
    budget = Budget(max_work=50 * DEFAULT_BUDGET_WORK)
    kwargs = dict(k=k, theta=theta, budget=budget)
    if variant == "no-postpone":
        kwargs["postpone_unseen"] = False
    elif variant == "refresh-existing":
        kwargs["refresh_existing"] = True
    elif variant == "blind-ranking":
        kwargs["pruner_factory"] = BlindPruner
    elif variant == "fifo-worklist":
        # Breadth-first tabulation floods call sites before triggers
        # fire, so summaries arrive too late to absorb the contexts.
        kwargs["scheduler"] = "fifo"
    elif variant != "default":
        raise ValueError(f"unknown variant {variant!r}")
    engine = SwiftEngine(benchmark.program, td_a, bu_a, **kwargs)
    return _timed_run(variant, engine, init)


def _timed_run(variant: str, engine: SwiftEngine, init) -> AblationRow:
    started = time.perf_counter()
    with request_scope():  # one run is one request, as in run_engine
        result = engine.run([init])
    elapsed = time.perf_counter() - started
    return AblationRow(
        variant,
        elapsed,
        result.metrics.total_work,
        result.total_summaries(),
        result.metrics.summary_instantiations,
    )


VARIANTS = [
    "default",
    "blind-ranking",
    "no-postpone",
    "refresh-existing",
    "fifo-worklist",
]


def run(benchmark_name: str = BENCHMARK) -> List[AblationRow]:
    return [_run_variant(v, benchmark_name) for v in VARIANTS]


def render(rows: List[AblationRow]) -> str:
    return format_table(
        ["variant", "time", "work", "#td summaries", "instantiations"],
        [row.cells() for row in rows],
        title=f"Ablations on {BENCHMARK} (k=5, theta=1)",
    )


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
