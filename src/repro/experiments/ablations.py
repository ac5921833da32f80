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

from dataclasses import dataclass
from functools import partial
from typing import FrozenSet, List, Tuple

from repro.bench import load_benchmark
from repro.experiments.harness import (
    DEFAULT_BUDGET_WORK,
    format_table,
    map_rows,
    run_engine,
)
from repro.framework.ignored import IgnoredStates
from repro.framework.pruning import PruneOperator, clean, excl

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


#: Each variant's departure from the default run, in table order:
#: AnalysisConfig fields, then SWIFT's experiment-only engine options.
_VARIANT_SETTINGS = {
    "default": ({}, {}),
    "blind-ranking": ({}, {"pruner_factory": BlindPruner}),
    "no-postpone": ({}, {"postpone_unseen": False}),
    "refresh-existing": ({}, {"refresh_existing": True}),
    # Breadth-first tabulation floods call sites before triggers fire,
    # so summaries arrive too late to absorb the contexts.
    "fifo-worklist": ({"scheduler": "fifo"}, {}),
}


def _run_variant(
    variant: str,
    benchmark_name: str = BENCHMARK,
    k: int = 5,
    theta: int = 1,
) -> AblationRow:
    if variant not in _VARIANT_SETTINGS:
        raise ValueError(f"unknown variant {variant!r}")
    fields, options = _VARIANT_SETTINGS[variant]
    run = run_engine(
        load_benchmark(benchmark_name),
        "swift",
        k=k,
        theta=theta,
        budget_work=50 * DEFAULT_BUDGET_WORK,
        engine_options=options,
        label=variant,
        **fields,
    )
    return AblationRow(
        variant,
        run.seconds,
        run.work,
        run.td_summaries,
        run.metrics.summary_instantiations,
    )


VARIANTS = list(_VARIANT_SETTINGS)


def run(benchmark_name: str = BENCHMARK, parallel: int = 0) -> List[AblationRow]:
    worker = partial(_run_variant, benchmark_name=benchmark_name)
    return map_rows(worker, VARIANTS, parallel=parallel)


def render(rows: List[AblationRow]) -> str:
    return format_table(
        ["variant", "time", "work", "#td summaries", "instantiations"],
        [row.cells() for row in rows],
        title=f"Ablations on {BENCHMARK} (k=5, theta=1)",
    )


def main(parallel: int = 0) -> None:
    print(render(run(parallel=parallel)))


if __name__ == "__main__":
    main()
