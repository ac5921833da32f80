"""Table 3 — effect of varying the trigger threshold ``k`` on avrora.

Paper shape (theta=1, k in {2, 5, 10, 50, 100, 200, 500}): a U-shaped
curve.  Small k triggers the bottom-up analysis too early (the pruner
has too little frequency data to predict the dominating case, so both
more bottom-up work and more top-down re-analysis happen); large k
degenerates toward the pure top-down analysis, with summary counts
growing steeply from k=10 to k=500.

Mirroring the paper's Table 3 setup, the sweep uses the literal
Algorithm 1 behaviour in which each trigger re-runs the bottom-up
analysis over the whole reachable subgraph (``refresh_existing=True``)
— this is what makes "triggering too often" costly at small k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List

from repro.bench import load_benchmark
from repro.experiments.harness import (
    DEFAULT_BUDGET_WORK,
    format_table,
    map_rows,
    run_engine,
)

K_VALUES = [2, 5, 10, 50, 100, 200, 500]
BENCHMARK = "avrora"


@dataclass
class Table3Row:
    k: int
    seconds: float
    work: int
    td_summaries: int
    bu_triggers: int

    def cells(self) -> list:
        return [
            str(self.k),
            f"{self.seconds:.2f}s",
            self.work,
            self.td_summaries,
            self.bu_triggers,
        ]


def run_one(k: int, theta: int = 1, benchmark_name: str = BENCHMARK) -> Table3Row:
    run = run_engine(
        load_benchmark(benchmark_name),
        "swift",
        k=k,
        theta=theta,
        budget_work=50 * DEFAULT_BUDGET_WORK,
        engine_options={"refresh_existing": True},
    )
    return Table3Row(
        k, run.seconds, run.work, run.td_summaries, run.metrics.bu_triggers
    )


def run(
    theta: int = 1, benchmark_name: str = BENCHMARK, parallel: int = 0
) -> List[Table3Row]:
    worker = partial(run_one, theta=theta, benchmark_name=benchmark_name)
    return map_rows(worker, K_VALUES, parallel=parallel)


def render(rows: List[Table3Row]) -> str:
    return format_table(
        ["k", "time", "work", "#td summaries", "bu triggers"],
        [row.cells() for row in rows],
        title=f"Table 3: varying k on {BENCHMARK} (theta=1)",
    )


def main(parallel: int = 0) -> None:
    print(render(run(parallel=parallel)))


if __name__ == "__main__":
    main()
