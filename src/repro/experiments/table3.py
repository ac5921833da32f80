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

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.bench import load_benchmark
from repro.experiments.harness import DEFAULT_BUDGET_WORK, format_table
from repro.framework.metrics import Budget
from repro.framework.session import request_scope
from repro.framework.swift import SwiftEngine
from repro.typestate.client import make_analyses
from repro.typestate.properties import FILE_PROPERTY

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
    benchmark = load_benchmark(benchmark_name)
    td_a, bu_a, init = make_analyses(benchmark.program, FILE_PROPERTY, "full")
    budget = Budget(max_work=50 * DEFAULT_BUDGET_WORK)
    engine = SwiftEngine(
        benchmark.program,
        td_a,
        bu_a,
        k=k,
        theta=theta,
        budget=budget,
        refresh_existing=True,
    )
    started = time.perf_counter()
    with request_scope():  # one run is one request, as in run_engine
        result = engine.run([init])
    elapsed = time.perf_counter() - started
    return Table3Row(
        k,
        elapsed,
        result.metrics.total_work,
        result.total_summaries(),
        result.metrics.bu_triggers,
    )


def run(theta: int = 1, benchmark_name: str = BENCHMARK) -> List[Table3Row]:
    return [run_one(k, theta, benchmark_name) for k in K_VALUES]


def render(rows: List[Table3Row]) -> str:
    return format_table(
        ["k", "time", "work", "#td summaries", "bu triggers"],
        [row.cells() for row in rows],
        title=f"Table 3: varying k on {BENCHMARK} (theta=1)",
    )


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
