"""Table 4 — effect of varying ``theta`` (cases kept by pruning).

Paper shape (k=5, theta in {1, 2}, over the ten benchmarks from toba-s
up): theta=2 reduces the number of top-down summaries — keeping a
second case lets more incoming states be absorbed by bottom-up
summaries — but usually costs wall-clock time because the bottom-up
analysis tracks twice the cases; avrora is the outlier that *benefits*
from theta=2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List

from repro.bench import benchmark_names, load_benchmark
from repro.experiments.harness import (
    DEFAULT_BUDGET_WORK,
    EngineRun,
    format_table,
    map_rows,
    run_engine,
)

#: The paper's Table 4 lists the ten benchmarks from toba-s onward.
BENCHMARKS = [name for name in benchmark_names() if name not in ("jpat-p", "elevator")]
THETAS = [1, 2]


@dataclass
class Table4Row:
    benchmark: str
    runs: List[EngineRun]  # one per theta, in THETAS order

    def cells(self) -> list:
        cells = [self.benchmark]
        for run in self.runs:
            cells.append(run.time_label)
        for run in self.runs:
            cells.append(run.td_summaries)
        return cells


def run_one(name: str, k: int = 5) -> Table4Row:
    benchmark = load_benchmark(name)
    runs = [
        run_engine(
            benchmark,
            "swift",
            k=k,
            theta=theta,
            budget_work=20 * DEFAULT_BUDGET_WORK,
        )
        for theta in THETAS
    ]
    return Table4Row(name, runs)


def run(k: int = 5, parallel: int = 0) -> List[Table4Row]:
    worker = partial(run_one, k=k)
    return map_rows(worker, BENCHMARKS, parallel=parallel)


def render(rows: List[Table4Row]) -> str:
    headers = ["benchmark"]
    headers += [f"time th={t}" for t in THETAS]
    headers += [f"#td-sum th={t}" for t in THETAS]
    return format_table(
        headers,
        [row.cells() for row in rows],
        title="Table 4: varying theta with k=5",
    )


def missed_claims(rows: List[Table4Row]) -> List[str]:
    """Table 4's shape, row by row: both thetas finish, and theta=2
    absorbs at least as many incoming states into bottom-up summaries
    (no more top-down summaries) while tracking at least as many
    bottom-up cases."""
    claims = []
    for row in rows:
        theta1, theta2 = row.runs
        name = row.benchmark
        claims += [
            (
                not theta1.timed_out and not theta2.timed_out,
                f"both thetas finish on {name}",
            ),
            (
                theta2.td_summaries <= theta1.td_summaries,
                f"theta=2 computes no more top-down summaries than theta=1 on {name}",
            ),
            (
                theta2.bu_summaries >= theta1.bu_summaries,
                f"theta=2 computes no fewer bottom-up summaries than theta=1 on {name}",
            ),
        ]
    return [claim for holds, claim in claims if not holds]
