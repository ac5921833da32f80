"""Figure 5 — per-method top-down summary counts, TD vs SWIFT.

The paper plots, for toba-s, javasrc-p and antlr, the number of
top-down summaries computed for each method (methods sorted by count,
log-scale Y).  TD's curve climbs into the hundreds/thousands while
SWIFT's stays near the trigger threshold k for most methods — the
pruned bottom-up analysis finds the dominating case.

``run()`` returns the sorted series; ``render`` prints them as an ASCII
log-scale chart plus summary statistics (max / median / #methods above
k), which is how the figure's visual claim is checked.
"""

from __future__ import annotations

import math
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

BENCHMARKS = ["toba-s", "javasrc-p", "antlr"]


@dataclass
class Figure5Series:
    benchmark: str
    td_counts: List[int]  # per-method summary counts, sorted descending
    swift_counts: List[int]
    k: int

    def stats_row(self, label: str, counts: List[int]) -> list:
        nonzero = [c for c in counts if c > 0] or [0]
        above_k = sum(1 for c in counts if c > self.k)
        median = sorted(nonzero)[len(nonzero) // 2]
        return [
            f"{self.benchmark}/{label}",
            len(counts),
            max(nonzero),
            median,
            sum(nonzero),
            above_k,
        ]


def run_one(name: str, k: int = 5, theta: int = 1) -> Figure5Series:
    benchmark = load_benchmark(name)

    def counts(engine: str) -> List[int]:
        run = run_engine(
            benchmark, engine, k=k, theta=theta, budget_work=20 * DEFAULT_BUDGET_WORK
        )
        return sorted(run.td_summary_counts.values(), reverse=True)

    return Figure5Series(name, counts("td"), counts("swift"), k)


def run(k: int = 5, theta: int = 1, parallel: int = 0) -> List[Figure5Series]:
    worker = partial(run_one, k=k, theta=theta)
    return map_rows(worker, BENCHMARKS, parallel=parallel)


def _ascii_chart(series: Figure5Series, height: int = 10, width: int = 60) -> str:
    """Log-scale ASCII rendering of both curves ('T' = TD, 'S' = SWIFT,
    '*' = overlap)."""
    peak = max(series.td_counts[0] if series.td_counts else 1, 2)
    top = math.log10(peak)

    def row_of(count: int) -> int:
        if count <= 0:
            return 0
        return min(height - 1, int(round(math.log10(count) / top * (height - 1))))

    def resample(counts: List[int]) -> List[int]:
        if not counts:
            return [0] * width
        return [
            counts[min(len(counts) - 1, int(i * len(counts) / width))]
            for i in range(width)
        ]

    td = [row_of(c) for c in resample(series.td_counts)]
    sw = [row_of(c) for c in resample(series.swift_counts)]
    grid = [[" "] * width for _ in range(height)]
    for x in range(width):
        grid[height - 1 - td[x]][x] = "T"
        cell = grid[height - 1 - sw[x]][x]
        grid[height - 1 - sw[x]][x] = "*" if cell == "T" else "S"
    lines = [f"{series.benchmark} — #summaries per method (log scale, methods sorted desc)"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width + "  (T=TD, S=SWIFT, *=both)")
    return "\n".join(lines)


def render(all_series: List[Figure5Series]) -> str:
    chunks = ["Figure 5: top-down summaries per method, TD vs SWIFT (k=5, theta=1)\n"]
    for series in all_series:
        chunks.append(_ascii_chart(series))
        chunks.append("")
    rows = []
    for series in all_series:
        rows.append(series.stats_row("TD", series.td_counts))
        rows.append(series.stats_row("SWIFT", series.swift_counts))
    chunks.append(
        format_table(
            ["series", "methods", "max", "median", "total", f"methods>k"],
            rows,
        )
    )
    return "\n".join(chunks)


def main(parallel: int = 0) -> None:
    print(render(run(parallel=parallel)))


if __name__ == "__main__":
    main()
