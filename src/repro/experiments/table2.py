"""Table 2 — running time and summary counts of SWIFT vs the baselines.

Paper shape to reproduce (with k=5, theta=1):

* SWIFT finishes on all 12 benchmarks;
* TD times out on the three largest (avrora, rhino-a, sablecc-j) and is
  slower than SWIFT by growing factors elsewhere;
* BU finishes only on the two smallest (jpat-p, elevator);
* SWIFT avoids the vast majority of TD's top-down summaries and of BU's
  bottom-up summaries.

"timeout" here means the deterministic work budget was exceeded (see
:mod:`repro.experiments.harness`).  Speedups are reported from the
work counters; wall-clock seconds and the wall-clock TD/SWIFT ratio
are shown alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from repro.bench import benchmark_names, load_benchmark
from repro.bench.generator import GeneratedBenchmark
from repro.experiments.harness import (
    DEFAULT_BUDGET_WORK,
    EngineRun,
    drop_label,
    format_table,
    map_rows,
    run_engine,
    speedup_label,
)

HEADERS = [
    "benchmark",
    "TD time",
    "BU time",
    "SWIFT time",
    "speedup/TD",
    "time TD/SWIFT",
    "speedup/BU",
    "TD #td-sum",
    "SWIFT #td-sum",
    "td drop",
    "BU #bu-sum",
    "SWIFT #bu-sum",
    "bu drop",
]


@dataclass
class Table2Row:
    benchmark: str
    td: EngineRun
    bu: EngineRun
    swift: EngineRun

    def cells(self) -> list:
        return [
            self.benchmark,
            self.td.time_label,
            self.bu.time_label,
            self.swift.time_label,
            speedup_label(self.td, self.swift),
            speedup_label(self.td, self.swift, by="seconds"),
            speedup_label(self.bu, self.swift),
            "-" if self.td.timed_out else self.td.td_summaries,
            self.swift.td_summaries,
            drop_label(
                self.td.td_summaries,
                self.swift.td_summaries,
                self.td.timed_out or self.swift.timed_out,
            ),
            "-" if self.bu.timed_out else self.bu.bu_summaries,
            self.swift.bu_summaries,
            drop_label(
                self.bu.bu_summaries,
                self.swift.bu_summaries,
                self.bu.timed_out or self.swift.timed_out,
            ),
        ]


def run_one(
    benchmark: GeneratedBenchmark,
    k: int = 5,
    theta: int = 1,
    budget_work: Optional[int] = DEFAULT_BUDGET_WORK,
) -> Table2Row:
    td = run_engine(benchmark, "td", budget_work=budget_work)
    bu = run_engine(benchmark, "bu", budget_work=budget_work)
    swift = run_engine(benchmark, "swift", k=k, theta=theta, budget_work=budget_work)
    if not td.timed_out and not swift.timed_out:
        assert td.error_sites == swift.error_sites, (
            f"SWIFT diverged from TD on {benchmark.name}"
        )
    return Table2Row(benchmark.name, td, bu, swift)


def _row_for_name(
    name: str,
    k: int = 5,
    theta: int = 1,
    budget_work: Optional[int] = DEFAULT_BUDGET_WORK,
) -> Table2Row:
    """Worker entry point: benchmarks are reloaded by name so only the
    name crosses the process boundary (Programs are not pickled)."""
    return run_one(load_benchmark(name), k, theta, budget_work)


def run(
    k: int = 5,
    theta: int = 1,
    budget_work: Optional[int] = DEFAULT_BUDGET_WORK,
    progress: bool = False,
    parallel: int = 0,
    names: Optional[Sequence[str]] = None,
) -> List[Table2Row]:
    names = list(names) if names is not None else benchmark_names()
    worker = partial(_row_for_name, k=k, theta=theta, budget_work=budget_work)

    def report(row: Table2Row) -> Table2Row:
        if progress:
            print(
                f"  [{row.benchmark}] td={row.td.time_label} "
                f"bu={row.bu.time_label} swift={row.swift.time_label}",
                flush=True,
            )
        return row

    if parallel and parallel > 1:
        # Rows land in submission order (pool.map), so the table is
        # identical to a serial run; progress prints once they are in.
        return [report(row) for row in map_rows(worker, names, parallel=parallel)]
    return [report(worker(name)) for name in names]


def render(rows: List[Table2Row]) -> str:
    return format_table(
        HEADERS,
        [row.cells() for row in rows],
        title="Table 2: SWIFT vs conventional top-down (TD) and bottom-up (BU), k=5, theta=1",
    )


def main(parallel: int = 0) -> None:
    print(render(run(progress=True, parallel=parallel)))


if __name__ == "__main__":
    main()
