"""Table 1 — benchmark characteristics.

Paper columns: #classes, #methods, bytecode (KB) and KLOC, each as
application / total, computed over the 0-CFA-reachable program.  The
reproduction reports the same quantities over the generated suite (at
~1/10 scale, so code sizes are plain KB/LOC rather than hundreds of
KB / KLOC).
"""

from __future__ import annotations

from typing import List

from repro.bench import benchmark_names, load_benchmark
from repro.callgraph import BenchmarkStats, compute_stats
from repro.experiments.harness import format_table, map_rows

HEADERS = [
    "benchmark",
    "classes app",
    "classes total",
    "methods app",
    "methods total",
    "code KB app",
    "code KB total",
    "LOC app",
    "LOC total",
]


def _stats_for_name(name: str) -> BenchmarkStats:
    return compute_stats(load_benchmark(name))


def run(parallel: int = 0) -> List[BenchmarkStats]:
    """Compute all twelve rows."""
    return map_rows(_stats_for_name, benchmark_names(), parallel=parallel)


def render(stats: List[BenchmarkStats]) -> str:
    return format_table(
        HEADERS,
        [s.row() for s in stats],
        title="Table 1: benchmark characteristics (0-CFA-reachable)",
    )


def main(parallel: int = 0) -> None:
    print(render(run(parallel=parallel)))


if __name__ == "__main__":
    main()
