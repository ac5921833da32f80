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


def missed_claims(stats: List[BenchmarkStats]) -> List[str]:
    """Table 1's shape: twelve programs; avrora the largest and jpat-p
    and elevator the smallest by application methods; the library adds
    classes, methods, code and lines to every program."""
    by_size = sorted(stats, key=lambda s: s.methods_app)
    claims = [
        (len(stats) == 12, "twelve benchmarks"),
        (
            [s.name for s in by_size[-1:]] == ["avrora"],
            "avrora has the most application methods",
        ),
        (
            {s.name for s in by_size[:2]} == {"jpat-p", "elevator"},
            "jpat-p and elevator have the fewest application methods",
        ),
    ]
    for s in stats:
        claims.append(
            (
                s.classes_total > s.classes_app
                and s.methods_total > s.methods_app
                and s.code_kb_total > s.code_kb_app > 0
                and s.loc_total > s.loc_app > 0,
                f"{s.name}'s totals exceed its application classes, "
                "methods, KB and LOC",
            )
        )
    return [claim for holds, claim in claims if not holds]
