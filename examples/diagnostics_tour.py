"""Inspect what SWIFT did: summaries, coverage, fallbacks.

Runs SWIFT on a suite benchmark and uses the
:class:`repro.framework.explain.SummaryExplorer` diagnostics to answer
the tuning questions: which procedures are hottest, how well do their
bottom-up summaries absorb the incoming-state traffic, and which states
still fall back to the top-down analysis.

Run:  python examples/diagnostics_tour.py [benchmark-name]
"""

import sys

from repro.bench import benchmark_names, load_benchmark
from repro.framework.config import AnalysisConfig
from repro.framework.explain import SummaryExplorer
from repro.framework.session import analysis_session
from repro.framework.swift import SwiftEngine
from repro.typestate.properties import FILE_PROPERTY


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "toba-s"
    if name not in benchmark_names():
        raise SystemExit(f"unknown benchmark {name!r}")
    benchmark = load_benchmark(name)
    domain = analysis_session().build_domain(
        benchmark.program, AnalysisConfig(domain="full"), prop=FILE_PROPERTY
    )
    engine = SwiftEngine(
        benchmark.program, domain.td_analysis, domain.bu_analysis, k=5, theta=1
    )
    result = engine.run(domain.initial_states)
    explorer = SummaryExplorer(result)

    print(explorer.report(limit=8))
    print()
    hottest = explorer.hottest_procedures(1)[0][0]
    print(explorer.explain(hottest))


if __name__ == "__main__":
    main()
