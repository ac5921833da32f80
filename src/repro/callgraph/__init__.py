"""Call-graph analyses and program statistics.

The IR's calls are direct (virtual dispatch is resolved by the frontend
into ``+``-choice over targets), so the call graph over IR programs is
exact.  The interesting machinery here is:

* :mod:`repro.callgraph.rta` — reachability-based call-graph
  construction (the 0-CFA-equivalent over the IR: procedures reachable
  from ``main``, with the Andersen points-to resolving heap-routed
  flow);
* :mod:`repro.callgraph.stats` — the per-benchmark characteristics of
  Table 1 (#classes, #methods, code size; application vs. total);
* :mod:`repro.callgraph.scc` — iterative Tarjan SCC condensation (the
  query planner, the slicer and value-mode TD's recursion test build
  on it).
"""

from repro.callgraph.rta import CallGraph, build_call_graph
from repro.callgraph.scc import Condensation, condensation, tarjan_sccs
from repro.callgraph.stats import BenchmarkStats, compute_stats

__all__ = [
    "BenchmarkStats",
    "CallGraph",
    "Condensation",
    "build_call_graph",
    "compute_stats",
    "condensation",
    "tarjan_sccs",
]
