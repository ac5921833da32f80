"""Worklist scheduling policies — same verdict, different work.

The tabulation engines pop path edges in the order a ``Scheduler``
policy chooses (``lifo``, ``fifo``, ``callee-depth``; see
repro.framework.scheduling).  The pop order decides when SWIFT's
bottom-up trigger fires, so work counters move with the policy, but
the reported errors never do.  The example runs SWIFT under every
policy and checks the verdicts coincide.

Run:  python examples/scheduling_policies.py
"""

import time

from repro.bench import load_benchmark
from repro.framework.scheduling import scheduler_names
from repro.typestate.client import run_typestate
from repro.typestate.properties import FILE_PROPERTY


def main() -> None:
    program = load_benchmark("hedc").program
    verdicts = {}
    for policy in scheduler_names():
        started = time.perf_counter()
        report = run_typestate(
            program, FILE_PROPERTY, engine="swift", domain="full",
            scheduler=policy,
        )
        seconds = time.perf_counter() - started
        verdicts[policy] = report.errors
        print(f"{policy:>12}: {seconds:.2f}s, "
              f"work={report.result.metrics.total_work}, "
              f"{report.td_summaries} td-summaries, "
              f"{len(report.errors)} error(s)")
    same = len({frozenset(errors) for errors in verdicts.values()}) == 1
    print(f"identical verdicts across policies: {same}")
    assert same


if __name__ == "__main__":
    main()
