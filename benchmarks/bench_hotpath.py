"""Hot-path layer proof: optimized vs unoptimized engines.

Races the default engine configuration (exit-summary index + operator
memo tables + interned states) against the ablated one
(``indexed_summaries=False, enable_caches=False``) on the two
stress workloads of the hot paths:

* ``hub_flood`` — summary-reuse stress: ``_tabulate_call`` repeatedly
  looks up the hub's exit summaries for recurring incoming states;
* ``deep_chain`` — propagation/transfer stress down a call chain.

Each comparison asserts the optimized run computes byte-identical
``td`` tables, per-proc summary counts and deterministic work counters
— the optimizations may only move wall clock.  Two microbenchmarks
isolate data-structure wins from engine overhead:
``lookup_microbench`` times ``_exit_summaries`` indexed vs linear
scan, and ``sortkey_microbench`` times canonical state sorting with
the interned sort-key cache vs recomputing ``str()`` keys.

Run standalone to (re)generate ``BENCH_hotpath.json``::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--quick] [--out PATH]

or collect under pytest (cheap equivalence checks only)::

    PYTHONPATH=src python -m pytest benchmarks/bench_hotpath.py
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.alias import points_to_oracle
from repro.bench.workloads import deep_chain, hub_flood
from repro.framework.swift import SwiftEngine
from repro.framework.topdown import TopDownEngine
from repro.typestate.full import (
    FullTypestateBU,
    FullTypestateTD,
    full_bootstrap_state,
)
from repro.typestate.properties import FILE_PROPERTY

SIZES = [16, 64, 256]
WORKLOADS = {"hub_flood": hub_flood, "deep_chain": deep_chain}
#: Hub procedure whose exit table the lookup microbenchmark hammers.
LOOKUP_PROC = {"hub_flood": "hub", "deep_chain": "level0"}


def _setup(workload: str, size: int):
    program = WORKLOADS[workload](size)
    oracle = points_to_oracle(program)
    variables = program.variables()
    td_analysis = FullTypestateTD(FILE_PROPERTY, oracle, variables=variables)
    bu_analysis = FullTypestateBU(FILE_PROPERTY, oracle, variables=variables)
    init = full_bootstrap_state(FILE_PROPERTY)
    return program, td_analysis, bu_analysis, init


def _run_td(setup, optimized: bool):
    program, td_analysis, _, init = setup
    engine = TopDownEngine(
        program,
        td_analysis,
        enable_caches=optimized,
        indexed_summaries=optimized,
    )
    started = time.perf_counter()
    result = engine.run([init])
    return engine, result, time.perf_counter() - started


def _run_swift(setup, optimized: bool):
    program, td_analysis, bu_analysis, init = setup
    engine = SwiftEngine(
        program,
        td_analysis,
        bu_analysis,
        k=5,
        theta=1,
        enable_caches=optimized,
        indexed_summaries=optimized,
    )
    started = time.perf_counter()
    result = engine.run([init])
    return engine, result, time.perf_counter() - started


def _assert_identical(opt_result, unopt_result) -> None:
    assert opt_result.td == unopt_result.td, "td tables diverged"
    assert (
        opt_result.summary_counts_by_proc() == unopt_result.summary_counts_by_proc()
    ), "summary counts diverged"
    assert dict(opt_result.entry_counts) == dict(unopt_result.entry_counts)
    assert (
        opt_result.metrics.total_work == unopt_result.metrics.total_work
    ), "deterministic work counters diverged"
    opt_bu = getattr(opt_result, "bu", None)
    if opt_bu is not None:
        unopt_bu = unopt_result.bu
        assert {p: s.case_count() for p, s in opt_bu.items()} == {
            p: s.case_count() for p, s in unopt_bu.items()
        }, "bottom-up summary counts diverged"


def _compare(setup, runner, repeats: int):
    """Best-of-``repeats`` wall clock for both configurations."""
    opt_s = unopt_s = float("inf")
    opt_result = unopt_result = None
    for _ in range(repeats):
        _, opt_result, seconds = runner(setup, True)
        opt_s = min(opt_s, seconds)
        _, unopt_result, seconds = runner(setup, False)
        unopt_s = min(unopt_s, seconds)
    _assert_identical(opt_result, unopt_result)
    metrics = opt_result.metrics
    row = {
        "optimized_s": round(opt_s, 4),
        "unoptimized_s": round(unopt_s, 4),
        "speedup": round(unopt_s / opt_s, 2) if opt_s > 0 else None,
        "reduction_pct": round(100.0 * (1 - opt_s / unopt_s), 1)
        if unopt_s > 0
        else None,
        "work": metrics.total_work,
        "cache_hits": metrics.cache_hits,
        "cache_misses": metrics.cache_misses,
        "identical": True,
    }
    return row


def _lookup_microbench(setup, proc: str):
    """Time ``_exit_summaries`` indexed vs linear scan on final tables.

    Both modes answer the same queries against the same completed run,
    so this isolates the index win from everything else the engines do.
    """
    engine, _, _ = _run_td(setup, True)
    _, callee_exit = engine._proc_points(proc)
    sigmas = list(engine._exit_index.get(proc, {}))
    if not sigmas:
        return None
    rounds = max(1, 20_000 // len(sigmas))

    def timed(indexed: bool) -> float:
        engine.indexed_summaries = indexed
        started = time.perf_counter()
        for _ in range(rounds):
            for sigma in sigmas:
                engine._exit_summaries(proc, callee_exit, sigma)
        return time.perf_counter() - started

    indexed_s = timed(True)
    scan_s = timed(False)
    engine.indexed_summaries = True
    # Sanity: both modes agree on every query.
    for sigma in sigmas:
        indexed_out = sorted(map(str, engine._exit_summaries(proc, callee_exit, sigma)))
        engine.indexed_summaries = False
        scan_out = sorted(map(str, engine._exit_summaries(proc, callee_exit, sigma)))
        engine.indexed_summaries = True
        assert indexed_out == scan_out
    return {
        "queries": rounds * len(sigmas),
        "indexed_s": round(indexed_s, 4),
        "scan_s": round(scan_s, 4),
        "speedup": round(scan_s / indexed_s, 2) if indexed_s > 0 else None,
    }


def _sortkey_microbench(setup):
    """Time canonical state sorting with the interned sort-key cache vs
    recomputing ``str()`` keys, over the run's own reached states."""
    from repro.framework.topdown import state_sort_key

    _, result, _ = _run_td(setup, True)
    states = list({sigma for pairs in result.td.values() for (_, sigma) in pairs})
    if not states:
        return None
    rounds = max(1, 100_000 // len(states))
    for sigma in states:  # warm the key cache once, like the engines do
        state_sort_key(sigma)

    def timed(key) -> float:
        started = time.perf_counter()
        for _ in range(rounds):
            sorted(states, key=key)
        return time.perf_counter() - started

    cached_s = timed(state_sort_key)
    str_s = timed(str)
    assert sorted(states, key=state_sort_key) == sorted(states, key=str)
    return {
        "states": len(states),
        "sorts": rounds,
        "cached_s": round(cached_s, 4),
        "str_s": round(str_s, 4),
        "speedup": round(str_s / cached_s, 2) if cached_s > 0 else None,
    }


def collect(sizes=SIZES, workloads=tuple(WORKLOADS), repeats: int = 3):
    rows = []
    for workload in workloads:
        for size in sizes:
            setup = _setup(workload, size)
            row = {
                "workload": workload,
                "size": size,
                "td": _compare(setup, _run_td, repeats),
                "swift": _compare(setup, _run_swift, repeats),
                "lookup_microbench": _lookup_microbench(setup, LOOKUP_PROC[workload]),
                "sortkey_microbench": _sortkey_microbench(setup),
            }
            rows.append(row)
            td, sw = row["td"], row["swift"]
            print(
                f"  {workload}({size}): td {td['unoptimized_s']:.3f}s -> "
                f"{td['optimized_s']:.3f}s ({td['reduction_pct']}%), "
                f"swift {sw['unoptimized_s']:.3f}s -> {sw['optimized_s']:.3f}s "
                f"({sw['reduction_pct']}%)",
                flush=True,
            )
    return rows


# -- pytest entry points (cheap; the timing run is standalone-only) -------------------
def test_hotpath_equivalence_hub(once):
    setup = _setup("hub_flood", 32)
    row = once(_compare, setup, _run_td, 1)
    assert row["identical"]


def test_hotpath_equivalence_swift(once):
    setup = _setup("hub_flood", 32)
    row = once(_compare, setup, _run_swift, 1)
    assert row["identical"]


def test_lookup_modes_agree(once):
    setup = _setup("hub_flood", 32)
    micro = once(_lookup_microbench, setup, "hub")
    assert micro is not None and micro["queries"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="*", default=SIZES)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_hotpath.json")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: smallest size, one repeat, no JSON rewrite",
    )
    args = parser.parse_args(argv)
    if args.quick:
        rows = collect(sizes=[16], repeats=1)
        print("quick run ok (no JSON written)")
        return 0
    rows = collect(sizes=args.sizes, repeats=args.repeats)
    from repro.experiments.export import export_bench

    path = export_bench(
        "bench_hotpath",
        "optimized (indexed+cached+interned) vs unoptimized engines",
        rows,
        args.out,
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
