"""Summary-store proof: cold vs warm vs one-procedure-edit runs.

For each suite benchmark this harness runs ``analyze_with_store`` three
times against a fresh store:

* **cold** — empty store, full analysis, snapshot written;
* **warm** — unchanged program, second run over the snapshot, with the
  process-level cache cleared first so it reads and decodes the file
  (reported as ``store_load_s``).  Asserted to report the same errors
  while re-doing < 10% of the cold run's deterministic work (in
  practice 0: the preloaded contexts answer the seed propagation
  outright).  A second warm run (``warm2``) measures the steady state
  of the resident cache: it reuses the decoded ``WarmStart`` and must
  beat the cold run on wall clock, not just on work;
* **edit** — one leaf procedure's body doubled, third run.  Only the
  edited procedure's invalidation cone (itself plus its transitive
  callers) is re-analyzed; the run is asserted to invalidate exactly
  that cone and to report the same errors as a cold run over the edited
  program;
* **edit_steady** — a second leaf edited on top of the first, in the
  same process: the cache entry it reads is the one the edit's save
  patched in place, so it skips load and decode, and its save
  re-encodes only the segments that changed (``segments_written``).
  Asserted to report the same errors as a cold run over that program.

Run standalone to (re)generate ``BENCH_incremental.json``::

    PYTHONPATH=src python benchmarks/bench_incremental.py [--quick] [--out PATH]

or collect under pytest (cheap single-benchmark checks only)::

    PYTHONPATH=src python -m pytest benchmarks/bench_incremental.py
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import benchmark_names, load_benchmark
from repro.framework.metrics import Budget
from repro.incremental import SummaryStore, analyze_with_store
from repro.incremental.driver import clear_warm_cache
from repro.ir.commands import Seq
from repro.ir.program import Program
from repro.typestate.properties import FILE_PROPERTY

BENCHMARKS = ["jpat-p", "elevator", "toba-s"]
ENGINES = ["td", "swift"]
BUDGET_WORK = 400_000
#: Warm re-analysis of an unchanged program must re-do less than this
#: fraction of the cold run's deterministic work.
WARM_WORK_FRACTION = 0.10


def edit_one_leaf(program: Program, nth: int = 0):
    """Double the body of the ``nth`` leaf procedure (callee-free, not
    main; counting wraps around).

    Returns ``(edited program, invalidation cone)`` where the cone is
    the edited procedure plus its transitive callers — exactly the set
    the store must invalidate.
    """
    leaves = [
        proc
        for proc in sorted(program.names())
        if proc != program.main and not program.callees(proc)
    ]
    target = leaves[nth % len(leaves)]
    procs = dict(program.procedures)
    procs[target] = Seq((procs[target], procs[target]))
    callers = program.callers()
    cone = {target}
    frontier = [target]
    while frontier:
        for caller in callers[frontier.pop()]:
            if caller not in cone:
                cone.add(caller)
                frontier.append(caller)
    return Program(procs, main=program.main), cone


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - started


def run_one(name: str, engine: str) -> dict:
    program = load_benchmark(name).program
    edited, cone = edit_one_leaf(program)
    edited_twice, _ = edit_one_leaf(edited, 1)
    budget = Budget(max_work=BUDGET_WORK)
    clear_warm_cache()
    with tempfile.TemporaryDirectory() as root:
        store = SummaryStore(root)
        cold, cold_s = _timed(
            analyze_with_store, program, FILE_PROPERTY, store,
            engine=engine, domain="full", budget=budget,
        )
        clear_warm_cache()  # the cold save left the snapshot resident
        warm, warm_s = _timed(
            analyze_with_store, program, FILE_PROPERTY, store,
            engine=engine, domain="full", budget=budget,
        )
        # Steady state: the decode cache is hot and the unchanged
        # snapshot was not rewritten, so this run skips load + decode.
        warm2, warm2_s = _timed(
            analyze_with_store, program, FILE_PROPERTY, store,
            engine=engine, domain="full", budget=budget,
        )
        edit, edit_s = _timed(
            analyze_with_store, edited, FILE_PROPERTY, store,
            engine=engine, domain="full", budget=budget,
        )
        # The edit's save patched the cache entry in place: this run
        # neither reads nor decodes the snapshot.
        steady, steady_s = _timed(
            analyze_with_store, edited_twice, FILE_PROPERTY, store,
            engine=engine, domain="full", budget=budget,
        )
    # Cold reference runs over the edited programs, for the correctness
    # and work comparisons.
    with tempfile.TemporaryDirectory() as root:
        edit_cold, _ = _timed(
            analyze_with_store, edited, FILE_PROPERTY, SummaryStore(root),
            engine=engine, domain="full", budget=budget,
        )
    with tempfile.TemporaryDirectory() as root:
        steady_cold, _ = _timed(
            analyze_with_store, edited_twice, FILE_PROPERTY, SummaryStore(root),
            engine=engine, domain="full", budget=budget,
        )
    cold_work = cold.report.result.metrics.total_work
    warm_work = warm.report.result.metrics.total_work
    edit_work = edit.report.result.metrics.total_work
    edit_cold_work = edit_cold.report.result.metrics.total_work

    assert warm.report.errors == cold.report.errors, "warm errors diverged"
    assert warm.store_hits > 0, "warm run hit nothing"
    assert warm_work <= WARM_WORK_FRACTION * cold_work, (
        f"warm work {warm_work} not < {WARM_WORK_FRACTION:.0%} of {cold_work}"
    )
    assert warm2.report.errors == cold.report.errors, "warm2 errors diverged"
    warm2_load_s = warm2.report.result.metrics.store_load_seconds
    assert warm2_load_s <= warm.report.result.metrics.store_load_seconds, (
        "decode cache did not shrink the second warm load"
    )
    assert warm2_s <= cold_s, (
        f"steady-state warm wall {warm2_s:.4f}s exceeds cold {cold_s:.4f}s"
    )
    assert edit.report.errors == edit_cold.report.errors, "edit errors diverged"
    assert set(edit.invalidated) == cone, "invalidated set is not the edit cone"
    assert steady.report.errors == steady_cold.report.errors, (
        "edit_steady errors diverged"
    )

    return {
        "benchmark": name,
        "engine": engine,
        "cold": {"work": cold_work, "seconds": round(cold_s, 4)},
        "warm": {
            "work": warm_work,
            "seconds": round(warm_s, 4),
            "store_load_s": round(
                warm.report.result.metrics.store_load_seconds, 4
            ),
            "store_hits": warm.store_hits,
            "work_fraction": round(warm_work / cold_work, 4) if cold_work else 0.0,
        },
        "warm2": {
            "work": warm2.report.result.metrics.total_work,
            "seconds": round(warm2_s, 4),
            "store_load_s": round(warm2_load_s, 4),
        },
        "edit": {
            "work": edit_work,
            "seconds": round(edit_s, 4),
            "cold_work": edit_cold_work,
            "store_hits": edit.store_hits,
            "invalidated": sorted(edit.invalidated),
            "segments_written": edit.segments_written,
            "work_fraction": round(edit_work / edit_cold_work, 4)
            if edit_cold_work
            else 0.0,
        },
        "edit_steady": {
            "work": steady.report.result.metrics.total_work,
            "seconds": round(steady_s, 4),
            "store_load_s": round(
                steady.report.result.metrics.store_load_seconds, 4
            ),
            "segments_written": steady.segments_written,
            "segments_reused": steady.segments_reused,
        },
        "identical": True,
    }


def collect(benchmarks=tuple(BENCHMARKS), engines=tuple(ENGINES)):
    rows = []
    for name in benchmarks:
        for engine in engines:
            row = run_one(name, engine)
            rows.append(row)
            print(
                f"  {name}/{engine}: cold work={row['cold']['work']} "
                f"warm work={row['warm']['work']} "
                f"(load {row['warm']['store_load_s']}s, "
                f"steady {row['warm2']['seconds']}s "
                f"vs cold {row['cold']['seconds']}s) "
                f"edit work={row['edit']['work']} "
                f"(cold-over-edit {row['edit']['cold_work']}, "
                f"{len(row['edit']['invalidated'])} invalidated) "
                f"steady edit {row['edit_steady']['seconds']}s "
                f"({row['edit_steady']['segments_written']} segments written)",
                flush=True,
            )
    return rows


# -- pytest entry points (cheap; the full sweep is standalone-only) -------------------
def test_incremental_warm_td(once):
    row = once(run_one, "jpat-p", "td")
    assert row["warm"]["work"] <= WARM_WORK_FRACTION * row["cold"]["work"]


def test_incremental_warm_swift(once):
    row = once(run_one, "jpat-p", "swift")
    assert row["warm"]["store_hits"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmarks", nargs="*", default=BENCHMARKS)
    parser.add_argument("--out", default="BENCH_incremental.json")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: one benchmark, no JSON rewrite",
    )
    args = parser.parse_args(argv)
    unknown = [b for b in args.benchmarks if b not in benchmark_names()]
    if unknown:
        print(f"unknown benchmark(s) {unknown}; choose from {benchmark_names()}")
        return 2
    if args.quick:
        collect(benchmarks=["jpat-p"])
        print("quick run ok (no JSON written)")
        return 0
    rows = collect(benchmarks=args.benchmarks)
    from repro.experiments.export import export_incremental

    path = export_incremental(rows, args.out)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
