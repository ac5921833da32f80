"""Demand-query proof: per-query work proportional to the cone.

The headline row answers the subsystem's acceptance question on a
generated 166-procedure program (``wide-fanout-160``) with a populated
summary store:

* **cold** — whole-program cold ``analyze --store`` (wall + work);
* **first query** — one ``run_query`` against the fresh store.  Pays
  the snapshot decode (O(program)) once, so its wall clock is *not*
  the steady state;
* **steady query** — repeated queries through the process-level decode
  cache (the resident-service scenario; best of ``STEADY_ROUNDS``).
  Asserted to run ``MIN_SPEEDUP``x faster than the cold whole-program
  run, to tabulate **zero** out-of-cone interior rows, and to report a
  verdict identical to the whole-program reference (top-down) verdict
  restricted to the target (``identical: true``).

The proportionality rows then query three targets of increasing cone
size on every registered shape and record ``(cone, work)`` pairs: work
must grow with the cone and stay below the whole-program work.

Three batch/frontier rows answer ISSUE 10's acceptance questions:

* **batch** — a batch of ``BATCH_SIZE`` targets through
  ``run_query_batch`` vs the same targets as sequential steady
  ``run_query`` calls: answers byte-identical, wall clock asserted
  ``MIN_BATCH_SPEEDUP``x faster (the cones share one component, so the
  planner runs one cone-union solve instead of eight);
* **batch_components** — the same program with a detached auxiliary
  subsystem appended: targets split into two components, of which only
  the main-reachable one is solved (the detached one answers empty at
  zero cost), still byte-identical to sequential;
* **frontier** — ``run_query``'s first-query ``store_load_s`` (load
  the snapshot, view its frontier, decode what the cone pulls) vs the
  analyze path's full decode of the same snapshot (load, diff,
  ``build_warm_start``), asserted ``MIN_FRONTIER_SPEEDUP``x apart,
  with the query verdict equal to the whole-program reference.

The **resident** row is the daemon's demand path: ``RESIDENT_TARGETS``
*distinct* targets through one decode cache (the steady row repeats a
single target, so it cannot show sharing across cones).  Each answer
and counter must equal a fresh-cache run of the same target; the row
records per-query seconds both ways, how many times the snapshot was
loaded, and how many segments were projected — once per store version
when resident, once per query when isolated.

Run standalone to (re)generate ``BENCH_query.json``::

    PYTHONPATH=src python benchmarks/bench_query.py [--quick] [--out PATH]

(``--quick`` keeps only the headline shape but still writes the JSON —
CI uploads it as an artifact) or collect under pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_query.py
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.suite import SHAPE_CONFIGS, load_shape
from repro.incremental import (
    SummaryStore,
    WarmCache,
    analyze_with_store,
    build_warm_start,
    clear_warm_cache,
    diff_fingerprints,
    prepare_store_run,
)
from repro.framework.config import AnalysisConfig
from repro.query import engine as query_engine
from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from repro.query import (
    QueryTarget,
    compute_cone,
    run_query,
    run_query_batch,
)
from repro.typestate.client import run_typestate
from repro.typestate.properties import FILE_PROPERTY

HEADLINE_SHAPE = "wide-fanout-160"
HEADLINE_TARGET = "worker3"
ENGINE = "swift"
DOMAIN = "simple"
STEADY_ROUNDS = 3
#: The steady-state query must beat the cold whole-program run by this
#: factor on wall clock (measured headroom on this shape is ~8x).
MIN_SPEEDUP = 5.0
#: Targets per batch row, and the floor on batch-vs-sequential speedup
#: (measured headroom on the headline shape is ~8-12x).
BATCH_SIZE = 8
MIN_BATCH_SPEEDUP = 3.0
#: Floor on the first query's ``store_load_s`` vs a full decode of the
#: same snapshot (measured headroom is ~7x: the query reads and
#: checksums the whole file, then parses only its frontier segments).
MIN_FRONTIER_SPEEDUP = 5.0

#: Distinct targets of the resident row: workers spread over the
#: fan-out plus two hubs (whose cones hold the workers calling them).
RESIDENT_TARGETS = [f"worker{i}" for i in range(0, 160, 14)] + ["svc0", "svc1"]

#: A detached subsystem (unreachable from main) appended for the
#: two-component batch row; targeting it exercises the planner's
#: empty-solve-cone component path.
DETACHED_AUX = """
proc aux_top { call aux_leaf; }
proc aux_leaf { g = new h9001; g.open(); g.read(); }
"""

#: Three targets of increasing cone size per registered shape.
PROPORTIONALITY_TARGETS = {
    "deep-recursion-128": ["rec0", "rec49", "rec99"],
    "wide-fanout-160": ["worker3", "svc1", "svc0"],
    "diamond-sharing-144": ["d0_0", "d4_0", "d9_9"],
    "scc-heavy-128": ["c0_0", "c4_0", "c9_3"],
}


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - started


def reference_errors(program, target_proc, domain=DOMAIN):
    """Whole-program top-down findings restricted to ``target_proc``."""
    report = run_typestate(program, FILE_PROPERTY, engine="td", domain=domain)
    target = QueryTarget(target_proc)
    return frozenset(
        (point, site) for point, site in report.errors if target.covers(point)
    )


def run_headline() -> dict:
    """Cold whole-program vs first vs steady-state query on the headline shape."""
    benchmark = load_shape(HEADLINE_SHAPE)
    program = benchmark.program
    assert len(program) >= 128, f"headline shape has only {len(program)} procs"
    clear_warm_cache()
    with tempfile.TemporaryDirectory() as root:
        store = SummaryStore(root)
        cold, cold_s = _timed(
            analyze_with_store, program, FILE_PROPERTY, store,
            engine=ENGINE, domain=DOMAIN,
        )
        first, first_s = _timed(
            run_query, program, FILE_PROPERTY, store, HEADLINE_TARGET,
            engine=ENGINE, domain=DOMAIN,
        )
        steady_s = None
        for _ in range(STEADY_ROUNDS):
            steady, took = _timed(
                run_query, program, FILE_PROPERTY, store, HEADLINE_TARGET,
                engine=ENGINE, domain=DOMAIN,
            )
            steady_s = took if steady_s is None else min(steady_s, took)

    cold_work = cold.report.result.metrics.total_work
    reference = reference_errors(program, HEADLINE_TARGET)
    identical = first.answer == reference and steady.answer == reference
    assert identical, "query verdict diverged from the whole-program reference"
    assert not first.cold, "store snapshot was not picked up"
    assert first.out_of_cone_interior_rows == 0, (
        f"{first.out_of_cone_interior_rows} out-of-cone interior rows tabulated"
    )
    assert steady.out_of_cone_interior_rows == 0
    assert steady.total_work < cold_work, "query work not below whole-program work"
    speedup = cold_s / steady_s if steady_s else float("inf")
    assert speedup >= MIN_SPEEDUP, (
        f"steady query {steady_s:.4f}s is only {speedup:.1f}x faster than "
        f"cold whole-program {cold_s:.4f}s (need {MIN_SPEEDUP}x)"
    )
    return {
        "shape": HEADLINE_SHAPE,
        "procedures": len(program),
        "target": HEADLINE_TARGET,
        "engine": ENGINE,
        "domain": DOMAIN,
        "cold": {"work": cold_work, "seconds": round(cold_s, 4)},
        "first_query": {
            "work": first.total_work,
            "seconds": round(first_s, 4),
            "store_load_s": round(first.store_load_seconds, 4),
        },
        "steady_query": {
            "work": steady.total_work,
            "seconds": round(steady_s, 4),
            "cone": steady.cone_size,
            "frontier": steady.frontier_size,
            "out_of_cone_interior_rows": steady.out_of_cone_interior_rows,
        },
        "speedup": round(speedup, 2),
        "identical": identical,
        "errors_at_target": len(reference),
    }


def _batch_targets(program):
    names = set(program.names())
    targets = [f"worker{i}" for i in range(BATCH_SIZE)]
    assert names.issuperset(targets), "headline shape changed under the bench"
    return targets


def _steady_sequential(program, store, targets):
    """Per-target steady-state queries: (outcomes, total seconds)."""
    for target in targets:  # decode warm-up
        run_query(program, FILE_PROPERTY, store, target, engine=ENGINE, domain=DOMAIN)
    outcomes, seconds = _timed(
        lambda: [
            run_query(program, FILE_PROPERTY, store, target, engine=ENGINE, domain=DOMAIN)
            for target in targets
        ]
    )
    return outcomes, seconds


def run_batch() -> dict:
    """A batch of ``BATCH_SIZE`` targets vs the same targets sequentially."""
    program = load_shape(HEADLINE_SHAPE).program
    targets = _batch_targets(program)
    clear_warm_cache()
    with tempfile.TemporaryDirectory() as root:
        store = SummaryStore(root)
        analyze_with_store(
            program, FILE_PROPERTY, store, engine=ENGINE, domain=DOMAIN
        )
        sequential, sequential_s = _steady_sequential(program, store, targets)
        clear_warm_cache()
        run_query_batch(  # decode warm-up, like the sequential side
            program, FILE_PROPERTY, store, targets, engine=ENGINE, domain=DOMAIN
        )
        batch, batch_s = _timed(
            run_query_batch,
            program, FILE_PROPERTY, store, targets, engine=ENGINE, domain=DOMAIN,
        )
    identical = all(
        batch.answer_for(target) == single.answer
        for target, single in zip(targets, sequential)
    )
    assert identical, "batch answers diverged from per-target queries"
    assert batch.out_of_cone_interior_rows == 0
    assert batch.batch_components == 1, "worker cones must share one component"
    speedup = sequential_s / batch_s if batch_s else float("inf")
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batch {batch_s:.4f}s is only {speedup:.1f}x faster than "
        f"{len(targets)} sequential queries {sequential_s:.4f}s "
        f"(need {MIN_BATCH_SPEEDUP}x)"
    )
    return {
        "shape": HEADLINE_SHAPE,
        "engine": ENGINE,
        "domain": DOMAIN,
        "targets": len(targets),
        "batch": {
            "seconds": round(batch_s, 4),
            "work": batch.total_work,
            "components": batch.batch_components,
            "solves": batch.solves,
            "solves_per_component": [
                {"component": c.index, "targets": len(c.targets), "solved": c.solved}
                for c in batch.components
            ],
        },
        "sequential": {
            "seconds": round(sequential_s, 4),
            "work": sum(o.total_work for o in sequential),
        },
        "speedup": round(speedup, 2),
        "identical": identical,
    }


def run_batch_components() -> dict:
    """The two-component batch: headline shape plus a detached subsystem."""
    base = load_shape(HEADLINE_SHAPE).program
    program = parse_program(format_program(base) + DETACHED_AUX)
    targets = _batch_targets(program)[: BATCH_SIZE - 2] + ["aux_top", "aux_leaf"]
    clear_warm_cache()
    with tempfile.TemporaryDirectory() as root:
        store = SummaryStore(root)
        analyze_with_store(
            program, FILE_PROPERTY, store, engine=ENGINE, domain=DOMAIN
        )
        sequential, _ = _steady_sequential(program, store, targets)
        batch = run_query_batch(
            program, FILE_PROPERTY, store, targets, engine=ENGINE, domain=DOMAIN
        )
    identical = all(
        batch.answer_for(target) == single.answer
        for target, single in zip(targets, sequential)
    )
    assert identical, "two-component batch diverged from per-target queries"
    assert batch.batch_components == 2, batch.batch_components
    assert batch.solves == 1, "the detached component must not be solved"
    assert batch.answer_for("aux_leaf") == frozenset()
    return {
        "shape": f"{HEADLINE_SHAPE}+detached-aux",
        "engine": ENGINE,
        "domain": DOMAIN,
        "targets": len(targets),
        "components": batch.batch_components,
        "solves": batch.solves,
        "attribution": batch.attribution(),
        "identical": identical,
    }


def run_frontier_ablation() -> dict:
    """First-query ``store_load_s``: the frontier view vs a full decode."""
    program = load_shape(HEADLINE_SHAPE).program
    reference = reference_errors(program, HEADLINE_TARGET)
    config = AnalysisConfig(engine=ENGINE, domain=DOMAIN)
    _, fingerprints, _, config_fp, codec = prepare_store_run(
        program, FILE_PROPERTY, config
    )
    loads = {}
    with tempfile.TemporaryDirectory() as root:
        store = SummaryStore(root)
        analyze_with_store(program, FILE_PROPERTY, store, config=config)
        for _ in range(STEADY_ROUNDS):
            clear_warm_cache()  # every round pays the first-query load
            outcome = run_query(
                program, FILE_PROPERTY, store, HEADLINE_TARGET, config=config
            )
            assert outcome.frontier_snapshot == "hit", outcome.frontier_snapshot
            assert outcome.out_of_cone_interior_rows == 0
            assert outcome.answer == reference, "the query verdict diverged"
            started = time.perf_counter()
            snapshot = store.load(config_fp)
            plan = diff_fingerprints(snapshot.fingerprints, fingerprints)
            build_warm_start(snapshot, plan, codec)
            full = time.perf_counter() - started
            for mode, seconds in (
                ("frontier", outcome.store_load_seconds), ("full", full)
            ):
                loads[mode] = min(loads.get(mode, seconds), seconds)
    speedup = loads["full"] / loads["frontier"] if loads["frontier"] else float("inf")
    assert speedup >= MIN_FRONTIER_SPEEDUP, (
        f"first-query store load {loads['frontier']:.4f}s is only {speedup:.1f}x "
        f"below the full decode {loads['full']:.4f}s (need {MIN_FRONTIER_SPEEDUP}x)"
    )
    return {
        "shape": HEADLINE_SHAPE,
        "target": HEADLINE_TARGET,
        "engine": ENGINE,
        "domain": DOMAIN,
        "first_query_store_load_s": {
            "frontier": round(loads["frontier"], 5),
            "full": round(loads["full"], 5),
        },
        "speedup": round(speedup, 2),
        "identical": True,
    }


def _counting_loads(store):
    """Record every snapshot ``store`` loads and every frontier view the
    query engine builds over one (their projected-segment counts can be
    read afterwards)."""
    loaded, views = [], []
    load, project = store.load, query_engine.project_frontier

    def counting_load(config_fp):
        loaded.append(config_fp)
        return load(config_fp)

    def recording_project(*args):
        views.append(project(*args))
        return views[-1]

    store.load = counting_load
    return loaded, views, mock.patch.object(
        query_engine, "project_frontier", recording_project
    )


def run_resident() -> dict:
    """``RESIDENT_TARGETS`` distinct targets through one cache vs each
    through a fresh one: same answers and counters, one decode."""
    program = load_shape(HEADLINE_SHAPE).program
    assert set(RESIDENT_TARGETS) <= set(program.names())
    assert len(set(RESIDENT_TARGETS)) == len(RESIDENT_TARGETS)
    with tempfile.TemporaryDirectory() as root:
        store = SummaryStore(root)
        analyze_with_store(
            program, FILE_PROPERTY, store, engine=ENGINE, domain=DOMAIN
        )
        modes = {}
        for mode in ("isolated", "resident"):
            loaded, views, recording = _counting_loads(store)
            cache = WarmCache(capacity=8)
            outcomes, times = [], []
            with recording:
                for target in RESIDENT_TARGETS:
                    if mode == "isolated":
                        cache = WarmCache(capacity=8)
                    outcome, seconds = _timed(
                        run_query, program, FILE_PROPERTY, store, target,
                        engine=ENGINE, domain=DOMAIN, warm_cache=cache,
                    )
                    assert outcome.frontier_snapshot == "hit", (mode, target)
                    assert outcome.out_of_cone_interior_rows == 0, (mode, target)
                    outcomes.append(outcome)
                    times.append(seconds)
            modes[mode] = {
                "outcomes": outcomes,
                "times": times,
                "store_loads": len(loaded),
                "payloads_parsed": sum(len(view.projected) for view in views),
            }
            del store.load
    resident, isolated = modes["resident"], modes["isolated"]

    def counters(outcome):
        return (
            outcome.answer,
            outcome.total_work,
            outcome.store_hits,
            outcome.store_misses,
            outcome.cone_size,
        )

    identical = all(
        counters(a) == counters(b)
        for a, b in zip(resident["outcomes"], isolated["outcomes"])
    )
    assert identical, "resident answers diverged from fresh-cache queries"
    assert resident["store_loads"] == 1, resident["store_loads"]
    assert resident["payloads_parsed"] < isolated["payloads_parsed"]

    def per_query(times):
        ordered = sorted(times)
        return {
            "mean": round(sum(times) / len(times), 4),
            "median": round(ordered[len(ordered) // 2], 4),
        }

    return {
        "shape": HEADLINE_SHAPE,
        "engine": ENGINE,
        "domain": DOMAIN,
        "targets": len(RESIDENT_TARGETS),
        "work": sum(o.total_work for o in resident["outcomes"]),
        "resident": {
            "seconds_per_query": per_query(resident["times"]),
            "store_loads": resident["store_loads"],
            "payloads_parsed": resident["payloads_parsed"],
        },
        "isolated": {
            "seconds_per_query": per_query(isolated["times"]),
            "store_loads": isolated["store_loads"],
            "payloads_parsed": isolated["payloads_parsed"],
        },
        "identical": identical,
    }


def run_proportionality(shape_name: str) -> dict:
    """Three queries of increasing cone size on one shape.

    Query work is compared against the whole-program *reference* (TD)
    work — the precision a query answers at.  The whole-program SWIFT
    work is recorded too: for cones approaching the whole program a
    reference-precision cone solve can exceed it (the TUNING crossover),
    but it must always stay below solving the whole program at the same
    precision.
    """
    benchmark = load_shape(shape_name)
    program = benchmark.program
    clear_warm_cache()
    queries = []
    reference = run_typestate(program, FILE_PROPERTY, engine="td", domain=DOMAIN)
    reference_work = reference.result.metrics.total_work
    with tempfile.TemporaryDirectory() as root:
        store = SummaryStore(root)
        cold, _ = _timed(
            analyze_with_store, program, FILE_PROPERTY, store,
            engine=ENGINE, domain=DOMAIN,
        )
        cold_work = cold.report.result.metrics.total_work
        for target in PROPORTIONALITY_TARGETS[shape_name]:
            cone = compute_cone(program, QueryTarget(target))
            run_query(  # decode warm-up: steady state, like the headline
                program, FILE_PROPERTY, store, target,
                engine=ENGINE, domain=DOMAIN,
            )
            outcome, seconds = _timed(
                run_query, program, FILE_PROPERTY, store, target,
                engine=ENGINE, domain=DOMAIN,
            )
            assert outcome.out_of_cone_interior_rows == 0, (shape_name, target)
            assert outcome.total_work < reference_work, (shape_name, target)
            want = frozenset(
                (point, site)
                for point, site in reference.errors
                if QueryTarget(target).covers(point)
            )
            assert outcome.answer == want, (shape_name, target)
            queries.append(
                {
                    "target": target,
                    "cone": cone.size,
                    "work": outcome.total_work,
                    "seconds": round(seconds, 4),
                }
            )
    works = [q["work"] for q in sorted(queries, key=lambda q: q["cone"])]
    assert works[0] < works[-1], (
        f"{shape_name}: work did not grow with the cone ({queries})"
    )
    return {
        "shape": shape_name,
        "procedures": len(program),
        "engine": ENGINE,
        "domain": DOMAIN,
        "whole_program_work": cold_work,
        "reference_work": reference_work,
        "queries": queries,
        "identical": True,
    }


def collect(quick: bool = False):
    rows = [run_headline()]
    head = rows[0]
    print(
        f"  {head['shape']}/{head['engine']}: cold {head['cold']['seconds']}s "
        f"work={head['cold']['work']}; first query "
        f"{head['first_query']['seconds']}s; steady "
        f"{head['steady_query']['seconds']}s work={head['steady_query']['work']} "
        f"cone={head['steady_query']['cone']}/{head['procedures']} -> "
        f"{head['speedup']}x, identical={head['identical']}",
        flush=True,
    )
    batch = dict(run_batch(), row="batch")
    rows.append(batch)
    print(
        f"  batch {batch['targets']} targets: {batch['batch']['seconds']}s vs "
        f"sequential {batch['sequential']['seconds']}s -> {batch['speedup']}x, "
        f"components={batch['batch']['components']} "
        f"solves={batch['batch']['solves']} identical={batch['identical']}",
        flush=True,
    )
    comp = dict(run_batch_components(), row="batch_components")
    rows.append(comp)
    print(
        f"  {comp['shape']}: {comp['targets']} targets -> "
        f"components={comp['components']} solves={comp['solves']} "
        f"identical={comp['identical']}",
        flush=True,
    )
    frontier = dict(run_frontier_ablation(), row="frontier")
    rows.append(frontier)
    loads = frontier["first_query_store_load_s"]
    print(
        f"  frontier first-query store load: {loads['frontier']}s vs full "
        f"{loads['full']}s -> {frontier['speedup']}x",
        flush=True,
    )
    resident = dict(run_resident(), row="resident")
    rows.append(resident)
    print(
        f"  resident {resident['targets']} distinct targets: "
        f"{resident['resident']['seconds_per_query']['mean']}s/query, "
        f"{resident['resident']['payloads_parsed']} payloads parsed vs "
        f"isolated {resident['isolated']['seconds_per_query']['mean']}s/query, "
        f"{resident['isolated']['payloads_parsed']} parsed, "
        f"identical={resident['identical']}",
        flush=True,
    )
    shapes = (
        [HEADLINE_SHAPE]
        if quick
        # Only shapes with registered targets (loop-nest-64 is a
        # value-mode shape; bench_numeric covers it).
        else [
            cfg.name
            for cfg in SHAPE_CONFIGS
            if cfg.name in PROPORTIONALITY_TARGETS
        ]
    )
    for shape_name in shapes:
        row = run_proportionality(shape_name)
        rows.append(row)
        pairs = ", ".join(f"{q['cone']}->{q['work']}" for q in row["queries"])
        print(
            f"  {row['shape']}: whole-program work={row['whole_program_work']} "
            f"per-query cone->work: {pairs}",
            flush=True,
        )
    return rows


# -- pytest entry points (cheap; the full sweep is standalone-only) -------------------
def test_query_headline(once):
    row = once(run_headline)
    assert row["identical"]
    assert row["speedup"] >= MIN_SPEEDUP
    assert row["steady_query"]["out_of_cone_interior_rows"] == 0


def test_query_proportionality(once):
    row = once(run_proportionality, "scc-heavy-128")
    assert row["identical"]
    works = sorted(q["work"] for q in row["queries"])
    assert works[-1] < row["whole_program_work"]


def test_query_batch_speedup(once):
    row = once(run_batch)
    assert row["identical"]
    assert row["speedup"] >= MIN_BATCH_SPEEDUP
    assert row["batch"]["solves"] == 1


def test_query_batch_components(once):
    row = once(run_batch_components)
    assert row["identical"]
    assert (row["components"], row["solves"]) == (2, 1)


def test_query_frontier_ablation(once):
    row = once(run_frontier_ablation)
    assert row["identical"]
    assert row["speedup"] >= MIN_FRONTIER_SPEEDUP


def test_query_resident(once):
    row = once(run_resident)
    assert row["identical"]
    assert row["resident"]["store_loads"] == 1
    assert row["resident"]["payloads_parsed"] < row["isolated"]["payloads_parsed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_query.json")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: headline shape only (still writes the JSON)",
    )
    args = parser.parse_args(argv)
    rows = collect(quick=args.quick)
    from repro.experiments.export import export_query

    path = export_query(rows, args.out)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
