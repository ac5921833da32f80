"""Batch demand-query planning (DESIGN §13).

The load-bearing property: every target's answer out of
:func:`repro.query.run_query_batch` is byte-identical to what the
single-target :func:`repro.query.run_query` path returns for it — the
planner only removes duplicated cone work, never changes verdicts.
Reachable targets share ``main`` through their caller closures, so
they always land in one component; extra components appear exactly
when the batch names targets in detached (main-unreachable)
subsystems, which are answered empty at zero cost.
"""

import threading
import time

import pytest

from repro.bench.suite import load_shape
from repro.bench.workloads import hub_flood, scc_heavy, wide_fanout
from repro.incremental import SummaryStore, analyze_with_store, clear_warm_cache
from repro.ir.parser import parse_program
from repro.query import (
    QueryError,
    QueryTarget,
    UnknownTargetError,
    plan_batch,
    run_query,
    run_query_batch,
)
from repro.service.daemon import AnalysisService
from repro.typestate.properties import FILE_PROPERTY

from tests.helpers import best_of

#: main calls a/b; b is self-recursive; orphan is never called.
SHAPES = """
proc main { v = new h1; v.open(); call a; call b; v.close(); }
proc a { call b; }
proc b { choose { call b; } or { f = new h2; f.open(); f.read(); } }
proc orphan { g = new h3; g.open(); }
"""

#: A main program plus a detached two-proc subsystem (aux_top calls
#: aux_leaf; neither is reachable from main) — the shape that makes
#: the planner emit a second component.
DETACHED = """
proc main { v = new h1; v.open(); call work; v.close(); }
proc work { f = new h2; f.open(); f.read(); }
proc aux_top { call aux_leaf; }
proc aux_leaf { g = new h3; g.open(); g.read(); }
"""

#: Wall-clock floor of an 8-target batch vs the same targets as
#: sequential steady queries, on the 166-procedure headline shape.
MIN_BATCH_SPEEDUP = 3.0

def sequential_answers(program, store, targets, **kwargs):
    return {
        str(t): run_query(program, FILE_PROPERTY, store, t, **kwargs).answer
        for t in targets
    }


def batch_answers(outcome):
    return {str(t): a for t, a in outcome.answers.items()}


# -- planning ---------------------------------------------------------------------------


def test_plan_reachable_targets_share_one_component():
    program = wide_fanout(32, seed=1)
    plan = plan_batch(program, ["worker0", "worker3", "worker7", "main"])
    assert plan.n_components == 1
    assert plan.n_solves == 1
    component = plan.components[0]
    assert {"main", "worker0", "worker3", "worker7"} <= component.solve_cone
    # The solve cone is exactly the union of the per-target cones:
    # caller-closed within the reachable program.
    for proc in component.solve_cone:
        callers = {
            caller
            for caller in program.names()
            if proc in program.callees(caller)
        }
        assert (callers & plan.reachable) <= component.solve_cone, proc


def test_plan_detached_subsystem_is_its_own_component():
    program = parse_program(DETACHED)
    plan = plan_batch(program, ["work", "aux_leaf"])
    assert plan.n_components == 2
    assert plan.n_solves == 1  # the detached component never solves
    solved = plan.component_of(QueryTarget("work"))
    skipped = plan.component_of(QueryTarget("aux_leaf"))
    assert solved.solvable and not skipped.solvable
    assert solved.solve_cone == frozenset({"main", "work"})
    # The detached closure still knows its members...
    assert skipped.procs == frozenset({"aux_top", "aux_leaf"})
    # ...but tabulates none of them.
    assert skipped.solve_cone == frozenset()


def test_plan_dedups_targets_and_keeps_input_order():
    program = parse_program(SHAPES)
    plan = plan_batch(program, ["b", "a", "b", "a:0"])
    assert plan.targets == (
        QueryTarget("b"),
        QueryTarget("a"),
        QueryTarget("a", 0),
    )
    # a and b connect through main's calls: one component.
    assert plan.n_components == 1


def test_plan_recursive_scc_stays_whole():
    program = parse_program(SHAPES)
    plan = plan_batch(program, ["b"])
    assert plan.components[0].solve_cone == frozenset({"main", "a", "b"})


def test_plan_rejects_empty_and_unknown():
    program = parse_program(SHAPES)
    with pytest.raises(QueryError):
        plan_batch(program, [])
    with pytest.raises(UnknownTargetError):
        plan_batch(program, ["a", "nosuch"])


# -- batch == sequential ----------------------------------------------------------------


@pytest.mark.parametrize("engine", ["td", "swift"])
def test_batch_matches_sequential_on_recursive_clusters(tmp_path, engine):
    program = scc_heavy(20, seed=2)
    store = SummaryStore(tmp_path / "store")
    analyze_with_store(
        program, FILE_PROPERTY, store, engine=engine, domain="simple"
    )
    targets = sorted(program.names())[:6]
    clear_warm_cache()
    outcome = run_query_batch(program, FILE_PROPERTY, store, targets, engine=engine)
    clear_warm_cache()
    want = sequential_answers(program, store, targets, engine=engine)
    assert batch_answers(outcome) == want


def test_batch_with_detached_targets_matches_sequential(tmp_path):
    program = parse_program(DETACHED)
    store = SummaryStore(tmp_path / "store")
    analyze_with_store(program, FILE_PROPERTY, store, engine="swift", domain="simple")
    targets = ["main", "work", "aux_top", "aux_leaf"]
    clear_warm_cache()
    outcome = run_query_batch(program, FILE_PROPERTY, store, targets)
    clear_warm_cache()
    want = sequential_answers(program, store, targets)
    assert batch_answers(outcome) == want
    assert outcome.batch_components == 2
    assert outcome.solves == 1
    # Detached targets cost nothing and answer empty for every kind.
    assert outcome.answer_for("aux_leaf") == frozenset()
    skipped = [c for c in outcome.components if not c.solved]
    assert len(skipped) == 1 and skipped[0].total_work == 0
    # A point query is a one-target batch: run_query(t) and
    # run_query_batch([t]) agree on the answer, the work and store
    # counters, and the snapshot source — "none" for a detached target,
    # where nothing is read.
    wide = wide_fanout(16, seed=1)
    wide_store = SummaryStore(tmp_path / "wide")
    analyze_with_store(wide, FILE_PROPERTY, wide_store, engine="swift", domain="simple")
    for shape, shape_store, names in (
        (program, store, targets),
        (wide, wide_store, ["main", "worker3", "svc1", "init:0"]),
    ):
        for target in names:
            single = run_query(shape, FILE_PROPERTY, shape_store, target)
            one = run_query_batch(shape, FILE_PROPERTY, shape_store, [target])
            (component,) = one.components
            assert one.answer_for(target) == single.answer, target
            assert (
                one.total_work,
                one.out_of_cone_interior_rows,
                component.store_hits,
                component.store_misses,
                component.store_invalidated,
            ) == (
                single.total_work,
                single.out_of_cone_interior_rows,
                single.store_hits,
                single.store_misses,
                single.store_invalidated,
            ), target
            assert (one.cold, component.frontier_snapshot) == (
                single.cold,
                single.frontier_snapshot,
            ), target
    detached = run_query(program, FILE_PROPERTY, store, "aux_leaf")
    assert (detached.cold, detached.frontier_snapshot) == (False, "none")


def test_batch_cold_on_empty_store_matches_sequential(tmp_path):
    program = hub_flood(6)
    store = SummaryStore(tmp_path / "store")  # never populated
    targets = ["caller1", "caller4"]
    clear_warm_cache()
    outcome = run_query_batch(program, FILE_PROPERTY, store, targets)
    assert outcome.cold
    clear_warm_cache()
    want = sequential_answers(program, store, targets)
    assert batch_answers(outcome) == want


def test_batch_beats_sequential_queries(tmp_path):
    """Eight worker cones share one component, so the batch is one
    cone-union solve: the same answers as eight steady single queries,
    MIN_BATCH_SPEEDUP times faster (each side best of three, after a
    warm-up that decodes the snapshot)."""
    program = load_shape("wide-fanout-160").program
    store = SummaryStore(tmp_path / "store")
    clear_warm_cache()
    analyze_with_store(program, FILE_PROPERTY, store, engine="swift", domain="simple")
    targets = [f"worker{i}" for i in range(8)]
    sequential_answers(program, store, targets)
    want, sequential_s = best_of(
        3, sequential_answers, program, store, targets
    )
    clear_warm_cache()
    run_query_batch(program, FILE_PROPERTY, store, targets)
    outcome, batch_s = best_of(
        3, run_query_batch, program, FILE_PROPERTY, store, targets
    )
    assert batch_answers(outcome) == want
    assert outcome.out_of_cone_interior_rows == 0
    assert (outcome.batch_components, outcome.solves) == (1, 1)
    assert sequential_s >= MIN_BATCH_SPEEDUP * batch_s, (sequential_s, batch_s)


def test_batch_never_writes_the_store(tmp_path):
    program = hub_flood(6)
    store = SummaryStore(tmp_path / "store")
    analyze_with_store(program, FILE_PROPERTY, store, engine="td", domain="simple")
    before = sorted(p.name for p in (tmp_path / "store").iterdir())
    run_query_batch(
        program, FILE_PROPERTY, store, ["caller2", "caller3"], engine="td"
    )
    after = sorted(p.name for p in (tmp_path / "store").iterdir())
    assert before == after


def test_batch_validates_kind_and_precision(tmp_path):
    program = parse_program(SHAPES)
    store = SummaryStore(tmp_path / "store")
    with pytest.raises(QueryError):
        run_query_batch(program, FILE_PROPERTY, store, ["a"], kind="vibes")
    with pytest.raises(QueryError):
        run_query_batch(
            program, FILE_PROPERTY, store, ["a"], query_precision="banana"
        )


def test_attribution_names_each_targets_component(tmp_path):
    program = parse_program(DETACHED)
    store = SummaryStore(tmp_path / "store")
    analyze_with_store(program, FILE_PROPERTY, store, engine="swift", domain="simple")
    outcome = run_query_batch(
        program, FILE_PROPERTY, store, ["work", "aux_leaf"]
    )
    rows = outcome.attribution()
    assert [row["target"] for row in rows] == ["work", "aux_leaf"]
    by_target = {row["target"]: row for row in rows}
    assert by_target["work"]["solved"]
    assert not by_target["aux_leaf"]["solved"]
    assert by_target["work"]["component"] != by_target["aux_leaf"]["component"]


# -- the service batch demand op --------------------------------------------------------


def _service_with(tmp_path, program_src, cfg):
    service = AnalysisService(tmp_path / "svc")
    ran = service.handle(
        {"op": "analyze", "program": program_src, "format": "ir",
         "property": "File", "config": cfg}
    )
    assert ran["ok"]
    return service


def test_service_batch_demand_validates_targets(tmp_path):
    from repro.ir.printer import format_program

    src = format_program(hub_flood(4))
    service = AnalysisService(tmp_path / "svc")
    empty = service.handle(
        {"op": "demand", "program": src, "format": "ir", "property": "File",
         "targets": []}
    )
    assert not empty["ok"]
    bad = service.handle(
        {"op": "demand", "program": src, "format": "ir", "property": "File",
         "targets": ["hub", 7]}
    )
    assert not bad["ok"]
    unknown = service.handle(
        {"op": "demand", "program": src, "format": "ir", "property": "File",
         "targets": ["hub", "nosuch"]}
    )
    assert not unknown["ok"]


def test_service_coalesces_overlapping_batches(tmp_path, monkeypatch):
    from repro.ir.printer import format_program
    import repro.query as query_mod

    program = hub_flood(5)
    src = format_program(program)
    cfg = {"engine": "td", "domain": "simple"}
    service = _service_with(tmp_path, src, cfg)

    real = query_mod.run_query_batch
    entered = threading.Event()
    release = threading.Event()

    def slow_batch(*args, **kwargs):
        entered.set()
        assert release.wait(timeout=30.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(query_mod, "run_query_batch", slow_batch)

    responses = {}

    def run(name, targets):
        responses[name] = service.handle(
            {"op": "demand", "program": src, "format": "ir",
             "property": "File", "targets": targets, "config": cfg,
             "id": name}
        )

    leader = threading.Thread(
        target=run, args=("leader", ["caller1", "caller2", "hub"])
    )
    leader.start()
    assert entered.wait(timeout=30.0)
    # Subset of the in-flight batch: waits for the leader, projects.
    waiter = threading.Thread(target=run, args=("waiter", ["caller2", "hub"]))
    waiter.start()
    # demand_coalesced ticks at registration time: once it reads 1 the
    # waiter is parked on the leader's flight.
    for _ in range(600):
        if service.handle({"op": "stats"})["demand_coalesced"] == 1:
            break
        time.sleep(0.05)
    else:
        pytest.fail("waiter never coalesced onto the in-flight batch")
    # A disjoint batch must NOT coalesce (it would get wrong targets).
    monkeypatch.setattr(query_mod, "run_query_batch", real)
    other = service.handle(
        {"op": "demand", "program": src, "format": "ir", "property": "File",
         "targets": ["caller4"], "config": cfg}
    )
    assert other["ok"] and not other["coalesced"]
    release.set()
    leader.join(timeout=30.0)
    waiter.join(timeout=30.0)
    assert not leader.is_alive() and not waiter.is_alive()

    lead, wait_ = responses["leader"], responses["waiter"]
    assert lead["ok"] and not lead["coalesced"]
    assert wait_["ok"] and wait_["coalesced"]
    assert wait_["id"] == "waiter"
    assert wait_["targets"] == ["caller2", "hub"]
    assert set(wait_["answers"]) == {"caller2", "hub"}
    for target in wait_["targets"]:
        assert wait_["answers"][target] == lead["answers"][target]
    assert [row["target"] for row in wait_["attribution"]] == [
        "caller2", "hub",
    ]
    stats = service.handle({"op": "stats"})
    assert stats["demand_coalesced"] == 1
    assert stats["batch_demands"] == 2  # leader + the disjoint batch
