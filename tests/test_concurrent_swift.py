"""Tests for the asynchronous SWIFT variant (Section 7 future work)."""

import pytest

from repro.callgraph.scc import condensation
from repro.framework.concurrent import (
    ConcurrentHarvestError,
    ConcurrentSwiftEngine,
    _SccPlan,
)
from repro.framework.swift import SwiftEngine
from repro.framework.topdown import TopDownEngine
from repro.framework.tracing import RingSink
from repro.ir.builder import ProgramBuilder
from repro.typestate.bu_analysis import SimpleTypestateBU
from repro.typestate.properties import FILE_PROPERTY
from repro.typestate.states import bootstrap_state
from repro.typestate.td_analysis import SimpleTypestateTD

from tests.helpers import InlineExecutor, all_small_programs, figure1_program


def layered_program():
    """Three call-graph layers: triggers on ``mid`` span two waves."""
    b = ProgramBuilder()
    with b.proc("main") as p:
        p.new("v1", "h1").assign("f", "v1").call("mid")
        p.new("v2", "h2").assign("f", "v2").call("mid")
        p.new("v3", "h3").assign("f", "v3").call("mid")
    with b.proc("mid") as p:
        p.call("leaf")
    with b.proc("leaf") as p:
        p.invoke("f", "open").invoke("f", "close")
    return b.build()


def _run_concurrent(program, k=1, theta=2, max_workers=2):
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    bu_analysis = SimpleTypestateBU(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    engine = ConcurrentSwiftEngine(
        program, td_analysis, bu_analysis, k=k, theta=theta, max_workers=max_workers
    )
    result = engine.run(initial)
    td_result = TopDownEngine(program, td_analysis).run(initial)
    return result, td_result


@pytest.mark.parametrize("program", all_small_programs())
def test_concurrent_swift_equivalent_to_td(program):
    result, td_result = _run_concurrent(program)
    assert result.exit_states() == td_result.exit_states()
    for point in result.cfgs["main"].points:
        assert result.states_at(point) == td_result.states_at(point)


def test_concurrent_swift_repeatable_verdicts():
    """Summary installation timing may vary; client verdicts must not."""
    program = figure1_program()
    exits = {tuple(sorted(map(str, _run_concurrent(program)[0].exit_states())))
             for _ in range(5)}
    assert len(exits) == 1


def test_concurrent_on_generated_benchmark():
    from repro.alias import points_to_oracle
    from repro.bench import load_benchmark
    from repro.typestate.full import (
        FullTypestateBU,
        FullTypestateTD,
        full_bootstrap_state,
    )

    benchmark = load_benchmark("toba-s")
    program = benchmark.program
    oracle = points_to_oracle(program)
    variables = program.variables()
    td_analysis = FullTypestateTD(FILE_PROPERTY, oracle, variables=variables)
    bu_analysis = FullTypestateBU(FILE_PROPERTY, oracle, variables=variables)
    init = full_bootstrap_state(FILE_PROPERTY)
    concurrent = ConcurrentSwiftEngine(
        program, td_analysis, bu_analysis, k=5, theta=1
    ).run([init])
    sequential = TopDownEngine(program, td_analysis).run([init])
    assert concurrent.exit_states() == sequential.exit_states()


def test_concurrent_executor_cleaned_up():
    program = figure1_program()
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    bu_analysis = SimpleTypestateBU(FILE_PROPERTY)
    engine = ConcurrentSwiftEngine(program, td_analysis, bu_analysis, k=1)
    engine.run([bootstrap_state(FILE_PROPERTY)])
    assert engine._executor is None
    assert not engine._in_flight


# -- worker failure handling ---------------------------------------------------------
class _ExplodingWorkerEngine(ConcurrentSwiftEngine):
    """Every bottom-up worker dies with the same ValueError."""

    @staticmethod
    def _timed_analyze(engine, targets, external):
        raise ValueError("worker boom")


def _exploding_engine(k=1):
    return _ExplodingWorkerEngine(
        figure1_program(),
        SimpleTypestateTD(FILE_PROPERTY),
        SimpleTypestateBU(FILE_PROPERTY),
        k=k,
    )


def test_worker_exception_raises_aggregate():
    """A failing bottom-up worker must surface as ConcurrentHarvestError
    carrying the original exception (previously it could be raised from
    inside run()'s finally block, masking the run's own outcome)."""
    engine = _exploding_engine()
    with pytest.raises(ConcurrentHarvestError) as info:
        engine.run([bootstrap_state(FILE_PROPERTY)])
    assert info.value.errors
    assert all(isinstance(e, ValueError) for e in info.value.errors)
    assert "worker boom" in str(info.value)


def test_worker_exception_still_cleans_up_executor():
    engine = _exploding_engine()
    with pytest.raises(ConcurrentHarvestError):
        engine.run([bootstrap_state(FILE_PROPERTY)])
    assert engine._executor is None
    assert not engine._in_flight
    assert not engine._pending_procs


def test_run_exception_not_masked_by_worker_failure(monkeypatch):
    """When the tabulation itself raises, a simultaneously failing
    worker must not replace that exception (the finally-block bug)."""

    class TabulationBoom(Exception):
        pass

    engine = _exploding_engine()

    def failing_run(initial_states):
        # Simulate a trigger having submitted a doomed job, then the
        # tabulation loop dying: the doomed future is in flight when
        # run()'s cleanup executes.
        future = engine._executor.submit(engine._timed_analyze, None, frozenset(), {})
        engine._in_flight.append(("foo", frozenset({"foo"}), future))
        raise TabulationBoom()

    monkeypatch.setattr(SwiftEngine, "run", lambda self, init: failing_run(init))
    with pytest.raises(TabulationBoom):
        engine.run([bootstrap_state(FILE_PROPERTY)])
    # Cleanup still happened even though the worker error was dropped in
    # favour of the run's own exception.
    assert engine._executor is None
    assert not engine._in_flight


# -- SCC wavefront submission --------------------------------------------------------
def _bare_engine(program, **kwargs):
    return ConcurrentSwiftEngine(
        program,
        SimpleTypestateTD(FILE_PROPERTY),
        SimpleTypestateBU(FILE_PROPERTY),
        k=1,
        **kwargs,
    )


def test_scc_plan_unsubmitted_procs():
    plan = _SccPlan("r", [[("leaf",)], [("a",), ("b",)], [("top",)]])
    assert plan.unsubmitted_procs() == frozenset({"a", "b", "top"})
    plan.wave = 1
    assert plan.unsubmitted_procs() == frozenset({"top"})
    plan.wave = 2
    assert plan.unsubmitted_procs() == frozenset()


def test_abort_plan_releases_pending_and_optionally_disables():
    engine = _bare_engine(layered_program())
    plan = _SccPlan("mid", [[("leaf",)], [("mid",)]])
    engine._pending_procs = {"leaf", "mid"}
    engine._abort_plan(plan, disable=True)
    assert plan.aborted
    # The in-flight wave keeps its reservation (its harvest clears it);
    # the never-submitted wave is released and disabled.
    assert engine._pending_procs == {"leaf"}
    assert engine._bu_disabled == {"mid"}
    # A second abort (another job of the same wave failing) is a no-op.
    engine._bu_disabled.clear()
    engine._abort_plan(plan, disable=True)
    assert engine._bu_disabled == set()


def test_harvest_advances_to_next_wave():
    """Once a wave has fully landed, the harvest submits the next one,
    whose snapshot then contains the previous wave's summaries."""
    program = layered_program()
    engine = _bare_engine(program)
    engine._executor = InlineExecutor()
    targets = frozenset({"mid", "leaf"})
    plan = _SccPlan("mid", condensation(program).wavefronts(targets))
    assert len(plan.waves) == 2
    engine._pending_procs |= targets
    engine._submit_wave(plan)
    assert [t for (_, t, _) in engine._in_flight] == [frozenset({"leaf"})]
    root, job_targets, future = engine._in_flight.pop()
    assert engine._harvest(root, job_targets, future, install=True) is None
    assert "leaf" in engine.bu
    # The harvest advanced the plan and submitted wave 1 (mid).
    assert plan.wave == 1
    assert [t for (_, t, _) in engine._in_flight] == [frozenset({"mid"})]
    root, job_targets, future = engine._in_flight.pop()
    assert engine._harvest(root, job_targets, future, install=True) is None
    assert "mid" in engine.bu
    assert not engine._pending_procs
    assert not engine._job_plan
    engine._executor = None


def test_wavefront_engine_matches_td_and_emits_scc_events():
    program = layered_program()
    sink = RingSink()
    engine = _bare_engine(program, max_workers=2, sink=sink)
    initial = [bootstrap_state(FILE_PROPERTY)]
    result = engine.run(initial)
    td_result = TopDownEngine(program, SimpleTypestateTD(FILE_PROPERTY)).run(initial)
    assert result.exit_states() == td_result.exit_states()
    submitted = [e for e in sink.events if e.kind == "bu_scc_submitted"]
    assert submitted  # at least one trigger fired and was wavefronted
    for event in submitted:
        assert event.data["procs"]
        assert event.data["wave"] >= 0
    # Per root, wave numbers never decrease in emission order.
    by_root = {}
    for event in submitted:
        waves = by_root.setdefault(event.proc, [])
        if waves:
            assert event.data["wave"] >= waves[-1]
        waves.append(event.data["wave"])


def test_concurrent_accepts_warm_start_and_folds_store_counters(tmp_path):
    """The harvest's field-iterating Metrics.merge must fold the store
    counters, and ``preload=`` must pass through the **kwargs path."""
    from repro.incremental import (
        Codec,
        ProgramFingerprints,
        SummaryStore,
        build_snapshot,
        build_warm_start,
        config_fingerprint,
        diff_fingerprints,
    )

    program = figure1_program()
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    bu_analysis = SimpleTypestateBU(FILE_PROPERTY)
    initial = [bootstrap_state(FILE_PROPERTY)]
    codec = Codec("simple", bu_analysis)
    config, config_fp = config_fingerprint(
        FILE_PROPERTY, domain="simple", engine="swift", k=1, theta=2
    )
    fps = ProgramFingerprints(program)
    cold = SwiftEngine(program, td_analysis, bu_analysis, k=1, theta=2).run(initial)
    store = SummaryStore(tmp_path)
    store.save(build_snapshot(config, config_fp, fps, cold, codec))
    snapshot = store.load(config_fp)
    warm = build_warm_start(
        snapshot, diff_fingerprints(snapshot.fingerprints, fps), codec
    )
    engine = ConcurrentSwiftEngine(
        program, td_analysis, bu_analysis, k=1, theta=2, max_workers=2, preload=warm
    )
    result = engine.run(initial)
    assert result.exit_states() == cold.exit_states()
    assert result.metrics.store_hits > 0
    assert result.metrics.total_work <= 0.10 * cold.metrics.total_work
