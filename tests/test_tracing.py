"""Tests for the structured tracing layer (framework/tracing.py).

Covers the ISSUE acceptance points: serial traces are byte-identical
across runs, the NullSink default adds no work (events are never even
constructed), engine work counters are unchanged by tracing, and the
Profile/TraceExplainer consumers reconstruct what the engines did.
"""

import json
from collections import Counter

import pytest

from repro.framework.bottomup import BottomUpEngine
from repro.framework.metrics import Budget
from repro.framework.pruning import NoPruner
from repro.framework.swift import SwiftEngine
from repro.framework.tracing import (
    EVENT_KINDS,
    NULL_SINK,
    JsonlSink,
    NullSink,
    Profile,
    RingSink,
    TraceEvent,
    diff_traces,
    read_jsonl,
)
from repro.framework.topdown import TopDownEngine
from repro.typestate.bu_analysis import SimpleTypestateBU
from repro.typestate.properties import FILE_PROPERTY
from repro.typestate.states import bootstrap_state
from repro.typestate.td_analysis import SimpleTypestateTD

from tests.helpers import figure1_program, loop_program


def _swift(program, sink=None, k=1, theta=1, budget=None):
    return SwiftEngine(
        program,
        SimpleTypestateTD(FILE_PROPERTY),
        SimpleTypestateBU(FILE_PROPERTY),
        k=k,
        theta=theta,
        budget=budget,
        sink=sink,
    )


def _initial():
    return [bootstrap_state(FILE_PROPERTY)]


# -- sinks ---------------------------------------------------------------------------
def test_null_sink_disabled():
    assert NULL_SINK.enabled is False
    NULL_SINK.emit(TraceEvent("propagate", "p", {}))  # no-op, no error
    NULL_SINK.close()


def test_ring_sink_bounded_and_counts_drops():
    sink = RingSink(capacity=3)
    for i in range(5):
        sink.emit(TraceEvent("propagate", f"p{i}", {}))
    assert sink.emitted == 5
    assert sink.dropped == 2
    assert [e.proc for e in sink.events] == ["p2", "p3", "p4"]


def test_jsonl_sink_round_trip(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlSink(path) as sink:
        sink.emit(TraceEvent("bu_trigger", "f", {"targets": ["f", "g"]}))
        sink.emit(TraceEvent("prune_drop", "g", {"kept": [], "dropped": ["r"]}))
    events = read_jsonl(path)
    assert [e.kind for e in events] == ["bu_trigger", "prune_drop"]
    assert events[0].proc == "f"
    assert events[0].data["targets"] == ["f", "g"]
    # seq is stripped back out of the payload on read.
    assert "seq" not in events[0].data


def test_trace_event_json_is_canonical():
    event = TraceEvent("propagate", "main", {"b": 1, "a": 2})
    text = event.to_json()
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    assert TraceEvent.from_json(text).data == {"b": 1, "a": 2}


def test_trace_event_rejects_unknown_kind():
    with pytest.raises(ValueError):
        TraceEvent("not_a_kind", "p", {})


# -- determinism (acceptance) --------------------------------------------------------
def test_serial_trace_byte_identical(tmp_path):
    """Two serial runs in one process must produce identical JSONL."""
    paths = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        with JsonlSink(path) as sink:
            _swift(figure1_program(), sink=sink).run(_initial())
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert first  # non-empty: the run did emit events


def test_trace_events_carry_no_wall_clock(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlSink(path) as sink:
        _swift(figure1_program(), sink=sink).run(_initial())
    for event in read_jsonl(path):
        assert event.kind in EVENT_KINDS
        for key in event.data:
            assert "time" not in key and "seconds" not in key


# -- zero-overhead default (acceptance) ----------------------------------------------
class _ExplodingNullSink(NullSink):
    """A disabled sink whose emit must never be reached."""

    def emit(self, event):
        raise AssertionError("engine constructed an event with tracing off")


def test_null_sink_fast_path_never_constructs_events():
    program = figure1_program()
    result = _swift(program, sink=_ExplodingNullSink()).run(_initial())
    default = _swift(program).run(_initial())
    assert result.metrics.total_work == default.metrics.total_work
    assert result.exit_states() == default.exit_states()


def test_work_counters_identical_with_tracing_on_and_off():
    """Engine work counters must be unchanged by tracing (acceptance)."""
    program = loop_program()
    plain = _swift(program).run(_initial())
    sink = RingSink()
    traced = _swift(program, sink=sink).run(_initial())
    assert traced.metrics.total_work == plain.metrics.total_work
    assert traced.metrics.transfers == plain.metrics.transfers
    assert traced.metrics.propagations == plain.metrics.propagations
    assert traced.metrics.summary_instantiations == plain.metrics.summary_instantiations
    assert traced.exit_states() == plain.exit_states()
    assert sink.emitted > 0
    profile = Profile.from_events(sink.events)
    assert profile.event_counts["propagate"] == traced.metrics.propagations


# -- event coverage ------------------------------------------------------------------
def test_swift_trace_covers_lifecycle_events():
    sink = RingSink()
    _swift(figure1_program(), sink=sink).run(_initial())
    kinds = Counter(e.kind for e in sink.events)
    assert kinds["propagate"] > 0
    assert kinds["bu_trigger"] >= 1
    assert kinds["bu_installed"] >= 1
    assert kinds["prune_drop"] >= 1
    assert kinds["summary_instantiated"] >= 1
    assert kinds["td_summary_reuse"] >= 1


def test_td_summary_reuse_only_event_kind_at_high_k():
    """With k high enough SWIFT degenerates to TD: no bu events."""
    sink = RingSink()
    _swift(loop_program(), sink=sink, k=100).run(_initial())
    kinds = set(e.kind for e in sink.events)
    assert kinds == {"propagate", "td_summary_reuse"}


def test_bu_postponed_event():
    """A trigger whose subgraph has unseen procedures emits bu_postponed."""
    sink = RingSink()
    engine = _swift(figure1_program(), sink=sink)
    engine._entry_counts["foo"] = Counter({bootstrap_state(FILE_PROPERTY): 2})
    # "foo" is reachable from "main", but "main" itself has no recorded
    # incoming state yet — triggering on main must postpone.
    engine._run_bu("main")
    events = [e for e in sink.events if e.kind == "bu_postponed"]
    assert len(events) == 1
    assert events[0].proc == "main"
    assert "main" in events[0].data["unseen"]


def test_budget_exceeded_event_td():
    sink = RingSink()
    result = _swift(
        figure1_program(), sink=sink, budget=Budget(max_work=3)
    ).run(_initial())
    assert result.timed_out
    events = [e for e in sink.events if e.kind == "budget_exceeded"]
    assert len(events) == 1
    assert events[0].data["engine"] == "td"
    assert events[0].data["spent"] > events[0].data["limit"]


def test_budget_exceeded_event_bu():
    sink = RingSink()
    analysis = SimpleTypestateBU(FILE_PROPERTY)
    engine = BottomUpEngine(
        figure1_program(),
        analysis,
        pruner=NoPruner(analysis),
        budget=Budget(max_work=1),
        sink=sink,
    )
    result = engine.analyze()
    assert result.timed_out
    events = [e for e in sink.events if e.kind == "budget_exceeded"]
    assert len(events) == 1
    assert events[0].data["engine"] == "bu"
    # A timed-out run installs nothing; a finished conventional run
    # traces every summary it computed, rooted at main.
    assert not [e for e in sink.events if e.kind == "bu_installed"]
    finished = RingSink()
    result = BottomUpEngine(
        figure1_program(), analysis, pruner=NoPruner(analysis), sink=finished
    ).analyze()
    installed = {e.proc: e.data for e in finished.events if e.kind == "bu_installed"}
    assert set(installed) == set(result.summaries)
    assert all(data["root"] == "main" for data in installed.values())
    assert installed["foo"]["cases"] == result.summaries["foo"].case_count()


def test_topdown_engine_traces_propagations():
    sink = RingSink()
    engine = TopDownEngine(
        figure1_program(), SimpleTypestateTD(FILE_PROPERTY), sink=sink
    )
    result = engine.run(_initial())
    propagates = [e for e in sink.events if e.kind == "propagate"]
    assert len(propagates) == result.metrics.propagations
    seeds = [e for e in propagates if e.data["via"] == "seed"]
    assert len(seeds) == 1 and seeds[0].proc == "main"


# -- Profile -------------------------------------------------------------------------
def test_profile_aggregates_per_procedure():
    sink = RingSink()
    result = _swift(figure1_program(), sink=sink).run(_initial())
    profile = Profile.from_events(sink.events)
    assert profile.total_events == len(sink.events)
    foo = profile.per_proc["foo"]
    assert foo.propagations > 0
    assert foo.summary_instantiations >= 1
    # A second traced run folds into the same profile (traces are
    # deterministic), and the per-procedure propagations add up to the
    # run's own counter.
    again = RingSink()
    _swift(figure1_program(), sink=again).run(_initial())
    replayed = Profile.from_events(again.events)
    assert replayed.event_counts == profile.event_counts
    assert replayed.per_proc["foo"].propagations == foo.propagations
    assert (
        sum(p.propagations for p in profile.per_proc.values())
        == result.metrics.propagations
    )


def test_profile_summary_hit_rate():
    profile = Profile()
    stats = profile.proc("f")
    stats.td_summary_reuses = 3
    stats.summary_instantiations = 1
    stats.fresh_contexts = 4
    assert stats.summary_hits == 4
    assert stats.summary_hit_rate == 0.5
    assert profile.proc("never").summary_hit_rate is None


def test_profile_from_jsonl_and_render(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlSink(path) as sink:
        _swift(figure1_program(), sink=sink).run(_initial())
    profile = Profile.from_jsonl(path)
    text = profile.render(limit=10, title="T")
    assert text.startswith("T")
    assert "foo" in text and "main" in text
    assert profile.hottest(1) == ["main"]  # most propagations in figure 1


def test_profile_from_events_attributes_each_kind():
    profile = Profile.from_events(
        [TraceEvent("bu_trigger", "f", {"targets": ["f"]})]
    )
    assert profile.total_events == 1
    assert profile.per_proc["f"].bu_triggers == 1
    assert "seconds" not in Profile.HEADERS


# -- diff ----------------------------------------------------------------------------
def test_diff_traces():
    left = [
        TraceEvent("propagate", "f", {"via": "seed"}),
        TraceEvent("propagate", "f", {"via": "prim"}),
        TraceEvent("bu_trigger", "f", {}),
    ]
    right = [
        TraceEvent("propagate", "f", {"via": "seed"}),
        TraceEvent("bu_trigger", "f", {}),
        TraceEvent("bu_trigger", "g", {}),
    ]
    delta = diff_traces(left, right)
    assert ("propagate", "f", 2, 1) in delta
    assert ("bu_trigger", "g", 0, 1) in delta
    assert all(entry[0] != "bu_trigger" or entry[1] != "f" for entry in delta)
    assert diff_traces(left, list(left)) == []


# -- provenance (TraceExplainer) -----------------------------------------------------
def test_trace_explainer_provenance_reaches_seed():
    from repro.framework.explain import TraceExplainer

    sink = RingSink()
    result = _swift(figure1_program(), sink=sink).run(_initial())
    explainer = TraceExplainer(sink.events)
    assert len(explainer) > 0
    # Every discovered edge must have a provenance chain ending at a
    # propagate event and starting at the seed.
    exit_point = result.cfgs.exit("foo")
    some_state = next(iter(result.states_at(exit_point)))
    chain = explainer.provenance(exit_point, some_state)
    assert chain, "no provenance for a state the engine computed"
    assert chain[0].data["via"] == "seed"
    assert chain[-1].data["point"] == str(exit_point)
    # Adjacent links agree: each event's src triple is the previous edge.
    for prev, cur in zip(chain, chain[1:]):
        assert cur.data["src"] == prev.data["point"]
        assert cur.data["src_state"] == prev.data["state"]
    rendered = explainer.render_provenance(exit_point, some_state)
    assert "seeded" in rendered


def test_trace_explainer_unknown_state():
    from repro.framework.explain import TraceExplainer

    explainer = TraceExplainer([])
    assert explainer.discovery("main:0", "nope") is None
    assert explainer.provenance("main:0", "nope") == []
    assert "no propagate event" in explainer.render_provenance("main:0", "nope")


def test_explain_with_trace():
    from repro.framework.explain import SummaryExplorer, TraceExplainer

    sink = RingSink()
    result = _swift(figure1_program(), sink=sink).run(_initial())
    explorer = SummaryExplorer(result)
    explainer = TraceExplainer(sink.events)
    point = result.cfgs["foo"].points[0]
    state = next(iter(result.states_at(point)))
    text = explorer.explain_with_trace(explainer, point, state)
    assert "procedure foo" in text
    assert "provenance (from trace)" in text
