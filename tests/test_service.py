"""Tests for the resident analysis service (daemon, front ends, client)."""

import dataclasses
import io
import json
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro.service.daemon as daemon_mod
from repro.bench import load_benchmark
from repro.framework.config import AnalysisConfig
from repro.frontend import compile_minioo
from repro.incremental import SummaryStore, WarmCache, analyze_with_store
from repro.ir.printer import format_program
from repro.service.protocol import CONFIG_KEYS, OP_KEYS
from repro.service import (
    AnalysisService,
    ProtocolError,
    ServiceClient,
    ServiceError,
    StdioFrontend,
    config_from_json,
    make_server,
    program_digest,
    program_lineage,
)
from repro.typestate.client import run_typestate
from repro.typestate.properties import FILE_PROPERTY

from tests.helpers import best_of

#: Resident warm p50 must beat a per-process warm ``analyze --store``
#: by this factor on wall clock.
MIN_RESIDENT_SPEEDUP = 3.0

GOOD_MINI = """
class Writer { method flush(f) { f.#open(); f.#close(); } }
main { w = new Writer(); r = new Writer(); w.flush(r); }
"""

BAD_MINI = """
class Writer { method close2(f) { f.#close(); f.#close(); } }
main { w = new Writer(); r = new Writer(); r.#open(); w.close2(r); }
"""

EDITED_MINI = """
class Writer { method flush(f) { f.#open(); f.#close(); } }
class Extra { method noop(g) { g.#open(); g.#close(); } }
main { w = new Writer(); r = new Writer(); w.flush(r); x = new Extra(); x.noop(r); }
"""


@pytest.fixture
def service(tmp_path):
    return AnalysisService(tmp_path / "root", lru_size=4)


# -- analyze round trips --------------------------------------------------------------
def test_analyze_cold_then_warm(service):
    first = service.handle({"op": "analyze", "program": GOOD_MINI})
    assert first["ok"] and first["cold"] and first["work"] > 0
    assert first["errors"] == [] and not first["timed_out"]
    second = service.handle({"op": "analyze", "program": GOOD_MINI})
    assert second["ok"] and not second["cold"]
    assert second["work"] == 0 and second["store_hits"] > 0


def test_analyze_matches_direct_session_run(service):
    response = service.handle({"op": "analyze", "program": BAD_MINI})
    program = compile_minioo(BAD_MINI)
    direct = run_typestate(program, FILE_PROPERTY, engine="swift", domain="full")
    expected = [
        [str(point), site] for point, site in sorted(direct.errors, key=str)
    ]
    assert response["errors"] == expected and expected
    assert response["td_summaries"] == direct.td_summaries


def test_analyze_honors_config_and_id(service):
    response = service.handle(
        {
            "op": "analyze",
            "program": GOOD_MINI,
            "id": "req-7",
            "config": {"engine": "td", "domain": "simple", "scheduler": "fifo"},
        }
    )
    assert response["ok"] and response["id"] == "req-7"
    assert response["engine"] == "td"
    assert response["config"]["flags"]["scheduler"] == "fifo"


def test_mini_and_ir_spellings_share_a_shard(service):
    program = compile_minioo(GOOD_MINI)
    as_ir = format_program(program)
    r1 = service.handle({"op": "analyze", "program": GOOD_MINI})
    r2 = service.handle({"op": "analyze", "program": as_ir, "format": "ir"})
    assert r1["shard"] == r2["shard"] == program_lineage(program)[:16]
    assert r1["program_fp"] == r2["program_fp"] == program_digest(program)[:16]
    assert not r2["cold"] and r2["work"] == 0


def test_different_programs_get_different_shards(service, tmp_path):
    r1 = service.handle({"op": "analyze", "program": GOOD_MINI})
    r2 = service.handle({"op": "analyze", "program": BAD_MINI})
    assert r1["shard"] != r2["shard"]
    shard_dirs = [p.name for p in (tmp_path / "root").iterdir() if p.is_dir()]
    assert sorted(shard_dirs) == sorted(
        program_lineage(compile_minioo(text))[:16] for text in (GOOD_MINI, BAD_MINI)
    )


def test_non_store_engine_runs_direct(service):
    response = service.handle(
        {"op": "analyze", "program": GOOD_MINI, "config": {"engine": "bu"}}
    )
    assert response["ok"] and response["stored"] is False
    assert response["errors"] == []
    assert response["bu_summaries"] > 0


def test_edit_reports_invalidation(service, tmp_path):
    first = service.handle({"op": "analyze", "program": GOOD_MINI})
    # A body-only edit keeps the procedure set, so it lands in its
    # parent's shard and warm-starts from the parent's snapshot: the
    # same invalidation cone `analyze --store` reports over one store
    # fed both versions, and the verdict of a fresh run.
    body_edit = GOOD_MINI.replace(
        "f.#open(); f.#close();", "f.#open(); f.#close(); f.#open(); f.#close();"
    )
    warm = service.handle({"op": "edit", "program": body_edit})
    assert warm["ok"] and not warm["cold"] and warm["shard"] == first["shard"]
    assert warm["program_fp"] != first["program_fp"]
    store = SummaryStore(tmp_path / "cli-store")
    config = config_from_json(None)
    for text in (GOOD_MINI, body_edit):
        outcome = analyze_with_store(
            compile_minioo(text), FILE_PROPERTY, store, config=config,
            warm_cache=WarmCache(capacity=1),
        )
    assert not outcome.cold
    assert warm["invalidated"] == sorted(outcome.invalidated) != []
    assert warm["added"] == []
    assert warm["work"] == outcome.report.result.metrics.total_work
    direct = run_typestate(
        compile_minioo(body_edit), FILE_PROPERTY, engine="swift", domain="full"
    )
    assert warm["errors"] == [
        [str(point), site] for point, site in sorted(direct.errors, key=str)
    ]
    response = service.handle({"op": "edit", "program": EDITED_MINI})
    # Adding a procedure starts a new lineage (a new shard), so this
    # edit is cold there but still reports its own added procs.
    assert response["ok"] and response["op"] == "edit"
    assert response["cold"] and response["shard"] != first["shard"]
    assert "Extra$noop" in response["added"]
    direct = run_typestate(
        compile_minioo(EDITED_MINI), FILE_PROPERTY, engine="swift", domain="full"
    )
    assert response["errors"] == [
        [str(point), site] for point, site in sorted(direct.errors, key=str)
    ]


# -- coalescing -----------------------------------------------------------------------
def test_concurrent_same_key_requests_coalesce(service, monkeypatch):
    release = threading.Event()
    entered = threading.Event()
    real = daemon_mod.analyze_with_store

    def gated(*args, **kwargs):
        entered.set()
        assert release.wait(10), "leader was never released"
        return real(*args, **kwargs)

    monkeypatch.setattr(daemon_mod, "analyze_with_store", gated)
    request = {"op": "analyze", "program": GOOD_MINI}
    with ThreadPoolExecutor(max_workers=3) as pool:
        leader = pool.submit(service.handle, dict(request))
        assert entered.wait(10)
        followers = [pool.submit(service.handle, dict(request)) for _ in range(2)]
        deadline = time.monotonic() + 10
        while service.coalesced < 2:
            assert time.monotonic() < deadline, "followers never coalesced"
            time.sleep(0.01)
        release.set()
        lead, follows = leader.result(10), [f.result(10) for f in followers]
    assert lead["ok"] and lead["coalesced"] is False
    for resp in follows:
        assert resp["ok"] and resp["coalesced"] is True
        assert resp["errors"] == lead["errors"]
        assert resp["work"] == lead["work"]
    assert service.solves == 1  # one solve fanned out to three waiters
    # Demands coalesce through the same flight table: an identical
    # single-target demand waits for the in-flight one.
    import repro.query as query_mod

    real_query = query_mod.run_query
    solved = []

    def gated_query(*args, **kwargs):
        solved.append(args[3])
        entered.set()
        assert release.wait(10), "demand leader was never released"
        return real_query(*args, **kwargs)

    monkeypatch.setattr(query_mod, "run_query", gated_query)
    entered.clear()
    release.clear()
    demand = {"op": "demand", "program": GOOD_MINI, "target": "main"}
    with ThreadPoolExecutor(max_workers=2) as pool:
        first = pool.submit(service.handle, dict(demand))
        assert entered.wait(10)
        second = pool.submit(service.handle, dict(demand))
        deadline = time.monotonic() + 10
        while service.demand_coalesced < 1:
            assert time.monotonic() < deadline, "demand never coalesced"
            time.sleep(0.01)
        release.set()
        answers = [first.result(10), second.result(10)]
    assert all(resp["ok"] for resp in answers)
    assert [resp["coalesced"] for resp in answers] == [False, True]
    assert answers[0]["answer"] == answers[1]["answer"]
    assert solved == ["main"] and service.demands == 1
    # Batch targets resolve to the spelling they are answered under
    # before the flight key and the echo: a batch naming "main:01" and
    # "main" echoes ["main:1", "main"], the keys of its answers, and a
    # waiter spelling " main:1 " projects its answer from that leader.
    real_batch = query_mod.run_query_batch

    def gated_batch(*args, **kwargs):
        entered.set()
        assert release.wait(10), "batch leader was never released"
        return real_batch(*args, **kwargs)

    monkeypatch.setattr(query_mod, "run_query_batch", gated_batch)
    entered.clear()
    release.clear()
    batch = {"op": "demand", "program": GOOD_MINI}
    with ThreadPoolExecutor(max_workers=2) as pool:
        first = pool.submit(service.handle, dict(batch, targets=["main:01", "main"]))
        assert entered.wait(10)
        second = pool.submit(service.handle, dict(batch, targets=[" main:1 "]))
        deadline = time.monotonic() + 10
        while service.demand_coalesced < 2:
            assert time.monotonic() < deadline, "batch demand never coalesced"
            time.sleep(0.01)
        release.set()
        lead, waiter = first.result(10), second.result(10)
    assert lead["ok"] and waiter["ok"], (lead, waiter)
    assert lead["targets"] == list(lead["answers"]) == ["main:1", "main"]
    assert waiter["coalesced"] is True
    assert waiter["targets"] == list(waiter["answers"]) == ["main:1"]
    assert waiter["answers"]["main:1"] == lead["answers"]["main:1"]


def test_different_keys_do_not_coalesce(service):
    with ThreadPoolExecutor(max_workers=2) as pool:
        a = pool.submit(
            service.handle, {"op": "analyze", "program": GOOD_MINI}
        )
        b = pool.submit(
            service.handle, {"op": "analyze", "program": BAD_MINI}
        )
        ra, rb = a.result(30), b.result(30)
    assert ra["ok"] and rb["ok"]
    assert service.coalesced == 0 and service.solves == 2


# -- resident LRU ---------------------------------------------------------------------
def test_lru_eviction_under_config_churn(tmp_path):
    service = AnalysisService(tmp_path, lru_size=1)
    cfg_a = {"engine": "swift", "domain": "full", "k": 2}
    cfg_b = {"engine": "swift", "domain": "full", "k": 3}
    for config in (cfg_a, cfg_b, cfg_a, cfg_b):
        response = service.handle(
            {"op": "analyze", "program": GOOD_MINI, "config": config}
        )
        assert response["ok"] and response["errors"] == []
    stats = service.warm_cache.stats()
    assert stats["capacity"] == 1
    assert stats["evictions"] >= 1
    # Evicted configs still answer correctly from their snapshots.
    again = service.handle(
        {"op": "analyze", "program": GOOD_MINI, "config": cfg_a}
    )
    assert not again["cold"] and again["work"] == 0


def test_warm_requests_hit_resident_cache(service):
    service.handle({"op": "analyze", "program": GOOD_MINI})
    service.handle({"op": "analyze", "program": GOOD_MINI})
    third = service.handle({"op": "analyze", "program": GOOD_MINI})
    assert third["work"] == 0
    assert service.warm_cache.stats()["hits"] >= 1


# -- query / stats --------------------------------------------------------------------
def test_query_before_and_after(service):
    before = service.handle({"op": "query", "program": GOOD_MINI})
    assert before["ok"] and not before["known"]
    assert not before["snapshot"] and not before["resident"]
    service.handle({"op": "analyze", "program": GOOD_MINI})
    mid = service.handle({"op": "query", "program": GOOD_MINI})
    assert mid["known"] and mid["snapshot"]  # solved + saved, not yet decoded
    service.handle({"op": "analyze", "program": GOOD_MINI})  # warm: decodes
    after = service.handle({"op": "query", "program": GOOD_MINI})
    assert after["known"] and after["snapshot"] and after["resident"]
    assert after["result"]["errors"] == []


def test_stats_counts_requests_and_shards(service, tmp_path):
    service.handle({"op": "analyze", "program": GOOD_MINI})
    stats = service.handle({"op": "stats"})
    assert stats["ok"] and stats["requests"] == 2 and stats["solves"] == 1
    assert stats["warm_cache"]["capacity"] == 4
    assert len(stats["shards"]) == 1
    assert stats["shards"][0]["snapshots"] == 1


# -- shutdown -------------------------------------------------------------------------
def test_shutdown_drains_in_flight_requests(service, monkeypatch):
    release = threading.Event()
    entered = threading.Event()
    real = daemon_mod.analyze_with_store

    def gated(*args, **kwargs):
        entered.set()
        assert release.wait(10)
        return real(*args, **kwargs)

    monkeypatch.setattr(daemon_mod, "analyze_with_store", gated)
    with ThreadPoolExecutor(max_workers=2) as pool:
        slow = pool.submit(
            service.handle, {"op": "analyze", "program": GOOD_MINI}
        )
        assert entered.wait(10)
        stop = pool.submit(service.handle, {"op": "shutdown"})
        time.sleep(0.1)
        assert not stop.done()  # draining: waits for the in-flight solve
        release.set()
        assert stop.result(10)["ok"]
        assert slow.result(10)["ok"]  # the in-flight request completed
    refused = service.handle({"op": "analyze", "program": GOOD_MINI})
    assert not refused["ok"] and "shutting down" in refused["error"]


# -- error handling -------------------------------------------------------------------
def test_bad_requests_become_error_responses(service):
    assert not service.handle({"op": "nope"})["ok"]
    assert not service.handle(["not", "an", "object"])["ok"]
    no_program = service.handle({"op": "analyze"})
    assert not no_program["ok"] and "program" in no_program["error"]
    bad_parse = service.handle({"op": "analyze", "program": "class {{{"})
    assert not bad_parse["ok"] and "parse" in bad_parse["error"]
    bad_engine = service.handle(
        {"op": "analyze", "program": GOOD_MINI, "config": {"engine": "magic"}}
    )
    assert not bad_engine["ok"]
    bad_domain = service.handle(
        {"op": "analyze", "program": GOOD_MINI, "config": {"domain": "killgen"}}
    )
    assert not bad_domain["ok"] and "type-state" in bad_domain["error"]
    for workers in (0, -3, "x"):
        bad_workers = service.handle(
            {"op": "demand", "program": GOOD_MINI, "targets": ["main"],
             "workers": workers}
        )
        assert not bad_workers["ok"] and "workers" in bad_workers["error"]
        assert not bad_workers["error"].startswith("internal error")
    # A demand names its targets one way: both keys are refused, never
    # answered for one of them.
    both = service.handle(
        {"op": "demand", "program": GOOD_MINI, "target": "nosuch",
         "targets": ["main"]}
    )
    assert not both["ok"]
    assert both["error"] == 'demand takes "target" or "targets", not both'
    # A misspelled top-level key is refused naming it and the op's
    # allowed keys, never run with the defaults it failed to override.
    for request, key in (
        ({"op": "analyze", "program": GOOD_MINI, "confg": {"engine": "td"}},
         "confg"),
        ({"op": "demand", "program": GOOD_MINI, "target": "main",
          "precisoin": "swift"}, "precisoin"),
        ({"op": "query", "program": GOOD_MINI, "trace": True}, "trace"),
        ({"op": "stats", "program": GOOD_MINI}, "program"),
    ):
        refused = service.handle(dict(request, id="r1"))
        assert not refused["ok"] and refused["id"] == "r1"
        assert f"unknown key(s) ['{key}'] for op '{request['op']}'" in (
            refused["error"]
        )
        assert f"allowed: {sorted(OP_KEYS[request['op']])}" in refused["error"]
    # The daemon survived all of it.
    assert service.handle({"op": "analyze", "program": GOOD_MINI})["ok"]


def test_config_from_json_validation():
    config = config_from_json(
        {"engine": "td", "k": 3, "budget": {"max_work": 10}}
    )
    assert config.engine == "td" and config.k == 3
    assert config.budget.max_work == 10
    assert config.domain == "typestate-full"  # service default = verify's
    assert config_from_json(None).engine == "swift"
    with pytest.raises(ProtocolError, match="unknown config key"):
        config_from_json({"engin": "td"})
    with pytest.raises(ProtocolError, match="budget"):
        config_from_json({"budget": {"max_wark": 10}})
    # A budget limit is None or a non-negative number: anything else is
    # the client's error naming the key, not an internal error raised
    # by the engine's first budget check.
    for budget in (
        {"max_work": "abc"}, {"max_seconds": "x"}, {"max_work": -1},
        {"max_work": True},
    ):
        (key,) = budget
        with pytest.raises(ProtocolError, match=f"budget {key} must be None or"):
            config_from_json({"budget": budget})
    assert config_from_json({"budget": {"max_work": 0}}).budget.max_work == 0
    with pytest.raises(ProtocolError, match="expected one of lifo, fifo"):
        config_from_json({"scheduler": "scc-topo"})
    with pytest.raises(ProtocolError, match="tracked_sites"):
        config_from_json({"tracked_sites": "h1"})
    with pytest.raises(ProtocolError):
        config_from_json({"engine": "warp-drive"})
    with pytest.raises(ProtocolError):
        config_from_json("not an object")
    sites = config_from_json({"tracked_sites": ["h1", "h2"]})
    assert sites.tracked_sites == frozenset({"h1", "h2"})


def test_config_keys_are_the_constructor_fields():
    """Every key the service accepts lands in the AnalysisConfig field
    of the same name; only the runtime attachments stay off the wire."""
    sent = {
        "engine": "td",
        "domain": "simple",
        "k": 3,
        "theta": 2,
        "bu_triggers": False,
        "scheduler": "fifo",
        "tracked_sites": ["h1"],
        "widening_delay": 3,
        "descending_iters": 1,
        "budget": {"max_work": 10},
    }
    assert set(sent) == CONFIG_KEYS
    fields = {field.name for field in dataclasses.fields(AnalysisConfig)}
    assert fields - CONFIG_KEYS == {"sink", "preload"}
    config = config_from_json(sent)
    assert config.domain == "typestate-simple"
    assert config.tracked_sites == frozenset({"h1"})
    assert config.budget.max_work == 10
    for key in sorted(CONFIG_KEYS - {"domain", "tracked_sites", "budget"}):
        assert getattr(config, key) == sent[key], key


@pytest.mark.parametrize(
    "key, value", [("widening_delay", 3), ("descending_iters", 1), ("bu_triggers", False)]
)
def test_service_config_field_reaches_canonical_form(service, key, value):
    response = service.handle(
        {
            "op": "analyze",
            "program": GOOD_MINI,
            "config": {"domain": "interval-typestate", key: value},
        }
    )
    assert response["ok"], response.get("error")
    canonical = response["config"]
    assert canonical.get(key, canonical["flags"].get(key)) == value


@pytest.mark.parametrize(
    "key, value",
    [
        ("batched", True),
        ("batch_size", 8),
        ("batch_min_frontier", 4),
        ("kernel", "bitset"),
        ("max_workers", 2),
        ("enable_caches", False),
        # Live keys with ill-typed values: refused naming the field,
        # never run under a fingerprint of their own.
        ("k", 2.5),
        ("k", True),
        ("theta", "1"),
    ],
)
def test_retired_config_key_is_refused_and_daemon_keeps_serving(service, key, value):
    refused = service.handle(
        {"op": "analyze", "program": GOOD_MINI, "config": {key: value}}
    )
    assert not refused["ok"]
    if key in CONFIG_KEYS:
        assert f"config field '{key}' must be" in refused["error"]
    else:
        assert f"unknown config key(s) ['{key}']" in refused["error"]
        assert f"allowed: {sorted(CONFIG_KEYS)}" in refused["error"]
    assert service.handle({"op": "analyze", "program": GOOD_MINI})["ok"]


# -- trace streaming ------------------------------------------------------------------
def test_trace_streams_to_the_emit_callback(service):
    events = []
    response = service.handle(
        {"op": "analyze", "program": GOOD_MINI, "trace": True},
        emit=events.append,
    )
    assert response["ok"]
    assert response["trace_events"] == len(events) > 0
    kinds = {event["kind"] for event in events}
    assert "propagate" in kinds


def test_trace_callback_failure_does_not_fail_the_run(service):
    calls = []

    def broken(event):
        calls.append(event)
        raise OSError("client went away")

    response = service.handle(
        {"op": "analyze", "program": GOOD_MINI, "trace": True}, emit=broken
    )
    assert response["ok"]
    assert response["trace_events"] == 0 and len(calls) == 1


# -- stdio front end ------------------------------------------------------------------
def test_stdio_frontend_round_trip(service):
    requests = [
        {"op": "analyze", "program": GOOD_MINI, "id": 1},
        {"op": "analyze", "program": GOOD_MINI, "id": 2},
        {"op": "stats", "id": 3},
        {"op": "shutdown", "id": 4},
    ]
    reader = io.StringIO(
        "".join(json.dumps(request) + "\n" for request in requests)
        + "not json\n"  # after shutdown: never read
    )
    writer = io.StringIO()
    assert StdioFrontend(service, reader, writer).serve() == 0
    lines = [json.loads(line) for line in writer.getvalue().splitlines()]
    by_id = {line.get("id"): line for line in lines}
    assert by_id[1]["ok"] and by_id[2]["ok"] and by_id[3]["ok"]
    assert by_id[4]["ok"] and by_id[4]["op"] == "shutdown"
    # The pool may start either analyze first; whichever runs second
    # is warm or coalesced onto the first.
    assert any(by_id[i]["work"] == 0 or by_id[i]["coalesced"] for i in (1, 2))
    assert lines[-1]["op"] == "shutdown"  # drain: shutdown answered last


def test_stdio_frontend_reports_bad_json_and_continues(service):
    reader = io.StringIO(
        "this is not json\n"
        + json.dumps({"op": "stats", "id": 1})
        + "\n"
        + json.dumps({"op": "shutdown", "id": 2})
        + "\n"
    )
    writer = io.StringIO()
    StdioFrontend(service, reader, writer).serve()
    lines = [json.loads(line) for line in writer.getvalue().splitlines()]
    assert any(not line["ok"] and "JSON" in line["error"] for line in lines)
    assert any(line.get("id") == 1 and line["ok"] for line in lines)


def test_stdio_trace_lines_carry_the_request_id(service):
    reader = io.StringIO(
        json.dumps({"op": "analyze", "program": GOOD_MINI, "id": "t", "trace": True})
        + "\n"
        + json.dumps({"op": "shutdown"})
        + "\n"
    )
    writer = io.StringIO()
    StdioFrontend(service, reader, writer).serve()
    lines = [json.loads(line) for line in writer.getvalue().splitlines()]
    traces = [line for line in lines if "trace" in line and "ok" not in line]
    assert traces and all(line["id"] == "t" for line in traces)
    response = next(line for line in lines if line.get("id") == "t" and "ok" in line)
    assert response["trace_events"] == len(traces)


# -- HTTP front end + client ----------------------------------------------------------
@pytest.fixture
def http_service(tmp_path):
    service = AnalysisService(tmp_path / "http-root", lru_size=4)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    assert client.wait_ready(10)
    yield service, client, thread
    if thread.is_alive():
        server.shutdown()
        thread.join(5)
    server.server_close()


def test_http_round_trip_and_shutdown(http_service, tmp_path):
    service, client, thread = http_service
    first = client.analyze(GOOD_MINI)
    assert first["cold"] and first["errors"] == []
    second = client.analyze(GOOD_MINI)
    assert not second["cold"] and second["work"] == 0
    stats = client.stats()
    assert stats["requests"] == 3

    # Staying resident on a suite program: warm requests redo no work,
    # answer the direct run's verdict from the resident decode, and
    # their p50 beats a per-process warm `analyze --store` over the
    # shard the daemon saved.
    program = load_benchmark("jpat-p").program
    text = format_program(program)
    direct = run_typestate(program, FILE_PROPERTY, engine="swift", domain="full")
    expected = [[str(point), site] for point, site in sorted(direct.errors, key=str)]
    cold = client.analyze(text, fmt="ir")
    assert cold["cold"] and cold["errors"] == expected
    assert client.analyze(text, fmt="ir")["work"] == 0
    latencies, hits = [], service.warm_cache.stats()["hits"]
    for _ in range(5):
        response, seconds = best_of(1, client.analyze, text, fmt="ir")
        assert response["errors"] == expected and response["work"] == 0
        latencies.append(seconds)
    assert service.warm_cache.stats()["hits"] == hits + len(latencies)
    assert client.shutdown()["ok"]
    thread.join(5)
    assert not thread.is_alive()

    source = tmp_path / "jpat-p.ir"
    source.write_text(text)
    shard = service.shard_store(program_lineage(program)).root
    src = Path(__file__).resolve().parent.parent / "src"
    cli = [sys.executable, "-m", "repro.cli", "analyze", str(source)]
    per_process, per_process_s = best_of(
        1, subprocess.run, [*cli, "--store", str(shard)],
        env={"PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert per_process.returncode in (0, 1), per_process.stderr
    assert "warm start" in per_process.stdout, per_process.stdout
    p50 = sorted(latencies)[len(latencies) // 2]
    assert per_process_s >= MIN_RESIDENT_SPEEDUP * p50, (per_process_s, latencies)


def test_http_trace_streaming(http_service):
    _, client, _ = http_service
    events = []
    response = client.analyze(BAD_MINI, trace=True, on_trace=events.append)
    assert response["ok"] and response["errors"]
    assert len(events) == response["trace_events"] > 0


def test_http_error_becomes_service_error(http_service):
    import http.client
    from urllib.parse import urlsplit

    _, client, _ = http_service
    with pytest.raises(ServiceError, match="unknown op"):
        client.call({"op": "frobnicate"})
    # A negative or non-numeric Content-Length is refused at once: a
    # read of -1 bytes would wait for the client to hang up.
    address = urlsplit(client.base_url)
    for declared in ("-1", "abc"):
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=3
        )
        connection.putrequest("POST", "/rpc")
        connection.putheader("Content-Length", declared)
        connection.endheaders(b'{"op": "stats"}')
        response = json.loads(connection.getresponse().read())
        connection.close()
        assert response == {
            "ok": False, "error": f"bad Content-Length {declared!r}"
        }
    assert client.stats()["ok"]  # the server still answers


def test_http_concurrent_clients_coalesce_or_reuse(http_service, tmp_path):
    service, client, _ = http_service
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [
            pool.submit(client.analyze, GOOD_MINI, request_id=i)
            for i in range(4)
        ]
        responses = [f.result(60) for f in futures]
    assert all(r["ok"] and r["errors"] == [] for r in responses)
    # However the requests interleaved, the service never solved the
    # same key twice concurrently: solves + coalesced + warm hits
    # account for all four.
    assert service.solves + service.coalesced + sum(
        1 for r in responses if not r["cold"] and not r["coalesced"]
    ) >= 4

    # Sibling versions of one lineage race on one shard: interleaved
    # analyze / edit / demand requests for two edits of `main`'s body.
    # Whichever sibling saved last is the other's warm start; every
    # verdict must still be its own version's fresh verdict (cold or
    # warm, never wrong), and concurrent saves leave no temp file
    # behind.  `flush`, the demand cone's frontier, is the same in both
    # versions, so a warm demand answers it from the store without
    # tabulating any of its interior points.
    siblings = [
        GOOD_MINI.replace("w.flush(r);", "w.flush(r); r.#close();"),
        GOOD_MINI.replace("w.flush(r);", "r.#open(); r.#close(); w.flush(r);"),
    ]
    fresh = {}
    for v, text in enumerate(siblings):
        reference = AnalysisService(tmp_path / f"fresh-{v}")
        fresh[v, "errors"] = reference.handle(
            {"op": "analyze", "program": text}
        )["errors"]
        fresh[v, "demand"] = reference.handle(
            {"op": "demand", "program": text, "target": "main"}
        )["answer"]
    plan = [(i % 2, ("analyze", "edit", "demand")[i % 3]) for i in range(12)]

    def send(step):
        v, op = step
        if op == "demand":
            return client.demand(siblings[v], target="main")
        return client.analyze(siblings[v], op=op)

    with ThreadPoolExecutor(max_workers=4) as pool:
        raced = list(pool.map(send, plan))
    assert fresh[0, "errors"] != fresh[1, "errors"]
    assert len({r["shard"] for r in raced}) == 1
    for (v, op), r in zip(plan, raced):
        assert r["ok"] and r["op"] == op
        if op == "demand":
            assert r["answer"] == fresh[v, "demand"]
            assert r["cold"] or r["out_of_cone_interior_rows"] == 0
        else:
            assert r["errors"] == fresh[v, "errors"]
    assert any(not r["cold"] for r in raced)
    assert not list((tmp_path / "http-root").rglob("*.tmp.*"))
