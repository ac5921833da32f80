"""Fingerprints, codecs, and the on-disk summary store."""

import json
import os
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.alias import points_to_oracle
from repro.incremental import (
    Codec,
    ProgramFingerprints,
    Snapshot,
    SummaryStore,
    config_fingerprint,
)
from repro.incremental.fingerprint import alias_facts, body_fingerprint
from repro.incremental.invalidate import build_snapshot
from repro.incremental.store import STORE_VERSION
from repro.ir.parser import parse_program
from repro.typestate.client import make_analyses, run_typestate
from repro.typestate.properties import FILE_PROPERTY, property_by_name

from tests.helpers import all_small_programs
from tests.test_property_based import programs

CHAIN = """
proc main { v = new h1; v.open(); call mid; }
proc mid { call leaf; }
proc leaf { skip; }
"""


def chain():
    return parse_program(CHAIN)


# -- fingerprints -------------------------------------------------------------------
def test_body_fingerprint_stable_and_sensitive():
    a, b = chain(), chain()
    assert body_fingerprint(a, "leaf") == body_fingerprint(b, "leaf")
    edited = parse_program(CHAIN.replace("proc leaf { skip; }", "proc leaf { skip; skip; }"))
    assert body_fingerprint(a, "leaf") != body_fingerprint(edited, "leaf")


def test_cone_fingerprint_tracks_callees():
    base = ProgramFingerprints(chain())
    edited = ProgramFingerprints(
        parse_program(CHAIN.replace("proc leaf { skip; }", "proc leaf { skip; skip; }"))
    )
    # leaf's edit reaches every cone that contains it...
    for proc in ("main", "mid", "leaf"):
        assert base.cone[proc] != edited.cone[proc]
    # ...but only leaf's own body fingerprint moved.
    assert base.body["main"] == edited.body["main"]
    assert base.body["mid"] == edited.body["mid"]
    assert base.body["leaf"] != edited.body["leaf"]


def test_body_fingerprint_folds_alias_facts():
    program = chain()
    oracle = points_to_oracle(program)
    facts = alias_facts(program, oracle)
    with_facts = body_fingerprint(program, "main", facts)
    assert with_facts != body_fingerprint(program, "main")
    # A changed alias set for a variable main uses changes main's fp.
    altered = dict(facts)
    altered["v"] = frozenset(facts.get("v", frozenset()) | {"h99"})
    assert body_fingerprint(program, "main", altered) != with_facts
    # ...but not the fp of a body that never mentions it.
    assert body_fingerprint(program, "leaf", altered) == body_fingerprint(
        program, "leaf", facts
    )


def test_config_fingerprint_discriminates():
    base_desc, base = config_fingerprint(
        FILE_PROPERTY, domain="full", engine="swift", k=5, theta=1
    )
    assert base_desc["property"]["name"] == "File"
    variants = [
        config_fingerprint(FILE_PROPERTY, domain="full", engine="swift", k=6, theta=1),
        config_fingerprint(FILE_PROPERTY, domain="full", engine="td"),
        config_fingerprint(FILE_PROPERTY, domain="simple", engine="swift", k=5, theta=1),
        config_fingerprint(
            property_by_name("Iterator"), domain="full", engine="swift", k=5, theta=1
        ),
        config_fingerprint(
            FILE_PROPERTY,
            domain="full",
            engine="swift",
            k=5,
            theta=1,
            tracked_sites=["h1"],
        ),
    ]
    fps = {base} | {fp for _, fp in variants}
    assert len(fps) == len(variants) + 1
    # Same inputs, same fingerprint (and flag order is irrelevant).
    again = config_fingerprint(
        FILE_PROPERTY, domain="full", engine="swift", k=5, theta=1,
        flags={"b": 1, "a": 2},
    )
    swapped = config_fingerprint(
        FILE_PROPERTY, domain="full", engine="swift", k=5, theta=1,
        flags={"a": 2, "b": 1},
    )
    assert again[1] == swapped[1]


# -- codec --------------------------------------------------------------------------
@pytest.mark.parametrize("domain", ["simple", "full"])
@pytest.mark.parametrize(
    "program", all_small_programs(), ids=lambda p: p.main + str(len(list(p.names())))
)
def test_codec_round_trips_run_artifacts(domain, program):
    """Every state and summary an actual run produces survives
    encode → decode → encode unchanged."""
    _, bu_analysis, _ = make_analyses(program, FILE_PROPERTY, domain)
    codec = Codec(domain, bu_analysis)
    report = run_typestate(program, FILE_PROPERTY, engine="swift", domain=domain)
    seen_states = 0
    for _, pairs in report.result.td.items():
        for entry, sigma in pairs:
            for state in (entry, sigma):
                enc = codec.encode_state(state)
                assert codec.decode_state(enc) == state
                assert codec.encode_state(codec.decode_state(enc)) == enc
                seen_states += 1
    assert seen_states > 0
    for summary in report.result.bu.values():
        enc = codec.encode_summary(summary)
        decoded = codec.decode_summary(enc)
        assert codec.encode_summary(decoded) == enc
        assert decoded.relations == summary.relations


def test_codec_rejects_unknown_domain():
    with pytest.raises(ValueError):
        Codec("made-up", None)


# -- snapshot serialization ---------------------------------------------------------
def _snapshot_for(program, engine="swift", domain="full"):
    _, bu_analysis, _ = make_analyses(program, FILE_PROPERTY, domain)
    codec = Codec(domain, bu_analysis)
    config, config_fp = config_fingerprint(
        FILE_PROPERTY, domain=domain, engine=engine, k=5, theta=1
    )
    report = run_typestate(program, FILE_PROPERTY, engine=engine, domain=domain)
    fps = ProgramFingerprints(program)
    return build_snapshot(config, config_fp, fps, report.result, codec)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=programs(), engine=st.sampled_from(["td", "swift"]))
def test_snapshot_serialization_round_trip(program, engine):
    """save → load → re-serialize is byte-identical on random programs."""
    snap = _snapshot_for(program, engine=engine, domain="simple")
    data = snap.to_bytes()
    loaded = Snapshot.from_bytes(data)
    assert loaded.to_bytes() == data


def test_store_save_load_byte_identical(tmp_path):
    snap = _snapshot_for(chain())
    store = SummaryStore(tmp_path / "store")
    path = store.save(snap)
    assert path.exists()
    loaded = store.load(snap.config_fp)
    assert loaded is not None
    assert loaded.to_bytes() == path.read_bytes() == snap.to_bytes()


# -- maintenance --------------------------------------------------------------------
def test_stats_gc_clear(tmp_path):
    store = SummaryStore(tmp_path)
    assert store.stats() == []
    snap = _snapshot_for(chain())
    store.save(snap)
    td_snap = _snapshot_for(chain(), engine="td")
    store.save(td_snap)
    (tmp_path / "snapshot-bad.jsonl").write_text("garbage\n")
    (tmp_path / f"snapshot-x.jsonl.tmp.{1234}").write_text("stranded\n")
    rows = store.stats()
    assert len(rows) == 3
    by_file = {row["file"]: row for row in rows}
    assert by_file["snapshot-bad.jsonl"]["corrupt"] is True
    good = by_file[store.path_for(snap.config_fp).name]
    assert good["engine"] == "swift" and good["contexts"] > 0
    # gc removes the stranded tmp and, with keep=1, all but the newest.
    removed = store.gc(keep=1)
    assert any(".tmp." in p.name for p in removed)
    assert len(store.snapshot_paths()) == 1
    assert store.clear() == 1
    assert store.snapshot_paths() == []


# -- frontier projections -----------------------------------------------------------
def _frontier_setup(tmp_path, program=None):
    from repro.incremental import analyze_with_store

    if program is None:
        program = parse_program(
            """
            proc main { v = new h1; v.open(); call mid; v.close(); }
            proc mid { call leaf; }
            proc leaf { f = new h2; f.open(); f.close(); }
            """
        )
    store = SummaryStore(tmp_path / "store")
    result = analyze_with_store(
        program, FILE_PROPERTY, store, engine="swift", domain="simple"
    )
    return program, store, result


def test_analyze_writes_frontier_alongside_snapshot_and_loads_it_partially(
    tmp_path,
):
    """One file per configuration: the snapshot.  Demand queries view it
    through its entry/exit projection, and a first demand parses only
    the segments of procedures its cone was offered."""
    from repro.incremental import WarmCache, analyze_with_store
    from repro.incremental.store import project_frontier
    from repro.ir.cfg import ControlFlowGraphs
    from repro.query import run_query

    program, store, result = _frontier_setup(tmp_path)
    config_fp = result.config_fp
    snapshot_name = store.path_for(config_fp).name
    assert [p.name for p in store.root.iterdir()] == [snapshot_name]
    snapshot = store.load(config_fp)
    cfgs = ControlFlowGraphs(program)
    exits = {proc: cfgs.exit(proc).index for proc in program.names()}
    frontier = project_frontier(snapshot, exits)
    assert frontier.available == set(program.names())
    assert frontier.bu_procs == {
        proc for proc in snapshot.segments if "bu" in snapshot.payload(proc)
    }
    assert frontier.projected == {}  # the view parses nothing up front
    # Only entry (0) and exit rows survive the projection.
    for proc in program.names():
        keep = {0, exits[proc]}
        for _, rows in frontier.payload(proc)["contexts"]:
            assert {idx for idx, _ in rows} <= keep, proc
    # A first demand for mid (cone {main, mid}) is offered leaf alone.
    cache = WarmCache(4)
    outcome = run_query(program, FILE_PROPERTY, store, "mid", warm_cache=cache)
    assert outcome.frontier_snapshot == "hit" and outcome.store_hits > 0
    (entry,) = cache.lookup(
        (str(store.root.resolve()), f"{config_fp}#demand:frontier"),
        snapshot.signature,
        ProgramFingerprints(program).as_dict(),
    )
    assert set(entry.frontier.projected) == {"leaf"}
    # Unchanged re-analysis keeps the store at that one file.
    again = analyze_with_store(
        program, FILE_PROPERTY, store, engine="swift", domain="simple"
    )
    assert again.store_hits > 0
    assert [p.name for p in store.root.iterdir()] == [snapshot_name]


def test_snapshot_and_frontier_loads_degrade_to_none_never_wrong(tmp_path):
    from repro.incremental import WarmCache
    from repro.query import run_query

    # The snapshot file.
    assert SummaryStore(tmp_path / "nowhere").load("ab" * 32) is None  # missing
    snap = _snapshot_for(chain())
    store = SummaryStore(tmp_path / "snapshot")
    path = store.save(snap)
    data = path.read_bytes()
    other_fp = "f" * 64
    store.path_for(other_fp).write_bytes(data)
    assert store.load(other_fp) is None  # header fp disagrees with name
    lines = data.decode("utf-8").splitlines()
    header = json.loads(lines[0])
    header["version"] = STORE_VERSION + 1
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    assert store.load(snap.config_fp) is None  # a future layout version
    path.write_bytes(data[: len(data) // 2])
    assert store.load(snap.config_fp) is None  # truncated mid-line
    path.write_text("this is not json\n")
    assert store.load(snap.config_fp) is None
    path.write_text("")
    assert store.load(snap.config_fp) is None
    # A demand query over a truncated or bit-flipped snapshot answers
    # cold, exactly as a run with no store at all.
    program, store, result = _frontier_setup(tmp_path / "demand")
    fresh = run_query(
        program, FILE_PROPERTY, SummaryStore(tmp_path / "empty"), "mid",
        warm_cache=WarmCache(2),
    )
    assert fresh.cold
    path = store.path_for(result.config_fp)
    good = path.read_bytes()
    for damage in (_truncate_last_line, _flip_segment_bit):
        path.write_bytes(damage(good))
        out = run_query(
            program, FILE_PROPERTY, store, "mid", warm_cache=WarmCache(2)
        )
        assert out.cold and out.frontier_snapshot == "cold", damage
        assert (out.answer, out.total_work) == (fresh.answer, fresh.total_work)


def test_stats_and_gc_account_for_frontier_files(tmp_path):
    """The ``frontier-*.jsonl`` projections older stores kept next to
    each snapshot are ignored by ``stats`` and swept by ``gc``/``clear``."""
    from repro.incremental import analyze_with_store

    program, store, result = _frontier_setup(tmp_path)
    td = analyze_with_store(
        program, FILE_PROPERTY, store, engine="td", domain="simple"
    )
    legacy = [
        store.root / path.name.replace("snapshot-", "frontier-", 1)
        for path in store.snapshot_paths()
    ]
    legacy.append(store.root / "frontier-deadbeefdeadbeefdeadbeefdeadbeef.jsonl")
    legacy.append(store.root / "frontier-deadbeef.jsonl.tmp.1-2-3")
    for path in legacy:
        path.write_text("stray\n")
    rows = store.stats()
    assert sorted(row["file"] for row in rows) == sorted(
        store.path_for(fp).name for fp in (result.config_fp, td.config_fp)
    )
    assert all(row["procedures"] == len(program) for row in rows)
    removed = store.gc(keep=1)
    assert set(legacy) <= set(removed)
    assert not any(path.exists() for path in legacy)
    assert len(store.snapshot_paths()) == 1
    # clear() drops the surviving snapshot and a reappeared leftover.
    legacy[0].write_text("stray\n")
    assert store.clear() == 2
    assert list(store.root.iterdir()) == []


def _as_v2(snapshot_bytes: bytes) -> bytes:
    """Re-lay a v3 snapshot out in the v2 layout: one JSON record per
    context, BU summary and multiset, no segment manifest."""
    snap = Snapshot.from_bytes(snapshot_bytes)
    header = {
        "kind": "header",
        "version": 2,
        "config_fp": snap.config_fp,
        "config": snap.config,
        "fingerprints": snap.fingerprints,
        "meta": snap.meta,
    }
    contexts, bus, ms = [], [], []
    for proc in sorted(snap.segments):
        payload = snap.payload(proc)
        for entry, rows, records in payload["contexts"]:
            contexts.append(
                {"kind": "context", "proc": proc, "entry": entry,
                 "rows": rows, "records": records}
            )
        if "bu" in payload:
            bus.append({"kind": "bu", "proc": proc, "summary": payload["bu"]})
        if "m" in payload:
            ms.append({"kind": "m", "proc": proc, "counts": payload["m"]})
    lines = [json.dumps(row, sort_keys=True, separators=(",", ":"))
             for row in [header] + contexts + bus + ms]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_version_bump_sends_old_stores_cold_then_rewrites(tmp_path):
    """A store written in the v2 layout (one record per line) loads
    cold under v3 — never wrong, for analyze and demand queries alike —
    and the next analyze rewrites the snapshot at the current version."""
    from repro.incremental import WarmCache, analyze_with_store
    from repro.query import run_query

    program, store, result = _frontier_setup(tmp_path)
    config_fp = result.config_fp
    assert STORE_VERSION == 3
    snapshot_path = store.path_for(config_fp)
    warm = run_query(program, FILE_PROPERTY, store, "mid", warm_cache=WarmCache(2))
    snapshot_path.write_bytes(_as_v2(snapshot_path.read_bytes()))
    assert store.load(config_fp) is None
    old = run_query(program, FILE_PROPERTY, store, "mid", warm_cache=WarmCache(2))
    assert old.cold and not warm.cold
    assert old.answer == warm.answer
    again = analyze_with_store(
        program, FILE_PROPERTY, store, engine="swift", domain="simple"
    )
    assert again.cold  # old layout is a cold start, not a wrong answer
    assert again.report.errors == result.report.errors
    assert store.load(config_fp) is not None
    assert json.loads(
        store.path_for(config_fp).read_text().splitlines()[0]
    )["version"] == STORE_VERSION
    assert [p.name for p in store.root.iterdir()] == [snapshot_path.name]


# -- v3 segments: fault injection -----------------------------------------------------
def _truncate_last_line(data: bytes) -> bytes:
    last = data[:-1].rsplit(b"\n", 1)[1]
    return data[: -1 - len(last) // 2]


def _flip_segment_bit(data: bytes) -> bytes:
    lines = data.split(b"\n")
    segment = lines[1]
    at = segment.index(b"\t") + len(segment) // 2
    lines[1] = segment[:at] + bytes([segment[at] ^ 0x04]) + segment[at + 1:]
    return b"\n".join(lines)


def _unknown_proc_segment(data: bytes) -> bytes:
    # Checksummed and listed in the manifest: only the fingerprint check
    # can reject it.
    lines = data.decode("utf-8").split("\n")
    header = json.loads(lines[0])
    payload = '{"contexts":[]}'
    header["segments"]["ghost"] = format(zlib.crc32(payload.encode()), "08x")
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    lines.insert(-1, f"ghost\t{payload}")
    return "\n".join(lines).encode("utf-8")


def _duplicate_segment(data: bytes) -> bytes:
    lines = data.split(b"\n")
    lines.insert(2, lines[1])
    return b"\n".join(lines)


FAULTS = {
    "truncated-last-line": _truncate_last_line,
    "bit-flipped-segment": _flip_segment_bit,
    "unknown-proc-segment": _unknown_proc_segment,
    "duplicated-segment": _duplicate_segment,
    "v2-file": _as_v2,
}


def test_faulty_segments_load_cold_then_rewrite(tmp_path):
    """Each corruption makes ``load`` return ``None``; the next analyze
    runs cold with the correct verdict and writes a valid v3 file."""
    from repro.incremental import analyze_with_store

    for fault in sorted(FAULTS):
        program, store, result = _frontier_setup(tmp_path / fault)
        config_fp = result.config_fp
        path = store.path_for(config_fp)
        good = path.read_bytes()
        assert store.load(config_fp) is not None, fault
        path.write_bytes(FAULTS[fault](good))
        assert path.read_bytes() != good, fault
        assert store.load(config_fp) is None, fault
        again = analyze_with_store(
            program, FILE_PROPERTY, store, engine="swift", domain="simple"
        )
        assert again.cold and again.saved, fault
        assert again.report.errors == result.report.errors, fault
        rewritten = store.load(config_fp)
        assert rewritten is not None, fault
        assert rewritten.to_bytes() == path.read_bytes() == good, fault


# -- file signatures ------------------------------------------------------------------
def _same_size_same_mtime_rewrite(path, old: bytes, new: bytes) -> None:
    """Replace ``path`` with ``new`` (same length as ``old``) through a
    fresh file stamped with the old file's mtime."""
    assert len(new) == len(old) and new != old
    before = path.stat()
    tmp = path.with_name(path.name + ".other")
    tmp.write_bytes(new)
    os.utime(tmp, ns=(before.st_atime_ns, before.st_mtime_ns))
    os.replace(tmp, path)
    after = path.stat()
    assert (after.st_mtime_ns, after.st_size) == (before.st_mtime_ns, before.st_size)


def _counting_loads(store):
    """Record every ``store.load`` call on this instance."""
    loads = []
    load = store.load

    def counting(config_fp):
        loads.append(config_fp)
        return load(config_fp)

    store.load = counting
    return loads


def test_warm_caches_never_serve_a_file_another_writer_replaced(tmp_path):
    """Decode caches are keyed by file signature, so a replaced file is
    never served from memory: not when it has the same size and mtime as
    the cached one (analyze and query caches alike), and not when the
    cached entry is one an analyze patched in place after its own save."""
    from repro.incremental import WarmCache, analyze_with_store
    from repro.incremental.driver import _load_warm
    from repro.ir.cfg import ControlFlowGraphs
    from repro.query.engine import _load_query_warm

    # The analyze cache: two snapshots of equal size and mtime.
    program = chain()
    _, bu_analysis, _ = make_analyses(program, FILE_PROPERTY, "simple")
    codec = Codec("simple", bu_analysis)
    config, config_fp = config_fingerprint(
        FILE_PROPERTY, domain="simple", engine="swift", k=5, theta=1
    )
    fps = ProgramFingerprints(program)
    report = run_typestate(program, FILE_PROPERTY, engine="swift", domain="simple")
    store = SummaryStore(tmp_path / "analyze")
    path = store.save(
        build_snapshot(config, config_fp, fps, report.result, codec, meta={"tag": "A"})
    )
    old = path.read_bytes()
    cache = WarmCache(4)
    first = _load_warm(store, config_fp, fps, codec, cache)
    assert first[0].meta == {"tag": "A"}
    _same_size_same_mtime_rewrite(path, old, old.replace(b'"tag":"A"', b'"tag":"B"'))
    hits = cache.stats()["hits"]
    second = _load_warm(store, config_fp, fps, codec, cache)
    assert cache.stats()["hits"] == hits
    assert second[0].meta == {"tag": "B"}

    # The query cache: two snapshots of equal size and mtime.
    program, _, _ = _frontier_setup(tmp_path / "setup")
    store = SummaryStore(tmp_path / "query")
    config_fp = analyze_with_store(
        program, FILE_PROPERTY, store, engine="swift", domain="simple",
        meta={"tag": "A"},
    ).config_fp
    _, bu_analysis, _ = make_analyses(program, FILE_PROPERTY, "simple")
    codec = Codec("simple", bu_analysis)
    fps = ProgramFingerprints(program)
    cfgs = ControlFlowGraphs(program)
    cache = WarmCache(4)
    loads = _counting_loads(store)

    def lookup(store=store, config_fp=config_fp, fps=fps, codec=codec, cfgs=cfgs):
        return _load_query_warm(
            store, config_fp, fps, codec, frozenset({"main"}),
            frozenset({"mid"}), cfgs, cache,
        )

    first = lookup()
    assert first[2] == "hit" and len(loads) == 1
    path = store.path_for(config_fp)
    old = path.read_bytes()
    _same_size_same_mtime_rewrite(path, old, old.replace(b'"tag":"A"', b'"tag":"B"'))
    hits = cache.stats()["hits"]
    second = lookup()
    assert cache.stats()["hits"] == hits
    assert second[1] is not first[1]
    assert len(loads) == 2  # the replaced file was read again

    # A patched-in-place entry, after a second ``SummaryStore`` writer
    # replaced the file: the lookup misses and decodes the new file.
    program = chain()
    store = SummaryStore(tmp_path / "patched")
    cache = WarmCache(4)
    first = analyze_with_store(
        program, FILE_PROPERTY, store, engine="swift", domain="simple",
        warm_cache=cache, meta={"writer": "first"},
    )
    assert first.saved and len(cache) == 1
    other = store.load(first.config_fp)
    other.meta = {"writer": "second"}
    _, bu_analysis, _ = make_analyses(program, FILE_PROPERTY, "simple")
    # A demand query through the same cache views the resident snapshot
    # while its file is unchanged, and reads the file once it is not.
    loads = _counting_loads(store)
    demand = dict(
        store=store, config_fp=first.config_fp, fps=ProgramFingerprints(program),
        codec=Codec("simple", bu_analysis), cfgs=ControlFlowGraphs(program),
    )
    assert lookup(**demand)[2] == "hit" and loads == []
    SummaryStore(tmp_path / "patched").save(other)
    assert lookup(**demand)[2] == "hit" and len(loads) == 1
    misses = cache.stats()["misses"]
    snapshot, plan, warm = _load_warm(
        store, first.config_fp, ProgramFingerprints(program),
        Codec("simple", bu_analysis), cache,
    )
    assert cache.stats()["misses"] == misses + 1
    assert snapshot.meta == {"writer": "second"}
    assert plan.valid == frozenset(program.names())
    assert warm.context_count() > 0
