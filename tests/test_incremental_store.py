"""Fingerprints, codecs, and the on-disk summary store."""

import json
import os
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.alias import points_to_oracle
from repro.framework.config import make_config
from repro.framework.registry import DOMAINS
from repro.framework.session import analysis_session
from repro.incremental import (
    Codec,
    ProgramFingerprints,
    Snapshot,
    SummaryStore,
    config_fingerprint,
    prepare_store_run,
)
from repro.incremental.fingerprint import alias_facts, body_fingerprint
from repro.incremental.invalidate import build_snapshot
from repro.incremental.store import STORE_VERSION
from repro.ir.parser import parse_program
from repro.typestate.client import run_typestate
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


def codec_for(program, domain):
    """The snapshot codec of ``domain`` for ``program``."""
    config = make_config(domain=domain)
    instance = analysis_session().build_domain(program, config, prop=FILE_PROPERTY)
    return Codec(config.domain, instance.bu_analysis)


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
        FILE_PROPERTY, config=make_config(domain="full", engine="swift", k=5, theta=1)
    )
    assert base_desc["property"]["name"] == "File"
    variants = [
        config_fingerprint(
            FILE_PROPERTY, config=make_config(domain="full", engine="swift", k=6)
        ),
        config_fingerprint(FILE_PROPERTY, config=make_config(domain="full", engine="td")),
        config_fingerprint(
            FILE_PROPERTY, config=make_config(domain="simple", engine="swift", k=5)
        ),
        config_fingerprint(
            property_by_name("Iterator"),
            config=make_config(domain="full", engine="swift", k=5, theta=1),
        ),
        config_fingerprint(
            FILE_PROPERTY,
            config=make_config(
                domain="full", engine="swift", k=5, theta=1, tracked_sites=["h1"]
            ),
        ),
    ]
    fps = {base} | {fp for _, fp in variants}
    assert len(fps) == len(variants) + 1
    # Same inputs, same fingerprint.
    again = config_fingerprint(
        FILE_PROPERTY, config=make_config(domain="full", engine="swift", k=5, theta=1)
    )
    assert again == (base_desc, base)


# -- codec --------------------------------------------------------------------------
@pytest.mark.parametrize("domain", ["simple", "full"])
@pytest.mark.parametrize(
    "program", all_small_programs(), ids=lambda p: p.main + str(len(list(p.names())))
)
def test_codec_round_trips_run_artifacts(domain, program):
    """Every state and summary an actual run produces survives
    encode → decode → encode unchanged."""
    codec = codec_for(program, domain)
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
    """The codec takes each store domain by its registry name only, and
    refuses any other name listing the ones it takes."""
    program = chain()
    store_domains = [name for name in DOMAINS if name.startswith("typestate-")]
    assert sorted(Codec.DOMAINS) == store_domains
    for domain in store_domains:
        assert codec_for(program, domain).domain == domain
    for domain in ("killgen", "made-up", "simple"):
        with pytest.raises(ValueError) as err:
            Codec(domain, None)
        assert ", ".join(Codec.DOMAINS) in str(err.value), domain
    # A store-backed run refuses a domain the store cannot hold first.
    with pytest.raises(
        ValueError, match="the summary store is type-state only, not 'killgen'"
    ):
        prepare_store_run(program, FILE_PROPERTY, make_config(domain="killgen"))


# -- snapshot serialization ---------------------------------------------------------
def _snapshot_for(program, engine="swift", domain="full"):
    codec = codec_for(program, domain)
    config, config_fp = config_fingerprint(
        FILE_PROPERTY,
        config=make_config(domain=domain, engine=engine, k=5, theta=1),
    )
    report = run_typestate(program, FILE_PROPERTY, engine=engine, domain=domain)
    fps = ProgramFingerprints(program)
    return build_snapshot(config, config_fp, fps, report.result, codec)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    program=programs(), other=programs(), engine=st.sampled_from(["td", "swift"])
)
def test_snapshot_serialization_round_trip(program, other, engine):
    """save → load → re-serialize is byte-identical on random programs,
    and so is a log: a base followed by the records of a chain of
    saves replays to exactly the last snapshot, whose compaction is its
    full save byte for byte."""
    snap = _snapshot_for(program, engine=engine, domain="simple")
    data = snap.to_bytes()
    loaded = Snapshot.from_bytes(data)
    assert loaded.to_bytes() == data
    for version in (other, program, other):
        newer = _snapshot_for(version, engine=engine, domain="simple")
        record = newer.log_record(loaded)
        if record is None:  # what a save then writes: the full base
            data = newer.to_bytes()
        else:
            data += record[0]
        replayed = Snapshot.from_bytes(data)
        assert replayed.segments == newer.segments
        assert replayed.fingerprints == newer.fingerprints
        assert replayed.meta == newer.meta
        assert replayed.to_bytes() == newer.to_bytes()
        assert replayed.log.end == len(data)
        appended = 0 if record is None else loaded.log.appends + 1
        assert replayed.log.appends == appended
        loaded = replayed


CHAIN_EDITS = [
    CHAIN.replace("proc leaf { skip; }", "proc leaf { skip; skip; }"),
    CHAIN,
    CHAIN.replace("proc mid { call leaf; }", "proc mid { call leaf; call leaf; }"),
    CHAIN,
]


def test_store_save_load_byte_identical(tmp_path):
    snap = _snapshot_for(chain())
    store = SummaryStore(tmp_path / "store")
    path = store.save(snap)
    assert path.exists()
    loaded = store.load(snap.config_fp)
    assert loaded is not None
    assert loaded.to_bytes() == path.read_bytes() == snap.to_bytes()
    assert snap.written == len(path.read_bytes())
    # A chain of saves, each built from the one before, appends one log
    # record per save — except one whose record would grow the log past
    # its base's size, which rewrites the file as one base (the
    # compaction rule).  Every load replays to exactly the snapshot in
    # hand, and compaction writes the bytes of its full save.
    previous, appends = loaded, []
    for text in CHAIN_EDITS:
        newer = _snapshot_for(parse_program(text))
        size = path.stat().st_size
        assert store.save(newer, previous) == path
        appends.append(newer.log.appends)
        if newer.log.appends:
            assert newer.log.appends == previous.log.appends + 1
            assert path.stat().st_size == size + newer.written
        else:
            assert path.stat().st_size == newer.written == newer.log.base_bytes
            assert newer.log_record(previous) is None
        assert path.stat().st_size <= 2 * newer.log.base_bytes
        loaded = store.load(snap.config_fp)
        assert loaded.segments == newer.segments
        assert loaded.fingerprints == newer.fingerprints
        assert (loaded.log, loaded.signature) == (newer.log, newer.signature)
        previous = loaded
    assert appends == [1, 2, 0, 1]
    assert path.read_bytes() != previous.to_bytes()
    fresh = SummaryStore(tmp_path / "fresh")
    full = fresh.save(_snapshot_for(parse_program(CHAIN_EDITS[-1]))).read_bytes()
    assert store.compact() == [path]
    assert path.read_bytes() == previous.to_bytes() == full
    assert store.load(snap.config_fp).log.appends == 0
    assert store.compact() == []  # nothing left to fold
    # Another writer rewrote the file in place (same inode and size,
    # other bytes): a save over the version this process loaded writes
    # a base rather than append to bytes it never read.
    loaded = store.load(snap.config_fp)
    data = path.read_bytes()
    other = data.replace(b'"meta":{}', b'"meta":[]', 1)
    assert len(other) == len(data) and other != data
    inode = path.stat().st_ino
    path.write_bytes(other)
    os.utime(path, ns=(loaded.signature[1] + 10**9, loaded.signature[1] + 10**9))
    assert (path.stat().st_ino, path.stat().st_size) == (inode, len(data))
    newer = _snapshot_for(parse_program(CHAIN_EDITS[0]))
    store.save(newer, loaded)
    assert newer.log.appends == 0
    replayed = store.load(snap.config_fp)
    assert replayed.segments == newer.segments
    assert replayed.fingerprints == newer.fingerprints


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


# -- one file per configuration ----------------------------------------------------
def _store_setup(tmp_path, program=None):
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


def test_analyze_writes_one_snapshot_and_demand_views_it_partially(tmp_path):
    """One file per configuration: the snapshot.  Analyze and demand
    runs read it through one lazy per-procedure view: building a view
    parses nothing, a cone's contexts keep entry/exit rows alone, a
    first demand decodes only the segments its cone was offered, and a
    demand through the cache an analyze filled parses nothing again."""
    from unittest import mock

    from repro.incremental import (
        WarmCache,
        analyze_with_store,
        build_warm_start,
        diff_fingerprints,
        prepare_store_run,
    )
    from repro.ir.cfg import ControlFlowGraphs
    from repro.query import run_query
    from repro.query.engine import build_query_warm

    program, store, result = _store_setup(tmp_path)
    config_fp = result.config_fp
    snapshot_name = store.path_for(config_fp).name
    assert [p.name for p in store.root.iterdir()] == [snapshot_name]
    snapshot = store.load(config_fp)
    run = prepare_store_run(
        program, FILE_PROPERTY, make_config(engine="swift", domain="simple")
    )
    assert run.config_fp == config_fp
    cfgs = ControlFlowGraphs(program)
    plan = diff_fingerprints(snapshot.fingerprints, run.fingerprints)
    names = frozenset(program.names())
    cone = build_query_warm(snapshot, plan, run.codec, cfgs, frozenset(), names)
    whole = build_warm_start(snapshot, plan, run.codec)
    assert cone.offered == whole.offered == names
    assert snapshot.decoded == {}  # a view parses nothing up front
    # Both views serve the one decoded context; the cone's form keeps
    # only its entry (0) and exit rows and no call records.
    for proc in program.names():
        exit_index = cfgs.exit(proc).index
        keep = {0, exit_index}
        for entry, ctx in whole.stored(proc).contexts.items():
            assert whole.context(proc, entry) is ctx
            ends = cone.context(proc, entry)
            assert ends is ctx.ends(exit_index)
            assert {point.index for point, _ in ends.rows} <= keep, proc
            assert [r for r in ctx.rows if r[0].index in keep] == ends.rows
            assert ends.records == ()
    assert set(cone.summaries()) == {
        proc for proc in snapshot.segments if "bu" in snapshot.payload(proc)
    }
    # A first demand for mid (cone {main, mid}) is offered leaf alone.
    cache = WarmCache(4)
    outcome = run_query(program, FILE_PROPERTY, store, "mid", warm_cache=cache)
    assert outcome.frontier_snapshot == "hit" and outcome.store_hits > 0
    _, resident, _ = cache.get(
        (str(store.root.resolve()), config_fp), snapshot.signature
    )
    assert set(resident.decoded) == {"leaf"}
    # Unchanged re-analysis keeps the store at that one file.
    again = analyze_with_store(
        program, FILE_PROPERTY, store, engine="swift", domain="simple"
    )
    assert again.store_hits > 0
    assert [p.name for p in store.root.iterdir()] == [snapshot_name]
    # Through one cache, demands after an analyze parse nothing again.
    shared = WarmCache(4)
    with mock.patch.object(json, "loads", wraps=json.loads) as parse:
        analyze_with_store(
            program, FILE_PROPERTY, store, engine="swift", domain="simple",
            warm_cache=shared,
        )
        parsed = parse.call_count
        for target in ("mid", "leaf"):
            run_query(program, FILE_PROPERTY, store, target, warm_cache=shared)
    assert parsed > 0 and parse.call_count == parsed


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
    program, store, result = _store_setup(tmp_path / "demand")
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


def test_stats_and_gc_sweep_leftover_frontier_files(tmp_path):
    """The ``frontier-*.jsonl`` projections older stores kept next to
    each snapshot are ignored by ``stats`` and swept by ``gc``/``clear``."""
    from repro.incremental import analyze_with_store

    program, store, result = _store_setup(tmp_path)
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
    """Re-lay a snapshot out in the v2 layout: one JSON record per
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


def _as_v3(snapshot_bytes: bytes) -> bytes:
    """Re-lay a snapshot out in the v3 layout: its base alone (v3 had no
    log), under a version-3 header."""
    lines = list(Snapshot.from_bytes(snapshot_bytes).lines())
    header = json.loads(lines[0])
    header["version"] = 3
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_version_bump_sends_old_stores_cold_then_rewrites(tmp_path):
    """A store written in an older layout — v2 (one record per line) or
    v3 (segments, no log) — loads cold under v4, never wrong, for
    analyze and demand queries alike, and the next analyze rewrites the
    snapshot at the current version."""
    from repro.incremental import WarmCache, analyze_with_store
    from repro.query import run_query

    assert STORE_VERSION == 4
    for old_layout in (_as_v2, _as_v3):
        program, store, result = _store_setup(tmp_path / old_layout.__name__)
        config_fp = result.config_fp
        snapshot_path = store.path_for(config_fp)
        warm = run_query(
            program, FILE_PROPERTY, store, "mid", warm_cache=WarmCache(2)
        )
        snapshot_path.write_bytes(old_layout(snapshot_path.read_bytes()))
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


# -- v4 files: fault injection -------------------------------------------------------
#: The program ``_store_setup`` stores, with ``leaf`` edited: its save
#: appends to the setup's snapshot.
EDITED = """
proc main { v = new h1; v.open(); call mid; v.close(); }
proc mid { call leaf; }
proc leaf { f = new h2; f.open(); f.close(); f.open(); f.close(); }
"""


def _truncate_last_line(data: bytes) -> bytes:
    last = data[:-1].rsplit(b"\n", 1)[1]
    return data[: -1 - len(last) // 2]


def _flip_bit(line: bytes) -> bytes:
    at = line.index(b"\t") + len(line) // 2
    return line[:at] + bytes([line[at] ^ 0x04]) + line[at + 1:]


def _flip_segment_bit(data: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[1] = _flip_bit(lines[1])
    return b"\n".join(lines)


def _unknown_proc_segment(data: bytes) -> bytes:
    # Checksummed and listed in the manifest: only the fingerprint check
    # can reject it.
    lines = data.decode("utf-8").split("\n")
    header = json.loads(lines[0])
    payload = '{"contexts":[]}'
    header["segments"]["ghost"] = format(zlib.crc32(payload.encode()), "08x")
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    lines.insert(1, f"ghost\t{payload}")
    return "\n".join(lines).encode("utf-8")


def _duplicate_segment(data: bytes) -> bytes:
    lines = data.split(b"\n")
    lines.insert(2, lines[1])
    return b"\n".join(lines)


def _log_start(lines) -> int:
    """Index of the first line after the base."""
    return len(json.loads(lines[0])["segments"]) + 1


def _drop_manifest(data: bytes) -> bytes:
    # Torn after the appended segment lines, before their record.
    return data[: data[:-1].rindex(b"\n") + 1]


def _flip_appended_bit(data: bytes) -> bytes:
    lines = data.split(b"\n")
    at = _log_start(lines)
    lines[at] = _flip_bit(lines[at])
    return b"\n".join(lines)


def _drop_appended_line(data: bytes) -> bytes:
    # The record names a segment line that is no longer there.
    lines = data.split(b"\n")
    del lines[_log_start(lines)]
    return b"\n".join(lines)


def _flip_manifest_bit(data: bytes) -> bytes:
    # Still valid JSON naming the same lines: only the record's own
    # checksum can reject it.
    lines = data.split(b"\n")
    at = lines[-2].index(b'"body":"') + len(b'"body":"')
    lines[-2] = lines[-2][:at] + bytes([lines[-2][at] ^ 0x01]) + lines[-2][at + 1:]
    return b"\n".join(lines)


def _stray_line_in_record(data: bytes) -> bytes:
    # A base segment line of a procedure the record does not name,
    # copied in just before the record.
    lines = data.split(b"\n")
    named = json.loads(lines[-2][12:-1])["segments"]
    stray = next(
        line for line in lines[1:_log_start(lines)]
        if line.partition(b"\t")[0].decode() not in named
    )
    lines.insert(-2, stray)
    return b"\n".join(lines)


def _log_on_other_base(data: bytes) -> bytes:
    # The same versions under a base of another identity: the log's
    # records name the base they extend, which is not this one.
    lines = data.split(b"\n")
    header = json.loads(lines[0])
    header["meta"] = {"file": "elsewhere"}
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"\n".join(lines)


#: fault -> (damage to a base plus one appended save, what loads):
#: ``"cold"`` (``None``) or ``"previous"`` (the base's version).
FAULTS = {
    "truncated-last-line": (_truncate_last_line, "previous"),
    "bit-flipped-segment": (_flip_segment_bit, "cold"),
    "unknown-proc-segment": (_unknown_proc_segment, "cold"),
    "duplicated-segment": (_duplicate_segment, "cold"),
    "v2-file": (_as_v2, "cold"),
    "v3-file": (_as_v3, "cold"),
    "torn-before-manifest": (_drop_manifest, "previous"),
    "bit-flipped-appended-segment": (_flip_appended_bit, "previous"),
    "manifest-names-missing-line": (_drop_appended_line, "previous"),
    "log-on-other-base": (_log_on_other_base, "previous"),
    "bit-flipped-manifest": (_flip_manifest_bit, "previous"),
    "stray-line-in-record": (_stray_line_in_record, "previous"),
}


def test_faulty_segments_load_cold_then_rewrite(tmp_path):
    """Each corruption of a file holding a base and one appended save
    makes ``load`` return the base's version (a damaged log) or ``None``
    (a damaged base); the next analyze of the edited program starts warm
    or cold accordingly, with the correct verdict, and rewrites the file
    as one valid base: the appended version, or a cold run's."""
    from repro.incremental import analyze_with_store

    edited = parse_program(EDITED)
    cold = analyze_with_store(
        edited, FILE_PROPERTY, SummaryStore(tmp_path / "cold"), engine="swift",
        domain="simple",
    )
    cold_bytes = SummaryStore(tmp_path / "cold").path_for(cold.config_fp).read_bytes()
    for fault in sorted(FAULTS):
        damage, outcome = FAULTS[fault]
        program, store, result = _store_setup(tmp_path / fault)
        config_fp = result.config_fp
        path = store.path_for(config_fp)
        previous = store.load(config_fp)
        logged = analyze_with_store(
            edited, FILE_PROPERTY, store, engine="swift", domain="simple"
        )
        good = path.read_bytes()
        newest = Snapshot.from_bytes(good)
        assert newest.log.appends == 1 and logged.bytes_written < len(good), fault
        assert logged.report.errors == cold.report.errors, fault
        path.write_bytes(damage(good))
        assert path.read_bytes() != good, fault
        loaded = store.load(config_fp)
        if outcome == "cold":
            assert loaded is None, fault
        else:
            assert loaded.segments == previous.segments, fault
            assert loaded.fingerprints == previous.fingerprints, fault
        again = analyze_with_store(
            edited, FILE_PROPERTY, store, engine="swift", domain="simple"
        )
        assert again.cold == (outcome == "cold") and again.saved, fault
        assert again.report.errors == cold.report.errors, fault
        rewritten = store.load(config_fp)
        assert rewritten is not None and rewritten.log.appends == 0, fault
        expected = cold_bytes if outcome == "cold" else newest.to_bytes()
        assert rewritten.to_bytes() == path.read_bytes() == expected, fault


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
    """The resident cache is keyed by file signature, so a replaced file
    is never served from memory: not when it has the same size and
    mtime as the cached one (for analyze and demand runs alike), and not
    when the cached entry is the one an analyze put back after its own
    save."""
    from repro.incremental import WarmCache, analyze_with_store, load_warm
    from repro.query import run_query

    # Two snapshots of equal size and mtime, through the one loader.
    program = chain()
    codec = codec_for(program, "simple")
    config, config_fp = config_fingerprint(
        FILE_PROPERTY,
        config=make_config(domain="simple", engine="swift", k=5, theta=1),
    )
    fps = ProgramFingerprints(program)
    report = run_typestate(program, FILE_PROPERTY, engine="swift", domain="simple")
    store = SummaryStore(tmp_path / "analyze")
    path = store.save(
        build_snapshot(config, config_fp, fps, report.result, codec, meta={"tag": "A"})
    )
    old = path.read_bytes()
    cache = WarmCache(4)
    first = load_warm(store, config_fp, fps, cache)
    assert first[0].meta == {"tag": "A"}
    _same_size_same_mtime_rewrite(path, old, old.replace(b'"tag":"A"', b'"tag":"B"'))
    hits = cache.stats()["hits"]
    second = load_warm(store, config_fp, fps, cache)
    assert cache.stats()["hits"] == hits
    assert second[0].meta == {"tag": "B"}

    # The same for demand queries: the replaced file is read again.
    program, _, _ = _store_setup(tmp_path / "setup")
    store = SummaryStore(tmp_path / "query")
    config_fp = analyze_with_store(
        program, FILE_PROPERTY, store, engine="swift", domain="simple",
        meta={"tag": "A"},
    ).config_fp
    cache = WarmCache(4)
    loads = _counting_loads(store)

    def demand(store=store):
        outcome = run_query(program, FILE_PROPERTY, store, "mid", warm_cache=cache)
        assert outcome.frontier_snapshot == "hit" and outcome.store_hits > 0
        return outcome

    demand()
    demand()
    assert len(loads) == 1  # the second demand read the resident entry
    path = store.path_for(config_fp)
    old = path.read_bytes()
    _same_size_same_mtime_rewrite(path, old, old.replace(b'"tag":"A"', b'"tag":"B"'))
    hits = cache.stats()["hits"]
    demand()
    assert cache.stats()["hits"] == hits
    assert len(loads) == 2  # the replaced file was read again

    # The entry an analyze put back after its save, after a second
    # ``SummaryStore`` writer replaced the file: the load misses and
    # reads the new file.
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
    # A demand query through the same cache views the resident snapshot
    # while its file is unchanged, and reads the file once it is not.
    loads = _counting_loads(store)
    demand(store)
    assert loads == []
    SummaryStore(tmp_path / "patched").save(other)
    demand(store)
    assert len(loads) == 1
    snapshot, plan = load_warm(
        store, first.config_fp, ProgramFingerprints(program), cache
    )
    assert len(loads) == 1  # the demand's load is resident now
    assert snapshot.meta == {"writer": "second"}
    assert plan.valid == frozenset(program.names())
    assert snapshot.payload("main")["contexts"]
