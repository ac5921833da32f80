"""Concurrent-reuse hammer tests: the single-process assumptions the
service daemon broke, held down.

Three seams of the reuse layer used to assume one request at a time:
the warm decode cache was a bare dict (unlocked check-then-insert,
FIFO eviction), store temp files were keyed by pid alone (two threads
saving one snapshot collided on the tmp path), and the JSONL trace
sink only flushed on close (a long-lived daemon's trace stayed
empty).  These tests run the real ``analyze_with_store`` loop from
many threads — same config, different configs — and assert results,
snapshots, and cache behaviour are exactly what serial runs produce.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.frontend import compile_minioo
from repro.framework.tracing import JsonlSink, TraceEvent, read_jsonl
from repro.framework.config import make_config
from repro.incremental import (
    Snapshot,
    SummaryStore,
    WarmCache,
    analyze_with_store,
    build_warm_start,
    diff_fingerprints,
    prepare_store_run,
    stored_proc,
)
from repro.ir.cfg import ControlFlowGraphs
from repro.query.engine import build_query_warm
from repro.typestate.properties import FILE_PROPERTY

MINI = """
class Writer { method flush(f) { f.#open(); f.#close(); } }
class Helper { method run(g) { g.#open(); g.#close(); } }
main {
  w = new Writer();
  r = new Writer();
  h = new Helper();
  w.flush(r);
  h.run(r);
}
"""

#: MINI with one method body edited: analyzing it over MINI's snapshot
#: appends to the file.
EDITED_MINI = MINI.replace(
    "method flush(f) { f.#open(); f.#close(); }",
    "method flush(f) { f.#open(); f.#close(); f.#open(); f.#close(); }",
)

BAD_MINI = """
class Writer { method close2(f) { f.#close(); f.#close(); } }
main { w = new Writer(); r = new Writer(); r.#open(); w.close2(r); }
"""


@pytest.fixture
def program():
    return compile_minioo(MINI)


def _snapshot_bytes(store_dir) -> dict:
    """Snapshot file name -> bytes, for torn-write comparisons."""
    store = SummaryStore(store_dir)
    return {path.name: path.read_bytes() for path in store.snapshot_paths()}


def _base_size(store) -> int:
    """Size of the base of the store's one snapshot."""
    (path,) = store.snapshot_paths()
    return Snapshot.from_bytes(path.read_bytes()).log.base_bytes


def _assert_complete(store_dir) -> None:
    """Every snapshot parses to its last intact record, which is its
    end, and no temp file is left behind."""
    for path in SummaryStore(store_dir).snapshot_paths():
        data = path.read_bytes()
        assert Snapshot.from_bytes(data).log.end == len(data)
    assert not list(Path(store_dir).glob("*.tmp.*"))


# -- threaded analyze_with_store ------------------------------------------------------
@pytest.mark.parametrize("engine", ["td", "swift"])
def test_hammer_same_config_matches_serial(tmp_path, program, engine):
    serial_store = SummaryStore(tmp_path / "serial")
    serial_cache = WarmCache(capacity=8)
    serial = analyze_with_store(
        program, FILE_PROPERTY, serial_store, engine=engine,
        domain="simple", warm_cache=serial_cache,
    )

    store = SummaryStore(tmp_path / "hammer")
    cache = WarmCache(capacity=8)
    barrier = threading.Barrier(8)

    def run(_):
        barrier.wait()
        out = []
        for _ in range(4):
            out.append(
                analyze_with_store(
                    program, FILE_PROPERTY, store, engine=engine,
                    domain="simple", warm_cache=cache,
                )
            )
        return out

    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = [o for sub in pool.map(run, range(8)) for o in sub]

    for outcome in outcomes:
        assert outcome.report.errors == serial.report.errors
        assert not outcome.report.timed_out
    # No torn snapshot: the surviving file parses and is byte-identical
    # to the serial store's (canonical encoding is deterministic).
    assert _snapshot_bytes(tmp_path / "hammer") == _snapshot_bytes(
        tmp_path / "serial"
    )
    # No stranded temp files from concurrent saves.
    assert not list((tmp_path / "hammer").glob("*.tmp.*"))
    # Warm runs actually hit the shared cache.
    assert cache.stats()["hits"] > 0

    # Appending writers: threads alternate the edited and the original
    # program over one store, so saves append to the file (or rewrite
    # it when another writer got there first); every verdict equals its
    # version's serial one and the file always replays completely.
    edited = compile_minioo(EDITED_MINI)
    reference = {
        id(version): analyze_with_store(
            version, FILE_PROPERTY, SummaryStore(tmp_path / f"ref{i}"),
            engine=engine, domain="simple", warm_cache=WarmCache(2),
        ).report.errors
        for i, version in enumerate((program, edited))
    }
    appended = []

    def alternate(i):
        barrier.wait()
        for k in range(4):
            version = (program, edited)[(i + k) % 2]
            outcome = analyze_with_store(
                version, FILE_PROPERTY, store, engine=engine,
                domain="simple", warm_cache=cache,
            )
            assert outcome.report.errors == reference[id(version)]
            if outcome.bytes_written:
                appended.append(outcome.bytes_written < _base_size(store))
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(alternate, range(8)))
    finally:
        sys.setswitchinterval(interval)
    assert any(appended)
    _assert_complete(tmp_path / "hammer")


def test_hammer_different_configs_keep_their_snapshots(tmp_path, program):
    """Concurrent runs under different configs never cross-contaminate."""
    configs = [
        {"engine": "td", "domain": "simple"},
        {"engine": "swift", "domain": "simple", "k": 2, "theta": 1},
        {"engine": "swift", "domain": "simple", "k": 5, "theta": 2},
        {"engine": "swift", "domain": "simple", "scheduler": "fifo"},
    ]
    serial = {}
    for i, kwargs in enumerate(configs):
        store = SummaryStore(tmp_path / f"serial{i}")
        serial[i] = analyze_with_store(
            program, FILE_PROPERTY, store, warm_cache=WarmCache(4), **kwargs
        )

    store = SummaryStore(tmp_path / "shared")
    cache = WarmCache(capacity=2)  # smaller than the config count: evicts
    barrier = threading.Barrier(len(configs) * 2)

    def run(i):
        barrier.wait()
        out = []
        for _ in range(3):
            out.append(
                analyze_with_store(
                    program, FILE_PROPERTY, store,
                    warm_cache=cache, **configs[i % len(configs)],
                )
            )
        return i % len(configs), out

    with ThreadPoolExecutor(max_workers=len(configs) * 2) as pool:
        results = list(pool.map(run, range(len(configs) * 2)))

    fps = set()
    for i, outcomes in results:
        for outcome in outcomes:
            assert outcome.report.errors == serial[i].report.errors
            assert outcome.config_fp == serial[i].config_fp
            fps.add(outcome.config_fp)
    assert len(fps) == len(configs)  # one snapshot per distinct config
    shared = _snapshot_bytes(tmp_path / "shared")
    assert len(shared) == len(configs)
    for i in range(len(configs)):
        for name, data in _snapshot_bytes(tmp_path / f"serial{i}").items():
            assert shared[name] == data
    assert not list((tmp_path / "shared").glob("*.tmp.*"))


def test_hammered_snapshots_parse_and_roundtrip(tmp_path, program):
    store = SummaryStore(tmp_path)
    cache = WarmCache(4)

    def run(_):
        return analyze_with_store(
            program, FILE_PROPERTY, store, engine="swift",
            domain="simple", warm_cache=cache,
        )

    with ThreadPoolExecutor(max_workers=6) as pool:
        list(pool.map(run, range(12)))
    for path in store.snapshot_paths():
        snap = Snapshot.from_bytes(path.read_bytes())
        assert snap.to_bytes() == path.read_bytes()  # canonical on disk

    # A snapshot decodes each segment on the first ask; four threads
    # asking for every procedure of a fresh snapshot at once — whole
    # contexts through an analyze view, entry/exit ones through a cone
    # view, in opposite orders — must each get it (a procedure that is
    # present never reads None), all get the one decoded entry the
    # snapshot keeps, and all read whole rows and records.
    (path,) = store.snapshot_paths()
    data = path.read_bytes()
    cfgs = ControlFlowGraphs(program)
    run = prepare_store_run(
        program, FILE_PROPERTY, make_config(engine="swift", domain="simple")
    )
    reference = Snapshot.from_bytes(data)
    procs = sorted(reference.segments)
    plan = diff_fingerprints(reference.fingerprints, run.fingerprints)
    want = {}
    for proc in procs:
        exit_index = cfgs.exit(proc).index
        for entry, ctx in stored_proc(reference, proc, run.codec).contexts.items():
            ends = [r for r in ctx.rows if r[0].index in (0, exit_index)]
            want[proc, entry] = (ctx.rows, ctx.records, ends)
    rounds, threads = 200, 4
    snaps = [Snapshot.from_bytes(data) for _ in range(rounds)]
    views = [
        (
            build_warm_start(snap, plan, run.codec),
            build_query_warm(
                snap, plan, run.codec, cfgs, frozenset(), frozenset(procs)
            ),
        )
        for snap in snaps
    ]
    barrier = threading.Barrier(threads)
    missing, seen, torn = [], set(), []

    def touch(index):
        order = procs if index % 2 else procs[::-1]
        for snap, (whole, cone) in zip(snaps, views):
            barrier.wait()
            for proc in order:
                stored = whole.stored(proc)
                if stored is None:
                    missing.append(proc)
                    continue
                if stored is not snap.decoded[proc]:
                    seen.add((id(snap), proc))
                for entry in stored.contexts:
                    ctx = whole.context(proc, entry)
                    got = (ctx.rows, ctx.records, cone.context(proc, entry).rows)
                    if got != want[proc, entry]:
                        torn.append((proc, entry))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=touch, args=(i,)) for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        sys.setswitchinterval(interval)
    assert missing == [] and seen == set() and torn == []
    assert want and all(set(snap.decoded) == set(procs) for snap in snaps)


# -- WarmCache unit behaviour ---------------------------------------------------------
def test_warm_cache_is_true_lru():
    cache = WarmCache(capacity=2)
    cache.insert(("root", "a"), 1, {}, "snap-a", "plan-a")
    cache.insert(("root", "b"), 1, {}, "snap-b", "plan-b")
    # Hit on a refreshes its recency, so inserting c evicts b, not a.
    assert cache.get(("root", "a"), 1) == ({}, "snap-a", "plan-a")
    cache.insert(("root", "c"), 1, {}, "snap-c", "plan-c")
    assert cache.get(("root", "a"), 1) is not None
    assert cache.get(("root", "b"), 1) is None
    assert cache.get(("root", "c"), 1) is not None
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["entries"] == 2


def test_warm_cache_stale_signature_misses_without_eviction():
    cache = WarmCache(capacity=2)
    cache.insert(("root", "a"), (1, 10), {"p": "x"}, "s", "plan")
    assert cache.get(("root", "a"), (2, 10)) is None  # new file
    # A new program hits the snapshot; its plan is for the old program,
    # which the entry names, so the loader re-diffs.
    assert cache.get(("root", "a"), (1, 10)) == ({"p": "x"}, "s", "plan")
    assert ("root", "a") in cache
    stats = cache.stats()
    assert (stats["hits"], stats["misses"], stats["evictions"]) == (1, 1, 0)
    cache.invalidate(("root", "a"))
    assert ("root", "a") not in cache


def test_warm_cache_concurrent_churn_stays_bounded():
    cache = WarmCache(capacity=4)

    def churn(seed):
        for i in range(200):
            key = ("root", f"fp{(seed * 7 + i) % 10}")
            if cache.get(key, 1) is None:
                cache.insert(key, 1, {}, f"s{i}", None)
        return True

    with ThreadPoolExecutor(max_workers=8) as pool:
        assert all(pool.map(churn, range(8)))
    assert len(cache) <= 4
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == 8 * 200


def test_warm_cache_rejects_zero_capacity():
    with pytest.raises(ValueError):
        WarmCache(capacity=0)


# -- store temp-file naming -----------------------------------------------------------
def test_concurrent_saves_leave_no_tmp_and_a_complete_file(tmp_path, program):
    """Many threads saving the same snapshot: last complete write wins."""
    store = SummaryStore(tmp_path)
    outcome = analyze_with_store(
        program, FILE_PROPERTY, store, engine="td", domain="simple",
        warm_cache=WarmCache(2),
    )
    snap = store.load(outcome.config_fp)
    expected = snap.to_bytes()
    barrier = threading.Barrier(8)

    def save(_):
        barrier.wait()
        for _ in range(5):
            store.save(snap)
        return True

    with ThreadPoolExecutor(max_workers=8) as pool:
        assert all(pool.map(save, range(8)))
    path = store.path_for(outcome.config_fp)
    assert path.read_bytes() == expected
    assert not list(tmp_path.glob("*.tmp.*"))

    # Appending writers: each thread loads the file and saves its own
    # version over what it loaded.  At most one append lands per loaded
    # version; a writer that lost the race rewrites the base, so the
    # file always replays to exactly one writer's complete snapshot.
    edited = compile_minioo(EDITED_MINI)
    other_store = SummaryStore(tmp_path / "other")
    edited_out = analyze_with_store(
        edited, FILE_PROPERTY, other_store, engine="td", domain="simple",
        warm_cache=WarmCache(2),
    )
    versions = [snap, other_store.load(edited_out.config_fp)]
    landed = []

    def append(i):
        barrier.wait()
        for k in range(5):
            loaded = store.load(outcome.config_fp)
            mine = dataclasses.replace(versions[(i + k) % 2])
            store.save(mine, loaded)
            landed.append(mine.log.appends)
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the lock, stat and write
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(append, range(8)))
    finally:
        sys.setswitchinterval(interval)
    assert any(landed)
    final = store.load(outcome.config_fp)
    assert final.log.end == path.stat().st_size
    assert final.to_bytes() in {version.to_bytes() for version in versions}
    assert not list(tmp_path.glob("*.tmp.*"))

    # Two processes appending to one store root, each alternating the
    # two programs through analyze_with_store with its resident cache:
    # every verdict is its version's, and the file replays completely.
    script = (
        "import json, sys\n"
        "from repro.frontend import compile_minioo\n"
        "from repro.incremental import SummaryStore, analyze_with_store\n"
        "from repro.typestate.properties import FILE_PROPERTY\n"
        "from tests.test_concurrent_reuse import EDITED_MINI, MINI\n"
        "store = SummaryStore(sys.argv[1])\n"
        "programs = [compile_minioo(MINI), compile_minioo(EDITED_MINI)]\n"
        "for k in range(12):\n"
        "    which = (int(sys.argv[2]) + k) % 2\n"
        "    out = analyze_with_store(programs[which], FILE_PROPERTY, store,\n"
        "                             engine='td', domain='simple')\n"
        "    print(json.dumps([which, sorted(map(str, out.report.errors)),\n"
        "                      out.bytes_written]))\n"
    )
    shared = tmp_path / "processes"
    root = Path(__file__).resolve().parent.parent
    env = {
        "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
        "PATH": "/usr/bin:/bin",
    }
    workers = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(shared), str(i)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        for i in range(2)
    ]
    outputs = [worker.communicate(timeout=300)[0] for worker in workers]
    assert [worker.returncode for worker in workers] == [0, 0]
    references = [
        sorted(map(str, out.report.errors)) for out in (outcome, edited_out)
    ]
    written = []
    for text in outputs:
        runs = [json.loads(line) for line in text.splitlines()]
        assert len(runs) == 12
        assert all(errors == references[which] for which, errors, _ in runs)
        written.extend(n for _, _, n in runs if n)
    # Some saves appended: a log record, not a base.
    assert min(written) < min(len(v.to_bytes()) for v in versions) // 2
    _assert_complete(shared)
    for which, version in enumerate((program, edited)):
        again = analyze_with_store(
            version, FILE_PROPERTY, SummaryStore(shared), engine="td",
            domain="simple", warm_cache=WarmCache(2),
        )
        assert not again.cold
        assert sorted(map(str, again.report.errors)) == references[which]


def test_gc_still_collects_stranded_tmp_files(tmp_path):
    store = SummaryStore(tmp_path)
    tmp_path.mkdir(exist_ok=True)
    stranded = tmp_path / "snapshot-deadbeef.jsonl.tmp.123-456-7"
    stranded.write_text("partial")
    legacy = tmp_path / "snapshot-cafebabe.jsonl.tmp.999"
    legacy.write_text("partial")
    removed = store.gc()
    assert stranded in removed and legacy in removed
    assert not stranded.exists() and not legacy.exists()


# -- JsonlSink periodic flushing ------------------------------------------------------
def test_jsonl_sink_flushes_before_close(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path, flush_every=4)
    for i in range(4):
        sink.emit(TraceEvent("propagate", f"p{i}"))
    # Four events crossed the flush bound: the file is readable *now*,
    # without close() — the daemon-crash case.
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    sink.emit(TraceEvent("propagate", "p4"))
    sink.flush()
    assert len(path.read_text().splitlines()) == 5
    sink.close()


def test_jsonl_sink_bytes_identical_across_flush_intervals(tmp_path, program):
    from repro.typestate.client import run_typestate

    paths = []
    for flush_every in (1, 3, 128):
        path = tmp_path / f"trace-{flush_every}.jsonl"
        sink = JsonlSink(path, flush_every=flush_every)
        run_typestate(
            program, FILE_PROPERTY, engine="swift", domain="simple", sink=sink
        )
        sink.close()
        paths.append(path)
    reference = paths[0].read_bytes()
    assert reference  # the run actually traced something
    for path in paths[1:]:
        assert path.read_bytes() == reference
    for event in read_jsonl(paths[0]):
        assert event.kind
    assert json.loads(paths[0].read_text().splitlines()[0])["seq"] == 0


def test_jsonl_sink_rejects_bad_flush_interval(tmp_path):
    with pytest.raises(ValueError):
        JsonlSink(tmp_path / "t.jsonl", flush_every=0)
