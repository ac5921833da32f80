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

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.frontend import compile_minioo
from repro.framework.tracing import JsonlSink, TraceEvent, read_jsonl
from repro.incremental import SummaryStore, WarmCache, analyze_with_store
from repro.incremental.store import FrontierSnapshot, Snapshot
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

    # A lazily loaded frontier parses each payload on first touch; four
    # threads touching every procedure of a fresh projection at once
    # must each get it — a procedure that is present never reads None.
    (frontier_path,) = store.frontier_paths()
    data = frontier_path.read_bytes()
    procs = sorted(FrontierSnapshot.from_bytes(data).available())
    rounds, threads = 200, 4
    snaps = [FrontierSnapshot.from_bytes(data, lazy=True) for _ in range(rounds)]
    barrier = threading.Barrier(threads)
    missing = []

    def touch():
        for snap in snaps:
            barrier.wait()
            missing.extend(p for p in procs if snap.payload(p) is None)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=touch) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        sys.setswitchinterval(interval)
    assert missing == []
    assert all(snap.available() == frozenset(procs) for snap in snaps)


# -- WarmCache unit behaviour ---------------------------------------------------------
def test_warm_cache_is_true_lru():
    cache = WarmCache(capacity=2)
    cache.insert(("root", "a"), 1, {}, "snap-a", None, "warm-a")
    cache.insert(("root", "b"), 1, {}, "snap-b", None, "warm-b")
    # Hit on a refreshes its recency, so inserting c evicts b, not a.
    assert cache.lookup(("root", "a"), 1, {}) == ("snap-a", None, "warm-a")
    cache.insert(("root", "c"), 1, {}, "snap-c", None, "warm-c")
    assert cache.lookup(("root", "a"), 1, {}) is not None
    assert cache.lookup(("root", "b"), 1, {}) is None
    assert cache.lookup(("root", "c"), 1, {}) is not None
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["entries"] == 2


def test_warm_cache_stale_signature_misses_without_eviction():
    cache = WarmCache(capacity=2)
    cache.insert(("root", "a"), (1, 10), {"p": "x"}, "s", None, "w")
    assert cache.lookup(("root", "a"), (2, 10), {"p": "x"}) is None  # new file
    assert cache.lookup(("root", "a"), (1, 10), {"p": "y"}) is None  # new prog
    assert cache.lookup(("root", "a"), (1, 10), {"p": "x"}) is not None
    assert ("root", "a") in cache
    cache.invalidate(("root", "a"))
    assert ("root", "a") not in cache


def test_warm_cache_concurrent_churn_stays_bounded():
    cache = WarmCache(capacity=4)

    def churn(seed):
        for i in range(200):
            key = ("root", f"fp{(seed * 7 + i) % 10}")
            if cache.lookup(key, 1, {}) is None:
                cache.insert(key, 1, {}, f"s{i}", None, f"w{i}")
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
