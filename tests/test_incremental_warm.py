"""Warm-start equivalence, invalidation, and the incremental driver."""

import contextlib
import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.framework.metrics import Budget
from repro.framework.tracing import RingSink
from repro.bench import load_benchmark
from repro.incremental import (
    Snapshot,
    SummaryStore,
    WarmCache,
    analyze_with_store,
    diff_fingerprints,
    driver,
    invalidate,
)
from repro.incremental.fingerprint import ProgramFingerprints, canonical_json
from repro.incremental.invalidate import (
    REASON_BODY,
    REASON_CONE,
    REASON_REMOVED,
)
from repro.ir.commands import Call, Seq, Skip, seq
from repro.ir.parser import parse_program
from repro.ir.program import Program
from repro.query import QueryTarget, compute_cone
from repro.typestate.client import run_typestate
from repro.typestate.dfa import ERROR
from repro.typestate.properties import FILE_PROPERTY
from repro.typestate.states import BOOTSTRAP_SITE

from tests.helpers import best_of
from tests.test_property_based import commands, programs

CHAIN = """
proc main { v = new h1; v.open(); call mid; v.close(); }
proc mid { call leaf; }
proc leaf { f = new h2; f.open(); f.close(); }
"""


def chain():
    return parse_program(CHAIN)


def edit_proc(program, proc):
    """Double ``proc``'s body — semantics-preserving for these tests'
    protocols is irrelevant; only the fingerprint change matters."""
    procs = dict(program.procedures)
    procs[proc] = Seq((procs[proc], procs[proc]))
    return Program(procs, main=program.main)


def run_twice(program, store_dir, engine="swift", domain="full", second=None, **kw):
    store = SummaryStore(store_dir)
    cold = analyze_with_store(
        program, FILE_PROPERTY, store, engine=engine, domain=domain, **kw
    )
    warm = analyze_with_store(
        second if second is not None else program,
        FILE_PROPERTY,
        store,
        engine=engine,
        domain=domain,
        **kw,
    )
    return cold, warm


# -- warm ≡ cold --------------------------------------------------------------------
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=programs())
def test_warm_equals_cold_td_full_domain(tmp_path_factory, program):
    """On an unchanged program a warm top-down run reproduces the cold
    run *exactly* — tables, entry counts, errors — while re-doing
    (far) under 10% of its work."""
    cold, warm = run_twice(
        program, tmp_path_factory.mktemp("store"), engine="td", domain="full"
    )
    assert warm.report.errors == cold.report.errors
    assert warm.report.result.td == cold.report.result.td
    assert dict(warm.report.result.entry_counts) == dict(
        cold.report.result.entry_counts
    )
    cold_work = cold.report.result.metrics.total_work
    assert warm.report.result.metrics.total_work <= 0.10 * cold_work
    assert warm.store_hits > 0


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=programs())
def test_warm_equals_cold_swift_full_domain(tmp_path_factory, program):
    cold, warm = run_twice(
        program, tmp_path_factory.mktemp("store"), engine="swift", domain="full"
    )
    assert warm.report.errors == cold.report.errors
    assert warm.report.result.metrics.total_work <= 0.10 * (
        cold.report.result.metrics.total_work
    )
    assert warm.store_hits > 0


def test_warm_run_converges_to_stable_snapshot(tmp_path):
    """The second and third runs write byte-identical snapshots."""
    store = SummaryStore(tmp_path)
    program = chain()
    outs = [
        analyze_with_store(program, FILE_PROPERTY, store, engine="swift", domain="full")
        for _ in range(3)
    ]
    path = Path(outs[1].snapshot_path)
    second = path.read_bytes()
    assert outs[2].snapshot_path == str(path)
    assert path.read_bytes() == second


# -- invalidation -------------------------------------------------------------------
def test_diff_classifies_body_cone_removed_added():
    base = ProgramFingerprints(chain())
    stored = base.as_dict()

    edited = ProgramFingerprints(edit_proc(chain(), "leaf"))
    plan = diff_fingerprints(stored, edited)
    assert plan.invalidated == {"leaf": REASON_BODY, "mid": REASON_CONE, "main": REASON_CONE}
    assert plan.valid == frozenset() and plan.added == frozenset()

    # Rename leaf -> twig: old name is removed, callers' cones change,
    # the new name shows up as added.
    renamed = parse_program(CHAIN.replace("leaf", "twig"))
    plan = diff_fingerprints(stored, ProgramFingerprints(renamed))
    assert plan.invalidated == {
        "leaf": REASON_REMOVED,
        "mid": REASON_BODY,  # mid's body text names its callee
        "main": REASON_CONE,
    }
    assert plan.added == frozenset({"twig"})

    # A new call edge changes only the caller's body and its callers' cones.
    procs = dict(chain().procedures)
    procs["mid"] = seq(procs["mid"], Call("leaf"))
    plan = diff_fingerprints(stored, ProgramFingerprints(Program(procs)))
    assert plan.invalidated == {"mid": REASON_BODY, "main": REASON_CONE}
    assert plan.valid == frozenset({"leaf"})


@pytest.mark.parametrize("engine", ["td", "swift"])
def test_one_proc_edit_reanalyzes_only_the_cone(tmp_path, engine):
    """After editing one leaf, the warm run invalidates exactly the
    edit cone (trace-event asserted) and matches a cold run's errors."""
    program = chain()
    edited = edit_proc(program, "leaf")
    sink = RingSink()
    _, warm = run_twice(
        program, tmp_path / "a", engine=engine, second=edited, sink=sink
    )
    cold_ref, _ = run_twice(edited, tmp_path / "b", engine=engine)
    assert warm.report.errors == cold_ref.report.errors
    cone = {"leaf", "mid", "main"}
    assert set(warm.invalidated) == cone
    invalidated_events = {
        e.proc for e in sink.events if e.kind == "store_invalidated"
    }
    assert invalidated_events == cone
    assert warm.store_invalidated == len(cone)
    # Nothing outside the cone was re-analyzed from scratch: every
    # surviving procedure's entries stayed valid.
    assert warm.valid == frozenset()  # chain(): the cone is the whole program

    # The store lifecycle on a suite program: a warm run from disk redoes
    # at most a tenth of the cold work; a second one reuses the resident
    # decode, so it loads no slower than the first and runs no slower
    # than the cold run; two leaf edits invalidate exactly the first
    # leaf's cone; every run has the errors of a cold run of its program.
    # Each timed side is the best of three rounds, so one preemption or
    # collector pause cannot decide a comparison.
    program = load_benchmark("jpat-p").program
    names = sorted(program.names())
    leaves = [p for p in names if p != program.main and not program.callees(p)]
    edited = edit_proc(program, leaves[0])
    edited_twice = edit_proc(edited, leaves[1])
    # Every jpat-p procedure is reachable: a leaf's query cone is the
    # leaf and its transitive callers, the set its edit must invalidate.
    cone = compute_cone(program, QueryTarget(leaves[0])).cone

    def analyze(version, store, resident=True):
        if not resident:
            driver.clear_warm_cache()  # a save leaves the snapshot resident
        return best_of(
            1, analyze_with_store, version, FILE_PROPERTY, store,
            engine=engine, domain="full", budget=Budget(max_work=400_000),
        )

    def cold_errors(version, name):
        return analyze(version, SummaryStore(tmp_path / name))[0].report.errors

    def fastest(runs, load=False):  # wall-clock or snapshot-load seconds
        return min(r.report.result.metrics.store_load_seconds if load else s
                   for r, s in runs)

    def assert_read_in_place(run):
        """A finite-domain warm run keeps no row of an activated context
        in its own table, and its findings, summary count and
        propagations are those of the merged table."""
        result = run.report.result
        assert set(result.stored) == result.activated
        for point, pairs in result.fresh.items():
            for entry, _ in pairs:
                assert (point.proc, entry) not in result.stored, (point, entry)
        merged = result.td
        assert run.report.errors == {
            (point, sigma.site)
            for point, pairs in merged.items()
            for _, sigma in pairs
            if sigma.state == ERROR and sigma.site != BOOTSTRAP_SITE
        }
        assert run.report.td_summaries == sum(
            len(merged.get(result.cfgs.exit(proc), ())) for proc in result.program
        )
        fresh_rows = sum(len(pairs) for pairs in result.fresh.values())
        assert result.metrics.propagations == fresh_rows
        assert sum(len(pairs) for pairs in merged.values()) == fresh_rows + sum(
            len(ctx.rows) for ctx in result.stored.values()
        )

    colds = [analyze(program, SummaryStore(tmp_path / f"cold{i}")) for i in range(3)]
    store = SummaryStore(tmp_path / "suite")
    cold, _ = analyze(program, store, resident=False)
    warms = [analyze(program, store, resident=False) for _ in range(3)]
    warm2s = [analyze(program, store) for _ in range(3)]
    edit, _ = analyze(edited, store)
    steady, _ = analyze(edited_twice, store)
    cold_m = cold.report.result.metrics
    assert all(c.cold and c.report.errors == cold.report.errors for c, _ in colds)
    for run, _ in warms + warm2s:
        assert run.report.errors == cold.report.errors and run.store_hits > 0
        assert run.report.result.metrics.total_work <= 0.10 * cold_m.total_work
    # Every counter of a run served from the resident decode, whose
    # stored contexts carry memoized exits and findings, equals those
    # of a run from a fresh decode of the file.
    for run, _ in warms + warm2s:
        assert _counters(run.report.result.metrics) == _counters(
            warms[0][0].report.result.metrics
        )
    for run in [r for r, _ in warms + warm2s] + [edit, steady]:
        assert_read_in_place(run)
    assert fastest(warm2s, load=True) <= fastest(warms, load=True)
    assert fastest(warm2s) <= fastest(colds), (fastest(warm2s), fastest(colds))
    assert set(edit.invalidated) == cone
    assert edit.report.errors == cold_errors(edited, "edited")
    assert steady.report.errors == cold_errors(edited_twice, "edited-twice")

    # A save keeps the instantiations of exactly the summaries it keeps
    # as the same object.  Through one resident cache (k=1, so ``foo``
    # gets a summary): a cold run, a warm re-run, a caller edit that
    # instantiates ``foo``'s stored summary, an edit that changes
    # ``foo``'s effect (its summary is replaced), the caller's revert,
    # which instantiates the new summary at the old σ, and an unchanged
    # re-run.  A stale instantiation would hide the double open.
    head = (
        "proc main { a = new h1; f = a; call g; a.open(); "
        "b = new h2; f = b; call g; b.open(); }\n"
    )
    callers = ("proc g { call foo; }\n", "proc g { call foo; call foo; }\n")
    foos = ("proc foo { f.open(); f.close(); }\n", "proc foo { f.open(); }\n")
    versions = [(0, 0), (0, 0), (1, 0), (1, 1), (0, 1), (0, 1)]
    saves = []

    def build_snapshot(*args, **kw):
        saves.append((kw["previous"], invalidate.build_snapshot(*args, **kw)))
        return saves[-1][1]

    cache, store = WarmCache(), SummaryStore(tmp_path / "memo")
    with mock.patch.object(driver, "build_snapshot", build_snapshot):
        for step, (g, foo) in enumerate(versions):
            version = parse_program(head + callers[g] + foos[foo])
            ref = run_typestate(version, FILE_PROPERTY, engine="td", domain="full")
            out = analyze_with_store(
                version, FILE_PROPERTY, store, engine=engine, domain="full",
                k=1, theta=1, warm_cache=cache,
            )
            assert out.cold == (step == 0)
            if step:
                assert_read_in_place(out)
            assert out.report.error_sites == ref.error_sites, step
            assert {e for e in out.report.errors if e[0].proc == "main"} == {
                e for e in ref.errors if e[0].proc == "main"
            }, step
            if step in (1, 5):
                assert out.report.result.metrics.total_work == 0
                continue  # an unchanged re-run saves nothing
            previous, snap = saves[-1]
            carried = {callee for callee, _ in snap.instantiations}
            for callee in carried:
                assert snap.decoded[callee].bu is previous.decoded[callee].bu
            if engine == "swift" and step == 2:  # foo's summary survived
                assert carried == {"foo"}
            if engine == "swift" and step == 3:  # ... and is replaced here
                assert "foo" in {callee for callee, _ in previous.instantiations}
                assert snap.decoded["foo"].bu is not previous.decoded["foo"].bu
                assert not carried
    assert len(saves) == 4


def test_edit_outside_cone_preserves_stored_entries(tmp_path):
    """Editing a procedure leaves siblings' contexts warm."""
    text = """
    proc main { v = new h1; v.open(); call left; call right; v.close(); }
    proc left { skip; }
    proc right { skip; }
    """
    program = parse_program(text)
    edited = edit_proc(program, "left")
    sink = RingSink()
    _, warm = run_twice(
        program, tmp_path, engine="td", second=edited, sink=sink
    )
    assert set(warm.invalidated) == {"left", "main"}
    assert warm.valid == frozenset({"right"})
    # right's stored context was activated, not recomputed.
    hits = [e for e in sink.events if e.kind == "store_hit" and e.proc == "right"]
    assert hits


# -- driver policies ----------------------------------------------------------------
def test_bu_engine_rejected(tmp_path):
    with pytest.raises(ValueError):
        analyze_with_store(
            chain(), FILE_PROPERTY, SummaryStore(tmp_path), engine="bu"
        )


def test_timed_out_runs_are_never_saved(tmp_path):
    store = SummaryStore(tmp_path)
    out = analyze_with_store(
        chain(),
        FILE_PROPERTY,
        store,
        engine="td",
        budget=Budget(max_work=2),
    )
    assert out.report.timed_out
    assert not out.saved and out.snapshot_path is None
    assert store.snapshot_paths() == []


def test_save_false_leaves_store_untouched(tmp_path):
    store = SummaryStore(tmp_path)
    out = analyze_with_store(chain(), FILE_PROPERTY, store, save=False)
    assert not out.saved
    assert store.snapshot_paths() == []


def test_cold_outcome_reports_added_procs(tmp_path):
    out = analyze_with_store(chain(), FILE_PROPERTY, SummaryStore(tmp_path))
    assert out.cold
    assert out.added == frozenset({"main", "mid", "leaf"})
    assert out.store_hits == 0 and out.store_invalidated == 0


def test_store_counters_not_in_total_work(tmp_path):
    _, warm = run_twice(chain(), tmp_path, engine="td")
    metrics = warm.report.result.metrics
    assert warm.store_hits > 0
    assert metrics.total_work == 0  # unchanged program: nothing recomputed


def test_configs_do_not_share_snapshots(tmp_path):
    store = SummaryStore(tmp_path)
    analyze_with_store(chain(), FILE_PROPERTY, store, engine="td")
    out = analyze_with_store(chain(), FILE_PROPERTY, store, engine="swift")
    assert out.cold  # td's snapshot must not serve a swift run
    assert len(store.snapshot_paths()) == 2


# -- hash-seed independence ---------------------------------------------------------
_SEED_SCRIPT = r"""
import sys, tempfile
from repro.incremental import SummaryStore, analyze_with_store
from repro.ir.parser import parse_program
from repro.typestate.properties import FILE_PROPERTY

program = parse_program('''
proc main { v = new h1; a = v; b = v; v.open(); call use; call use; v.close(); }
proc use { a.read(); b.read(); }
''')
with tempfile.TemporaryDirectory() as root:
    store = SummaryStore(root)
    for _ in range(2):
        out = analyze_with_store(program, FILE_PROPERTY, store, engine="swift", domain="full")
    data = store.snapshot_paths()[0].read_bytes()
import hashlib
print(hashlib.sha256(data).hexdigest())
print(out.report.result.metrics.total_work, sorted(map(str, out.report.errors)))
"""


def test_snapshots_identical_across_hash_seeds():
    """Two interpreter processes with different PYTHONHASHSEED values
    write byte-identical snapshots and identical results."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("12345", "999"):
        proc = subprocess.run(
            [sys.executable, "-c", _SEED_SCRIPT],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# -- incremental saves: segment reuse ------------------------------------------------
@contextlib.contextmanager
def _saves_with_nothing_to_reuse():
    """Make the driver's ``build_snapshot`` also build each save with no
    warm start to reuse from; yields the list of (segmented, full)
    snapshot pairs."""
    pairs = []
    real = invalidate.build_snapshot

    def build(*args, **kwargs):
        segmented = real(*args, **kwargs)
        pairs.append((segmented, real(*args, **dict(kwargs, warm=None))))
        return segmented

    with mock.patch.object(driver, "build_snapshot", build):
        yield pairs


def _apply_edit(base: Program, current: Program, step) -> Program:
    index, kind = step
    names = sorted(current.names())
    proc = names[index % len(names)]
    procs = dict(current.procedures)
    if kind == "double":
        return edit_proc(current, proc)
    if kind == "pad":  # a new fingerprint, the same traffic
        procs[proc] = Seq((procs[proc], Skip()))
    elif kind == "skip":
        procs[proc] = Skip()
    else:  # revert
        procs[proc] = base.procedures[proc]
    return Program(procs, main=current.main)


@st.composite
def wide_programs(draw):
    """main calling every one of three to five helpers (helpers call only
    later helpers), so edits leave some procedures' traffic alone."""
    names = [f"p{i}" for i in range(draw(st.integers(3, 5)))]
    procs = {
        name: draw(commands(names[i + 1:])) for i, name in enumerate(names)
    }
    procs["main"] = seq(draw(commands(names)), *(Call(name) for name in names))
    return Program(procs)


SAVE_PROGRAMS = st.one_of(programs(), wide_programs())

EDIT_STEPS = st.lists(
    st.tuples(
        st.integers(0, 5), st.sampled_from(["double", "pad", "skip", "revert"])
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    program=SAVE_PROGRAMS,
    engine=st.sampled_from(["td", "swift"]),
    domain=st.sampled_from(["simple", "full", "interval-typestate"]),
    k=st.sampled_from([1, 5]),
    steps=EDIT_STEPS,
)
# ``g`` keeps its fingerprint while ``p0``'s edit and revert change the
# state it is entered with: the revert's run tabulates a context the
# store does not hold, with as many rows as the stored one and an entry
# the merged multiset already ranks, so only the activation test tells
# the stored segment is stale.
@example(
    program=parse_program(
        "proc main { v = new h1; call p0; call g; }"
        " proc p0 { v.open(); } proc g { skip; }"
    ),
    engine="td",
    domain="simple",
    k=1,
    steps=[(2, "skip"), (2, "revert")],
)
def test_segmented_save_is_byte_identical_to_a_full_encode(
    tmp_path_factory, program, engine, domain, k, steps
):
    """Over a random edit sequence, every snapshot a segmented save
    writes equals, byte for byte, the save of the same run result with
    nothing to reuse: the file replays to it, and compacts to its
    bytes."""
    store = SummaryStore(tmp_path_factory.mktemp("store"))
    cache = WarmCache(4)
    versions = [program]
    for step in steps:
        versions.append(_apply_edit(program, versions[-1], step))
    versions.append(versions[-1])  # an unchanged re-run
    with _saves_with_nothing_to_reuse() as pairs:
        for version in versions:
            before = len(pairs)
            out = analyze_with_store(
                version, FILE_PROPERTY, store, engine=engine, domain=domain,
                k=k, warm_cache=cache,
            )
            assert out.saved
            if len(pairs) == before:  # unchanged: no save
                assert out.segments_written == out.segments_reused == 0
                continue
            segmented, full = pairs[-1]
            path = store.path_for(out.config_fp)
            data = path.read_bytes()
            replayed = Snapshot.from_bytes(data)
            assert replayed.to_bytes() == full.to_bytes()
            assert replayed.log.end == len(data)
            assert out.bytes_written == (
                len(data) if replayed.log.appends == 0 else segmented.written
            )
            for proc, text in full.segments.items():
                assert text == canonical_json(full.payload(proc))
            assert out.segments_written + out.segments_reused == len(full.segments)
            assert out.segments_reused == len(segmented.reused)


def _counters(metrics) -> dict:
    return {
        spec.name: getattr(metrics, spec.name)
        for spec in dataclasses.fields(metrics)
        if not spec.name.endswith("seconds")
    }


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    program=SAVE_PROGRAMS,
    engine=st.sampled_from(["td", "swift"]),
    domain=st.sampled_from(["simple", "full", "interval-typestate"]),
    steps=EDIT_STEPS,
)
def test_patched_cache_entry_equals_a_fresh_decode(
    tmp_path_factory, program, engine, domain, steps
):
    """A run served by the cache entry the previous save patched in place
    gives the same report, tables, counters and written files as the
    same run over a copy of the store with the cache cleared."""
    root = tmp_path_factory.mktemp("stores")
    store = SummaryStore(root / "resident")
    cache = WarmCache(4)
    kw = dict(engine=engine, domain=domain, k=1)
    analyze_with_store(program, FILE_PROPERTY, store, warm_cache=cache, **kw)
    version = program
    for i, step in enumerate(steps):
        version = _apply_edit(program, version, step)
        copy = root / f"copy{i}"
        shutil.copytree(store.root, copy)
        stats = cache.stats()
        patched = analyze_with_store(
            version, FILE_PROPERTY, store, warm_cache=cache, **kw
        )
        assert cache.stats()["hits"] == stats["hits"] + 1
        assert cache.stats()["misses"] == stats["misses"]
        fresh = analyze_with_store(
            version, FILE_PROPERTY, SummaryStore(copy), warm_cache=WarmCache(4), **kw
        )
        assert not patched.cold and not fresh.cold
        assert patched.report.errors == fresh.report.errors
        assert patched.report.result.td == fresh.report.result.td
        assert dict(patched.report.result.entry_counts) == dict(
            fresh.report.result.entry_counts
        )
        assert _counters(patched.report.result.metrics) == _counters(
            fresh.report.result.metrics
        )
        for name in ("snapshot", "frontier"):
            ours = {p.name: p.read_bytes() for p in store.root.glob(f"{name}-*")}
            theirs = {p.name: p.read_bytes() for p in copy.glob(f"{name}-*")}
            assert ours == theirs


def test_steady_state_edit_writes_only_changed_segments(tmp_path):
    """On hedc, a one-leaf edit in the steady state (its traffic already
    seen once) re-encodes exactly the invalidated, added and changed
    procedures; an unchanged re-run writes nothing."""
    program = load_benchmark("hedc").program
    callers = program.callers()

    def cone(proc):
        seen, todo = {proc}, [proc]
        while todo:
            for caller in callers[todo.pop()]:
                if caller not in seen:
                    seen.add(caller)
                    todo.append(caller)
        return seen

    leaf = next(
        p
        for p in sorted(program.names())
        if p != program.main and not program.callees(p) and len(cone(p)) >= 5
    )
    edited = edit_proc(program, leaf)
    store = SummaryStore(tmp_path)
    cache = WarmCache(4)

    def run(version):
        return analyze_with_store(version, FILE_PROPERTY, store, warm_cache=cache)

    cold = run(program)
    total = len(program.names())
    assert cold.segments_reused == 0 and cold.segments_written > total // 2
    run(edited)
    run(program)
    path = store.path_for(cold.config_fp)
    old = Snapshot.from_bytes(path.read_bytes())
    edit = run(edited)
    new = Snapshot.from_bytes(path.read_bytes())
    assert edit.saved and not edit.cold
    assert edit.segments_written + edit.segments_reused == len(new.segments)
    changed = {p for p in new.segments if old.segments.get(p) != new.segments[p]}
    stale = (set(edit.invalidated) | edit.added) & set(new.segments)
    assert edit.segments_written == len(changed | stale)
    assert len(stale) <= edit.segments_written < total // 4
    # An unchanged re-run skips the save outright.
    before = path.stat()
    again = run(edited)
    assert again.saved and again.report.result.metrics.total_work == 0
    assert again.segments_written == again.segments_reused == 0
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
