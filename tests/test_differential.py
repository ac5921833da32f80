"""The differential oracle: one reference, every axis, every surface.

Theorem 3.1 says SWIFT computes exactly the pure top-down result, and
the tabulation fixpoint does not depend on the workset's pop order, so
no configuration axis may change a verdict and no entry point may
report one a direct run would not.  The *reference* is TD under the
default pop order (``lifo``), run by :func:`run_typestate`, on the
simple and full domains.  Programs: ``all_small_programs()``, seeded
``wide_fanout``/``scc_heavy``/``hub_flood`` shapes, and derandomized
hypothesis ``programs()`` draws.  Axes: engine ``td``, ``swift`` at
several ``k``/``theta``, and ``bu`` (on error sites: it only knows
main's exit); ``lifo``/``fifo``; the widening knobs, inert on finite
domains.  Surfaces: ``run_typestate``; ``analyze_with_store`` cold,
warm, and after a seeded one-procedure body edit; ``run_query`` and
``run_query_batch`` per target; the service's ``analyze``, ``edit``
and ``demand`` (single and batch) through ``AnalysisService.handle``.
Verdicts are compared as :func:`encode_answer` output, the form every
surface prints or sends.  Two invariants ride along: TD tables and
raw work counters are identical under both pop orders, and SWIFT
equals TD at every point of ``main``.  Every registered domain meets
the engine and pop-order axes in ``test_config_registry.py``.
"""

import functools
import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import hub_flood, scc_heavy, wide_fanout
from repro.framework.config import AnalysisConfig
from repro.framework.denotational import DenotationalInterpreter
from repro.framework.topdown import TopDownEngine
from repro.incremental import SummaryStore, analyze_with_store, clear_warm_cache
from repro.ir.cfg import program_cfgs
from repro.ir.commands import Seq, Skip
from repro.ir.printer import format_program
from repro.ir.program import Program
from repro.query import QUERY_KINDS, resolve_target, run_query, run_query_batch
from repro.service.daemon import AnalysisService
from repro.typestate.client import encode_answer, make_analyses, run_typestate
from repro.typestate.properties import FILE_PROPERTY

from tests.helpers import all_small_programs
from tests.test_property_based import programs

ORDERS = TopDownEngine.POP_ORDERS
DOMAINS = ("simple", "full")
#: SWIFT thresholds: k=1 fires on the first repeated context.
THRESHOLDS = ((1, 1), (1, 2), (2, 1), (2, 3))
#: Every target is asked in every batch; the first SINGLES targets are
#: also asked alone for errors, the first one for the other kinds (a
#: single query is a batch of one at every layer, and one cone solve).
SINGLES = 2
#: Raw work counters TD must reach under both pop orders: it processes
#: every path edge exactly once, whatever the order.
COUNTERS = (
    "transfers", "rtransfers", "compositions", "propagations",
    "summary_instantiations",
)
#: ``all_small_programs()``, in its order.
SMALL = ("figure1", "section24", "loop", "recursive", "diamond")
SHAPES = {
    "wide_fanout": lambda: wide_fanout(6, seed=1),
    "scc_heavy": lambda: scc_heavy(4, seed=2),
    "hub_flood": lambda: hub_flood(4),
}
CASES = SMALL + tuple(SHAPES)
RANDOM = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@functools.lru_cache(maxsize=None)
def case(name: str, edit: bool = False) -> Program:
    """One program per case (with ``edit``, its seeded one-procedure
    edit), shared so its CFGs, alias facts and reference are built once."""
    if edit:
        return edited(case(name), name)
    return SHAPES[name]() if name in SHAPES else all_small_programs()[SMALL.index(name)]


@pytest.fixture(autouse=True, scope="module")
def _release_caches():
    """Drop the shared programs and reference runs with this module, so
    later tests (some of them timed) do not carry the heap."""
    yield
    case.cache_clear()
    reference.cache_clear()


def edited(program, seed) -> Program:
    """One procedure's body doubled or dropped, by ``seed``.  The
    procedure set stays, so the edit keeps the program's lineage."""
    rng = random.Random(seed)
    proc = rng.choice(sorted(program.names()))
    procs = dict(program.procedures)
    procs[proc] = rng.choice([Seq((procs[proc], procs[proc])), Skip()])
    return Program(procs, main=program.main)


def run(program, domain, engine="td", order="lifo", **fields):
    return run_typestate(
        program, FILE_PROPERTY, engine=engine, domain=domain, scheduler=order,
        **fields,
    )


@functools.lru_cache(maxsize=None)
def reference(program, domain):
    """TD under the default pop order: no ``scheduler`` is passed."""
    return run_typestate(program, FILE_PROPERTY, engine="td", domain=domain)


def errors(report) -> list:
    return encode_answer("errors", report.errors)


def verdict(encoded: list, engine: str):
    """What a run of ``engine`` must share with the reference, from its
    encoded errors: all of them for TD; for SWIFT, those at main's
    points and the error sites.  Where SWIFT applied a summary, an error
    TD finds inside the callee shows at the call's return point, and
    which contexts were summarized depends on when the trigger fired
    (the pop order, a warm start)."""
    if engine == "td":
        return encoded
    at_main = [row for row in encoded if row[0].rsplit(":", 1)[0] == "main"]
    return at_main, sorted({site for _, site in encoded})


def expected(program, report, target, kind="errors") -> list:
    """``report``'s encoded answer to a ``kind`` query at ``target``."""
    target = resolve_target(program, target)
    if kind == "errors":
        answer = {(pc, site) for pc, site in report.errors if target.covers(pc)}
    elif kind == "summaries":
        answer = report.result.summaries(target.proc)
    else:
        answer = report.result.incoming_states(target.proc)
    return encode_answer(kind, answer)


def targets_of(program) -> list:
    """Every procedure, then each one's second point (if it has one)."""
    procs = sorted(program.names())
    cfgs = program_cfgs(program)
    return procs + [f"{proc}:1" for proc in procs if len(cfgs[proc].points) > 1]


def components(program):
    """Batch components of :func:`targets_of`, when every procedure is
    reachable from main (they then share main's); else None."""
    return 1 if set(program.reachable()) == set(program.names()) else None


# -- engines: every axis against the reference ------------------------------------------


def check_engines(
    program, domain, thresholds=THRESHOLDS, denotational=True, knobs=True
):
    """Every engine, threshold and pop order against the reference, and
    the reference against the denotational semantics (exponential in
    recursion: ``denotational=False`` skips it)."""
    ref = reference(program, domain)
    if denotational:
        td_analysis, _, initial = make_analyses(program, FILE_PROPERTY, domain)
        semantics = DenotationalInterpreter(program, td_analysis).run([initial])
        assert ref.result.exit_states() == semantics
    metrics = ref.result.metrics
    for order in ORDERS:
        td = run(program, domain, "td", order)
        assert errors(td) == errors(ref) and td.result.td == ref.result.td, order
        for counter in COUNTERS:
            assert getattr(td.result.metrics, counter) == getattr(metrics, counter)
        for k, theta in thresholds:
            swift = run(program, domain, "swift", order, k=k, theta=theta)
            where = (order, k, theta)
            assert verdict(errors(swift), "swift") == verdict(errors(ref), "swift")
            assert swift.result.exit_states() == ref.result.exit_states(), where
            for point in ref.result.cfgs["main"].points:
                states = swift.result.states_at(point)
                assert states == ref.result.states_at(point), (where, point)
    assert run(program, domain, "bu").error_sites == ref.error_sites
    # The widening knobs only steer infinite-height domains (the lifo
    # runs are tests/test_lattice_fixpoint.py's).
    for engine in ("td", "swift", "bu") if knobs else ():
        plain, knobbed = (
            run(program, domain, engine, "fifo", k=2, theta=1, **extra)
            for extra in ({}, {"widening_delay": 0, "descending_iters": 3})
        )
        assert errors(knobbed) == errors(plain), engine
        assert (knobbed.td_summaries, knobbed.bu_summaries) == (
            plain.td_summaries, plain.bu_summaries
        ), engine
        assert knobbed.result.metrics.total_work == plain.result.metrics.total_work


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("name", CASES)
def test_engines_match_reference(name, domain):
    check_engines(case(name), domain, denotational=name in SMALL)


@settings(RANDOM, max_examples=40)
@given(program=programs(), k=st.integers(1, 4), theta=st.integers(1, 3))
def test_engines_match_reference_on_random_programs(program, k, theta):
    check_engines(program, "simple", thresholds=((k, theta),), knobs=False)


# -- the store and the query path -------------------------------------------------------


def check_store_and_queries(program, after, domain, engine, order, root):
    """``analyze_with_store`` cold, warm, then on ``after`` (an edit of
    ``program``) warm from its snapshot, each followed by queries: every
    kind, batched and alone, on ``program``; errors, batched, on ``after``."""
    config = AnalysisConfig(
        engine=engine, domain=domain, k=1, theta=1, scheduler=order
    )
    store = SummaryStore(root)
    for subject, full in ((program, True), (after, False)):
        ref = reference(subject, domain)
        first = analyze_with_store(subject, FILE_PROPERTY, store, config)
        assert first.cold == (subject is program)
        assert verdict(errors(first.report), engine) == verdict(errors(ref), engine)
        if subject is program:
            warm = analyze_with_store(subject, FILE_PROPERTY, store, config)
            assert not warm.cold and warm.report.result.metrics.total_work == 0
            assert errors(warm.report) == errors(first.report)
        check_queries(subject, ref, store, config, full)


def check_queries(program, ref, store, config, full):
    """Errors at every target in one batch (repeating a target: the
    planner dedups); with ``full``, every kind, batched and alone.  Each
    answer is the reference's.  The first batch reads the snapshot from
    disk, the rest from memory."""
    targets = targets_of(program)
    clear_warm_cache()
    for kind in QUERY_KINDS if full else ("errors",):
        batch = run_query_batch(
            program, FILE_PROPERTY, store, targets + targets[:1], kind=kind,
            config=config,
        )
        assert batch.solves == 1 and not batch.cold, kind
        assert batch.out_of_cone_interior_rows == 0, kind
        assert components(program) in (None, batch.batch_components), kind
        for index, target in enumerate(targets):
            want = expected(program, ref, target, kind)
            assert encode_answer(kind, batch.answer_for(target)) == want, target
            if full and index < (SINGLES if kind == "errors" else 1):
                single = run_query(
                    program, FILE_PROPERTY, store, target, kind=kind, config=config
                )
                assert encode_answer(kind, single.answer) == want, (kind, target)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("engine", ["td", "swift"])
@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("name", CASES)
def test_store_and_queries_match_reference(tmp_path, name, domain, engine, order):
    check_store_and_queries(
        case(name), case(name, edit=True), domain, engine, order, tmp_path
    )


@settings(RANDOM, max_examples=15)
@given(
    program=programs(),
    engine=st.sampled_from(["td", "swift"]),
    order=st.sampled_from(ORDERS),
    seed=st.integers(0, 3),
)
def test_store_and_queries_match_reference_on_random_programs(
    program, engine, order, seed
):
    with tempfile.TemporaryDirectory() as root:
        check_store_and_queries(
            program, edited(program, seed), "simple", engine, order, root
        )


# -- the service ------------------------------------------------------------------------


@pytest.mark.parametrize("name", CASES)
def test_service_matches_reference(tmp_path, name):
    """One resident service, every engine and pop order: ``analyze``
    cold then warm, an ``edit`` warm from its parent's shard, then
    ``demand`` as a batch of every target and alone, on both versions.
    The cases alternate the domain, so each domain meets every engine
    and order on four programs (the store test takes every program
    through both)."""
    domain = DOMAINS[CASES.index(name) % 2]
    versions = {"parent": case(name), "edit": case(name, edit=True)}
    refs = {key: reference(program, domain) for key, program in versions.items()}
    service = AnalysisService(tmp_path / "svc")
    demands = 0
    for engine in ("td", "swift"):
        for order in ORDERS:
            cfg = {"engine": engine, "domain": domain, "k": 1, "theta": 1,
                   "scheduler": order}

            def ask(op, key, **extra):
                response = service.handle(
                    {"op": op, "program": format_program(versions[key]),
                     "format": "ir", "config": cfg, **extra}
                )
                assert response["ok"], (cfg, response)
                return response

            def same_verdict(response, key):
                want = verdict(errors(refs[key]), engine)
                return verdict(response["errors"], engine) == want

            cold, warm = ask("analyze", "parent"), ask("analyze", "parent")
            edit = ask("edit", "edit")
            assert cold["cold"] and same_verdict(cold, "parent"), cfg
            if engine == "swift":  # TD's verdict is every error already
                direct = run_typestate(
                    versions["parent"], FILE_PROPERTY, AnalysisConfig(**cfg)
                )
                assert cold["errors"] == errors(direct), cfg
            assert not warm["cold"] and warm["work"] == 0, cfg
            assert warm["errors"] == cold["errors"], cfg
            assert not edit["cold"] and edit["shard"] == cold["shard"], cfg
            assert same_verdict(edit, "edit"), cfg
            for key, program in versions.items():
                targets = targets_of(program)
                batch = ask("demand", key, targets=targets, id="b")
                single = ask("demand", key, target=targets[0])
                demands += 1
                assert batch["batch"] and batch["id"] == "b", cfg
                assert batch["targets"] == targets, cfg
                assert batch["solves"] == 1 and not batch["coalesced"], cfg
                assert batch["out_of_cone_interior_rows"] == 0, cfg
                assert components(program) in (None, batch["batch_components"])
                assert single["answer"] == batch["answers"][targets[0]], cfg
                for target in targets:
                    want = expected(program, refs[key], target)
                    assert batch["answers"][target] == want, (cfg, key, target)
    stats = service.handle({"op": "stats"})
    assert stats["batch_demands"] == demands
    assert stats["demands"] == 2 * demands
    assert stats["demand_coalesced"] == 0
