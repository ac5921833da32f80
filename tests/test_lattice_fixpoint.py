"""Engine-level tests for the lattice (value-mode) fixpoint core.

Three contracts from DESIGN §14:

* **Finite domains are untouched** — the widening knobs normalize away
  and every engine × scheduler cell computes byte-identical
  reports and work counters whatever values the knobs carry;
* **Infinite-height domains terminate** — the interval×typestate
  product reaches a fixpoint on loop-heavy programs where the naive
  powerset iteration provably diverges (the guard test below exhibits
  the strictly ascending chain);
* **Unsupported operations fail typed** — an element-level join on a
  finite powerset domain raises :class:`UnsupportedDomainError`.
"""

import pytest

from repro.bench.workloads import loop_nest
from repro.framework.config import AnalysisConfig
from repro.framework.interfaces import UnsupportedDomainError
from repro.framework.metrics import Budget
from repro.framework.scheduling import scheduler_names
from repro.framework.session import analysis_session
from repro.ir.builder import ProgramBuilder
from repro.numeric.interval import Interval
from repro.typestate.client import run_typestate
from repro.typestate.properties import FILE_PROPERTY

from tests.helpers import loop_program, recursive_program


# -- finite domains: widening knobs are inert -----------------------------------

ENGINES = ["td", "bu", "swift"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheduler", scheduler_names())
@pytest.mark.parametrize("make_program", [loop_program, recursive_program])
def test_widening_knobs_are_identity_on_finite_domains(
    engine, scheduler, make_program
):
    program = make_program()
    reports = [
        run_typestate(
            program,
            FILE_PROPERTY,
            engine=engine,
            domain="simple",
            k=2,
            theta=1,
            scheduler=scheduler,
            widening_delay=delay,
            descending_iters=iters,
        )
        for delay, iters in [(2, 0), (0, 3)]
    ]
    base, knobbed = reports
    assert base.errors == knobbed.errors
    assert base.td_summaries == knobbed.td_summaries
    assert base.bu_summaries == knobbed.bu_summaries
    assert (
        base.result.metrics.total_work == knobbed.result.metrics.total_work
    )


def test_finite_domain_fingerprint_ignores_knobs():
    base = AnalysisConfig(domain="simple")
    knobbed = base.replace(widening_delay=7, descending_iters=4)
    assert base.canonical_dict() == knobbed.canonical_dict()
    flags = base.canonical_dict()["flags"]
    assert flags["widening_delay"] is None
    assert flags["descending_iters"] is None


def test_infinite_domain_fingerprint_keys_on_knobs():
    base = AnalysisConfig(domain="interval-typestate")
    knobbed = base.replace(widening_delay=7)
    assert base.canonical_dict() != knobbed.canonical_dict()
    assert base.canonical_dict()["flags"]["widening_delay"] == 2


# -- the divergence guard and the termination regression ------------------------


def test_naive_interval_iteration_diverges_at_a_loop_head():
    # The chain a widening-free fixpoint would walk at loop_nest's loop
    # heads: join the counter's post-body value into the head, forever.
    # Every iterate is strictly above the last — an infinite strictly
    # ascending chain, so naive powerset/value iteration cannot stop.
    from repro.ir.commands import Invoke
    from repro.numeric.interval import EMPTY_ENV, ZERO, IntervalEnv
    from repro.numeric.td_analysis import IntervalTD

    td = IntervalTD()
    head = IntervalEnv([("cnt", ZERO)])
    seen = {head}
    for _ in range(64):
        (after_body,) = td.transfer(Invoke("cnt", "incr"), head)
        new_head = td.join(head, after_body)
        assert td.leq(head, new_head) and new_head != head  # strictly up
        head = new_head
        assert head not in seen
        seen.add(head)
    assert len(seen) == 65


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheduler", scheduler_names())
def test_product_terminates_on_loop_nest(scheduler, engine):
    # The acceptance regression: with widening, every engine under
    # every worklist policy reaches a fixpoint (within a finite work
    # budget) on the loop-heavy shape whose naive iteration the guard
    # test above proves divergent.
    report = run_typestate(
        loop_nest(4, seed=19),
        FILE_PROPERTY,
        engine=engine,
        domain="interval-typestate",
        k=2,
        theta=1,
        scheduler=scheduler,
        budget=Budget(max_work=500_000),
    )
    assert not report.timed_out
    assert report.result.metrics.total_work > 0
    assert report.error_sites  # the protocol violations are still found


def test_engines_agree_on_product_error_sites():
    program = loop_nest(4, seed=19)
    sites = {
        engine: run_typestate(
            program,
            FILE_PROPERTY,
            engine=engine,
            domain="interval-typestate",
            k=2,
            theta=1,
        ).error_sites
        for engine in ENGINES
    }
    assert sites["td"] == sites["swift"] == sites["bu"]


def test_descending_iters_recover_precision_after_widening():
    # loop { c.incr(); c.le10() }: the ascending pass widens the head
    # to [0,+inf]; one descending (narrowing) pass re-runs the guard
    # and pulls the exit back down to [0,10] — soundly, since narrowing
    # only refines infinite bounds.
    b = ProgramBuilder()
    with b.proc("main") as p:
        p.new("c", "h")
        with p.loop() as body:
            body.invoke("c", "incr")
            body.invoke("c", "le10")
    program = b.build()

    def exit_env(iters):
        config = AnalysisConfig(
            engine="td", domain="interval", descending_iters=iters
        )
        outcome = analysis_session().run(program, config)
        assert not outcome.timed_out
        (env,) = outcome.findings
        return env

    assert exit_env(0).get("c") == Interval(0, None)
    assert exit_env(1).get("c") == Interval(0, 10)


def test_widening_delay_zero_still_terminates_and_is_sound():
    program = loop_nest(4, seed=19)
    eager = run_typestate(
        program,
        FILE_PROPERTY,
        engine="swift",
        domain="interval-typestate",
        widening_delay=0,
    )
    default = run_typestate(
        program, FILE_PROPERTY, engine="swift", domain="interval-typestate"
    )
    assert not eager.timed_out
    assert eager.error_sites == default.error_sites


# -- typed refusal of unsupported combinations ----------------------------------


def test_finite_domain_join_refuses_distinct_elements():
    from repro.typestate.td_analysis import SimpleTypestateTD
    from repro.typestate.states import bootstrap_state

    analysis = SimpleTypestateTD(FILE_PROPERTY)
    sigma = bootstrap_state(FILE_PROPERTY)
    assert analysis.join(sigma, sigma) is sigma
    with pytest.raises(UnsupportedDomainError) as exc:
        analysis.join(sigma, "other")
    assert "finite domain" in str(exc.value)
    assert isinstance(exc.value, ValueError)  # old except clauses still catch


def test_nonnegative_knob_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(widening_delay=-1)
    with pytest.raises(ValueError):
        AnalysisConfig(descending_iters=-1)


def test_engines_validate_knobs_like_the_config():
    from repro.framework.bottomup import BottomUpEngine
    from repro.framework.topdown import TopDownEngine
    from repro.typestate.bu_analysis import SimpleTypestateBU
    from repro.typestate.td_analysis import SimpleTypestateTD

    program = loop_program()
    td_analysis = SimpleTypestateTD(FILE_PROPERTY)
    with pytest.raises(ValueError, match="widening_delay"):
        TopDownEngine(program, td_analysis, widening_delay=-1)
    with pytest.raises(ValueError, match="descending_iters"):
        TopDownEngine(program, td_analysis, descending_iters=-1)
    with pytest.raises(ValueError, match="widening_delay"):
        BottomUpEngine(program, SimpleTypestateBU(FILE_PROPERTY), widening_delay=-1)


# -- the incremental store round trip -------------------------------------------


def test_store_roundtrip_warm_zero_work_and_knob_rekeys(tmp_path):
    from repro.incremental import SummaryStore, analyze_with_store
    from repro.incremental.driver import clear_warm_cache

    clear_warm_cache()
    program = loop_nest(4, seed=19)
    store = SummaryStore(tmp_path / "store")
    cold = analyze_with_store(
        program, FILE_PROPERTY, store, domain="interval-typestate"
    )
    assert cold.cold and not cold.report.timed_out
    assert cold.report.result.metrics.total_work > 0
    warm = analyze_with_store(
        program, FILE_PROPERTY, store, domain="interval-typestate"
    )
    assert not warm.cold
    assert warm.report.result.metrics.total_work == 0
    assert warm.report.errors == cold.report.errors
    # A knob change is a different config identity: cold, never wrong.
    rekeyed = analyze_with_store(
        program,
        FILE_PROPERTY,
        store,
        domain="interval-typestate",
        widening_delay=4,
    )
    assert rekeyed.cold
    assert rekeyed.config_fp != cold.config_fp
    assert rekeyed.report.error_sites == cold.report.error_sites
