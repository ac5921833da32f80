"""``AnalysisConfig`` validation, the registries, and the session pipeline.

Covers the configuration core's contracts: unknown names raise listing
the registered choices, aliases normalize, the canonical dict captures
exactly the identity fields, the experiment harness owns the row
budgets and refuses engine options an engine lacks, and every
registered engine × domain pair actually runs a smoke program through
``AnalysisSession`` with engine-independent findings.
"""

import dataclasses

import pytest

from repro.bench.workloads import loop_nest
from repro.framework.config import AnalysisConfig
from repro.framework.metrics import Budget
from repro.framework.registry import (
    DOMAINS,
    ENGINES,
    domain_names,
    engine_names,
)
from repro.framework.session import analysis_session
from repro.framework.topdown import TopDownEngine
from repro.typestate.properties import FILE_PROPERTY
from repro.typestate.td_analysis import SimpleTypestateTD

from tests.helpers import figure1_program


# -- validation ---------------------------------------------------------------------
def test_unknown_engine_lists_choices():
    with pytest.raises(ValueError) as err:
        AnalysisConfig(engine="sideways")
    message = str(err.value)
    for name in engine_names():
        assert name in message


def test_unknown_domain_lists_choices():
    with pytest.raises(ValueError) as err:
        AnalysisConfig(domain="nope")
    message = str(err.value)
    for name in domain_names():
        assert name in message


def test_unknown_scheduler_lists_choices():
    # The config and the engine read one constant, so both refuse any
    # name outside the two pop orders, listing them.
    assert TopDownEngine.POP_ORDERS == ("lifo", "fifo")
    for name in ("scc-topo", "random"):
        with pytest.raises(ValueError) as err:
            AnalysisConfig(scheduler=name)
        assert "expected one of lifo, fifo" in str(err.value)
        with pytest.raises(ValueError) as err:
            TopDownEngine(
                figure1_program(), SimpleTypestateTD(FILE_PROPERTY), scheduler=name
            )
        assert "expected one of lifo, fifo" in str(err.value)


def test_registry_get_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown engine"):
        ENGINES.get("made-up")
    with pytest.raises(ValueError, match="unknown domain"):
        DOMAINS.get("made-up")
    # A domain option its builder does not take is refused naming the
    # domain and the options it does take, not a builder TypeError.
    for domain, options, message in (
        ("interval", {"prop": FILE_PROPERTY},
         r"'interval' domain takes no option\(s\) \['prop'\]; "
         r"its options are \['tracked_sites'\]"),
        ("killgen", {"bogus": 1},
         r"'killgen' domain takes no option\(s\) \['bogus'\]; "
         r"its options are \['spec'\]"),
    ):
        with pytest.raises(ValueError, match=message):
            analysis_session().run(
                figure1_program(),
                AnalysisConfig(engine="td", domain=domain),
                **options,
            )


@pytest.mark.parametrize("kwargs", [{"k": 0}, {"theta": 0}])
def test_threshold_validation(kwargs):
    with pytest.raises(ValueError):
        AnalysisConfig(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [
        ("k", 2.5),
        ("k", True),
        ("theta", "1"),
        ("bu_triggers", 1),
        ("scheduler", None),
        ("widening_delay", 1.0),
    ],
)
def test_identity_fields_are_type_checked(field, value):
    # An ill-typed identity value is refused naming the field; it never
    # coerces into a look-alike (k=True is not k=1).
    with pytest.raises(TypeError, match=f"config field '{field}'"):
        AnalysisConfig(**{field: value})


def test_preload_rejected_for_bu():
    with pytest.raises(ValueError, match="warm starts"):
        AnalysisConfig(engine="bu", preload=object())


def test_alias_normalization():
    assert AnalysisConfig(domain="full").domain == "typestate-full"
    assert AnalysisConfig(domain="simple").domain == "typestate-simple"
    # Equal configs compare equal however the domain was spelled.
    assert AnalysisConfig(domain="full") == AnalysisConfig(domain="typestate-full")


def test_replace_revalidates():
    config = AnalysisConfig()
    with pytest.raises(ValueError):
        config.replace(engine="nope")
    assert config.replace(k=7).k == 7


# -- canonical form -----------------------------------------------------------------
def test_canonical_dict_normalizes_thresholds():
    # td ignores k/theta: whatever it carried, the identity is the same.
    assert (
        AnalysisConfig(engine="td", k=9, theta=3).canonical_dict()
        == AnalysisConfig(engine="td").canonical_dict()
    )
    swift = AnalysisConfig(engine="swift", k=9).canonical_dict()
    assert swift["k"] == 9 and swift["theta"] == 1


def test_canonical_dict_excludes_runtime_fields():
    base = AnalysisConfig()
    loaded = AnalysisConfig(budget=Budget(max_work=1), sink=object())
    assert base.canonical_dict() == loaded.canonical_dict()


def test_canonical_dict_contains_identity_fields():
    d = AnalysisConfig(scheduler="fifo", tracked_sites={"h2", "h1"}).canonical_dict()
    assert d["tracked_sites"] == ["h1", "h2"]
    assert d["flags"]["scheduler"] == "fifo"
    assert set(d) == {
        "engine",
        "domain",
        "k",
        "theta",
        "bu_triggers",
        "tracked_sites",
        "flags",
    }


# -- experiment rows ----------------------------------------------------------------
def test_experiment_rows_carry_wall_caps():
    from repro.experiments.harness import experiment_config

    bu = experiment_config("bu", budget_work=10)
    assert bu.budget.max_seconds == 45.0
    assert bu.budget.max_work == 10
    for engine in ("td", "swift"):
        config = experiment_config(engine, budget_work=10)
        assert config.budget.max_seconds == 600.0
        assert config.domain == "typestate-full"


def test_run_engine_refuses_options_the_engine_lacks():
    from repro.bench import load_benchmark
    from repro.experiments.harness import experiment_config, run_engine

    with pytest.raises(TypeError):
        experiment_config("swift", frobnicate=True)
    # SWIFT's experiment hooks are engine options, never config fields,
    # and only the SWIFT runner takes them.
    with pytest.raises(TypeError, match="refresh_existing"):
        run_engine(
            load_benchmark("jpat-p"), "td", engine_options={"refresh_existing": True}
        )
    with pytest.raises(TypeError, match="'k'"):
        run_engine(load_benchmark("jpat-p"), "swift", engine_options={"k": 3})
    fields = {f.name for f in dataclasses.fields(AnalysisConfig)}
    assert not fields & {"refresh_existing", "postpone_unseen", "pruner_factory"}


def test_run_engine_rejects_unknown_kwargs():
    from repro.bench import load_benchmark
    from repro.experiments.harness import run_engine

    with pytest.raises(TypeError):
        run_engine(load_benchmark("jpat-p"), "swift", frobnicate=True)


# -- every engine x domain pair runs ------------------------------------------------
@pytest.mark.parametrize("engine", engine_names())
@pytest.mark.parametrize("domain", domain_names())
def test_every_pair_instantiates_and_runs(engine, domain):
    program = figure1_program()
    config = AnalysisConfig(engine=engine, domain=domain, k=2, theta=1)
    options = {"prop": FILE_PROPERTY} if domain.startswith("typestate-") else {}
    outcome = analysis_session().run(program, config, **options)
    assert not outcome.timed_out
    assert outcome.metrics.total_work > 0
    assert outcome.engine == engine and outcome.domain == config.domain


@pytest.mark.parametrize("domain", domain_names())
@pytest.mark.parametrize("scheduler", TopDownEngine.POP_ORDERS)
def test_findings_coincide_across_engines(scheduler, domain):
    """Per registered domain and pop order, every engine reports what TD
    under ``lifo`` does: error sites on the type-state domains (pure BU
    only knows main's exit), exit facts on the fact domains, and on the
    value domains also for the shape whose naive iteration diverges."""
    subjects = [figure1_program()]
    if not AnalysisConfig(domain=domain).domain_spec.is_finite:
        subjects.append(loop_nest(4, seed=19))
    typestate = domain.startswith("typestate-")
    options = {"prop": FILE_PROPERTY} if typestate else {}

    def findings(program, engine, order):
        config = AnalysisConfig(
            engine=engine, domain=domain, k=2, theta=1, scheduler=order,
            budget=Budget(max_work=500_000),
        )
        outcome = analysis_session().run(program, config, **options)
        assert not outcome.timed_out, (engine, order)
        if typestate:
            return frozenset(site for (_, site) in outcome.findings)
        return outcome.findings

    for program in subjects:
        want = findings(program, "td", "lifo")
        for engine in engine_names():
            assert findings(program, engine, scheduler) == want, engine
