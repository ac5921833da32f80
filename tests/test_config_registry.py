"""``AnalysisConfig`` validation, the registries, and the session pipeline.

Covers the configuration core's contracts: unknown names raise listing
the registered choices, aliases normalize, the canonical dict captures
exactly the identity fields, the experiment wall caps live on the
engine specs, and every registered engine × domain pair actually runs a
smoke program through ``AnalysisSession`` with engine-independent
findings.
"""

import pytest

from repro.framework.config import AnalysisConfig
from repro.framework.metrics import Budget
from repro.framework.registry import (
    BU_WALL_CAP_SECONDS,
    DEFAULT_WALL_CAP_SECONDS,
    DOMAINS,
    ENGINES,
    domain_names,
    engine_names,
)
from repro.framework.scheduling import scheduler_names
from repro.framework.session import analysis_session
from repro.typestate.properties import FILE_PROPERTY

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
    with pytest.raises(ValueError) as err:
        AnalysisConfig(scheduler="random")
    message = str(err.value)
    assert "lifo" in message and "fifo" in message and "callee-depth" in message


def test_registry_get_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown engine"):
        ENGINES.get("made-up")
    with pytest.raises(ValueError, match="unknown domain"):
        DOMAINS.get("made-up")


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


# -- experiment configs -------------------------------------------------------------
def test_for_experiment_wall_caps():
    bu = AnalysisConfig.for_experiment("bu", budget_work=10)
    assert bu.budget.max_seconds == BU_WALL_CAP_SECONDS
    for engine in ("td", "swift"):
        config = AnalysisConfig.for_experiment(engine, budget_work=10)
        assert config.budget.max_seconds == DEFAULT_WALL_CAP_SECONDS
        assert config.domain == "typestate-full"


def test_for_experiment_rejects_unknown_overrides():
    with pytest.raises(TypeError):
        AnalysisConfig.for_experiment("swift", frobnicate=True)


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
@pytest.mark.parametrize("scheduler", scheduler_names())
def test_findings_coincide_across_engines(scheduler, domain):
    """Per domain and worklist policy, every engine reports the same thing.

    Type-state findings carry program points, and a pure bottom-up run
    only knows main's exit — so type-state agreement is on error
    *sites*; the fact domains agree on the exit facts exactly.
    """
    program = figure1_program()
    options = {"prop": FILE_PROPERTY} if domain.startswith("typestate-") else {}
    per_engine = {}
    for engine in engine_names():
        config = AnalysisConfig(
            engine=engine, domain=domain, k=2, theta=1, scheduler=scheduler
        )
        outcome = analysis_session().run(program, config, **options)
        if domain.startswith("typestate-"):
            per_engine[engine] = frozenset(site for (_, site) in outcome.findings)
        else:
            per_engine[engine] = outcome.findings
    assert len(set(per_engine.values())) == 1, per_engine
