"""Tests for the type-state verification client (repro.typestate.client)."""

import pytest

from repro.framework.config import make_config
from repro.framework.metrics import Budget
from repro.framework.registry import DOMAINS
from repro.framework.session import analysis_session
from repro.ir.builder import ProgramBuilder
from repro.typestate.client import run_typestate
from repro.typestate.dfa import ERROR
from repro.typestate.properties import FILE_PROPERTY, ITERATOR_PROPERTY

from tests.helpers import figure1_program


def _double_open_program():
    b = ProgramBuilder()
    with b.proc("main") as p:
        p.new("v", "h1").assign("f", "v")
        p.invoke("f", "open").invoke("f", "open")
    return b.build()


@pytest.mark.parametrize("engine", ["td", "swift", "bu"])
@pytest.mark.parametrize("domain", ["simple", "full"])
def test_all_engines_and_domains_run(engine, domain):
    report = run_typestate(
        figure1_program(), FILE_PROPERTY, engine=engine, domain=domain, k=2, theta=2
    )
    assert report.engine == engine
    assert report.property_name == "File"
    assert not report.timed_out


@pytest.mark.parametrize("engine", ["td", "swift", "bu"])
def test_double_open_detected_by_every_engine(engine):
    report = run_typestate(
        _double_open_program(), FILE_PROPERTY, engine=engine, domain="full"
    )
    assert report.error_sites == frozenset({"h1"})


def test_unknown_engine_and_domain_rejected():
    program = figure1_program()
    with pytest.raises(ValueError):
        run_typestate(program, FILE_PROPERTY, engine="sideways")
    # An unknown domain is refused by the registry, whichever way it is
    # asked for, with the registered domains listed.
    for ask in (
        lambda: run_typestate(program, FILE_PROPERTY, domain="nope"),
        lambda: DOMAINS.get("nope"),
    ):
        with pytest.raises(ValueError) as err:
            ask()
        assert f"registered: {', '.join(DOMAINS.names())}" in str(err.value)


def test_find_errors_excludes_bootstrap():
    from repro.framework.topdown import TopDownEngine

    # In the simple domain the bootstrap object reaches the error state
    # on every tracked call, but must not be reported.
    program = figure1_program()
    instance = analysis_session().build_domain(
        program, make_config(domain="simple"), prop=FILE_PROPERTY
    )
    result = TopDownEngine(program, instance.td_analysis).run(
        instance.initial_states
    )
    errors = instance.findings_from_tables(result)
    assert all(site != "<boot>" for (_, site) in errors)


def test_budget_produces_timeout_report():
    report = run_typestate(
        figure1_program(),
        FILE_PROPERTY,
        engine="td",
        domain="full",
        budget=Budget(max_work=3),
    )
    assert report.timed_out


def test_different_property_is_independent():
    """The Iterator property does not track open/close, so the File
    program is trivially clean under it."""
    report = run_typestate(
        _double_open_program(), ITERATOR_PROPERTY, engine="td", domain="full"
    )
    assert report.errors == frozenset()


def test_tracked_sites_filter_full_domain():
    b = ProgramBuilder()
    with b.proc("main") as p:
        p.new("v", "h1").assign("f", "v")
        p.invoke("f", "open").invoke("f", "open")
        p.new("w", "h2").assign("g", "w")
        p.invoke("g", "open").invoke("g", "open")
    program = b.build()
    report = run_typestate(
        program,
        FILE_PROPERTY,
        engine="td",
        domain="full",
        tracked_sites=frozenset({"h2"}),
    )
    assert report.error_sites == frozenset({"h2"})
