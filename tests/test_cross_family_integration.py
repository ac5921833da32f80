"""Integration: all three analysis families over one generated benchmark.

The framework's promise is that any C1–C3-satisfying pair plugs into
SWIFT.  This exercises type-state (full), kill/gen (reaching defs) and
copy propagation over the same suite benchmark, asserting equivalence
with the conventional top-down analysis for each.
"""

import pytest

from repro.bench import load_benchmark
from repro.copyprop import copyprop_pair
from repro.framework.config import AnalysisConfig
from repro.framework.session import analysis_session
from repro.framework.swift import SwiftEngine
from repro.framework.topdown import TopDownEngine
from repro.killgen import LAMBDA, InitializedVarsSpec, ReachingDefsSpec, synthesize
from repro.typestate.properties import FILE_PROPERTY

BENCHMARK = "toba-s"


@pytest.fixture(scope="module")
def program():
    return load_benchmark(BENCHMARK).program


def test_typestate_family(program):
    instance = analysis_session().build_domain(
        program, AnalysisConfig(domain="full"), prop=FILE_PROPERTY
    )
    td_analysis, bu_analysis = instance.td_analysis, instance.bu_analysis
    td = TopDownEngine(program, td_analysis).run(instance.initial_states)
    swift = SwiftEngine(program, td_analysis, bu_analysis, k=5, theta=1).run(
        instance.initial_states
    )
    assert swift.exit_states() == td.exit_states()
    assert swift.total_summaries() < td.total_summaries()
    assert swift.bu  # summaries were actually computed


@pytest.mark.parametrize("spec_cls", [ReachingDefsSpec, InitializedVarsSpec])
def test_killgen_family(program, spec_cls):
    spec = spec_cls(program) if spec_cls is ReachingDefsSpec else spec_cls()
    td_analysis, bu_analysis = synthesize(spec)
    td = TopDownEngine(program, td_analysis).run([LAMBDA])
    swift = SwiftEngine(program, td_analysis, bu_analysis, k=5, theta=3).run([LAMBDA])
    assert swift.exit_states() == td.exit_states()


def test_copyprop_family(program):
    td_analysis, bu_analysis = copyprop_pair(program)
    td = TopDownEngine(program, td_analysis).run([LAMBDA])
    swift = SwiftEngine(program, td_analysis, bu_analysis, k=5, theta=1).run([LAMBDA])
    assert swift.exit_states() == td.exit_states()
    # Copy propagation never splits: one case per summarized procedure.
    for proc, summary in swift.bu.items():
        assert summary.case_count() <= 1, proc


def test_copyprop_resource_facts_flow_to_hubs(program):
    """The resource registers' allocation sites reach the hubs via
    arg0 — the cross-procedure copy chain works end to end."""
    td_analysis, _ = copyprop_pair(program)
    result = TopDownEngine(program, td_analysis).run([LAMBDA])
    hub_entry = result.cfgs.entry("lib_hub0")
    facts = {f for f in result.states_at(hub_entry) if f is not LAMBDA}
    arg0_sites = {site for (var, site) in facts if var == "arg0"}
    assert any(site.startswith("res_site") for site in arg0_sites)
