"""SCC condensation of the call graph.

The condensation (iterative Tarjan, :mod:`repro.callgraph.scc`) numbers
components in reverse-topological order (callee SCCs first) and answers
the membership, edge and recursion questions the query planner, the
slicer and value-mode TD ask.
"""

import gc
import weakref

from repro.callgraph.scc import Condensation, condensation, tarjan_sccs
from repro.incremental.fingerprint import program_fingerprints
from repro.ir.builder import ProgramBuilder
from repro.ir.cfg import program_cfgs
from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from repro.service.daemon import program_digest

from tests.helpers import diamond_program, figure1_program, recursive_program


def mutual_recursion_program():
    b = ProgramBuilder()
    with b.proc("main") as p:
        p.call("ping").call("tail")
    with b.proc("ping") as p:
        with p.choose() as c:
            with c.branch() as stop:
                stop.invoke("f", "open")
            with c.branch() as go:
                go.call("pong")
    with b.proc("pong") as p:
        with p.choose() as c:
            with c.branch() as stop:
                stop.invoke("f", "close")
            with c.branch() as go:
                go.call("ping")
    with b.proc("tail") as p:
        p.invoke("f", "open")
    return b.build()


# -- tarjan ------------------------------------------------------------------------
def test_tarjan_emits_reverse_topological_order():
    neighbors = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}
    sccs = tarjan_sccs(neighbors, ["a"])
    assert set(sccs) == {("a",), ("b",), ("c",), ("d",)}
    pos = {comp: i for i, comp in enumerate(sccs)}
    # Every callee component is emitted before its caller.
    assert pos[("d",)] < pos[("b",)] < pos[("a",)]
    assert pos[("d",)] < pos[("c",)] < pos[("a",)]


def test_tarjan_groups_cycles_into_one_component():
    neighbors = {"a": ["b"], "b": ["c"], "c": ["a", "d"], "d": []}
    sccs = tarjan_sccs(neighbors, ["a"])
    assert sccs == [("d",), ("a", "b", "c")]


def test_tarjan_skips_unreachable_nodes():
    neighbors = {"a": [], "z": []}
    assert tarjan_sccs(neighbors, ["a"]) == [("a",)]


def test_tarjan_deep_chain_does_not_recurse():
    # 50k-deep chain: a recursive Tarjan would blow the stack.
    n = 50_000
    neighbors = {str(i): [str(i + 1)] for i in range(n)}
    neighbors[str(n)] = []
    sccs = tarjan_sccs(neighbors, ["0"])
    assert len(sccs) == n + 1
    assert sccs[0] == (str(n),)
    assert sccs[-1] == ("0",)


# -- condensation ------------------------------------------------------------------
def test_condensation_ranks_callees_below_callers():
    cond = condensation(diamond_program())  # main -> left/right -> helper
    rank = cond.scc_index
    assert rank("helper") < rank("left") < rank("main")
    assert rank("helper") < rank("right") < rank("main")
    assert cond.sccs[0] == ("helper",) and cond.sccs[-1] == ("main",)
    assert cond.callee_sccs(rank("main")) == {rank("left"), rank("right")}


def test_condensation_mutual_recursion_one_component():
    cond = condensation(mutual_recursion_program())
    i = cond.scc_index("ping")
    assert cond.scc_index("pong") == i
    assert cond.members(i) == ("ping", "pong")
    assert cond.is_cyclic(i)
    assert not cond.is_cyclic(cond.scc_index("tail"))


def test_condensation_self_recursion_is_cyclic():
    cond = condensation(recursive_program())
    assert cond.is_cyclic(cond.scc_index("rec"))
    assert not cond.is_cyclic(cond.scc_index("main"))


def test_condensation_memoized_per_program():
    program = figure1_program()
    assert condensation(program) is condensation(program)
    assert condensation(figure1_program()) is not condensation(program)

    # Every per-program memo lives on its program and dies with it:
    # after 50 parse + derive rounds, no program or memo survives.
    text = format_program(program)
    refs = []
    for _ in range(50):
        parsed = parse_program(text)
        cfgs = program_cfgs(parsed)
        cfgs[parsed.main]
        assert program_cfgs(parsed) is cfgs
        fingerprints = program_fingerprints(parsed)
        assert program_fingerprints(parsed) is fingerprints
        with_alias = program_fingerprints(parsed, with_alias=True)
        assert program_digest(parsed) == program_digest(program)
        refs += [
            weakref.ref(obj)
            for obj in (
                parsed, condensation(parsed), cfgs, fingerprints, with_alias
            )
        ]
    del parsed, cfgs, fingerprints, with_alias
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []

    # They die by reference count alone: with the collector paused and
    # no collection run, a program dies once its last reference goes —
    # after its IR walks and memos — and so does a finished engine,
    # value mode included, with its tables.
    from repro.bench.workloads import loop_nest
    from repro.framework.bottomup import BottomUpEngine
    from repro.framework.config import AnalysisConfig
    from repro.framework.pruning import NoPruner
    from repro.framework.session import analysis_session
    from repro.framework.swift import SwiftEngine
    from repro.framework.topdown import TopDownEngine
    from repro.typestate.properties import FILE_PROPERTY

    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = []
        for source in (text, format_program(loop_nest(4, seed=19))):
            parsed = parse_program(source)
            assert sorted(parsed.topological_order()) == sorted(parsed)
            parsed.is_recursive()
            program_cfgs(parsed)[parsed.main]
            condensation(parsed)
            program_fingerprints(parsed, with_alias=True)
            refs.append(weakref.ref(parsed))
            del parsed
        assert [ref for ref in refs if ref() is not None] == []

        program = loop_nest(4, seed=19)
        instance = analysis_session().build_domain(
            program, AnalysisConfig(domain="interval-typestate"), prop=FILE_PROPERTY
        )
        td, bu = instance.td_analysis, instance.bu_analysis
        for build in (
            lambda: TopDownEngine(program, td),
            lambda: SwiftEngine(program, td, bu, k=1, theta=1),
            lambda: BottomUpEngine(program, bu, pruner=NoPruner(bu)),
        ):
            engine = build()
            if isinstance(engine, BottomUpEngine):
                result = engine.analyze()
            else:
                assert isinstance(engine, TopDownEngine) and engine._lattice
                result = engine.run(instance.initial_states)
            assert not result.timed_out
            refs = [weakref.ref(engine), weakref.ref(result)]
            del engine, result
            assert [ref for ref in refs if ref() is not None] == []
    finally:
        if enabled:
            gc.enable()


def test_condensation_is_deterministic():
    programs = diamond_program(), diamond_program()
    first, second = (Condensation(program) for program in programs)
    assert first.sccs == second.sccs
    assert [first.scc_index(p) for p in programs[0]] == [
        second.scc_index(p) for p in programs[1]
    ]
