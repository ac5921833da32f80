"""SCC condensation of the call graph.

The condensation (iterative Tarjan, :mod:`repro.callgraph.scc`) orders
components both ways: reverse-topological wavefronts for parallel
bottom-up summarization, and the topological (callers-first) order.
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
    ranks = cond.ranks()
    assert ranks["helper"] < ranks["left"] < ranks["main"]
    assert ranks["helper"] < ranks["right"] < ranks["main"]
    assert cond.topological()[0] == ("main",)
    assert cond.reverse_topological()[0] == ("helper",)


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


def test_condensation_is_deterministic():
    first = Condensation(diamond_program())
    second = Condensation(diamond_program())
    assert first.sccs == second.sccs
    assert first.ranks() == second.ranks()


# -- wavefronts --------------------------------------------------------------------
def test_wavefronts_respect_dependencies():
    cond = condensation(diamond_program())
    waves = cond.wavefronts()
    level = {
        proc: i
        for i, wave in enumerate(waves)
        for component in wave
        for proc in component
    }
    program = diamond_program()
    for proc in program:
        for callee in program.callees(proc):
            if cond.scc_index(callee) != cond.scc_index(proc):
                assert level[callee] < level[proc]
    # helper alone first; left/right are independent and share a wave.
    assert waves[0] == [("helper",)]
    assert sorted(waves[1]) == [("left",), ("right",)]
    assert waves[2] == [("main",)]


def test_wavefronts_restricted_to_target_set():
    cond = condensation(diamond_program())
    waves = cond.wavefronts({"left", "right"})
    # Excluded dependencies (helper) count as already satisfied, so
    # both components are ready in wave 0.
    assert len(waves) == 1
    assert sorted(waves[0]) == [("left",), ("right",)]
    assert cond.wavefronts(set()) == []


def test_wavefronts_keep_scc_members_together():
    waves = condensation(mutual_recursion_program()).wavefronts()
    components = [c for wave in waves for c in wave]
    assert ("ping", "pong") in components

