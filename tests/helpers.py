"""Shared test fixtures: small programs and universes.

The running example of the paper (Figure 1) is reproduced here with the
parameter of ``foo`` modelled as the global register ``f`` (the formal
language of Section 3.5 has parameterless procedures; frontends lower
parameter passing to argument registers the same way).
"""

from __future__ import annotations

import itertools
import time
from typing import List

from repro.ir.builder import ProgramBuilder
from repro.ir.commands import Assign, FieldLoad, FieldStore, Invoke, New, Skip
from repro.ir.program import Program
from repro.typestate.dfa import TypestateProperty
from repro.typestate.states import BOOTSTRAP_SITE, AbstractState


def figure1_program() -> Program:
    """The paper's running example (Section 2)."""
    b = ProgramBuilder()
    with b.proc("main") as p:
        p.new("v1", "h1").assign("f", "v1").call("foo")
        p.new("v2", "h2").assign("f", "v2").call("foo")
        p.new("v3", "h3").assign("f", "v3").call("foo")
    with b.proc("foo") as p:
        p.invoke("f", "open").invoke("f", "close")
    return b.build()


def section24_program() -> Program:
    """The two-parameter ``foo`` of Section 2.4 (the pruning challenge)."""
    b = ProgramBuilder()
    with b.proc("main") as p:
        p.new("a", "h")
        p.assign("f", "a").assign("g", "a")
        p.call("foo")
        p.new("b", "h2")
        p.assign("g", "b")
        p.call("foo")
    with b.proc("foo") as p:
        with p.choose() as c:
            with c.branch() as t:
                t.invoke("f", "open").invoke("f", "close")
            with c.branch() as e:
                e.invoke("g", "open")
    return b.build()


def loop_program() -> Program:
    """Allocation and use inside a loop (exercises Star fixpoints)."""
    b = ProgramBuilder()
    with b.proc("main") as p:
        with p.loop() as body:
            body.new("v", "h1").assign("f", "v").call("use")
        p.new("w", "h2").assign("f", "w").call("use")
    with b.proc("use") as p:
        p.invoke("f", "open").invoke("f", "close")
    return b.build()


def recursive_program() -> Program:
    """Direct recursion guarded by non-deterministic choice."""
    b = ProgramBuilder()
    with b.proc("main") as p:
        p.new("v", "h1").assign("f", "v").call("rec")
    with b.proc("rec") as p:
        with p.choose() as c:
            with c.branch() as stop:
                stop.invoke("f", "open")
            with c.branch() as go:
                go.call("rec")
    return b.build()


def diamond_program() -> Program:
    """Two callers sharing one helper with different aliasing patterns."""
    b = ProgramBuilder()
    with b.proc("main") as p:
        p.call("left").call("right")
    with b.proc("left") as p:
        p.new("x", "hL").assign("f", "x").call("helper")
    with b.proc("right") as p:
        p.new("y", "hR").assign("g", "y").call("helper")
    with b.proc("helper") as p:
        p.invoke("f", "open").invoke("f", "close")
    return b.build()


def all_small_programs() -> List[Program]:
    return [
        figure1_program(),
        section24_program(),
        loop_program(),
        recursive_program(),
        diamond_program(),
    ]


def small_state_universe(
    prop: TypestateProperty, sites: List[str], variables: List[str], max_must: int = 2
) -> List[AbstractState]:
    """Every abstract state over small site/variable/typestate universes."""
    states = []
    var_subsets = []
    for size in range(0, max_must + 1):
        var_subsets.extend(itertools.combinations(sorted(variables), size))
    for site in sites + [BOOTSTRAP_SITE]:
        for ts in prop.states:
            for subset in var_subsets:
                states.append(AbstractState(site, ts, frozenset(subset)))
    return states


def all_prims(variables: List[str], sites: List[str], methods: List[str]) -> List:
    """A representative set of primitive commands over small universes."""
    prims = [Skip()]
    for v in variables:
        for h in sites:
            prims.append(New(v, h))
        for w in variables:
            prims.append(Assign(v, w))
            prims.append(FieldLoad(v, w, "fld"))
            prims.append(FieldStore(v, "fld", w))
        for m in methods:
            prims.append(Invoke(v, m))
    return prims


def best_of(rounds: int, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` run ``rounds`` times: its last result and
    its fastest wall-clock time in seconds (the least noisy round)."""
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        times.append(time.perf_counter() - started)
    return result, min(times)


def assert_memo_tables_exact(engine, result) -> None:
    """Check a finished top-down (or SWIFT) run against what its memo
    tables and exit-summary index stand in for: every stored entry is the
    raw operator's result, the index is the linear scan of the exit path
    edges, and every logical operator application went through a table."""
    analysis = engine.analysis
    for cmd, table in engine._transfer_cache._tables.items():
        for sigma, outs in table.items():
            assert outs == analysis.transfer(cmd, sigma), (cmd, sigma)
    assert set(engine._exit_index) <= set(result.program.names())
    for proc in result.program.names():
        scan = {}
        for sigma_in, sigma_out in result.td.get(result.cfgs.exit(proc), ()):
            scan.setdefault(sigma_in, set()).add(sigma_out)
        assert engine._exit_index.get(proc, {}) == scan, proc
    metrics = result.metrics
    assert metrics.transfer_cache_hits + metrics.transfer_cache_misses == (
        metrics.transfers
    )
    bu_analysis = getattr(engine, "bu_analysis", None)
    if bu_analysis is None:
        return
    for (cmd, r), outs in engine._bu_rtransfer_cache._data.items():
        assert outs == bu_analysis.rtransfer(cmd, r), (cmd, r)
    for (r1, r2), outs in engine._bu_rcompose_cache._data.items():
        assert outs == bu_analysis.rcompose(r1, r2), (r1, r2)
    assert metrics.rtransfer_cache_hits + metrics.rtransfer_cache_misses == (
        metrics.rtransfers
    )
    assert metrics.rcompose_cache_hits + metrics.rcompose_cache_misses == (
        metrics.compositions
    )
