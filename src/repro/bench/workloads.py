"""Targeted micro-workloads.

The Table 1 suite exercises the mixed regime of real programs; these
generators isolate single stress axes, for unit-style performance tests
and the scalability study:

* :func:`hub_flood` — one library helper called from ``n`` sites with
  distinct objects: pure summary-reuse stress (the Figure 1 pattern at
  scale);
* :func:`deep_chain` — a call chain of depth ``n``: summary
  *composition* stress;
* :func:`wide_dispatch` — one call site dispatching over ``n`` targets:
  join-width stress;
* :func:`case_bomb` — a chain of ``n`` branching invokes on unaliased
  globals: the bottom-up case explosion in isolation (3ⁿ relations
  unpruned, 1 pruned);
* :func:`scalability_series` — ``hub_flood`` at geometric sizes, for
  plotting analysis work against program size.

The second half of the module holds the *large-scale shapes* — seeded,
parameterized call-graph families (:func:`deep_recursion`,
:func:`wide_fanout`, :func:`diamond_sharing`, :func:`scc_heavy`)
producing 100+ procedure programs for the demand-driven query engine's
benchmarks; ``bench/suite.py`` registers named instances of them
(``shape_names()``) next to the Table 1 suite.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from repro.ir.builder import ProgramBuilder
from repro.ir.program import Program


def hub_flood(n_callers: int, n_resources: Optional[int] = None) -> Program:
    """``n_callers`` workers drive distinct resources through one hub."""
    n_resources = n_resources if n_resources is not None else max(2, n_callers // 4)
    b = ProgramBuilder()
    with b.proc("init") as p:
        for i in range(n_resources):
            p.new(f"r{i}", f"site{i}")
    with b.proc("hub") as p:
        # A realistic helper body (a dozen points): enough work per
        # re-analysis that summary instantiation amortizes.
        p.invoke("arg0", "open")
        for j in range(4):
            p.assign(f"tmp{j % 3}", "arg0")
            p.invoke("arg0", "read" if j % 2 == 0 else "write")
        p.invoke("arg0", "close")
    for i in range(n_callers):
        with b.proc(f"caller{i}") as p:
            p.assign("arg0", f"r{i % n_resources}")
            p.call("hub")
    with b.proc("main") as p:
        p.call("init")
        for i in range(n_callers):
            p.call(f"caller{i}")
    return b.build()


def deep_chain(depth: int) -> Program:
    """A linear call chain: main -> level0 -> ... -> level{depth-1}."""
    if depth < 1:
        raise ValueError("depth must be positive")
    b = ProgramBuilder()
    with b.proc("main") as p:
        p.new("v", "h0").assign("arg0", "v")
        p.call("level0")
    for d in range(depth):
        with b.proc(f"level{d}") as p:
            p.assign(f"tmp{d % 3}", "arg0")
            if d + 1 < depth:
                p.call(f"level{d + 1}")
            else:
                p.invoke("arg0", "open").invoke("arg0", "close")
    return b.build()


def wide_dispatch(width: int) -> Program:
    """One virtual-call-style choice over ``width`` targets."""
    if width < 2:
        raise ValueError("width must be at least 2")
    b = ProgramBuilder()
    for i in range(width):
        with b.proc(f"impl{i}") as p:
            p.invoke("arg0", "open")
            p.invoke("arg0", "read" if i % 2 == 0 else "write")
            p.invoke("arg0", "close")
    with b.proc("main") as p:
        p.new("v", "h0").assign("arg0", "v")
        with p.choose() as c:
            for i in range(width):
                with c.branch() as alt:
                    alt.call(f"impl{i}")
    return b.build()


def case_bomb(length: int) -> Program:
    """``length`` sequential two-way invoke choices on unaliased
    globals: 3^length bottom-up cases without pruning."""
    if length < 1:
        raise ValueError("length must be positive")
    b = ProgramBuilder()
    with b.proc("bomb") as p:
        for j in range(length):
            g = f"g{j}"
            with p.choose() as c:
                with c.branch() as t:
                    t.invoke(g, "read")
                with c.branch() as e:
                    e.invoke(g, "write")
    with b.proc("main") as p:
        p.new("v", "h0").assign("f", "v")
        p.call("bomb")
        p.invoke("f", "open").invoke("f", "close")
    return b.build()


def scalability_series(
    sizes: List[int] = (8, 16, 32, 64, 128),
) -> Iterator[Tuple[int, Program]]:
    """``hub_flood`` instances at geometric caller counts."""
    for size in sizes:
        yield size, hub_flood(size)


# ---------------------------------------------------------------------------
# Large-scale parameterized shapes (demand-driven query workloads)
# ---------------------------------------------------------------------------
# Each shape takes a primary ``size`` knob (the generated program has at
# least ``size`` procedures plus main/init), a ``seed`` steering the
# minor structural choices (aliasing styles, event picks, which levels
# recurse), and an ``n_resources`` pool size.  Generation is a pure
# function of the arguments: the same triple always yields the same
# program, byte for byte under ``format_program`` (tested), which is
# what lets CI, the tests and the benchmarks name their inputs by
# (shape, size, seed) alone.


def _bind_resource(p, resource: str, style: int) -> None:
    """Bind ``resource`` to ``arg0`` in one of three aliasing styles."""
    if style == 0:
        p.assign("arg0", resource)
    elif style == 1:
        p.assign("tmp0", resource).assign("arg0", "tmp0")
    else:
        p.assign("arg0", resource).assign("tmp1", "arg0")


def deep_recursion(
    size: int, seed: int = 0, n_resources: int = 8
) -> Program:
    """A call chain of ``size`` levels where seeded levels self-recurse.

    ``main`` drives every pool resource through ``rec0``; each level
    hands ``arg0`` one step down, a seeded quarter of the levels also
    call themselves (direct recursion — singleton cyclic SCCs for the
    cone tests), and the deepest level runs the protocol.  The cone of
    ``rec{d}`` is the whole prefix ``main, rec0..rec{d}`` — cone size
    scales with target depth while the program stays fixed.
    """
    if size < 1:
        raise ValueError("size must be positive")
    rng = random.Random(seed)
    recursive_levels = frozenset(
        d for d in range(size) if rng.random() < 0.25
    )
    events = [rng.choice(("read", "write")) for _ in range(size)]
    b = ProgramBuilder()
    with b.proc("init") as p:
        for i in range(n_resources):
            p.new(f"r{i}", f"res_site{i}")
    for d in range(size):
        with b.proc(f"rec{d}") as p:
            p.assign(f"tmp{d % 3}", "arg0")
            if d + 1 < size:
                if d in recursive_levels:
                    with p.choose() as c:
                        with c.branch() as t:
                            t.call(f"rec{d + 1}")
                        with c.branch() as e:
                            e.call(f"rec{d}")
                else:
                    p.call(f"rec{d + 1}")
            else:
                p.invoke("arg0", "open")
                p.invoke("arg0", events[d])
                p.invoke("arg0", "close")
    with b.proc("main") as p:
        p.call("init")
        for i in range(n_resources):
            p.assign("arg0", f"r{i}")
            p.call("rec0")
    return b.build()


def wide_fanout(size: int, seed: int = 0, n_resources: int = 8) -> Program:
    """``size`` independent workers fan out from ``main`` into a few
    shared service hubs.

    Each worker binds its own pool resource under a seeded aliasing
    style and calls one of four hubs that run the full protocol; a
    seeded ~15% of workers follow up with a use-after-close, so error
    verdicts differ per worker.  The cone of any single worker is just
    ``{main, worker}`` — the shape where a demand query's advantage
    over whole-program analysis is largest.
    """
    if size < 1:
        raise ValueError("size must be positive")
    rng = random.Random(seed)
    n_hubs = 4
    b = ProgramBuilder()
    with b.proc("init") as p:
        for i in range(n_resources):
            p.new(f"r{i}", f"res_site{i}")
    for j in range(n_hubs):
        with b.proc(f"svc{j}") as p:
            p.invoke("arg0", "open")
            p.invoke("arg0", "read" if j % 2 == 0 else "write")
            p.invoke("arg0", "close")
    for i in range(size):
        with b.proc(f"worker{i}") as p:
            _bind_resource(p, f"r{i % n_resources}", rng.randrange(3))
            p.call(f"svc{rng.randrange(n_hubs)}")
            if rng.random() < 0.15:
                p.invoke("arg0", "read")  # use after close: a local error
    with b.proc("main") as p:
        p.call("init")
        for i in range(size):
            p.call(f"worker{i}")
    return b.build()


def diamond_sharing(
    size: int, seed: int = 0, n_resources: int = 8
) -> Program:
    """A layered DAG where every node is shared by two parents.

    Nodes form an L×W grid (L·W ≥ ``size``); node ``(l, w)`` calls
    ``(l+1, w)`` and ``(l+1, (w+1) mod W)``, so summaries of deep nodes
    are instantiated along exponentially many diamond paths.  The
    bottom layer runs the protocol; a seeded sprinkle of mid-layer
    nodes re-opens after the call, seeding distinct error sites.
    """
    if size < 1:
        raise ValueError("size must be positive")
    rng = random.Random(seed)
    width = max(2, int(round(size ** 0.5)))
    layers = -(-size // width)  # ceil
    b = ProgramBuilder()
    with b.proc("init") as p:
        for i in range(n_resources):
            p.new(f"r{i}", f"res_site{i}")
    for l in range(layers):
        for w in range(width):
            with b.proc(f"d{l}_{w}") as p:
                p.assign(f"tmp{(l + w) % 3}", "arg0")
                if l + 1 < layers:
                    p.call(f"d{l + 1}_{w}")
                    p.call(f"d{l + 1}_{(w + 1) % width}")
                    if rng.random() < 0.1:
                        p.invoke("arg0", "open")  # double open downstream
                else:
                    p.invoke("arg0", "open")
                    p.invoke("arg0", rng.choice(("read", "write")))
                    p.invoke("arg0", "close")
    with b.proc("main") as p:
        p.call("init")
        for w in range(width):
            p.assign("arg0", f"r{w % n_resources}")
            p.call(f"d0_{w}")
    return b.build()


def scc_heavy(size: int, seed: int = 0, n_resources: int = 8) -> Program:
    """A chain of mutually recursive clusters.

    Procedures come in seeded clusters of 2–4 members; each member
    conditionally calls the next member of its cycle (a genuine
    multi-procedure SCC) and each cluster's head calls the next
    cluster's head.  The last cluster runs the protocol.  Cones here
    are unions of whole SCCs — the stress case for condensation-based
    slicing.
    """
    if size < 1:
        raise ValueError("size must be positive")
    rng = random.Random(seed)
    clusters: List[List[str]] = []
    total = 0
    while total < size:
        k = rng.randint(2, 4)
        members = [f"c{len(clusters)}_{j}" for j in range(k)]
        clusters.append(members)
        total += k
    b = ProgramBuilder()
    with b.proc("init") as p:
        for i in range(n_resources):
            p.new(f"r{i}", f"res_site{i}")
    for g, members in enumerate(clusters):
        last = g + 1 == len(clusters)
        for j, name in enumerate(members):
            with b.proc(name) as p:
                p.assign(f"tmp{j % 3}", "arg0")
                with p.choose() as c:
                    with c.branch() as t:
                        t.call(members[(j + 1) % len(members)])
                    with c.branch() as e:
                        e.assign(f"tmp{(j + 1) % 3}", "arg0")
                if j == 0 and not last:
                    p.call(clusters[g + 1][0])
                if last and j == len(members) - 1:
                    p.invoke("arg0", "open")
                    p.invoke("arg0", rng.choice(("read", "write")))
                    p.invoke("arg0", "close")
    with b.proc("main") as p:
        p.call("init")
        for i in range(min(n_resources, 4)):
            p.assign("arg0", f"r{i}")
            p.call(clusters[0][0])
    return b.build()


def loop_nest(size: int, seed: int = 0, n_resources: int = 8) -> Program:
    """``size`` workers running the protocol inside seeded loop nests.

    Each worker opens its resource, then runs a 1–3-deep nest of
    ``Star`` loops whose bodies bump a per-worker counter (``incr``)
    and touch the resource, and closes after the nest; a seeded ~30%
    also call a shared ``tick`` helper that increments recursively (a
    genuine cyclic SCC).  Interval environments at the loop heads
    ascend ``cnt:[0,0], [0,1], [0,2], ...`` — an infinite strictly
    ascending chain, so this is the shape the lattice layer's widening
    termination regression (and the ``numeric-smoke`` CI job) runs on.
    Finite domains see the loops as ordinary ``Star`` commands.
    """
    if size < 1:
        raise ValueError("size must be positive")
    rng = random.Random(seed)
    b = ProgramBuilder()
    with b.proc("init") as p:
        for i in range(n_resources):
            p.new(f"r{i}", f"res_site{i}")
    with b.proc("tick") as p:
        p.invoke("cnt", "incr")
        with p.choose() as c:
            with c.branch() as t:
                t.call("tick")
            with c.branch() as e:
                e.skip()

    def _nest(body, depth: int, event: str) -> None:
        with body.loop() as inner:
            inner.invoke("cnt", "incr")
            inner.invoke("arg0", event)
            if depth > 1:
                _nest(inner, depth - 1, event)

    for i in range(size):
        depth = rng.randint(1, 3)
        event = rng.choice(("read", "write"))
        ticks = rng.random() < 0.3
        with b.proc(f"work{i}") as p:
            p.assign("arg0", f"r{i % n_resources}")
            p.new("cnt", f"cnt_site{i}")
            p.invoke("arg0", "open")
            _nest(p, depth, event)
            if ticks:
                p.call("tick")
            p.invoke("arg0", "close")
    with b.proc("main") as p:
        p.call("init")
        for i in range(size):
            p.call(f"work{i}")
    return b.build()


#: Shape name -> builder, for the generator's ``ShapeConfig``.
SHAPE_BUILDERS = {
    "deep_recursion": deep_recursion,
    "wide_fanout": wide_fanout,
    "diamond_sharing": diamond_sharing,
    "scc_heavy": scc_heavy,
    "loop_nest": loop_nest,
}
