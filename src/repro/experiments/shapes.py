"""Shapes exhibit — engines over the large-scale generated shapes.

Races td and swift (the store-capable engines) over every registered
shape (``repro.bench.suite.SHAPE_CONFIGS``: deep recursion, wide
fan-out, diamond sharing, SCC-heavy; 100+ procedures each) and, for
each shape, answers one demand query against a freshly populated
store — the cone-vs-program numbers that motivate query mode (DESIGN
§13).  Run via ``repro-swift experiments shapes``; ``--seed`` on the
``bench`` verb (or ``load_shape(name, seed=...)``) reproduces any
single program byte for byte.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import List

from repro.bench import load_shape, shape_names
from repro.experiments.harness import format_table, map_rows, run_engine
from repro.incremental.driver import analyze_with_store
from repro.incremental.store import SummaryStore
from repro.query import run_query
from repro.typestate.properties import FILE_PROPERTY

ENGINES = ("td", "swift")


@dataclass
class ShapeRow:
    shape: str
    procs: int
    engine: str
    seconds: float
    work: int
    cone: int
    query_work: int
    query_seconds: float

    def cells(self) -> list:
        return [
            self.shape,
            self.procs,
            self.engine,
            f"{self.seconds:.2f}s",
            self.work,
            self.cone,
            self.query_work,
            f"{self.query_seconds * 1000:.1f}ms",
        ]


def _query_target(benchmark) -> str:
    """A deep, small-cone procedure of the shape (deterministic)."""
    program = benchmark.program
    # The lexicographically last non-main leaf-ish name: workers /
    # deepest recursion levels / bottom diamond nodes sort high.
    names = sorted(n for n in program.reachable() if n not in ("main", "init"))
    return names[-1]


def _row(shape_engine, seed=None) -> ShapeRow:
    name, engine = shape_engine
    benchmark = load_shape(name, seed=seed)
    program = benchmark.program
    engine_run = run_engine(benchmark, engine, domain="typestate-simple")
    with tempfile.TemporaryDirectory() as tmp:
        store = SummaryStore(Path(tmp))
        analyze_with_store(
            program, FILE_PROPERTY, store, engine=engine, domain="simple"
        )
        started = time.perf_counter()
        outcome = run_query(
            program, FILE_PROPERTY, store, _query_target(benchmark),
            engine=engine, domain="simple",
        )
        query_seconds = time.perf_counter() - started
    return ShapeRow(
        shape=name,
        procs=len(program),
        engine=engine,
        seconds=engine_run.seconds,
        work=engine_run.work,
        cone=outcome.cone_size,
        query_work=outcome.total_work,
        query_seconds=query_seconds,
    )


def run(seed=None, parallel: int = 0) -> List[ShapeRow]:
    items = [(name, engine) for name in shape_names() for engine in ENGINES]
    return map_rows(partial(_row, seed=seed), items, parallel=parallel)


def render(rows: List[ShapeRow]) -> str:
    return format_table(
        [
            "shape", "procs", "engine", "time", "work",
            "cone", "query work", "query time",
        ],
        [row.cells() for row in rows],
        title="Shapes: whole-program vs one demand query (File, simple)",
    )


def missed_claims(rows: List[ShapeRow]) -> List[str]:
    """Query mode's motivation: on every shape and engine, one demand
    query's cone is smaller than the program."""
    return [
        f"the demand cone is smaller than the program on {row.shape} ({row.engine})"
        for row in rows
        if not row.cone < row.procs
    ]
