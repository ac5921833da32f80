"""Batch demand queries: N targets, one solve per component.

Answering N point queries with N independent :func:`~repro.query.
engine.run_query` calls re-solves every procedure shared between the
targets' cones — on a wide-fanout program, ``main`` (the widest cone
member) is tabulated once *per target*.  :func:`run_query_batch`
removes that duplication without touching the per-target verdicts:
:func:`~repro.query.slice.plan_batch` groups the targets' caller
closures into connected components, and each component with a
non-empty solve cone runs one warm-start solve through the same
:func:`~repro.query.engine.solve_cone` as a point query (which is a
plan of one target), every target reading its verdict out of its
component's finished result.

Per-target answers are therefore byte-identical to per-target
``run_query`` (property-tested and fuzzed), while shared cone work is
solved once — ``BatchOutcome`` carries the per-component counters
(``batch_components``, solve counts, ``frontier_snapshot_hits``,
per-target attribution) that prove it.  Components solve one after
another: any two main-reachable targets share ``main``, so at most one
component of a batch has a non-empty solve cone.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.framework.config import AnalysisConfig
from repro.incremental.driver import WarmCache
from repro.ir.program import Program
from repro.query.engine import BatchOutcome, _answer
from repro.query.slice import TargetSpec
from repro.typestate.dfa import TypestateProperty


def run_query_batch(
    program: Program,
    prop: TypestateProperty,
    store,
    targets: Sequence[TargetSpec],
    kind: str = "errors",
    config: Optional[AnalysisConfig] = None,
    *,
    warm_cache: Optional[WarmCache] = None,
    query_precision: str = "td",
    **fields,
) -> BatchOutcome:
    """Answer a batch of demand queries with one solve per component.

    Takes its configuration as :func:`~repro.query.engine.run_query`
    does; every target's answer is byte-identical to what the
    single-target path returns for it.  Queries never save.
    """
    return _answer(
        program, prop, store, targets, kind, config, warm_cache,
        query_precision, fields,
    )
