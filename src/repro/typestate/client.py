"""Type-state verification client.

Runs one of the engines (TD, BU, SWIFT) over a program for a given
type-state property and extracts the *error reports*: program points
where an abstract object may be in the ``error`` type-state.  The
bootstrap pseudo-object is excluded (its type-state is meaningless;
see :mod:`repro.typestate.states`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Set, Tuple

from repro.framework.config import AnalysisConfig
from repro.framework.metrics import Budget
from repro.framework.session import analysis_session
from repro.framework.topdown import TopDownResult
from repro.ir.cfg import ProgramPoint
from repro.ir.program import Program
from repro.typestate.bu_analysis import SimpleTypestateBU
from repro.typestate.dfa import ERROR, TypestateProperty
from repro.typestate.states import BOOTSTRAP_SITE, bootstrap_state
from repro.typestate.td_analysis import SimpleTypestateTD


@dataclass
class TypestateReport:
    """Outcome of a type-state verification run."""

    property_name: str
    engine: str
    errors: FrozenSet[Tuple[ProgramPoint, str]]  # (point, allocation site)
    td_summaries: int
    bu_summaries: int
    timed_out: bool
    result: object = field(repr=False, default=None)

    @property
    def error_sites(self) -> FrozenSet[str]:
        return frozenset(site for (_, site) in self.errors)


def find_errors(result: TopDownResult) -> FrozenSet[Tuple[ProgramPoint, str]]:
    """All (program point, allocation site) pairs with a possible error state."""
    out: Set[Tuple[ProgramPoint, str]] = set()
    for point, pairs in result.td.items():
        for (_, sigma) in pairs:
            if sigma.state == ERROR and sigma.site != BOOTSTRAP_SITE:
                out.add((point, sigma.site))
    return frozenset(out)


def make_analyses(
    program: Program,
    prop: TypestateProperty,
    domain: str = "simple",
    tracked_sites: Optional[FrozenSet[str]] = None,
    oracle=None,
):
    """Build the (td, bu, initial-state) triple for a domain.

    ``domain`` is ``"simple"`` (Figures 2-3), ``"full"`` (the
    four-component analysis of the evaluation; a may-alias oracle is
    derived from an Andersen points-to run when not supplied), or
    ``"interval-typestate"`` (the reduced product with interval
    environments — infinite height, runs the engines in value mode).
    """
    if domain == "interval-typestate":
        from repro.numeric import product_analyses

        return product_analyses(prop, tracked_sites)
    if domain == "simple":
        return (
            SimpleTypestateTD(prop, tracked_sites),
            SimpleTypestateBU(prop, tracked_sites),
            bootstrap_state(prop),
        )
    if domain == "full":
        from repro.typestate.full import (
            FullTypestateBU,
            FullTypestateTD,
            full_bootstrap_state,
        )

        if oracle is None:
            from repro.alias import points_to_oracle

            oracle = points_to_oracle(program)
        variables = program.variables()
        return (
            FullTypestateTD(prop, oracle, tracked_sites, variables),
            FullTypestateBU(prop, oracle, tracked_sites, variables),
            full_bootstrap_state(prop),
        )
    raise ValueError(
        f"unknown domain {domain!r} (expected simple, full, or "
        "interval-typestate)"
    )


def run_typestate(
    program: Program,
    prop: TypestateProperty,
    engine: str = "swift",
    k: int = 5,
    theta: int = 1,
    budget: Optional[Budget] = None,
    tracked_sites: Optional[FrozenSet[str]] = None,
    domain: str = "simple",
    oracle=None,
    enable_caches: bool = True,
    indexed_summaries: bool = True,
    sink=None,
    preload=None,
    scheduler: Optional[str] = None,
    widening_delay: int = 2,
    descending_iters: int = 0,
) -> TypestateReport:
    """Verify ``prop`` over ``program`` with the chosen engine.

    A thin wrapper over :class:`repro.framework.session.AnalysisSession`
    — the keywords here are exactly the fields of
    :class:`repro.framework.config.AnalysisConfig` plus the type-state
    domain options (``prop``, ``tracked_sites``, ``oracle``).  Engines
    are registry names (``td``, ``bu``, ``swift``);
    domains are the type-state ones (``simple``/``full``).
    ``enable_caches`` and ``indexed_summaries`` toggle the hot-path
    optimizations (see :mod:`repro.framework.caching`); neither affects
    results or the deterministic work counters, and the same rule holds
    for ``scheduler`` (worklist policy; results identical, counters may
    differ from the default).  ``sink`` is an optional
    :class:`repro.framework.tracing.TraceSink` receiving the engine's
    analysis events (default: none, zero overhead).  ``preload`` is an
    optional :class:`repro.incremental.invalidate.WarmStart` of
    fingerprint-validated stored summaries (not supported by ``bu``).
    ``widening_delay`` and ``descending_iters`` steer
    infinite-height domains only (DESIGN §14).
    """
    config = AnalysisConfig(
        engine=engine,
        domain=domain,
        k=k,
        theta=theta,
        budget=budget,
        tracked_sites=tracked_sites,
        enable_caches=enable_caches,
        indexed_summaries=indexed_summaries,
        sink=sink,
        preload=preload,
        scheduler=scheduler if scheduler is not None else "lifo",
        widening_delay=widening_delay,
        descending_iters=descending_iters,
    )
    if not config.domain.startswith("typestate-"):
        raise ValueError(
            f"run_typestate needs a type-state domain, not {domain!r} "
            "(use AnalysisSession directly for the other domains)"
        )
    outcome = analysis_session().run(program, config, prop=prop, oracle=oracle)
    return TypestateReport(
        prop.name,
        config.engine,
        outcome.findings,
        outcome.td_summaries,
        outcome.bu_summaries,
        outcome.timed_out,
        outcome.result,
    )
