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

from repro.framework.config import AnalysisConfig, make_config
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

    @classmethod
    def of(cls, prop: TypestateProperty, config: AnalysisConfig, outcome):
        """The report of one finished session run."""
        return cls(
            prop.name,
            config.engine,
            outcome.findings,
            outcome.td_summaries,
            outcome.bu_summaries,
            outcome.timed_out,
            outcome.result,
        )


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
    config: Optional[AnalysisConfig] = None,
    *,
    oracle=None,
    **fields,
) -> TypestateReport:
    """Verify ``prop`` over ``program`` with the chosen engine.

    A thin wrapper over :class:`repro.framework.session.AnalysisSession`.
    The run is ``config``, or the :class:`AnalysisConfig` built from
    keyword ``fields`` (``engine=``, ``domain=``, ``k=``, ``budget=``,
    ``sink=``, ``preload=``, ...; the domain defaults to ``simple``),
    folded by :func:`~repro.framework.config.make_config` (see
    :class:`AnalysisConfig` for what each field steers).  ``oracle`` is
    an optional may-alias oracle for the full domain.
    """
    config = make_config(config, {"domain": "simple"}, **fields)
    if not config.domain.startswith("typestate-"):
        raise ValueError(
            f"run_typestate needs a type-state domain, not {config.domain!r} "
            "(use AnalysisSession directly for the other domains)"
        )
    outcome = analysis_session().run(program, config, prop=prop, oracle=oracle)
    return TypestateReport.of(prop, config, outcome)


def encode_answer(kind: str, answer) -> list:
    """An answer as the strings it prints, in print order: ``[point,
    site]`` pairs for errors (a :attr:`TypestateReport.errors` set, or
    a demand query's answer), ``[entry, exit]`` pairs for summaries,
    state strings for entries.  This is also the service's JSON form.
    Summaries and entries sort by their printed text: a state's
    ``repr`` (inside a tuple's ``str``) shows frozensets in
    hash-seed-dependent order."""
    if kind == "errors":
        return [[str(point), site] for point, site in sorted(answer, key=str)]
    if kind == "summaries":
        return sorted([str(entry), str(exit_state)] for entry, exit_state in answer)
    return sorted(str(state) for state in answer)
