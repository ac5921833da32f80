"""Type-state verification client.

Runs one of the engines (TD, BU, SWIFT) over a program for a given
type-state property and reports its *errors*: program points where an
abstract object may be in the ``error`` type-state.  The type-state
domains are built, and their errors read, by the domain registry
(:mod:`repro.framework.registry`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.framework.config import AnalysisConfig, make_config
from repro.framework.session import analysis_session
from repro.ir.cfg import ProgramPoint
from repro.ir.program import Program
from repro.typestate.dfa import TypestateProperty


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


#: The typed questions a demand query can ask, one per answer shape of
#: :func:`encode_answer`.  They live here, not in :mod:`repro.query`,
#: so the CLI builds its parser without importing the query engine.
QUERY_KINDS = ("errors", "summaries", "entries")

#: The precision modes a query can run at: ``"td"`` pins the cone to
#: reference (top-down) precision; ``"swift"`` leaves BU triggers live
#: inside the cone (the engine's own hybrid verdict).
QUERY_PRECISIONS = ("td", "swift")


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
