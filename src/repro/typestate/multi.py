"""Verify several type-state properties over one program.

The paper's evaluation checks type-state properties drawn from a
standard set (File, Iterator, Connection, …); a practical deployment
runs one analysis per property, restricted to the allocation sites of
the property's class.  This module provides that driver:

* site classification — which allocation sites belong to which
  property — is supplied by the caller (a frontend knows the class of
  each ``new``; for IR-level programs a heuristic on the site name is
  available);
* each property runs as an independent SWIFT (or TD/BU) instance, so a
  blow-up in one property cannot poison another;
* results aggregate into a single :class:`MultiPropertyReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional

from repro.framework.config import AnalysisConfig, make_config
from repro.ir.program import Program
from repro.typestate.client import TypestateReport, run_typestate
from repro.typestate.dfa import TypestateProperty
from repro.typestate.properties import all_properties


@dataclass
class MultiPropertyReport:
    """Aggregated outcome of a multi-property verification run."""

    reports: Dict[str, TypestateReport]

    @property
    def total_errors(self) -> int:
        return sum(len(r.errors) for r in self.reports.values())

    @property
    def violated_properties(self) -> FrozenSet[str]:
        return frozenset(name for name, r in self.reports.items() if r.errors)

    @property
    def timed_out_properties(self) -> FrozenSet[str]:
        return frozenset(name for name, r in self.reports.items() if r.timed_out)

    def report(self, prop_name: str) -> TypestateReport:
        return self.reports[prop_name]

    def summary_lines(self) -> List[str]:
        lines = []
        for name in sorted(self.reports):
            r = self.reports[name]
            status = "timeout" if r.timed_out else (f"{len(r.errors)} error(s)" if r.errors else "ok")
            lines.append(f"{name}: {status}")
        return lines


def classify_sites_by_method_usage(
    program: Program, properties: Iterable[TypestateProperty]
) -> Dict[str, FrozenSet[str]]:
    """Heuristic site classification for IR-level programs.

    A site belongs to a property when some variable that may point to
    it (per Andersen points-to) receives a call to one of the
    property's tracked methods.  A frontend with class information
    should supply its own mapping instead.
    """
    from repro.alias import AndersenPointsTo
    from repro.ir.commands import Invoke

    points_to = AndersenPointsTo(program).solve()
    invoked_on_site: Dict[str, set] = {}
    for prim in program.primitives():
        if isinstance(prim, Invoke):
            for site in points_to.of_var(prim.receiver):
                invoked_on_site.setdefault(site, set()).add(prim.method)
    out: Dict[str, FrozenSet[str]] = {}
    for prop in properties:
        sites = frozenset(
            site
            for site, methods in invoked_on_site.items()
            if methods & prop.methods
        )
        out[prop.name] = sites
    return out


def run_multi_property(
    program: Program,
    properties: Optional[Iterable[TypestateProperty]] = None,
    sites_by_property: Optional[Mapping[str, FrozenSet[str]]] = None,
    config: Optional[AnalysisConfig] = None,
    **fields,
) -> MultiPropertyReport:
    """Run one analysis per property and aggregate the reports.

    Every property runs under ``config`` (or the config folded from
    keyword ``fields``, the domain defaulting to ``full``), restricted
    to that property's sites.  Properties with no candidate sites are
    skipped (their report is omitted) — running an analysis that can
    never fire wastes time.
    """
    config = make_config(config, {"domain": "full"}, **fields)
    props = list(properties) if properties is not None else all_properties()
    if sites_by_property is None:
        sites_by_property = classify_sites_by_method_usage(program, props)
    reports: Dict[str, TypestateReport] = {}
    for prop in props:
        sites = sites_by_property.get(prop.name, frozenset())
        if not sites:
            continue
        reports[prop.name] = run_typestate(
            program, prop, config.replace(tracked_sites=sites)
        )
    return MultiPropertyReport(reports)
