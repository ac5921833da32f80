"""Engine and domain registries — the framework's instantiation table.

The paper presents SWIFT as a *generic* framework parametrized by
``(A, B, k, theta)``; this module is where that genericity becomes a
lookup instead of an if/elif ladder.  Two registries cover the shipped
instantiations:

* :data:`ENGINES` — ``td`` (conventional top-down tabulation), ``bu``
  (conventional bottom-up, no pruning) and ``swift`` (Algorithm 1);
* :data:`DOMAINS` — ``typestate-simple`` (Figures 2–3, alias
  ``simple``), ``typestate-full`` (the evaluation's four-component
  analysis, alias ``full``), ``killgen`` (Section 5.2 synthesis over
  reaching definitions), and ``copyprop`` (substitution relations).

A domain builds a matched ``(A, B, initial states)`` triple for a
program and knows how to read *findings* back out of an engine result
(type-state error sites; exit facts for the dataflow domains), so
:class:`repro.framework.session.AnalysisSession` can drive any
engine × domain pair through one pipeline.  Unknown names raise a
:class:`ValueError` listing the registered choices.

Domain builders import their analysis packages lazily so this module
stays importable from anywhere in the framework without cycles.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Tuple

from repro.framework.bottomup import BottomUpEngine, BottomUpResult
from repro.framework.pruning import NoPruner
from repro.framework.swift import SwiftEngine
from repro.framework.topdown import TopDownEngine, TopDownResult
from repro.ir.cfg import ProgramPoint
from repro.ir.program import Program

#: Wall-clock safety net (seconds) for experiment runs, so a
#: miscalibrated run cannot hang a benchmark session.
DEFAULT_WALL_CAP_SECONDS = 600.0

#: Tighter wall cap for conventional bottom-up runs: on the larger
#: benchmarks each unit of BU work is far more expensive (huge relation
#: sets and predicates), so waiting for the work counter alone would
#: burn minutes per timeout row.  The outcome is the same — those runs
#: exceed the work budget as well, just slowly.
BU_WALL_CAP_SECONDS = 45.0


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------
class DomainInstance:
    """A domain bound to one program: analyses, seeds, result readers."""

    def __init__(self, td_analysis, bu_analysis, initial_states: List) -> None:
        self.td_analysis = td_analysis
        self.bu_analysis = bu_analysis
        self.initial_states = list(initial_states)

    def findings_from_tables(self, result: TopDownResult) -> FrozenSet:
        """Domain findings out of a top-down/SWIFT result (the tables)."""
        raise NotImplementedError

    def findings_from_summary(
        self, result: BottomUpResult, program: Program
    ) -> FrozenSet:
        """Domain findings out of a pure bottom-up result (``main``'s
        summary instantiated on the initial states)."""
        raise NotImplementedError


class _TypestateInstance(DomainInstance):
    """Findings are ``(program point, allocation site)`` error pairs."""

    def __init__(self, prop, td_analysis, bu_analysis, initial_states) -> None:
        super().__init__(td_analysis, bu_analysis, initial_states)
        self.prop = prop

    def findings_from_tables(self, result: TopDownResult) -> FrozenSet:
        from repro.typestate.client import find_errors

        return find_errors(result)

    def findings_from_summary(
        self, result: BottomUpResult, program: Program
    ) -> FrozenSet:
        from repro.typestate.dfa import ERROR
        from repro.typestate.states import BOOTSTRAP_SITE

        # Errors are reported at main's exit: per-point attribution
        # needs the top-down tables, which a pure bottom-up run does
        # not build.
        exit_point = ProgramPoint(program.main, -1)
        return frozenset(
            (exit_point, sigma.site)
            for sigma in result.apply_to(program.main, self.initial_states)
            if sigma.state == ERROR and sigma.site != BOOTSTRAP_SITE
        )


class _FactInstance(DomainInstance):
    """IFDS-style domains (killgen, copyprop): findings are the facts
    arising at ``main``'s exit — the quantity the coincidence theorem
    makes identical across engines."""

    def findings_from_tables(self, result: TopDownResult) -> FrozenSet:
        return result.exit_states()

    def findings_from_summary(
        self, result: BottomUpResult, program: Program
    ) -> FrozenSet:
        return result.apply_to(program.main, self.initial_states)


@dataclass(frozen=True)
class DomainSpec:
    """A registered abstract domain."""

    name: str
    aliases: Tuple[str, ...]
    #: (program, **options) -> DomainInstance
    builder: Callable[..., DomainInstance] = field(compare=False)
    description: str = ""
    #: Finite state/relation universe?  False switches the engines into
    #: value (lattice) mode (DESIGN §14).
    is_finite: bool = True

    def build(self, program: Program, **options) -> DomainInstance:
        """The domain for ``program``; an option the builder does not
        take is refused naming the domain and the options it does."""
        accepted = list(inspect.signature(self.builder).parameters)[1:]
        unknown = sorted(set(options) - set(accepted))
        if unknown:
            raise ValueError(
                f"the {self.name!r} domain takes no option(s) {unknown}; "
                f"its options are {accepted}"
            )
        return self.builder(program, **options)


def _build_typestate(domain: str):
    def build(
        program: Program, prop=None, tracked_sites=None, oracle=None
    ) -> DomainInstance:
        from repro.typestate.client import make_analyses

        if prop is None:
            raise ValueError(
                f"the {domain!r} domain needs a type-state property "
                "(pass prop=...)"
            )
        td_analysis, bu_analysis, init = make_analyses(
            program, prop, domain, tracked_sites, oracle
        )
        return _TypestateInstance(prop, td_analysis, bu_analysis, [init])

    return build


class _ProductTypestateInstance(_TypestateInstance):
    """Interval×typestate product: findings are error rows of product
    values, reported as the same ``(point, site)`` pairs the plain
    type-state domains use."""

    def findings_from_tables(self, result: TopDownResult) -> FrozenSet:
        from repro.typestate.dfa import ERROR
        from repro.typestate.states import BOOTSTRAP_SITE

        out = set()
        for point, pairs in result.td.items():
            for (_, value) in pairs:
                for sigma, _env in value.rows:
                    if sigma.state == ERROR and sigma.site != BOOTSTRAP_SITE:
                        out.add((point, sigma.site))
        return frozenset(out)

    def findings_from_summary(
        self, result: BottomUpResult, program: Program
    ) -> FrozenSet:
        from repro.typestate.dfa import ERROR
        from repro.typestate.states import BOOTSTRAP_SITE

        exit_point = ProgramPoint(program.main, -1)
        out = set()
        for value in result.apply_to(program.main, self.initial_states):
            for sigma, _env in value.rows:
                if sigma.state == ERROR and sigma.site != BOOTSTRAP_SITE:
                    out.add((exit_point, sigma.site))
        return frozenset(out)


class _JoinedFactInstance(_FactInstance):
    """Lattice-valued fact domain: the finding is the single joined
    value at ``main``'s exit (environments from different contexts are
    joined, which is what every engine agrees on)."""

    def _joined(self, values) -> FrozenSet:
        joined = None
        for value in values:
            joined = value if joined is None else self.td_analysis.join(joined, value)
        return frozenset() if joined is None else frozenset({joined})

    def findings_from_tables(self, result: TopDownResult) -> FrozenSet:
        return self._joined(result.exit_states())

    def findings_from_summary(
        self, result: BottomUpResult, program: Program
    ) -> FrozenSet:
        return self._joined(result.apply_to(program.main, self.initial_states))


def _build_interval_typestate(
    program: Program, prop=None, tracked_sites=None, oracle=None
) -> DomainInstance:
    from repro.numeric import product_analyses

    if prop is None:
        raise ValueError(
            "the 'typestate-interval' domain needs a type-state property "
            "(pass prop=...)"
        )
    td_analysis, bu_analysis, init = product_analyses(prop, tracked_sites)
    return _ProductTypestateInstance(prop, td_analysis, bu_analysis, [init])


def _build_interval(program: Program, tracked_sites=None) -> DomainInstance:
    from repro.numeric import EMPTY_ENV, IntervalBU, IntervalTD

    return _JoinedFactInstance(IntervalTD(), IntervalBU(), [EMPTY_ENV])


def _build_killgen(program: Program, spec=None) -> DomainInstance:
    from repro.killgen import LAMBDA, reaching_defs_pair, synthesize

    if spec is None:
        td_analysis, bu_analysis = reaching_defs_pair(program)
    else:
        td_analysis, bu_analysis = synthesize(spec)
    return _FactInstance(td_analysis, bu_analysis, [LAMBDA])


def _build_copyprop(program: Program) -> DomainInstance:
    from repro.copyprop import LAMBDA, copyprop_pair

    td_analysis, bu_analysis = copyprop_pair(program)
    return _FactInstance(td_analysis, bu_analysis, [LAMBDA])


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------
@dataclass
class EngineOutcome:
    """Uniform shape of one engine run, whatever the engine kind."""

    result: object
    findings: FrozenSet
    td_summaries: int
    bu_summaries: int
    timed_out: bool


@dataclass(frozen=True)
class EngineSpec:
    """A registered engine kind."""

    name: str
    #: Do k/theta mean anything to this engine?  (Config fingerprints
    #: normalize them to None otherwise.)
    uses_thresholds: bool
    #: May a WarmStart preload be supplied?
    supports_preload: bool
    #: Experiment-harness wall cap (the paper-budget stand-in).
    wall_cap_seconds: float
    runner: Callable[..., EngineOutcome] = field(compare=False)
    description: str = ""

    def run(
        self, program: Program, instance: DomainInstance, config, cfgs=None
    ) -> EngineOutcome:
        return self.runner(program, instance, config, cfgs)


def _run_td(program, instance, config, cfgs=None) -> EngineOutcome:
    engine = TopDownEngine(
        program,
        instance.td_analysis,
        cfgs=cfgs,
        budget=config.budget,
        scheduler=config.scheduler,
        sink=config.sink,
        preload=config.preload,
        widening_delay=config.widening_delay,
        descending_iters=config.descending_iters,
    )
    result = engine.run(instance.initial_states)
    return EngineOutcome(
        result,
        instance.findings_from_tables(result),
        result.total_summaries(),
        0,
        result.timed_out,
    )


def _run_swift(program, instance, config, cfgs=None) -> EngineOutcome:
    engine = SwiftEngine(
        program,
        instance.td_analysis,
        instance.bu_analysis,
        cfgs=cfgs,
        k=config.k,
        theta=config.theta,
        bu_triggers=config.bu_triggers,
        budget=config.budget,
        scheduler=config.scheduler,
        sink=config.sink,
        preload=config.preload,
        widening_delay=config.widening_delay,
        descending_iters=config.descending_iters,
    )
    result = engine.run(instance.initial_states)
    return EngineOutcome(
        result,
        instance.findings_from_tables(result),
        result.total_summaries(),
        result.total_bu_relations(),
        result.timed_out,
    )


def _run_bu(program, instance, config, cfgs=None) -> EngineOutcome:
    engine = BottomUpEngine(
        program,
        instance.bu_analysis,
        pruner=NoPruner(instance.bu_analysis),
        budget=config.budget,
        sink=config.sink,
        widening_delay=config.widening_delay,
    )
    result = engine.analyze()
    findings: FrozenSet = frozenset()
    if not result.timed_out:
        findings = instance.findings_from_summary(result, program)
    return EngineOutcome(
        result, findings, 0, result.total_relations(), result.timed_out
    )


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------
class Registry:
    """Name -> spec mapping whose misses list the registered choices."""

    kind = "entry"

    def __init__(self) -> None:
        self._specs: Dict[str, object] = {}
        self._aliases: Dict[str, str] = {}

    def register(self, spec) -> None:
        self._specs[spec.name] = spec
        for alias in getattr(spec, "aliases", ()):
            self._aliases[alias] = spec.name

    def canonical(self, name: str) -> str:
        """Resolve aliases; raise (listing choices) for unknown names."""
        resolved = self._aliases.get(name, name)
        if resolved not in self._specs:
            raise ValueError(
                f"unknown {self.kind} {name!r} "
                f"(registered: {', '.join(self.names())})"
            )
        return resolved

    def get(self, name: str):
        return self._specs[self.canonical(name)]

    def names(self) -> List[str]:
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs or name in self._aliases

    def __iter__(self):
        return iter(self.names())


class EngineRegistry(Registry):
    kind = "engine"


class DomainRegistry(Registry):
    kind = "domain"


ENGINES = EngineRegistry()
for _spec in (
    EngineSpec(
        "td",
        uses_thresholds=False,
        supports_preload=True,
        wall_cap_seconds=DEFAULT_WALL_CAP_SECONDS,
        runner=_run_td,
        description="conventional top-down tabulation (Reps-Horwitz-Sagiv)",
    ),
    EngineSpec(
        "bu",
        uses_thresholds=False,
        supports_preload=False,
        wall_cap_seconds=BU_WALL_CAP_SECONDS,
        runner=_run_bu,
        description="conventional bottom-up, no pruning",
    ),
    EngineSpec(
        "swift",
        uses_thresholds=True,
        supports_preload=True,
        wall_cap_seconds=DEFAULT_WALL_CAP_SECONDS,
        runner=_run_swift,
        description="Algorithm 1, the hybrid analysis",
    ),
):
    ENGINES.register(_spec)

DOMAINS = DomainRegistry()
for _spec in (
    DomainSpec(
        "typestate-simple",
        aliases=("simple",),
        builder=_build_typestate("simple"),
        description="type-state analysis of Figures 2-3",
    ),
    DomainSpec(
        "typestate-full",
        aliases=("full",),
        builder=_build_typestate("full"),
        description="four-component type-state analysis of the evaluation",
    ),
    DomainSpec(
        "killgen",
        aliases=(),
        builder=_build_killgen,
        description="Section 5.2 kill/gen synthesis (reaching definitions)",
    ),
    DomainSpec(
        "copyprop",
        aliases=(),
        builder=_build_copyprop,
        description="copy propagation over substitution relations",
    ),
    DomainSpec(
        "typestate-interval",
        aliases=("interval-typestate",),
        builder=_build_interval_typestate,
        description="interval x typestate reduced product (DESIGN §14)",
        is_finite=False,
    ),
    DomainSpec(
        "interval",
        aliases=(),
        builder=_build_interval,
        description="integer interval environments (infinite height)",
        is_finite=False,
    ),
):
    DOMAINS.register(_spec)

del _spec


def engine_names() -> List[str]:
    return ENGINES.names()


def domain_names() -> List[str]:
    return DOMAINS.names()
