"""Engine and domain registries — the framework's instantiation table.

The paper presents SWIFT as a *generic* framework parametrized by
``(A, B, k, theta)``; this module is where that genericity becomes a
lookup instead of an if/elif ladder.  Two registries cover the shipped
instantiations:

* :data:`ENGINES` — ``td`` (conventional top-down tabulation), ``bu``
  (conventional bottom-up, no pruning) and ``swift`` (Algorithm 1);
* :data:`DOMAINS` — six domains: ``typestate-simple`` (Figures 2–3,
  alias ``simple``), ``typestate-full`` (the evaluation's
  four-component analysis, alias ``full``), ``killgen`` (Section 5.2
  synthesis over reaching definitions), ``copyprop`` (substitution
  relations), and two of infinite height that run the engines in
  value mode (DESIGN §14): ``typestate-interval`` (the interval ×
  type-state reduced product, alias ``interval-typestate``) and
  ``interval`` (integer interval environments).

This module is the only place that builds a domain: a domain builds a
matched ``(A, B, initial states)`` triple for a program and knows how
to read *findings* back out of an engine result (type-state error
sites; exit facts for the dataflow domains), so
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
from repro.framework.metrics import Metrics
from repro.framework.pruning import NoPruner
from repro.framework.swift import SwiftEngine
from repro.framework.topdown import TopDownEngine, TopDownResult
from repro.ir.cfg import ProgramPoint
from repro.ir.program import Program


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
    """Findings are ``(program point, allocation site)`` error pairs:
    the points where an abstract object may be in the ``error``
    type-state.  The bootstrap pseudo-object is never reported (its
    type-state is meaningless; see :mod:`repro.typestate.states`)."""

    def __init__(self, prop, td_analysis, bu_analysis, initial_state) -> None:
        super().__init__(td_analysis, bu_analysis, [initial_state])
        self.prop = prop

    @staticmethod
    def states(values):
        """The type-state states among some table values."""
        return values

    def _errors(self, rows) -> FrozenSet:
        """The error pairs among ``(point, table values)`` rows."""
        from repro.typestate.dfa import ERROR
        from repro.typestate.states import BOOTSTRAP_SITE

        out = set()
        for point, values in rows:
            for sigma in self.states(values):
                if sigma.state == ERROR and sigma.site != BOOTSTRAP_SITE:
                    out.add((point, sigma.site))
        return frozenset(out)

    def findings_from_tables(self, result: TopDownResult) -> FrozenSet:
        return self._errors(
            (point, (value for _, value in pairs))
            for point, pairs in result.td.items()
        )

    def findings_from_summary(
        self, result: BottomUpResult, program: Program
    ) -> FrozenSet:
        # Errors are reported at main's exit: per-point attribution
        # needs the top-down tables, which a pure bottom-up run does
        # not build.
        exit_point = ProgramPoint(program.main, -1)
        return self._errors(
            [(exit_point, result.apply_to(program.main, self.initial_states))]
        )


class _ProductTypestateInstance(_TypestateInstance):
    """Interval×typestate product: a table value is a product value
    whose rows pair a type-state state with an interval environment."""

    @staticmethod
    def states(values):
        return (sigma for value in values for sigma, _env in value.rows)


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


def _typestate(name: str, analyses, instance_class=_TypestateInstance):
    """A type-state domain's builder: ``analyses(program, prop,
    tracked_sites, oracle)`` gives its ``(A, B, initial state)``."""

    def build(
        program: Program, prop=None, tracked_sites=None, oracle=None
    ) -> DomainInstance:
        if prop is None:
            raise ValueError(
                f"the {name!r} domain needs a type-state property "
                "(pass prop=...)"
            )
        return instance_class(
            prop, *analyses(program, prop, tracked_sites, oracle)
        )

    return build


def _simple_typestate(program: Program, prop, tracked_sites, oracle):
    from repro.typestate.bu_analysis import SimpleTypestateBU
    from repro.typestate.states import bootstrap_state
    from repro.typestate.td_analysis import SimpleTypestateTD

    return (
        SimpleTypestateTD(prop, tracked_sites),
        SimpleTypestateBU(prop, tracked_sites),
        bootstrap_state(prop),
    )


def _full_typestate(program: Program, prop, tracked_sites, oracle):
    """The four-component analysis; without an ``oracle``, its may-alias
    facts come from a fresh Andersen points-to run."""
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


def _interval_typestate(program: Program, prop, tracked_sites, oracle):
    from repro.numeric import product_analyses

    return product_analyses(prop, tracked_sites)


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
class SessionResult:
    """One engine run over one domain, whatever the engine kind: what
    :meth:`repro.framework.session.AnalysisSession.run` returns."""

    config: object  # the run's AnalysisConfig
    findings: FrozenSet  # domain-interpreted: error pairs / exit facts
    td_summaries: int
    bu_summaries: int
    timed_out: bool
    result: object = field(repr=False, default=None)  # raw engine result

    @property
    def engine(self) -> str:
        return self.config.engine

    @property
    def domain(self) -> str:
        return self.config.domain

    @property
    def metrics(self) -> Metrics:
        return self.result.metrics


@dataclass(frozen=True)
class EngineSpec:
    """A registered engine kind."""

    name: str
    #: Do k/theta mean anything to this engine?  (Config fingerprints
    #: normalize them to None otherwise.)
    uses_thresholds: bool
    #: May a WarmStart preload be supplied?
    supports_preload: bool
    runner: Callable[..., SessionResult] = field(compare=False)
    description: str = ""

    def run(
        self,
        program: Program,
        instance: DomainInstance,
        config,
        cfgs=None,
        options=None,
    ) -> SessionResult:
        """Run the engine; ``options`` are the runner's keyword-only
        hooks (SWIFT's experiment switches), which no config carries.
        A runner refuses an option it lacks with ``TypeError``: the TD
        and BU runners take none."""
        return self.runner(program, instance, config, cfgs, **(options or {}))


def _run_td(program, instance, config, cfgs=None) -> SessionResult:
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
    return SessionResult(
        config,
        instance.findings_from_tables(result),
        result.total_summaries(),
        0,
        result.timed_out,
        result,
    )


def _run_swift(
    program,
    instance,
    config,
    cfgs=None,
    *,
    refresh_existing: bool = False,
    postpone_unseen: bool = True,
    pruner_factory=None,
) -> SessionResult:
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
        refresh_existing=refresh_existing,
        postpone_unseen=postpone_unseen,
        pruner_factory=pruner_factory,
    )
    result = engine.run(instance.initial_states)
    return SessionResult(
        config,
        instance.findings_from_tables(result),
        result.total_summaries(),
        result.total_bu_relations(),
        result.timed_out,
        result,
    )


def _run_bu(program, instance, config, cfgs=None) -> SessionResult:
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
    return SessionResult(
        config, findings, 0, result.total_relations(), result.timed_out, result
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
        runner=_run_td,
        description="conventional top-down tabulation (Reps-Horwitz-Sagiv)",
    ),
    EngineSpec(
        "bu",
        uses_thresholds=False,
        supports_preload=False,
        runner=_run_bu,
        description="conventional bottom-up, no pruning",
    ),
    EngineSpec(
        "swift",
        uses_thresholds=True,
        supports_preload=True,
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
        builder=_typestate("typestate-simple", _simple_typestate),
        description="type-state analysis of Figures 2-3",
    ),
    DomainSpec(
        "typestate-full",
        aliases=("full",),
        builder=_typestate("typestate-full", _full_typestate),
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
        builder=_typestate(
            "typestate-interval", _interval_typestate, _ProductTypestateInstance
        ),
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
