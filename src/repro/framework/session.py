"""``AnalysisSession`` — one pipeline from config to result.

Every former dispatch site (``run_typestate``, the experiment
harness's ``run_engine``, the CLI, the incremental driver) is now a
thin wrapper over::

    session = AnalysisSession()
    outcome = session.run(program, AnalysisConfig(engine="swift", ...),
                          prop=FILE_PROPERTY)

The session resolves the engine and domain through the registries,
builds the domain's ``(A, B, initial states)`` triple for the program,
runs the engine, and returns a :class:`SessionResult` with the
domain-interpreted findings alongside the raw engine result.  Keyword
arguments after the config are *domain options* (the type-state
domains take ``prop``, ``tracked_sites``, ``oracle``; killgen takes an
optional ``spec``); they are per-program inputs, not configuration, so
they ride on the call rather than the config object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.framework.config import AnalysisConfig
from repro.framework.metrics import Metrics
from repro.framework.registry import (
    DOMAINS,
    ENGINES,
    DomainInstance,
    DomainRegistry,
    EngineRegistry,
)
from repro.ir.cfg import ControlFlowGraphs
from repro.ir.program import Program


@dataclass
class SessionResult:
    """Outcome of one ``AnalysisSession.run``."""

    config: AnalysisConfig
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


class AnalysisSession:
    """Runs ``(program, config)`` pairs through the registries."""

    def __init__(
        self,
        engines: Optional[EngineRegistry] = None,
        domains: Optional[DomainRegistry] = None,
    ) -> None:
        self.engines = engines if engines is not None else ENGINES
        self.domains = domains if domains is not None else DOMAINS

    def build_domain(
        self, program: Program, config: AnalysisConfig, **domain_options
    ) -> DomainInstance:
        """The domain's ``(A, B, initial states)`` triple for ``program``."""
        spec = self.domains.get(config.domain)
        if config.tracked_sites is not None and "tracked_sites" not in domain_options:
            domain_options["tracked_sites"] = config.tracked_sites
        return spec.build(program, **domain_options)

    def run(
        self,
        program: Program,
        config: AnalysisConfig,
        cfgs: Optional[ControlFlowGraphs] = None,
        **domain_options,
    ) -> SessionResult:
        """Run ``config`` over ``program``; the single engine pipeline.

        ``cfgs`` hands the tabulation engines the program's CFGs (a
        resident host reuses one set across solves); by default each
        engine builds its own.
        """
        engine_spec = self.engines.get(config.engine)
        instance = self.build_domain(program, config, **domain_options)
        outcome = engine_spec.run(program, instance, config, cfgs)
        return SessionResult(
            config=config,
            findings=outcome.findings,
            td_summaries=outcome.td_summaries,
            bu_summaries=outcome.bu_summaries,
            timed_out=outcome.timed_out,
            result=outcome.result,
        )


#: Shared default session (the registries are module-level anyway).
_DEFAULT_SESSION: Optional[AnalysisSession] = None


def analysis_session() -> AnalysisSession:
    """The process-wide default session over the global registries."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = AnalysisSession()
    return _DEFAULT_SESSION
