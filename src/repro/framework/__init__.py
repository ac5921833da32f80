"""The SWIFT framework: generic hybrid interprocedural analysis.

This package is the paper's primary contribution, reproduced as a
library:

* :mod:`repro.framework.interfaces` — the two analysis signatures
  ``A = (S, trans)`` (top-down, Section 3.1) and
  ``B = (R, id#, gamma, rtrans, rcomp)`` plus ``wp`` (bottom-up,
  Sections 3.2–3.3).
* :mod:`repro.framework.predicates` — conjunctive predicates ``phi``
  over abstract states, used both inside abstract relations and to
  represent ignored-state sets ``Sigma`` symbolically.
* :mod:`repro.framework.denotational` — the reference abstract
  semantics ``[[C]] : 2^S -> 2^S`` of Section 3.1 (used by tests and by
  the coincidence checks).
* :mod:`repro.framework.topdown` — the tabulation-based top-down engine
  (Reps–Horwitz–Sagiv), the ``TD`` baseline of the evaluation; its
  workset pops in one of ``TopDownEngine.POP_ORDERS`` (``lifo``, the
  default, or ``fifo``).
* :mod:`repro.framework.bottomup` — the bottom-up engine on the pruned
  domain ``(R, Sigma)`` of Sections 3.4–3.5, the ``BU`` baseline when
  run with no pruning.
* :mod:`repro.framework.pruning` — ``excl``, ``clean`` and the
  frequency-ranked ``prune`` operator.
* :mod:`repro.framework.swift` — Algorithm 1, the hybrid driver.
* :mod:`repro.framework.conditions` — executable checkers for the
  framework conditions C1–C3 (Figure 4).
* :mod:`repro.framework.synthesis` — the Section 5.1 recipe that
  synthesizes a top-down analysis from a bottom-up one.
* :mod:`repro.framework.config` — the frozen ``AnalysisConfig``
  capturing one analysis configuration (engine, domain, thresholds,
  pop order, widening knobs).
* :mod:`repro.framework.registry` — ``EngineRegistry`` /
  ``DomainRegistry`` mapping names (``td``/``bu``/``swift`` × the
  analysis domains) to specs.
* :mod:`repro.framework.session` — ``AnalysisSession``, the single
  pipeline every dispatch site (client, harness, CLI, incremental
  driver) runs through.
"""

from repro.framework.interfaces import BottomUpAnalysis, TopDownAnalysis
from repro.framework.metrics import Budget, BudgetExceededError, Metrics
from repro.framework.predicates import FALSE, TRUE, Atom, Conjunction
from repro.framework.ignored import IgnoredStates
from repro.framework.denotational import DenotationalInterpreter
from repro.framework.topdown import TopDownEngine, TopDownResult
from repro.framework.pruning import (
    FrequencyPruner,
    NoPruner,
    PruneOperator,
    clean,
    excl,
)
from repro.framework.bottomup import BottomUpEngine, BottomUpResult, ProcedureSummary
from repro.framework.swift import SwiftEngine, SwiftResult
from repro.framework.synthesis import SynthesizedTopDown
from repro.framework.conditions import check_c1, check_c2, check_c3
from repro.framework.registry import (
    DOMAINS,
    ENGINES,
    DomainRegistry,
    DomainSpec,
    EngineRegistry,
    EngineSpec,
    domain_names,
    engine_names,
)
from repro.framework.config import AnalysisConfig
from repro.framework.session import AnalysisSession, SessionResult, analysis_session

__all__ = [
    "AnalysisConfig",
    "AnalysisSession",
    "Atom",
    "BottomUpAnalysis",
    "BottomUpEngine",
    "BottomUpResult",
    "Budget",
    "BudgetExceededError",
    "Conjunction",
    "DOMAINS",
    "DenotationalInterpreter",
    "DomainRegistry",
    "DomainSpec",
    "ENGINES",
    "EngineRegistry",
    "EngineSpec",
    "FALSE",
    "FrequencyPruner",
    "IgnoredStates",
    "Metrics",
    "NoPruner",
    "ProcedureSummary",
    "PruneOperator",
    "SessionResult",
    "SwiftEngine",
    "SwiftResult",
    "SynthesizedTopDown",
    "TRUE",
    "TopDownAnalysis",
    "TopDownEngine",
    "TopDownResult",
    "analysis_session",
    "check_c1",
    "check_c2",
    "check_c3",
    "clean",
    "domain_names",
    "engine_names",
    "excl",
]
