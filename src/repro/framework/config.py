"""The one configuration object behind every engine run.

Every way of running an analysis in this repo — ``run_typestate``, the
experiment harness, the CLI, the incremental driver — used to thread
the same ten knobs through its own keyword ladder.
:class:`AnalysisConfig` replaces those ladders: one frozen dataclass
naming the engine kind, the abstract domain, the SWIFT thresholds, the
budget, the hot-path toggles, the worklist scheduling policy, and the
runtime attachments (trace sink, warm-start preload).  Validation
happens at construction, against the live registries — an unknown
engine, domain, or scheduler raises immediately, listing the registered
choices, instead of being forwarded blindly into an engine constructor.

The *identity* part of a config — everything that determines the
computed results and the deterministic work counters — has a canonical
dict form (:meth:`AnalysisConfig.canonical_dict`) which
:mod:`repro.incremental.fingerprint` hashes for the summary store's
config fingerprint.  Runtime-only fields (budget, sink, preload,
worker count) are deliberately excluded: they change how long a run
takes or what it records, never what it computes, so two runs differing
only there may share stored summaries.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional

from repro.framework.interfaces import UnsupportedDomainError
from repro.framework.kernel import DEFAULT_KERNEL, validate_kernel
from repro.framework.metrics import Budget
from repro.framework.registry import DOMAINS, ENGINES, EngineSpec
from repro.framework.scheduling import DEFAULT_SCHEDULER, validate_scheduler


@dataclass(frozen=True)
class AnalysisConfig:
    """A validated, immutable description of one analysis run.

    Identity fields (part of :meth:`canonical_dict`): ``engine``,
    ``domain``, ``k``, ``theta``, ``bu_triggers``, ``scheduler``,
    ``tracked_sites``, ``enable_caches``, ``indexed_summaries``,
    ``kernel``, ``widening_delay``, ``descending_iters``.  Runtime
    fields (not part of the canonical form): ``budget``, ``sink``,
    ``preload``, ``max_workers``.

    ``kernel`` never changes the computed tables or work counters
    (property-tested), but it is kept in the canonical form anyway: a
    summary-store fingerprint that goes cold costs one re-analysis, one
    that is wrong is a soundness bug — cold, never wrong.
    """

    engine: str = "swift"
    domain: str = "typestate-full"
    k: int = 5
    theta: int = 1
    bu_triggers: bool = True
    scheduler: str = DEFAULT_SCHEDULER
    tracked_sites: Optional[FrozenSet[str]] = None
    enable_caches: bool = True
    indexed_summaries: bool = True
    kernel: str = DEFAULT_KERNEL
    # Widening knobs (crab-style; see DESIGN §14 and TUNING): only
    # consulted by infinite-height (lattice) domains, so they normalize
    # to None in the canonical form for finite ones.
    widening_delay: int = 2
    descending_iters: int = 0
    budget: Optional[Budget] = None
    sink: Optional[object] = None
    preload: Optional[object] = None
    max_workers: int = 1

    def __post_init__(self) -> None:
        # Aliases ("simple", "full") normalize to registry names, so
        # equal configs compare equal however they were spelled.
        object.__setattr__(self, "engine", ENGINES.canonical(self.engine))
        object.__setattr__(self, "domain", DOMAINS.canonical(self.domain))
        validate_scheduler(self.scheduler)
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.theta < 1:
            raise ValueError("theta must be at least 1")
        if self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if self.widening_delay < 0:
            raise ValueError("widening_delay must be non-negative")
        if self.descending_iters < 0:
            raise ValueError("descending_iters must be non-negative")
        validate_kernel(self.kernel)
        if not self.domain_spec.is_finite and self.kernel != DEFAULT_KERNEL:
            raise UnsupportedDomainError(
                f"kernel {self.kernel!r} compiles finite domains by "
                f"enumeration and cannot represent the infinite-height "
                f"domain {self.domain!r}; use the {DEFAULT_KERNEL!r} kernel "
                "fallback",
                supported=sorted(
                    name for name in DOMAINS.names() if DOMAINS.get(name).is_finite
                ),
            )
        if self.tracked_sites is not None:
            object.__setattr__(
                self, "tracked_sites", frozenset(self.tracked_sites)
            )
        if self.preload is not None and not self.engine_spec.supports_preload:
            raise ValueError(
                f"warm starts are not supported for the {self.engine} engine"
            )

    # -- registry views ---------------------------------------------------------------
    @property
    def engine_spec(self) -> EngineSpec:
        return ENGINES.get(self.engine)

    @property
    def domain_spec(self):
        return DOMAINS.get(self.domain)

    # -- derivation -------------------------------------------------------------------
    def replace(self, **changes) -> "AnalysisConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def for_experiment(
        cls,
        engine: str,
        *,
        budget_work: Optional[int] = None,
        **overrides,
    ) -> "AnalysisConfig":
        """The experiment harness's configuration for ``engine``.

        Budgets combine the deterministic work cap (the paper's
        24h/16GB stand-in) with the engine's registered wall cap — this
        is where the historical ``bu``-vs-default wall-cap special case
        lives now, as :attr:`EngineSpec.wall_cap_seconds` instead of an
        if/else in the harness.  Unknown ``overrides`` raise via the
        dataclass constructor instead of being forwarded blindly.
        """
        spec = ENGINES.get(engine)
        budget = Budget(max_work=budget_work, max_seconds=spec.wall_cap_seconds)
        overrides.setdefault("domain", "typestate-full")
        return cls(engine=engine, budget=budget, **overrides)

    # -- canonical form ---------------------------------------------------------------
    def canonical_dict(self) -> dict:
        """The identity of this config, in deterministic dict form.

        ``k``/``theta`` normalize to ``None`` for engines that ignore
        them (td, bu), so a td config fingerprints the same whatever
        thresholds it carried.  This is the dict
        :func:`repro.incremental.fingerprint.config_fingerprint`
        hashes.
        """
        uses = self.engine_spec.uses_thresholds
        return {
            "engine": self.engine,
            "domain": self.domain,
            "k": self.k if uses else None,
            "theta": self.theta if uses else None,
            # Like k/theta: only the hybrid engines consult the BU
            # trigger gate, so td/bu configs fingerprint the same
            # whatever it carried.  The default (True) is the historical
            # behavior; the query engine sets False so a cone solve
            # never introduces summaries of its own.
            "bu_triggers": self.bu_triggers if uses else None,
            "tracked_sites": (
                sorted(self.tracked_sites)
                if self.tracked_sites is not None
                else None
            ),
            "flags": {
                "enable_caches": self.enable_caches,
                "indexed_summaries": self.indexed_summaries,
                "scheduler": self.scheduler,
                "kernel": self.kernel,
                # Widening knobs only steer infinite-height domains;
                # finite-domain configs fingerprint the same whatever
                # they carried.  (Adding these keys at all re-keys every
                # fingerprint once: stored snapshots go cold, never
                # wrong.)
                "widening_delay": (
                    None if self.domain_spec.is_finite else self.widening_delay
                ),
                "descending_iters": (
                    None if self.domain_spec.is_finite else self.descending_iters
                ),
            },
        }
