"""The one configuration object behind every engine run.

Every way of running an analysis in this repo — ``run_typestate``, the
experiment harness, the CLI, the incremental driver, the query engine,
the service — is parametrised by one :class:`AnalysisConfig`: one
frozen dataclass naming the engine kind, the abstract domain, the SWIFT
thresholds, the budget, the worklist pop order, the widening
knobs, and the runtime attachments (trace sink, warm-start preload).  Validation
happens at construction, against the live registries — an unknown
engine, domain, or pop order raises immediately, listing the valid
choices, instead of being forwarded blindly into an engine constructor.

The *identity* part of a config — everything that determines the
computed results and the deterministic work counters — has a canonical
dict form (:meth:`AnalysisConfig.canonical_dict`) which
:mod:`repro.incremental.fingerprint` hashes for the summary store's
config fingerprint.  Runtime-only fields (budget, sink, preload) are
deliberately excluded: they change how long a run takes or what it
records, never what it computes, so two runs differing only there may
share stored summaries.

Entry points that also take the fields as keywords fold them into a
config with :func:`make_config`, the one place that decides how a
config, keyword overrides and an entry point's own defaults combine.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import FrozenSet, Mapping, Optional

from repro.framework.metrics import Budget
from repro.framework.registry import DOMAINS, ENGINES, EngineSpec
from repro.framework.topdown import TopDownEngine


@dataclass(frozen=True)
class AnalysisConfig:
    """A validated, immutable description of one analysis run.

    Identity fields (part of :meth:`canonical_dict`): ``engine``,
    ``domain``, ``k``, ``theta``, ``bu_triggers``, ``scheduler``,
    ``tracked_sites``, ``widening_delay``, ``descending_iters``.
    Runtime fields (not part of the canonical form): ``budget``,
    ``sink``, ``preload``.

    Every identity field except ``tracked_sites`` is type-checked at
    construction (:data:`_FIELD_TYPES`), so an ill-typed value — a
    float ``k``, a string flag — is refused naming the field instead of
    running under a fingerprint of its own.
    """

    engine: str = "swift"
    domain: str = "typestate-full"
    k: int = 5
    theta: int = 1
    bu_triggers: bool = True
    scheduler: str = TopDownEngine.POP_ORDERS[0]
    tracked_sites: Optional[FrozenSet[str]] = None
    # Widening knobs (crab-style; see DESIGN §14 and TUNING): only
    # consulted by infinite-height (lattice) domains, so they normalize
    # to None in the canonical form for finite ones.
    widening_delay: int = 2
    descending_iters: int = 0
    budget: Optional[Budget] = None
    sink: Optional[object] = None
    preload: Optional[object] = None

    def __post_init__(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            # bool is an int subclass: ``k=True`` must not pass as 1.
            if not isinstance(value, kind) or (
                kind is int and isinstance(value, bool)
            ):
                raise TypeError(
                    f"config field {name!r} must be {kind.__name__}, "
                    f"not {type(value).__name__} ({value!r})"
                )
        # Aliases ("simple", "full") normalize to registry names, so
        # equal configs compare equal however they were spelled.
        object.__setattr__(self, "engine", ENGINES.canonical(self.engine))
        object.__setattr__(self, "domain", DOMAINS.canonical(self.domain))
        TopDownEngine.check_pop_order(self.scheduler)
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.theta < 1:
            raise ValueError("theta must be at least 1")
        if self.widening_delay < 0:
            raise ValueError("widening_delay must be non-negative")
        if self.descending_iters < 0:
            raise ValueError("descending_iters must be non-negative")
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
                "scheduler": self.scheduler,
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


#: Expected type of each identity field checked by ``__post_init__``.
_FIELD_TYPES = {
    "engine": str,
    "domain": str,
    "k": int,
    "theta": int,
    "bu_triggers": bool,
    "scheduler": str,
    "widening_delay": int,
    "descending_iters": int,
}


def make_config(
    config: Optional[AnalysisConfig] = None,
    defaults: Optional[Mapping] = None,
    **fields,
) -> AnalysisConfig:
    """Fold an entry point's arguments into one validated config.

    ``fields`` are :class:`AnalysisConfig` field values, where ``None``
    means "not given".  Without ``config``, the result is the entry
    point's ``defaults`` overlaid by the given fields; with one, the
    given fields override it (a ``budget`` or ``sink`` for this run,
    say).  Unknown field names raise ``TypeError`` and invalid values
    the config's own ``ValueError``.
    """
    given = {name: value for name, value in fields.items() if value is not None}
    if config is None:
        return AnalysisConfig(**{**(defaults or {}), **given})
    return config.replace(**given) if given else config
