"""``AnalysisSession`` — one pipeline from config to result.

Every former dispatch site (``run_typestate``, the experiment
harness's ``run_engine``, the CLI, the incremental driver) is now a
thin wrapper over::

    session = AnalysisSession()
    outcome = session.run(program, AnalysisConfig(engine="swift", ...),
                          prop=FILE_PROPERTY)

The session resolves the engine and domain through the registries,
builds the domain's ``(A, B, initial states)`` triple for the program
(unless the caller hands it one it built), runs the engine, and
returns the engine's :class:`SessionResult`: the domain-interpreted
findings alongside the raw engine result.  Keyword
arguments after the config are *domain options* (the type-state
domains take ``prop``, ``tracked_sites``, ``oracle``; killgen takes an
optional ``spec``); they are per-program inputs, not configuration, so
they ride on the call rather than the config object.

:func:`request_scope` is the process's one collector policy: every
request boundary (``cli.main``'s analysis verbs,
``AnalysisService.handle``, the experiment harness's ``run_engine``)
runs inside it, and no other module calls ``gc``.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator, Mapping, Optional

from repro.framework.config import AnalysisConfig
from repro.framework.registry import (
    DOMAINS,
    ENGINES,
    DomainInstance,
    SessionResult,
)
from repro.ir.cfg import ControlFlowGraphs
from repro.ir.program import Program


class AnalysisSession:
    """Runs ``(program, config)`` pairs through the registries."""

    def build_domain(
        self, program: Program, config: AnalysisConfig, **domain_options
    ) -> DomainInstance:
        """The domain's ``(A, B, initial states)`` triple for ``program``."""
        spec = DOMAINS.get(config.domain)
        if config.tracked_sites is not None and "tracked_sites" not in domain_options:
            domain_options["tracked_sites"] = config.tracked_sites
        return spec.build(program, **domain_options)

    def run(
        self,
        program: Program,
        config: AnalysisConfig,
        cfgs: Optional[ControlFlowGraphs] = None,
        engine_options: Optional[Mapping] = None,
        instance: Optional[DomainInstance] = None,
        **domain_options,
    ) -> SessionResult:
        """Run ``config`` over ``program``; the single engine pipeline.

        ``instance`` is the domain already built for ``program`` and
        ``config`` (a store-backed run builds it once, for its codec
        and its solve); without one, the run builds it from
        ``domain_options``.  ``cfgs`` hands the tabulation engines the
        program's CFGs (a resident host reuses one set across solves);
        by default each engine builds its own.  ``engine_options`` are
        the engine's experiment-only hooks (:meth:`EngineSpec.run`);
        they are not configuration, so no fingerprint, CLI flag or
        service request ever carries them.
        """
        engine_spec = ENGINES.get(config.engine)
        if instance is None:
            instance = self.build_domain(program, config, **domain_options)
        return engine_spec.run(program, instance, config, cfgs, engine_options)


#: The process-wide session; it holds no state of its own.
_DEFAULT_SESSION = AnalysisSession()


def analysis_session() -> AnalysisSession:
    """The process-wide default session over the global registries."""
    return _DEFAULT_SESSION


#: :func:`request_scope`'s nesting count.  The collector's switch is
#: process-wide, so this state is too; the lock guards it because the
#: daemon runs requests on several threads.
_SCOPE_LOCK = threading.Lock()
_scope_depth = 0
_scope_was_enabled = False


@contextmanager
def request_scope() -> Iterator[None]:
    """Run one request with automatic cyclic collection paused.

    The engines' tables only grow until a solve ends, so a collection
    mid-request rescans live rows and frees almost nothing.  Inside the
    scope the collector never runs on its own; every exit (an exception
    included) runs one young-generation collection, ``gc.collect(1)``,
    so a request reclaims its own cyclic garbage inside its own time.
    Scopes nest and overlap across threads: the outermost entry saves
    whether the collector was enabled, and the last exit restores
    that, so a caller that disabled it keeps it disabled, and whoever
    toggles it between requests keeps its setting.  There is no
    scheduled full collection: what stays resident (programs, warm
    starts, results) is kept acyclic (DESIGN §10) and dies by
    reference count, and CPython's own full-collection trigger still
    runs whenever the collector is enabled between requests.
    """
    global _scope_depth, _scope_was_enabled
    with _SCOPE_LOCK:
        if _scope_depth == 0:
            _scope_was_enabled = gc.isenabled()
            gc.disable()
        _scope_depth += 1
    try:
        yield
    finally:
        gc.collect(1)
        with _SCOPE_LOCK:
            _scope_depth -= 1
            if _scope_depth == 0 and _scope_was_enabled:
                gc.enable()
