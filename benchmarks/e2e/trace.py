"""Outside-in span recorder for the traced run.

Nothing inside ``src/`` knows about it: :meth:`Tracer.install` wraps
each layer's public entry points from the outside.  A module-level
function is replaced on *every* ``repro.*`` module attribute that
``is`` the original object, so ``from x import f`` call sites are
covered too; a method is replaced on its class.  Each call then
records one span — name, start, end, parent span, request id — into an
in-memory list; :meth:`Tracer.dump` writes the list as JSON lines when
the run ends.

Request ids live in a thread-local: a benchmark thread sets one with
:meth:`Tracer.request`, and a wrapped *boundary* (the service's
per-request dispatch) reads it from its request argument.  Recording is
per request: a request the ``record`` predicate declines runs through
the same wrappers without recording, which is how the traced run
measures its own overhead on requests of the same kind.

A span's *self time* is its duration minus the durations of its direct
children (children run on the parent's thread, inside its interval).
Counters (work, cone sizes, bytes written, ...) are read from return
values at the same boundaries.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Layer -> wrapped entry points (``module:attr`` or ``module:Class.method``).
#: The layer names are the ``repro`` packages they live in.
LAYERS: Dict[str, List[str]] = {
    "cli.self": ["repro.cli:main"],
    "ir.parse": ["repro.cli:load_program", "repro.ir.parser:parse_program"],
    "callgraph": [
        "repro.callgraph.scc:condensation",
        "repro.callgraph.rta:build_call_graph",
    ],
    "alias": ["repro.alias.andersen:points_to_oracle"],
    "framework.domain_build": ["repro.framework.session:AnalysisSession.build_domain"],
    "framework.td": ["repro.framework.session:AnalysisSession.run"],
    "framework.bu": ["repro.framework.bottomup:BottomUpEngine.analyze"],
    "framework.prune": ["repro.framework.pruning:FrequencyPruner.prune"],
    "incremental.driver": ["repro.incremental.driver:analyze_with_store"],
    "incremental.fingerprint": [
        "repro.incremental.fingerprint:ProgramFingerprints.__init__",
        "repro.incremental.fingerprint:config_fingerprint",
        "repro.incremental.fingerprint:alias_facts",
        "repro.service.daemon:program_digest",
    ],
    "incremental.load": [
        "repro.incremental.store:SummaryStore.load",
        "repro.incremental.store:SummaryStore.load_frontier",
    ],
    "incremental.decode": [
        "repro.incremental.invalidate:build_warm_start",
        "repro.query.engine:build_query_warm",
        "repro.query.engine:build_query_warm_from_frontier",
    ],
    "incremental.invalidate": ["repro.incremental.invalidate:diff_fingerprints"],
    "incremental.encode": [
        "repro.incremental.invalidate:build_snapshot",
        "repro.incremental.store:project_frontier",
    ],
    "incremental.save": [
        "repro.incremental.store:SummaryStore.save",
        "repro.incremental.store:SummaryStore.save_frontier",
    ],
    "query.cone": ["repro.query.slice:compute_cone"],
    "query.self": ["repro.query.engine:run_query", "repro.query.batch:run_query_batch"],
    "service.handle": [
        "repro.service.stdio:StdioFrontend._dispatch",
        "repro.service.daemon:AnalysisService.handle",
    ],
    "service.serialize": ["repro.service.stdio:StdioFrontend._write"],
}

#: Entry points whose request argument carries the request id.
BOUNDARIES = {"repro.service.stdio:StdioFrontend._dispatch": 1}


def _session_counters(result, add) -> None:
    metrics = result.metrics
    add("framework.work", metrics.total_work)
    add("framework.bu_triggers", metrics.bu_triggers)
    add("framework.pruned_relations", metrics.pruned_relations)
    add("framework.cache_hits", metrics.cache_hits)
    add("framework.cache_lookups", metrics.cache_hits + metrics.cache_misses)
    add("incremental.store_hits", metrics.store_hits)


def _bytes_written(path, add) -> None:
    add("incremental.bytes_written", os.path.getsize(path))


def _cone_counters(cone, add) -> None:
    add("query.cones", 1)
    add("query.cone_size", len(cone.cone))


def _query_counters(outcome, add) -> None:
    add("query.solves", 1 if outcome.cone.cone else 0)
    add("query.frontier_hits", 1 if outcome.frontier_snapshot == "hit" else 0)
    add("query.out_of_cone_rows", outcome.out_of_cone_interior_rows)


def _batch_counters(outcome, add) -> None:
    add("query.batches", 1)
    add("query.batch_solves", outcome.solves)
    add("query.solves", outcome.solves)
    add("query.frontier_hits", outcome.frontier_snapshot_hits)
    add("query.out_of_cone_rows", outcome.out_of_cone_interior_rows)


#: Entry point -> reads counters off its return value.
COUNTERS: Dict[str, Callable] = {
    "repro.framework.session:AnalysisSession.run": _session_counters,
    "repro.incremental.store:SummaryStore.save": _bytes_written,
    "repro.incremental.store:SummaryStore.save_frontier": _bytes_written,
    "repro.incremental.invalidate:diff_fingerprints": lambda plan, add: add(
        "incremental.invalidated_procs", len(plan.invalidated)
    ),
    "repro.query.slice:compute_cone": _cone_counters,
    "repro.query.engine:run_query": _query_counters,
    "repro.query.batch:run_query_batch": _batch_counters,
}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self, record: Callable[[object], bool] = lambda rid: True) -> None:
        self.record = record
        self.spans: List[tuple] = []  # (id, parent, rid, layer, start, end)
        self.counters: List[tuple] = []  # (rid, name, value)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- request scope ------------------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
            local.on = False
        return local

    def request(self, rid):
        """Context manager: calls on this thread belong to request ``rid``."""
        return _RequestScope(self, rid)

    # -- wrapping -----------------------------------------------------------------------
    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for target in targets:
                self._wrap(target, layer)

    def _wrap(self, target: str, layer: str) -> None:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr] if owner_name else getattr(module, attr)
        wrapper = self._wrapper(
            original, layer, BOUNDARIES.get(target), COUNTERS.get(target)
        )
        if owner_name:
            setattr(owner, attr, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrapper(self, fn, layer, rid_arg, counters):
        tracer = self

        def add_counter(name, value):
            tracer.counters.append((tracer._local.rid, name, value))

        def traced(*args, **kwargs):
            local = tracer._state()
            saved = None
            if rid_arg is not None:
                saved = (local.rid, local.on)
                request = args[rid_arg]
                local.rid = request.get("id") if isinstance(request, dict) else None
                local.on = tracer.record(local.rid)
            if not local.on:
                try:
                    return fn(*args, **kwargs)
                finally:
                    if saved is not None:
                        local.rid, local.on = saved
            span_id = next(tracer._ids)
            stack = local.stack
            parent = stack[-1] if stack else None
            stack.append(span_id)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, local.rid, layer, started, ended))
                if saved is not None:
                    local.rid, local.on = saved
            if counters is not None:
                counters(result, add_counter)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- results ------------------------------------------------------------------------
    def self_times(self) -> Dict[object, Dict[str, float]]:
        """Request id -> layer -> self seconds."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, _, started, ended in self.spans:
            if parent is not None:
                child_time[parent] += ended - started
        out: Dict[object, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span_id, _, rid, layer, started, ended in self.spans:
            out[rid][layer] += (ended - started) - child_time[span_id]
        return out

    def counter_totals(self) -> Dict[object, Dict[str, float]]:
        out: Dict[object, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for rid, name, value in self.counters:
            out[rid][name] += value
        return out

    def first_start(self) -> Dict[object, float]:
        """Request id -> earliest span start (where the system picked it up)."""
        out: Dict[object, float] = {}
        for _, _, rid, _, started, _ in self.spans:
            if rid not in out or started < out[rid]:
                out[rid] = started
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, parent, rid, layer, started, ended in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "request": rid,
                            "layer": layer,
                            "start": started,
                            "end": ended,
                        }
                    )
                    + "\n"
                )


class _RequestScope:
    def __init__(self, tracer: Tracer, rid) -> None:
        self.tracer = tracer
        self.rid = rid
        self.saved: Optional[tuple] = None

    def __enter__(self):
        local = self.tracer._state()
        self.saved = (local.rid, local.on)
        local.rid = self.rid
        local.on = self.tracer.record(self.rid)
        return self

    def __exit__(self, *exc) -> None:
        local = self.tracer._state()
        local.rid, local.on = self.saved
