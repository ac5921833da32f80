"""The resident analysis service (analysis-as-a-service daemon).

Every ``repro-swift analyze --store`` invocation is a fresh process:
it pays interpreter + import startup, re-parses the program, and — on
the first warm run — re-decodes the snapshot, so a per-process warm
run's *wall* time is dominated by costs a resident process pays once.
:class:`AnalysisService` is that resident process: a front end
(stdio-JSONL or localhost HTTP, see :mod:`repro.service.stdio` /
:mod:`repro.service.http`) feeds it requests, and it keeps the reuse
substrate hot between them:

* **Resident decode cache** — one bounded true-LRU
  :class:`~repro.incremental.driver.WarmCache` (keyed by store root ×
  config fingerprint) shared by every request thread; decoded
  ``WarmStart``\\ s survive across requests, so a warm request skips
  load + decode entirely.  ``demand`` requests add one entry per store
  version, not per target: every cone views the same resident
  snapshot — the one ``analyze`` requests decoded, when its file is
  unchanged — and reuses its summary instantiations
  (:mod:`repro.query.engine`).
* **Resident programs** — parsed programs are kept by text hash, and
  what is derived from a program (its digest, fingerprints, points-to
  facts, CFGs) is memoized on it, so a repeated request re-derives
  none of it.
* **Sharded stores** — snapshots live under
  ``<root>/<lineage prefix>/snapshot-<config fp prefix>.jsonl``: the
  program *lineage* (:func:`program_lineage`, its sorted procedure
  names) picks the shard directory, the config fingerprint the file.
  A body-only edit shares its parent's shard, so an ``edit``
  warm-starts from the parent's snapshot and solves only its
  invalidation cone; the per-procedure fingerprint diff decides what
  is reused, so a sibling's snapshot is a warm start, never a wrong
  one.  The version *digest* (:func:`program_digest`) still names one
  version: ``program_fp``, the coalescing, result-cache and
  demand-flight keys.  The decode cache holds one entry per lineage ×
  config, and ``query``'s ``snapshot`` / ``resident`` mean "this
  lineage has a snapshot / decoded entry this version warm-starts
  from", not "this exact version was saved".
* **Request coalescing** — one flight table: concurrent requests for
  the same key collapse into one solve; the leader runs, the waiters
  block on its completion event and fan out the same response (marked
  ``"coalesced": true``).  An analyze or edit keys on (program,
  config); a demand adds its kind, precision and response shape, and
  joins a flight whose targets cover its own.
* **Trace streaming** — a request with ``"trace": true`` gets the
  engine's :mod:`repro.framework.tracing` events streamed back over
  its own connection as they happen (only the coalescing leader's
  connection sees them — waiters get results, not replayed events).
* **Draining shutdown** — ``shutdown`` flips the service to closing
  (new requests are refused), waits for every in-flight request to
  finish, and only then responds.

The service runs engines *concurrently inside one process* against
shared mutable reuse state — the configuration PR 3/6's single-process
assumptions (unlocked warm cache, pid-keyed store temp files) broke
under; those fixes live in :mod:`repro.incremental.driver` and
:mod:`repro.incremental.store`, and the hammer tests in
``tests/test_concurrent_reuse.py`` hold them down.
"""

from __future__ import annotations

import hashlib
import threading
import time
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.framework.config import AnalysisConfig, make_config
from repro.framework.session import analysis_session
from repro.framework.tracing import TraceSink
from repro.incremental.driver import LruCache, WarmCache, analyze_with_store
from repro.incremental.fingerprint import config_fingerprint
from repro.incremental.store import SummaryStore
from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from repro.ir.program import Program
from repro.service.protocol import (
    ProtocolError,
    config_from_json,
    error_response,
    ok_response,
    parse_request,
)
from repro.typestate.client import TypestateReport, encode_answer
from repro.typestate.properties import property_by_name

#: Shard directories (and ``program_fp``) use this prefix of a hash.
_SHARD_CHARS = 16


class StreamSink(TraceSink):
    """Forward each event, as a JSON-ready dict, to a callback.

    The callback is the front end's connection writer; it serializes
    its own locking.  Exceptions from the callback (a client that went
    away mid-stream) disable the sink instead of failing the analysis.
    """

    def __init__(self, callback: Callable[[dict], None]) -> None:
        self._callback = callback
        self.sent = 0
        self.enabled = True

    def emit(self, event) -> None:
        if not self.enabled:
            return
        try:
            self._callback(event.to_dict())
            self.sent += 1
        except Exception:
            self.enabled = False


class _InFlight:
    """One in-progress solve other requests may coalesce onto.

    ``targets`` is what the solve answers: empty for an analyze, the
    demand's target strings otherwise.  A request may wait on a flight
    under its own key whose targets cover its own.
    """

    __slots__ = ("targets", "done", "response")

    def __init__(self, targets: FrozenSet[str]) -> None:
        self.targets = targets
        self.done = threading.Event()
        self.response: Optional[dict] = None


def program_digest(program: Program) -> str:
    """Canonical content fingerprint of one program version.

    Hashes the canonical IR text, so a MiniOO source and its compiled
    IR — or two differently-formatted spellings of the same IR — are
    one version: they coalesce together and share a result.  Memoized
    on the program: the daemon's resident programs print and hash once.
    """
    return program.memo(
        "digest",
        lambda: hashlib.sha256(
            format_program(program).encode("utf-8")
        ).hexdigest(),
    )


def program_lineage(program: Program) -> str:
    """Stable identity of a program across body edits (the shard key).

    Hashes the sorted procedure names only, so every version that edits
    bodies but keeps the procedure set shares one store shard and warm
    starts from whichever sibling saved last.  Sharing is never wrong:
    a snapshot is diffed against the program by per-procedure
    fingerprints before any of it is reused.  Adding, removing or
    renaming a procedure starts a new lineage.
    """
    return program.memo(
        "lineage",
        lambda: hashlib.sha256(
            "\n".join(sorted(program.names())).encode("utf-8")
        ).hexdigest(),
    )


def load_program_text(text: str, fmt: Optional[str] = None) -> Program:
    """Parse request program text: ``"mini"``, ``"ir"``, or sniffed."""
    if fmt is None:
        stripped = text.lstrip()
        fmt = "ir" if stripped.startswith("proc ") else "mini"
    if fmt == "mini":
        from repro.frontend import compile_minioo

        return compile_minioo(text)
    if fmt == "ir":
        return parse_program(text)
    raise ProtocolError(f"unknown program format {fmt!r} (expected mini or ir)")


class AnalysisService:
    """The long-lived request handler behind both front ends.

    ``handle(request, emit=...)`` is the whole surface: front ends
    parse their transport's framing, call it (from any thread), and
    write back the returned response dict.  ``emit``, when given, is a
    callable receiving streamed trace-event dicts for requests that
    asked for tracing.
    """

    def __init__(
        self,
        root,
        lru_size: int = 8,
        program_cache_size: int = 32,
        result_cache_size: int = 128,
    ) -> None:
        self.root = Path(root)
        self.warm_cache = WarmCache(capacity=lru_size)
        self.session = analysis_session()
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._active = 0
        self._closing = False
        # The one flight table: (digest, config fp) for analyze and
        # edit, plus (kind, precision, response shape) for demands.
        self._inflight: Dict[tuple, List[_InFlight]] = {}
        self._programs = LruCache(program_cache_size)  # text hash -> Program
        self._results = LruCache(result_cache_size)  # (digest, config fp) -> dict
        self._started = time.time()
        self.requests = 0
        self.coalesced = 0
        self.solves = 0
        self.demands = 0
        self.batch_demands = 0
        self.demand_coalesced = 0
        self.frontier_snapshot_hits = 0
        self.errors = 0

    # -- lifecycle ----------------------------------------------------------------------
    @property
    def closing(self) -> bool:
        with self._lock:
            return self._closing

    def handle(
        self, request, emit: Optional[Callable[[dict], None]] = None
    ) -> dict:
        """Process one request; never raises — failures become responses."""
        request_id = request.get("id") if isinstance(request, dict) else None
        try:
            request = parse_request(request)
        except ProtocolError as exc:
            with self._lock:
                self.errors += 1
            return error_response(str(exc), request_id=request_id)
        op = request["op"]
        with self._lock:
            if self._closing:
                self.errors += 1
                return error_response(
                    "service is shutting down", op=op, request_id=request_id
                )
            self.requests += 1
            self._active += 1
        try:
            if op in ("analyze", "edit"):
                return self._analyze(request, emit)
            if op == "query":
                return self._query(request)
            if op == "demand":
                return self._demand(request)
            if op == "stats":
                return ok_response("stats", request_id, **self.stats())
            return self._shutdown(request)
        except Exception as exc:  # a bug must not take the daemon down
            return self._failure(exc, op, request_id)
        finally:
            with self._drained:
                self._active -= 1
                self._drained.notify_all()

    def _failure(self, exc: Exception, op: str, request_id=None) -> dict:
        """The error response for ``exc``: a :class:`ProtocolError` is
        the client's, anything else an internal error."""
        with self._lock:
            self.errors += 1
        message = str(exc)
        if not isinstance(exc, ProtocolError):
            message = f"internal error: {type(exc).__name__}: {message}"
        return error_response(message, op=op, request_id=request_id)

    def _shutdown(self, request) -> dict:
        with self._drained:
            self._closing = True
            # Everything except this shutdown request itself.
            while self._active > 1:
                self._drained.wait(timeout=0.5)
            drained = self.requests
        return ok_response(
            "shutdown", request.get("id"), drained_requests=drained
        )

    # -- request plumbing ---------------------------------------------------------------
    def _program(self, request) -> Tuple[Program, str]:
        text = request.get("program")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError(f'{request["op"]} needs a non-empty "program" string')
        cache_key = hashlib.sha256(text.encode("utf-8")).hexdigest()
        program = self._programs.fetch(cache_key)
        if program is None:
            try:
                program = load_program_text(text, request.get("format"))
            except ProtocolError:
                raise
            except Exception as exc:
                raise ProtocolError(f"program does not parse: {exc}") from None
            self._programs.put(cache_key, program)
        return program, program_digest(program)

    def _prop_and_config(self, request):
        try:
            prop = property_by_name(request.get("property", "File"))
        except (KeyError, ValueError) as exc:
            raise ProtocolError(str(exc)) from None
        config = config_from_json(request.get("config"))
        if not config.domain.startswith("typestate-"):
            raise ProtocolError(
                f"the service verifies type-state properties; domain "
                f"{config.domain!r} has no property verdict"
            )
        return prop, config

    def shard_store(self, lineage: str) -> SummaryStore:
        """The store of one program lineage (see :func:`program_lineage`)."""
        return SummaryStore(self.root / lineage[:_SHARD_CHARS])

    def _coalesce(
        self, request, key: tuple, targets: FrozenSet[str], solve, project=None
    ) -> dict:
        """Run ``solve()`` once for every request that joins its flight.

        The first request under ``key`` leads: it runs ``solve`` and
        publishes the response (an error response if ``solve`` raised).
        A request arriving while a flight under ``key`` covers its
        ``targets`` waits for that response instead of solving again,
        and answers with ``project(response)`` (its own slice of a
        wider answer), marked ``"coalesced": true``.
        """
        op = request["op"]
        request_id = request.get("id")
        with self._lock:
            flights = self._inflight.setdefault(key, [])
            flight = next((f for f in flights if targets <= f.targets), None)
            leader = flight is None
            if leader:
                flight = _InFlight(targets)
                flights.append(flight)
            elif op == "demand":
                self.demand_coalesced += 1
            else:
                self.coalesced += 1
        if not leader:
            flight.done.wait()
            out = dict(flight.response)
            if out.get("ok") and project is not None:
                out = project(out)
            out.update({"coalesced": True, "op": op, "id": request_id})
            if request_id is None:
                out.pop("id", None)
            return out

        response = error_response("solve did not complete", op=op)
        try:
            response = solve()
        except Exception as exc:
            response = self._failure(exc, op)
        finally:
            with self._lock:
                flights.remove(flight)
                if not flights:
                    del self._inflight[key]
            flight.response = response
            flight.done.set()
        out = dict(response)
        if request_id is not None:
            out["id"] = request_id
        return out

    # -- analyze / edit -----------------------------------------------------------------
    def _analyze(self, request, emit) -> dict:
        program, digest = self._program(request)
        prop, config = self._prop_and_config(request)
        _, config_fp = config_fingerprint(prop, config=config)
        return self._coalesce(
            request,
            (digest, config_fp),
            frozenset(),
            lambda: self._solve(
                request, program, digest, prop, config, config_fp, emit
            ),
        )

    def _solve(
        self,
        request,
        program: Program,
        digest: str,
        prop,
        config: AnalysisConfig,
        config_fp: str,
        emit,
    ) -> dict:
        sink = None
        if request.get("trace") and emit is not None:
            sink = StreamSink(emit)
        started = time.perf_counter()
        store = self.shard_store(program_lineage(program))
        if config.engine in ("td", "swift"):
            outcome = analyze_with_store(
                program,
                prop,
                store,
                config=config,
                sink=sink,
                warm_cache=self.warm_cache,
                meta={"producer": "repro-swift serve"},
            )
            report = outcome.report
            store_fields = {
                "stored": True,
                "cold": outcome.cold,
                "store_hits": outcome.store_hits,
                "store_misses": outcome.store_misses,
                "store_invalidated": outcome.store_invalidated,
                "saved": outcome.saved,
                "invalidated": sorted(outcome.invalidated),
                "added": sorted(outcome.added),
            }
        else:
            # bu has no preload hook; run it directly —
            # still resident (no process startup), still coalesced.
            session_out = self.session.run(
                program, make_config(config, sink=sink), prop=prop
            )
            report = TypestateReport.of(prop, config, session_out)
            store_fields = {"stored": False, "cold": True, "saved": False}
        elapsed = time.perf_counter() - started
        with self._lock:
            self.solves += 1
        response = ok_response(
            request["op"],
            None,
            property=prop.name,
            engine=config.engine,
            config=config.canonical_dict(),
            config_fp=config_fp,
            program_fp=digest[:_SHARD_CHARS],
            shard=store.root.name,
            timed_out=report.timed_out,
            errors=encode_answer("errors", report.errors),
            td_summaries=report.td_summaries,
            bu_summaries=report.bu_summaries,
            work=report.result.metrics.total_work,
            elapsed_ms=round(elapsed * 1000.0, 3),
            coalesced=False,
            trace_events=sink.sent if sink is not None else 0,
            **store_fields,
        )
        self._results.put((digest, config_fp), response)
        return response

    # -- demand (one target, or a batch of them) ----------------------------------------
    def _demand(self, request) -> dict:
        """Answer a demand query from the shard store and warm LRU.

        Unlike ``analyze``, this never solves the whole program: only
        the targets' backward-slice cones are tabulated, one warm-start
        solve per connected cone-union component, with out-of-cone
        calls satisfied from the shard's snapshot (see
        :mod:`repro.query`).  ``"target": t`` is the batch ``[t]``,
        answered in the single-target response shape.  A demand waits
        on an in-flight demand of the same shape whose targets cover
        its own; a batch waiter projects its targets out of the
        leader's response.  Malformed targets (no such procedure /
        point, unknown kind) are client errors, not daemon faults.
        """
        from repro.query import QueryError, run_query, run_query_batch

        program, digest = self._program(request)
        prop, config = self._prop_and_config(request)
        if config.engine not in ("td", "swift"):
            raise ProtocolError(
                f"demand queries run on td or swift, not {config.engine!r}"
            )
        kind = request.get("kind", "errors")
        precision = request.get("precision", "td")
        target, targets = request.get("target"), request.get("targets")
        if target is not None and targets is not None:
            raise ProtocolError('demand takes "target" or "targets", not both')
        single = targets is None
        if single:
            if not isinstance(target, str) or not target.strip():
                raise ProtocolError(
                    'demand needs a non-empty "target" string or a "targets" list'
                )
            targets = [target]
        elif (
            not isinstance(targets, (list, tuple))
            or not targets
            or not all(isinstance(t, str) and t.strip() for t in targets)
        ):
            raise ProtocolError(
                'demand "targets" must be a non-empty list of strings'
            )
        targets = [t.strip() for t in targets]
        target_set = frozenset(targets)
        _, config_fp = config_fingerprint(prop, config=config)

        def solve() -> dict:
            store = self.shard_store(program_lineage(program))
            started = time.perf_counter()
            try:
                outcome = (run_query if single else run_query_batch)(
                    program,
                    prop,
                    store,
                    targets[0] if single else targets,
                    kind=kind,
                    config=config,
                    warm_cache=self.warm_cache,
                    query_precision=precision,
                )
            except QueryError as exc:
                raise ProtocolError(str(exc)) from None
            elapsed = time.perf_counter() - started
            if single:
                hits = int(outcome.frontier_snapshot == "hit")
                shape = dict(
                    target=str(outcome.target),
                    answer=encode_answer(kind, outcome.answer),
                    cone_size=outcome.cone_size,
                    frontier_size=outcome.frontier_size,
                    store_hits=outcome.store_hits,
                    store_misses=outcome.store_misses,
                    store_invalidated=outcome.store_invalidated,
                    frontier_snapshot=outcome.frontier_snapshot,
                )
            else:
                hits = outcome.frontier_snapshot_hits
                shape = dict(
                    batch=True,
                    targets=targets,
                    answers={
                        str(t): encode_answer(kind, a)
                        for t, a in outcome.answers.items()
                    },
                    attribution=outcome.attribution(),
                    components=[
                        {
                            "index": c.index,
                            "targets": [str(t) for t in c.targets],
                            "cone_size": c.cone_size,
                            "frontier_size": c.frontier_size,
                            "solved": c.solved,
                            "cold": c.cold,
                            "frontier_snapshot": c.frontier_snapshot,
                            "store_load_s": round(c.store_load_seconds, 6),
                            "work": c.total_work,
                            "out_of_cone_interior_rows": (
                                c.out_of_cone_interior_rows
                            ),
                            "timed_out": c.timed_out,
                        }
                        for c in outcome.components
                    ],
                    batch_components=outcome.batch_components,
                    solves=outcome.solves,
                    frontier_snapshot_hits=hits,
                )
            with self._lock:
                self.demands += 1
                if not single:
                    self.batch_demands += 1
                self.frontier_snapshot_hits += hits
            return ok_response(
                "demand",
                None,
                property=prop.name,
                engine=config.engine,
                config=config.canonical_dict(),
                config_fp=outcome.config_fp,
                program_fp=digest[:_SHARD_CHARS],
                shard=store.root.name,
                kind=kind,
                precision=precision,
                program_procs=len(program),
                cold=outcome.cold,
                work=outcome.total_work,
                out_of_cone_interior_rows=outcome.out_of_cone_interior_rows,
                timed_out=outcome.timed_out,
                elapsed_ms=round(elapsed * 1000.0, 3),
                coalesced=False,
                **shape,
            )

        def project(response: dict) -> dict:
            response["targets"] = targets
            response["answers"] = {t: response["answers"][t] for t in targets}
            response["attribution"] = [
                row for row in response["attribution"]
                if row["target"] in target_set
            ]
            return response

        return self._coalesce(
            request,
            (digest, config_fp, kind, precision, single),
            target_set,
            solve,
            None if single else project,
        )

    # -- query / stats ------------------------------------------------------------------
    def _query(self, request) -> dict:
        program, digest = self._program(request)
        prop, config = self._prop_and_config(request)
        _, config_fp = config_fingerprint(prop, config=config)
        key = (digest, config_fp)
        store = self.shard_store(program_lineage(program))
        cached = self._results.fetch(key)
        with self._lock:
            inflight = key in self._inflight
        resident_key = (str(store.root.resolve()), config_fp)
        snapshot_path = store.path_for(config_fp)
        return ok_response(
            "query",
            request.get("id"),
            property=prop.name,
            config_fp=config_fp,
            program_fp=digest[:_SHARD_CHARS],
            shard=store.root.name,
            known=cached is not None,
            in_flight=inflight,
            resident=resident_key in self.warm_cache,
            snapshot=snapshot_path.exists(),
            result=dict(cached) if cached is not None else None,
        )

    def stats(self) -> dict:
        shards = []
        if self.root.is_dir():
            for shard in sorted(self.root.iterdir()):
                if shard.is_dir():
                    snapshots = len(SummaryStore(shard).snapshot_paths())
                    shards.append({"shard": shard.name, "snapshots": snapshots})
        with self._lock:
            return {
                "uptime_s": round(time.time() - self._started, 3),
                "requests": self.requests,
                "coalesced": self.coalesced,
                "solves": self.solves,
                "demands": self.demands,
                "batch_demands": self.batch_demands,
                "demand_coalesced": self.demand_coalesced,
                "frontier_snapshot_hits": self.frontier_snapshot_hits,
                "request_errors": self.errors,
                "in_flight": self._active,
                "closing": self._closing,
                "warm_cache": self.warm_cache.stats(),
                "programs_cached": len(self._programs),
                "results_cached": len(self._results),
                "store_root": str(self.root),
                "shards": shards,
            }
