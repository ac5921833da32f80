"""Structured analysis event tracing (observability layer).

PR 1 made the engines fast but opaque: when a SWIFT run produces a
surprising summary count or a ``bu_postponements`` value, the final
:class:`~repro.framework.metrics.Metrics` totals say *how much*
happened, not *when* or *where*.  This module adds a typed event
stream the engines emit into a pluggable :class:`TraceSink`:

========================  =====================================================
kind                      emitted when
========================  =====================================================
``propagate``             tabulation discovers a new path edge (with its cause)
``td_summary_reuse``      a call reuses an existing top-down callee context
``bu_trigger``            SWIFT launches ``run_bu`` for a root procedure
``bu_postponed``          a trigger is declined by ``postpone_unseen``
``bu_installed``          a finished bottom-up summary is installed
``summary_instantiated``  a bottom-up summary is applied at a call edge
``prune_drop``            the pruner ranks relations out (with the losers)
``budget_exceeded``       an engine's budget check raised
``store_hit``             a preloaded summary-store entry was installed
``store_miss``            a warm run demanded a context the store lacked
``store_invalidated``     invalidation discarded a procedure's stored entries
========================  =====================================================

Sinks:

* :class:`NullSink` — the zero-overhead default.  Engines check the
  sink's ``enabled`` flag once and skip event *construction* entirely,
  so the hot paths pay only a predicate test per site.
* :class:`RingSink` — bounded in-memory ring, for tests and the
  trace-backed :mod:`repro.framework.explain` mode.
* :class:`JsonlSink` — one JSON object per line, deterministic byte
  layout in serial mode (sorted keys, sequence numbers, no wall-clock
  fields), so traces double as a regression oracle.

All sinks are thread-safe: the analysis service runs engines on
request threads that may share one sink.

Determinism rule: events never carry wall-clock data.
:class:`Profile` folds a recorded stream into per-procedure work
counts; wall time per layer is the end-to-end benchmark's business
(``benchmarks/e2e``), not the trace's.
"""

from __future__ import annotations

import json
import threading
from collections import Counter, deque
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

#: The closed set of event kinds (guarded in TraceEvent for typo safety).
EVENT_KINDS = frozenset(
    {
        "propagate",
        "td_summary_reuse",
        "bu_trigger",
        "bu_postponed",
        "bu_installed",
        "summary_instantiated",
        "prune_drop",
        "budget_exceeded",
        "store_hit",
        "store_miss",
        "store_invalidated",
    }
)


class TraceEvent:
    """One analysis event: a kind, the procedure it concerns, payload."""

    __slots__ = ("kind", "proc", "data")

    def __init__(self, kind: str, proc: str, data: Optional[dict] = None) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        self.kind = kind
        self.proc = proc
        self.data = data if data is not None else {}

    def get(self, key: str, default=None):
        return self.data.get(key, default)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "proc": self.proc}
        out.update(self.data)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceEvent":
        data = {
            key: value
            for key, value in payload.items()
            if key not in ("kind", "proc", "seq")
        }
        return cls(payload["kind"], payload.get("proc", ""), data)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        return cls.from_dict(json.loads(line))

    def __repr__(self) -> str:
        return f"TraceEvent({self.kind!r}, {self.proc!r}, {self.data!r})"


class TraceSink:
    """Protocol: receives :class:`TraceEvent` objects from the engines.

    ``enabled`` is checked *once per event site* by the engines; a sink
    with ``enabled = False`` never sees events and costs nothing beyond
    the predicate test (see :class:`NullSink`).
    """

    enabled = True

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default is a no-op
        pass

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullSink(TraceSink):
    """The zero-overhead default: engines skip event construction."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - fast path
        pass


#: Shared default instance (stateless).
NULL_SINK = NullSink()


class RingSink(TraceSink):
    """Bounded in-memory ring of the most recent events (thread-safe)."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.emitted = 0  # total, including evicted

    def emit(self, event: TraceEvent) -> None:
        with self._lock:
            self._events.append(event)
            self.emitted += 1

    @property
    def events(self) -> List[TraceEvent]:
        with self._lock:
            return list(self._events)

    @property
    def dropped(self) -> int:
        return self.emitted - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)


class JsonlSink(TraceSink):
    """Append events to a JSONL file, one deterministic line each.

    Lines carry a ``seq`` number assigned under the sink's lock, so a
    serial run writes a byte-identical file every time (events contain
    no wall-clock data; see module docstring).

    The file is flushed every ``flush_every`` events (as well as on
    :meth:`flush`/:meth:`close`), bounding how much a reader of a
    *live* trace lags behind — a long-lived daemon's trace used to
    stay empty until shutdown, and a crash lost every event.  Flushing
    never changes the bytes written, only when they reach the file, so
    serial traces stay byte-identical whatever the interval.
    """

    def __init__(
        self, path: Union[str, Path], flush_every: int = 128
    ) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be at least 1")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.flush_every = flush_every
        self._handle = self.path.open("w")
        self._lock = threading.Lock()
        self._seq = 0
        self._unflushed = 0

    def emit(self, event: TraceEvent) -> None:
        payload = event.to_dict()
        with self._lock:
            payload["seq"] = self._seq
            self._seq += 1
            self._handle.write(
                json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
            )
            self._unflushed += 1
            if self._unflushed >= self.flush_every:
                self._handle.flush()
                self._unflushed = 0

    def flush(self) -> None:
        """Push buffered lines to the file now (daemon checkpoints)."""
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._unflushed = 0

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()


def read_jsonl(path: Union[str, Path]) -> List[TraceEvent]:
    """Parse a :class:`JsonlSink` file back into events.

    A line that is not a JSON object with a ``kind`` raises
    ``ValueError`` naming the file and line.
    """
    events = []
    with Path(path).open() as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                payload = None
            if not isinstance(payload, dict) or "kind" not in payload:
                raise ValueError(f"{path}:{number}: not a JSON trace event")
            events.append(TraceEvent.from_dict(payload))
    return events


# -- per-procedure profiles ------------------------------------------------------------
class ProcProfile:
    """Work attribution for one procedure."""

    __slots__ = (
        "propagations",
        "fresh_contexts",
        "td_summary_reuses",
        "summary_instantiations",
        "pruned_relations",
        "bu_triggers",
        "bu_postponed",
        "bu_cases",
    )

    def __init__(self) -> None:
        self.propagations = 0  # path edges discovered at this proc's points
        self.fresh_contexts = 0  # callee contexts tabulated from scratch
        self.td_summary_reuses = 0  # call records served by existing contexts
        self.summary_instantiations = 0  # bottom-up summary applications
        self.pruned_relations = 0  # relations ranked out while summarizing
        self.bu_triggers = 0  # run_bu launches rooted here
        self.bu_postponed = 0  # triggers declined by postpone_unseen
        self.bu_cases = 0  # cases in the installed bottom-up summary

    @property
    def summary_hits(self) -> int:
        return self.td_summary_reuses + self.summary_instantiations

    @property
    def summary_hit_rate(self) -> Optional[float]:
        """Fraction of call handlings served by a summary (td or bu);
        ``None`` when the procedure was never called."""
        total = self.summary_hits + self.fresh_contexts
        if total == 0:
            return None
        return self.summary_hits / total

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Profile:
    """Per-procedure aggregation of a trace: :meth:`from_events` folds
    an event stream (a :class:`RingSink`'s events, or a JSONL file via
    :meth:`from_jsonl`) into one :class:`ProcProfile` per procedure."""

    def __init__(self) -> None:
        self.per_proc: Dict[str, ProcProfile] = {}
        self.event_counts: Counter = Counter()

    # -- construction -----------------------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "Profile":
        profile = cls()
        for event in events:
            profile.add_event(event)
        return profile

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "Profile":
        return cls.from_events(read_jsonl(path))

    def proc(self, name: str) -> ProcProfile:
        entry = self.per_proc.get(name)
        if entry is None:
            entry = self.per_proc[name] = ProcProfile()
        return entry

    def add_event(self, event: TraceEvent) -> None:
        self.event_counts[event.kind] += 1
        entry = self.proc(event.proc)
        kind = event.kind
        if kind == "propagate":
            entry.propagations += 1
            if event.get("via") == "call":
                entry.fresh_contexts += 1
        elif kind == "td_summary_reuse":
            entry.td_summary_reuses += 1
        elif kind == "summary_instantiated":
            entry.summary_instantiations += 1
        elif kind == "prune_drop":
            entry.pruned_relations += len(event.get("dropped", ()))
        elif kind == "bu_trigger":
            entry.bu_triggers += 1
        elif kind == "bu_postponed":
            entry.bu_postponed += 1
        elif kind == "bu_installed":
            entry.bu_cases += event.get("cases", 0)

    # -- views ------------------------------------------------------------------------
    @property
    def total_events(self) -> int:
        return sum(self.event_counts.values())

    def hottest(self, limit: int = 10) -> List[str]:
        """Procedures by propagation count (the tabulation work sinks)."""
        ranked = sorted(
            self.per_proc.items(),
            key=lambda item: (-item[1].propagations, item[0]),
        )
        return [name for name, _ in ranked[:limit]]

    def rows(self, limit: Optional[int] = None) -> List[list]:
        """Table rows for ``repro-swift trace summarize``."""
        procs = self.hottest(limit if limit is not None else len(self.per_proc))
        rows = []
        for name in procs:
            entry = self.per_proc[name]
            rate = entry.summary_hit_rate
            rows.append(
                [
                    name or "<program>",
                    entry.propagations,
                    entry.fresh_contexts,
                    entry.td_summary_reuses,
                    entry.summary_instantiations,
                    "-" if rate is None else f"{rate:.0%}",
                    entry.bu_triggers,
                    entry.bu_postponed,
                    entry.bu_cases,
                    entry.pruned_relations,
                ]
            )
        return rows

    HEADERS = [
        "proc",
        "propagations",
        "fresh ctx",
        "td reuse",
        "bu inst",
        "hit rate",
        "triggers",
        "postponed",
        "bu cases",
        "pruned",
    ]

    def render(self, limit: Optional[int] = None, title: str = "") -> str:
        from repro.experiments.harness import format_table

        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.event_counts.items())
        )
        table = format_table(self.HEADERS, self.rows(limit), title=title)
        return f"{table}\n\nevents: {self.total_events} ({kinds})"


def diff_traces(
    left: Iterable[TraceEvent], right: Iterable[TraceEvent]
) -> List[tuple]:
    """Compare two traces by per-(kind, proc) event counts.

    Returns ``[(kind, proc, left_count, right_count), ...]`` for every
    key whose counts differ — empty when the traces agree.
    """
    left_counts: Counter = Counter((e.kind, e.proc) for e in left)
    right_counts: Counter = Counter((e.kind, e.proc) for e in right)
    out = []
    for key in sorted(set(left_counts) | set(right_counts)):
        if left_counts[key] != right_counts[key]:
            kind, proc = key
            out.append((kind, proc, left_counts[key], right_counts[key]))
    return out
