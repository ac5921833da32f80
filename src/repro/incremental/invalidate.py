"""Fingerprint diffing, the invalidation rule, and warm-start assembly.

The invalidation rule (and why it is sound):

* A **top-down context** ``(g, σ)`` — its path-edge rows and the call
  records it spawned — is a pure function of ``σ``, ``g``'s body, and
  the bodies of ``g``'s transitive callees: tabulation explores the
  context the same way regardless of what the rest of the program
  does.  So a stored context survives exactly when ``g``'s *cone*
  fingerprint is unchanged, and dies with ``g``'s body or any body in
  its cone.
* A **bottom-up summary** of ``g`` is computed from the same inputs
  (``rtrans``/``rcomp`` over ``g`` and its callees), so the same rule
  applies.
* The **incoming multiset** ``M`` is pure ranking data for the
  FrequencyPruner — approximate by design — and is kept for surviving
  procedures only.

Surviving entries are injected through the engines' ``preload=`` hook
as a :class:`WarmStart`.  Contexts are *lazily activated*: a stored
context is only installed when the warm run actually demands it at a
call edge (or as the transitive child of an activated context), so
contexts that an upstream edit made unreachable are silently skipped
and a warm top-down run computes *exactly* the cold tables — rows,
exit index, call records, and entry counts (entry counts are the
record multiset, and activation replays the stored records).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.framework.bottomup import ProcedureSummary
from repro.incremental.codec import Codec
from repro.incremental.fingerprint import ProgramFingerprints, canonical_json
from repro.incremental.store import Snapshot
from repro.ir.cfg import ProgramPoint

#: Invalidation reasons, stable strings for trace events and tests.
REASON_BODY = "body-changed"
REASON_CONE = "cone-changed"
REASON_REMOVED = "removed"


@dataclass
class InvalidationPlan:
    """Outcome of diffing stored fingerprints against a new program."""

    valid: FrozenSet[str]  # stored entries may be trusted
    invalidated: Dict[str, str]  # proc -> reason (REASON_*)
    added: FrozenSet[str]  # procs with no stored fingerprint


def diff_fingerprints(
    stored: Mapping[str, Mapping[str, str]], current: ProgramFingerprints
) -> InvalidationPlan:
    """Classify every procedure under the invalidation rule."""
    valid = set()
    invalidated: Dict[str, str] = {}
    for proc, fps in stored.items():
        if proc not in current.body:
            invalidated[proc] = REASON_REMOVED
        elif fps.get("body") != current.body[proc]:
            invalidated[proc] = REASON_BODY
        elif fps.get("cone") != current.cone[proc]:
            invalidated[proc] = REASON_CONE
        else:
            valid.add(proc)
    added = frozenset(p for p in current.body if p not in stored)
    return InvalidationPlan(frozenset(valid), invalidated, added)


@dataclass
class WarmContext:
    """A decoded, trusted tabulation context ready for activation."""

    proc: str
    entry: object  # decoded entry state
    rows: List[Tuple[ProgramPoint, object]]
    records: List[Tuple[str, object, ProgramPoint]]  # (callee, σ_in, return point)


@dataclass
class StoredProc:
    """One procedure's stored entries in decoded form — one segment.

    ``contexts`` is in the segment's canonical order; ``bu`` and
    ``ranks`` are ``None`` when the segment has no ``bu`` / ``m``.
    """

    contexts: List[WarmContext]
    bu: Optional[ProcedureSummary] = None
    ranks: Optional[Counter] = None


@dataclass
class WarmStart:
    """What a ``preload=`` hook injects into an engine.

    Only entries of procedures whose full fingerprint matched are ever
    placed here (``build_warm_start`` filters by the plan), so an
    engine may trust everything it finds.  ``procs`` is the same
    entries grouped per procedure, which ``build_snapshot`` compares
    against the run's tables to reuse unchanged segments.
    """

    contexts: Dict[Tuple[str, object], WarmContext] = field(default_factory=dict)
    bu: Dict[str, ProcedureSummary] = field(default_factory=dict)
    ranks: Dict[str, Counter] = field(default_factory=dict)
    invalidated: Dict[str, str] = field(default_factory=dict)
    procs: Dict[str, StoredProc] = field(default_factory=dict)

    def context_count(self) -> int:
        return len(self.contexts)

    def add(self, proc: str, stored: StoredProc) -> None:
        self.procs[proc] = stored
        for ctx in stored.contexts:
            self.contexts[(proc, ctx.entry)] = ctx
        if stored.bu is not None:
            self.bu[proc] = stored.bu
        if stored.ranks is not None:
            self.ranks[proc] = stored.ranks


def _decode_proc(proc: str, payload: dict, codec: Codec) -> StoredProc:
    """Decode one segment payload."""
    decode = codec.decode_state
    contexts = []
    for enc_entry, enc_rows, enc_records in payload["contexts"]:
        contexts.append(
            WarmContext(
                proc,
                decode(enc_entry),
                [(ProgramPoint(proc, idx), decode(enc)) for idx, enc in enc_rows],
                [
                    (callee, decode(enc), ProgramPoint(proc, ret_idx))
                    for callee, enc, ret_idx in enc_records
                ],
            )
        )
    stored = StoredProc(contexts)
    if "bu" in payload:
        stored.bu = codec.decode_summary(payload["bu"])
    if "m" in payload:
        stored.ranks = Counter({decode(enc): n for enc, n in payload["m"]})
    return stored


def build_warm_start(
    snapshot: Snapshot, plan: InvalidationPlan, codec: Codec
) -> WarmStart:
    """Assemble the surviving segments of a snapshot into a
    :class:`WarmStart`.

    Segments are decoded at most once per snapshot: the decoded form is
    memoized in ``snapshot.decoded`` (which a save also fills from the
    run's own objects), so a resident snapshot re-diffed against an
    edited program only filters by ``plan.valid``.
    """
    warm = WarmStart(invalidated=dict(plan.invalidated))
    decoded = snapshot.decoded
    for proc in snapshot.segments:
        if proc not in plan.valid:
            continue
        stored = decoded.get(proc)
        if stored is None:
            stored = decoded[proc] = _decode_proc(
                proc, snapshot.payload(proc), codec
            )
        warm.add(proc, stored)
    return warm


class _RunTables:
    """A finished run's tables grouped per procedure (no encoding)."""

    def __init__(self, result) -> None:
        self.td = result.td
        self.call_records = result.call_records or {}
        self.bu = getattr(result, "bu", None) or {}
        self.counts = result.entry_counts
        self.activated = result.activated
        self._texts: Dict[object, str] = {}
        self.points: Dict[str, List[ProgramPoint]] = defaultdict(list)
        for point in self.td:
            self.points[point.proc].append(point)
        # A record ((callee, σ_in) ← (return point, caller entry)) was
        # created while tabulating the caller's context — file it there.
        self.records: Dict[str, List[tuple]] = defaultdict(list)
        for (callee, sigma_in), records in self.call_records.items():
            for return_point, caller_entry in records:
                self.records[return_point.proc].append(
                    (callee, sigma_in, return_point, caller_entry)
                )

    def procs(self):
        return (
            set(self.points) | set(self.records) | set(self.bu) | set(self.counts)
        )

    def matches(self, proc: str, stored: StoredProc) -> bool:
        """Would ``proc``'s segment, rebuilt from this run, equal the
        stored one?  O(contexts): no stored row is re-read.

        Rows and records: the run activated every stored context and
        they all stayed intact (``result.activated``), so the run's
        rows and records for ``proc`` contain the stored ones — equal
        counts then mean equal sets.  The summary: the run kept the
        very object it was preloaded with.  The multiset: every
        observed count is already covered by the stored maximum, so the
        merge in :func:`build_snapshot` leaves it as it was.
        """
        activated = self.activated
        contexts = stored.contexts
        for ctx in contexts:
            if (proc, ctx.entry) not in activated:
                return False
        td = self.td
        rows = sum(len(td[point]) for point in self.points.get(proc, ()))
        if rows != sum(len(ctx.rows) for ctx in contexts):
            return False
        if len(self.records.get(proc, ())) != sum(
            len(ctx.records) for ctx in contexts
        ):
            return False
        if self.bu.get(proc) is not stored.bu:
            return False
        observed = self.counts.get(proc)
        if observed is not None:
            ranks = stored.ranks
            if ranks is None:
                return False
            for sigma, n in observed.items():
                have = ranks.get(sigma)
                if have is None or have < n:
                    return False
        return True

    def encode(
        self, proc: str, old_m, codec: Codec
    ) -> Tuple[str, StoredProc]:
        """Encode ``proc``'s segment from this run's tables: its canonical
        text and the matching decoded entries built from the run's own
        objects, all in canonical order.

        ``old_m`` is the previous multiset (``None`` when there was
        none).  The text is assembled from per-state canonical JSON,
        memoized across the whole save, and equals the canonical JSON
        of the encoded payload: a list's canonical form is its items'
        canonical forms joined by commas.
        """
        state = self._state
        by_entry: Dict[object, Tuple[list, list]] = {}
        for point in self.points.get(proc, ()):
            index = point.index
            for entry, sigma in self.td[point]:
                rows = by_entry.get(entry)
                if rows is None:
                    rows = by_entry[entry] = ([], [])
                rows[0].append((f"[{index},{state(sigma, codec)}]", (point, sigma)))
        for callee, sigma_in, return_point, entry in self.records.get(proc, ()):
            rows = by_entry.get(entry)
            if rows is None:
                rows = by_entry[entry] = ([], [])
            text = state(sigma_in, codec)
            rows[1].append(
                (
                    f"[{json.dumps(callee)},{text},{return_point.index}]",
                    (callee, sigma_in, return_point),
                )
            )
        contexts = []
        for entry, (rows, records) in by_entry.items():
            rows.sort(key=_first)
            records.sort(key=_first)
            entry_text = state(entry, codec)
            contexts.append(
                (
                    entry_text,
                    f"[{entry_text},[{','.join(r[0] for r in rows)}],"
                    f"[{','.join(r[0] for r in records)}]]",
                    WarmContext(
                        proc, entry, [r[1] for r in rows], [r[1] for r in records]
                    ),
                )
            )
        contexts.sort(key=_first)
        stored = StoredProc([c[2] for c in contexts])
        parts = [f'"contexts":[{",".join(c[1] for c in contexts)}]']
        summary = self.bu.get(proc)
        if summary is not None:
            stored.bu = summary
            parts.insert(0, f'"bu":{canonical_json(codec.encode_summary(summary))}')
        observed = self.counts.get(proc)
        if observed is not None or old_m is not None:
            text, stored.ranks = self._encode_m(
                old_m or Counter(), observed or Counter(), codec
            )
            parts.append(f'"m":{text}')
        return "{" + ",".join(parts) + "}", stored

    def _encode_m(
        self, old: Counter, observed: Counter, codec: Codec
    ) -> Tuple[str, Counter]:
        """The stored ``M``: the per-state maximum of the old and observed
        counts, so ranking data degrades gracefully across warm runs
        that saw only part of the traffic (a warm SWIFT run bypasses
        calls its bottom-up summaries answer, which would otherwise
        shrink ``M`` every generation)."""
        merged = Counter(old)
        for sigma, n in observed.items():
            if n > merged.get(sigma, -1):
                merged[sigma] = n
        counts = sorted(
            [
                (f"[{self._state(sigma, codec)},{n}]", n, sigma)
                for sigma, n in merged.items()
            ],
            key=_first,
        )
        return (
            f"[{','.join(c[0] for c in counts)}]",
            Counter({sigma: n for _, n, sigma in counts}),
        )

    def _state(self, sigma, codec: Codec) -> str:
        """``sigma``'s canonical JSON text (memoized)."""
        got = self._texts.get(sigma)
        if got is None:
            got = self._texts[sigma] = canonical_json(codec.encode_state(sigma))
        return got


def _first(item):
    return item[0]


def _stored_ranks(snapshot: Snapshot, proc: str, codec: Codec) -> Optional[Counter]:
    """``proc``'s stored multiset, decoded (``None`` when it has none)."""
    stored = snapshot.decoded.get(proc)
    if stored is not None:
        return stored.ranks
    counts = snapshot.payload(proc).get("m")
    if counts is None:
        return None
    return Counter({codec.decode_state(enc): n for enc, n in counts})


def build_snapshot(
    config: dict,
    config_fp: str,
    fingerprints: ProgramFingerprints,
    result,
    codec: Codec,
    previous: Optional[Snapshot] = None,
    meta: Optional[dict] = None,
    warm: Optional[WarmStart] = None,
) -> Snapshot:
    """Serialize a finished run's tables into a snapshot.

    ``result`` is a :class:`~repro.framework.topdown.TopDownResult`
    (or ``SwiftResult``) with ``call_records`` populated.  ``previous``
    supplies the prior incoming multisets (merged per state by maximum,
    see :meth:`_RunTables.encode`; procedures the run never entered keep
    theirs while still in the program).

    ``warm`` is the warm start the run was given, loaded from
    ``previous``.  A procedure it offered whose rows, records, summary
    and multiset the run left as stored keeps ``previous``'s segment
    text verbatim (listed in ``Snapshot.reused``); every other segment
    is encoded.  Because a segment's text is a function of its entries
    alone, the bytes equal those of a save with nothing to reuse.  The
    new snapshot's ``decoded`` map is filled from the run's own objects,
    so a resident cache need not decode it back.
    """
    snap = Snapshot(
        config_fp=config_fp,
        config=config,
        fingerprints=fingerprints.as_dict(),
        meta=meta or {},
    )
    tables = _RunTables(result)
    procs = tables.procs()
    previous_segments = previous.segments if previous is not None else {}
    procs.update(p for p in previous_segments if p in fingerprints.body)
    offered = warm.procs if warm is not None and previous is not None else {}
    reused = []
    for proc in sorted(procs):
        stored = offered.get(proc)
        if stored is not None and tables.matches(proc, stored):
            snap.segments[proc] = previous_segments[proc]
            snap.decoded[proc] = stored
            reused.append(proc)
            continue
        old_m = None
        if proc in previous_segments:
            old_m = _stored_ranks(previous, proc, codec)
        text, stored = tables.encode(proc, old_m, codec)
        if text == '{"contexts":[]}':
            continue  # nothing stored for this procedure
        snap.segments[proc] = text
        snap.decoded[proc] = stored
    snap.reused = frozenset(reused)
    return snap
