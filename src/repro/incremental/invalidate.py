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
as a :class:`WarmStart`, a view of the snapshot that decodes a segment
the first time a run asks for its procedure (:func:`stored_proc`, at
most once per snapshot).  Contexts are *lazily activated*: a stored
context is only activated when the warm run actually demands it at a
call edge (or as the transitive child of an activated context), so
contexts that an upstream edit made unreachable are silently skipped
and a warm top-down run computes *exactly* the cold tables — rows,
exit summaries, call records, and entry counts (entry counts are the
record multiset, and activation replays the stored records).  On a
finite domain the run reads an activated context in place: its rows
and records stay in the :class:`WarmContext`, and only the rows the run
tabulates itself go into its tables.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
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


class WarmContext:
    """One stored tabulation context of ``proc``, entered with ``entry``.

    It holds the context's path-edge ``rows`` (``(point, σ)``) and the
    call ``records`` it spawned (``(callee, σ_in, return point)``); an
    engine that activates it reads them in place (value mode copies
    them into its tables).  A context built from a run's own objects,
    or decoded for a whole-program run, holds both as plain lists.  One
    parsed for a demand cone keeps the segment's encoded lists in
    ``_enc`` and leaves ``rows``/``records`` unset until first read,
    when :meth:`__getattr__` decodes and sets them, so later reads cost
    a plain attribute read.  :meth:`ends` is its entry/exit-only,
    record-free twin, the form a cone consumes.  What runs derive from
    it — :meth:`exits`, :meth:`findings` — is memoized on it: a valid
    procedure's body, hence its exit point, is fixed, and a snapshot
    serves one domain.  Concurrent first reads may each compute; each
    sets a whole value.
    """

    __slots__ = (
        "proc", "entry", "rows", "records", "_enc", "_codec", "_ends", "_exits",
        "_findings",
    )

    def __init__(self, proc: str, entry, rows, records, enc=None, codec=None):
        self.proc = proc
        self.entry = entry
        if enc is None:
            self.rows = rows
            self.records = records
        self._enc = enc  # (encoded rows, encoded records), or None
        self._codec = codec
        self._ends: Optional[WarmContext] = None
        self._exits: Optional[list] = None
        self._findings = None

    def __getattr__(self, name: str):
        # Reached only for an unset slot: ``rows``/``records`` of a
        # context still in encoded form.
        if name == "rows":
            value = _decode_rows(self.proc, self._enc[0], self._codec)
        elif name == "records":
            value = _decode_records(self.proc, self._enc[1], self._codec)
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def ends(self, exit_index: int) -> "WarmContext":
        """The context cut to its entry (index 0) and exit rows, with no
        call records: a frontier context cannot cascade.  Memoized —
        a valid procedure's body, hence its exit index, is fixed."""
        ends = self._ends
        if ends is None:
            keep = (0, exit_index)
            enc = self._enc
            if enc is None:
                kept = [row for row in self.rows if row[0].index in keep]
            else:
                ends_enc = [row for row in enc[0] if row[0] in keep]
                kept = _decode_rows(self.proc, ends_enc, self._codec)
            ends = self._ends = WarmContext(self.proc, self.entry, kept, ())
        return ends

    def exits(self, cfgs) -> list:
        """The context's exit states (its summaries), memoized; ``cfgs``
        locates the exit point on the first call only."""
        exits = self._exits
        if exits is None:
            exit_point = cfgs.exit(self.proc)
            exits = self._exits = [s for point, s in self.rows if point == exit_point]
        return exits

    def findings(self, extract):
        """``extract(rows)``, the domain's findings among the context's
        rows, memoized."""
        found = self._findings
        if found is None:
            found = self._findings = extract(self.rows)
        return found


class StoredProc:
    """One procedure's stored entries — one segment — as runs read them.

    ``contexts`` maps each stored entry state to its :class:`WarmContext`,
    in the segment's canonical order; ``bu`` is ``None`` when the segment
    has no summary, ``ranks`` (the incoming multiset ``m``) when it has
    none.  Parsed for a demand cone, which never ranks, it keeps ``m``
    encoded in ``_m`` and decodes ``ranks`` on first read, as
    :class:`WarmContext` does its rows.
    """

    __slots__ = ("contexts", "bu", "ranks", "_m", "_codec")

    def __init__(self, contexts, bu=None, ranks=None, m=None, codec=None) -> None:
        self.contexts: Dict[object, WarmContext] = contexts
        self.bu: Optional[ProcedureSummary] = bu
        if m is None:
            self.ranks: Optional[Counter] = ranks
        self._m = m
        self._codec = codec

    def __getattr__(self, name: str):
        # Reached only for an unset slot: ``ranks`` still encoded.
        if name != "ranks":
            raise AttributeError(name)
        self.ranks = _decode_ranks(self._m, self._codec)
        return self.ranks


def _decode_rows(proc: str, items: list, codec: Codec) -> list:
    decode = codec.decode_state
    return [(ProgramPoint(proc, idx), decode(enc)) for idx, enc in items]


def _decode_records(proc: str, items: list, codec: Codec) -> list:
    decode = codec.decode_state
    return [
        (callee, decode(enc), ProgramPoint(proc, ret_idx))
        for callee, enc, ret_idx in items
    ]


def _decode_ranks(items: list, codec: Codec) -> Counter:
    decode = codec.decode_state
    return Counter({decode(enc): n for enc, n in items})


def stored_proc(
    snapshot: Snapshot, proc: str, codec: Codec, whole: bool = False
) -> Optional[StoredProc]:
    """``proc``'s segment of ``snapshot``, decoded — the one decoder.

    The segment is parsed the first time any run asks for it and the
    result memoized in ``snapshot.decoded``; its context entries and
    summary decode then.  Rows, records and ranks decode then too when
    the first to ask is a whole-program run (``whole``), which reads
    them all, so the parsed text is dropped at once; a demand cone's
    ask leaves them encoded until first read.  ``None`` when the
    snapshot holds no segment for ``proc``.  Concurrent first asks may
    each parse; all get the first result.
    """
    got = snapshot.decoded.get(proc)
    if got is not None:
        return got
    payload = snapshot.payload(proc)
    if payload is None:
        return None
    decode = codec.decode_state
    contexts = {}
    for enc_entry, enc_rows, enc_records in payload["contexts"]:
        entry = decode(enc_entry)
        if whole:
            contexts[entry] = WarmContext(
                proc,
                entry,
                _decode_rows(proc, enc_rows, codec),
                _decode_records(proc, enc_records, codec),
            )
        else:
            contexts[entry] = WarmContext(
                proc, entry, None, None, (enc_rows, enc_records), codec
            )
    bu, m = payload.get("bu"), payload.get("m")
    bu = None if bu is None else codec.decode_summary(bu)
    if m is None:
        stored = StoredProc(contexts, bu)
    elif whole:
        stored = StoredProc(contexts, bu, _decode_ranks(m, codec))
    else:
        stored = StoredProc(contexts, bu, m=m, codec=codec)
    return snapshot.decoded.setdefault(proc, stored)


class WarmStart:
    """What a ``preload=`` hook injects into an engine: one run's view of
    a snapshot, *offered* a set of procedures.

    Only procedures whose full fingerprint matched are ever offered, so
    an engine may trust everything it is served.  The offered gate is
    checked before the snapshot's memo is touched: a procedure decoded
    for another run is never served to a run not offered it.  Nothing is
    decoded until asked (:func:`stored_proc`).  Two forms:

    * whole-program (:func:`build_warm_start`, ``cfgs=None``): full
      contexts — rows and call records — and the ranking multisets;
    * a demand cone (:func:`~repro.query.engine.build_query_warm`,
      ``cfgs`` the program's CFGs): each context cut to its entry/exit
      rows with no call records (:meth:`WarmContext.ends`), and no
      ranks.

    Engines only read a view, and a view holds no state of its own
    beyond the offered set, so runs may share a snapshot concurrently.
    """

    __slots__ = ("snapshot", "offered", "invalidated", "_decoded", "_codec", "_cfgs")

    def __init__(
        self,
        snapshot: Snapshot,
        codec: Codec,
        offered: FrozenSet[str],
        invalidated: Mapping[str, str],
        cfgs=None,
    ) -> None:
        self.snapshot = snapshot
        self.offered = offered
        self.invalidated = invalidated
        self._decoded = snapshot.decoded
        self._codec = codec
        self._cfgs = cfgs

    def stored(self, proc: str) -> Optional[StoredProc]:
        """``proc``'s stored entries, or ``None`` when it is not offered
        or has no segment."""
        if proc not in self.offered:
            return None
        got = self._decoded.get(proc)  # the decoder's memo, read inline
        if got is None:
            got = stored_proc(self.snapshot, proc, self._codec, self._cfgs is None)
        return got

    def context(self, proc: str, entry) -> Optional[WarmContext]:
        """The stored context ``(proc, entry)`` in this view's form.  An
        engine asks once per call record it activates, so the decoder's
        memo is read inline here as in :meth:`stored`."""
        if proc not in self.offered:
            return None
        stored = self._decoded.get(proc)
        if stored is None:
            stored = stored_proc(self.snapshot, proc, self._codec, self._cfgs is None)
            if stored is None:
                return None
        ctx = stored.contexts.get(entry)
        if ctx is None or self._cfgs is None:
            return ctx
        return ctx.ends(self._cfgs.exit(proc).index)

    def summaries(self) -> Dict[str, ProcedureSummary]:
        """A fresh map of the offered procedures' stored summaries."""
        has_summary = self.snapshot.has_summary
        return {
            proc: self.stored(proc).bu
            for proc in sorted(self.offered)
            if has_summary(proc)
        }

    def ranks(self, proc: str) -> Optional[Counter]:
        """``proc``'s stored incoming multiset (cones never rank)."""
        stored = self.stored(proc) if self._cfgs is None else None
        return None if stored is None else stored.ranks

    @property
    def instantiations(self) -> Dict:
        """The snapshot's shared summary-instantiation memo."""
        return self.snapshot.instantiations


def build_warm_start(
    snapshot: Snapshot, plan: InvalidationPlan, codec: Codec
) -> WarmStart:
    """A whole-program run's view of ``snapshot``: offered every
    procedure ``plan`` kept valid, with full contexts.  Decodes
    nothing: segments decode when the run first asks for them, at most
    once per snapshot, so a resident snapshot re-diffed against an
    edited program serves what it already decoded."""
    return WarmStart(snapshot, codec, plan.valid, plan.invalidated)


#: Canonical JSON texts of the states saves have encoded, per domain.  A
#: text is a pure function of the state, and the same states recur in
#: every save of a snapshot's lineage, so a save encodes only states no
#: earlier save met.  Bounded by clear-on-overflow, like
#: ``repro.framework.topdown.state_sort_key``.
_STATE_TEXTS: Dict[str, Dict[object, str]] = {}
_STATE_TEXT_LIMIT = 1 << 16


class _RunTables:
    """A finished run's tables grouped per procedure (no encoding): its
    fresh rows and records, and the stored contexts it read in place."""

    def __init__(self, result, codec: Codec) -> None:
        self.fresh = result.fresh
        self.bu = getattr(result, "bu", None) or {}
        self.counts = result.entry_counts
        self.activated = result.activated
        self.codec = codec
        self._texts = _STATE_TEXTS.setdefault(codec.domain, {})
        if len(self._texts) >= _STATE_TEXT_LIMIT:
            self._texts.clear()
        self.points: Dict[str, List[ProgramPoint]] = defaultdict(list)
        for point in self.fresh:
            self.points[point.proc].append(point)
        # A record ((callee, σ_in) ← (return point, caller entry)) was
        # created while tabulating the caller's context — file it there.
        self.records: Dict[str, List[tuple]] = defaultdict(list)
        for (callee, sigma_in), records in result.call_records.items():
            for return_point, caller_entry in records:
                self.records[return_point.proc].append(
                    (callee, sigma_in, return_point, caller_entry)
                )
        self.in_place: Dict[str, List[WarmContext]] = defaultdict(list)
        for ctx in result.stored.values():
            self.in_place[ctx.proc].append(ctx)

    def procs(self):
        return (
            set(self.points)
            | set(self.records)
            | set(self.in_place)
            | set(self.bu)
            | set(self.counts)
        )

    def matches(self, proc: str, stored: StoredProc) -> bool:
        """Would ``proc``'s segment, rebuilt from this run, equal the
        stored one?  No stored row is re-read.

        Rows and records: when the run read every stored context of
        ``proc`` in place (finite domains; they are the stored ones by
        count, since it read nothing else), the segment is unchanged
        unless the run tabulated rows or records of its own there — one
        test, O(1).  Otherwise value mode installed the contexts: they
        must all be activated and still intact (``result.activated``),
        so the tables contain the stored rows and records, and equal
        counts then mean equal sets.  The summary: the run kept the very
        object it was preloaded with.  The multiset: every observed
        count is already covered by the stored maximum, so the merge in
        :func:`build_snapshot` leaves it as it was.
        """
        contexts = stored.contexts
        if len(self.in_place.get(proc, ())) == len(contexts):
            if proc in self.points or proc in self.records:
                return False
        else:
            activated = self.activated
            for entry in contexts:
                if (proc, entry) not in activated:
                    return False
            fresh = self.fresh
            rows = sum(len(fresh[point]) for point in self.points.get(proc, ()))
            if rows != sum(len(ctx.rows) for ctx in contexts.values()):
                return False
            if len(self.records.get(proc, ())) != sum(
                len(ctx.records) for ctx in contexts.values()
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
        self, proc: str, old_m, bu_text: Optional[str] = None
    ) -> Tuple[str, StoredProc]:
        """Encode ``proc``'s segment from this run's tables: its canonical
        text and the matching decoded entries, all in canonical order.
        A context the run read in place is encoded from its stored
        rows and records and kept as the same object (with its memos);
        the others are built from the run's own objects.

        ``old_m`` is the previous multiset (``None`` when there was
        none).  ``bu_text`` is the summary's canonical text when the run
        kept the stored summary object, cut from the previous segment
        (:func:`_summary_text`) rather than encoded again.  The text is
        assembled from per-state canonical JSON, memoized across saves
        (``_STATE_TEXTS``), and equals the canonical JSON of the encoded
        payload: a list's canonical form is its items' canonical forms
        joined by commas.
        """
        state = self._state
        by_entry: Dict[object, Tuple[list, list]] = {}
        for point in self.points.get(proc, ()):
            for entry, sigma in self.fresh[point]:
                rows = by_entry.get(entry)
                if rows is None:
                    rows = by_entry[entry] = ([], [])
                rows[0].append((point, sigma))
        for callee, sigma_in, return_point, entry in self.records.get(proc, ()):
            rows = by_entry.get(entry)
            if rows is None:
                rows = by_entry[entry] = ([], [])
            rows[1].append((callee, sigma_in, return_point))
        kept = {ctx.entry: ctx for ctx in self.in_place.get(proc, ())}
        for entry, ctx in kept.items():
            by_entry[entry] = (ctx.rows, ctx.records)
        contexts = []
        for entry, (rows, records) in by_entry.items():
            rows = sorted(
                (
                    (f"[{point.index},{state(sigma)}]", (point, sigma))
                    for point, sigma in rows
                ),
                key=_first,
            )
            records = sorted(
                (
                    (
                        f"[{json.dumps(callee)},{state(sigma_in)},"
                        f"{return_point.index}]",
                        (callee, sigma_in, return_point),
                    )
                    for callee, sigma_in, return_point in records
                ),
                key=_first,
            )
            entry_text = state(entry)
            ctx = kept.get(entry)
            if ctx is None:
                ctx = WarmContext(
                    proc, entry, [r[1] for r in rows], [r[1] for r in records]
                )
            contexts.append(
                (
                    entry_text,
                    f"[{entry_text},[{','.join(r[0] for r in rows)}],"
                    f"[{','.join(r[0] for r in records)}]]",
                    ctx,
                )
            )
        contexts.sort(key=_first)
        parts = [f'"contexts":[{",".join(c[1] for c in contexts)}]']
        summary = self.bu.get(proc)
        if summary is not None:
            if bu_text is None:
                bu_text = canonical_json(self.codec.encode_summary(summary))
            parts.insert(0, f'"bu":{bu_text}')
        observed = self.counts.get(proc)
        ranks = None
        if observed is not None or old_m is not None:
            text, ranks = self._encode_m(old_m or Counter(), observed or Counter())
            parts.append(f'"m":{text}')
        stored = StoredProc({c[2].entry: c[2] for c in contexts}, summary, ranks)
        return "{" + ",".join(parts) + "}", stored

    def _encode_m(self, old: Counter, observed: Counter) -> Tuple[str, Counter]:
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
                (f"[{self._state(sigma)},{n}]", n, sigma)
                for sigma, n in merged.items()
            ],
            key=_first,
        )
        return (
            f"[{','.join(c[0] for c in counts)}]",
            Counter({sigma: n for _, n, sigma in counts}),
        )

    def _state(self, sigma) -> str:
        """``sigma``'s canonical JSON text (memoized)."""
        got = self._texts.get(sigma)
        if got is None:
            got = self._texts[sigma] = canonical_json(self.codec.encode_state(sigma))
        return got


def _first(item):
    return item[0]


_DECODER = json.JSONDecoder()


def _summary_text(segment: str) -> str:
    """The canonical text of the summary in ``segment``, which starts
    ``{"bu":`` (canonical JSON sorts ``"bu"`` first)."""
    return segment[6 : _DECODER.raw_decode(segment, 6)[1]]


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

    ``warm`` is the warm start the run was given, a view of
    ``previous``.  A procedure it offered whose rows, records, summary
    and multiset the run left as stored keeps ``previous``'s segment
    text verbatim (listed in ``Snapshot.reused``); every other segment
    is encoded.  Because a segment's text is a function of its entries
    alone, the bytes equal those of a save with nothing to reuse.  The
    new snapshot's ``decoded`` map is filled from the run's own objects,
    so a resident cache need not decode it back, and its instantiation
    memo keeps ``previous``'s entries for every summary the run kept as
    the same object (:func:`_surviving_instantiations`).
    """
    snap = Snapshot(
        config_fp=config_fp,
        config=config,
        fingerprints=fingerprints.as_dict(),
        meta=meta or {},
    )
    tables = _RunTables(result, codec)
    procs = tables.procs()
    previous_segments = previous.segments if previous is not None else {}
    procs.update(p for p in previous_segments if p in fingerprints.body)
    reuse = warm is not None and previous is not None
    reused = []
    for proc in sorted(procs):
        stored = warm.stored(proc) if reuse else None
        if stored is not None and tables.matches(proc, stored):
            snap.segments[proc] = previous_segments[proc]
            snap.decoded[proc] = stored
            reused.append(proc)
            continue
        old_m = bu_text = None
        if proc in previous_segments:
            old_m = stored_proc(previous, proc, codec).ranks
        summary = tables.bu.get(proc)
        if summary is not None and stored is not None and summary is stored.bu:
            bu_text = _summary_text(previous_segments[proc])
        text, stored = tables.encode(proc, old_m, bu_text)
        if text == '{"contexts":[]}':
            continue  # nothing stored for this procedure
        snap.segments[proc] = text
        snap.decoded[proc] = stored
    snap.reused = frozenset(reused)
    if previous is not None:
        snap.instantiations = _surviving_instantiations(previous, snap)
    return snap


def _surviving_instantiations(previous: Snapshot, snap: Snapshot) -> Dict:
    """``previous``'s instantiation memo cut to the callees whose summary
    ``snap`` keeps as the very same object.  An instantiation is a pure
    function of the summary and σ, so those entries stay exact; a
    recomputed or invalidated summary loses its entries.  The memo is
    copied in one call first: a concurrent run over ``previous`` may be
    adding to it."""
    memo = previous.instantiations.copy()
    old = previous.decoded
    kept = set()
    for proc, stored in snap.decoded.items():
        was = old.get(proc)
        if stored.bu is not None and was is not None and was.bu is stored.bu:
            kept.add(proc)
    return {key: outputs for key, outputs in memo.items() if key[0] in kept}
