"""The versioned on-disk summary store.

Layout: one JSONL snapshot per analysis configuration under the store
root, named ``snapshot-<config fp prefix>.jsonl``.  Line 1 is a header
(store version, config fingerprint + description, per-procedure body
and cone fingerprints, producer metadata, and a ``segments`` manifest
of each segment's CRC-32); every further line is one procedure's
**segment**, ``<proc>\\t<canonical JSON payload>``, sorted by name.  A
payload holds, in the canonical encoded form of
:mod:`repro.incremental.codec`:

* ``contexts`` — the procedure's top-down tabulation contexts, each
  ``[σ_entry, rows, records]`` with path-edge rows
  ``[[point index, σ], ...]`` and the call records the context spawned
  ``[[callee, σ_in, return index], ...]``;
* ``bu`` — its installed bottom-up summary ``(R, Σ)``, when it has one;
* ``m`` — its incoming-state multiset ``[[σ, n], ...]`` (the
  FrequencyPruner's ranking data), when it has one.

Every list is sorted by serialized text, so ``load`` followed by
``save`` reproduces the file byte for byte (property-tested), and a
segment's text is a function of that procedure's stored entries alone.
That is what makes saves incremental: a :class:`Snapshot` carries each
segment's text, and :func:`~repro.incremental.invalidate.build_snapshot`
copies the text of every procedure a run left unchanged instead of
re-encoding it (DESIGN §9).

Every full snapshot has a companion **frontier snapshot** —
``frontier-<config fp prefix>.jsonl`` — the entry/exit-only projection
the demand-query path (DESIGN §13) decodes instead of the full file.
Its line format is per procedure too: after the JSON header, each line
is ``<proc>\\t<canonical JSON of that proc's entry/exit contexts + BU
summary>``, so a reader wanting only a cone's frontier procedures can
select lines by the name prefix without JSON-parsing the rest — decode
cost scales with the frontier, not the program.  Frontier files are a
pure projection of their parent snapshot: they are written right after
it (copying the previous projection's line for every reused segment),
swept with it by :meth:`SummaryStore.gc`, and a missing or corrupt
frontier degrades to decoding the full snapshot, never to a wrong
answer.

Robustness: ``save`` writes to a temp file in the same directory and
``os.replace``s it into place, so concurrent readers only ever see a
complete snapshot.  ``load`` returns ``None`` — the cold-start signal —
for missing files, JSON/structure errors, segments that fail their
CRC or are missing, duplicated or unknown to the header, and version
or fingerprint mismatches; a corrupt store can cost a warm start, never
correctness.  Both directions record the file's identity
``(inode, mtime, size)`` as :attr:`Snapshot.signature`: ``load`` from
the open descriptor it read, ``save`` from the temp file before the
rename (which keeps all three), so a racing writer's file can never be
taken for the one in hand.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

#: Bump on incompatible layout changes; mismatching snapshots load cold.
#: v2: snapshots gained companion entry/exit-only frontier projections
#: (``frontier-*.jsonl``).  v3: one segment line per procedure in
#: place of one line per record.  Older stores load cold — never wrong.
STORE_VERSION = 3

_PREFIX = "snapshot-"
_FRONTIER_PREFIX = "frontier-"
_SUFFIX = ".jsonl"

#: Monotonic token distinguishing temp files written by concurrent
#: saves in one process.  A pid alone is not unique under threads: two
#: threads saving the same snapshot would share a tmp path, interleave
#: their writes, and ``os.replace`` each other's partial bytes.
_TMP_TOKENS = itertools.count()

#: What a malformed file raises while parsing (``json.JSONDecodeError``
#: and ``UnicodeDecodeError`` are ``ValueError`` subclasses).
_PARSE_ERRORS = (ValueError, KeyError, TypeError, AttributeError)

#: A file's identity: ``(st_ino, st_mtime_ns, st_size)``.
Signature = Tuple[int, int, int]


def _stat_signature(stat: os.stat_result) -> Signature:
    return (stat.st_ino, stat.st_mtime_ns, stat.st_size)


def file_signature(path: Path) -> Optional[Signature]:
    """The identity of the file at ``path``, or ``None`` when absent."""
    try:
        return _stat_signature(path.stat())
    except OSError:
        return None


def _crc(data: bytes) -> str:
    return format(zlib.crc32(data), "08x")


@dataclass
class Snapshot:
    """One configuration's stored analysis results, one segment per
    procedure.

    ``segments`` maps each procedure to its payload's canonical JSON
    text — the part of its line after the tab.  A load checks every
    segment against the header's CRC manifest but parses none:
    :meth:`payload` parses on demand, so decoding a warm start holds
    one parsed segment at a time.  ``payloads`` keeps the parsed form a
    fresh encode built, for the frontier projection written next.  The
    remaining fields are bookkeeping for incremental saves and the
    resident decode cache, never written to disk.
    """

    config_fp: str
    config: dict
    fingerprints: Dict[str, Dict[str, str]]  # proc -> {"body","cone"}
    meta: dict = field(default_factory=dict)
    segments: Dict[str, str] = field(default_factory=dict)
    payloads: Dict[str, dict] = field(default_factory=dict, repr=False)
    #: Procedures whose segment text was copied from the previous
    #: snapshot rather than re-encoded (set by ``build_snapshot``).
    reused: FrozenSet[str] = frozenset()
    #: Identity of the file this snapshot was read from or written to.
    signature: Optional[Signature] = None
    #: Per-procedure decoded entries, filled by
    #: :func:`~repro.incremental.invalidate.build_warm_start` (decoding)
    #: and ``build_snapshot`` (from the run's own objects); the store
    #: never reads it.
    decoded: Dict[str, object] = field(default_factory=dict, repr=False)
    #: The frontier projection written next to this snapshot, whose
    #: lines the next projection copies for reused segments.
    frontier: Optional["FrontierSnapshot"] = field(default=None, repr=False)

    def payload(self, proc: str) -> Optional[dict]:
        """The parsed payload of ``proc``'s segment (``None`` if absent)."""
        got = self.payloads.get(proc)
        if got is not None:
            return got
        text = self.segments.get(proc)
        return None if text is None else json.loads(text)

    def to_lines(self) -> List[str]:
        procs = sorted(self.segments)
        lines = [
            _canon(
                {
                    "kind": "header",
                    "version": STORE_VERSION,
                    "config_fp": self.config_fp,
                    "config": self.config,
                    "fingerprints": self.fingerprints,
                    "meta": self.meta,
                    "segments": {
                        p: _crc(self.segments[p].encode("utf-8")) for p in procs
                    },
                }
            )
        ]
        lines.extend(f"{proc}\t{self.segments[proc]}" for proc in procs)
        return lines

    def to_bytes(self) -> bytes:
        return ("\n".join(self.to_lines()) + "\n").encode("utf-8")

    @staticmethod
    def from_bytes(data: bytes) -> "Snapshot":
        """Parse a snapshot; raises ``ValueError`` on any malformation."""
        if not data.endswith(b"\n"):
            raise ValueError("snapshot is empty or truncated")
        lines = data[:-1].split(b"\n")
        header = json.loads(lines[0])
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise ValueError("first line is not a snapshot header")
        if header.get("version") != STORE_VERSION:
            raise ValueError(f"unsupported store version {header.get('version')!r}")
        snap = Snapshot(
            config_fp=header["config_fp"],
            config=header["config"],
            fingerprints=header["fingerprints"],
            meta=header.get("meta", {}),
        )
        manifest = header["segments"]
        for line in lines[1:]:
            name, sep, raw = line.partition(b"\t")
            if not sep:
                raise ValueError("segment without proc prefix")
            proc = name.decode("utf-8")
            if proc in snap.segments:
                raise ValueError(f"duplicate segment for {proc!r}")
            if proc not in snap.fingerprints:
                raise ValueError(f"segment for unknown procedure {proc!r}")
            if manifest.get(proc) != _crc(raw):
                raise ValueError(f"segment for {proc!r} fails its checksum")
            snap.segments[proc] = raw.decode("utf-8")
        if len(snap.segments) != len(manifest):
            raise ValueError("snapshot is missing segments")
        return snap


@dataclass
class FrontierSnapshot:
    """The entry/exit-only projection of one full snapshot.

    Holds, per procedure, the encoded entry/exit path-edge rows of every
    stored context (call records dropped) and the encoded BU summary.
    That is exactly what a demand-query warm start consumes for its
    frontier procedures (DESIGN §13): the trimmed contexts cannot
    cascade (no records), so interior rows would be dead weight.

    ``procs`` may be *partial*: :meth:`SummaryStore.load_frontier` with
    a ``procs=`` filter materializes only the requested procedures
    (the rest of the file is skipped without JSON parsing), while
    ``fingerprints`` always covers the whole program so invalidation
    diffs stay exact.

    With ``lazy=True`` even the requested procedures stay as raw JSON
    text until :meth:`payload` is asked for them — a warm start then
    parses exactly the procedures the solve demands.  The header's
    ``bu_procs`` manifest records which procedures carry a bottom-up
    summary, so membership and counting never force a parse.
    """

    config_fp: str
    config: dict
    fingerprints: Dict[str, Dict[str, str]]  # proc -> {"body","cone"}
    procs: Dict[str, dict] = field(default_factory=dict)  # proc -> payload
    meta: dict = field(default_factory=dict)
    #: From the header when loaded; ``None`` means "derive from procs"
    #: (freshly projected snapshots that never hit disk).
    bu_procs: Optional[List[str]] = None
    #: Unparsed payload text, filled by a ``lazy=True`` load.
    _raw: Dict[str, str] = field(default_factory=dict, repr=False)

    def available(self) -> FrozenSet[str]:
        """Every procedure this (possibly partial) projection holds."""
        # Raw text first: a concurrent first parse stores the payload
        # before dropping the text, so no procedure slips between.
        raw = frozenset(self._raw)
        return raw | frozenset(self.procs)

    def bu_manifest(self) -> List[str]:
        """Procedures with a stored bottom-up summary, parse-free."""
        if self.bu_procs is not None:
            return self.bu_procs
        return sorted(
            p for p, pl in self.procs.items() if pl.get("bu") is not None
        )

    def payload(self, proc: str) -> Optional[dict]:
        """The payload for ``proc``, parsing (and memoizing) lazily.

        Raises ``ValueError`` on a corrupt payload line — a lazy load
        defers JSON validation to here, so corruption discovered this
        late is a loud failure, never a silently wrong answer.
        """
        got = self.procs.get(proc)
        if got is not None:
            return got
        raw = self._raw.get(proc)
        if raw is None:
            # A concurrent first touch may have moved it in between.
            return self.procs.get(proc)
        try:
            parsed = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"corrupt frontier payload for {proc!r}: {exc}"
            ) from exc
        # Store before dropping the text, so a procedure is in at least
        # one of the two maps at every instant (a reader racing this
        # first touch finds it in one or the other, never in neither).
        parsed = self.procs.setdefault(proc, parsed)
        self._raw.pop(proc, None)
        return parsed

    def text(self, proc: str) -> Optional[str]:
        """The canonical payload text for ``proc`` (``None`` if absent)."""
        raw = self._raw.get(proc)
        if raw is not None:
            return raw
        got = self.procs.get(proc)
        return None if got is None else _canon(got)

    def to_lines(self) -> List[str]:
        lines = [
            _canon(
                {
                    "kind": "frontier-header",
                    "version": STORE_VERSION,
                    "config_fp": self.config_fp,
                    "config": self.config,
                    "fingerprints": self.fingerprints,
                    "meta": self.meta,
                    "bu_procs": self.bu_manifest(),
                }
            )
        ]
        for proc in sorted(self.available()):
            lines.append(f"{proc}\t{self.text(proc)}")
        return lines

    def to_bytes(self) -> bytes:
        return ("\n".join(self.to_lines()) + "\n").encode("utf-8")

    @staticmethod
    def from_bytes(
        data: bytes,
        procs: Optional[Iterable[str]] = None,
        lazy: bool = False,
    ) -> "FrontierSnapshot":
        """Parse a frontier file; raises ``ValueError`` on malformation.

        With ``procs`` given, only those procedures' payload lines are
        JSON-parsed — every other line costs one ``str.partition``.
        With ``lazy=True`` even the selected lines are kept as raw
        text (structure-checked only) and parsed by :meth:`payload`
        on first demand.
        """
        lines = data.decode("utf-8").splitlines()
        if not lines:
            raise ValueError("empty frontier snapshot")
        header = json.loads(lines[0])
        if not isinstance(header, dict) or header.get("kind") != "frontier-header":
            raise ValueError("first line is not a frontier header")
        if header.get("version") != STORE_VERSION:
            raise ValueError(f"unsupported store version {header.get('version')!r}")
        wanted = None if procs is None else frozenset(procs)
        snap = FrontierSnapshot(
            config_fp=header["config_fp"],
            config=header["config"],
            fingerprints=header["fingerprints"],
            meta=header.get("meta", {}),
            bu_procs=header.get("bu_procs", []),
        )
        for line in lines[1:]:
            name, sep, payload = line.partition("\t")
            if not sep:
                raise ValueError("frontier record without proc prefix")
            if wanted is not None and name not in wanted:
                continue
            if lazy:
                snap._raw[name] = payload
            else:
                snap.procs[name] = json.loads(payload)
        return snap


def project_frontier(
    snapshot: Snapshot,
    exit_indices: Mapping[str, int],
    previous: Optional[FrontierSnapshot] = None,
) -> FrontierSnapshot:
    """Project a full snapshot down to its frontier form.

    ``exit_indices`` maps each procedure to its exit point index (from
    the program's CFGs); contexts keep only their entry (index 0) and
    exit rows.  Procedures absent from ``exit_indices`` — stored data
    for procedures no longer in the program — are dropped; their
    fingerprints won't match anyway.

    ``previous`` is the projection of the snapshot ``snapshot`` was
    built from: a procedure whose segment was reused verbatim
    (``snapshot.reused``) has the same contexts, summary and exit index
    as then, so its line is copied instead of re-projected.
    """
    frontier = FrontierSnapshot(
        config_fp=snapshot.config_fp,
        config=snapshot.config,
        fingerprints=snapshot.fingerprints,
        meta=snapshot.meta,
        bu_procs=[],
    )
    reused = snapshot.reused if previous is not None else frozenset()
    previous_bu = frozenset(previous.bu_manifest()) if reused else frozenset()
    for proc in sorted(snapshot.segments):
        if proc not in exit_indices:
            continue
        if proc in reused:
            text = previous.text(proc)
            if text is not None:
                frontier._raw[proc] = text
            if proc in previous_bu:
                frontier.bu_procs.append(proc)
            continue
        payload = snapshot.payload(proc)
        summary = payload.get("bu")
        if not payload["contexts"] and summary is None:
            continue
        keep = (0, exit_indices[proc])
        projected: dict = {
            "contexts": [
                [entry, [row for row in rows if row[0] in keep]]
                for entry, rows, _ in payload["contexts"]
            ]
        }
        if summary is not None:
            projected["bu"] = summary
            frontier.bu_procs.append(proc)
        frontier._raw[proc] = _canon(projected)
    return frontier


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class SummaryStore:
    """Directory of snapshots, one per analysis configuration."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, config_fp: str) -> Path:
        return self.root / f"{_PREFIX}{config_fp[:32]}{_SUFFIX}"

    def frontier_path_for(self, config_fp: str) -> Path:
        return self.root / f"{_FRONTIER_PREFIX}{config_fp[:32]}{_SUFFIX}"

    def snapshot_paths(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"{_PREFIX}*{_SUFFIX}"))

    def frontier_paths(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"{_FRONTIER_PREFIX}*{_SUFFIX}"))

    # -- load/save ----------------------------------------------------------------------
    def load(self, config_fp: str) -> Optional[Snapshot]:
        """The snapshot for a configuration, or ``None`` (cold start).

        Any read/parse problem — a missing, truncated, corrupt, or
        version-mismatched file, or one whose header fingerprint does
        not match its name — degrades to a cold start.
        """
        try:
            with open(self.path_for(config_fp), "rb") as fh:
                signature = _stat_signature(os.fstat(fh.fileno()))
                data = fh.read()
        except OSError:
            return None
        try:
            snap = Snapshot.from_bytes(data)
        except _PARSE_ERRORS:
            return None
        if snap.config_fp != config_fp:
            return None
        snap.signature = signature
        return snap

    def save(self, snapshot: Snapshot) -> Path:
        """Atomically write ``snapshot`` (readers never see a partial file).

        The temp name carries pid, thread id, and a monotonic token, so
        concurrent saves — threads in one daemon as much as separate
        processes — each write their own complete file and the final
        ``os.replace`` is a race only over *which* complete snapshot
        wins, never over partial bytes.  The ``.tmp.`` infix keeps
        :meth:`gc`'s stranded-temp glob matching.  The written file's
        identity is taken from the temp file before the rename and
        recorded as ``snapshot.signature``.
        """
        path = self.path_for(snapshot.config_fp)
        snapshot.signature = self._write(path, snapshot.to_bytes())
        return path

    def _write(self, path: Path, data: bytes) -> Signature:
        self.root.mkdir(parents=True, exist_ok=True)
        token = f"{os.getpid()}-{threading.get_ident()}-{next(_TMP_TOKENS)}"
        tmp = path.with_name(f"{path.name}.tmp.{token}")
        tmp.write_bytes(data)
        signature = _stat_signature(tmp.stat())
        os.replace(tmp, path)
        return signature

    def load_frontier(
        self,
        config_fp: str,
        procs: Optional[Iterable[str]] = None,
        lazy: bool = False,
    ) -> Optional[FrontierSnapshot]:
        """The frontier projection for a configuration, or ``None``.

        Same degradation contract as :meth:`load` — any problem costs
        the caller a full-snapshot decode (or a cold start), never a
        wrong answer.  With ``procs`` given, only those procedures are
        materialized; ``lazy=True`` additionally defers their JSON
        parse to :meth:`FrontierSnapshot.payload`.
        """
        path = self.frontier_path_for(config_fp)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            snap = FrontierSnapshot.from_bytes(data, procs=procs, lazy=lazy)
        except _PARSE_ERRORS:
            return None
        if snap.config_fp != config_fp:
            return None
        return snap

    def save_frontier(self, frontier: FrontierSnapshot) -> Path:
        """Atomically write a frontier projection (same contract as
        :meth:`save`)."""
        path = self.frontier_path_for(frontier.config_fp)
        self._write(path, frontier.to_bytes())
        return path

    # -- maintenance --------------------------------------------------------------------
    def stats(self) -> List[dict]:
        """One row per readable snapshot (unreadable ones are flagged).

        Snapshot rows carry their companion frontier projection's size
        under ``frontier``; a frontier file whose parent snapshot is
        gone gets its own row flagged ``orphan_frontier`` (gc removes
        those).
        """
        rows = []
        claimed_frontiers = set()
        for path in self.snapshot_paths():
            row: dict = {"file": path.name, "bytes": path.stat().st_size}
            frontier_path = self.root / (
                _FRONTIER_PREFIX + path.name[len(_PREFIX):]
            )
            if frontier_path.is_file():
                claimed_frontiers.add(frontier_path.name)
                row["frontier"] = {
                    "file": frontier_path.name,
                    "bytes": frontier_path.stat().st_size,
                    "procs": max(
                        0, len(frontier_path.read_bytes().splitlines()) - 1
                    ),
                }
            try:
                snap = Snapshot.from_bytes(path.read_bytes())
                payloads = [snap.payload(proc) for proc in snap.segments]
            except _PARSE_ERRORS + (OSError,):
                row["corrupt"] = True
                rows.append(row)
                continue
            config = snap.config
            row.update(
                {
                    "config_fp": snap.config_fp,
                    "engine": config.get("engine"),
                    "domain": config.get("domain"),
                    "property": (config.get("property") or {}).get("name"),
                    "procedures": len(snap.fingerprints),
                    "contexts": sum(len(p["contexts"]) for p in payloads),
                    "td_rows": sum(
                        len(rows) for p in payloads for _, rows, _ in p["contexts"]
                    ),
                    "bu_summaries": sum("bu" in p for p in payloads),
                    "meta": snap.meta,
                }
            )
            rows.append(row)
        for path in self.frontier_paths():
            if path.name not in claimed_frontiers:
                rows.append(
                    {
                        "file": path.name,
                        "bytes": path.stat().st_size,
                        "orphan_frontier": True,
                    }
                )
        return rows

    def gc(self, keep: int = 8) -> List[Path]:
        """Drop all but the ``keep`` most recently written snapshots.

        Frontier projections are swept with their parent snapshot:
        ranking counts full snapshots only, each dropped parent takes
        its frontier file along, and a frontier whose parent is gone is
        removed as an orphan.  Also removes stranded temp files from
        interrupted saves.  Returns the deleted paths.
        """
        removed: List[Path] = []
        if self.root.is_dir():
            for prefix in (_PREFIX, _FRONTIER_PREFIX):
                for tmp in self.root.glob(f"{prefix}*{_SUFFIX}.tmp.*"):
                    tmp.unlink(missing_ok=True)
                    removed.append(tmp)
        ranked: List[Tuple[float, Path]] = sorted(
            ((p.stat().st_mtime, p) for p in self.snapshot_paths()), reverse=True
        )
        for _, path in ranked[max(keep, 0):]:
            path.unlink(missing_ok=True)
            removed.append(path)
            frontier = self.root / (_FRONTIER_PREFIX + path.name[len(_PREFIX):])
            if frontier.is_file():
                frontier.unlink(missing_ok=True)
                removed.append(frontier)
        surviving = {p.name[len(_PREFIX):] for p in self.snapshot_paths()}
        for path in self.frontier_paths():
            if path.name[len(_FRONTIER_PREFIX):] not in surviving:
                path.unlink(missing_ok=True)
                removed.append(path)
        return removed

    def clear(self) -> int:
        """Remove every snapshot, frontier file, and stranded temp file."""
        return len(self.gc(keep=0))
