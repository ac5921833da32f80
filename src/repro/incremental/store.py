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

The snapshot is the only file.  Demand queries (DESIGN §13) read it
through :func:`project_frontier`, a view that projects a procedure's
segment to its entry/exit rows the first time a query is offered that
procedure, so their decode cost scales with the frontier, not the
program.  Stores written before queries read the snapshot itself also
kept an entry/exit-only ``frontier-*.jsonl`` copy of every snapshot;
nothing reads those files, and :meth:`SummaryStore.gc` deletes them.

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
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple, Union

#: Bump on incompatible layout changes; mismatching snapshots load cold.
#: v2: snapshots gained companion entry/exit-only frontier projections
#: (``frontier-*.jsonl``, no longer written or read).  v3: one segment
#: line per procedure in place of one line per record.  Older stores
#: load cold — never wrong.
STORE_VERSION = 3

_PREFIX = "snapshot-"
_SUFFIX = ".jsonl"
#: Projections older stores wrote beside each snapshot (and their temp
#: files); ``gc`` deletes them.
_LEGACY_GLOB = f"frontier-*{_SUFFIX}*"

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
    one parsed segment at a time.  The remaining fields are bookkeeping
    for incremental saves and the resident decode cache, never written
    to disk.
    """

    config_fp: str
    config: dict
    fingerprints: Dict[str, Dict[str, str]]  # proc -> {"body","cone"}
    meta: dict = field(default_factory=dict)
    segments: Dict[str, str] = field(default_factory=dict)
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

    def payload(self, proc: str) -> Optional[dict]:
        """The parsed payload of ``proc``'s segment (``None`` if absent)."""
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


#: Canonical JSON sorts keys and ``"bu"`` sorts first among a payload's
#: keys, so exactly the segments carrying a bottom-up summary start so.
_BU_PREFIX = '{"bu":'


@dataclass
class FrontierSnapshot:
    """The entry/exit-only view of one snapshot, projected lazily.

    A demand query (DESIGN §13) consumes, per frontier procedure, the
    entry and exit rows of its stored contexts and its bottom-up
    summary, nothing else: frontier contexts cannot cascade, so call
    records and interior rows would be dead weight.  The view shares
    the snapshot's segment text; :meth:`payload` projects a procedure
    the first time it is asked for and keeps the result for every later
    caller.  ``available`` and ``bu_procs`` are decided without parsing
    (see :func:`project_frontier`).
    """

    segments: Mapping[str, str] = field(repr=False)
    exits: Mapping[str, int] = field(repr=False)
    #: Stored procedures that are still in the program.
    available: FrozenSet[str] = frozenset()
    #: The subset of ``available`` with a stored bottom-up summary.
    bu_procs: FrozenSet[str] = frozenset()
    #: Procedures projected so far (their entry/exit payloads).
    projected: Dict[str, dict] = field(default_factory=dict, repr=False)

    def payload(self, proc: str) -> Optional[dict]:
        """``proc``'s entry/exit rows and summary (``None`` if absent)."""
        got = self.projected.get(proc)
        if got is not None or proc not in self.available:
            return got
        stored = json.loads(self.segments[proc])
        keep = (0, self.exits[proc])
        payload: dict = {
            "contexts": [
                [entry, [row for row in rows if row[0] in keep]]
                for entry, rows, _ in stored["contexts"]
            ]
        }
        if "bu" in stored:
            payload["bu"] = stored["bu"]
        # Concurrent first touches may each project; all see the first.
        return self.projected.setdefault(proc, payload)


def project_frontier(
    snapshot: Snapshot, exit_indices: Mapping[str, int]
) -> FrontierSnapshot:
    """The frontier view of ``snapshot``; reads no file, parses nothing.

    ``exit_indices`` maps each procedure of the program being queried to
    its exit point index; contexts keep only their entry (index 0) and
    exit rows.  Stored procedures absent from it (no longer in the
    program) are not available; their fingerprints would not match
    anyway.
    """
    segments = snapshot.segments
    available = frozenset(p for p in segments if p in exit_indices)
    return FrontierSnapshot(
        segments,
        exit_indices,
        available,
        frozenset(p for p in available if segments[p].startswith(_BU_PREFIX)),
    )


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class SummaryStore:
    """Directory of snapshots, one per analysis configuration."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, config_fp: str) -> Path:
        return self.root / f"{_PREFIX}{config_fp[:32]}{_SUFFIX}"

    def snapshot_paths(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"{_PREFIX}*{_SUFFIX}"))

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
        self.root.mkdir(parents=True, exist_ok=True)
        token = f"{os.getpid()}-{threading.get_ident()}-{next(_TMP_TOKENS)}"
        tmp = path.with_name(f"{path.name}.tmp.{token}")
        tmp.write_bytes(snapshot.to_bytes())
        snapshot.signature = _stat_signature(tmp.stat())
        os.replace(tmp, path)
        return path

    # Resolved by name by the end-to-end benchmark's tracer
    # (benchmarks/e2e/trace.py); nothing calls them.
    load_frontier = load
    save_frontier = save

    # -- maintenance --------------------------------------------------------------------
    def stats(self) -> List[dict]:
        """One row per readable snapshot (unreadable ones are flagged)."""
        rows = []
        for path in self.snapshot_paths():
            row: dict = {"file": path.name, "bytes": path.stat().st_size}
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
        return rows

    def gc(self, keep: int = 8) -> List[Path]:
        """Drop all but the ``keep`` most recently written snapshots.

        Also removes stranded temp files from interrupted saves and the
        ``frontier-*.jsonl`` projections older stores kept.  Returns the
        deleted paths.
        """
        removed: List[Path] = []
        if self.root.is_dir():
            stale = itertools.chain(
                self.root.glob(f"{_PREFIX}*{_SUFFIX}.tmp.*"),
                self.root.glob(_LEGACY_GLOB),
            )
            for path in sorted(stale):
                path.unlink(missing_ok=True)
                removed.append(path)
        ranked: List[Tuple[float, Path]] = sorted(
            ((p.stat().st_mtime, p) for p in self.snapshot_paths()), reverse=True
        )
        for _, path in ranked[max(keep, 0):]:
            path.unlink(missing_ok=True)
            removed.append(path)
        return removed

    def clear(self) -> int:
        """Remove every snapshot, stranded temp file and legacy file."""
        return len(self.gc(keep=0))
