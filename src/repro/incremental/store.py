"""The versioned on-disk summary store.

Layout: one JSONL snapshot per analysis configuration under the store
root, named ``snapshot-<config fp prefix>.jsonl``.  A file is a
**base** followed by an append-only **log**.

The base: line 1 is a header (store version, config fingerprint +
description, per-procedure body and cone fingerprints, producer
metadata, and a ``segments`` manifest of each segment's CRC-32); the
next lines are one procedure's **segment** each,
``<proc>\\t<canonical JSON payload>``, sorted by name.  A payload
holds, in the canonical encoded form of
:mod:`repro.incremental.codec`:

* ``contexts`` — the procedure's top-down tabulation contexts, each
  ``[σ_entry, rows, records]`` with path-edge rows
  ``[[point index, σ], ...]`` and the call records the context spawned
  ``[[callee, σ_in, return index], ...]``;
* ``bu`` — its installed bottom-up summary ``(R, Σ)``, when it has one;
* ``m`` — its incoming-state multiset ``[[σ, n], ...]`` (the
  FrequencyPruner's ranking data), when it has one.

Every list is sorted by serialized text, so a base read back and
written again is byte-identical (property-tested), and a segment's
text is a function of that procedure's stored entries alone.  That is
what makes saves incremental: a :class:`Snapshot` carries each
segment's text, and :func:`~repro.incremental.invalidate.build_snapshot`
copies the text of every procedure a run left unchanged instead of
re-encoding it (DESIGN §9).

The log: each save that extends the version a file holds appends, in
one write, the segment lines whose text changed followed by one
**manifest record** ``["<crc>",{...}]``: the CRC-32 of the JSON object
after it, which names the version it extends (``extends``: the CRC of
the base's header line for the first record — the base's identity —
and of the record before it after that, so records chain back to
their base), the changed body/cone fingerprints, the CRCs of the
segment lines just appended, the procedures dropped from the program,
and the producer metadata.  :meth:`Snapshot.from_bytes`
replays the records in order onto the base and stops at the first one
that is torn, fails a checksum, does not name exactly the segment
lines before it, or extends something else; what it returns is the version as of the last
intact record — the previous version or the newest, never a mix.

Saves: :meth:`SummaryStore.save` appends when the snapshot was built
from the version the file holds (``previous``, whose recorded file
identity and log end still match the file under an exclusive
``fcntl.flock``, with the path re-checked to name the locked inode),
and the log stays no larger than its base.  Every other save — a cold
one, a file rewritten by another writer, or a log that would outgrow
its base — writes the snapshot's base alone to a temp file in the same
directory and ``os.replace``s it into place, so readers only ever see
a complete base; that is also how :meth:`SummaryStore.compact` (and
``store gc``) folds a log away.  The compaction rule keeps every file
at or under twice its base's size.

The snapshot is the only file, and a load parses no segment.
Whole-program runs and demand queries (DESIGN §13) alike read it
through one lazy per-procedure view
(:class:`~repro.incremental.invalidate.WarmStart`): a segment is
parsed and decoded the first time any run asks for its procedure, and
the result is memoized on the :class:`Snapshot` (``decoded``), so
decode cost scales with what the runs touch, not the program.  Stores
written before queries read the snapshot itself also kept an
entry/exit-only ``frontier-*.jsonl`` copy of every snapshot; nothing
reads those files, and :meth:`SummaryStore.gc` deletes them.

Robustness: ``load`` returns ``None`` — the cold-start signal — for
missing files, a base with JSON/structure errors, segments that fail
their CRC or are missing, duplicated or unknown to the header, and
version or fingerprint mismatches; a corrupt store can cost a warm
start, never correctness.  Both directions record the file's identity
``(inode, mtime, size)`` as :attr:`Snapshot.signature`: ``load`` from
the open descriptor it read, a full save from the temp file before the
rename (which keeps all three), an append from the locked descriptor
after writing, so a racing writer's file can never be taken for the
one in hand.
"""

from __future__ import annotations

import fcntl
import itertools
import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

#: Bump on incompatible layout changes; mismatching snapshots load cold.
#: v2: snapshots gained companion entry/exit-only frontier projections
#: (``frontier-*.jsonl``, no longer written or read).  v3: one segment
#: line per procedure in place of one line per record.  v4: an
#: append-only log of changed segments and manifest records after the
#: base.  Older stores load cold — never wrong.
STORE_VERSION = 4

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


@dataclass(frozen=True)
class LogPosition:
    """Where a snapshot's version sits in its file."""

    #: Identity of the version: the CRC of the last replayed record, or
    #: of the base's header line when there is none.
    tip: str
    base_bytes: int  # size of the base: header plus its segment lines
    end: int  # offset just past the last replayed record
    appends: int  # records replayed: saves appended since the base

    @staticmethod
    def of_base(header: bytes, size: int) -> "LogPosition":
        """The position just past a base of ``size`` bytes whose header
        line is ``header``."""
        return LogPosition(_crc(header), size, size, 0)


@dataclass
class Snapshot:
    """One configuration's stored analysis results, one segment per
    procedure.

    ``segments`` maps each procedure to its payload's canonical JSON
    text — the part of its line after the tab.  A load checks every
    segment against its CRC but parses none: :meth:`payload` parses on
    demand, one segment at a time.  The remaining fields are
    bookkeeping for incremental saves and the resident decode cache,
    never written to disk.
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
    #: Where this version sits in that file (``None`` until read or
    #: written); a save appends only after a known position.
    log: Optional[LogPosition] = None
    #: Bytes the save that wrote this snapshot wrote (0 if none did).
    written: int = 0
    #: Per-procedure decoded entries, filled by
    #: :func:`~repro.incremental.invalidate.stored_proc` (decoding on
    #: first ask) and ``build_snapshot`` (from the run's own objects);
    #: the store never reads it.
    decoded: Dict[str, object] = field(default_factory=dict, repr=False)
    #: SWIFT's ``(callee, σ) -> outputs`` instantiations of the summaries
    #: in ``decoded`` (``None`` for an ignored σ), shared by every run
    #: over this snapshot (see :class:`~repro.framework.swift.SwiftEngine`)
    #: and kept by the next save for every summary it keeps.
    instantiations: Dict = field(default_factory=dict, repr=False)

    def payload(self, proc: str) -> Optional[dict]:
        """The parsed payload of ``proc``'s segment (``None`` if absent)."""
        text = self.segments.get(proc)
        return None if text is None else json.loads(text)

    def has_summary(self, proc: str) -> bool:
        """Does ``proc``'s segment hold a bottom-up summary?  Parse-free:
        canonical JSON sorts keys and ``"bu"`` sorts first among a
        payload's, so exactly those segments start so."""
        return self.segments.get(proc, "").startswith('{"bu":')

    def lines(self) -> Iterator[str]:
        """The lines of this snapshot's base (the compacted file), one
        at a time: a full save writes them as they come."""
        procs = sorted(self.segments)
        yield _canon(
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
        for proc in procs:
            yield f"{proc}\t{self.segments[proc]}"

    def to_bytes(self) -> bytes:
        """The bytes of this snapshot's base."""
        return ("\n".join(self.lines()) + "\n").encode("utf-8")

    def log_record(self, previous: "Snapshot") -> Optional[Tuple[bytes, str]]:
        """What to append to a file holding ``previous`` so that it
        replays to this snapshot: the changed segment lines plus their
        manifest record, and the record's CRC.

        ``None`` when ``previous`` has no known position, when the
        change is not a log record's to make (another configuration, or
        a segment gone from a procedure still in the program), and —
        the compaction rule — when the record would grow the log past
        the size of its base: the file is then rewritten as one base.
        """
        position = previous.log
        if position is None or previous.config_fp != self.config_fp:
            return None
        segments, fingerprints = self.segments, self.fingerprints
        old_segments, old_fps = previous.segments, previous.fingerprints
        if any(p not in segments and p in fingerprints for p in old_segments):
            return None
        # Reused segments share their text object: ``!=`` is an
        # identity test for them.
        changed = sorted(
            p for p, text in segments.items() if old_segments.get(p) != text
        )
        body = _canon(
            {
                "extends": position.tip,
                "fingerprints": {
                    p: fps
                    for p, fps in fingerprints.items()
                    if old_fps.get(p) != fps
                },
                "segments": {
                    p: _crc(segments[p].encode("utf-8")) for p in changed
                },
                "dropped": sorted(p for p in old_fps if p not in fingerprints),
                "meta": self.meta,
            }
        )
        tip = _crc(body.encode("utf-8"))
        parts: List[str] = []
        for p in changed:
            parts += (p, "\t", segments[p], "\n")
        parts.append(f'["{tip}",{body}]\n')
        data = "".join(parts).encode("utf-8")
        if position.end - position.base_bytes + len(data) > position.base_bytes:
            return None
        return data, tip

    @staticmethod
    def from_bytes(data: bytes) -> "Snapshot":
        """Parse a snapshot: its base, then every intact log record.

        Raises ``ValueError`` when the base is malformed; a bad log
        record only ends the replay (see the module docstring).
        """
        lines = data.split(b"\n")
        lines.pop()  # the text after the last newline: empty, or torn
        if not lines:
            raise ValueError("snapshot is empty or truncated")
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
        count = len(manifest) + 1
        if len(lines) < count:
            raise ValueError("snapshot is missing segments")
        for line in lines[1:count]:
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
        base_bytes = sum(map(len, lines[:count])) + count  # with newlines
        snap.log = LogPosition.of_base(lines[0], base_bytes)
        snap._replay(lines, count)
        return snap

    def _replay(self, lines: List[bytes], first: int) -> None:
        """Apply the log records in ``lines[first:]`` in order, stopping
        at the first one that does not extend the version in hand."""
        position = self.log
        at = position.end
        pending: Dict[str, bytes] = {}  # segment lines awaiting a record
        for line in lines[first:]:
            at += len(line) + 1
            try:
                name, sep, raw = line.partition(b"\t")
                if sep:
                    proc = name.decode("utf-8")
                    if proc in pending:
                        return
                    pending[proc] = raw
                    continue
                applied = self._apply_record(line, position, pending)
            except _PARSE_ERRORS:
                return
            if applied is None:
                return
            position = self.log = LogPosition(
                applied, position.base_bytes, at, position.appends + 1
            )
            pending = {}

    def _apply_record(
        self, line: bytes, position: LogPosition, pending: Mapping[str, bytes]
    ) -> Optional[str]:
        """Apply one manifest record to this snapshot when it is intact,
        extends ``position`` and names exactly the ``pending`` lines;
        returns its CRC, or ``None`` (leaving the snapshot untouched)."""
        if line[:2] != b'["' or line[10:12] != b'",' or line[-1:] != b"]":
            return None
        tip, body = line[2:10].decode("ascii"), line[12:-1]
        if _crc(body) != tip:
            return None
        record = json.loads(body)
        if record["extends"] != position.tip:
            return None
        names: Dict[str, str] = record["segments"]
        if set(names) != set(pending):
            return None
        dropped = set(record["dropped"])
        fingerprints = {
            p: fps for p, fps in self.fingerprints.items() if p not in dropped
        }
        fingerprints.update(record["fingerprints"])
        texts = {}
        for proc, crc in names.items():
            raw = pending[proc]
            if _crc(raw) != crc or proc not in fingerprints:
                return None
            texts[proc] = raw.decode("utf-8")
        for proc in dropped:
            self.segments.pop(proc, None)
        self.segments.update(texts)
        self.fingerprints = fingerprints
        self.meta = record["meta"]
        return tip


#: The lazy segment read under the name the frontier projection had;
#: resolved by name by the end-to-end benchmark's tracer
#: (benchmarks/e2e/trace.py), nothing calls it.
project_frontier = Snapshot.payload


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

        Any read/parse problem with the base — a missing, truncated,
        corrupt, or version-mismatched file, or one whose header
        fingerprint does not match its name — degrades to a cold start;
        a damaged log tail loads the last intact version.  Exactly the
        bytes the signature describes are read.
        """
        try:
            with open(self.path_for(config_fp), "rb") as fh:
                signature = _stat_signature(os.fstat(fh.fileno()))
                data = fh.read(signature[2])
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

    def save(
        self, snapshot: Snapshot, previous: Optional[Snapshot] = None
    ) -> Path:
        """Write ``snapshot``; readers never see a partial version.

        With ``previous`` — the snapshot ``snapshot`` was built from —
        the save appends the changed segments and one manifest record to
        the file when it still holds exactly ``previous``'s version and
        the log stays within its base's size (:meth:`_append`).
        Otherwise it writes the base alone through a temp file and
        ``os.replace``.  The temp name carries pid, thread id, and a
        monotonic token, so concurrent saves — threads in one daemon as
        much as separate processes — each write their own complete file
        and the final ``os.replace`` is a race only over *which*
        complete snapshot wins, never over partial bytes.  The ``.tmp.``
        infix keeps :meth:`gc`'s stranded-temp glob matching.  The
        written file's identity is recorded as ``snapshot.signature``,
        its position as ``snapshot.log`` and the bytes written as
        ``snapshot.written``.
        """
        path = self.path_for(snapshot.config_fp)
        if previous is not None:
            record = snapshot.log_record(previous)
            if record is not None and self._append(
                path, snapshot, previous, *record
            ):
                return path
        self._write_base(path, snapshot)
        return path

    def _append(
        self,
        path: Path,
        snapshot: Snapshot,
        previous: Snapshot,
        data: bytes,
        tip: str,
    ) -> bool:
        """Append ``data`` (``snapshot``'s log record over ``previous``)
        in one write under an exclusive lock; ``False`` when the file no
        longer holds exactly ``previous``'s version."""
        position = previous.log
        try:
            fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        except OSError:
            return False
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            stat = os.fstat(fd)
            current = file_signature(path)
            if (
                _stat_signature(stat) != previous.signature
                or stat.st_size != position.end
                or current is None
                or current[0] != stat.st_ino
            ):
                return False
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            snapshot.signature = _stat_signature(os.fstat(fd))
        finally:
            os.close(fd)  # releases the lock
        snapshot.log = LogPosition(
            tip, position.base_bytes, position.end + len(data), position.appends + 1
        )
        snapshot.written = len(data)
        return True

    def _write_base(self, path: Path, snapshot: Snapshot) -> None:
        """Atomically replace ``path`` with ``snapshot``'s base alone."""
        self.root.mkdir(parents=True, exist_ok=True)
        token = f"{os.getpid()}-{threading.get_ident()}-{next(_TMP_TOKENS)}"
        tmp = path.with_name(f"{path.name}.tmp.{token}")
        lines = snapshot.lines()
        header = next(lines).encode("utf-8")
        size = len(header) + 1
        with open(tmp, "wb") as fh:
            fh.write(header + b"\n")
            for line in lines:  # one segment in memory at a time
                size += fh.write(line.encode("utf-8"))
                size += fh.write(b"\n")
        snapshot.signature = _stat_signature(tmp.stat())
        os.replace(tmp, path)
        snapshot.log = LogPosition.of_base(header, size)
        snapshot.written = size

    # Resolved by name by the end-to-end benchmark's tracer
    # (benchmarks/e2e/trace.py); nothing calls them.
    load_frontier = load
    save_frontier = save

    # -- maintenance --------------------------------------------------------------------
    def stats(self) -> List[dict]:
        """One row per readable snapshot (unreadable ones are flagged).

        ``bytes`` is the file's size, ``log_bytes`` what follows its
        base and ``appends`` the saves appended since the base.
        """
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
                    "log_bytes": row["bytes"] - snap.log.base_bytes,
                    "appends": snap.log.appends,
                    "meta": snap.meta,
                }
            )
            rows.append(row)
        return rows

    def compact(self) -> List[Path]:
        """Rewrite every snapshot that carries a log as the base of the
        version it replays to, byte-identical to a full save of that
        version.  Holds the file's lock meanwhile, so an appender
        waiting on it finds the path renamed and writes in full.
        Returns the compacted paths; unreadable files are left for
        ``load`` to ignore."""
        compacted: List[Path] = []
        for path in self.snapshot_paths():
            try:
                fh = open(path, "rb")
            except OSError:
                continue
            with fh:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
                data = fh.read()
                try:
                    snap = Snapshot.from_bytes(data)
                except _PARSE_ERRORS:
                    continue
                if snap.log.base_bytes == len(data):
                    continue  # nothing to fold
                self._write_base(path, snap)
            compacted.append(path)
        return compacted

    def gc(self, keep: int = 8) -> List[Path]:
        """Drop all but the ``keep`` most recently written snapshots.

        Also removes stranded temp files from interrupted saves and the
        ``frontier-*.jsonl`` projections older stores kept.  Returns the
        deleted paths.  A negative ``keep`` raises ``ValueError`` before
        anything is deleted.
        """
        if keep < 0:
            raise ValueError(f"keep must be at least 0, not {keep}")
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
        for _, path in ranked[keep:]:
            path.unlink(missing_ok=True)
            removed.append(path)
        return removed

    def clear(self) -> int:
        """Remove every snapshot, stranded temp file and legacy file."""
        return len(self.gc(keep=0))
