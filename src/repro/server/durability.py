"""Durable per-session segment logs for the multi-process router.

The router's re-homing journal (PR 5) lives in router memory: a dead
*worker* is survivable, a dead *router* loses every session.  This module
makes the journal durable.  Each session owns a directory of append-only
**segment files** under a ``data_dir``; every record the router intends to
acknowledge — the open payload, every accepted edit — is framed, written,
and fsync'd *before* the acknowledgement leaves the router (the
log-before-ack invariant, enforced lexically by lint rule RL009).

Format
------
A segment is a flat sequence of frames::

    <length: u32 LE> <crc32: u32 LE> <payload: length bytes of UTF-8 JSON>

The JSON payload is ``{"kind": ..., ...}`` where ``kind`` is ``"open"``,
``"edit"`` or ``"snapshot"``.  CRC32 covers the payload bytes only, so a
torn tail (partial header, short payload, or payload that does not match
its CRC) is detected and *skipped with a counted warning* — recovery never
raises on a corrupt tail, it surfaces the skip count instead.

Compaction mirrors the in-memory journal compaction: a new segment is
started whose first record is a ``snapshot`` (the session's open payload
refreshed with a schema-DSL snapshot from
:meth:`repro.server.service.ValidationService.snapshot_schema`), the old
segments are deleted, and the edit window restarts empty.  Recovery is
therefore always *snapshot-load + delta replay*: read segments in order,
let the latest snapshot reset the baseline, replay the edits after it.

Fault injection
---------------
``_write_frame`` is the single seam between the log and the filesystem.
The fault harness monkeypatches it to simulate ``ENOSPC``; the log turns
any failed write into a :class:`StorageError` *after* truncating the
segment back to its last durable frame, so a failed append never leaves a
half-frame that a later append would bury mid-segment.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO

#: Frame header: payload length then CRC32 of the payload, little-endian.
_FRAME = struct.Struct("<II")

#: Record kinds.  ``open``/``edit`` mirror the wire verbs; ``snapshot`` is
#: a compacted baseline (an open payload with a refreshed ``schema_dsl``).
KIND_OPEN = "open"
KIND_EDIT = "edit"
KIND_SNAPSHOT = "snapshot"

_SEGMENT_SUFFIX = ".seg"


class StorageError(RuntimeError):
    """An append could not be made durable (disk full, I/O error).

    The router maps this to a typed wire error *instead of acknowledging*:
    an edit that was never durably logged must never be acked.
    """


def _write_frame(handle: BinaryIO, data: bytes) -> None:
    """Write one framed record's bytes.  Monkeypatch target for fault tests."""
    handle.write(data)


def _encode_session_dir(session_name: str) -> str:
    """Hex-encode a session name into a filesystem-safe directory name."""
    return session_name.encode("utf-8").hex()


def _decode_session_dir(dir_name: str) -> str:
    return bytes.fromhex(dir_name).decode("utf-8")


def _fsync_dir(directory: Path) -> None:
    """fsync a directory, making the entries that name its files durable.

    A file's own fsync covers its data, not the directory entry that names
    it: after a power loss a freshly created segment (or session
    directory) could vanish, and an unlinked one reappear.
    """
    fd = os.open(directory, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _frame(record: dict[str, Any]) -> bytes:
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _read_frames(data: bytes) -> tuple[list[dict[str, Any]], int]:
    """Decode frames from raw segment bytes.

    Returns ``(records, skipped)`` where ``skipped`` counts undecodable
    frames (torn header, short payload, CRC mismatch, bad JSON).  Decoding
    stops at the first bad frame — anything after it has no trustworthy
    frame boundary.
    """
    records: list[dict[str, Any]] = []
    offset = 0
    while offset < len(data):
        header = data[offset : offset + _FRAME.size]
        if len(header) < _FRAME.size:
            return records, 1
        length, crc = _FRAME.unpack(header)
        payload = data[offset + _FRAME.size : offset + _FRAME.size + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            return records, 1
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return records, 1
        if not isinstance(record, dict):
            return records, 1
        records.append(record)
        offset += _FRAME.size + length
    return records, 0


@dataclass
class RecoveredSession:
    """One session reconstructed from its segment log."""

    name: str
    open_payload: dict[str, Any]
    edits: list[dict[str, Any]] = field(default_factory=list)
    #: Records skipped because of torn writes / CRC mismatches.
    skipped_records: int = 0


@dataclass
class RecoveryReport:
    """Everything :meth:`LogStore.recover` could reconstruct."""

    sessions: list[RecoveredSession] = field(default_factory=list)
    #: Total undecodable records across all sessions — each one was
    #: skipped with a counted warning rather than a traceback.
    skipped_records: int = 0
    #: Session directories that held no decodable ``open``/``snapshot``
    #: baseline at all (e.g. the open itself was torn) and were dropped.
    dropped_sessions: int = 0


class SessionLog:
    """The append-only segment log of a single session.

    All mutation goes through :meth:`append` / :meth:`append_batch` /
    :meth:`compact`; each returns only after the bytes are fsync'd, which
    is what lets the router acknowledge the corresponding wire request.
    """

    def __init__(self, directory: Path, session_name: str) -> None:
        self._directory = directory
        self._name = session_name
        created = not self._directory.is_dir()
        self._directory.mkdir(parents=True, exist_ok=True)
        existing = sorted(self._directory.glob(f"*{_SEGMENT_SUFFIX}"))
        if existing:
            self._segment_index = int(existing[-1].stem)
            self._handle: BinaryIO = open(existing[-1], "ab")
        else:
            self._segment_index = 1
            self._handle = open(self._segment_path(1), "ab")
            _fsync_dir(self._directory)  # the first segment's entry
        if created:
            _fsync_dir(self._directory.parent)  # the session directory's entry

    @property
    def name(self) -> str:
        return self._name

    @property
    def directory(self) -> Path:
        return self._directory

    def _segment_path(self, index: int) -> Path:
        return self._directory / f"{index:08d}{_SEGMENT_SUFFIX}"

    def append(self, kind: str, payload: dict[str, Any]) -> int:
        """Durably append one record (write + flush + fsync).

        Returns the segment offset *before* the record, usable with
        :meth:`rollback_to` to undo a pre-dispatch append whose request
        the worker then rejected.
        """
        return self.append_batch([(kind, payload)])

    def append_batch(self, records: list[tuple[str, dict[str, Any]]]) -> int:
        """Durably append several records under a single fsync.

        On any write failure the segment is truncated back to its length
        before the batch, so the log never accumulates a half-written
        frame mid-file, and :class:`StorageError` is raised — the caller
        must *not* acknowledge the corresponding request.  Returns the
        offset before the batch (see :meth:`append`).
        """
        data = b"".join(_frame({"kind": kind, **payload}) for kind, payload in records)
        start = self._handle.tell()
        try:
            _write_frame(self._handle, data)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as exc:
            self._rewind(start)
            raise StorageError(f"append to session log failed: {exc}") from exc
        return start

    def rollback_to(self, offset: int) -> None:
        """Truncate back to an offset returned by :meth:`append`.

        Only valid for the *last* append (the caller holds the session
        lock, so nothing can have appended in between).
        """
        self._rewind(offset)

    def _rewind(self, offset: int) -> None:
        """Best-effort truncate back to the last durable frame boundary."""
        try:
            self._handle.truncate(offset)
            self._handle.seek(offset)
        except OSError:
            # The torn tail stays on disk; recovery skips it by CRC.
            pass

    def compact(self, snapshot_payload: dict[str, Any]) -> None:
        """Start a fresh segment from a snapshot record, drop old segments.

        The new segment — its data *and* its directory entry — is durable
        before any old segment is removed, so a crash or power loss at any
        point leaves at least one decodable baseline.
        """
        next_index = self._segment_index + 1
        path = self._segment_path(next_index)
        handle: BinaryIO = open(path, "ab")
        try:
            _write_frame(handle, _frame({"kind": KIND_SNAPSHOT, **snapshot_payload}))
            handle.flush()
            os.fsync(handle.fileno())
            _fsync_dir(self._directory)
        except OSError as exc:
            handle.close()
            path.unlink(missing_ok=True)
            raise StorageError(f"compaction snapshot failed: {exc}") from exc
        old_handle, old_index = self._handle, self._segment_index
        self._handle, self._segment_index = handle, next_index
        old_handle.close()
        for index in range(1, old_index + 1):
            self._segment_path(index).unlink(missing_ok=True)
        _fsync_dir(self._directory)

    def close(self) -> None:
        self._handle.close()

    def delete(self) -> None:
        """Remove the whole session directory (session closed cleanly)."""
        self._handle.close()
        _remove_session_dir(self._directory)


def _remove_session_dir(directory: Path) -> None:
    """Unlink a session's segments and its directory, durably."""
    for path in directory.glob(f"*{_SEGMENT_SUFFIX}"):
        path.unlink(missing_ok=True)
    try:
        directory.rmdir()
    except OSError:
        # A non-segment stray keeps the dir; recovery ignores it.
        _fsync_dir(directory)
    else:
        _fsync_dir(directory.parent)


class LogStore:
    """All session logs under one ``data_dir``."""

    def __init__(self, data_dir: str | Path) -> None:
        self._root = Path(data_dir)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    def open_log(self, session_name: str) -> SessionLog:
        """Create (or reopen) the segment log for a session."""
        return SessionLog(self._root / _encode_session_dir(session_name), session_name)

    def discard(self, session_name: str) -> None:
        """Drop a session's log without needing an open handle."""
        directory = self._root / _encode_session_dir(session_name)
        if directory.is_dir():
            _remove_session_dir(directory)

    def recover(self) -> RecoveryReport:
        """Reconstruct every session from its segments: snapshot + deltas.

        Never raises on corrupt data — torn or CRC-failed records are
        skipped and counted, sessions with no decodable baseline are
        dropped and counted.
        """
        report = RecoveryReport()
        for directory in sorted(self._root.iterdir()):
            if not directory.is_dir():
                continue
            try:
                name = _decode_session_dir(directory.name)
            except ValueError:
                continue
            session = self._recover_session(directory, name)
            report.skipped_records += session.skipped_records
            if session.open_payload:
                report.sessions.append(session)
            else:
                report.dropped_sessions += 1
        return report

    def _recover_session(self, directory: Path, name: str) -> RecoveredSession:
        session = RecoveredSession(name=name, open_payload={})
        for path in sorted(directory.glob(f"*{_SEGMENT_SUFFIX}")):
            try:
                data = path.read_bytes()
            except OSError:
                session.skipped_records += 1
                continue
            records, skipped = _read_frames(data)
            session.skipped_records += skipped
            for record in records:
                kind = record.get("kind")
                payload = {key: value for key, value in record.items() if key != "kind"}
                if kind in (KIND_OPEN, KIND_SNAPSHOT):
                    session.open_payload = payload
                    session.edits = []
                elif kind == KIND_EDIT:
                    session.edits.append(payload)
                else:
                    session.skipped_records += 1
        return session
