"""Unit suite for the CRC-framed segment log (repro.server.durability).

The fault harness exercises these through a live router; this file pins
the primitives in isolation — frame encoding, torn-tail semantics,
rollback, compaction, and whole-store recovery.
"""

import errno
import os
import stat

import pytest

from repro.server import durability
from repro.server.durability import (
    KIND_EDIT,
    KIND_OPEN,
    KIND_SNAPSHOT,
    LogStore,
    SessionLog,
    StorageError,
    _frame,
    _read_frames,
)


class TestFraming:
    def test_roundtrip(self):
        data = _frame({"kind": KIND_OPEN, "session": "s"}) + _frame(
            {"kind": KIND_EDIT, "verb": "add_entity", "args": ["E0"]}
        )
        records, skipped = _read_frames(data)
        assert skipped == 0
        assert records == [
            {"kind": "open", "session": "s"},
            {"kind": "edit", "verb": "add_entity", "args": ["E0"]},
        ]

    def test_torn_header_is_skipped(self):
        data = _frame({"kind": KIND_OPEN, "session": "s"}) + b"\x07\x00"
        records, skipped = _read_frames(data)
        assert len(records) == 1 and skipped == 1

    def test_short_payload_is_skipped(self):
        whole = _frame({"kind": KIND_OPEN, "session": "s"})
        records, skipped = _read_frames(whole + whole[: len(whole) - 4])
        assert len(records) == 1 and skipped == 1

    def test_crc_mismatch_stops_decoding(self):
        first = _frame({"kind": KIND_OPEN, "session": "s"})
        second = bytearray(_frame({"kind": KIND_EDIT, "verb": "v"}))
        second[-1] ^= 0xFF
        # Everything after a CRC failure has no trustworthy boundary.
        third = _frame({"kind": KIND_EDIT, "verb": "w"})
        records, skipped = _read_frames(bytes(first) + bytes(second) + third)
        assert records == [{"kind": "open", "session": "s"}]
        assert skipped == 1

    def test_non_dict_json_is_skipped(self):
        import json
        import struct
        import zlib

        payload = json.dumps([1, 2, 3]).encode()
        data = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        records, skipped = _read_frames(data)
        assert records == [] and skipped == 1


class TestSessionLog:
    def test_append_rollback_and_reopen(self, tmp_path):
        log = SessionLog(tmp_path / "dir", "s")
        log.append(KIND_OPEN, {"session": "s"})
        log.append(KIND_EDIT, {"verb": "add_entity", "args": ["E0"]})
        # append() returns the offset *before* the record, so rolling back
        # to it undoes exactly that (last) append — the rejected-retry path.
        offset = log.append(KIND_EDIT, {"verb": "add_entity", "args": ["E1"]})
        log.rollback_to(offset)
        log.append(KIND_EDIT, {"verb": "add_entity", "args": ["E2"]})
        log.close()
        reopened = SessionLog(tmp_path / "dir", "s")
        reopened.append(KIND_EDIT, {"verb": "add_entity", "args": ["E3"]})
        reopened.close()
        records, skipped = _read_frames(
            (tmp_path / "dir" / "00000001.seg").read_bytes()
        )
        assert skipped == 0
        assert [r.get("args") for r in records[1:]] == [["E0"], ["E2"], ["E3"]]

    def test_failed_append_truncates_and_raises(self, tmp_path, monkeypatch):
        log = SessionLog(tmp_path / "dir", "s")
        log.append(KIND_OPEN, {"session": "s"})
        before = (tmp_path / "dir" / "00000001.seg").stat().st_size

        def no_space(handle, data):
            handle.write(data[: len(data) // 2])  # half-written frame
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(durability, "_write_frame", no_space)
        with pytest.raises(StorageError):
            log.append(KIND_EDIT, {"verb": "add_entity", "args": ["E0"]})
        monkeypatch.undo()
        # The torn half-frame was truncated away: the next append lands on
        # a clean boundary and the log decodes without skips.
        assert (tmp_path / "dir" / "00000001.seg").stat().st_size == before
        log.append(KIND_EDIT, {"verb": "add_entity", "args": ["E1"]})
        log.close()
        records, skipped = _read_frames(
            (tmp_path / "dir" / "00000001.seg").read_bytes()
        )
        assert skipped == 0
        assert [r["kind"] for r in records] == ["open", "edit"]

    def test_compact_swaps_segments_durably(self, tmp_path):
        log = SessionLog(tmp_path / "dir", "s")
        log.append(KIND_OPEN, {"session": "s"})
        for index in range(5):
            log.append(KIND_EDIT, {"verb": "add_entity", "args": [f"E{index}"]})
        log.compact({"session": "s", "schema_dsl": "entity E0."})
        log.append(KIND_EDIT, {"verb": "add_entity", "args": ["post"]})
        log.close()
        segments = sorted((tmp_path / "dir").glob("*.seg"))
        assert [p.name for p in segments] == ["00000002.seg"]
        records, skipped = _read_frames(segments[0].read_bytes())
        assert skipped == 0
        assert records[0]["kind"] == KIND_SNAPSHOT
        assert records[1]["args"] == ["post"]

    def test_failed_compaction_keeps_old_segments(self, tmp_path, monkeypatch):
        log = SessionLog(tmp_path / "dir", "s")
        log.append(KIND_OPEN, {"session": "s"})

        def no_space(handle, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(durability, "_write_frame", no_space)
        with pytest.raises(StorageError):
            log.compact({"session": "s", "schema_dsl": ""})
        monkeypatch.undo()
        segments = sorted((tmp_path / "dir").glob("*.seg"))
        assert [p.name for p in segments] == ["00000001.seg"]
        log.close()


class TestLogStore:
    def _populate(self, store, name, edits):
        log = store.open_log(name)
        log.append(KIND_OPEN, {"session": name})
        for edit in edits:
            log.append(KIND_EDIT, {"verb": "add_entity", "args": [edit]})
        log.close()

    def test_recover_multiple_sessions(self, tmp_path):
        store = LogStore(tmp_path)
        self._populate(store, "one", ["A"])
        self._populate(store, "two", ["B", "C"])
        report = store.recover()
        assert report.skipped_records == 0
        assert report.dropped_sessions == 0
        recovered = {s.name: s for s in report.sessions}
        assert set(recovered) == {"one", "two"}
        assert [e["args"] for e in recovered["two"].edits] == [["B"], ["C"]]

    def test_snapshot_resets_the_baseline(self, tmp_path):
        store = LogStore(tmp_path)
        log = store.open_log("s")
        log.append(KIND_OPEN, {"session": "s"})
        log.append(KIND_EDIT, {"verb": "add_entity", "args": ["old"]})
        log.append(KIND_SNAPSHOT, {"session": "s", "schema_dsl": "entity X."})
        log.append(KIND_EDIT, {"verb": "add_entity", "args": ["new"]})
        log.close()
        report = store.recover()
        (session,) = report.sessions
        assert session.open_payload["schema_dsl"] == "entity X."
        assert [e["args"] for e in session.edits] == [["new"]]

    def test_sessions_with_no_baseline_are_dropped_counted(self, tmp_path):
        store = LogStore(tmp_path)
        self._populate(store, "good", ["A"])
        broken = store.open_log("broken")  # open but never written: no baseline
        broken.close()
        report = store.recover()
        assert [s.name for s in report.sessions] == ["good"]
        assert report.dropped_sessions == 1

    def test_non_hex_directories_are_ignored(self, tmp_path):
        store = LogStore(tmp_path)
        (tmp_path / "not-a-session").mkdir()
        (tmp_path / "stray.txt").write_text("ignored")
        assert store.recover() == durability.RecoveryReport()

    def test_discard_without_open_handle(self, tmp_path):
        store = LogStore(tmp_path)
        self._populate(store, "gone", ["A"])
        store.discard("gone")
        assert store.recover().sessions == []
        store.discard("never-existed")  # idempotent


class TestDirectoryFsync:
    """A file's fsync makes its data durable, not the directory entry that
    names it: every segment or session directory the log creates or
    unlinks is followed by an fsync of the directory holding it."""

    @pytest.fixture
    def dir_fsyncs(self, monkeypatch):
        """Record each fsync of a directory fd as (inode, entries then)."""
        events = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                events.append((os.fstat(fd).st_ino, sorted(os.listdir(fd))))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        return events

    def test_open_fsyncs_the_new_segment_and_session_entries(self, tmp_path, dir_fsyncs):
        store = LogStore(tmp_path)
        log = store.open_log("s")
        session_dir = log.directory
        assert (session_dir.stat().st_ino, ["00000001.seg"]) in dir_fsyncs
        assert (tmp_path.stat().st_ino, [session_dir.name]) in dir_fsyncs
        log.close()
        dir_fsyncs.clear()
        store.open_log("s").close()  # reopening creates nothing
        assert dir_fsyncs == []

    def test_compact_fsyncs_before_and_after_unlinking(self, tmp_path, dir_fsyncs):
        log = SessionLog(tmp_path / "dir", "s")
        log.append(KIND_OPEN, {"session": "s"})
        dir_fsyncs.clear()
        log.compact({"session": "s", "schema_dsl": "entity E0."})
        inode = (tmp_path / "dir").stat().st_ino
        # The new segment's entry is durable while the old one still exists,
        # then the unlinks are made durable too.
        assert dir_fsyncs == [
            (inode, ["00000001.seg", "00000002.seg"]),
            (inode, ["00000002.seg"]),
        ]
        log.close()

    def test_delete_and_discard_fsync_the_data_dir(self, tmp_path, dir_fsyncs):
        store = LogStore(tmp_path)
        closed = store.open_log("closed")
        dropped = store.open_log("dropped")
        dropped.close()
        root = tmp_path.stat().st_ino
        dir_fsyncs.clear()
        closed.delete()
        assert dir_fsyncs == [(root, [dropped.directory.name])]
        dir_fsyncs.clear()
        store.discard("dropped")
        assert dir_fsyncs == [(root, [])]
