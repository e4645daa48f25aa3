"""Unit tests for the write-ahead command journal and the
content-addressed snapshot store — framing, modeled durability, torn
tails, interior corruption, and store integrity checks."""

import pytest

from repro.debug import (
    CommandJournal,
    JournalRecord,
    SnapshotStore,
    StateSnapshot,
    read_journal,
)
from repro.debug.journal import JOURNAL_MAGIC, frame_record, payload_crc
from repro.errors import (
    JournalCorruptError,
    JournalError,
    SnapshotIntegrityError,
)
from repro.obs import get_registry


class TestFraming:
    def test_frame_roundtrip(self, tmp_path):
        journal = CommandJournal(tmp_path / "j.log")
        journal.append("pause")
        journal.append("write_state", {"updates": {"a.b": 5}})
        records, torn = read_journal(tmp_path / "j.log")
        assert not torn
        assert [r.command for r in records] == ["pause", "write_state"]
        assert records[1].args == {"updates": {"a.b": 5}}
        assert [r.index for r in records] == [0, 1]

    def test_payload_is_canonical(self):
        a = JournalRecord(0, "x", {"b": 1, "a": 2})
        b = JournalRecord(0, "x", {"a": 2, "b": 1})
        assert a.payload() == b.payload()
        assert payload_crc(a.payload()) == payload_crc(b.payload())

    def test_describe_names_command_and_args(self):
        record = JournalRecord(3, "step", {"cycles": 5, "force": False})
        text = record.describe()
        assert "#3" in text and "step" in text and "cycles=5" in text

    def test_unjournalable_args_rejected(self, tmp_path):
        journal = CommandJournal(tmp_path / "j.log")
        with pytest.raises(JournalError):
            journal.append("bad", {"obj": object()})
        # the failed append must not burn an index
        journal.append("pause")
        assert journal.records()[-1].index == 0


class TestDurability:
    def test_sync_every_batches_durability(self, tmp_path):
        journal = CommandJournal(tmp_path / "j.log", sync_every=3)
        journal.append("a")
        journal.append("b")
        assert journal.count == 2
        assert journal.durable_count == 0
        journal.append("c")  # third append hits the sync point
        assert journal.durable_count == 3

    def test_drop_pending_models_crash(self, tmp_path):
        journal = CommandJournal(tmp_path / "j.log", sync_every=10)
        journal.append("a")
        journal.sync()
        journal.append("b")
        journal.append("c")
        lost = journal.drop_pending()
        assert lost == 2
        records, _ = read_journal(tmp_path / "j.log")
        assert [r.command for r in records] == ["a"]
        # the next record reuses the abandoned index
        journal.append("d")
        journal.sync()
        assert [r.command for r in journal.records()] == ["a", "d"]

    def test_reopen_continues_indices(self, tmp_path):
        CommandJournal(tmp_path / "j.log").append("a")
        journal = CommandJournal(tmp_path / "j.log")
        journal.append("b")
        records, _ = read_journal(tmp_path / "j.log")
        assert [(r.index, r.command) for r in records] == [(0, "a"),
                                                           (1, "b")]

    def test_sync_every_must_be_positive(self, tmp_path):
        with pytest.raises(JournalError):
            CommandJournal(tmp_path / "j.log", sync_every=0)


class TestTornTail:
    def make(self, tmp_path, commands=("a", "b", "c")):
        journal = CommandJournal(tmp_path / "j.log")
        for command in commands:
            journal.append(command)
        return tmp_path / "j.log"

    def test_unterminated_final_line_is_torn(self, tmp_path):
        path = self.make(tmp_path)
        text = path.read_text()
        path.write_text(text[:-10])  # mid-record, no newline
        records, torn = read_journal(path)
        assert torn
        assert [r.command for r in records] == ["a", "b"]

    def test_short_payload_with_newline_is_torn(self, tmp_path):
        path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1][:-4]  # shorter than the framed length
        path.write_text("\n".join(lines) + "\n")
        records, torn = read_journal(path)
        assert torn
        assert [r.command for r in records] == ["a", "b"]

    def test_reopen_rewrites_torn_tail(self, tmp_path):
        path = self.make(tmp_path)
        path.write_text(path.read_text()[:-10])
        journal = CommandJournal(path)
        journal.append("d")
        records, torn = read_journal(path)
        assert not torn
        assert [r.command for r in records] == ["a", "b", "d"]


class TestInteriorCorruption:
    def make(self, tmp_path):
        journal = CommandJournal(tmp_path / "j.log")
        for command in ("a", "b", "c"):
            journal.append(command)
        return tmp_path / "j.log"

    def test_damaged_interior_record_raises(self, tmp_path):
        path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        # flip one payload character of the middle record
        line = lines[2]
        lines[2] = line[:-1] + ("X" if line[-1] != "X" else "Y")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError) as info:
            read_journal(path)
        assert info.value.line == 3

    def test_bad_magic_raises(self, tmp_path):
        path = self.make(tmp_path)
        path.write_text("not-a-journal\n" +
                        "\n".join(path.read_text().splitlines()[1:]) +
                        "\n")
        with pytest.raises(JournalCorruptError):
            read_journal(path)

    def test_sequence_gap_raises(self, tmp_path):
        path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        del lines[2]  # remove the middle (durable) record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError, match="sequence gap"):
            read_journal(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError):
            read_journal(tmp_path / "absent.log")

    def test_reframed_garbage_payload_raises(self, tmp_path):
        path = self.make(tmp_path)
        payload = "not json at all"
        line = (f"{len(payload.encode()):08x} "
                f"{payload_crc(payload):08x} {payload}")
        lines = path.read_text().splitlines()
        lines[2] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError, match="not JSON"):
            read_journal(path)


def snap(**values):
    return StateSnapshot(values=values or {"core.pc": 0x10},
                         memories={"rf": [1, 2, 3]}, cycle=7,
                         label="x")


class TestSnapshotStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        original = snap()
        key = store.put(original)
        loaded = store.get(key)
        assert loaded.values == original.values
        assert loaded.memories == original.memories
        assert loaded.content_key() == key

    def test_content_addressing_dedupes(self, tmp_path):
        store = SnapshotStore(tmp_path)
        key1 = store.put(StateSnapshot(values={"a": 1}, cycle=5,
                                       label="early"))
        dedup = get_registry().counter("snapshot_store.dedup_hits")
        before = dedup.value
        key2 = store.put(StateSnapshot(values={"a": 1}, cycle=99,
                                       label="late"))
        # label/cycle are excluded from the content key: same state,
        # same object, not rewritten
        assert key1 == key2
        assert store.keys() == [key1]
        assert dedup.value == before + 1
        assert store.get(key1).label == "early"

    def test_missing_key(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with pytest.raises(SnapshotIntegrityError) as info:
            store.get("0" * 64)
        assert info.value.kind == "missing"

    def test_truncation_detected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        key = store.put(snap())
        path = store._path(key)
        path.write_text(path.read_text()[:-20])
        with pytest.raises(SnapshotIntegrityError) as info:
            store.get(key)
        assert info.value.kind == "truncated"

    def test_appended_bytes_detected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        key = store.put(snap())
        path = store._path(key)
        path.write_text(path.read_text() + "junk")
        with pytest.raises(SnapshotIntegrityError) as info:
            store.get(key)
        assert info.value.kind == "truncated"

    def test_bit_rot_detected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        key = store.put(snap())
        path = store._path(key)
        text = path.read_text()
        # flip one body character without changing the length
        index = text.index('"core.pc"') + 2
        flipped = text[:index] + ("x" if text[index] != "x" else "y") \
            + text[index + 1:]
        path.write_text(flipped)
        with pytest.raises(SnapshotIntegrityError) as info:
            store.get(key)
        assert info.value.kind == "checksum"

    def test_misfiled_object_detected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        key = store.put(snap())
        other = "f" * 64
        store._path(key).rename(store._path(other))
        with pytest.raises(SnapshotIntegrityError) as info:
            store.get(other)
        assert info.value.kind == "key"

    def test_verify_and_verify_all(self, tmp_path):
        store = SnapshotStore(tmp_path)
        good = store.put(snap())
        bad = store.put(snap(other=42))
        path = store._path(bad)
        path.write_text(path.read_text()[:-10])
        assert store.verify(good) is None
        assert isinstance(store.verify(bad), SnapshotIntegrityError)
        audit = store.verify_all()
        assert audit[good] is None and audit[bad] is not None

    def test_delete(self, tmp_path):
        store = SnapshotStore(tmp_path)
        key = store.put(snap())
        assert key in store
        assert store.delete(key)
        assert key not in store
        assert not store.delete(key)

    def test_header_magic_checked(self, tmp_path):
        store = SnapshotStore(tmp_path)
        key = store.put(snap())
        path = store._path(key)
        body = path.read_text().split("\n", 1)[1]
        path.write_text("wrong-magic 00000001 00000001\n" + body)
        with pytest.raises(SnapshotIntegrityError):
            store.get(key)
