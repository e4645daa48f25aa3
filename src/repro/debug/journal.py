"""Write-ahead command journal for crash-safe debug sessions.

Software debuggers survive crashes; a Zoomie session that dies mid-batch
must too. Every state-mutating debug command (pause/resume/step/run,
breakpoint arming, ``write_state``/``write_memory``, snapshot/restore,
top-level input pokes) is recorded here *before* it executes, as a
CRC32-framed, length-prefixed record:

    zoomie-journal-v1                     <- plain-text header line
    0000002f 1c291ca3 {"args":{...},"command":"pause","index":0}
    00000041 83d385ac {"args":{...},"command":"run","index":1}

Durability is modeled, not assumed: records land in a volatile pending
buffer and only become crash-survivable at a **sync point** (every
``sync_every`` appends, or an explicit :meth:`sync`). A modeled crash
(a ``crash`` fault of an installed
:class:`~repro.chaos.schedule.FaultSchedule`) simply abandons the
pending buffer — exactly what a dead host process does to its page
cache.

On read-back, a torn final record (the classic crash artifact: the
write that was in flight when the process died) is detected by its
framing and dropped; a damaged *interior* record — one with durable
successors — raises a typed :class:`JournalCorruptError` instead of
letting replay silently diverge past it.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from ..bitstream.crc import crc32_stream
from ..chaos.supervise import note_degradation, run_io
from ..errors import DiskFaultError, JournalCorruptError, JournalError
from ..obs import get_flight_recorder, get_registry, get_tracer

#: Bound at import; the singletons are mutated in place, never replaced.
_TRACER = get_tracer()
_FLIGHT = get_flight_recorder()

#: First line of every journal file.
JOURNAL_MAGIC = "zoomie-journal-v1"


@dataclass(frozen=True)
class JournalRecord:
    """One journaled command."""

    index: int
    command: str
    args: dict

    def payload(self) -> str:
        """Canonical JSON this record is framed and CRC'd over."""
        return json.dumps(
            {"args": self.args, "command": self.command,
             "index": self.index},
            sort_keys=True, separators=(",", ":"))

    def describe(self) -> str:
        """One human line for journal listings."""
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.args.items()))
        return f"#{self.index} {self.command}({args})"


def payload_crc(payload: str) -> int:
    data = payload.encode("utf-8")
    # Reuse the bitstream CRC32 over the payload bytes packed as
    # little-endian words; the trailing partial word is padded with zeros.
    data += b"\0" * (-len(data) % 4)
    return crc32_stream(struct.unpack(f"<{len(data) // 4}I", data))


def frame_record(record: JournalRecord) -> str:
    """Length-prefixed, CRC32-framed journal line."""
    payload = record.payload()
    return (f"{len(payload.encode('utf-8')):08x} "
            f"{payload_crc(payload):08x} {payload}\n")


def _parse_line(line: str, line_no: int) -> JournalRecord:
    if len(line) < 18 or line[8] != " " or line[17] != " ":
        raise JournalCorruptError(
            f"journal line {line_no}: bad frame header", line=line_no)
    try:
        length = int(line[:8], 16)
        crc = int(line[9:17], 16)
    except ValueError:
        raise JournalCorruptError(
            f"journal line {line_no}: unparsable frame header",
            line=line_no) from None
    payload = line[18:]
    if len(payload.encode("utf-8")) != length:
        raise JournalCorruptError(
            f"journal line {line_no}: payload length "
            f"{len(payload.encode('utf-8'))} != framed {length}",
            line=line_no)
    if payload_crc(payload) != crc:
        raise JournalCorruptError(
            f"journal line {line_no}: CRC32 mismatch (record damaged "
            f"at rest)", line=line_no)
    try:
        data = json.loads(payload)
    except json.JSONDecodeError:
        raise JournalCorruptError(
            f"journal line {line_no}: framed payload is not JSON",
            line=line_no) from None
    if not isinstance(data, dict) or not isinstance(data.get("index"), int) \
            or not isinstance(data.get("command"), str) \
            or not isinstance(data.get("args"), dict):
        raise JournalCorruptError(
            f"journal line {line_no}: payload missing "
            f"index/command/args", line=line_no)
    return JournalRecord(index=data["index"], command=data["command"],
                         args=data["args"])


def _looks_torn(line: str, line_no: int) -> bool:
    """Whether a newline-terminated final line is itself a torn write
    (frame header claims more payload bytes than are present)."""
    if len(line) < 18 or line[8] != " " or line[17] != " ":
        return True
    try:
        length = int(line[:8], 16)
        int(line[9:17], 16)
    except ValueError:
        return True
    return len(line[18:].encode("utf-8")) < length


def read_journal(path) -> tuple[list[JournalRecord], bool]:
    """Parse a journal file.

    Returns ``(records, torn_tail)`` where ``torn_tail`` reports that a
    final in-flight record was dropped. Interior damage raises
    :class:`JournalCorruptError`; indices must be contiguous from 0 (a
    gap means a durable record vanished — also corruption). Corruption
    is a flight-recorder trigger: by the time anyone reads a damaged
    journal the session that wrote it is usually gone, so the dump is
    the only record of what led up to it.
    """
    try:
        return _read_journal(path)
    except JournalCorruptError as error:
        _FLIGHT.trigger("journal.corrupt", path=str(path),
                        line=error.line, detail=str(error)[:200])
        raise


def _read_journal(path) -> tuple[list[JournalRecord], bool]:
    path = Path(path)
    if not path.exists():
        raise JournalError(f"no journal at {path}")
    text = path.read_text()
    complete = text.endswith("\n")
    lines = text.split("\n")
    if complete:
        lines = lines[:-1]
    if not lines or lines[0] != JOURNAL_MAGIC:
        raise JournalCorruptError(
            f"{path} is not a zoomie journal (bad header line)", line=1)
    records: list[JournalRecord] = []
    torn = False
    body = lines[1:]
    for offset, line in enumerate(body):
        line_no = offset + 2
        last = offset == len(body) - 1
        if last and (not complete or _looks_torn(line, line_no)):
            torn = True
            break
        records.append(_parse_line(line, line_no))
    for position, record in enumerate(records):
        if record.index != position:
            raise JournalCorruptError(
                f"journal record #{record.index} at position {position}: "
                f"sequence gap (a durable record is missing)",
                line=position + 2)
    return records, torn


class CommandJournal:
    """Append-only write-ahead journal with modeled durability.

    ``sync_every=1`` (the default) makes every record durable before its
    command executes — classic WAL. Larger values batch sync points:
    cheaper, but a crash can lose up to ``sync_every - 1`` trailing
    commands (recovery then lands at the last *durable* boundary, which
    is still a consistent session).
    """

    def __init__(self, path, sync_every: int = 1):
        if sync_every < 1:
            raise JournalError("sync_every must be >= 1")
        self.path = Path(path)
        self.sync_every = sync_every
        self._pending: list[str] = []
        registry = get_registry()
        self._m_appends = registry.counter("journal.appends")
        self._m_syncs = registry.counter("journal.syncs")
        self._m_synced = registry.counter("journal.synced_records")
        self._m_sync_seconds = registry.histogram("journal.sync_seconds")
        if self.path.exists():
            existing, torn = read_journal(self.path)
            if torn:
                # Rewrite without the torn tail so appends stay framed.
                with self.path.open("w") as stream:
                    stream.write(JOURNAL_MAGIC + "\n")
                    for record in existing:
                        stream.write(frame_record(record))
            self._count = len(existing)
            self._durable = len(existing)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("w") as stream:
                stream.write(JOURNAL_MAGIC + "\n")
            self._count = 0
            self._durable = 0

    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Records appended (durable + pending)."""
        return self._count

    @property
    def durable_count(self) -> int:
        """Records a crash right now would preserve."""
        return self._durable

    def append(self, command: str, args: Optional[dict] = None
               ) -> JournalRecord:
        """Write-ahead one command; syncs per the sync policy."""
        record = JournalRecord(index=self._count, command=command,
                              args=dict(args or {}))
        try:
            record.payload()
        except (TypeError, ValueError) as exc:
            raise JournalError(
                f"command {command!r} args are not journalable: {exc}"
            ) from None
        self._m_appends.inc()
        if not _TRACER.enabled:
            self._pending.append(frame_record(record))
            self._count += 1
            if len(self._pending) >= self.sync_every:
                self.sync()
            return record
        with _TRACER.span("journal.append", command=command,
                          index=record.index) as span:
            self._pending.append(frame_record(record))
            self._count += 1
            if len(self._pending) >= self.sync_every:
                self.sync()
            span.set(durable=record.index < self._durable)
        return record

    def sync(self) -> None:
        """Durability point: flush pending records to the file.

        The write is a supervised I/O operation
        (:func:`~repro.chaos.supervise.run_io`): chaos schedules can
        tear it, rot it, fill the disk, or slow it down, and the
        supervisor bounds retries and modeled latency. A torn sync is
        repaired by truncating the file back to the durable prefix
        before re-issuing the whole pending batch — re-appending after
        a *partial* landing would duplicate records.
        """
        if not self._pending:
            return
        flushed = len(self._pending)
        payload = "".join(self._pending)
        with _TRACER.span("journal.sync", records=flushed):
            _, spent = run_io("journal.sync",
                              len(payload.encode("utf-8")),
                              self._sync_attempt,
                              repair=self._repair_tail)
            self._durable = self._count
            self._pending.clear()
        self._m_syncs.inc()
        self._m_synced.inc(flushed)
        # Modeled sync latency feeds the journal sync p99 health rule.
        self._m_sync_seconds.observe(spent)

    def _sync_attempt(self, fault) -> None:
        """One append attempt, applying an injected fault's effect."""
        payload = "".join(self._pending)
        data = payload.encode("utf-8")
        if fault is not None and fault.kind == "enospc":
            raise DiskFaultError(
                f"journal sync failed: no space left on device "
                f"(injected, {len(data)} bytes pending)", kind="enospc")
        if fault is not None and fault.kind == "torn_write":
            # The classic crash artifact: a strict prefix of the batch
            # reaches the platter. The prefix may still contain whole
            # framed records — _repair_tail handles both.
            torn = data[:fault.rng.randrange(max(1, len(data)))]
            with self.path.open("ab") as stream:
                stream.write(torn)
                stream.flush()
                os.fsync(stream.fileno())
            raise DiskFaultError(
                f"journal sync torn after {len(torn)} of {len(data)} "
                f"bytes (injected)", kind="torn_write")
        with self.path.open("a") as stream:
            stream.write(payload)
            stream.flush()
            os.fsync(stream.fileno())
        if fault is not None and fault.kind == "bit_rot":
            # Silent at-rest damage: flips a bit in the records just
            # written. Undetectable at sync time by design — read_journal
            # catches it via the per-record CRC32 on recovery.
            raw = self.path.read_bytes()
            if len(raw) > len(data):
                index = len(raw) - fault.rng.randrange(1, len(data) + 1)
                flipped = raw[:index] + bytes(
                    [raw[index] ^ (1 << fault.rng.randrange(7))]) \
                    + raw[index + 1:]
                self.path.write_bytes(flipped)

    def _repair_tail(self, error=None) -> None:
        """Truncate the file back to the durable prefix after a torn
        sync, so the retry re-appends the full pending batch exactly
        once. Durable records were fsynced by earlier syncs and are
        intact; everything after them is the torn batch."""
        text = self.path.read_text()
        lines = text.split("\n")
        keep = lines[:1 + self._durable]
        self.path.write_text("\n".join(keep) + "\n")
        note_degradation("journal.tail_repair", site="journal.sync",
                         detail=f"truncated to {self._durable} records")

    def drop_pending(self) -> int:
        """Modeled crash: abandon un-synced records (returns how many).

        This is what process death does to buffered writes; tests use it
        to assert that recovery lands on the last durable boundary.
        """
        lost = len(self._pending)
        self._pending.clear()
        self._count = self._durable
        return lost

    # ------------------------------------------------------------------

    def records(self) -> list[JournalRecord]:
        """All durable records (the crash-survivable prefix)."""
        records, _ = read_journal(self.path)
        return records

    def tail(self, n: int = 10) -> list[JournalRecord]:
        return self.records()[-n:]

    def __iter__(self) -> Iterable[JournalRecord]:
        return iter(self.records())
