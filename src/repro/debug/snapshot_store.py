"""Content-addressed, checksummed persistence for state snapshots.

Snapshots are the durable checkpoints recovery rebuilds sessions from,
so loading one must never trust the filesystem: every stored snapshot
carries a header with its body's byte length and CRC32, and is filed
under the SHA-256 of its *content payload* (register and memory state
only — label, cycle, and acquisition accounting are excluded, so
identical states dedupe to one object no matter when they were taken).

    zoomie-snapstore-v1 00018f2 3e1a99c0     <- length + CRC32 header
    { ...full zoomie-snapshot-v1 JSON... }   <- body

On :meth:`get`, three independent checks run before a snapshot is
believed: byte count against the header (truncation), CRC32 against the
header (bit-rot), and content hash against the key (a body swapped or
mis-filed wholesale). Each failure is a typed
:class:`SnapshotIntegrityError`, never a silently wrong restore. A
:meth:`put` dedupes onto a stored object only if it passes the first
two checks; a torn or rotted one is rewritten.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from ..chaos.supervise import run_io
from ..errors import DiskFaultError, SnapshotFormatError, SnapshotIntegrityError
from ..obs import get_registry, get_tracer
from .journal import payload_crc
from .state import StateSnapshot

#: Bound at import; the singletons are mutated in place, never replaced.
_TRACER = get_tracer()

#: Header magic of every stored snapshot file.
STORE_MAGIC = "zoomie-snapstore-v1"
#: Filename suffix of stored snapshots.
SUFFIX = ".snap"


def _checked_body(path: Path, key: str) -> str:
    """The body of the object stored at ``path`` once its header, byte
    length and CRC32 check out; raises :class:`SnapshotIntegrityError`
    naming the first check that fails."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise SnapshotIntegrityError(
            f"snapshot {key[:12]}… is not in the store",
            kind="missing") from None
    except UnicodeDecodeError:
        raise SnapshotIntegrityError(
            f"snapshot {key[:12]}… is not text (bit-rot or tampering)",
            kind="checksum") from None
    newline = text.find("\n")
    header = text[:newline] if newline >= 0 else text
    parts = header.split(" ")
    if len(parts) != 3 or parts[0] != STORE_MAGIC:
        raise SnapshotIntegrityError(
            f"snapshot {key[:12]}…: bad store header", kind="truncated")
    try:
        length = int(parts[1], 16)
        crc = int(parts[2], 16)
    except ValueError:
        raise SnapshotIntegrityError(
            f"snapshot {key[:12]}…: unparsable store header",
            kind="truncated") from None
    body = text[newline + 1:]
    got = len(body.encode("utf-8"))
    if got < length:
        raise SnapshotIntegrityError(
            f"snapshot {key[:12]}… truncated: {got} of {length} "
            f"bytes on disk", kind="truncated")
    if got > length:
        raise SnapshotIntegrityError(
            f"snapshot {key[:12]}…: {got} bytes where the header "
            f"promises {length}", kind="truncated")
    if payload_crc(body) != crc:
        raise SnapshotIntegrityError(
            f"snapshot {key[:12]}… failed CRC32 (bit-rot or "
            f"tampering)", kind="checksum")
    return body


class SnapshotStore:
    """A directory of integrity-verified snapshots, keyed by content."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        registry = get_registry()
        self._m_puts = registry.counter("snapshot_store.puts")
        self._m_dedup = registry.counter("snapshot_store.dedup_hits")
        self._m_gets = registry.counter("snapshot_store.gets")
        self._m_bad = registry.counter(
            "snapshot_store.integrity_failures")

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{SUFFIX}"

    # ------------------------------------------------------------------

    def put(self, snapshot: StateSnapshot) -> str:
        """Persist a snapshot; returns its content key.

        Idempotent: re-storing identical state is a no-op returning the
        same key, unless the stored object fails its header, length or
        CRC32 check (a torn or rotted write), which is rewritten. The write
        goes through a temp file + rename so a crash mid-store leaves
        either the old object or none — never a torn one filed under a
        valid key.
        """
        with _TRACER.span("snapstore.put") as span:
            key = snapshot.content_key()
            self._m_puts.inc()
            path = self._path(key)
            try:
                _checked_body(path, key)
                self._m_dedup.inc()
                if span is not None:
                    span.set(key=key[:12], dedup=True)
                return key
            except SnapshotIntegrityError:
                pass  # absent, torn or rotted: (re)write it
            body = snapshot.dumps()
            data = body.encode("utf-8")
            header = (f"{STORE_MAGIC} {len(data):08x} "
                      f"{payload_crc(body):08x}\n")

            def attempt(fault) -> None:
                self._put_attempt(path, header, body, fault)

            run_io("snapstore.put", len(data), attempt)
            if span is not None:
                span.set(key=key[:12], dedup=False, bytes=len(data))
            return key

    def _put_attempt(self, path: Path, header: str, body: str,
                     fault) -> None:
        """One store attempt; injected faults damage the object the way
        real filesystems do (torn rename target, silent rot)."""
        if fault is not None and fault.kind == "enospc":
            raise DiskFaultError(
                "snapshot store full: no space left on device "
                "(injected)", kind="enospc")
        if fault is not None and fault.kind == "torn_write":
            # Models the no-journal filesystem failure mode: the rename
            # landed but the object's data blocks did not all reach the
            # platter. The key now names a corrupt object — exactly what
            # get()'s three integrity checks exist to catch.
            text = header + body
            path.write_text(text[:fault.rng.randrange(
                len(header), len(text))])
            raise DiskFaultError(
                f"snapshot write torn (injected, {path.name})",
                kind="torn_write")
        tmp = path.with_suffix(".tmp")
        tmp.write_text(header + body)
        tmp.rename(path)
        if fault is not None and fault.kind == "bit_rot":
            raw = path.read_bytes()
            index = fault.rng.randrange(len(header), len(raw))
            path.write_bytes(raw[:index] + bytes(
                [raw[index] ^ (1 << fault.rng.randrange(7))])
                + raw[index + 1:])

    def get(self, key: str) -> StateSnapshot:
        """Load and verify one snapshot."""
        self._m_gets.inc()
        with _TRACER.span("snapstore.get", key=key[:12]):
            try:
                return self._get_verified(key)
            except SnapshotIntegrityError:
                self._m_bad.inc()
                raise

    def _get_verified(self, key: str) -> StateSnapshot:
        body = _checked_body(self._path(key), key)
        import io
        try:
            snapshot = StateSnapshot.parse(io.StringIO(body))
        except SnapshotFormatError as exc:
            raise SnapshotIntegrityError(
                f"snapshot {key[:12]}…: body unparsable after passing "
                f"CRC ({exc})", kind="checksum") from exc
        actual = snapshot.content_key()
        if actual != key:
            raise SnapshotIntegrityError(
                f"snapshot filed under {key[:12]}… hashes to "
                f"{actual[:12]}… (mis-filed or swapped object)",
                kind="key")
        return snapshot

    # ------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def keys(self) -> list[str]:
        return sorted(p.name[:-len(SUFFIX)]
                      for p in self.root.glob(f"*{SUFFIX}"))

    def verify(self, key: str) -> Optional[SnapshotIntegrityError]:
        """The integrity error loading ``key`` would raise, or None."""
        try:
            self.get(key)
        except SnapshotIntegrityError as exc:
            return exc
        return None

    def verify_all(self) -> dict[str, Optional[SnapshotIntegrityError]]:
        """Audit the whole store; maps every key to its defect or None."""
        return {key: self.verify(key) for key in self.keys()}

    def delete(self, key: str) -> bool:
        path = self._path(key)
        if path.exists():
            path.unlink()
            return True
        return False
