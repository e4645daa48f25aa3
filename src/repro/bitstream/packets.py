"""Type-1/Type-2 configuration packet codec.

Layout (following the UltraScale configuration guide the paper cites):

- **Type 1** — ``[31:29]=001``, ``[28:27]=opcode``, ``[17:13]=register``,
  ``[10:0]=word count``; payload words follow.
- **Type 2** — ``[31:29]=010``, ``[28:27]=opcode``, ``[26:0]=word count``;
  extends the register selected by the preceding Type-1 header for
  payloads beyond 2047 words (frame data, readback).

Opcode ``00`` is a NOP, ``01`` a read request, ``10`` a write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import BitstreamError
from .words import DUMMY, SYNC, register_name

NOP = 0
READ = 1
WRITE = 2

_TYPE1 = 0b001
_TYPE2 = 0b010
_T1_MAX_WORDS = 0x7FF
_T2_MAX_WORDS = 0x07FF_FFFF


@dataclass(slots=True)
class Packet:
    """One decoded configuration packet."""

    opcode: int
    register: int
    words: list[int] = field(default_factory=list)
    #: Requested word count for reads (payload arrives via FDRO).
    read_count: int = 0

    @property
    def register_name(self) -> str:
        return register_name(self.register)

    def __str__(self) -> str:
        kind = {NOP: "NOP", READ: "READ", WRITE: "WRITE"}[self.opcode]
        if self.opcode == NOP:
            return "NOP"
        if self.opcode == READ:
            return f"READ {self.register_name} x{self.read_count}"
        return f"WRITE {self.register_name} x{len(self.words)}"


def _type1_header(opcode: int, register: int, count: int) -> int:
    if count > _T1_MAX_WORDS:
        raise BitstreamError(f"type-1 word count {count} too large")
    return (_TYPE1 << 29) | (opcode << 27) | ((register & 0x1F) << 13) | count


def _type2_header(opcode: int, count: int) -> int:
    if count > _T2_MAX_WORDS:
        raise BitstreamError(f"type-2 word count {count} too large")
    return (_TYPE2 << 29) | (opcode << 27) | count


def read_headers(register: int, count: int) -> list[int]:
    """The header word(s) of a read request for ``count`` words."""
    if count <= _T1_MAX_WORDS:
        return [_type1_header(READ, register, count)]
    return [_type1_header(READ, register, 0), _type2_header(READ, count)]


def write_headers(register: int, count: int) -> list[int]:
    """The header word(s) of a write of ``count`` payload words."""
    if count <= _T1_MAX_WORDS:
        return [_type1_header(WRITE, register, count)]
    return [_type1_header(WRITE, register, 0), _type2_header(WRITE, count)]


#: The one word of an encoded NOP.
NOP_WORD = _type1_header(NOP, 0, 0)
#: The packet :func:`decode_stream` yields for every NOP (shared: do
#: not mutate).
NOP_PACKET = Packet(NOP, 0)


def encode_packet(packet: Packet) -> list[int]:
    """Encode one packet as a word list (splitting to Type 2 as needed)."""
    if packet.opcode == NOP:
        return [NOP_WORD]
    if packet.opcode == READ:
        return read_headers(packet.register, packet.read_count)
    return [*write_headers(packet.register, len(packet.words)),
            *packet.words]


def decode_stream(words: list[int], synced: bool = False
                  ) -> Iterator[Packet]:
    """Decode a word stream into packets.

    Until the sync word is seen, everything is treated as padding (dummy
    words, bus-width patterns). ``synced=True`` starts past that state.
    A DESYNC is not interpreted here — stream consumers (the
    microcontroller) handle command semantics; this is a pure codec.
    Each WRITE's payload is one slice of ``words`` (a list); packets
    are built positionally, the cheaper call on this per-batch path,
    and every NOP is the one :data:`NOP_PACKET`.
    """
    if not isinstance(words, list):
        words = list(words)
    index = 0
    length = len(words)
    if not synced:
        try:
            index = words.index(SYNC) + 1  # consume the sync
        except ValueError:
            index = length  # no sync: an empty stream
    pending_register: int | None = None
    while index < length:
        header = words[index]
        index += 1
        if header == DUMMY:
            continue
        header_type = header >> 29
        opcode = (header >> 27) & 0x3
        if header_type == _TYPE1:
            register = (header >> 13) & 0x1F
            count = header & _T1_MAX_WORDS
            pending_register = register
            if opcode == NOP:
                yield NOP_PACKET
                continue
            if count == 0 and opcode in (READ, WRITE):
                # Either an *empty write* (how BOUT hops are expressed) or
                # the announcement of a Type-2 continuation — peek ahead:
                # a Type-2 header always directly follows its Type-1.
                next_is_type2 = (
                    index < length and (words[index] >> 29) == _TYPE2)
                if next_is_type2:
                    continue
                if opcode == WRITE:
                    yield Packet(WRITE, register, [])
                else:
                    yield Packet(READ, register, [], 0)
                continue
            if opcode == READ:
                yield Packet(READ, register, [], count)
                continue
            if index + count > length:
                raise BitstreamError(
                    f"type-1 payload truncated: need {count} words")
            payload = words[index:index + count]
            index += count
            yield Packet(WRITE, register, payload)
        elif header_type == _TYPE2:
            if pending_register is None:
                raise BitstreamError("type-2 packet without preceding type-1")
            count = header & _T2_MAX_WORDS
            if opcode == READ:
                yield Packet(READ, pending_register, [], count)
                continue
            if index + count > length:
                raise BitstreamError(
                    f"type-2 payload truncated: need {count} words")
            payload = words[index:index + count]
            index += count
            yield Packet(WRITE, pending_register, payload)
        else:
            raise BitstreamError(
                f"unknown packet header {header:#010x} at word {index - 1}")
