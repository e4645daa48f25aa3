"""CRC-32 over configuration words.

Two CRCs exist here. :func:`crc32_stream` frames every JTAG transport
batch (and the journal and snapshot-store records); it is the only CRC
anything checks. :class:`CrcAccumulator` computes the word the
assembler's ``write_crc`` emits at the end of a full or partial
bitstream, over the ``(register, word)`` pairs it wrote, as real
UltraScale bitstreams do; the modeled microcontroller stores that word
without comparing it.
"""

from __future__ import annotations

import zlib


def crc32_stream(words: list[int]) -> int:
    """CRC-32 over a raw word stream (4 bytes big-endian per word).

    Used by the transport layer to frame JTAG batches: the device side
    accumulates it over the words it actually sends (the golden
    channel), the host recomputes it over what arrived.
    """
    crc = 0
    for word in words:
        crc = zlib.crc32((word & 0xFFFF_FFFF).to_bytes(4, "big"), crc)
    return crc & 0xFFFF_FFFF


class CrcAccumulator:
    """Streaming ``(register, word)`` accumulator of the assembler."""

    def __init__(self):
        self.value = 0

    def update(self, register: int, word: int) -> None:
        payload = register.to_bytes(1, "big") + word.to_bytes(4, "big")
        self.value = zlib.crc32(payload, self.value) & 0xFFFF_FFFF
