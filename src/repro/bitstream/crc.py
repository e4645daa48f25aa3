"""CRC-32 over configuration words, packed into bytes for ``zlib``.

:func:`crc32_stream` frames each JTAG batch's read words (and the
journal and snapshot-store records); it is the only CRC anything
checks. :func:`crc32_writes` is the CRC word a full bitstream ends
with; the modeled microcontroller stores it unchecked. Both raise
:class:`OverflowError` on a word outside 32 bits instead of masking it.
"""

from __future__ import annotations

import sys
import zlib
from array import array

if array("I").itemsize != 4:  # pragma: no cover - 4 on CPython's targets
    raise ImportError("array('I') must hold 32-bit words")


def _big_endian(words) -> array:
    """``words`` packed 4 bytes big-endian each."""
    packed = array("I", words)
    if sys.byteorder == "little":
        packed.byteswap()
    return packed


def crc32_stream(words) -> int:
    """CRC-32 over a word stream, 4 bytes big-endian per word, in one
    ``zlib.crc32`` call."""
    return zlib.crc32(_big_endian(words))


def crc32_writes(writes) -> int:
    """CRC-32 over ``(register, payload)`` write packets, as real
    UltraScale bitstreams compute it: per payload word, the register
    byte then the word's 4 big-endian bytes."""
    crc = 0
    for register, payload in writes:
        words = _big_endian(payload).tobytes()
        data = bytearray(5 * len(payload))
        data[0::5] = bytes((register,)) * len(payload)
        for offset in range(4):
            data[1 + offset::5] = words[offset::4]
        crc = zlib.crc32(data, crc)
    return crc
