"""The JTAG ring connecting SLR microcontrollers.

Implements the paper's Section 4.4/4.6 findings as executable behaviour:

- the external master talks to the **primary** SLR's controller;
- a group of ``k`` consecutive empty BOUT writes directs all subsequent
  operations at the SLR ``k`` ring-hops away, until the next group;
- IDCODE writes never select an SLR (they are ordinary register writes,
  enforced only by the primary);
- each operation affects exactly one SLR.

The ring also carries the bandwidth model used for Table 3: words move at
JTAG speed, plus a per-hop latency for reaching secondary SLRs — which is
why reading the primary SLR is measurably (slightly) faster.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..bitstream.crc import crc32_stream
from ..bitstream.packets import NOP, READ, WRITE, decode_stream
from ..bitstream.words import REGISTERS

if TYPE_CHECKING:  # pragma: no cover
    from .fabric import FabricDevice

_BOUT = REGISTERS["BOUT"]

#: Effective JTAG payload bandwidth (bytes/second). Calibrated so a full
#: single-SLR readback of the U200 model (26,752 frames incl. BRAM and
#: LUTRAM content) takes ~33.6 s, matching the paper's unoptimized
#: Table 3 measurement.
JTAG_BYTES_PER_SECOND = 296_000
#: Extra latency per ring hop of the *current target* for each operation
#: batch (secondary SLRs are reached through the primary's controller).
HOP_SECONDS = 0.004
#: Fixed cost of arming one JTAG transaction batch.
BATCH_OVERHEAD_SECONDS = 0.05


@dataclass
class JtagResult:
    """Outcome of one :meth:`JtagRing.run` batch."""

    #: The batch's FDRO and register read replies, in order, as 32-bit
    #: words.
    read_words: array = field(default_factory=lambda: array("I"))
    seconds: float = 0.0
    #: Device-side CRC-32 over ``read_words`` as they were sent back
    #: (the golden channel). The verified transport compares the host's
    #: CRC over the *received* words against this per batch.
    read_crc: int = 0


class JtagRing:
    """Routes a bitstream word stream across the SLR ring."""

    def __init__(self, fabric: "FabricDevice"):
        self.fabric = fabric
        self.total_seconds = 0.0
        #: Number of programs executed over this ring.
        self.batches = 0

    def run(self, words: list[int]) -> JtagResult:
        """Execute one configuration/readback program."""
        fabric = self.fabric
        primary = fabric.device.primary_slr
        count = fabric.device.slr_count
        mcs = fabric.mcs
        read_words = array("I")
        seconds = (BATCH_OVERHEAD_SECONDS
                   + len(words) * 4 / JTAG_BYTES_PER_SECOND)

        target = primary
        controller = mcs[target]
        pending_hops = 0
        for packet in decode_stream(words):
            opcode = packet.opcode
            if opcode == WRITE and packet.register == _BOUT \
                    and not packet.words:
                pending_hops += 1
                continue
            if pending_hops:
                target = (primary + pending_hops) % count
                controller = mcs[target]
                seconds += pending_hops * HOP_SECONDS
                pending_hops = 0
            if opcode == NOP:
                continue  # nothing for a controller to do
            data = controller.execute(packet)
            if opcode == READ:
                read_words += data
                hops = (target - primary) % count
                seconds += (
                    len(data) * 4 / JTAG_BYTES_PER_SECOND
                    + hops * HOP_SECONDS)
        result = JtagResult(read_words=read_words, seconds=seconds,
                            read_crc=crc32_stream(read_words))
        self.batches += 1
        self.total_seconds += seconds
        return result
