"""Bitstream program assembler.

Builds word streams the configuration microcontrollers execute: full and
partial configurations, capture/readback sequences, and the BOUT hop
groups that direct sections at secondary SLRs (paper Section 4.4). The
assembler is deliberately low-level — flow code in :mod:`repro.config`
and :mod:`repro.vti` composes these pieces.
"""

from __future__ import annotations

from array import array

from ..errors import BitstreamError
from ..fpga.device import Device
from ..fpga.frames import FRAME_WORDS, FrameAddress
from .crc import crc32_writes
from .packets import NOP, READ, WRITE, Packet, encode_packet
from .words import CMD_VALUES, DUMMY, REGISTERS, SYNC

#: Dummy words emitted after a BOUT hop group (the "appropriate padding"
#: the paper observes compensating for microcontroller busy time).
HOP_PADDING = 4


class BitstreamAssembler:
    """Accumulates a configuration word stream."""

    def __init__(self, device: Device):
        self.device = device
        self.words: list[int] = []
        #: (register, payload) per WRITE packet, for :meth:`write_crc`.
        self._writes: list[tuple[int, array]] = []

    # -- raw emission --------------------------------------------------------

    def emit(self, *words: int) -> "BitstreamAssembler":
        self.words.extend(w & 0xFFFF_FFFF for w in words)
        return self

    def dummy(self, count: int = 1) -> "BitstreamAssembler":
        return self.emit(*([DUMMY] * count))

    def sync(self) -> "BitstreamAssembler":
        return self.emit(SYNC)

    def packet(self, packet: Packet) -> "BitstreamAssembler":
        if packet.opcode == WRITE:
            self._writes.append((packet.register, array("I", packet.words)))
        return self.emit(*encode_packet(packet))

    def nop(self, count: int = 1) -> "BitstreamAssembler":
        for _ in range(count):
            self.packet(Packet(opcode=NOP, register=0))
        return self

    # -- register access ------------------------------------------------------

    def write_register(self, name: str,
                       values: list[int]) -> "BitstreamAssembler":
        return self.packet(Packet(
            opcode=WRITE, register=REGISTERS[name], words=list(values)))

    def read_register(self, name: str,
                      count: int = 1) -> "BitstreamAssembler":
        return self.packet(Packet(
            opcode=READ, register=REGISTERS[name], read_count=count))

    def command(self, cmd: str) -> "BitstreamAssembler":
        return self.write_register("CMD", [CMD_VALUES[cmd]])

    def write_idcode(self, idcode: int | None = None) -> "BitstreamAssembler":
        return self.write_register(
            "IDCODE", [self.device.idcode if idcode is None else idcode])

    def write_crc(self) -> "BitstreamAssembler":
        return self.write_register("CRC", [crc32_writes(self._writes)])

    # -- SLR ring hops -----------------------------------------------------------

    def hops_to(self, slr_index: int) -> int:
        """Ring distance from the primary SLR to ``slr_index``."""
        count = self.device.slr_count
        if not 0 <= slr_index < count:
            raise BitstreamError(
                f"SLR {slr_index} out of range for {self.device.name}")
        return (slr_index - self.device.primary_slr) % count

    def hop_to_slr(self, slr_index: int) -> "BitstreamAssembler":
        """Emit the BOUT group retargeting subsequent operations.

        ``k`` consecutive *empty* BOUT writes direct the following
        operations at the SLR ``k`` ring-hops from the primary; a group of
        ``slr_count`` hops wraps back to the primary (how a stream returns
        after visiting a secondary).
        """
        hops = self.hops_to(slr_index)
        if hops == 0:
            hops = self.device.slr_count if self._hopped else 0
        for _ in range(hops):
            self.write_register("BOUT", [])
        if hops:
            self.dummy(HOP_PADDING)
            self._hopped = True
        return self

    _hopped = False

    # -- frame traffic -----------------------------------------------------------

    def write_frames(self, start: FrameAddress,
                     frames: list[list[int]]) -> "BitstreamAssembler":
        """WCFG + FAR + one FDRI burst (FAR auto-increments per frame)."""
        flat: list[int] = []
        for frame in frames:
            if len(frame) != FRAME_WORDS:
                raise BitstreamError(
                    f"frame needs {FRAME_WORDS} words, got {len(frame)}")
            flat.extend(frame)
        self.command("WCFG")
        self.write_register("FAR", [start.to_word()])
        return self.write_register("FDRI", flat)

    def read_frames(self, start: FrameAddress,
                    count: int) -> "BitstreamAssembler":
        """RCFG + FAR + FDRO read request for ``count`` frames."""
        self.command("RCFG")
        self.write_register("FAR", [start.to_word()])
        return self.read_register("FDRO", count * FRAME_WORDS)

    # -- canned sequences -----------------------------------------------------------

    def preamble(self) -> "BitstreamAssembler":
        """Padding + sync, as every section begins."""
        return self.dummy(8).sync().nop(2)

    def startup(self) -> "BitstreamAssembler":
        """Start the clocks and release GSR (end of configuration)."""
        return self.command("START").nop(2).write_crc().command("DESYNC") \
            .dummy(4)

    def capture(self) -> "BitstreamAssembler":
        """Capture all FF values into the capture frames."""
        return self.command("GCAPTURE").nop(2)

    def restore(self) -> "BitstreamAssembler":
        """Load FF values from the capture frames (snapshot resume)."""
        return self.command("GRESTORE").nop(2)

    def clear_mask(self) -> "BitstreamAssembler":
        """Clear the GSR/capture region mask.

        Partial reconfiguration leaves the mask restricted to the dynamic
        region and does not restore it; Zoomie always clears it before
        readback (paper Section 4.7).
        """
        return self.write_register("MASK", [0])
