"""Bitstream program builders.

Turn a :class:`~repro.config.database.DesignDatabase` into the word
streams that configure a card: the full multi-SLR program (sections in
ring order, each opened by its BOUT hop group, exactly the structure the
paper dissects) and partial programs used by VTI's fast reload.

:class:`SlrProgram` builds the debugger's own programs on one SLR: the
capture-and-FDRO readback behind every state read and register edit,
the capture-frame write plus GRESTORE that edits registers, and the
content-frame write that overwrites a memory (paper Sections 3.2-3.3).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..bitstream.assembler import BitstreamAssembler
from ..bitstream.packets import read_headers, write_headers
from ..bitstream.words import CMD_VALUES, REGISTERS
from ..fpga.device import Device
from ..fpga.frames import FRAME_WORDS, FrameAddress
from .database import DesignDatabase

_FAR = REGISTERS["FAR"]
_FDRI = REGISTERS["FDRI"]
_FDRO = REGISTERS["FDRO"]
#: ``CMD = RCFG``, as :meth:`BitstreamAssembler.command` encodes it.
_RCFG = (*write_headers(REGISTERS["CMD"], 1), CMD_VALUES["RCFG"])
_FAR_HEADER = write_headers(_FAR, 1)[0]


class SlrProgram:
    """The debugger's JTAG programs on one SLR of one device.

    Each program is a fixed head, the FAR/FDRO/FDRI packets of its
    frames, and a fixed tail. The heads and tails (preamble, BOUT hop
    group, MASK clear, GCAPTURE or WCFG, GRESTORE, DESYNC and padding)
    are assembled once, here, so a call encodes only its frame packets.
    The words equal what :class:`BitstreamAssembler` emits for the same
    sequence. Frame words must be 32-bit, as readback and
    :meth:`~repro.config.capture_plan.MemoryImage.pack` produce them.
    """

    def __init__(self, device: Device, slr_index: int):
        def opened() -> BitstreamAssembler:
            return BitstreamAssembler(device).preamble().hop_to_slr(
                slr_index)

        self._capture_head = tuple(opened().clear_mask().capture().words)
        self._state_head = tuple(
            opened().clear_mask().command("WCFG").words)
        self._content_head = tuple(opened().command("WCFG").words)
        self._desync_tail = tuple(
            BitstreamAssembler(device).command("DESYNC").dummy(2).words)
        self._restore_tail = tuple(
            BitstreamAssembler(device).restore().command("DESYNC")
            .dummy(2).words)

    def capture_readback(self, runs: Iterable[tuple[FrameAddress, int]]
                         ) -> list[int]:
        """Clear the MASK, GCAPTURE, then one RCFG + FAR + FDRO read per
        ``(first frame, frame count)`` run."""
        words = list(self._capture_head)
        for start, count in runs:
            words += _RCFG
            words += (_FAR_HEADER, start.to_word())
            words += read_headers(_FDRO, count * FRAME_WORDS)
        words += self._desync_tail
        return words

    def state_write(self, frames: Mapping[FrameAddress, Sequence[int]]
                    ) -> list[int]:
        """Clear the MASK, write capture frames (one FAR + FDRI each, in
        address order) and GRESTORE them into the running design."""
        words = list(self._state_head)
        _frame_writes(words, frames)
        words += self._restore_tail
        return words

    def memory_write(self, frames: Mapping[FrameAddress, Sequence[int]]
                     ) -> list[int]:
        """Write content frames (one FAR + FDRI each, in address order):
        the memory words they hold change at once."""
        words = list(self._content_head)
        _frame_writes(words, frames)
        words += self._desync_tail
        return words


def _frame_writes(words: list[int],
                  frames: Mapping[FrameAddress, Sequence[int]]) -> None:
    for address in sorted(frames):
        frame = frames[address]
        words += (_FAR_HEADER, address.to_word())
        words += write_headers(_FDRI, len(frame))
        words += frame


def slr_config_order(db: DesignDatabase) -> list[int]:
    """Primary first, then ring order — the order sections appear in."""
    device = db.device
    return [(device.primary_slr + hops) % device.slr_count
            for hops in range(device.slr_count)]


def build_full_bitstream(db: DesignDatabase) -> list[int]:
    """The complete configuration program for a design."""
    asm = BitstreamAssembler(db.device)
    asm.preamble()
    for slr_index in slr_config_order(db):
        asm.hop_to_slr(slr_index)
        asm.write_idcode()
        image = db.frame_image.get(slr_index, {})
        for address in sorted(image):
            asm.write_frames(address, [image[address]])
    asm.hop_to_slr(db.device.primary_slr)
    asm.startup()
    return asm.words


def build_partial_bitstream(db: DesignDatabase, slr_index: int,
                            frames: dict[FrameAddress, list[int]],
                            region_mask: int = 0) -> list[int]:
    """Reconfigure a subset of one SLR's frames while the rest persists.

    Mirrors the vendor partial-reconfiguration flow: SHUTDOWN the
    clocks, set the GSR MASK to the dynamic region, deliver the frames,
    then START. Note the mask is *not* cleared afterwards — the exact
    behaviour Zoomie's readback must compensate for (Section 4.7).
    """
    asm = BitstreamAssembler(db.device)
    asm.preamble()
    asm.command("SHUTDOWN")
    asm.hop_to_slr(slr_index)
    if region_mask:
        asm.write_register("MASK", [region_mask])
    for address in sorted(frames):
        asm.write_frames(address, [frames[address]])
    asm.hop_to_slr(db.device.primary_slr)
    asm.command("START").nop(2).command("DESYNC").dummy(4)
    return asm.words


def build_state_write(db: DesignDatabase, slr_index: int,
                      capture_frames: dict[FrameAddress, list[int]]
                      ) -> list[int]:
    """Write capture frames and GRESTORE them into the running design.

    This is the state-manipulation path (Section 3.3): the debugger
    modifies FF values by writing their capture bits and pulsing
    GRESTORE, leaving untouched regions intact. A session builds it
    through its fabric's :class:`SlrProgram`
    (:meth:`~repro.config.fabric.FabricDevice.program`).
    """
    return SlrProgram(db.device, slr_index).state_write(capture_frames)
