"""Per-SLR configuration microcontroller.

Executes decoded bitstream packets against one SLR: frame writes (FDRI),
readback (FDRO), command sequencing (WCFG/RCFG/START/GCAPTURE/GRESTORE/
SHUTDOWN/...), the GSR/capture region MASK, and the IDCODE check — which,
matching the paper's observation, is only *enforced* on the primary SLR;
secondary controllers store whatever arrives without it affecting
anything (Section 4.5, "Mutating Device ID in Bitstream").
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import ConfigError
from ..fpga.frames import FRAME_WORDS, FrameAddress
from ..bitstream.packets import Packet, READ, WRITE
from ..bitstream.words import CMD_NAMES, REGISTERS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fabric import FabricDevice

#: CMD names kept per controller (most recent last): enough to see the
#: last few batches, bounded so a long session does not grow memory.
COMMAND_LOG_DEPTH = 256

#: The bytes of a frame never written, appended to an FDRO reply by
#: memcpy.
_ZERO_FRAME_BYTES = bytes(4 * FRAME_WORDS)


class Microcontroller:
    """One SLR's configuration controller."""

    def __init__(self, fabric: "FabricDevice", slr_index: int):
        self.fabric = fabric
        self.slr_index = slr_index
        self.space = fabric.spaces[slr_index]
        self.memory = fabric.config[slr_index]
        self.far: Optional[FrameAddress] = None
        self.mode: str = "idle"  # idle | write | read
        self.mask: int = 0
        self.idcode_received: Optional[int] = None
        self.stored: dict[int, int] = {}
        self.command_log: deque[str] = deque(maxlen=COMMAND_LOG_DEPTH)

    @property
    def is_primary(self) -> bool:
        return self.slr_index == self.fabric.device.primary_slr

    def enabled_regions(self) -> Optional[set[int]]:
        """Clock regions affected by global commands under current MASK.

        A zero mask means *all* regions; a nonzero mask restricts the
        effect to the set bits — the partial-reconfiguration behaviour
        Zoomie must undo before readback (Section 4.7).
        """
        if self.mask == 0:
            return None
        return {bit for bit in range(self.space.slr.clock_regions)
                if self.mask & (1 << bit)}

    # ------------------------------------------------------------------
    # packet execution
    # ------------------------------------------------------------------

    def execute(self, packet: Packet):
        """Run one packet; returns its read data as an ``array("I")``
        (nothing for writes and NOPs). A write dispatches on its
        register (:data:`_WRITERS`), a read on its register
        (:data:`_READERS`), each CMD word on its code
        (:data:`_COMMANDS`); any other register stores its last word."""
        opcode = packet.opcode
        if opcode == WRITE:
            write = _WRITERS.get(packet.register)
            if write is not None:
                write(self, packet.words)
            elif packet.words:
                # CRC included: stored, never checked (sections
                # assembled by different tools interleave per-SLR
                # traffic).
                self.stored[packet.register] = packet.words[-1]
            return ()
        if opcode == READ:
            read = _READERS.get(packet.register)
            if read is not None:
                return read(self, packet.read_count)
            return _repeat(self.stored.get(packet.register, 0),
                           packet.read_count)
        return ()

    def _write_far(self, words: list[int]) -> None:
        self._require(len(words) == 1, "FAR write needs one word")
        far = self.space.frame_at_far.get(words[0])
        if far is not None:
            self.far = far
            return
        self.far = FrameAddress.from_word(words[0])
        self.space.validate(self.far)

    def _write_commands(self, words: list[int]) -> None:
        for code in words:
            command = _COMMANDS.get(code)
            if command is None:
                raise ConfigError(f"unknown CMD value {code:#x}")
            name, run = command
            self.command_log.append(name)
            if run is not None:
                run(self)

    def _write_mask(self, words: list[int]) -> None:
        self._require(len(words) == 1, "MASK write needs one word")
        self.mask = words[0]

    def _write_idcode(self, words: list[int]) -> None:
        self._require(len(words) == 1, "IDCODE write needs one word")
        self.idcode_received = words[0]
        if self.is_primary and words[0] != self.fabric.device.idcode:
            raise ConfigError(
                f"SLR{self.slr_index}: IDCODE mismatch "
                f"(got {words[0]:#010x}, device is "
                f"{self.fabric.device.idcode:#010x})")
        # Secondary SLRs: stored, never enforced (paper Section 4.5).

    def _write_clock_gates(self, words: list[int]) -> None:
        self._require(len(words) == 1, "CLK_GATE write needs one word")
        self.fabric.set_clock_gates(words[0], source_slr=self.slr_index)

    def _write_bout(self, words: list[int]) -> None:
        raise ConfigError(
            "BOUT writes are ring routing; they must not reach a "
            "microcontroller")

    def _read_fdro(self, count: int) -> array:
        self._require(self.mode == "read",
                      "FDRO read requires CMD=RCFG first")
        return self._read_frames(count)

    def _read_idcode(self, count: int) -> array:
        return _repeat(self.fabric.device.idcode, count)

    def _read_status(self, count: int) -> array:
        return _repeat(0x1 if self.fabric.booted else 0x0, count)

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------

    def _start(self) -> None:
        self.fabric.start(self.slr_index, self.enabled_regions())

    def _shutdown(self) -> None:
        self.fabric.shutdown(self.slr_index)

    def _capture(self) -> None:
        self.fabric.capture(self.slr_index, self.enabled_regions())

    def _restore(self) -> None:
        self.fabric.restore(self.slr_index, self.enabled_regions())

    # ------------------------------------------------------------------
    # frame traffic
    # ------------------------------------------------------------------

    def _advance_far(self) -> None:
        assert self.far is not None
        order = self.space.frame_order
        position = self.space.frame_index[self.far] + 1
        if position < len(order):
            self.far = order[position]
        else:
            self.far = None  # ran off the end; next access errors

    def _write_frames(self, words: list[int]) -> None:
        self._require(self.mode == "write",
                      "FDRI write requires CMD=WCFG first")
        self._require(len(words) % FRAME_WORDS == 0,
                      f"FDRI payload must be whole frames "
                      f"({FRAME_WORDS} words each)")
        for offset in range(0, len(words), FRAME_WORDS):
            self._require(self.far is not None, "FDRI write without FAR")
            written = self.far
            self.memory.write_frame(
                written, words[offset:offset + FRAME_WORDS])
            self._advance_far()
            # Content-frame writes take effect in the data plane at once
            # (BRAM/LUTRAM contents are configuration state).
            if self.fabric.booted:
                self.fabric.apply_content_frame(self.slr_index, written)

    def _read_frames(self, count: int) -> array:
        """FDRO: ``count`` words from the frames at and after FAR, in
        FAR order. The FAR was validated when written, so each frame is
        appended once, by memcpy, from its stored words (or zeros,
        never written)."""
        self._require(count % FRAME_WORDS == 0,
                      "FDRO read must request whole frames")
        out = array("I")
        frames = count // FRAME_WORDS
        if not frames:
            return out
        self._require(self.far is not None, "FDRO read without FAR")
        order = self.space.frame_order
        start = self.space.frame_index.get(self.far)
        if start is None:  # left by a FAR write that failed validation
            self.space.validate(self.far)
        end = start + frames
        if end > len(order):
            self.far = None  # ran off the end, as _advance_far does
            raise ConfigError(
                f"SLR{self.slr_index}: FDRO read without FAR")
        stored = self.memory.stored
        for address in order[start:end]:
            frame = stored(address)
            if frame is None:
                out.frombytes(_ZERO_FRAME_BYTES)
            else:
                out += frame
        self.far = order[end] if end < len(order) else None
        return out

    def _require(self, condition: bool, message: str) -> None:
        if not condition:
            raise ConfigError(f"SLR{self.slr_index}: {message}")

    def __repr__(self) -> str:
        return (f"Microcontroller(slr={self.slr_index}, "
                f"primary={self.is_primary})")


def _repeat(word: int, count: int) -> array:
    """A register read: ``word``, ``count`` times (at least once)."""
    return array("I", (word,)) * max(count, 1)


#: Register -> its write handler.
_WRITERS: dict[int, Callable[[Microcontroller, list[int]], None]] = {
    REGISTERS["FAR"]: Microcontroller._write_far,
    REGISTERS["CMD"]: Microcontroller._write_commands,
    REGISTERS["MASK"]: Microcontroller._write_mask,
    REGISTERS["IDCODE"]: Microcontroller._write_idcode,
    REGISTERS["FDRI"]: Microcontroller._write_frames,
    REGISTERS["CLK_GATE"]: Microcontroller._write_clock_gates,
    REGISTERS["BOUT"]: Microcontroller._write_bout,
}

#: Register -> its read handler.
_READERS: dict[int, Callable[[Microcontroller, int], array]] = {
    REGISTERS["FDRO"]: Microcontroller._read_fdro,
    REGISTERS["IDCODE"]: Microcontroller._read_idcode,
    REGISTERS["STAT"]: Microcontroller._read_status,
}

def _enter(mode: str) -> Callable[[Microcontroller], None]:
    def enter(controller: Microcontroller) -> None:
        controller.mode = mode
    return enter


#: CMD name -> what it does (RCRC, MFW, AGHIGH and SWITCH are accepted
#: and need no model behaviour).
_HANDLERS: dict[str, Callable[[Microcontroller], None]] = {
    "WCFG": _enter("write"),
    "RCFG": _enter("read"),
    "NULL": _enter("idle"),
    "LFRM": _enter("idle"),
    "DESYNC": _enter("idle"),
    "START": Microcontroller._start,
    "SHUTDOWN": Microcontroller._shutdown,
    "GCAPTURE": Microcontroller._capture,
    "GRESTORE": Microcontroller._restore,
}

#: CMD code -> (name, handler or None).
_COMMANDS: dict[int, tuple[str, Optional[Callable[[Microcontroller],
                                                  None]]]] = {
    code: (name, _HANDLERS.get(name)) for code, name in CMD_NAMES.items()}
