"""Per-SLR configuration microcontroller.

Executes decoded bitstream packets against one SLR: frame writes (FDRI),
readback (FDRO), command sequencing (WCFG/RCFG/START/GCAPTURE/GRESTORE/
SHUTDOWN/...), the GSR/capture region MASK, and the IDCODE check — which,
matching the paper's observation, is only *enforced* on the primary SLR;
secondary controllers store whatever arrives without it affecting
anything (Section 4.5, "Mutating Device ID in Bitstream").
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from ..errors import ConfigError
from ..fpga.frames import FRAME_WORDS, ZERO_FRAME, FrameAddress
from ..bitstream.packets import Packet, READ, WRITE
from ..bitstream.words import CMD_NAMES, REGISTERS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fabric import FabricDevice

_FAR = REGISTERS["FAR"]
_FDRI = REGISTERS["FDRI"]
_FDRO = REGISTERS["FDRO"]
_CMD = REGISTERS["CMD"]
_MASK = REGISTERS["MASK"]
_IDCODE = REGISTERS["IDCODE"]
_CLK_GATE = REGISTERS["CLK_GATE"]
_BOUT = REGISTERS["BOUT"]

#: CMD names kept per controller (most recent last): enough to see the
#: last few batches, bounded so a long session does not grow memory.
COMMAND_LOG_DEPTH = 256


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

    def execute(self, packet: Packet) -> list[int]:
        """Run one packet; returns read data (empty for writes)."""
        if packet.opcode == WRITE:
            self._write(packet.register, packet.words)
            return []
        if packet.opcode == READ:
            return self._read(packet.register, packet.read_count)
        return []

    def _write(self, register: int, words: list[int]) -> None:
        if register == _FAR:
            self._require(len(words) == 1, "FAR write needs one word")
            self.far = self.space.frame_at_far.get(words[0]) \
                or FrameAddress.from_word(words[0])
            self.space.validate(self.far)
        elif register == _CMD:
            for word in words:
                self._run_command(word)
        elif register == _MASK:
            self._require(len(words) == 1, "MASK write needs one word")
            self.mask = words[0]
        elif register == _IDCODE:
            self._require(len(words) == 1, "IDCODE write needs one word")
            self.idcode_received = words[0]
            if self.is_primary and words[0] != self.fabric.device.idcode:
                raise ConfigError(
                    f"SLR{self.slr_index}: IDCODE mismatch "
                    f"(got {words[0]:#010x}, device is "
                    f"{self.fabric.device.idcode:#010x})")
            # Secondary SLRs: stored, never enforced (paper Section 4.5).
        elif register == _FDRI:
            self._write_frames(words)
        elif register == _CLK_GATE:
            self._require(len(words) == 1, "CLK_GATE write needs one word")
            self.fabric.set_clock_gates(words[0], source_slr=self.slr_index)
        elif register == _BOUT:
            raise ConfigError(
                "BOUT writes are ring routing; they must not reach a "
                "microcontroller")
        else:
            # CRC included: stored, never checked (sections assembled by
            # different tools interleave per-SLR traffic).
            if words:
                self.stored[register] = words[-1]

    def _read(self, register: int, count: int) -> list[int]:
        if register == _FDRO:
            self._require(self.mode == "read",
                          "FDRO read requires CMD=RCFG first")
            return self._read_frames(count)
        if register == _IDCODE:
            return [self.fabric.device.idcode] * max(count, 1)
        if register == REGISTERS["STAT"]:
            status = 0x1 if self.fabric.booted else 0x0
            return [status] * max(count, 1)
        return [self.stored.get(register, 0)] * max(count, 1)

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------

    def _run_command(self, code: int) -> None:
        name = CMD_NAMES.get(code)
        if name is None:
            raise ConfigError(f"unknown CMD value {code:#x}")
        self.command_log.append(name)
        if name == "WCFG":
            self.mode = "write"
        elif name == "RCFG":
            self.mode = "read"
        elif name == "NULL" or name == "LFRM":
            self.mode = "idle"
        elif name == "START":
            self.fabric.start(self.slr_index, self.enabled_regions())
        elif name == "SHUTDOWN":
            self.fabric.shutdown(self.slr_index)
        elif name == "GCAPTURE":
            self.fabric.capture(self.slr_index, self.enabled_regions())
        elif name == "GRESTORE":
            self.fabric.restore(self.slr_index, self.enabled_regions())
        elif name == "DESYNC":
            self.mode = "idle"
        # RCRC, MFW, AGHIGH, SWITCH: accepted, no model behaviour needed.

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

    def _read_frames(self, count: int) -> list[int]:
        """FDRO: ``count`` words from the frames at and after FAR, in
        FAR order. The FAR was validated when written, so each frame is
        copied once, from its stored words (or zeros, never written)."""
        self._require(count % FRAME_WORDS == 0,
                      "FDRO read must request whole frames")
        out: list[int] = []
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
            out.extend(stored(address) or ZERO_FRAME)
        self.far = order[end] if end < len(order) else None
        return out

    def _require(self, condition: bool, message: str) -> None:
        if not condition:
            raise ConfigError(f"SLR{self.slr_index}: {message}")

    def __repr__(self) -> str:
        return (f"Microcontroller(slr={self.slr_index}, "
                f"primary={self.is_primary})")
