"""Bitstream analysis (the Bitfiltrator-style inspection of Section 4.4).

:func:`analyze_bitstream` decodes a word stream into per-SLR sections,
reporting exactly the artifacts the paper studies: how many empty ``BOUT``
writes precede each section, which IDCODE values are written where, and
the command sequence. The hypothesis-validation tests replay the paper's
experiments on top of this, and the verified transport reads a
program's target SLRs from the same sections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .packets import NOP, WRITE, Packet, decode_stream
from .words import CMD_NAMES, REGISTERS, register_name

_BOUT = REGISTERS["BOUT"]
_IDCODE = REGISTERS["IDCODE"]
_CMD = REGISTERS["CMD"]


@dataclass
class Section:
    """A run of packets between BOUT hop groups."""

    #: Number of consecutive empty BOUT writes that opened this section
    #: (0 for the leading, primary-directed section).
    hop_count: int
    packets: list[Packet] = field(default_factory=list)

    @property
    def idcode_writes(self) -> list[int]:
        return [p.words[0] for p in self.packets
                if p.opcode == WRITE and p.register == _IDCODE and p.words]

    @property
    def commands(self) -> list[str]:
        out = []
        for p in self.packets:
            if p.opcode == WRITE and p.register == _CMD and p.words:
                out.append(CMD_NAMES.get(p.words[0], f"CMD_{p.words[0]:#x}"))
        return out

    @property
    def registers_written(self) -> list[str]:
        return [register_name(p.register) for p in self.packets
                if p.opcode == WRITE]


@dataclass
class BitstreamAnalysis:
    """Decoded structure of one bitstream."""

    sections: list[Section] = field(default_factory=list)

    @property
    def bout_pattern(self) -> list[int]:
        """Hop counts per section after the first — the paper's
        "repetition pattern" (e.g. ``[1, 2]`` on a 3-SLR U200 stream)."""
        return [s.hop_count for s in self.sections[1:]]

    @property
    def idcode_values(self) -> list[int]:
        out = []
        for section in self.sections:
            out.extend(section.idcode_writes)
        return out


def analyze_bitstream(words: list[int]) -> BitstreamAnalysis:
    """Split a stream into BOUT-delimited sections."""
    analysis = BitstreamAnalysis()
    current = Section(hop_count=0)
    analysis.sections.append(current)
    pending_hops = 0
    for packet in decode_stream(words):
        if packet.opcode == WRITE and packet.register == _BOUT \
                and not packet.words:
            pending_hops += 1
            continue
        if pending_hops:
            current = Section(hop_count=pending_hops)
            analysis.sections.append(current)
            pending_hops = 0
        if packet.opcode == NOP:
            continue
        current.packets.append(packet)
    return analysis
