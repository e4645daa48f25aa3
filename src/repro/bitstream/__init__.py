"""Bitstream format: packets, registers, assembly, and analysis.

Models the UltraScale configuration word stream the paper dissects in
Section 4: dummy padding (``0xFFFFFFFF``), the sync word (``0xAA995566``),
Type-1/Type-2 packets addressing configuration registers, documented
registers (FAR/FDRI/FDRO/CMD/MASK/IDCODE/...), and the *undocumented*
``BOUT`` register whose empty writes hop the configuration ring between
SLRs — the paper's key reverse-engineering result.
"""

from .words import (
    BUS_DETECT,
    BUS_WIDTH,
    DUMMY,
    SYNC,
    CMD_VALUES,
    REGISTERS,
    register_name,
)
from .packets import (
    NOP,
    READ,
    WRITE,
    Packet,
    decode_stream,
    encode_packet,
)
from .assembler import BitstreamAssembler
from .disassembler import BitstreamAnalysis, analyze_bitstream

__all__ = [
    "BUS_DETECT",
    "BUS_WIDTH",
    "BitstreamAnalysis",
    "BitstreamAssembler",
    "CMD_VALUES",
    "DUMMY",
    "NOP",
    "Packet",
    "READ",
    "REGISTERS",
    "SYNC",
    "WRITE",
    "analyze_bitstream",
    "decode_stream",
    "encode_packet",
    "register_name",
]
