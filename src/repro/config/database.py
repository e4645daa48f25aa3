"""Design database: the vendor flow's handoff to the fabric.

Bundles everything the emulated card needs to behave like a configured
FPGA: the functional netlist, clock periods, the logic location file, the
expected configuration frame image per SLR (programming is only accepted
when the bitstream delivers matching frames — the stream content is
load-bearing, not decorative), and the debug-control wiring (which design
signal requests a pause of which clock domain, and which CLK_GATE register
bit gates it).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..fpga.device import Device
from ..fpga.frames import FRAME_WORDS, FrameAddress
from ..rtl.netlist import Netlist
from .logic_loc import LogicLocationFile


@dataclass
class DesignDatabase:
    """A fully implemented design, ready to program."""

    name: str
    device: Device
    netlist: Netlist
    ll: LogicLocationFile
    #: Clock domain -> period in picoseconds.
    clocks: dict[str, int] = field(default_factory=dict)
    #: Expected configuration image: slr -> frame -> words.
    frame_image: dict[int, dict[FrameAddress, list[int]]] = \
        field(default_factory=dict)
    #: Clock domain -> design signal that, when 1, requests the domain's
    #: clock gate (driven by the Debug Controller's pause logic).
    gate_signals: dict[str, str] = field(default_factory=dict)
    #: Clock domain -> bit index in the global CLK_GATE control register.
    domain_bits: dict[str, int] = field(default_factory=dict)
    #: Memory name -> content-frame placement (BRAM/LUTRAM capture).
    memory_map: dict[str, object] = field(default_factory=dict)
    #: SLR -> its capture plan, built on first use by
    #: :func:`repro.config.capture_plan.capture_plan`.
    capture_plans: dict[int, object] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.domain_bits:
            self.domain_bits = {
                domain: index
                for index, domain in enumerate(
                    sorted(self.netlist.clock_domains()))
            }

    def image_checksum(self, slr: int) -> str:
        """Digest of one SLR's expected frame image."""
        digest = hashlib.sha256()
        for address in sorted(self.frame_image.get(slr, {})):
            digest.update(address.to_word().to_bytes(4, "big"))
            for word in self.frame_image[slr][address]:
                digest.update(word.to_bytes(4, "big"))
        return digest.hexdigest()


def synthesize_frame_words(seed: str, address: FrameAddress) -> list[int]:
    """Deterministic frame content derived from the design identity.

    Real frames hold LUT equations and routing bits; the functional model
    executes the netlist directly, but the *bytes shipped through the
    configuration path* still matter: programming verifies them against
    the expected image, so a corrupted or wrong-section bitstream fails
    exactly as on hardware.
    """
    material = f"{seed}:{address.to_word():#010x}".encode()
    words: list[int] = []
    counter = 0
    while len(words) < FRAME_WORDS:
        digest = hashlib.sha256(material + counter.to_bytes(4, "big")).digest()
        for index in range(0, len(digest), 4):
            if len(words) == FRAME_WORDS:
                break
            words.append(int.from_bytes(digest[index:index + 4], "big"))
        counter += 1
    return words
