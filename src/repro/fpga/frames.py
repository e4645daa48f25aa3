"""Configuration frame address space and sparse frame memory.

UltraScale-style configuration memory is organized as fixed-size *frames*
addressed by the FAR register: ``(block_type, clock region, column,
minor)``. CLB columns carry 16 minor frames of routing/LUT configuration;
BRAM columns carry 6 configuration minors in the main block plus 128
content frames in the BRAM block. Flip-flop values occupy dedicated bit
positions inside a column's *capture* minor — written by the GCAPTURE
command and read back through FDRO, which is exactly the path Zoomie's
state extraction uses (paper Section 3.2).
"""

from __future__ import annotations

from array import array
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from ..errors import DeviceError
from .device import BRAM, CLBM, REGION_ROWS, Slr

#: Words per frame (UltraScale+: 93 x 32-bit words).
FRAME_WORDS = 93
#: The words of a frame never written.
ZERO_FRAME = (0,) * FRAME_WORDS

BLOCK_MAIN = 0
BLOCK_BRAM = 1

#: Minor frames per CLB column (routing + LUT equations + FF capture).
CLB_MINORS = 16
#: The minor index within a CLB column that captures FF values.
CAPTURE_MINOR = 15
#: Configuration minors of a BRAM column in the main block.
BRAM_CFG_MINORS = 6
#: Content frames of a BRAM column in the BRAM block.
BRAM_CONTENT_MINORS = 128
#: Content frames of a LUTRAM-capable (SLICEM) column in the BRAM block:
#: distributed-RAM contents are configuration state too, and reading or
#: writing them goes through the same frame machinery as BRAM content.
LUTRAM_CONTENT_MINORS = 12

_BLOCK_SHIFT = 24
_REGION_SHIFT = 17
_COLUMN_SHIFT = 7
_BLOCK_MASK = 0x7
_REGION_MASK = 0x7F
_COLUMN_MASK = 0x3FF
_MINOR_MASK = 0x7F


class FrameAddress(NamedTuple):
    """One frame's address (the FAR register payload).

    A tuple, so hashing, equality and ordering (block, region, column,
    minor) run in C on every frame-keyed lookup.
    """

    block_type: int
    region: int
    column: int
    minor: int

    def to_word(self) -> int:
        """Pack into the 32-bit FAR encoding."""
        return ((self.block_type & _BLOCK_MASK) << _BLOCK_SHIFT
                | (self.region & _REGION_MASK) << _REGION_SHIFT
                | (self.column & _COLUMN_MASK) << _COLUMN_SHIFT
                | (self.minor & _MINOR_MASK))

    @classmethod
    def from_word(cls, word: int) -> "FrameAddress":
        return cls(
            block_type=(word >> _BLOCK_SHIFT) & _BLOCK_MASK,
            region=(word >> _REGION_SHIFT) & _REGION_MASK,
            column=(word >> _COLUMN_SHIFT) & _COLUMN_MASK,
            minor=word & _MINOR_MASK,
        )

    def __str__(self) -> str:
        block = {BLOCK_MAIN: "main", BLOCK_BRAM: "bram"}.get(
            self.block_type, f"blk{self.block_type}")
        return (f"{block}/R{self.region}/C{self.column}/M{self.minor}")


@lru_cache(maxsize=None)
def _frame_order(slr: Slr) -> tuple[tuple[FrameAddress, ...],
                                    Mapping[FrameAddress, int]]:
    """One SLR geometry's frames in FAR order, and each one's position.

    Enumerated once per :class:`Slr` (a frozen, hashable geometry) and
    shared by every :class:`FrameSpace` of it: the microcontrollers'
    FAR auto-increment and readback's FDRO run coalescing both walk it.
    """
    space = FrameSpace(slr)
    order = tuple(
        FrameAddress(block_type=block_type, region=region,
                     column=column.index, minor=minor)
        for block_type in (BLOCK_MAIN, BLOCK_BRAM)
        for region in range(slr.clock_regions)
        for column in slr.columns
        for minor in range(space.minors_of(column.kind, block_type)))
    return order, MappingProxyType(
        {address: index for index, address in enumerate(order)})


@lru_cache(maxsize=None)
def _frames_by_far(slr: Slr) -> Mapping[int, FrameAddress]:
    return MappingProxyType(
        {address.to_word(): address for address in _frame_order(slr)[0]})


class FrameSpace:
    """Enumerates the valid frames of one SLR."""

    def __init__(self, slr: Slr):
        self.slr = slr

    @cached_property
    def frame_order(self) -> tuple[FrameAddress, ...]:
        """All frames in FAR order (block, region, column, minor),
        shared by every space of this SLR geometry."""
        return _frame_order(self.slr)[0]

    @cached_property
    def frame_index(self) -> Mapping[FrameAddress, int]:
        """Each frame's position in :attr:`frame_order` (shared, read
        only)."""
        return _frame_order(self.slr)[1]

    @cached_property
    def frame_at_far(self) -> Mapping[int, FrameAddress]:
        """Each frame of :attr:`frame_order` by its FAR word (shared,
        read only): how a microcontroller decodes a FAR write."""
        return _frames_by_far(self.slr)

    def minors_of(self, column_kind: str, block_type: int) -> int:
        if block_type == BLOCK_MAIN:
            return BRAM_CFG_MINORS if column_kind == BRAM else CLB_MINORS
        if block_type == BLOCK_BRAM:
            if column_kind == BRAM:
                return BRAM_CONTENT_MINORS
            if column_kind == CLBM:
                return LUTRAM_CONTENT_MINORS
            return 0
        return 0

    def content_capacity_bits(self, column_kind: str) -> int:
        """Content bits one column holds per clock region."""
        return self.minors_of(column_kind, BLOCK_BRAM) * FRAME_WORDS * 32

    def content_location(self, column: int, column_kind: str,
                         region_lo: int,
                         bit_index: int) -> tuple[FrameAddress, int]:
        """Frame address and bit offset of one memory content bit.

        Memory contents are laid out linearly across a column's content
        frames, starting at ``region_lo`` and spilling into higher clock
        regions as needed.
        """
        per_region = self.content_capacity_bits(column_kind)
        if per_region == 0:
            raise DeviceError(
                f"column kind {column_kind!r} has no content frames")
        region = region_lo + bit_index // per_region
        within = bit_index % per_region
        minor, offset = divmod(within, FRAME_WORDS * 32)
        address = FrameAddress(
            block_type=BLOCK_BRAM, region=region, column=column,
            minor=minor)
        self.validate(address)
        return address, offset

    def frames(self) -> Iterator[FrameAddress]:
        """All frames in FAR order (block, region, column, minor)."""
        return iter(self.frame_order)

    def frame_count(self) -> int:
        total = 0
        for block_type in (BLOCK_MAIN, BLOCK_BRAM):
            for column in self.slr.columns:
                total += self.minors_of(column.kind, block_type)
        return total * self.slr.clock_regions

    def frames_of_columns(self, columns: set[int],
                          block_type: int | None = None
                          ) -> list[FrameAddress]:
        """Frames belonging to the given column indices (all regions)."""
        out = []
        for address in self.frames():
            if address.column in columns and (
                    block_type is None or address.block_type == block_type):
                out.append(address)
        return out

    def validate(self, address: FrameAddress) -> None:
        """Raise :class:`DeviceError` unless ``address`` is a frame of
        this SLR: one :attr:`frame_index` lookup."""
        if address in self.frame_index:
            return
        if address.region >= self.slr.clock_regions or address.region < 0:
            raise DeviceError(f"frame {address}: region out of range")
        column = next(
            (c for c in self.slr.columns if c.index == address.column), None)
        if column is None:
            raise DeviceError(f"frame {address}: no such column")
        if not 0 <= address.minor < self.minors_of(column.kind,
                                                   address.block_type):
            raise DeviceError(f"frame {address}: minor out of range")
        raise DeviceError(f"frame {address}: not a frame of this SLR")

    def coalesce(self, frames
                 ) -> tuple[tuple[FrameAddress, ...],
                            tuple[tuple[FrameAddress, int], ...]]:
        """``frames`` deduped and in FAR order, and the ``(first frame,
        count)`` runs of contiguous ones: what one FDRO read per run
        moves. A frame outside this SLR raises :class:`DeviceError`."""
        index = self.frame_index
        try:
            positions = sorted({index[address] for address in frames})
        except KeyError:
            for address in frames:
                self.validate(address)  # raises for the one that missed
            raise
        spans: list[list[int]] = []
        for position in positions:
            if spans and position == spans[-1][0] + spans[-1][1]:
                spans[-1][1] += 1
            else:
                spans.append([position, 1])
        order = self.frame_order
        return (tuple(order[position] for position in positions),
                tuple((order[start], count) for start, count in spans))

    # -- FF capture bit mapping -------------------------------------------

    def ff_location(self, column: int, row: int,
                    ff_index: int) -> tuple[FrameAddress, int]:
        """Frame address and bit offset of one flip-flop's capture bit.

        ``row`` is the absolute grid row; ``ff_index`` selects one of the
        column's FFs at that row (0..15).
        """
        region, region_row = divmod(row, REGION_ROWS)
        address = FrameAddress(
            block_type=BLOCK_MAIN, region=region, column=column,
            minor=CAPTURE_MINOR)
        bit = region_row * 16 + ff_index
        if bit >= FRAME_WORDS * 32:
            raise DeviceError(
                f"capture bit {bit} exceeds frame size "
                f"({FRAME_WORDS * 32} bits)")
        return address, bit


class ConfigMemory:
    """Sparse frame storage for one SLR.

    Unwritten frames read as zeros; the dense frame count of a real SLR
    (tens of thousands) would waste memory for the small configured
    designs the tests run. Each written frame is stored as one
    ``array("I")``: 32-bit words, copied and read back by memcpy.
    """

    def __init__(self, space: FrameSpace):
        self.space = space
        self._frames: dict[FrameAddress, array] = {}
        #: Frames written since the last configuration START — the set
        #: whose flip-flops a post-reconfiguration GSR initializes.
        self.dirty: set[FrameAddress] = set()

    def read_frame(self, address: FrameAddress) -> list[int]:
        self.space.validate(address)
        frame = self._frames.get(address)
        return list(frame) if frame else [0] * FRAME_WORDS

    def write_frame(self, address: FrameAddress,
                    words: Sequence[int]) -> None:
        """Store ``words`` (93 of them) as the frame; a word outside 32
        bits is stored masked to its low 32."""
        self.space.validate(address)
        if len(words) != FRAME_WORDS:
            raise DeviceError(
                f"frame write needs {FRAME_WORDS} words, got {len(words)}")
        try:
            stored = array("I", words)
        except OverflowError:
            stored = array("I", [w & 0xFFFF_FFFF for w in words])
        self._frames[address] = stored
        self.dirty.add(address)

    def take_dirty(self) -> set[FrameAddress]:
        """Return and clear the dirty set (consumed at START)."""
        out = self.dirty
        self.dirty = set()
        return out

    def written_frames(self) -> list[FrameAddress]:
        return sorted(self._frames)

    def clear(self) -> None:
        self._frames.clear()

    # -- in-place access for capture plans ----------------------------------
    # A capture plan (repro.config.capture_plan) validates each of its
    # frame addresses once, when it is built; these skip the per-call
    # check and copy of read_frame/write_frame.

    def stored(self, address: FrameAddress) -> Optional[array]:
        """A frame's stored words (not a copy; do not mutate), or None
        if it was never written."""
        return self._frames.get(address)

    def capture_frame(self, address: FrameAddress) -> array:
        """A frame's stored words for GCAPTURE to overwrite in place; a
        frame never written is created as zeros. Capture does not mark
        the frame dirty: it is state traffic, not reconfiguration."""
        frame = self._frames.get(address)
        if frame is None:
            frame = self._frames[address] = array("I", ZERO_FRAME)
        return frame
