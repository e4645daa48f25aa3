"""Compiled frame <-> state conversion: GCAPTURE, GRESTORE, readback.

Zoomie reads design state with GCAPTURE plus FDRO readback matched
against the vendor logic-location file, and writes it by
capture-modify-restore (paper Sections 3.2-3.3). Both directions follow
a mapping that is fixed once a design is implemented:

- the logic-location file puts every flip-flop bit at a (frame, bit
  offset) of one SLR's capture frames;
- placement gives each memory a contiguous run of whole content frames
  (:class:`~repro.vendor.place.MemoryPlacement`), and the memory's
  words fill them as one bit image: bit ``b`` of word ``i`` is image
  bit ``i * width + b``, and image bit ``k`` is bit ``k % FRAME_BITS``
  of the memory's ``k // FRAME_BITS``-th frame.

This module is the one place that knows that format, and it compiles
it at two levels:

- :class:`RegisterLayout`, one per logic-location file (cached on the
  file), groups register bits into *runs*. A run ``(register, bit,
  mask, shift)`` moves ``(value >> bit) & mask`` of a register to bit
  ``shift`` of one 32-bit frame word, and back.
  Readback parsing and the debugger's register edits run on it.
- :class:`CapturePlan`, one per (design database, SLR), adds what needs
  the netlist and the frame space: GCAPTURE, GRESTORE, GSR,
  content-frame writes, and memory packing and unpacking.

A plan checks every frame address (:meth:`FrameSpace.validate`), every
register name (against the netlist) and every bit position (no two
entries share one) once, when it is built; its per-call paths only
index prebuilt tables.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Optional, Sequence

from ..errors import ConfigError
from ..fpga.frames import FRAME_WORDS, ConfigMemory, FrameAddress, FrameSpace
from .logic_loc import LLEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import DesignDatabase

#: Bits per configuration frame.
FRAME_BITS = FRAME_WORDS * 32
_FRAME = struct.Struct(f"<{FRAME_WORDS}I")
_ZERO_FRAME = (0,) * FRAME_WORDS


class RegisterLayout:
    """Logic-location entries grouped into word-level runs."""

    def __init__(self, entries: Sequence[LLEntry]):
        by_register: dict[str, list[LLEntry]] = {}
        for entry in entries:
            by_register.setdefault(entry.name, []).append(entry)
        for bits in by_register.values():
            bits.sort(key=lambda e: e.bit)
        #: Register -> its entries by bit, in first-appearance order
        #: (shared: do not mutate).
        self.by_register = by_register
        #: Register -> ``(slr, frame, word, bit, mask, shift)`` runs.
        self.runs: dict[str, list[tuple]] = {}
        #: ``(slr, frame)`` -> ``(word, keep, runs)`` per frame word the
        #: file uses; ``keep`` masks the word's bits no entry owns.
        self.frames: dict[tuple[int, FrameAddress], list[tuple]] = {}
        #: ``(slr, frame)`` -> the registers with bits in that frame.
        self.frame_registers: dict[tuple[int, FrameAddress],
                                   tuple[str, ...]] = {}
        #: Register -> how many frames its bits span.
        self.frame_counts: dict[str, int] = {}
        #: Prefix -> :meth:`columns_under`'s answer.
        self._columns: dict[str, dict[int, set[int]]] = {}

        words: dict[tuple[int, FrameAddress], dict[int, list]] = {}
        registers: dict[tuple[int, FrameAddress], list[str]] = {}
        for name, bits in by_register.items():
            spans: list[list] = []
            for entry in bits:
                word, shift = divmod(entry.offset, 32)
                if spans:
                    last = spans[-1]
                    if (entry.slr == last[0] and entry.frame == last[1]
                            and word == last[2]
                            and entry.bit == last[3] + last[4]
                            and shift == last[5] + last[4]):
                        last[4] += 1
                        continue
                spans.append([entry.slr, entry.frame, word, entry.bit,
                              1, shift])
            runs = [(slr, frame, word, bit, (1 << count) - 1, shift)
                    for slr, frame, word, bit, count, shift in spans]
            self.runs[name] = runs
            keys = []
            for slr, frame, word, bit, mask, shift in runs:
                key = (slr, frame)
                if key not in keys:
                    keys.append(key)
                words.setdefault(key, {}).setdefault(word, []).append(
                    (name, bit, mask, shift))
            self.frame_counts[name] = len(keys)
            for key in keys:
                registers.setdefault(key, []).append(name)
        for key, by_word in words.items():
            self.frame_registers[key] = tuple(registers[key])
            ops = []
            for word, runs in sorted(by_word.items()):
                owned = 0
                for _name, _bit, mask, shift in runs:
                    owned |= mask << shift
                ops.append((word, ~owned & 0xFFFF_FFFF, tuple(runs)))
            self.frames[key] = ops

    def parse(self, frames: dict[tuple[int, FrameAddress], list[int]],
              prefix: str = "") -> dict[str, int]:
        """Register values from captured frame words; see
        :func:`repro.debug.state.parse_capture_frames`."""
        values: dict[str, int] = {}
        seen: dict[str, int] = {}
        for key, words in frames.items():
            ops = self.frames.get(key)
            if ops is None:
                continue
            for word, _keep, runs in ops:
                value = words[word]
                for name, bit, mask, shift in runs:
                    values[name] = values.get(name, 0) \
                        | ((value >> shift) & mask) << bit
            for name in self.frame_registers[key]:
                seen[name] = seen.get(name, 0) + 1
        dotted = prefix + "."
        # Keep only registers whose every frame was read, in file order.
        return {
            name: values[name] for name in self.by_register
            if seen.get(name) == self.frame_counts[name]
            and (not prefix or name == prefix or name.startswith(dotted))
        }

    def columns_under(self, prefix: str) -> dict[int, set[int]]:
        """SLR -> the columns holding the registers under a hierarchical
        prefix (``""``: all), cached per prefix (shared: do not
        mutate)."""
        columns = self._columns.get(prefix)
        if columns is None:
            dotted = prefix + "."
            columns = self._columns[prefix] = {}
            for name, runs in self.runs.items():
                if not prefix or name == prefix or name.startswith(dotted):
                    for slr, frame, *_ in runs:
                        columns.setdefault(slr, set()).add(frame.column)
        return columns

    def frames_of(self, names) -> list[FrameAddress]:
        """The capture frames holding the named registers, sorted."""
        return sorted({run[1] for name in names for run in self.runs[name]})

    def write(self, frame_words: dict[FrameAddress, list[int]],
              updates: dict[str, int]) -> None:
        """Set the named registers' bits in captured frame words (the
        modify step of capture-modify-restore); values are truncated to
        the bits the file locates."""
        for name, value in updates.items():
            for _slr, frame, word, bit, mask, shift in self.runs[name]:
                words = frame_words[frame]
                words[word] = (words[word] & ~(mask << shift)) \
                    | ((value >> bit) & mask) << shift


class MemoryImage:
    """One memory's contents as a bit image over its content frames."""

    def __init__(self, name: str, width: int, depth: int,
                 frames: tuple[FrameAddress, ...]):
        self.name = name
        self.width = width
        self.depth = depth
        self.bits = width * depth
        #: The memory's content frames, in image order.
        self.frames = frames
        #: GCAPTURE's region filter: the region of the first frame.
        self.region = frames[0].region
        #: Words and leftover bits of the image in its last frame.
        self._tail = divmod(self.bits - (len(frames) - 1) * FRAME_BITS, 32)

    def pack(self, words: Sequence[int]) -> list[tuple[int, ...]]:
        """Frame words holding ``words``, each truncated to the width;
        image bits past the memory's extent are zero."""
        data = _pack(words, self.width).to_bytes(
            len(self.frames) * _FRAME.size, "little")
        return [_FRAME.unpack_from(data, index * _FRAME.size)
                for index in range(len(self.frames))]

    def unpack(self, frames: Sequence[Sequence[int]]) -> list[int]:
        """The memory's words from its content frames' words."""
        return _unpack(_join(frames), self.width, self.depth)

    def capture(self, config: ConfigMemory, words: Sequence[int]) -> None:
        """Pack live words into the content frames. The bits past the
        memory's extent in its last frame keep their configuration."""
        packed = self.pack(words)
        last = len(self.frames) - 1
        for index, address in enumerate(self.frames):
            frame = config.capture_frame(address)
            if index < last:
                frame[:] = packed[index]
                continue
            whole, leftover = self._tail
            frame[:whole] = packed[index][:whole]
            if leftover:
                keep = ~((1 << leftover) - 1) & 0xFFFF_FFFF
                frame[whole] = (frame[whole] & keep) | packed[index][whole]

    def reload(self, config: ConfigMemory, live: list[int],
               index: int) -> None:
        """Rebuild the live words whose bits frame ``index`` holds; a
        word straddling two frames is read from both."""
        width = self.width
        start = index * FRAME_BITS
        end = min(start + FRAME_BITS, self.bits)
        if start >= end:
            return
        first, last = start // width, (end - 1) // width + 1
        lo = first * width // FRAME_BITS
        hi = (last * width - 1) // FRAME_BITS + 1
        image = _join(config.stored(address) or _ZERO_FRAME
                      for address in self.frames[lo:hi])
        live[first:last] = _unpack(
            image >> (first * width - lo * FRAME_BITS), width, last - first)


class CapturePlan:
    """Frame <-> state traffic of one SLR of one design database.

    Holds no reference to a simulator: a power cycle or a partial
    reconfiguration swaps the simulator, and a new database brings new
    plans (:func:`capture_plan`).
    """

    def __init__(self, db: "DesignDatabase", slr: int):
        space = FrameSpace(db.device.slr(slr))
        netlist = db.netlist
        self.layout = db.ll.layout()

        latches = netlist.sync_read_outputs()
        taken: dict[tuple[FrameAddress, int], LLEntry] = {}
        located: set[tuple[str, int]] = set()
        for entry in db.ll.entries_for_slr(slr):
            if entry.name not in netlist.registers \
                    and entry.name not in latches:
                raise ConfigError(
                    f"logic-location entry {entry.name}[{entry.bit}]: "
                    f"{netlist.name} has no register {entry.name!r}")
            other = taken.setdefault((entry.frame, entry.offset), entry)
            if other is not entry:
                raise ConfigError(
                    f"SLR{slr} frame {entry.frame} bit {entry.offset} "
                    f"holds both {other.name}[{other.bit}] and "
                    f"{entry.name}[{entry.bit}]")
            if (entry.name, entry.bit) in located:
                raise ConfigError(
                    f"{entry.name}[{entry.bit}] has two locations on "
                    f"SLR{slr}")
            located.add((entry.name, entry.bit))

        #: ``(frame, region, ops)`` per capture frame of this SLR.
        self.frames: list[tuple[FrameAddress, int, list[tuple]]] = []
        #: Register (or memory output latch) -> width mask, for the
        #: registers with bits on this SLR.
        self._masks: dict[str, int] = {}
        #: Clock region -> the netlist registers GSR resets there.
        self._gsr: dict[int, set[str]] = {}
        for (frame_slr, address), ops in self.layout.frames.items():
            if frame_slr != slr:
                continue
            space.validate(address)
            self.frames.append((address, address.region, ops))
            for name in self.layout.frame_registers[(slr, address)]:
                register = netlist.registers.get(name)
                width = latches[name] if register is None \
                    else register.width
                self._masks[name] = (1 << width) - 1
                if register is not None:
                    self._gsr.setdefault(address.region, set()).add(name)
        self._inits = {name: netlist.registers[name].init
                       for names in self._gsr.values() for name in names}

        #: Memory name -> its image, for the memories placed on this SLR.
        self.memories: dict[str, MemoryImage] = {}
        #: Content frame -> (memory image, frame index in the image).
        self._content: dict[FrameAddress, tuple[MemoryImage, int]] = {}
        for name, placement in sorted(db.memory_map.items()):
            if placement.slr != slr:
                continue
            memory = netlist.memories.get(name)
            if memory is None:
                raise ConfigError(
                    f"memory map places {name!r}, which {netlist.name} "
                    f"does not have")
            frames = tuple(placement.frame_addresses(space))
            if len(frames) != max(1, -(-memory.bits // FRAME_BITS)):
                raise ConfigError(
                    f"memory {name!r}: {memory.bits} bits, but its "
                    f"placement holds {len(frames)} content frames")
            image = MemoryImage(name, memory.width, memory.depth, frames)
            for index, address in enumerate(frames):
                if address in self._content:
                    raise ConfigError(
                        f"content frame {address} holds both "
                        f"{self._content[address][0].name!r} and "
                        f"{name!r}")
                self._content[address] = (image, index)
            self.memories[name] = image

    # ------------------------------------------------------------------
    # flip-flops
    # ------------------------------------------------------------------

    def capture(self, sim, config: ConfigMemory,
                regions: Optional[set[int]]) -> None:
        """GCAPTURE: register values and memory contents into frames."""
        peek = sim.peek
        values = {name: peek(name) for name in self._masks}
        for address, region, ops in self.frames:
            if regions is not None and region not in regions:
                continue
            frame = config.capture_frame(address)
            for word, keep, runs in ops:
                value = frame[word] & keep
                for name, bit, mask, shift in runs:
                    value |= ((values[name] >> bit) & mask) << shift
                frame[word] = value
        for image in self.memories.values():
            if regions is None or image.region in regions:
                image.capture(config, sim.memories[image.name])

    def restore(self, sim, config: ConfigMemory,
                regions: Optional[set[int]]) -> None:
        """GRESTORE: load registers from their capture frames. Bits of
        a register outside the enabled regions keep their value."""
        values: dict[str, int] = {}
        covered: dict[str, int] = {}
        for address, region, ops in self.frames:
            if regions is not None and region not in regions:
                continue
            frame = config.stored(address) or _ZERO_FRAME
            for word, _keep, runs in ops:
                value = frame[word]
                for name, bit, mask, shift in runs:
                    values[name] = values.get(name, 0) \
                        | ((value >> shift) & mask) << bit
                    covered[name] = covered.get(name, 0) | mask << bit
        # Read every partly restored register before the first force.
        for name, value in values.items():
            kept = self._masks[name] & ~covered[name]
            if kept:
                values[name] = value | (sim.peek(name) & kept)
        for name, value in values.items():
            sim.force(name, value)

    def gsr(self, sim, regions: Optional[set[int]]) -> None:
        """Global set/reset: registers in the enabled regions return to
        their init values (memory output latches keep theirs)."""
        names: set[str] = set()
        for region, in_region in self._gsr.items():
            if regions is None or region in regions:
                names |= in_region
        for name in names:
            sim.force(name, self._inits[name])

    # ------------------------------------------------------------------
    # memories
    # ------------------------------------------------------------------

    def apply_content_frame(self, sim, config: ConfigMemory,
                            address: FrameAddress) -> None:
        """A written content frame takes effect in the live memory."""
        hit = self._content.get(address)
        if hit is not None:
            image, index = hit
            image.reload(config, sim.memories[image.name], index)


def _pack(words: Sequence[int], width: int) -> int:
    """Words concatenated into one integer, word 0 lowest, each
    truncated to ``width`` bits (two's complement for negatives)."""
    mask = (1 << width) - 1
    spec = f"0{width}b"
    return int("".join([format(word & mask, spec)
                        for word in reversed(words)]), 2)


def _join(frames) -> int:
    """Frames' words as one integer, the first frame's word 0 lowest."""
    return int.from_bytes(
        b"".join(_FRAME.pack(*words) for words in frames), "little")


def _unpack(image: int, width: int, count: int) -> list[int]:
    """The ``count`` low ``width``-bit words of ``image``, word 0 lowest."""
    bits = width * count
    text = format(image & ((1 << bits) - 1), f"0{bits}b")
    return [int(text[end - width:end], 2)
            for end in range(bits, 0, -width)]


def capture_plan(db: "DesignDatabase", slr: int) -> CapturePlan:
    """The plan of one SLR of ``db``, built on first use and kept on the
    database: a partial reconfiguration (which brings a new database)
    gets new plans, and so does a logic-location entry added after the
    build."""
    plan = db.capture_plans.get(slr)
    if plan is None or plan.layout is not db.ll.layout():
        plan = db.capture_plans[slr] = CapturePlan(db, slr)
    return plan
