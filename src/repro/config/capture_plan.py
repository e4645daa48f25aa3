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
  ``shift`` of one 32-bit frame word, and back. From the runs it
  generates, once and at first use, two straight-line kernels per
  capture frame (:class:`FrameKernels`): ``pack`` for GCAPTURE and
  ``unpack`` for GRESTORE and readback parsing. Readback
  (:class:`Readback`, cached per SLR and prefix) and the debugger's
  register edits run on it.
- :class:`CapturePlan`, one per (design database, SLR), adds what needs
  the netlist and the frame space: GCAPTURE, GRESTORE, GSR,
  content-frame writes, and memory packing and unpacking.

A plan checks every frame address (:meth:`FrameSpace.validate`), every
register name (against the netlist) and every bit position (no two
entries share one) once, when it is built; its per-call paths only
call the kernels and index prebuilt tables.
"""

from __future__ import annotations

import struct
import sys
from array import array
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from ..errors import ConfigError
from ..fpga.frames import (
    BLOCK_MAIN,
    FRAME_WORDS,
    ZERO_FRAME,
    ConfigMemory,
    FrameAddress,
    FrameSpace,
)
from .logic_loc import LLEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import DesignDatabase

#: Bits per configuration frame.
FRAME_BITS = FRAME_WORDS * 32
_FRAME = struct.Struct(f"<{FRAME_WORDS}I")


class FrameKernels(NamedTuple):
    """The two generated kernels of one capture frame."""

    #: ``pack(env, words)``: GCAPTURE. Sets the frame's register bits
    #: from the simulator's value environment, keeping every other bit.
    pack: Callable
    #: ``unpack(words, values)``: GRESTORE and readback parsing. Sets
    #: ``values[name]`` for every register with bits in the frame (ORs
    #: into it for a register whose bits span several frames).
    unpack: Callable


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
        #: ``(slr, frame)`` -> the registers with bits in that frame.
        self.frame_registers: dict[tuple[int, FrameAddress],
                                   tuple[str, ...]] = {}
        #: Register -> how many frames its bits span.
        self.frame_counts: dict[str, int] = {}
        #: Prefix -> :meth:`columns_under`'s answer.
        self._columns: dict[str, dict[int, set[int]]] = {}
        #: ``(slr, prefix)`` -> :meth:`readback`'s answer.
        self._readback: dict[tuple[int, str], Readback] = {}

        #: ``(slr, frame)`` -> ``{word: [(register, bit, mask, shift)]}``:
        #: what :attr:`kernels` are generated from.
        self._words: dict[tuple[int, FrameAddress],
                          dict[int, list[tuple]]] = {}
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
                self._words.setdefault(key, {}).setdefault(word, []).append(
                    (name, bit, mask, shift))
            self.frame_counts[name] = len(keys)
            for key in keys:
                registers.setdefault(key, []).append(name)
        for key, names in registers.items():
            self.frame_registers[key] = tuple(names)

    @cached_property
    def kernels(self) -> dict[tuple[int, FrameAddress], FrameKernels]:
        """``(slr, frame)`` -> the capture frame's :class:`FrameKernels`,
        generated for every frame at first use as straight-line code
        (one assignment per frame word and per register)."""
        code = compile(self._kernel_source(), "<capture-kernels>", "exec")
        namespace: dict = {}
        exec(code, namespace)  # noqa: S102
        return {key: FrameKernels(namespace[f"pack_{index}"],
                                  namespace[f"unpack_{index}"])
                for index, key in enumerate(self._words)}

    def _kernel_source(self) -> str:
        """The source of every capture frame's ``pack_<i>`` and
        ``unpack_<i>`` kernels, ``i`` the frame's position in
        :attr:`_words`."""
        lines: list[str] = []
        for index, ((slr, address), by_word) in enumerate(
                self._words.items()):
            registers = self.frame_registers[(slr, address)]
            local = {name: f"r{n}" for n, name in enumerate(registers)}
            lines.append(f"def pack_{index}(e, f):  # SLR{slr} {address}")
            lines.extend(f"    {local[name]} = e[{name!r}]"
                         for name in registers)
            terms: dict[str, list[str]] = {name: [] for name in registers}
            for word in sorted(by_word):
                owned = 0
                placed = []
                for name, bit, mask, shift in by_word[word]:
                    owned |= mask << shift
                    value = f"{local[name]} >> {bit}" if bit else local[name]
                    placed.append(_shifted(f"{value} & {mask:#x}", shift))
                    value = f"w{word} >> {shift}" if shift else f"w{word}"
                    terms[name].append(_shifted(f"{value} & {mask:#x}", bit))
                keep = ~owned & 0xFFFF_FFFF
                if keep:
                    placed.insert(0, f"f[{word}] & {keep:#x}")
                lines.append(f"    f[{word}] = {' | '.join(placed)}")
            lines.append(f"def unpack_{index}(w, v):  # SLR{slr} {address}")
            lines.extend(f"    w{word} = w[{word}]"
                         for word in sorted(by_word))
            for name in registers:
                value = " | ".join(terms[name])
                if self.frame_counts[name] > 1:
                    value = f"v.get({name!r}, 0) | {value}"
                lines.append(f"    v[{name!r}] = {value}")
        return "\n".join(lines) + "\n"

    def parse(self, frames: dict[tuple[int, FrameAddress], Sequence[int]],
              prefix: str = "") -> dict[str, int]:
        """Register values from captured frame words; see
        :func:`repro.debug.state.parse_capture_frames`."""
        kernels = self.kernels
        values: dict[str, int] = {}
        seen: dict[str, int] = {}
        for key, words in frames.items():
            registers = self.frame_registers.get(key)
            if registers is None:
                continue
            kernels[key].unpack(words, values)
            for name in registers:
                seen[name] = seen.get(name, 0) + 1
        return {name: values[name] for name in self._complete(seen, prefix)}

    def _complete(self, seen: dict[str, int], prefix: str) -> list[str]:
        """The registers under ``prefix`` whose every frame ``seen``
        counts, in file order."""
        dotted = prefix + "."
        return [name for name in self.by_register
                if seen.get(name) == self.frame_counts[name]
                and (not prefix or name == prefix
                     or name.startswith(dotted))]

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

    def readback(self, prefix: str, slr: int,
                 space: FrameSpace) -> "Readback":
        """The optimized readback of the registers under ``prefix`` on
        ``slr`` (``space`` is that SLR's frame space): every main-block
        frame of the columns that hold them. Cached per (SLR, prefix),
        like :meth:`columns_under`."""
        key = (slr, prefix)
        readback = self._readback.get(key)
        if readback is None:
            columns = self.columns_under(prefix).get(slr, set())
            readback = self._readback[key] = self.readback_of(
                slr, space, space.frames_of_columns(columns, BLOCK_MAIN),
                prefix)
        return readback

    def readback_frames(self, prefix: str, slr: int,
                        space: FrameSpace) -> tuple[FrameAddress, ...]:
        """The frames, in FAR order, of :meth:`readback`: what an
        optimized readback reads."""
        return self.readback(prefix, slr, space).frames

    def readback_of(self, slr: int, space: FrameSpace, frames,
                    prefix: str = "") -> "Readback":
        """A readback of ``frames`` on ``slr``, parsing the registers
        under ``prefix`` that the frames hold whole. A frame outside the
        SLR raises :class:`~repro.errors.DeviceError`."""
        wanted, runs = space.coalesce(frames)
        kernels = self.kernels
        reads = []
        seen: dict[str, int] = {}
        for index, address in enumerate(wanted):
            key = (slr, address)
            registers = self.frame_registers.get(key)
            if registers is None:
                continue
            reads.append((index * FRAME_WORDS, kernels[key].unpack))
            for name in registers:
                seen[name] = seen.get(name, 0) + 1
        return Readback(wanted, runs, tuple(reads),
                        tuple(self._complete(seen, prefix)))

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


class Readback:
    """One capture-and-FDRO readback of one SLR: the frames it reads
    (deduped, in FAR order), their ``(first frame, count)`` FDRO runs,
    and the parse of the words that come back."""

    __slots__ = ("frames", "runs", "_reads", "_names")

    def __init__(self, frames: tuple[FrameAddress, ...],
                 runs: tuple[tuple[FrameAddress, int], ...],
                 reads: tuple[tuple[int, Callable], ...],
                 names: tuple[str, ...]):
        self.frames = frames
        self.runs = runs
        #: ``(first word, unpack kernel)`` per read frame that holds
        #: register bits: only those are sliced and parsed.
        self._reads = reads
        #: The registers the read frames hold whole, under the prefix.
        self._names = names

    def parse(self, words: Sequence[int]) -> dict[str, int]:
        """Register values from the batch's read words, in file order."""
        values: dict[str, int] = {}
        for start, unpack in self._reads:
            unpack(words[start:start + FRAME_WORDS], values)
        return {name: values[name] for name in self._names}


def _shifted(term: str, shift: int) -> str:
    return f"({term}) << {shift}" if shift else f"({term})"


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

    def pack(self, words: Sequence[int]) -> list[array]:
        """Frame words holding ``words``, each truncated to the width;
        image bits past the memory's extent are zero. One
        ``array("I")`` per content frame, as frames are stored."""
        size = _FRAME.size
        data = _pack(words, self.width).to_bytes(
            len(self.frames) * size, "little")
        frames = [array("I", data[index * size:(index + 1) * size])
                  for index in range(len(self.frames))]
        if sys.byteorder == "big":  # pragma: no cover - little on CI
            for frame in frames:
                frame.byteswap()
        return frames

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
        image = _join(config.stored(address) or ZERO_FRAME
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

        self.slr = slr
        #: ``(frame, region)`` per capture frame of this SLR.
        self.frames: list[tuple[FrameAddress, int]] = []
        #: Register (or memory output latch) -> width mask, for the
        #: registers with bits on this SLR.
        self._masks: dict[str, int] = {}
        #: Clock region -> the netlist registers GSR resets there.
        self._gsr: dict[int, set[str]] = {}
        for frame_slr, address in self.layout.frame_registers:
            if frame_slr != slr:
                continue
            space.validate(address)
            self.frames.append((address, address.region))
            for name in self.layout.frame_registers[(slr, address)]:
                register = netlist.registers.get(name)
                width = latches[name] if register is None \
                    else register.width
                self._masks[name] = (1 << width) - 1
                if register is not None:
                    self._gsr.setdefault(address.region, set()).add(name)
        self._inits = {name: netlist.registers[name].init
                       for names in self._gsr.values() for name in names}
        #: The bits the all-regions GRESTORE (the debugger's, MASK
        #: cleared) leaves live; see :meth:`_kept`.
        self._all_kept = self._kept(address for address, _ in self.frames)

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

    @cached_property
    def _kernels(self) -> list[tuple[FrameAddress, int, Callable, Callable]]:
        """``(frame, region, pack, unpack)`` per capture frame of this
        SLR: the layout's kernels, fetched at first capture."""
        kernels = self.layout.kernels
        return [(address, region, *kernels[(self.slr, address)])
                for address, region in self.frames]

    def capture(self, sim, config: ConfigMemory,
                regions: Optional[set[int]]) -> None:
        """GCAPTURE: register values and memory contents into frames.
        Capture reads state (registers, memory output latches, memory
        words) and no wire, so the design is not settled first."""
        env = sim.env
        for address, region, pack, _unpack in self._kernels:
            if regions is None or region in regions:
                pack(env, config.capture_frame(address))
        for image in self.memories.values():
            if regions is None or image.region in regions:
                image.capture(config, sim.memories[image.name])

    def restore(self, sim, config: ConfigMemory,
                regions: Optional[set[int]]) -> None:
        """GRESTORE: load registers from their capture frames. Bits of
        a register outside the enabled regions keep their value."""
        if regions is None:
            frames, kept = self._kernels, self._all_kept
        else:
            frames = [entry for entry in self._kernels
                      if entry[1] in regions]
            kept = self._kept(entry[0] for entry in frames)
        values: dict[str, int] = {}
        stored = config.stored
        for address, _region, _pack, unpack in frames:
            unpack(stored(address) or ZERO_FRAME, values)
        if kept:
            # Read every partly restored register before the first force.
            env = sim.env
            for name, bits in kept.items():
                values[name] |= env[name] & bits
        sim.force_many(values)

    def _kept(self, addresses) -> dict[str, int]:
        """For each register a GRESTORE of the capture frames at
        ``addresses`` loads, the width bits no such frame holds: those
        keep their live value."""
        keys = {(self.slr, address) for address in addresses}
        kept = {}
        for name in dict.fromkeys(
                name for key in keys
                for name in self.layout.frame_registers[key]):
            covered = 0
            for slr, frame, _word, bit, mask, _shift \
                    in self.layout.runs[name]:
                if (slr, frame) in keys:
                    covered |= mask << bit
            rest = self._masks[name] & ~covered
            if rest:
                kept[name] = rest
        return kept

    def gsr(self, sim, regions: Optional[set[int]]) -> None:
        """Global set/reset: registers in the enabled regions return to
        their init values (memory output latches keep theirs)."""
        names: set[str] = set()
        for region, in_region in self._gsr.items():
            if regions is None or region in regions:
                names |= in_region
        sim.force_many({name: self._inits[name] for name in names})

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
