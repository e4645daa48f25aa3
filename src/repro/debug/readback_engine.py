"""SLR-aware state readback (paper Sections 3.2, 4.7, Table 3).

Two strategies over the same JTAG/frame machinery:

- **naive** ("Unoptimized Zoomie"): scan *every* frame of an SLR — what
  tools that don't understand multi-SLR devices must do;
- **optimized**: Zoomie analyzes where the MUT lives (from the logic
  location file), hops the ring directly to each involved SLR, clears
  the GSR/capture mask (Section 4.7), captures, and reads **only** the
  capture frames of the columns x clock-regions the MUT occupies.

The ~80x of Table 3 is the ratio of frames moved; the per-hop ring
latency explains why the primary SLR reads back slightly faster.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.capture_plan import Readback, capture_plan
from ..config.fabric import FabricDevice
from ..config.jtag import (
    BATCH_OVERHEAD_SECONDS,
    HOP_SECONDS,
    JTAG_BYTES_PER_SECOND,
    JtagResult,
)
from ..errors import DebugError
from ..fpga.frames import CAPTURE_MINOR, FRAME_WORDS, BLOCK_MAIN, FrameAddress
from .state import StateSnapshot


def estimate_readback_seconds(frame_count: int, hops: int = 0,
                              command_words: int = 64) -> float:
    """Analytic readback time: what the JTAG model charges for moving
    ``frame_count`` frames from an SLR ``hops`` ring-hops away.

    Used for paper-scale designs that are too large to execute; the
    executable path (:meth:`ReadbackEngine.read_slr`) produces the same
    numbers through the real machinery.
    """
    words = frame_count * FRAME_WORDS
    seconds = BATCH_OVERHEAD_SECONDS
    seconds += (command_words + frame_count * 4) * 4 / JTAG_BYTES_PER_SECOND
    seconds += words * 4 / JTAG_BYTES_PER_SECOND
    seconds += hops * HOP_SECONDS * 2  # command + response directions
    return seconds


@dataclass
class ReadbackResult:
    """One readback operation's outcome."""

    values: dict[str, int]
    frames_read: int
    seconds: float


class ReadbackEngine:
    """Reads design state off a :class:`FabricDevice`.

    ``cycle_domain`` names the clock domain whose committed-cycle count
    snapshots record (the debugger passes the MUT's counted domain); by
    default the alphabetically-first simulator domain is used, which on
    multi-clock designs may be the free-running Zoomie domain rather
    than the MUT.
    """

    def __init__(self, fabric: FabricDevice,
                 cycle_domain: str | None = None):
        if fabric.db is None:
            raise DebugError("no design loaded on the fabric")
        self.fabric = fabric
        self.cycle_domain = cycle_domain

    @property
    def db(self):
        return self.fabric.db

    # ------------------------------------------------------------------
    # frame set selection
    # ------------------------------------------------------------------

    def all_frames_of_slr(self, slr: int) -> list[FrameAddress]:
        return list(self.fabric.spaces[slr].frame_order)

    def mut_frames_of_slr(self, slr: int, prefix: str = "",
                          granularity: str = "column"
                          ) -> list[FrameAddress]:
        """Frames covering the MUT on one SLR.

        ``granularity="column"`` is what the paper describes ("it only
        scans the regions that contain the MUT, as indicated by
        Vivado"): every main-block minor of the MUT's columns across all
        clock regions. ``granularity="frame"`` reads only the exact
        capture frames holding MUT flip-flops — even less data, at the
        cost of trusting the logic-location file completely (evaluated
        as an ablation in the benchmarks).
        """
        if granularity == "frame":
            pairs = {(e.frame.column, e.frame.region)
                     for e in self.db.ll.entries_under(prefix)
                     if e.slr == slr}
            return [
                FrameAddress(block_type=BLOCK_MAIN, region=region,
                             column=column, minor=CAPTURE_MINOR)
                for column, region in sorted(pairs)
            ]
        if granularity != "column":
            raise DebugError(
                f"unknown readback granularity {granularity!r}")
        return list(self.db.ll.layout().readback_frames(
            prefix, slr, self.fabric.spaces[slr]))

    # ------------------------------------------------------------------
    # executable readback
    # ------------------------------------------------------------------

    def _capture_and_read(self, slr: int, frames: tuple[FrameAddress, ...],
                          runs, what: str) -> JtagResult:
        """One batch: clear the MASK (Section 4.7: always, before
        readback), GCAPTURE the SLR and read ``frames`` (deduped, in
        FAR order) as one FDRO read per ``(first frame, count)`` run."""
        result = self.fabric.transact(
            self.fabric.program(slr).capture_readback(runs))
        if len(result.read_words) != len(frames) * FRAME_WORDS:
            raise DebugError(
                f"short {what}: got {len(result.read_words)} words for "
                f"{len(frames)} frames")
        return result

    def _read(self, slr: int, readback: Readback) -> ReadbackResult:
        result = self._capture_and_read(
            slr, readback.frames, readback.runs, "readback")
        return ReadbackResult(values=readback.parse(result.read_words),
                              frames_read=len(readback.frames),
                              seconds=result.seconds)

    def read_slr(self, slr: int, frames: list[FrameAddress],
                 prefix: str = "") -> ReadbackResult:
        """Capture + read the given frames of one SLR over the ring (a
        frame outside the SLR raises :class:`~repro.errors.DeviceError`)."""
        return self._read(slr, self.db.ll.layout().readback_of(
            slr, self.fabric.spaces[slr], frames, prefix))

    def read_slr_naive(self, slr: int) -> ReadbackResult:
        """Unoptimized: scan the whole SLR."""
        return self.read_slr(slr, self.all_frames_of_slr(slr))

    def read_slr_optimized(self, slr: int, prefix: str = "",
                           granularity: str = "column") -> ReadbackResult:
        """SLR-aware: only the frames covering the MUT."""
        if granularity == "column":
            return self._read(slr, self.db.ll.layout().readback(
                prefix, slr, self.fabric.spaces[slr]))
        return self.read_slr(
            slr, self.mut_frames_of_slr(slr, prefix, granularity), prefix)

    def read_registers(self, prefix: str = "") -> ReadbackResult:
        """Optimized read of every SLR the (prefixed) MUT occupies.

        "When the MUT is split across multiple SLRs, Zoomie will scan
        each SLR only once" — per-SLR single batches, merged.
        """
        values: dict[str, int] = {}
        frames = 0
        seconds = 0.0
        slrs = sorted(self.db.ll.layout().columns_under(prefix))
        for slr in slrs:
            result = self.read_slr_optimized(slr, prefix)
            values.update(result.values)
            frames += result.frames_read
            seconds += result.seconds
        return ReadbackResult(values=values, frames_read=frames,
                              seconds=seconds)

    # ------------------------------------------------------------------
    # memory (BRAM/LUTRAM) content readback
    # ------------------------------------------------------------------

    def memory_frames(self, name: str) -> list[FrameAddress]:
        """Content frames covering one mapped memory."""
        placement = self.db.memory_map.get(name)
        if placement is None:
            raise DebugError(f"memory {name!r} has no content mapping")
        return list(
            capture_plan(self.db, placement.slr).memories[name].frames)

    def read_memories(self, prefix: str = ""
                      ) -> tuple[dict[str, list[int]], float]:
        """Capture + read the content frames of mapped memories."""
        dotted = prefix + "." if prefix else ""
        names = [
            name for name in sorted(self.db.memory_map)
            if not prefix or name == prefix or name.startswith(dotted)
        ]
        out: dict[str, list[int]] = {}
        seconds = 0.0
        by_slr: dict[int, list[str]] = {}
        for name in names:
            by_slr.setdefault(self.db.memory_map[name].slr,
                              []).append(name)
        for slr, slr_names in sorted(by_slr.items()):
            requested: list[FrameAddress] = []
            for name in slr_names:
                requested.extend(self.memory_frames(name))
            # Dedupe (a frame shared by several memories is read once)
            # and coalesce contiguous content runs into FDRO bursts,
            # exactly like register readback does.
            wanted, runs = self.fabric.spaces[slr].coalesce(requested)
            result = self._capture_and_read(
                slr, wanted, runs, "memory readback")
            seconds += result.seconds
            frame_words = {
                address: result.read_words[
                    i * FRAME_WORDS:(i + 1) * FRAME_WORDS]
                for i, address in enumerate(wanted)
            }
            plan = capture_plan(self.db, slr)
            for name in slr_names:
                image = plan.memories[name]
                out[name] = image.unpack(
                    [frame_words[address] for address in image.frames])
        return out, seconds

    def snapshot(self, prefix: str = "", label: str = "",
                 include_memories: bool = True) -> StateSnapshot:
        result = self.read_registers(prefix)
        memories: dict[str, list[int]] = {}
        seconds = result.seconds
        if include_memories and self.db.memory_map:
            memories, mem_seconds = self.read_memories(prefix)
            seconds += mem_seconds
        cycle = None
        if self.fabric.sim is not None:
            domains = self.fabric.sim.domains
            domain = self.cycle_domain
            if domain is None or domain not in domains:
                domain = next(iter(sorted(domains)))
            cycle = self.fabric.sim.cycles(domain)
        return StateSnapshot(
            values=result.values, cycle=cycle, label=label,
            acquisition_seconds=seconds, memories=memories)
