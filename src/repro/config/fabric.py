"""The emulated FPGA card.

:class:`FabricDevice` combines the device geometry, per-SLR configuration
memory and microcontrollers, the JTAG ring, and — once a verified
bitstream has been loaded — the functional model of the programmed design
(an RTL simulator plus the logic-location map tying its registers to
configuration frame bits).

The split mirrors Figure 5's control/data planes: everything the paper
does over JTAG (configure, pause, capture, read back, mutate, resume)
flows through the microcontrollers and frames; the design itself executes
in the data plane.

Substitution note (see DESIGN.md): real fabric evaluates LUT equations
from frame bits. Here the data plane executes the design's netlist
directly, while the configuration plane still transports and verifies the
full frame image — a bitstream with wrong or missing frames refuses to
boot, capture/readback/restore move real state through real frame
addresses, and every control behaviour the paper relies on is preserved.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigError, SimulationError
from ..fpga.device import Device
from ..fpga.frames import BLOCK_BRAM, ConfigMemory, FrameSpace
from ..rtl.simulator import Simulator
from .capture_plan import capture_plan
from .database import DesignDatabase
from .jtag import JtagResult, JtagRing
from .microcontroller import Microcontroller
from .program import SlrProgram
from .transport import VerifiedTransport


class FabricDevice:
    """One emulated FPGA card on the bench."""

    def __init__(self, device: Device):
        self.device = device
        self.spaces = [FrameSpace(slr) for slr in device.slrs]
        self.config = [ConfigMemory(space) for space in self.spaces]
        self.mcs = [Microcontroller(self, index)
                    for index in range(device.slr_count)]
        self.jtag = JtagRing(self)
        self.transport = VerifiedTransport(self.jtag)
        self._programs: dict[int, SlrProgram] = {}
        self.db: Optional[DesignDatabase] = None
        self.sim: Optional[Simulator] = None
        self.booted = False
        self._gate_mask = 0
        self._shutdown = False
        self._booted_db: Optional[DesignDatabase] = None

    # ------------------------------------------------------------------
    # the verified transport
    # ------------------------------------------------------------------

    def transact(self, words: list[int]) -> JtagResult:
        """Run one configuration program as a verified transaction.

        All debug-time control traffic (readback, capture-modify-restore
        writes, memory writes) routes through here so channel faults are
        detected by CRC and retried instead of silently consumed. Faults
        are injected by installing a
        :class:`~repro.chaos.schedule.FaultSchedule`
        (:func:`~repro.chaos.schedule.install_chaos`); a custom retry
        policy is set on ``self.transport.policy``.
        """
        return self.transport.run(words)

    def program(self, slr_index: int) -> SlrProgram:
        """The debugger's program builder for one SLR, assembled on
        first use (an SLR off the device raises
        :class:`~repro.errors.BitstreamError`)."""
        program = self._programs.get(slr_index)
        if program is None:
            program = self._programs[slr_index] = SlrProgram(
                self.device, slr_index)
        return program

    # ------------------------------------------------------------------
    # programming lifecycle
    # ------------------------------------------------------------------

    def expect(self, db: DesignDatabase) -> None:
        """Announce the design whose bitstream is about to arrive.

        The real card carries this information *in* the bitstream (the
        frames are the design); our data plane runs the netlist instead,
        so the database rides alongside while the configuration plane
        still verifies the delivered frames against the expected image.
        """
        if db.device.name != self.device.name:
            raise ConfigError(
                f"design targets {db.device.name}, card is "
                f"{self.device.name}")
        self.db = db

    def start(self, slr_index: int,
              regions: Optional[set[int]]) -> None:
        """CMD=START: verify and boot (primary), release GSR, run clocks."""
        self._shutdown = False
        if slr_index != self.device.primary_slr:
            return  # secondaries join the primary-driven startup
        rewritten = self._take_rewritten()
        if not self.booted:
            self._verify_and_boot()
        elif self.db is not self._booted_db:
            # Partial reconfiguration swapped (part of) the design: the
            # new database arrived with the partial bitstream. Verify the
            # updated image, migrate surviving state, and GSR-initialize
            # exactly the flip-flops whose frames were rewritten.
            self._verify_image()
            self._migrate_design(rewritten)
        else:
            # Restart after SHUTDOWN: re-verify, GSR the masked regions.
            self._verify_image()
            self.apply_gsr(slr_index, regions)
        self._apply_gates()

    def _take_rewritten(self) -> set[tuple[int, int, int]]:
        """(slr, column, region) triples rewritten since the last START."""
        out: set[tuple[int, int, int]] = set()
        for slr_index, memory in enumerate(self.config):
            for address in memory.take_dirty():
                out.add((slr_index, address.column, address.region))
        return out

    def shutdown(self, slr_index: int) -> None:
        """CMD=SHUTDOWN: stop all design clocks for reconfiguration."""
        self._shutdown = True
        self._apply_gates()

    def power_cycle(self) -> None:
        """The card lost power and rebooted (chaos fault, or a real
        bench mishap).

        Everything volatile is gone: the running design's state, cycle
        counters, clock-gate masks, and host-side pause latches. The
        configuration image survives in our model (the bitstream was
        verified into config memory and the card re-programs from it on
        boot — the paper's warm-boot flow), so the design comes back up
        at its *initial* state, exactly like the first START. Sessions
        attached to this fabric must go through recovery; their journal
        replays onto the rebooted design deterministically.
        """
        self._gate_mask = 0
        self._shutdown = False
        if self._booted_db is not None:
            self.db = self._booted_db
            self.sim = Simulator(self.db.netlist, clocks=self.db.clocks)
            self.booted = True
            self._apply_gates()
        else:
            self.sim = None
            self.booted = False

    def _verify_image(self) -> None:
        assert self.db is not None
        for slr_index in range(self.device.slr_count):
            expected = self.db.frame_image.get(slr_index, {})
            memory = self.config[slr_index]
            for address, words in expected.items():
                got = memory.read_frame(address)
                if got != words:
                    raise ConfigError(
                        f"SLR{slr_index} frame {address}: configuration "
                        f"mismatch (bitstream did not deliver the "
                        f"expected image)")

    def _verify_and_boot(self) -> None:
        if self.db is None:
            raise ConfigError("no design database expected on this card")
        self._verify_image()
        self.sim = Simulator(self.db.netlist, clocks=self.db.clocks)
        self.booted = True
        self._booted_db = self.db

    def _migrate_design(self,
                        rewritten: set[tuple[int, int, int]]) -> None:
        """Swap the data plane for the updated design.

        State handling mirrors real partial reconfiguration: flip-flops
        whose configuration frames were *rewritten* come up at their
        (new) initial values; everything else keeps running state.
        """
        assert self.db is not None and self.sim is not None
        old_sim = self.sim
        old_registers = set(old_sim.netlist.registers)
        old_memories = set(old_sim.netlist.memories)
        new_sim = Simulator(self.db.netlist, clocks=self.db.clocks)
        reconfigured = {
            entry.name for entry in self.db.ll.entries
            if (entry.slr, entry.frame.column, entry.frame.region)
            in rewritten
        }
        for name in self.db.netlist.registers:
            if name in old_registers and name not in reconfigured:
                new_sim.force(name, old_sim.peek(name))
        for name, memory in self.db.netlist.memories.items():
            if name in old_memories:
                # The new design may have resized the memory: keep the
                # overlapping words, truncated to the new width; the
                # rest stays at the new design's init.
                live = new_sim.memories[name]
                kept = old_sim.memories[name][:len(live)]
                mask = (1 << memory.width) - 1
                live[:len(kept)] = [word & mask for word in kept]
        for name, domain in new_sim.domains.items():
            if name in old_sim.domains:
                domain.cycles = old_sim.domains[name].cycles
        for name in self.db.netlist.inputs:
            if name in old_sim.netlist.inputs:
                new_sim.env[name] = old_sim.env[name]
        new_sim.time_ps = old_sim.time_ps
        self.sim = new_sim
        self._booted_db = self.db

    # ------------------------------------------------------------------
    # clocking (Section 4.2: global registers control the gates)
    # ------------------------------------------------------------------

    def set_clock_gates(self, mask: int, source_slr: int) -> None:
        from ..chaos.schedule import fault_point
        fault = fault_point("fabric.gate_ack")
        if fault is not None and fault.kind == "gate_ack_drop":
            # The write was acked on the ring but the gate-control
            # fabric dropped it: neither the mask register nor the
            # BUFGCEs change. Silent — callers that care verify via
            # is_gated() and re-issue (see ZoomieDebugger._safe_pause).
            return
        self._gate_mask = mask
        self._apply_gates()

    def _apply_gates(self) -> dict[str, bool]:
        """Gate every domain from shutdown, the host mask and the gate
        requests the design drives itself (the Debug Controller's
        ``pause_out``); returns each gate-driving request's level."""
        levels: dict[str, bool] = {}
        if self.sim is None or self.db is None:
            return levels
        for domain, bit in self.db.domain_bits.items():
            signal = self.db.gate_signals.get(domain)
            if signal is not None and signal not in levels:
                levels[signal] = bool(self.sim.peek(signal))
            gated = self._shutdown \
                or bool(self._gate_mask & (1 << bit)) \
                or levels.get(signal, False)
            self.sim.set_clock_gate(domain, gated)
        return levels

    @property
    def gate_mask(self) -> int:
        """The host-written gate mask the control plane last accepted —
        what gate-ack verification reads back (design-driven gate
        *requests* are not in it)."""
        return self._gate_mask

    def is_gated(self, domain: str) -> bool:
        self._require_booted()
        assert self.sim is not None
        return self.sim.is_gated(domain)

    def sync_gates(self) -> None:
        """Apply the gates once — what :meth:`run` does before its first
        event — for capture paths that step the simulator themselves
        with the gate requests in their stop set."""
        self._require_booted()
        self._apply_gates()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, cycles: int = 1, until: tuple[str, ...] = ()) -> int:
        """Advance the data plane up to ``cycles`` events; returns the
        events run.

        ``until`` names design signals that end the run before the
        first event at which one of them is high (the debugger passes
        the Debug Controller's ``pause_out``).

        A gate request takes effect at the *next* edge after it
        asserts — the same glitchless BUFGCE behaviour the paper builds
        timing-precise pausing on. The gates are applied once, and again
        only when a request changes: each leg is one simulator call
        whose stop set also holds the low requests, so a rising one ends
        the leg. A raised request can only fall, which a stop set cannot
        watch, so while one is raised (a paused design's free clock
        running) each leg is one event.
        """
        self._require_booted()
        assert self.sim is not None
        if cycles < 0:
            raise SimulationError("cannot run a negative number of cycles")
        ran = 0
        while ran < cycles:
            levels = self._apply_gates()
            rising = [signal for signal, high in levels.items()
                      if not high and signal not in until]
            leg = 1 if any(levels.values()) else cycles - ran
            done = self.sim.step(leg, until=(*until, *rising))
            ran += done
            if done < leg and any(self.sim.peek(s) for s in until):
                break
        return ran

    def _require_booted(self) -> None:
        if not self.booted or self.sim is None:
            raise ConfigError("no design is running on the fabric")

    # ------------------------------------------------------------------
    # capture / restore / GSR (frame <-> flip-flop traffic)
    # ------------------------------------------------------------------

    def capture(self, slr_index: int, regions: Optional[set[int]]) -> None:
        """GCAPTURE: copy FF values into this SLR's capture frames, and
        refresh memory (BRAM/LUTRAM) content frames."""
        self._require_booted()
        assert self.sim is not None and self.db is not None
        capture_plan(self.db, slr_index).capture(
            self.sim, self.config[slr_index], regions)

    def apply_content_frame(self, slr_index: int, address) -> None:
        """Apply one written content frame back to the live memory.

        Writing BRAM/LUTRAM content frames over FDRI while the design is
        paused directly alters memory contents on real hardware; the
        microcontroller calls this after each content-frame write. Only
        the memory words whose bits the frame holds are touched.
        """
        if self.sim is None or self.db is None:
            return
        if address.block_type != BLOCK_BRAM:
            return
        capture_plan(self.db, slr_index).apply_content_frame(
            self.sim, self.config[slr_index], address)
        self.sim._dirty = True

    def restore(self, slr_index: int, regions: Optional[set[int]]) -> None:
        """GRESTORE: load FF values from this SLR's capture frames."""
        self._require_booted()
        assert self.sim is not None and self.db is not None
        capture_plan(self.db, slr_index).restore(
            self.sim, self.config[slr_index], regions)

    def apply_gsr(self, slr_index: int,
                  regions: Optional[set[int]]) -> None:
        """Global set/reset: registers return to their init values."""
        if self.sim is None or self.db is None:
            return
        capture_plan(self.db, slr_index).gsr(self.sim, regions)
