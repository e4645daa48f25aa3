"""The software-like debugger front end (paper Sections 2.2, 3.3-3.4).

:class:`ZoomieDebugger` drives an instrumented design on the emulated
fabric purely through the configuration plane: value/cycle/assertion
breakpoints, pause/resume, single-stepping, full state readback, state
forcing, and snapshot/restore — all without recompilation.

Every control operation travels the honest path: trigger registers and
the pause latch are ordinary flip-flops of the Debug Controller, written
by a **capture-modify-restore** sequence (GCAPTURE the SLR, rewrite the
target bits in the capture frames over FDRI, GRESTORE) — the same way
the paper's Section 3.3 state manipulation works, and the reason the
debugger requires the design paused before touching MUT state (the
controller itself lives on the free clock and is always safe to write in
our atomic-JTAG model).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from ..bitstream.assembler import BitstreamAssembler
from ..chaos.schedule import fault_point
from ..chaos.supervise import get_supervisor
from ..config.capture_plan import RegisterLayout, capture_plan
from ..config.fabric import FabricDevice
from ..errors import (
    BreakpointError,
    CircuitOpenError,
    DebugError,
    DebugTimeoutError,
    NotPausedError,
    TransportError,
)
from ..fpga.frames import FRAME_WORDS
from ..obs import get_flight_recorder, get_logger, get_registry, \
    get_tracer
from ..obs.health import get_health_engine
from .controller import InstrumentedDesign
from .readback_engine import ReadbackEngine
from .state import StateSnapshot, validate_label

#: Bound at import; the singletons are mutated in place, never replaced.
_TRACER = get_tracer()
_LOG = get_logger()
_FLIGHT = get_flight_recorder()
_HEALTH = get_health_engine()

#: Extra fabric events :meth:`ZoomieDebugger.step` adds to its run
#: bound (``cycles * ratio + RUN_SLACK``) beyond the events the step
#: itself needs.
RUN_SLACK = 64


class ZoomieDebugger:
    """Interactive debugging of one design running on one fabric."""

    def __init__(self, fabric: FabricDevice,
                 instrumented: InstrumentedDesign):
        if fabric.sim is None:
            raise DebugError("program the fabric before attaching")
        self.fabric = fabric
        self.inst = instrumented
        # Snapshots must record the same domain's cycle count as
        # cycles(): the MUT's counted domain, not whichever simulator
        # domain happens to sort first.
        self.engine = ReadbackEngine(
            fabric,
            cycle_domain=(instrumented.mut_domains[0]
                          if instrumented.mut_domains else None))
        #: Accumulated (modeled) JTAG seconds of this session.
        self.session_seconds = 0.0
        #: Write-ahead journal + content-addressed snapshot store
        #: (attached together via :meth:`attach_crash_safety`).
        self.journal = None
        self.snapshot_store = None
        #: Auto-checkpoint cadence in journaled commands (None = only
        #: explicit snapshots become recovery bases).
        self.checkpoint_every: Optional[int] = None
        #: Watchdog: modeled-seconds deadline applied to each debug
        #: operation (None = unbounded, the pre-watchdog behaviour).
        self.op_deadline_seconds: Optional[float] = None
        #: Whether the watchdog parked the session on the emergency
        #: global clock gates after a timed-out operation.
        self.safe_paused = False
        self._since_checkpoint = 0
        self._in_command = False
        self._replaying = False
        self._m_commands = get_registry().counter("debug.commands")

    @contextmanager
    def _traced(self, verb: str, **attrs):
        """Span one debugger command (``debug.<verb>``).

        The span's modeled clock fills in from its children — every
        transport batch and simulator run inside the command rolls its
        modeled seconds up — so a session trace is a flame graph in
        both time bases. Commands are tallied in the metrics registry
        and noted in the flight recorder unconditionally; spans only
        when tracing is on.

        This is also the unhandled-exception boundary: anything except
        a typed timeout (dumped at its raise site) or a breaker
        refusal (dumped at the OPEN transition) escaping a command
        triggers a flight dump before it propagates.
        """
        self._m_commands.inc()
        if _FLIGHT.enabled:
            _FLIGHT.note("command", verb)
        try:
            if not _TRACER.enabled:
                yield None
            else:
                with _TRACER.span(f"debug.{verb}", **attrs) as span:
                    yield span
                    span.set(
                        cycle=self.cycles(),
                        session_seconds=round(self.session_seconds, 6))
                    if _LOG.enabled:
                        _LOG.info(f"debug.{verb}", cycle=self.cycles(),
                                  **attrs)
        except (DebugTimeoutError, CircuitOpenError):
            raise
        except Exception as error:
            _FLIGHT.trigger("debug.exception", verb=verb,
                            error=type(error).__name__,
                            detail=str(error)[:200])
            raise
        # Cadence tick for the health engine, on the session's modeled
        # clock (one attribute check when no cadence is configured).
        _HEALTH.maybe_evaluate(self.session_seconds)

    # ------------------------------------------------------------------
    # crash safety: write-ahead journaling of mutating commands
    # ------------------------------------------------------------------

    def attach_crash_safety(self, journal, store,
                            checkpoint_every: Optional[int] = None
                            ) -> None:
        """Journal every state-mutating command (write-ahead) and
        persist snapshots content-addressed.

        ``checkpoint_every`` additionally stores an automatic full
        checkpoint after that many journaled commands, bounding how
        much journal recovery must replay (the cadence/replay-cost
        tradeoff is quantified in ``benchmarks/bench_recovery.py``).
        """
        if (journal is None) != (store is None):
            raise DebugError(
                "journal and snapshot store attach together (restore "
                "records reference snapshots by content key)")
        self.journal = journal
        self.snapshot_store = store
        self.checkpoint_every = checkpoint_every
        self._since_checkpoint = 0

    def detach_crash_safety(self) -> None:
        self.journal = None
        self.snapshot_store = None
        self.checkpoint_every = None

    @contextmanager
    def _journaled(self, command: str, **args):
        """Write-ahead frame around one mutating command.

        The record becomes (policy-)durable *before* the command
        executes; replay after a crash is idempotent because recovery
        re-executes on a fresh fabric from the last good snapshot.
        Nested commands (``step`` runs, ``restore`` writes memories)
        journal only the outermost verb. Each new record visits the
        ``debug.command`` fault point once, right after it is durable:
        an injected ``crash_before`` kills the host before the command
        applies, ``crash_after`` right after.
        """
        transport = self.fabric.transport
        if not self._in_command:
            transport.check_alive()
        if self._in_command or self._replaying or self.journal is None:
            yield
            return
        self._in_command = True
        try:
            record = self.journal.append(command, args)
            fault = fault_point("debug.command")
            if fault is not None and fault.kind == "crash_before":
                transport.crash(f"command boundary #{record.index} "
                                f"(before applying)")
            yield
            if fault is not None:
                transport.crash(f"command boundary #{record.index} "
                                f"(after applying)")
            self._maybe_checkpoint(command)
        finally:
            self._in_command = False

    def _maybe_checkpoint(self, command: str) -> None:
        if self.journal is None or self.snapshot_store is None:
            return
        if command == "snapshot":
            # Explicit snapshots are checkpoints; restart the cadence.
            self._since_checkpoint = 0
            return
        if not self.checkpoint_every:
            return
        self._since_checkpoint += 1
        if self._since_checkpoint < self.checkpoint_every:
            return
        self._since_checkpoint = 0
        snap = self.engine.snapshot(label="auto-checkpoint")
        self.session_seconds += snap.acquisition_seconds
        key = self.snapshot_store.put(snap)
        self.journal.append("snapshot", {
            "label": "auto-checkpoint", "key": key,
            "cycle": snap.cycle, "auto": True})

    def record_input(self, name: str, value: int) -> None:
        """Drive (and journal) a top-level input of the design.

        Input pokes are environment, not readback-visible state — a
        snapshot cannot reconstruct them, so recovery replays every
        journaled poke from the beginning of the journal.
        """
        with self._traced("poke_input", name=name), \
                self._journaled("poke_input", name=name, value=value):
            assert self.fabric.sim is not None
            self.fabric.sim.poke(name, value)

    # ------------------------------------------------------------------
    # watchdog: modeled-seconds deadlines on debug operations
    # ------------------------------------------------------------------

    @contextmanager
    def _op_guard(self, what: str):
        """Bound one operation's modeled time.

        With a deadline set, every transport batch (and retry backoff)
        inside the operation draws down the budget; exhaustion aborts
        the operation, parks the session safe-paused through the
        primary controller's global clock gates — reachable even when
        a secondary's controller is stuck — and surfaces a typed
        :class:`DebugTimeoutError` instead of retrying forever.
        """
        transport = self.fabric.transport
        deadline = self.op_deadline_seconds
        if deadline is None or transport.deadline_active:
            yield  # unbounded, or already inside a guarded operation
            return
        transport.begin_deadline(deadline)
        try:
            yield
        except TransportError as error:
            remaining = transport.deadline_remaining or 0.0
            # Lift the (exhausted) deadline before the emergency stop:
            # the safe-pause write itself must not be deadline-checked.
            transport.end_deadline()
            self._safe_pause()
            _FLIGHT.trigger("debug.timeout", operation=what,
                            deadline=deadline,
                            spent=round(deadline - remaining, 6))
            raise DebugTimeoutError(
                f"{what} did not complete within its {deadline:.3f} s "
                f"modeled deadline ({error}); session safe-paused",
                operation=what, deadline_seconds=deadline,
                spent_seconds=deadline - remaining) from error
        finally:
            transport.end_deadline()

    def _safe_pause(self) -> None:
        """Emergency stop through the global clock-gate registers.

        The gates live on the primary SLR's always-reachable controller
        (paper Section 4.2), so this works even when the fault is a
        stuck *secondary* — the design freezes and the session stays
        inspectable after recovery or repair. Under supervision the
        gate write is *verified* (the control plane can drop an ack)
        and re-issued a bounded number of times.
        """
        db = self.fabric.db
        assert db is not None
        mask = 0
        for bit in db.domain_bits.values():
            mask |= 1 << bit
        self._verified_gate_write(mask)
        self.safe_paused = True

    def _clear_safe_pause(self) -> None:
        if self.safe_paused:
            self._verified_gate_write(0)
            self.safe_paused = False

    def _verified_gate_write(self, mask: int) -> None:
        """Write the global gate mask; supervised sessions verify the
        control plane accepted it (dropped gate acks are a chaos fault)
        and re-issue up to ``retries`` times. Unsupervised, this is
        exactly one write — the historical behaviour."""
        sup = get_supervisor()
        attempts = 0
        while True:
            attempts += 1
            self.fabric.set_clock_gates(
                mask, self.fabric.device.primary_slr)
            if not sup.enabled:
                return
            if self.fabric.gate_mask == mask:
                return
            if attempts > sup.config.retries:
                # Best effort: the caller's error (if any) still
                # surfaces; an unacked emergency stop is better
                # reported than spun on forever.
                return
            sup.record_retry("fabric.gate_ack")

    # ------------------------------------------------------------------
    # run control
    # ------------------------------------------------------------------

    @property
    def _pause_signal(self) -> str:
        return self.inst.spec.pause_out

    def is_paused(self) -> bool:
        if self.safe_paused:
            return True  # watchdog parked the clocks (emergency gates)
        assert self.fabric.sim is not None
        return bool(self.fabric.sim.peek(self._pause_signal))

    def cycles(self) -> int:
        """Committed cycles of the MUT's (first) clock domain."""
        assert self.fabric.sim is not None
        return self.fabric.sim.cycles(self.inst.mut_domains[0])

    def stepping_precise(self) -> bool:
        """Whether cycle-exact stepping holds for this design's clocks
        (paper Section 6.1)."""
        from .controller import stepping_is_precise
        assert self.fabric.db is not None
        periods = {
            domain: self.fabric.db.clocks[domain]
            for domain in self.inst.mut_domains
            if domain in self.fabric.db.clocks
        }
        return stepping_is_precise(periods)

    def run(self, max_cycles: int = 100_000) -> int:
        """Run until a breakpoint pauses the design (or the bound).

        Returns the number of fabric cycles (events) advanced. The whole
        run is one fabric call whose stop set is the controller's
        ``pause_out``: the simulator settles before every event and
        stops at the first one the pause would gate.
        """
        if max_cycles < 0:
            raise BreakpointError("run bound must not be negative")
        with self._traced("run", max_cycles=max_cycles) as span, \
                self._journaled("run", max_cycles=max_cycles):
            ran = 0 if self.is_paused() else self.fabric.run(
                max_cycles, until=(self._pause_signal,))
            if span is not None:
                span.set(ran=ran)
        return ran

    def pause(self) -> None:
        """Host-initiated pause (e.g. the design appears hung).

        The pause network can silently drop the latch write (a chaos
        fault modeling the real stuck-pause-tree failure). Supervised
        sessions verify the design actually paused and re-issue the
        write a bounded number of times, then escalate to the primary
        controller's emergency clock gates — the documented
        ``pause.emergency_gates`` fallback.
        """
        with self._traced("pause"), self._journaled("pause"), \
                self._op_guard("pause"):
            sup = get_supervisor()
            attempts = 0
            while True:
                attempts += 1
                fault = fault_point("fabric.pause_write")
                if fault is None:
                    self._write_registers(
                        {self.inst.spec.host_pause_reg: 1})
                # else: the write was acked on the ring but the pause
                # network never latched it — detectable only by
                # verifying the pause actually took.
                if not sup.enabled or self.is_paused():
                    return
                if attempts > sup.config.retries:
                    sup.note_degradation(
                        "pause.emergency_gates",
                        site="fabric.pause_write",
                        detail=f"pause unacked after {attempts - 1} "
                               f"retries")
                    self._safe_pause()
                    return
                sup.record_retry("fabric.pause_write")

    def resume(self, clear_triggers: bool = True) -> None:
        """Clear the pause latch and continue.

        By default the value triggers are cleared too — the trigger
        condition usually still holds in the frozen state, and would
        re-pause on the very next cycle otherwise (set
        ``clear_triggers=False`` to keep them armed).
        """
        updates = {
            self.inst.spec.paused_reg: 0,
            self.inst.spec.host_pause_reg: 0,
            self.inst.spec.step_armed_reg: 0,
        }
        if clear_triggers:
            updates.update(self._trigger_clear_updates())
        with self._traced("resume", clear_triggers=clear_triggers), \
                self._journaled("resume", clear_triggers=clear_triggers), \
                self._op_guard("resume"):
            self._clear_safe_pause()
            self._write_registers(updates)

    def step(self, cycles: int = 1, force: bool = False) -> int:
        """Execute exactly ``cycles`` MUT cycles, then pause again
        (the Debug Controller's 64-bit counter, Section 3.4).

        Cycle counts refer to the first (fastest-listed) MUT domain.
        Designs whose MUT clock periods are not integer multiples of the
        fastest one cannot be stepped cycle-exactly (paper Section 6.1);
        such a step raises unless ``force=True`` accepts the imprecision.
        """
        if cycles <= 0:
            raise BreakpointError("step count must be positive")
        if not force and not self.stepping_precise():
            raise BreakpointError(
                "cycle-exact stepping requires the MUT's clock periods "
                "to be integer multiples of the fastest one (paper "
                "Section 6.1); pass force=True to step imprecisely")
        before = self.cycles()
        updates = {
            self.inst.spec.step_count_reg: cycles,
            self.inst.spec.step_armed_reg: 1,
            self.inst.spec.paused_reg: 0,
            self.inst.spec.host_pause_reg: 0,
        }
        updates.update(self._trigger_clear_updates())
        # run()'s budget counts fabric events, and the free-running
        # debug clock ticks several times per MUT cycle — budgeting
        # ``cycles`` events would silently undershoot any step longer
        # than RUN_SLACK/ratio cycles, returning with the step counter
        # still armed and the design still running.
        assert self.fabric.sim is not None
        periods = {name: domain.period_ps
                   for name, domain in self.fabric.sim.domains.items()}
        mut_period = periods.get(self.inst.mut_domains[0], 1)
        ratio = max(1, -(-mut_period // max(1, min(periods.values()))))
        with self._traced("step", cycles=cycles), \
                self._journaled("step", cycles=cycles, force=force), \
                self._op_guard("step"):
            self._clear_safe_pause()
            self._write_registers(updates)
            self.run(max_cycles=cycles * ratio + RUN_SLACK)
        return self.cycles() - before

    # ------------------------------------------------------------------
    # streaming waveform capture
    # ------------------------------------------------------------------

    def trace_capture(self, signals, cycles: int, stride: int = 1,
                      depth: Optional[int] = 4096):
        """Capture a waveform of ``signals`` while running ``cycles``
        cycles — the paper's full-visibility answer to ILA probes: any
        signal, chosen now, no recompile.

        The run streams through the simulator's capture kernel: every
        ``stride``-th sample lands in a ``depth``-bounded ring at near
        fused-run speed, whether or not breakpoints are armed (``stride``
        is honoured either way). The controller's ``pause_out`` is the
        run's stop set, so a trigger still pauses the MUT on the precise
        edge and the capture stops with it; its closing row is the
        paused state. Returns the
        :class:`~repro.rtl.waveform.StreamingTrace`.
        """
        from ..rtl.waveform import StreamingTrace
        sim = self.fabric.sim
        assert sim is not None
        signals = [str(s) for s in signals]
        with self._traced("trace_capture", signals=len(signals),
                          cycles=cycles) as span, \
                self._journaled("trace_capture", signals=signals,
                                cycles=cycles, stride=stride, depth=depth):
            self.fabric.sync_gates()
            trace = StreamingTrace(sim, signals,
                                   domain=self.inst.mut_domains[0],
                                   depth=depth, stride=stride)
            if not self.safe_paused:
                trace.run(cycles, until=(self._pause_signal,))
            trace.stop()
            if span is not None:
                span.set(samples=len(trace))
        return trace

    # ------------------------------------------------------------------
    # breakpoints (Algorithm 1 trigger composition)
    # ------------------------------------------------------------------

    def _trigger_clear_updates(self) -> dict[str, int]:
        updates: dict[str, int] = {
            self.inst.spec.and_sel_reg: 0,
            self.inst.spec.or_sel_reg: 0,
        }
        for slot in self.inst.spec.slots:
            updates[slot.and_mask_reg] = 0
            updates[slot.or_mask_reg] = 0
            updates[slot.watch_mask_reg] = 0
        return updates

    def set_watchpoint(self, *signals: str) -> None:
        """Pause when any of the watched signals *changes* value
        between executed cycles (a software-debugger watchpoint)."""
        if not signals:
            raise BreakpointError("need at least one signal to watch")
        updates: dict[str, int] = {}
        for signal in signals:
            slot = self.inst.spec.slot_for(signal)
            updates[slot.watch_mask_reg] = 1
            # Suppress comparison until one executed edge re-baselines
            # the shadow register (self-clearing arm bit).
            updates[slot.watch_arm_reg] = 1
        with self._traced("set_watchpoint", signals=list(signals)), \
                self._journaled("set_watchpoint", signals=list(signals)), \
                self._op_guard("set_watchpoint"):
            self._write_registers(updates)

    def set_value_breakpoint(self, conditions: dict[str, int],
                             mode: str = "and") -> None:
        """Pause when the watched signals take the given values.

        ``mode="and"`` pauses when *all* conditions hold simultaneously
        (e.g. the case-study-2 condition ``mcause[63]==0 && MIE==0 &&
        MPIE==0``); ``mode="or"`` pauses on any single match.
        """
        if mode not in ("and", "or"):
            raise BreakpointError(f"unknown trigger mode {mode!r}")
        if not conditions:
            raise BreakpointError("need at least one trigger condition")
        updates = self._trigger_clear_updates()
        for signal, value in conditions.items():
            slot = self.inst.spec.slot_for(signal)
            updates[slot.ref_reg] = value
            key = slot.and_mask_reg if mode == "and" else slot.or_mask_reg
            updates[key] = 1
        sel = (self.inst.spec.and_sel_reg if mode == "and"
               else self.inst.spec.or_sel_reg)
        updates[sel] = 1
        with self._traced("set_value_breakpoint", mode=mode), \
                self._journaled("set_value_breakpoint",
                             conditions=dict(conditions), mode=mode), \
                self._op_guard("set_value_breakpoint"):
            self._write_registers(updates)

    def set_cycle_breakpoint(self, cycles: int) -> None:
        """Pause after ``cycles`` more cycles (without resuming now)."""
        with self._traced("set_cycle_breakpoint", cycles=cycles), \
                self._journaled("set_cycle_breakpoint", cycles=cycles), \
                self._op_guard("set_cycle_breakpoint"):
            self._write_registers({
                self.inst.spec.step_count_reg: cycles,
                self.inst.spec.step_armed_reg: 1,
            })

    def break_on_assertions(self, enable: bool = True) -> None:
        """Turn SVA failure pauses on or off (Section 3.4)."""
        with self._traced("break_on_assertions", enable=bool(enable)), \
                self._journaled("break_on_assertions",
                             enable=bool(enable)), \
                self._op_guard("break_on_assertions"):
            self._write_registers({
                self.inst.spec.assert_en_reg: int(enable)})

    def clear_breakpoints(self) -> None:
        updates = self._trigger_clear_updates()
        updates[self.inst.spec.step_armed_reg] = 0
        updates[self.inst.spec.assert_en_reg] = 0
        with self._traced("clear_breakpoints"), \
                self._journaled("clear_breakpoints"), \
                self._op_guard("clear_breakpoints"):
            self._write_registers(updates)

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------

    def read_state(self, prefix: str = "",
                   allow_running: bool = False) -> StateSnapshot:
        """Read back all registers under ``prefix`` (full visibility)."""
        self.fabric.transport.check_alive()
        if not allow_running:
            self._require_paused("state readback")
        with self._traced("read_state", prefix=prefix) as span, \
                self._op_guard("read_state"):
            snapshot = self.engine.snapshot(prefix=prefix)
            self.session_seconds += snapshot.acquisition_seconds
            # Modeled seconds arrive via the child jtag.batch spans
            # (acquisition_seconds is exactly their sum) — charging
            # them here too would double-count.
            if span is not None:
                span.set(registers=len(snapshot.values))
        return snapshot

    def read(self, name: str) -> int:
        """Read one register's value."""
        snapshot = self.read_state(prefix=name, allow_running=True)
        return snapshot[name]

    def write_state(self, updates: dict[str, int]) -> None:
        """Force register values in the paused design (Section 3.3)."""
        self._require_paused("state writes")
        with self._traced("write_state", registers=len(updates)), \
                self._journaled("write_state", updates=dict(updates)), \
                self._op_guard("write_state"):
            self._write_registers(updates)

    def force(self, name: str, value: int) -> None:
        self.write_state({name: value})

    def sample_over(self, names: list[str], cycles: int,
                    stride: int = 1) -> list[dict[str, int]]:
        """Record registers over time by single-stepping — the paper's
        "printing of arbitrary signals at run time by single stepping
        without recompiling the design" (Section 7.7).

        Returns one row per sample: the named registers' values after
        each ``stride``-cycle step, starting with the current state.
        ``names`` may be any registers (or hierarchical prefixes) — no
        probe selection happened at compile time.
        """
        self._require_paused("sampling")

        def sample() -> dict[str, int]:
            row: dict[str, int] = {}
            for name in names:
                # Register sampling only: charging BRAM/LUTRAM content
                # readback here would bill every sample for memory
                # frames nobody asked for.
                snapshot = self.engine.snapshot(prefix=name,
                                                include_memories=False)
                self.session_seconds += snapshot.acquisition_seconds
                row.update(snapshot.values)
            return row

        with self._traced("sample_over", cycles=cycles, stride=stride), \
                self._op_guard("sample_over"):
            rows = [sample()]
            taken = 0
            while taken < cycles:
                step = min(stride, cycles - taken)
                self.step(step)
                taken += step
                rows.append(sample())
        return rows

    def snapshot(self, label: str = "") -> StateSnapshot:
        """Capture the full design state for later replay."""
        self._require_paused("snapshots")
        validate_label(label)
        if not self._in_command:
            self.fabric.transport.check_alive()
        with self._traced("snapshot", label=label) as span, \
                self._op_guard("snapshot"):
            snap = self.engine.snapshot(label=label)
            if span is not None:
                span.set(registers=len(snap.values))
        self.session_seconds += snap.acquisition_seconds
        # Journaled *post hoc*: capture mutates nothing (GCAPTURE is a
        # read), and the record must carry the content key, which only
        # exists once the snapshot does. A crash "at" this boundary,
        # before or after, still lands after the record is durable.
        if (self.journal is not None and self.snapshot_store is not None
                and not self._in_command and not self._replaying):
            key = self.snapshot_store.put(snap)
            record = self.journal.append("snapshot", {
                "label": label, "key": key, "cycle": snap.cycle,
                "auto": False})
            self._since_checkpoint = 0
            if fault_point("debug.command") is not None:
                self.fabric.transport.crash(
                    f"command boundary #{record.index} (snapshot)")
        return snap

    def write_memory(self, name: str, words: list[int]) -> None:
        """Overwrite a mapped memory's full contents (Section 3.3 for
        BRAM/LUTRAM: the words travel as content frames over FDRI)."""
        self._require_paused("memory writes")
        db = self.fabric.db
        assert db is not None
        placement = db.memory_map.get(name)
        if placement is None:
            raise DebugError(f"memory {name!r} has no content mapping")
        mem = db.netlist.memories[name]
        if len(words) != mem.depth:
            raise DebugError(
                f"memory {name!r} holds {mem.depth} words, got "
                f"{len(words)}")
        with self._traced("write_memory", name=name, words=len(words)), \
                self._journaled("write_memory", name=name,
                             words=list(words)), \
                self._op_guard("write_memory"):
            image = capture_plan(db, placement.slr).memories[name]
            frames = dict(zip(image.frames, image.pack(words)))
            device = self.fabric.device
            asm = BitstreamAssembler(device)
            asm.preamble()
            self._hop(asm, placement.slr)
            asm.command("WCFG")
            for address in sorted(frames):
                asm.write_register("FAR", [address.to_word()])
                asm.write_register("FDRI", list(frames[address]))
            asm.command("DESYNC").dummy(2)
            result = self.fabric.transact(asm.words)
            self.session_seconds += result.seconds

    def restore(self, snapshot: StateSnapshot) -> None:
        """Load a snapshot back into the paused design (replay).

        With crash safety attached, the snapshot is first persisted to
        the store (idempotent, content-addressed) so the journal record
        can reference it by key instead of inlining the whole state.
        """
        self._require_paused("snapshot restore")
        args = {}
        if (self.journal is not None and self.snapshot_store is not None
                and not self._in_command and not self._replaying):
            args["key"] = self.snapshot_store.put(snapshot)
        # Anything the logic-location file knows is restorable — netlist
        # registers plus BRAM output latches (sync read-port data).
        locatable = self.fabric.db.ll.layout().runs
        writable = {
            name: value for name, value in snapshot.values.items()
            if name in locatable
        }
        with self._traced("restore", registers=len(writable)), \
                self._journaled("restore", **args), \
                self._op_guard("restore"):
            self._write_registers(writable)
            for name, words in snapshot.memories.items():
                if name in self.fabric.db.memory_map:
                    self.write_memory(name, words)

    def _require_paused(self, what: str) -> None:
        if not self.is_paused():
            raise NotPausedError(
                f"{what} require(s) the design to be paused; call "
                f"pause() or hit a breakpoint first")

    # ------------------------------------------------------------------
    # the capture-modify-restore write path
    # ------------------------------------------------------------------

    def _write_registers(self, updates: dict[str, int]) -> None:
        db = self.fabric.db
        assert db is not None
        layout = db.ll.layout()
        by_slr: dict[int, dict[str, int]] = {}
        for name, value in updates.items():
            runs = layout.runs.get(name)
            if not runs:
                raise DebugError(
                    f"register {name!r} has no logic-location entries")
            by_slr.setdefault(runs[0][0], {})[name] = value
        for slr, slr_updates in sorted(by_slr.items()):
            self._write_slr(slr, slr_updates, layout)

    def _write_slr(self, slr: int, updates: dict[str, int],
                   layout: RegisterLayout) -> None:
        device = self.fabric.device

        # 1. Capture current state and read the frames we must edit.
        frames_needed = layout.frames_of(updates)

        asm = BitstreamAssembler(device)
        asm.preamble()
        self._hop(asm, slr)
        asm.clear_mask()
        asm.capture()
        for address in frames_needed:
            asm.read_frames(address, 1)
        asm.command("DESYNC").dummy(2)
        result = self.fabric.transact(asm.words)
        self.session_seconds += result.seconds
        frame_words = {
            address: result.read_words[i * FRAME_WORDS:(i + 1) * FRAME_WORDS]
            for i, address in enumerate(frames_needed)
        }

        # 2. Modify the target bits locally.
        layout.write(frame_words, updates)

        # 3. Write the edited capture frames back and GRESTORE: every
        #    register reloads its just-captured value, except the edits.
        asm = BitstreamAssembler(device)
        asm.preamble()
        self._hop(asm, slr)
        asm.clear_mask()
        asm.command("WCFG")
        for address in frames_needed:
            asm.write_register("FAR", [address.to_word()])
            asm.write_register("FDRI", frame_words[address])
        asm.restore()
        asm.command("DESYNC").dummy(2)
        result = self.fabric.transact(asm.words)
        self.session_seconds += result.seconds

    def _hop(self, asm: BitstreamAssembler, slr: int) -> None:
        hops = asm.hops_to(slr)
        for _ in range(hops):
            asm.write_register("BOUT", [])
        if hops:
            asm.dummy(4)
