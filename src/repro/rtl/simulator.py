"""Multi-clock, gateable cycle simulator over a flat :class:`Netlist`.

The simulator is the execution substrate standing in for silicon: designs
run cycle-by-cycle, clock domains can be *gated* (frozen) exactly the way
Zoomie's Debug Controller gates the module under test, registers and
memories can be inspected and forced at any time (state readback and
manipulation), and full state snapshots can be captured and restored
(snapshot/replay debugging).

Semantics per clock edge of a ticking domain set:

1. settle combinational logic;
2. sample every register's next value, every memory write, and every
   synchronous read port (read-before-write) in the ticking domains;
3. commit all samples simultaneously.

Simultaneously-edged domains commit together so cross-domain register
transfers behave like real synchronized flops.

Two evaluation engines implement these semantics (see
``docs/architecture.md``, "The execution engine"):

- ``fused`` (the default) — one generated kernel per active clock-domain
  set that performs the whole tick over local variables, plus a
  ``run(n)`` kernel whose cycle loop stays inside compiled code;
- ``interp`` — recursive ``Expr.eval`` AST walking, the reference
  semantics the differential suites check the fused engine against.

The fused engine leaves its run kernel for per-edge ticks whenever
exact observability is required: pre-edge hooks run between settle and
the tick kernel, edge hooks fire after every commit, and gating is
re-checked at each edge, so hooks, gating, and single-stepping keep
identical semantics across engines (the differential suite pins this).

A step may carry a stop set (``until``): before each event the design
settles, and the first event at which any named signal is high is not
run. The run kernels check it in compiled code; the per-event path
checks the same settled signals in Python. This is how the debugger
runs to a breakpoint in one call.

This class is also the one stepping core of K-lane simulation:
:class:`~repro.rtl.batch.BatchSimulator` subclasses it, swapping in the
K-lane kernel set and per-lane value access, so the clock schedule,
:meth:`Simulator.step`, :meth:`Simulator.step_captured`,
:meth:`Simulator.run_to_time`, the per-event loop, the run bookkeeping
and the clock snapshot exist once. Both step entry points share one
dispatch and one instrumentation block (metrics, flight note,
``sim.run`` span).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Mapping, Optional

from .._bits import mask, truncate
from ..errors import SimulationError, UnknownSignalError
from ..obs import get_flight_recorder, get_registry, get_tracer
from ._codegen import compiled_plan_for
from .netlist import Netlist

#: Bound at import; the singletons are mutated in place, never replaced.
_TRACER = get_tracer()
_FLIGHT = get_flight_recorder()

#: Default clock period used when none is specified (1 ns = 1 GHz).
DEFAULT_PERIOD_PS = 1000

#: Evaluation engine names (slowest to fastest).
ENGINE_INTERPRETED = "interp"
ENGINE_FUSED = "fused"
ENGINES = (ENGINE_INTERPRETED, ENGINE_FUSED)


@dataclass
class ClockDomain:
    """Bookkeeping for one clock domain."""

    name: str
    period_ps: int = DEFAULT_PERIOD_PS
    phase_ps: int = 0
    gated: bool = False
    cycles: int = 0  # committed (un-gated) edges
    edges_seen: int = 0  # all edges, including gated ones
    next_edge_ps: int = field(init=False)

    def __post_init__(self):
        if self.period_ps <= 0:
            raise SimulationError(
                f"clock {self.name!r}: period must be positive")
        self.next_edge_ps = self.phase_ps + self.period_ps


class Simulator:
    """Executes a :class:`Netlist`.

    Parameters
    ----------
    netlist:
        The elaborated design.
    clocks:
        Optional map of domain name to period in picoseconds. Domains used
        by the design but not listed get :data:`DEFAULT_PERIOD_PS`.
    engine:
        Evaluation engine: ``"fused"`` (generated kernels) or
        ``"interp"`` (AST walking, the reference semantics).
    """

    #: Runs packed into every value (K in a ``BatchSimulator``).
    lanes = 1
    #: Registry counters a step tallies into: runs, and cycles x lanes.
    _COUNTERS = ("sim.runs", "sim.ticks")

    def __init__(self, netlist: Netlist,
                 clocks: Optional[dict[str, int]] = None,
                 engine: str = ENGINE_FUSED):
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown simulation engine {engine!r}; choose from "
                f"{ENGINES}")
        self.netlist = netlist
        self.engine = engine
        clocks = dict(clocks or {})
        self.domains: dict[str, ClockDomain] = {}
        for domain in sorted(netlist.clock_domains() | set(clocks)):
            self.domains[domain] = ClockDomain(
                name=domain, period_ps=clocks.get(domain, DEFAULT_PERIOD_PS))
        self.time_ps = 0

        # Value environment: every signal, plus memory contents separately.
        self.env: dict[str, int] = {}
        self.memories: dict[str, list[int]] = {}
        for name, memory in netlist.memories.items():
            words = [0] * memory.depth
            for addr, value in memory.init.items():
                words[addr] = truncate(value, memory.width)
            self.memories[name] = words

        for name in netlist.signals:
            self.env[name] = 0
        for name, reg in netlist.registers.items():
            self.env[name] = truncate(reg.init, reg.width)
        # What force() accepts: each register and sync read-port output
        # latch, with its width mask. Set here, not on first use, so
        # every instance keeps one attribute layout.
        widths = netlist.sync_read_outputs()
        widths.update((name, reg.width)
                      for name, reg in netlist.registers.items())
        self._force_masks = {name: mask(width)
                             for name, width in widths.items()}

        # Pre-compile (or look up) the evaluation plan.
        if engine == ENGINE_FUSED:
            self._plan = compiled_plan_for(netlist)
            self._kernels = self._plan.kernels
            self._settle_fn = self._kernels.settle
        else:
            self._plan = None
            order = netlist.comb_order()
            ordered_assigns = [(n, netlist.assigns[n]) for n in order
                               if n in netlist.assigns]

            def _settle(env, _assigns=ordered_assigns):
                for name, expr in _assigns:
                    env[name] = expr.eval(env)
            self._settle_fn = _settle
            self._reg_next = {
                name: reg.next.eval
                for name, reg in netlist.registers.items() if reg.next}
            self._reg_enable = {
                name: reg.enable.eval
                for name, reg in netlist.registers.items() if reg.enable}
            self._reg_reset = {
                name: reg.reset.eval
                for name, reg in netlist.registers.items() if reg.reset}
            self._mem_plans = self._build_mem_plans()
            self._reg_meta = {
                name: (reg.width, reg.reset_value)
                for name, reg in netlist.registers.items()}
            self._regs_by_domain = {d: [] for d in self.domains}
            for name, reg in netlist.registers.items():
                self._regs_by_domain.setdefault(reg.clock, []).append(name)

        # Execute-side tallies (compile-side live in rtl._codegen).
        registry = get_registry()
        self._m_runs, self._m_ticks = (
            registry.counter(name) for name in self._COUNTERS)

        self._dirty = True
        # Post-commit hooks: fn(simulator, ticked_domains).
        self.edge_hooks: list[Callable[["Simulator", frozenset[str]], None]] = []
        # Pre-commit hooks: called after settling, before state commits,
        # seeing exactly the values registers sample at this edge.
        self.pre_edge_hooks: list[
            Callable[["Simulator", frozenset[str]], None]] = []

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _build_mem_plans(self):
        """Per-domain memory port evaluation plans (interpreted tier)."""
        plans: dict[str, list] = {}
        for mem_name, memory in self.netlist.memories.items():
            for wport in memory.write_ports:
                plans.setdefault(wport.clock, []).append((
                    "w", mem_name, wport.addr.eval,
                    wport.data.eval, wport.enable.eval,
                    memory.depth, memory.width))
            for rport in memory.read_ports:
                if rport.sync:
                    enable = rport.enable.eval if rport.enable else None
                    plans.setdefault(rport.clock, []).append((
                        "r", mem_name, rport.addr.eval,
                        rport.name, enable, memory.depth, memory.width))
        return plans

    # ------------------------------------------------------------------
    # combinational settling and async reads
    # ------------------------------------------------------------------

    def _settle(self) -> None:
        if not self._dirty:
            return
        if self.engine == ENGINE_FUSED:
            # Async (combinational) memory read ports are compiled into
            # the fused settle kernel: pre-pass + assigns + post-pass.
            self._settle_fn(self.env, self.memories)
        else:
            # Async read ports feed the settle pass, and may themselves
            # depend on settled addresses; iterate to fixpoint. One
            # pre-pass + settle + post-pass covers the supported patterns
            # (addresses never combinationally depend on async read data).
            self._apply_async_reads()
            self._settle_fn(self.env)
            self._apply_async_reads()
        self._dirty = False

    def _apply_async_reads(self) -> None:
        for mem_name, memory in self.netlist.memories.items():
            words = self.memories[mem_name]
            for rport in memory.read_ports:
                if rport.sync:
                    continue
                addr = rport.addr.eval(self.env)
                self.env[rport.name] = words[addr] if addr < memory.depth else 0

    # ------------------------------------------------------------------
    # public value access
    # ------------------------------------------------------------------

    def poke(self, name: str, value: int) -> None:
        """Drive a top-level input."""
        if name not in self.netlist.inputs:
            raise SimulationError(
                f"{name!r} is not a top-level input; use force() for state")
        self.env[name] = truncate(value, self.netlist.width(name))
        self._dirty = True

    def peek(self, name: str) -> int:
        """Read any signal's settled value."""
        if name not in self.env:
            raise UnknownSignalError(f"unknown signal {name!r}")
        self._settle()
        return self.env[name]

    def peek_many(self, names: Iterable[str]) -> list[int]:
        """:meth:`peek` each name, in order, settling once for all."""
        self._settle()
        env = self.env
        try:
            return [env[name] for name in names]
        except KeyError as error:
            raise UnknownSignalError(
                f"unknown signal {error.args[0]!r}") from None

    def force(self, name: str, value: int) -> None:
        """Overwrite a register's current value (state manipulation).

        Synchronous memory read-port outputs (BRAM output latches) are
        forceable too: restore must be able to reload them, since they
        hold architectural state just like flip-flops.
        """
        self.force_many({name: value})

    def force_many(self, values: Mapping[str, int]) -> None:
        """:meth:`force` each ``name -> value``, in order, marking the
        design unsettled once."""
        masks = self._force_masks
        env = self.env
        try:
            for name, value in values.items():
                width_mask = masks.get(name)
                if width_mask is None:
                    raise SimulationError(
                        f"{name!r} is not a register; poke() inputs, "
                        f"write_memory() memories")
                env[name] = value & width_mask
        finally:
            self._dirty = True

    def read_memory(self, name: str, addr: int) -> int:
        words = self._memory_words(name)
        self._check_addr(name, addr)
        return words[addr]

    def write_memory(self, name: str, addr: int, value: int) -> None:
        words = self._memory_words(name)
        self._check_addr(name, addr)
        words[addr] = truncate(value, self.netlist.memories[name].width)
        self._dirty = True

    def _memory_words(self, name: str) -> list[int]:
        try:
            return self.memories[name]
        except KeyError:
            raise UnknownSignalError(f"unknown memory {name!r}") from None

    def _check_addr(self, name: str, addr: int) -> None:
        depth = self.netlist.memories[name].depth
        if not 0 <= addr < depth:
            raise SimulationError(
                f"memory {name!r}: address {addr} out of range 0..{depth - 1}")

    # ------------------------------------------------------------------
    # clocking
    # ------------------------------------------------------------------

    def set_clock_gate(self, domain: str, gated: bool) -> None:
        """Gate (freeze) or ungate a clock domain.

        Gating is glitchless by construction here: it only takes effect at
        edge boundaries, mirroring the BUFGCE behaviour the paper relies on.
        """
        self._domain(domain).gated = gated

    def is_gated(self, domain: str) -> bool:
        return self._domain(domain).gated

    def cycles(self, domain: str = "clk") -> int:
        """Committed (un-gated) cycle count of a domain."""
        return self._domain(domain).cycles

    def _domain(self, name: str) -> ClockDomain:
        try:
            return self.domains[name]
        except KeyError:
            raise SimulationError(f"unknown clock domain {name!r}") from None

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def step(self, cycles: int = 1, domain: Optional[str] = None,
             until: tuple[str, ...] = ()) -> int:
        """Advance the simulation; returns the events run.

        With ``domain``, tick only that domain ``cycles`` times (testbench
        style). Without, advance global time over ``cycles`` edge events,
        ticking every domain whose edge falls at each event time.

        ``until`` names stop signals: before each event the design
        settles, and the run ends before the first event at which any of
        them is high (in a K-lane simulator: nonzero in any lane), so
        fewer than ``cycles`` events may run.

        Each call tallies into the metrics registry (``sim.runs`` /
        ``sim.ticks``, counting the events run), notes one ``sim``/``run``
        flight event whose ``cycles`` is the events run and, with
        tracing enabled, records a ``sim.run`` span whose modeled clock
        is the simulated hardware time the run covered.
        """
        return self._instrumented_step(cycles, domain, None, until)

    def step_captured(self, cycles: int, capture,
                      domain: Optional[str] = None,
                      until: tuple[str, ...] = ()) -> int:
        """Advance like :meth:`step` while streaming samples of
        ``capture.signals`` into its ring buffer.

        ``capture`` is a :class:`~repro.rtl.waveform._CaptureBuffer`
        (normally owned by a :class:`~repro.rtl.waveform.StreamingTrace`).
        Whenever the plain fused run loop would be eligible, the whole
        run — including sampling — happens inside one generated capture
        kernel, so observing the design does not forfeit the hot path.
        Otherwise (hooks, gating, the interp engine, skewed clock
        schedules) each event settles and samples in Python with the
        exact same pre-edge ordering the kernel uses. A stop set is
        checked after the settle and before the sample, so a stopped
        capture's next sample is the state it stopped in. Metrics,
        flight note and span are exactly :meth:`step`'s.
        """
        return self._instrumented_step(cycles, domain, capture, until)

    def _instrumented_step(self, cycles: int, domain: Optional[str],
                           capture, until: tuple[str, ...]) -> int:
        """The instrumentation block both step entry points share."""
        if cycles < 0:
            raise SimulationError("cannot step a negative number of cycles")
        if capture is not None:
            self._domain(capture.domain)
            if domain is not None and domain != capture.domain:
                raise SimulationError(
                    f"capture samples domain {capture.domain!r}; "
                    f"cannot step domain {domain!r} alone")
        until = tuple(until)
        for name in until:
            if name not in self.env:
                raise UnknownSignalError(f"unknown stop signal {name!r}")
        if not _TRACER.enabled:
            ran = self._step_impl(cycles, domain, capture, until)
        else:
            with _TRACER.span("sim.run", cycles=cycles, engine=self.engine,
                              domain=domain or "*") as span:
                time_before = self.time_ps
                ran = self._step_impl(cycles, domain, capture, until)
                if domain is not None:
                    modeled = ran * self.domains[domain].period_ps * 1e-12
                else:
                    modeled = (self.time_ps - time_before) * 1e-12
                span.set(cycles=ran, time_ps=self.time_ps)
                span.add_modeled(modeled)
        self._m_runs.inc()
        self._m_ticks.inc(ran * self.lanes)
        if _FLIGHT.enabled:
            _FLIGHT.note("sim", "run", cycles=ran)
        return ran

    def _step_impl(self, cycles: int, domain: Optional[str],
                   capture=None, until: tuple[str, ...] = ()) -> int:
        """The uninstrumented stepping body both entry points share;
        returns the events run."""
        if domain is not None:
            dom = self._domain(domain)
            if cycles and self._hot_loop_ok() and not dom.gated:
                return self._fused_run((domain,), cycles, capture, until,
                                       advance_time=False)
            event = partial(self._tick, frozenset({domain}), capture)
        elif cycles and self._hot_loop_ok() \
                and not any(d.gated for d in self.domains.values()) \
                and len({(d.period_ps, d.next_edge_ps)
                         for d in self.domains.values()}) == 1:
            # Every domain edges at every event: the whole run stays in
            # one compiled hot loop, with time fixed up arithmetically.
            return self._fused_run(tuple(self.domains), cycles, capture,
                                   until, advance_time=True)
        else:
            event = partial(self._advance_one_event, capture)
        for ran in range(cycles):
            if until:
                self._settle()
                if any(self.env[name] for name in until):
                    return ran
            event()
        return cycles

    def _hot_loop_ok(self) -> bool:
        """Whether the compiled run kernel may replace per-event ticks.

        Hooks observe every edge and gating is re-evaluated per edge, so
        any hook or any gated domain routes through the general path.
        """
        return (self.engine == ENGINE_FUSED
                and not self.edge_hooks and not self.pre_edge_hooks)

    def _fused_run(self, active: tuple[str, ...], cycles: int, capture,
                   until: tuple[str, ...], advance_time: bool) -> int:
        """Execute up to ``cycles`` edges of ``active`` domains in one
        kernel call (the capture kernel hands back the ring cursors),
        then apply the clock bookkeeping arithmetically for the edges
        it committed; returns that count."""
        key = tuple(sorted(active))
        if capture is None:
            ran = self._kernels.run_kernel(key, until)(
                self.env, self.memories, cycles)
            if not until:
                ran = cycles
        else:
            kernel = self._kernels.capture_run_kernel(
                key, capture.signals, capture.bounded, until)
            start = capture.cycle
            (capture.head, capture.total, capture.phase,
             capture.cycle) = kernel(
                self.env, self.memories, cycles, capture.ring, capture.head,
                capture.total, capture.stride, capture.phase, capture.cycle)
            ran = capture.cycle - start
        for name in active:
            dom = self.domains[name]
            dom.cycles += ran
            dom.edges_seen += ran
            if advance_time:
                dom.next_edge_ps += ran * dom.period_ps
        if advance_time and ran:
            dom = next(iter(self.domains.values()))
            self.time_ps = dom.next_edge_ps - dom.period_ps
        self._dirty = True
        return ran

    def run_to_time(self, time_ps: int) -> None:
        """Advance global time up to and including ``time_ps``."""
        if not self.domains:
            raise SimulationError(
                "design has no clock domains; nothing can advance time")
        while min(d.next_edge_ps for d in self.domains.values()) <= time_ps:
            self._advance_one_event()

    def _advance_one_event(self, capture=None) -> None:
        if not self.domains:
            raise SimulationError(
                "design has no clock domains; nothing can advance time")
        event_time = min(d.next_edge_ps for d in self.domains.values())
        ticking = frozenset(
            name for name, d in self.domains.items()
            if d.next_edge_ps == event_time)
        self.time_ps = event_time
        for name in ticking:
            dom = self.domains[name]
            dom.next_edge_ps += dom.period_ps
        self._tick(ticking, capture)

    def _tick(self, ticking: frozenset[str], capture=None) -> None:
        """Apply one edge to the given domains (honouring gating).

        With ``capture``, an edge that commits the capture domain first
        settles and samples — the Python twin of one capture-kernel
        iteration.
        """
        active = []
        for name in sorted(ticking):
            dom = self._domain(name)
            dom.edges_seen += 1
            if not dom.gated:
                active.append(name)
                dom.cycles += 1
        if capture is not None and capture.domain in active:
            self._settle()
            capture.sample_scalar(self.env)
        if not active:
            return
        ticked = frozenset(active)
        if self.engine == ENGINE_FUSED:
            if self.pre_edge_hooks:
                # Hooks see the settled pre-edge values; the tick kernel
                # re-settles, so an input a hook poked is still sampled.
                self._settle()
                for hook in self.pre_edge_hooks:
                    hook(self, ticked)
            # Whole tick in one fused kernel; post-commit hooks still
            # fire per edge, so observers see every committed cycle.
            self._kernels.tick_kernel(tuple(active))(
                self.env, self.memories)
            self._dirty = True
            for hook in self.edge_hooks:
                hook(self, ticked)
            return
        self._settle()
        if self.pre_edge_hooks:
            for hook in self.pre_edge_hooks:
                hook(self, ticked)
            self._settle()  # hooks may poke inputs; re-settle before sampling
        env = self.env
        reg_updates: list[tuple[str, int]] = []
        for domain in active:
            for reg_name in self._regs_by_domain.get(domain, ()):
                enable = self._reg_enable.get(reg_name)
                if enable is not None and not enable(env):
                    continue
                width, reset_value = self._reg_meta[reg_name]
                reset = self._reg_reset.get(reg_name)
                if reset is not None and reset(env):
                    reg_updates.append((reg_name, reset_value))
                    continue
                next_fn = self._reg_next.get(reg_name)
                if next_fn is not None:
                    reg_updates.append(
                        (reg_name, truncate(next_fn(env), width)))
        mem_writes: list[tuple[str, int, int]] = []
        sync_reads: list[tuple[str, int]] = []
        for domain in active:
            for plan in self._mem_plans.get(domain, ()):
                kind = plan[0]
                if kind == "w":
                    _, mem_name, addr_fn, data_fn, en_fn, depth, width = plan
                    if en_fn(env):
                        addr = addr_fn(env)
                        if addr < depth:
                            mem_writes.append(
                                (mem_name, addr,
                                 truncate(data_fn(env), width)))
                else:
                    _, mem_name, addr_fn, out_name, en_fn, depth, _w = plan
                    if en_fn is None or en_fn(env):
                        addr = addr_fn(env)
                        words = self.memories[mem_name]
                        sync_reads.append(
                            (out_name, words[addr] if addr < depth else 0))
        # Commit phase.
        for name, value in reg_updates:
            env[name] = value
        for mem_name, addr, value in mem_writes:
            self.memories[mem_name][addr] = value
        for name, value in sync_reads:
            env[name] = value
        self._dirty = True
        for hook in self.edge_hooks:
            hook(self, ticked)

    # ------------------------------------------------------------------
    # batching (fan one run out into K bit-parallel lanes)
    # ------------------------------------------------------------------

    def to_batch(self, lanes: int) -> "BatchSimulator":
        """A :class:`~repro.rtl.batch.BatchSimulator` with this run's
        state broadcast into all ``lanes`` lanes.

        Clock periods, phases, gating, and elapsed time carry over, so
        each lane resumes exactly where this simulator stands; diverge
        the lanes afterwards with per-lane ``poke``/``force``. Hooks do
        not transfer — batched lanes have no per-edge observability.
        """
        from .batch import BatchSimulator
        batch = BatchSimulator(
            self.netlist, lanes,
            clocks={name: d.period_ps for name, d in self.domains.items()})
        snap = self.snapshot()
        for lane in range(lanes):
            batch.inject_lane(lane, snap)
        batch.time_ps = snap["time_ps"]
        batch._restore_clocks(snap["clocks"])
        return batch

    # ------------------------------------------------------------------
    # snapshot / restore (the substrate for Zoomie's snapshot debugging)
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Capture all architectural state (registers, memories, clocks,
        synchronous read-port outputs, and per-domain clock phase)."""
        self._settle()
        sync_outs = [
            port.name
            for memory in self.netlist.memories.values()
            for port in memory.read_ports if port.sync]
        return {
            "registers": {
                name: self.env[name] for name in self.netlist.registers},
            "memories": {
                name: list(words) for name, words in self.memories.items()},
            "inputs": {name: self.env[name] for name in self.netlist.inputs},
            "read_ports": {name: self.env[name] for name in sync_outs},
            "time_ps": self.time_ps,
            "cycles": {name: d.cycles for name, d in self.domains.items()},
            "clocks": self._clock_state(),
        }

    def _clock_state(self) -> dict:
        return {
            name: {
                "cycles": d.cycles,
                "edges_seen": d.edges_seen,
                "next_edge_ps": d.next_edge_ps,
                "gated": d.gated,
            }
            for name, d in self.domains.items()}

    def _restore_clocks(self, clocks: dict) -> None:
        for name, state in clocks.items():
            dom = self.domains.get(name)
            if dom is None:
                continue
            dom.cycles = state["cycles"]
            dom.edges_seen = state["edges_seen"]
            dom.next_edge_ps = state["next_edge_ps"]
            dom.gated = state["gated"]

    def restore(self, snapshot: dict) -> None:
        """Restore a snapshot captured by :meth:`snapshot`.

        Clock-phase state (``edges_seen``, ``next_edge_ps``, gating, and
        the per-domain alignment of future edges) is restored alongside
        the architectural state, so a restored multi-clock simulation
        replays exactly — not just the committed cycle counts.
        """
        for name, value in snapshot["registers"].items():
            if name not in self.netlist.registers:
                raise SimulationError(
                    f"snapshot register {name!r} not in design")
            self.env[name] = value
        for name, words in snapshot["memories"].items():
            if name not in self.memories:
                raise SimulationError(f"snapshot memory {name!r} not in design")
            self.memories[name][:] = words
        for name, value in snapshot["inputs"].items():
            self.env[name] = value
        for name, value in snapshot.get("read_ports", {}).items():
            if name in self.env:
                self.env[name] = value
        self.time_ps = snapshot["time_ps"]
        clocks = snapshot.get("clocks")
        if clocks is not None:
            self._restore_clocks(clocks)
        else:  # legacy snapshots carry committed cycle counts only
            for name, cycles in snapshot["cycles"].items():
                if name in self.domains:
                    self.domains[name].cycles = cycles
        self._dirty = True
