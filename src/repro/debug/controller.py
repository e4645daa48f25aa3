"""The Debug Controller and the instrumentation pass that inserts it.

The controller (paper Section 3.1/3.4) is plain RTL on the free (never
gated) clock:

- **value breakpoints**: per watched signal, a reference value register
  plus AND/OR mask bits, composed per Algorithm 1 into a stop condition
  (all of its configuration lives in ordinary flip-flops, so the
  debugger reprograms triggers on the fly through the state-write path —
  no recompilation);
- **cycle breakpoint**: a 64-bit down-counter pauses the design after a
  programmed number of cycles (gdb's ``until``; also single-stepping);
- **assertion breakpoints**: monitor ``fail`` pulses latch a pause;
- **host pause**: a register the host sets over JTAG;
- a ``paused`` latch drives ``pause_out``, which gates the MUT's clock
  through the fabric's glitchless clock buffers the same cycle a trigger
  fires (timing-precise pausing).

:func:`instrument_netlist` performs Zoomie's insertion at the *flattened
netlist* level — where the real tool works — merging the controller,
compiled SVA monitors (on the MUT's clock, so they advance with it), and
pause buffers on every top-level decoupled interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ..errors import DebugError
from ..interfaces.decoupled import DecoupledInterface, REQUESTER
from ..interfaces.pause_buffer import make_pause_buffer
from ..rtl._codegen import compiled_plan_for
from ..rtl.builder import ModuleBuilder
from ..rtl.expr import Const, Expr, Ref, UnaryOp, mux
from ..rtl.flatten import elaborate
from ..rtl.module import Memory, MemoryReadPort, MemoryWritePort, Module, Register
from ..rtl.netlist import Netlist
from ..sva.compile import AssertionMonitor, compile_assertion
from ..sva.features import analyze_features

#: Clock domain the controller (and pause buffers) run on.
FREE_DOMAIN = "zoomie_clk"
#: Netlist prefix of the controller.
DC_PREFIX = "zoomie_dc"

STEP_WIDTH = 64


@dataclass(frozen=True)
class TriggerSlot:
    """One watched signal's trigger resources."""

    index: int
    signal: str
    width: int
    #: The name the user asked to watch (interface wires get remapped to
    #: their MUT-side equivalents when pause buffers interpose them).
    alias: str = ""

    @property
    def ref_reg(self) -> str:
        return f"{DC_PREFIX}.ref_val{self.index}"

    @property
    def and_mask_reg(self) -> str:
        return f"{DC_PREFIX}.and_mask{self.index}"

    @property
    def or_mask_reg(self) -> str:
        return f"{DC_PREFIX}.or_mask{self.index}"

    @property
    def watch_mask_reg(self) -> str:
        return f"{DC_PREFIX}.watch_mask{self.index}"

    @property
    def watch_arm_reg(self) -> str:
        return f"{DC_PREFIX}.watch_arm{self.index}"


@dataclass
class DebugControllerSpec:
    """What the generated controller watches and exposes."""

    slots: list[TriggerSlot]
    assert_count: int
    pause_out: str = f"{DC_PREFIX}.pause_out"
    paused_reg: str = f"{DC_PREFIX}.paused"
    host_pause_reg: str = f"{DC_PREFIX}.host_pause"
    step_count_reg: str = f"{DC_PREFIX}.step_count"
    step_armed_reg: str = f"{DC_PREFIX}.step_armed"
    and_sel_reg: str = f"{DC_PREFIX}.and_sel"
    or_sel_reg: str = f"{DC_PREFIX}.or_sel"
    assert_en_reg: str = f"{DC_PREFIX}.assert_en"

    def slot_for(self, signal: str) -> TriggerSlot:
        for slot in self.slots:
            if signal in (slot.signal, slot.alias):
                return slot
        raise DebugError(
            f"signal {signal!r} is not watched by the Debug Controller; "
            f"watched: {[slot.alias or slot.signal for slot in self.slots]}")


@dataclass
class InstrumentedDesign:
    """A user netlist with Zoomie inserted."""

    netlist: Netlist
    spec: DebugControllerSpec
    #: clock domain -> gate-request signal (all user domains pause
    #: together via the controller).
    gate_signals: dict[str, str]
    #: Compiled assertion monitors: (flat fail signal, source text).
    monitors: list[tuple[str, str]] = field(default_factory=list)
    #: Assertions skipped as unsynthesizable: (source, reason).
    skipped_assertions: list[tuple[str, str]] = field(default_factory=list)
    #: Pause buffer prefixes inserted on top-level interfaces.
    pause_buffers: list[str] = field(default_factory=list)
    mut_domains: list[str] = field(default_factory=list)


def stepping_is_precise(periods_ps: dict[str, int]) -> bool:
    """Whether cycle-exact stepping is possible across these domains.

    Paper Section 6.1: precise stepping over multiple asynchronous
    domains requires phase-aligned clocks whose frequencies are integer
    multiples of each other. With clocks specified by period (phase 0 by
    construction here), that means every period must be an integer
    multiple of the fastest one.
    """
    if not periods_ps:
        return True
    fastest = min(periods_ps.values())
    return all(period % fastest == 0 for period in periods_ps.values())


def _tree(terms: list[Expr], combine) -> Expr:
    """Balanced reduction: log depth keeps the pause path fast enough to
    ride along 250 MHz designs (case study 3)."""
    terms = list(terms)
    while len(terms) > 1:
        nxt = []
        for index in range(0, len(terms) - 1, 2):
            nxt.append(combine(terms[index], terms[index + 1]))
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]


def _and_all(terms: list[Expr]) -> Expr:
    if not terms:
        return Const(1, 1)
    return _tree(terms, lambda a, b: a.logical_and(b))


def _or_all(terms: list[Expr]) -> Expr:
    if not terms:
        return Const(0, 1)
    return _tree(terms, lambda a, b: a.logical_or(b))


def make_debug_controller(watch: list[tuple[str, int]],
                          assert_count: int = 0) -> Module:
    """Generate the Debug Controller module.

    ``watch`` lists (signal name, width) pairs; each becomes an input
    port ``sig{i}`` with trigger registers. ``assert_count`` adds
    ``assert_fail{j}`` inputs for the monitor FSMs.
    """
    b = ModuleBuilder("zoomie_debug_controller")
    sigs = [b.input(f"sig{i}", width) for i, (_, width) in enumerate(watch)]
    fails = [b.input(f"assert_fail{j}", 1) for j in range(assert_count)]

    and_terms: list[Expr] = []
    or_terms: list[Expr] = []
    watch_terms: list[Expr] = []
    any_and_mask: list[Expr] = []
    for index, sig in enumerate(sigs):
        ref = b.reg(f"ref_val{index}", sig.width)
        and_mask = b.reg(f"and_mask{index}", 1)
        or_mask = b.reg(f"or_mask{index}", 1)
        eq = b.wire_expr(f"eq{index}", sig.eq(ref))
        # Algorithm 1 (practical reading): a signal outside the AND mask
        # must not veto the conjunction, so And_i = eq_i OR NOT mask_i;
        # the disjunction takes masked-in matches only.
        and_terms.append(eq.logical_or(UnaryOp("!", and_mask)))
        or_terms.append(eq.logical_and(or_mask))
        any_and_mask.append(and_mask)
        # Watchpoint: pause when the signal *changes* between executed
        # cycles. The shadow register rides the gated MUT clock (like
        # the step counter) so a paused design never self-triggers; the
        # arm bit suppresses comparison until one executed edge has
        # refreshed the baseline (set together with the mask when the
        # host arms the watchpoint, self-clearing).
        watch_mask = b.reg(f"watch_mask{index}", 1)
        watch_arm = b.reg(f"watch_arm{index}", 1)
        b.next(watch_arm, Const(0, 1))
        prev = b.reg(f"prev{index}", sig.width)
        b.next(prev, sig)
        watch_terms.append(
            sig.ne(prev).logical_and(watch_mask)
            .logical_and(UnaryOp("!", watch_arm)))

    and_sel = b.reg("and_sel", 1)
    or_sel = b.reg("or_sel", 1)
    assert_en = b.reg("assert_en", 1)
    host_pause = b.reg("host_pause", 1)
    # The cycle counter lives on the *gated* clock (the instrumentation
    # pass retargets it onto the MUT's domain): it counts exactly the
    # cycles the design executes, with a two-LUT-level update path.
    step_count = b.reg("step_count", STEP_WIDTH)
    step_armed = b.reg("step_armed", 1)
    paused = b.reg("paused", 1)

    # Monitor fail pulses are registered before entering the stop tree:
    # the cut keeps the pause path shallow at high clock rates, at the
    # documented cost of assertion breakpoints pausing one cycle after
    # the violating cycle (value and cycle breakpoints stay exact).
    fail_regs = []
    for j, fail in enumerate(fails):
        fail_reg = b.reg(f"fail_r{j}", 1)
        b.next(fail_reg, fail)
        fail_regs.append(fail_reg)
    assert_stop = b.wire_expr(
        "assert_stop",
        assert_en.logical_and(_or_all(fail_regs)))

    # Value composition (Algorithm 1), built as one balanced tree so the
    # whole stop path stays within a handful of LUT levels.
    and_side = b.wire_expr(
        "and_stop",
        _and_all([*and_terms, _or_all(any_and_mask), and_sel]))
    or_side = b.wire_expr(
        "or_stop", _or_all(or_terms).logical_and(or_sel))
    step_stop = b.wire_expr(
        "step_stop",
        step_armed.logical_and(step_count.eq(Const(0, STEP_WIDTH))))
    watch_stop = b.wire_expr("watch_stop", _or_all(watch_terms))
    stop = b.wire_expr(
        "stop",
        _or_all([and_side, or_side, watch_stop, assert_stop, step_stop,
                 host_pause]))

    b.next(paused, paused.logical_or(stop))
    b.next(step_count, mux(
        step_armed.logical_and(step_count.ne(Const(0, STEP_WIDTH))),
        step_count - Const(1, STEP_WIDTH), step_count))

    b.output_expr("pause_out", paused.logical_or(stop))
    b.output_expr("stopped_now", stop)
    return b.build()


# ---------------------------------------------------------------------------
# netlist merging
# ---------------------------------------------------------------------------

def _merge_module(netlist: Netlist, module: Module, prefix: str,
                  clock: str,
                  input_bindings: dict[str, Expr]) -> None:
    """Elaborate ``module`` and splice it into ``netlist`` under
    ``prefix``, with all its state on clock domain ``clock``."""
    sub = elaborate(module)

    def flat(name: str) -> str:
        return f"{prefix}.{name}"

    def rename(expr: Expr) -> Expr:
        return expr.substitute(
            lambda ref: Ref(flat(ref.name), ref.width))

    for name, width in sub.signals.items():
        if name in sub.memories:
            netlist.signals[flat(name)] = width
            netlist.owner[flat(name)] = prefix
            continue
        netlist.add_signal(flat(name), width, prefix)
    for name, expr in sub.assigns.items():
        netlist.assigns[flat(name)] = rename(expr)
    for name, reg in sub.registers.items():
        netlist.registers[flat(name)] = Register(
            name=flat(name), width=reg.width,
            next=rename(reg.next) if reg.next else None,
            init=reg.init, clock=clock,
            enable=rename(reg.enable) if reg.enable else None,
            reset=rename(reg.reset) if reg.reset else None,
            reset_value=reg.reset_value)
    for name, memory in sub.memories.items():
        netlist.memories[flat(name)] = Memory(
            name=flat(name), width=memory.width, depth=memory.depth,
            read_ports=[MemoryReadPort(
                name=flat(p.name), addr=rename(p.addr), sync=p.sync,
                enable=rename(p.enable) if p.enable else None,
                clock=clock) for p in memory.read_ports],
            write_ports=[MemoryWritePort(
                addr=rename(p.addr), data=rename(p.data),
                enable=rename(p.enable), clock=clock)
                for p in memory.write_ports],
            init=dict(memory.init))
    for port, expr in input_bindings.items():
        netlist.assigns[flat(port)] = expr


def _substitute_everywhere(netlist: Netlist, old: str, new: str,
                           skip_prefix: str) -> None:
    """Re-point every reference to ``old`` at ``new``, except under
    ``skip_prefix`` (the pause buffer's own wiring)."""
    width = netlist.width(old)

    def sub(expr: Expr) -> Expr:
        return expr.substitute(
            lambda ref: Ref(new, width) if ref.name == old else None)

    for name in list(netlist.assigns):
        if name.startswith(skip_prefix):
            continue
        netlist.assigns[name] = sub(netlist.assigns[name])
    for reg in netlist.registers.values():
        if reg.name.startswith(skip_prefix):
            continue
        if reg.next is not None:
            reg.next = sub(reg.next)
        if reg.enable is not None:
            reg.enable = sub(reg.enable)
        if reg.reset is not None:
            reg.reset = sub(reg.reset)
    for memory in netlist.memories.values():
        if memory.name.startswith(skip_prefix):
            continue
        for port in memory.read_ports:
            port.addr = sub(port.addr)
            if port.enable is not None:
                port.enable = sub(port.enable)
        for port in memory.write_ports:
            port.addr = sub(port.addr)
            port.data = sub(port.data)
            port.enable = sub(port.enable)


def instrument_netlist(netlist: Netlist, watch: list[str],
                       insert_monitors: bool = True
                       ) -> InstrumentedDesign:
    """Insert Zoomie into a flattened user design.

    The input netlist is modified in place and returned inside an
    :class:`InstrumentedDesign`. ``watch`` names the flat signals that
    get value-breakpoint trigger slots.
    """
    mut_domains = sorted(netlist.clock_domains())
    if FREE_DOMAIN in mut_domains:
        raise DebugError(
            f"user design already uses the reserved domain "
            f"{FREE_DOMAIN!r}")

    # ---- assertion monitors (on the MUT clock, advancing with it) -------
    monitors: list[tuple[str, str]] = []
    skipped: list[tuple[str, str]] = []
    compiled: list[AssertionMonitor] = []
    if insert_monitors:
        for number, (prefix, text) in enumerate(netlist.assertions):
            report = analyze_features(text)
            if not report.synthesizable:
                skipped.append((text, report.reason))
                continue

            def width_of(name: str, _prefix=prefix) -> int:
                flat = f"{_prefix}.{name}" if _prefix else name
                return netlist.width(flat)

            monitor = compile_assertion(
                text, width_of, name=f"zoomie_mon{number}")
            mon_prefix = f"zoomie_mon{number}"
            bindings = {}
            for port, signal in monitor.port_map.items():
                flat = f"{prefix}.{signal}" if prefix else signal
                bindings[port] = Ref(flat, netlist.width(flat))
            clock = monitor.property.clock or "clk"
            if clock not in mut_domains:
                clock = mut_domains[0]
            _merge_module(netlist, monitor.module, mon_prefix,
                          clock=clock, input_bindings=bindings)
            monitors.append((f"{mon_prefix}.fail", text))
            compiled.append(monitor)

    # ---- pause buffers on top-level decoupled interfaces ------------------
    # Inserted *before* the controller: watch signals that name interface
    # wires must be remapped to the MUT-side (pre-buffer) signals, or the
    # trigger logic would close a combinational loop through pause_out
    # and the buffer's flow-through path. The buffers reference the
    # controller's pause output by name; it is merged just below.
    pause_ref = Ref(f"{DC_PREFIX}.pause_out", 1)
    buffers: list[str] = []
    watch_remap: dict[str, str] = {}
    for prefix, iface in netlist.interfaces:
        if prefix or not isinstance(iface, DecoupledInterface):
            continue
        buffers.append(_insert_pause_buffer(netlist, iface, pause_ref))
        valid, ready, data = iface.signal_names()
        pb = f"zoomie_pb_{iface.name}"
        if iface.role == REQUESTER:
            # MUT's offers enter the buffer on the enq side.
            watch_remap[valid] = f"{pb}.enq_valid"
            watch_remap[data] = f"{pb}.enq_data"
            watch_remap[ready] = f"{pb}.enq_ready"
        else:
            # What the MUT sees comes out of the deq side.
            watch_remap[valid] = f"{pb}.deq_valid"
            watch_remap[data] = f"{pb}.deq_data"
            watch_remap[ready] = f"{pb}.deq_ready"

    slots = []
    for index, name in enumerate(watch):
        mapped = watch_remap.get(name, name)
        slots.append(TriggerSlot(
            index=index, signal=mapped, width=netlist.width(mapped),
            alias=name))

    # ---- the controller ---------------------------------------------------
    dc_module = make_debug_controller(
        [(slot.signal, slot.width) for slot in slots],
        assert_count=len(monitors))
    bindings = {
        f"sig{slot.index}": Ref(slot.signal, slot.width)
        for slot in slots
    }
    for j, (fail_signal, _text) in enumerate(monitors):
        bindings[f"assert_fail{j}"] = Ref(fail_signal, 1)
    _merge_module(netlist, dc_module, DC_PREFIX,
                  clock=FREE_DOMAIN, input_bindings=bindings)
    # The step counter counts *executed* MUT cycles: clock it from the
    # (gated) MUT domain so it freezes exactly with the design. The
    # watchpoint shadow registers ride the same clock so a paused design
    # never self-triggers on its own frozen values.
    netlist.registers[f"{DC_PREFIX}.step_count"].clock = mut_domains[0]
    for index in range(len(slots)):
        netlist.registers[f"{DC_PREFIX}.prev{index}"].clock = \
            mut_domains[0]
        netlist.registers[f"{DC_PREFIX}.watch_arm{index}"].clock = \
            mut_domains[0]

    spec = DebugControllerSpec(slots=slots, assert_count=len(monitors))

    gate_signals = {domain: spec.pause_out for domain in mut_domains}
    netlist.validate()
    # Warm the compiled-plan cache now that the netlist is final (all
    # in-place rewrites above are done): every simulator built over this
    # instrumented design — the ILA flow, VTI incremental runs, the
    # benchmarks — reuses the plan instead of recompiling.
    compiled_plan_for(netlist)
    return InstrumentedDesign(
        netlist=netlist, spec=spec, gate_signals=gate_signals,
        monitors=monitors, skipped_assertions=skipped,
        pause_buffers=buffers, mut_domains=mut_domains)


def _insert_pause_buffer(netlist: Netlist, iface: DecoupledInterface,
                         pause: Ref) -> str:
    """Interpose a pause buffer on one top-level interface."""
    prefix = f"zoomie_pb_{iface.name}"
    valid, ready, data = iface.signal_names()
    buffer = make_pause_buffer(prefix, iface.data_width)
    live = UnaryOp("!", pause)

    def rewire(expr: Expr, renames: dict[str, str]) -> Expr:
        return expr.substitute(
            lambda ref: Ref(renames[ref.name], ref.width)
            if ref.name in renames else None)

    if iface.role == REQUESTER:
        # MUT drives valid/data out; external drives ready in. The MUT's
        # logic (including its own valid/data drivers) must now see the
        # buffer's enq_ready instead of the external ready.
        inner_valid = netlist.assigns.pop(valid)
        inner_data = netlist.assigns.pop(data)
        renames = {ready: f"{prefix}.enq_ready"}
        _substitute_everywhere(
            netlist, ready, f"{prefix}.enq_ready", skip_prefix=prefix)
        _merge_module(netlist, buffer, prefix, clock=FREE_DOMAIN,
                      input_bindings={
                          "enq_valid": rewire(inner_valid, renames),
                          "enq_data": rewire(inner_data, renames),
                          "deq_ready": Ref(ready, 1),
                          "enq_live": live,
                          "deq_live": Const(1, 1),
                      })
        netlist.assigns[valid] = Ref(f"{prefix}.deq_valid", 1)
        netlist.assigns[data] = Ref(
            f"{prefix}.deq_data", iface.data_width)
    else:
        # External drives valid/data in; MUT drives ready out. The MUT's
        # logic (including its ready driver) must now see the buffer's
        # deq_valid/deq_data instead of the raw external signals.
        inner_ready = netlist.assigns.pop(ready)
        renames = {valid: f"{prefix}.deq_valid",
                   data: f"{prefix}.deq_data"}
        _substitute_everywhere(
            netlist, valid, f"{prefix}.deq_valid", skip_prefix=prefix)
        _substitute_everywhere(
            netlist, data, f"{prefix}.deq_data", skip_prefix=prefix)
        _merge_module(netlist, buffer, prefix, clock=FREE_DOMAIN,
                      input_bindings={
                          "enq_valid": Ref(valid, 1),
                          "enq_data": Ref(data, iface.data_width),
                          "deq_ready": rewire(inner_ready, renames),
                          "enq_live": Const(1, 1),
                          "deq_live": live,
                      })
        netlist.assigns[ready] = Ref(f"{prefix}.enq_ready", 1)
    return prefix
