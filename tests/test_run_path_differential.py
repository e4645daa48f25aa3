"""Run-path differential suite: one-call runs against the per-event loop.

``ZoomieDebugger.run`` — and through it ``step`` and run-to-breakpoint —
advances the design in one fabric call whose stop set is the Debug
Controller's ``pause_out``, and ``FabricDevice.run`` re-applies clock
gates only when a gate request changes. The oracle is the loop those
replaced, kept below: settle and test ``pause_out`` before every event,
re-apply every gate, step one event. It drives a twin session whose
simulator is the interpreted reference engine.

Seeded command sequences (runs, steps, value/cycle/assertion/watchpoint
breakpoints, pause/resume, ``fabric.run`` while paused or live) go to both
sessions; after every command the returned counts, the pause state and
cycle, and the full simulator snapshot (registers, memories, read
ports, time, clock state) must be identical. The design shapes: the
Cohort SoC, Ariane with an assertion breakpoint firing, a memory-bearing
cluster, a 2:1 two-domain design, the campaign's 10:1 debug-clock map,
a domain gated through the host's CLK_GATE mask, and a session with an
edge-hook ``Trace`` attached (which keeps the simulator off its
compiled loop).
"""

import random

import pytest

from repro.campaign.designs import (
    campaign_design,
    compile_mutant,
    golden_netlist,
)
from repro.config import FabricDevice
from repro.debug import ZoomieDebugger, instrument_netlist
from repro.designs import make_ariane_core, make_cluster, make_cohort_soc
from repro.designs.ariane import healthy_program
from repro.fpga import make_test_device
from repro.rtl import Simulator, Trace, elaborate
from repro.vendor import VivadoFlow

from .test_multiclock_debug import make_two_domain_design


# --------------------------------------------------------------------------
# the oracle: the per-event loop the one-call run replaced
# --------------------------------------------------------------------------

def loop_fabric_run(fabric, cycles):
    """``FabricDevice.run`` as a per-event loop: gates re-read, then one
    event, every time."""
    for _ in range(cycles):
        fabric._apply_gates()
        fabric.sim.step(1)
    return cycles


class LoopDebugger(ZoomieDebugger):
    """``run`` as a per-event loop; ``step`` and every other verb are
    the debugger's own."""

    def run(self, max_cycles=100_000):
        with self._traced("run", max_cycles=max_cycles), \
                self._journaled("run", max_cycles=max_cycles):
            ran = 0
            while ran < max_cycles:
                if self.is_paused():
                    break
                loop_fabric_run(self.fabric, 1)
                ran += 1
        return ran


# --------------------------------------------------------------------------
# twin sessions
# --------------------------------------------------------------------------

def _compile(build, watch, clocks_mhz):
    device = make_test_device()
    netlist = elaborate(build())
    inst = instrument_netlist(netlist, watch=list(watch))
    result = VivadoFlow(device).compile_netlist(
        netlist, clocks_mhz, gate_signals=inst.gate_signals)
    return device, inst, result


def _boot(compiled, debugger_cls):
    device, inst, result = compiled
    fabric = FabricDevice(device)
    fabric.expect(result.database)
    fabric.jtag.run(result.bitstream)
    return debugger_cls(fabric, inst)


class Twins:
    """The session under test and its per-event, interpreted twin."""

    def __init__(self, compiled, inputs):
        self.fast = _boot(compiled, ZoomieDebugger)
        self.loop = _boot(compiled, LoopDebugger)
        fabric = self.loop.fabric
        reference = Simulator(fabric.db.netlist, clocks=fabric.db.clocks,
                              engine="interp")
        reference.restore(fabric.sim.snapshot())
        fabric.sim = reference
        for name, value in inputs.items():
            self.do("record_input", name, value)

    @property
    def sessions(self):
        return self.fast, self.loop

    def do(self, verb, *args, **kwargs):
        """Apply one command to both sessions and compare them."""
        results = []
        for dbg in self.sessions:
            if verb == "fabric_run":
                run = (dbg.fabric.run if dbg is self.fast
                       else lambda n: loop_fabric_run(dbg.fabric, n))
                results.append(run(*args))
            else:
                results.append(getattr(dbg, verb)(*args, **kwargs))
        fast, loop = self.sessions
        context = f"after {verb}{args}"
        assert results[0] == results[1], context
        assert fast.is_paused() == loop.is_paused(), context
        assert fast.cycles() == loop.cycles(), context
        assert fast.fabric.sim.snapshot() == loop.fabric.sim.snapshot(), \
            context
        return results[0]

    def peek(self, name):
        return self.fast.fabric.sim.peek(name)


def _drive(twins, seed, commands, watch, exact_steps=True,
           gate_domains=(), max_run=60):
    """Send ``commands`` seeded random verbs to both twins."""
    rng = random.Random(seed)
    spec = twins.fast.inst.spec
    verbs = ["run", "run", "run", "step", "step", "pause", "resume",
             "fabric_run", "cycle", "clear"]
    if watch:
        verbs += ["value", "value", "watch"]
    if twins.fast.inst.monitors:
        verbs.append("asserts")
    if gate_domains:
        verbs.append("gate")
    for _ in range(commands):
        verb = rng.choice(verbs)
        if verb == "run":
            # Mostly run a live design; sometimes poll a paused one.
            if twins.fast.is_paused() and rng.random() < 0.7:
                twins.do("resume", clear_triggers=rng.random() < 0.5)
            twins.do("run", rng.randint(0, max_run))
        elif verb == "step":
            cycles = rng.randint(1, 12)
            stepped = twins.do("step", cycles)
            if exact_steps:
                assert stepped == cycles
        elif verb == "pause":
            twins.do("pause")
        elif verb == "resume":
            twins.do("resume", clear_triggers=rng.random() < 0.5)
        elif verb == "fabric_run":
            # Mostly while paused (the free clock runs alone); on a live
            # design a trigger raising pause_out must gate mid-run.
            if not twins.fast.is_paused() and rng.random() < 0.7:
                twins.do("pause")
            twins.do("fabric_run", rng.randint(1, 30))
        elif verb == "cycle":
            twins.do("set_cycle_breakpoint", rng.randint(1, 20))
        elif verb == "clear":
            twins.do("clear_breakpoints")
        elif verb == "value":
            slot = spec.slot_for(rng.choice(watch))
            target = (twins.peek(slot.signal) + rng.randint(1, 3)) \
                & ((1 << slot.width) - 1)
            twins.do("set_value_breakpoint", {slot.alias: target},
                     mode=rng.choice(("and", "or")))
        elif verb == "watch":
            twins.do("set_watchpoint", rng.choice(watch))
        elif verb == "asserts":
            twins.do("break_on_assertions", rng.random() < 0.7)
        elif verb == "gate":
            db = twins.fast.fabric.db
            mask = 0
            for domain in gate_domains:
                if rng.random() < 0.5:
                    mask |= 1 << db.domain_bits[domain]
            for dbg in twins.sessions:
                dbg.fabric.set_clock_gates(mask, dbg.fabric.device.primary_slr)
            twins.do("run", rng.randint(0, max_run))


# --------------------------------------------------------------------------
# the design shapes
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cohort():
    return _compile(lambda: make_cohort_soc(with_bug=True),
                    ("issued", "results"), {"clk": 100.0,
                                            "zoomie_clk": 100.0})


@pytest.fixture(scope="module")
def two_domain():
    return _compile(make_two_domain_design, ("fast_out",),
                    {"fast": 200.0, "slow": 100.0, "zoomie_clk": 200.0})


@pytest.mark.parametrize("seed", [1, 2])
def test_cohort(cohort, seed):
    twins = Twins(cohort, {"en": 1})
    _drive(twins, seed, 40, ("issued", "results"))


def test_ariane_assertion_breaks():
    compiled = _compile(lambda: make_ariane_core(healthy_program()), (),
                        {"clk": 100.0, "zoomie_clk": 100.0})
    twins = Twins(compiled, {"resetn": 1})
    twins.do("run", 25)
    twins.do("break_on_assertions", True)
    fired = 0
    for seed in range(3):
        # Trap entry with a zero cause violates a8 ($rose(exception) |->
        # mcause != 0); the registered fail pulse pauses a cycle later.
        if not twins.fast.is_paused():
            twins.do("pause")
        if twins.peek("exception") == 0:
            twins.do("write_state", {"exception": 1, "mcause": 0})
        twins.do("resume", clear_triggers=False)
        ran = twins.do("run", 40)
        fired += ran < 40
        _drive(twins, seed, 6, (), exact_steps=False, max_run=30)
    assert fired


def test_memory_bearing_cluster():
    compiled = _compile(lambda: make_cluster(cores=2, imem_depth=64),
                        ("retired_count",), {"clk": 100.0,
                                             "zoomie_clk": 100.0})
    assert compiled[2].database.netlist.memories
    twins = Twins(compiled, {"en": 1})
    _drive(twins, 3, 25, ("retired_count",))


def test_two_domain_2_to_1(two_domain):
    twins = Twins(two_domain, {"en": 1})
    _drive(twins, 4, 30, ("fast_out",))


def test_debug_clock_10_to_1_steps_exactly():
    design = campaign_design("cohort")
    compiled = compile_mutant(design, golden_netlist(design))
    clocks = compiled[2].database.clocks
    assert clocks["zoomie_clk"] * 10 == clocks["clk"]
    twins = Twins(compiled, {"en": 1})
    _drive(twins, 5, 25, design.watch, max_run=200)
    # A step needing more than RUN_SLACK fabric events (40 MUT cycles
    # are 400 events at 10:1) must not under-run: the run bound scales
    # with the clock ratio.
    if not twins.fast.is_paused():
        twins.do("pause")
    assert twins.do("step", 40) == 40


def test_clk_gate_gated_domain(two_domain):
    twins = Twins(two_domain, {"en": 1})
    _drive(twins, 6, 30, ("fast_out",),
           gate_domains=("slow", "fast", "zoomie_clk"))


def test_hook_trace_attached(cohort):
    twins = Twins(cohort, {"en": 1})
    traces = [Trace(dbg.fabric.sim, ["issued", "results"],
                    domain=dbg.inst.mut_domains[0]).attach()
              for dbg in twins.sessions]
    _drive(twins, 7, 30, ("issued", "results"))
    assert len(traces[0]) > 1
    assert list(traces[0].iter_rows()) == list(traces[1].iter_rows())
