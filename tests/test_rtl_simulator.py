"""Tests for elaboration and the multi-clock, gateable simulator."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    CombinationalLoopError,
    SimulationError,
    UnknownSignalError,
)
from repro.rtl import ModuleBuilder, Simulator, Trace, elaborate, mux, write_vcd
from repro.rtl.flatten import set_clock_map


def make_counter(width=8, clock="clk"):
    b = ModuleBuilder("counter")
    en = b.input("en", 1)
    count = b.reg("count", width, clock=clock)
    b.next(count, mux(en, count + 1, count))
    b.output_expr("out", count)
    return b.build()


def counter_sim(width=8):
    sim = Simulator(elaborate(make_counter(width)))
    sim.poke("en", 1)
    return sim


class TestBasicExecution:
    def test_counter_counts(self):
        sim = counter_sim()
        sim.step(5)
        assert sim.peek("out") == 5

    def test_enable_stops_counting(self):
        sim = counter_sim()
        sim.step(3)
        sim.poke("en", 0)
        sim.step(3)
        assert sim.peek("out") == 3

    def test_wrap_around(self):
        sim = counter_sim(width=4)
        sim.step(17)
        assert sim.peek("out") == 1

    def test_peek_unknown_raises(self):
        sim = counter_sim()
        with pytest.raises(UnknownSignalError):
            sim.peek("bogus")

    def test_poke_non_input_raises(self):
        sim = counter_sim()
        with pytest.raises(SimulationError):
            sim.poke("count", 3)

    def test_negative_step_rejected(self):
        sim = counter_sim()
        with pytest.raises(SimulationError):
            sim.step(-1)

    def test_interpreted_and_compiled_agree(self):
        net = elaborate(make_counter())
        fast = Simulator(net, engine="fused")
        slow = Simulator(net, engine="interp")
        for sim in (fast, slow):
            sim.poke("en", 1)
            sim.step(7)
        assert fast.peek("out") == slow.peek("out") == 7


class TestRegisterSemantics:
    def test_registers_sample_before_commit(self):
        # Swap circuit: a <= b, b <= a must exchange values each cycle.
        b = ModuleBuilder("swap")
        ra = b.reg("a", 8, init=1)
        rb = b.reg("b", 8, init=2)
        b.next(ra, rb)
        b.next(rb, ra)
        b.output_expr("oa", ra)
        module = b.build()
        sim = Simulator(elaborate(module))
        sim.step(1)
        assert (sim.peek("a"), sim.peek("b")) == (2, 1)
        sim.step(1)
        assert (sim.peek("a"), sim.peek("b")) == (1, 2)

    def test_synchronous_reset(self):
        b = ModuleBuilder("m")
        rst = b.input("rst", 1)
        count = b.reg("count", 8, reset=rst, reset_value=9)
        b.next(count, count + 1)
        b.output_expr("o", count)
        sim = Simulator(elaborate(b.build()))
        sim.poke("rst", 0)
        sim.step(3)
        assert sim.peek("o") == 3
        sim.poke("rst", 1)
        sim.step(1)
        assert sim.peek("o") == 9

    def test_register_enable(self):
        b = ModuleBuilder("m")
        en = b.input("en", 1)
        count = b.reg("count", 8, enable=en)
        b.next(count, count + 1)
        b.output_expr("o", count)
        sim = Simulator(elaborate(b.build()))
        sim.poke("en", 0)
        sim.step(5)
        assert sim.peek("o") == 0
        sim.poke("en", 1)
        sim.step(2)
        assert sim.peek("o") == 2

    def test_init_values(self):
        b = ModuleBuilder("m")
        r = b.reg("r", 8, init=0xAB)
        b.output_expr("o", r)
        sim = Simulator(elaborate(b.build()))
        assert sim.peek("o") == 0xAB


class TestCombinationalChecks:
    def test_comb_loop_detected(self):
        b = ModuleBuilder("loop")
        b.wire("a", 1)
        b.wire("c", 1)
        b.assign("a", b.sig("c"))
        b.assign("c", b.sig("a"))
        b.output_expr("o", b.sig("a"))
        module = b.build()
        with pytest.raises(CombinationalLoopError):
            Simulator(elaborate(module))

    def test_deep_comb_chain_settles(self):
        b = ModuleBuilder("chain")
        x = b.input("x", 8)
        prev = x
        for i in range(50):
            prev = b.wire_expr(f"w{i}", prev + 1)
        b.output_expr("o", prev)
        sim = Simulator(elaborate(b.build()))
        sim.poke("x", 0)
        assert sim.peek("o") == 50


class TestClockGating:
    def test_gated_domain_freezes(self):
        sim = counter_sim()
        sim.step(2)
        sim.set_clock_gate("clk", True)
        sim.step(10)
        assert sim.peek("out") == 2
        assert sim.cycles("clk") == 2

    def test_ungate_resumes_exactly(self):
        sim = counter_sim()
        sim.step(2)
        sim.set_clock_gate("clk", True)
        sim.step(10)
        sim.set_clock_gate("clk", False)
        sim.step(1)
        assert sim.peek("out") == 3
        assert sim.cycles("clk") == 3

    def test_unknown_domain_raises(self):
        sim = counter_sim()
        with pytest.raises(SimulationError):
            sim.set_clock_gate("nope", True)


class TestMultiClock:
    def make_two_domain(self):
        b = ModuleBuilder("m")
        fast = b.reg("fast", 16, clock="fast_clk")
        slow = b.reg("slow", 16, clock="slow_clk")
        b.next(fast, fast + 1)
        b.next(slow, slow + 1)
        b.output_expr("of", fast)
        b.output_expr("os", slow)
        return elaborate(b.build())

    def test_period_ratio(self):
        sim = Simulator(self.make_two_domain(),
                        clocks={"fast_clk": 1000, "slow_clk": 4000})
        sim.run_to_time(16_000)
        assert sim.peek("of") == 16
        assert sim.peek("os") == 4

    def test_per_domain_step(self):
        sim = Simulator(self.make_two_domain())
        sim.step(3, domain="fast_clk")
        assert sim.peek("of") == 3
        assert sim.peek("os") == 0

    def test_gating_one_domain_leaves_other_running(self):
        sim = Simulator(self.make_two_domain(),
                        clocks={"fast_clk": 1000, "slow_clk": 1000})
        sim.set_clock_gate("slow_clk", True)
        sim.step(5)
        assert sim.peek("of") == 5
        assert sim.peek("os") == 0

    def test_simultaneous_cross_domain_transfer(self):
        # Register in domain B samples a register in domain A; when both
        # domains tick at the same instant the transfer uses pre-edge values.
        b = ModuleBuilder("m")
        src = b.reg("src", 8, clock="a")
        dst = b.reg("dst", 8, clock="b")
        b.next(src, src + 1)
        b.next(dst, src)
        b.output_expr("o", dst)
        sim = Simulator(elaborate(b.build()),
                        clocks={"a": 1000, "b": 1000})
        sim.step(1)
        assert sim.peek("src") == 1
        assert sim.peek("dst") == 0
        sim.step(1)
        assert sim.peek("dst") == 1


class TestMemories:
    def make_mem_sim(self):
        b = ModuleBuilder("memtest")
        waddr = b.input("waddr", 4)
        wdata = b.input("wdata", 8)
        we = b.input("we", 1)
        raddr = b.input("raddr", 4)
        memory = b.memory("mem", 8, 16, init={0: 5})
        rd = b.read_port(memory, "rdata", raddr, sync=False)
        rs = b.read_port(memory, "rdata_s", raddr, sync=True)
        b.write_port(memory, waddr, wdata, we)
        b.output_expr("q", rd)
        b.output_expr("qs", rs)
        return Simulator(elaborate(b.build()))

    def test_init_contents(self):
        sim = self.make_mem_sim()
        sim.poke("raddr", 0)
        assert sim.peek("q") == 5

    def test_write_then_async_read(self):
        sim = self.make_mem_sim()
        sim.poke("waddr", 3)
        sim.poke("wdata", 77)
        sim.poke("we", 1)
        sim.step(1)
        sim.poke("we", 0)
        sim.poke("raddr", 3)
        assert sim.peek("q") == 77

    def test_sync_read_lags_one_cycle(self):
        sim = self.make_mem_sim()
        sim.poke("raddr", 0)
        assert sim.peek("qs") == 0
        sim.step(1)
        assert sim.peek("qs") == 5

    def test_read_before_write_on_same_cycle(self):
        sim = self.make_mem_sim()
        sim.poke("waddr", 0)
        sim.poke("wdata", 99)
        sim.poke("we", 1)
        sim.poke("raddr", 0)
        sim.step(1)
        # Sync read port returns the pre-write word for same-cycle access.
        assert sim.peek("qs") == 5
        sim.step(1)
        assert sim.peek("qs") == 99

    def test_direct_memory_access(self):
        sim = self.make_mem_sim()
        sim.write_memory("mem", 7, 123)
        assert sim.read_memory("mem", 7) == 123

    def test_memory_bounds_checked(self):
        sim = self.make_mem_sim()
        with pytest.raises(SimulationError):
            sim.read_memory("mem", 16)
        with pytest.raises(UnknownSignalError):
            sim.read_memory("nope", 0)


class TestStateManipulation:
    def test_force_register(self):
        sim = counter_sim()
        sim.step(2)
        sim.force("count", 100)
        sim.step(1)
        assert sim.peek("out") == 101

    def test_force_truncates(self):
        sim = counter_sim(width=4)
        sim.force("count", 0x1F)
        assert sim.peek("out") == 0xF

    def test_force_non_register_raises(self):
        sim = counter_sim()
        with pytest.raises(SimulationError):
            sim.force("en", 1)

    def test_snapshot_restore_roundtrip(self):
        sim = self_contained = counter_sim()
        self_contained.step(4)
        snap = sim.snapshot()
        sim.step(10)
        sim.restore(snap)
        assert sim.peek("out") == 4
        assert sim.cycles("clk") == 4
        sim.step(1)
        assert sim.peek("out") == 5

    def test_snapshot_includes_memories(self):
        b = ModuleBuilder("m")
        addr = b.input("addr", 2)
        memory = b.memory("mem", 8, 4)
        rd = b.read_port(memory, "rd", addr)
        b.write_port(memory, addr, b.input("wd", 8), b.input("we", 1))
        b.output_expr("o", rd)
        sim = Simulator(elaborate(b.build()))
        sim.write_memory("mem", 1, 42)
        snap = sim.snapshot()
        sim.write_memory("mem", 1, 0)
        sim.restore(snap)
        assert sim.read_memory("mem", 1) == 42


class TestClockMap:
    def test_instance_clock_renaming(self):
        counter = make_counter()
        b = ModuleBuilder("top")
        en = b.input("en", 1)
        refs = b.instantiate(counter, "mut", inputs={"en": en})
        b.output_expr("o", refs["out"])
        top = b.build()
        set_clock_map(top.instances["mut"], {"clk": "mut_clk"})
        net = elaborate(top)
        assert net.registers["mut.count"].clock == "mut_clk"
        sim = Simulator(net, clocks={"mut_clk": 1000})
        sim.poke("en", 1)
        sim.set_clock_gate("mut_clk", True)
        sim.step(5)
        assert sim.peek("o") == 0


class TestTrace:
    def test_trace_records_series(self):
        sim = counter_sim()
        trace = Trace(sim, signals=["out"], depth=None).attach()
        sim.step(3)
        assert trace.series("out") == [0, 1, 2, 3]

    def test_depth_limits_window(self):
        sim = counter_sim()
        trace = Trace(sim, signals=["out"], depth=2).attach()
        sim.step(5)
        assert trace.series("out") == [4, 5]

    def test_detach_stops_recording(self):
        sim = counter_sim()
        trace = Trace(sim, signals=["out"]).attach()
        sim.step(1)
        trace.detach()
        sim.step(5)
        assert len(trace) == 2

    def test_unknown_signal_rejected(self):
        sim = counter_sim()
        with pytest.raises(SimulationError):
            Trace(sim, signals=["nope"])

    def test_vcd_export(self):
        sim = counter_sim()
        trace = Trace(sim, signals=["out", "en"]).attach()
        sim.step(3)
        out = io.StringIO()
        write_vcd(trace, out)
        text = out.getvalue()
        assert "$enddefinitions" in text
        assert "b11 " in text  # out reaches 3


@settings(max_examples=25)
@given(st.lists(st.booleans(), min_size=1, max_size=40))
def test_counter_matches_reference_model(enables):
    """Property: RTL counter tracks a trivial software model exactly."""
    sim = Simulator(elaborate(make_counter()))
    expected = 0
    for enable in enables:
        sim.poke("en", int(enable))
        sim.step(1)
        expected = (expected + int(enable)) & 0xFF
        assert sim.peek("out") == expected


@settings(max_examples=20)
@given(st.integers(1, 30), st.integers(1, 30))
def test_gating_is_transparent_to_resumed_execution(before, after):
    """Pausing then resuming must equal never pausing (same cycle count)."""
    paused = Simulator(elaborate(make_counter()))
    straight = Simulator(elaborate(make_counter()))
    for sim in (paused, straight):
        sim.poke("en", 1)
    paused.step(before)
    paused.set_clock_gate("clk", True)
    paused.step(13)
    paused.set_clock_gate("clk", False)
    paused.step(after)
    straight.step(before + after)
    assert paused.peek("out") == straight.peek("out")
