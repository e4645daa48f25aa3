"""Tests for the Debug Controller, instrumentation, readback engine, and
the ZoomieDebugger front end."""

import pytest

from repro.config import FabricDevice
from repro.debug import (
    ReadbackEngine,
    ZoomieDebugger,
    diff_snapshots,
    enable_crash_safety,
    estimate_readback_seconds,
    instrument_netlist,
    make_debug_controller,
)
from repro.designs import make_cohort_soc, make_pipeline
from repro.errors import (
    BreakpointError,
    DebugError,
    DeviceError,
    NotPausedError,
)
from repro.fpga import FrameAddress, make_test_device
from repro.rtl import ModuleBuilder, Simulator, elaborate, mux
from repro.vendor import VivadoFlow


def make_asserting_counter(limit=10):
    """Counts while enabled; carries an SVA bounding the count."""
    b = ModuleBuilder("acounter")
    en = b.input("en", 1)
    count = b.reg("count", 8)
    b.next(count, mux(en, count + 1, count))
    b.output_expr("out", count)
    b.assertion(
        f"bound: assert property (@(posedge clk) count <= {limit});")
    b.assertion(
        "known: assert property (@(posedge clk) !$isunknown(count));")
    return b.build()


def program_instrumented(design, watch, device=None, clocks_mhz=100.0,
                         **instrument_kwargs):
    """Instrument, compile, and program; returns (fabric, debugger)."""
    device = device or make_test_device()
    netlist = elaborate(design)
    inst = instrument_netlist(netlist, watch=watch, **instrument_kwargs)
    flow = VivadoFlow(device)
    clocks = {domain: clocks_mhz for domain in netlist.clock_domains()}
    result = flow.compile_netlist(netlist, clocks,
                                  gate_signals=inst.gate_signals)
    fabric = FabricDevice(device)
    fabric.expect(result.database)
    fabric.jtag.run(result.bitstream)
    return fabric, ZoomieDebugger(fabric, inst), inst


class TestControllerModule:
    def test_standalone_module_simulates(self):
        dc = make_debug_controller([("a", 8)], assert_count=1)
        sim = Simulator(elaborate(dc))
        sim.poke("sig0", 5)
        sim.poke("assert_fail0", 0)
        assert sim.peek("pause_out") == 0

    def test_value_trigger_and_latch(self):
        dc = make_debug_controller([("a", 8)])
        sim = Simulator(elaborate(dc))
        sim.force("ref_val0", 7)
        sim.force("and_mask0", 1)
        sim.force("and_sel", 1)
        sim.poke("sig0", 3)
        sim.step(1)
        assert sim.peek("pause_out") == 0
        sim.poke("sig0", 7)
        assert sim.peek("pause_out") == 1  # combinational, same cycle
        sim.step(1)
        sim.poke("sig0", 0)
        assert sim.peek("pause_out") == 1  # latched

    def test_and_composition_needs_all(self):
        dc = make_debug_controller([("a", 4), ("b", 4)])
        sim = Simulator(elaborate(dc))
        sim.force("ref_val0", 1)
        sim.force("ref_val1", 2)
        sim.force("and_mask0", 1)
        sim.force("and_mask1", 1)
        sim.force("and_sel", 1)
        sim.poke("sig0", 1)
        sim.poke("sig1", 0)
        assert sim.peek("pause_out") == 0
        sim.poke("sig1", 2)
        assert sim.peek("pause_out") == 1

    def test_or_composition_needs_any(self):
        dc = make_debug_controller([("a", 4), ("b", 4)])
        sim = Simulator(elaborate(dc))
        sim.force("ref_val1", 9)
        sim.force("or_mask1", 1)
        sim.force("or_sel", 1)
        sim.poke("sig0", 0)
        sim.poke("sig1", 9)
        assert sim.peek("pause_out") == 1

    def test_masked_out_signal_ignored_in_and(self):
        dc = make_debug_controller([("a", 4), ("b", 4)])
        sim = Simulator(elaborate(dc))
        sim.force("ref_val0", 1)
        sim.force("and_mask0", 1)
        sim.force("and_sel", 1)
        sim.poke("sig0", 1)
        sim.poke("sig1", 15)  # unmasked: must not veto
        assert sim.peek("pause_out") == 1

    def test_step_counter_counts_down(self):
        dc = make_debug_controller([("a", 4)])
        sim = Simulator(elaborate(dc))
        sim.force("step_count", 3)
        sim.force("step_armed", 1)
        for _ in range(3):
            assert sim.peek("pause_out") == 0
            sim.step(1)
        assert sim.peek("pause_out") == 1

    def test_assert_trigger_gated_by_enable(self):
        dc = make_debug_controller([("a", 4)], assert_count=1)
        sim = Simulator(elaborate(dc))
        sim.poke("assert_fail0", 1)
        sim.step(1)  # fail pulses are registered (one-cycle latency)
        assert sim.peek("pause_out") == 0  # not enabled yet
        sim.force("assert_en", 1)
        assert sim.peek("pause_out") == 1


class TestInstrumentation:
    def test_monitors_compiled_and_unsynthesizable_skipped(self):
        netlist = elaborate(make_asserting_counter())
        inst = instrument_netlist(netlist, watch=["out"])
        assert len(inst.monitors) == 1
        assert len(inst.skipped_assertions) == 1
        assert "$isunknown" in inst.skipped_assertions[0][1]

    def test_gate_signals_cover_all_user_domains(self):
        netlist = elaborate(make_cohort_soc())
        inst = instrument_netlist(netlist, watch=["issued"])
        assert set(inst.gate_signals) == {"clk"}
        assert inst.gate_signals["clk"] == "zoomie_dc.pause_out"

    def test_reserved_domain_collision_rejected(self):
        b = ModuleBuilder("bad")
        b.reg("r", 1, clock="zoomie_clk")
        b.output_expr("o", b.sig("r"))
        with pytest.raises(DebugError):
            instrument_netlist(elaborate(b.build()), watch=[])

    def test_pause_buffers_inserted_on_top_interfaces(self):
        netlist = elaborate(make_pipeline())
        inst = instrument_netlist(netlist, watch=[])
        assert sorted(inst.pause_buffers) == [
            "zoomie_pb_in", "zoomie_pb_out"]

    def test_instrumented_netlist_still_validates_and_runs(self):
        netlist = elaborate(make_pipeline())
        instrument_netlist(netlist, watch=["out_valid"])
        sim = Simulator(netlist)
        sim.poke("in_valid", 1)
        sim.poke("in_data", 5)
        sim.poke("out_ready", 1)
        sim.step(8)
        # 4 stages add 1+2+3+4 = 10.
        assert sim.peek("out_data") == 15

    def test_pipeline_data_survives_pause_through_buffers(self):
        """End-to-end Figure 3 protection inside an instrumented design:
        pausing the MUT mid-stream must neither drop nor duplicate."""
        netlist = elaborate(make_pipeline())
        inst = instrument_netlist(netlist, watch=[])
        sim = Simulator(netlist)
        received = []
        pending = 1

        sim.poke("out_ready", 1)
        for cycle in range(80):
            # Pause the MUT for cycles 20..35 via the host-pause FF.
            if cycle == 20:
                sim.force("zoomie_dc.host_pause", 1)
            if cycle == 35:
                sim.force("zoomie_dc.host_pause", 0)
                sim.force("zoomie_dc.paused", 0)
            sim.poke("in_valid", 1)
            sim.poke("in_data", pending)
            # The external testbench never pauses; the MUT's domains gate
            # off the controller's pause output (the fabric's job).
            for domain, signal in inst.gate_signals.items():
                sim.set_clock_gate(domain, bool(sim.peek(signal)))
            fire_in = bool(sim.peek("in_ready"))
            fire_out = bool(sim.peek("out_valid"))
            out_value = sim.peek("out_data")
            sim.step(1)
            if fire_out:
                received.append(out_value)
            if fire_in:
                pending += 1
        assert len(received) > 20
        expected = [v + 10 for v in range(1, len(received) + 1)]
        assert received == expected


class TestReadbackEngine:
    @pytest.fixture()
    def debug_setup(self):
        return program_instrumented(
            make_cohort_soc(with_bug=True), watch=["issued"])

    def test_optimized_reads_fewer_frames_than_naive(self, debug_setup):
        fabric, dbg, _ = debug_setup
        engine = ReadbackEngine(fabric)
        slr = 0
        naive = engine.read_slr_naive(slr)
        optimized = engine.read_slr_optimized(slr)
        assert optimized.frames_read < naive.frames_read
        assert optimized.seconds < naive.seconds

    def test_both_strategies_agree_on_values(self, debug_setup):
        fabric, dbg, _ = debug_setup
        fabric.sim.poke("en", 1)
        fabric.run(17)
        engine = ReadbackEngine(fabric)
        naive = engine.read_slr_naive(0)
        optimized = engine.read_slr_optimized(0)
        for name, value in optimized.values.items():
            assert naive.values[name] == value

    def test_readback_matches_simulator_truth(self, debug_setup):
        fabric, dbg, _ = debug_setup
        fabric.sim.poke("en", 1)
        fabric.run(23)
        engine = ReadbackEngine(fabric)
        values = engine.read_registers().values
        for name in ("lsu.issued_count", "mmu.tlb_sel_r", "datapath.acc"):
            assert values[name] == fabric.sim.peek(name)

    def test_a_frame_outside_the_slr_raises_a_device_error(self,
                                                          debug_setup):
        # Readback checks its frames through FrameSpace.validate, as
        # every frame-taking API does, before sending a batch.
        fabric, _dbg, _ = debug_setup
        engine = ReadbackEngine(fabric)
        batches = fabric.jtag.batches
        for frames in ([FrameAddress(0, 0, 999, 0)],
                       [*engine.mut_frames_of_slr(0),
                        FrameAddress(0, 0, 0, -1)]):
            with pytest.raises(DeviceError, match="frame"):
                engine.read_slr(0, frames)
        assert fabric.jtag.batches == batches

    def test_estimate_matches_executed_time_shape(self, debug_setup):
        fabric, dbg, _ = debug_setup
        engine = ReadbackEngine(fabric)
        naive = engine.read_slr_naive(0)
        estimate = estimate_readback_seconds(naive.frames_read)
        assert 0.5 <= estimate / naive.seconds <= 2.0

    def test_estimate_pinned_to_executed_path(self, debug_setup):
        """The analytic model (used for paper-scale designs) and the
        executable read_slr path must not silently drift: same frames,
        same hops, within 5% — naive and optimized, every SLR."""
        fabric, dbg, _ = debug_setup
        engine = ReadbackEngine(fabric)
        device = fabric.device
        for slr in range(device.slr_count):
            hops = (slr - device.primary_slr) % device.slr_count
            executed = engine.read_slr_naive(slr)
            estimate = estimate_readback_seconds(
                executed.frames_read, hops)
            drift = abs(estimate - executed.seconds) / executed.seconds
            assert drift < 0.05, (
                f"SLR{slr} naive: estimate {estimate:.6f}s vs "
                f"executed {executed.seconds:.6f}s ({drift:.1%})")
        optimized = engine.read_slr_optimized(0)
        estimate = estimate_readback_seconds(optimized.frames_read, 0)
        drift = abs(estimate - optimized.seconds) / optimized.seconds
        assert drift < 0.05, (
            f"optimized: estimate {estimate:.6f}s vs executed "
            f"{optimized.seconds:.6f}s ({drift:.1%})")


class TestDebuggerFrontEnd:
    @pytest.fixture()
    def dbg(self):
        fabric, debugger, _ = program_instrumented(
            make_cohort_soc(with_bug=True),
            watch=["issued", "completed", "acc"])
        fabric.sim.poke("en", 1)
        return debugger

    def test_host_pause_and_resume(self, dbg):
        dbg.run(max_cycles=10)
        dbg.pause()
        assert dbg.is_paused()
        cycles = dbg.cycles()
        dbg.run(max_cycles=10)
        assert dbg.cycles() == cycles  # frozen
        dbg.resume()
        dbg.run(max_cycles=5)
        assert dbg.cycles() > cycles

    def test_state_access_requires_pause(self, dbg):
        with pytest.raises(NotPausedError):
            dbg.read_state()
        with pytest.raises(NotPausedError):
            dbg.write_state({"datapath.acc": 1})

    def test_value_breakpoint_pauses_at_exact_cycle(self, dbg):
        dbg.set_value_breakpoint({"issued": 2}, mode="and")
        dbg.run(max_cycles=200)
        assert dbg.is_paused()
        assert dbg.read("lsu.issued_count") == 2

    def test_or_breakpoint(self, dbg):
        dbg.set_value_breakpoint({"acc": 0xFFFF, "completed": 1},
                                 mode="or")
        dbg.run(max_cycles=300)
        assert dbg.is_paused()
        assert dbg.read("lsu.completed_count") == 1

    def test_step_advances_exactly_n(self, dbg):
        dbg.run(5)
        dbg.pause()
        before = dbg.cycles()
        advanced = dbg.step(7)
        assert advanced == 7
        assert dbg.is_paused()
        assert dbg.cycles() == before + 7

    def test_invalid_step_rejected(self, dbg):
        with pytest.raises(BreakpointError):
            dbg.step(0)

    def test_negative_run_bound_rejected_before_journaling(self, dbg,
                                                           tmp_path):
        enable_crash_safety(dbg, tmp_path)
        with pytest.raises(BreakpointError, match="negative"):
            dbg.run(-5)
        assert dbg.journal.count == 0
        assert dbg.cycles() == 0
        assert dbg.run(0) == 0
        assert [r.command for r in dbg.journal.records()] == ["run"]

    def test_unwatched_signal_rejected(self, dbg):
        with pytest.raises(DebugError):
            dbg.set_value_breakpoint({"mmu.vpn_r": 1})

    def test_force_changes_running_behaviour(self, dbg):
        dbg.run(10)
        dbg.pause()
        dbg.force("datapath.acc", 0x100)
        assert dbg.read("datapath.acc") == 0x100

    def test_snapshot_restore_replay(self, dbg):
        dbg.run(12)
        dbg.pause()
        snap = dbg.snapshot("checkpoint")
        dbg.step(9)
        after = dbg.snapshot("later")
        assert diff_snapshots(snap, after)  # something moved
        dbg.restore(snap)
        replayed = dbg.snapshot("replayed")
        changed = {
            name for name in diff_snapshots(snap, replayed)
            if not name.startswith("zoomie_")
        }
        assert not changed

    def test_replay_reproduces_execution(self, dbg):
        """Restore + step N must equal the original run's state at the
        same point (deterministic replay, Section 3.3)."""
        dbg.run(10)
        dbg.pause()
        snap = dbg.snapshot()
        dbg.step(6)
        first = dbg.snapshot()
        dbg.restore(snap)
        dbg.step(6)
        second = dbg.snapshot()
        changed = {
            name for name in diff_snapshots(first, second)
            if not name.startswith("zoomie_")
        }
        assert not changed


class TestAssertionBreakpoints:
    def test_sva_failure_pauses_design(self):
        fabric, dbg, inst = program_instrumented(
            make_asserting_counter(limit=10), watch=["out"])
        fabric.sim.poke("en", 1)
        dbg.break_on_assertions(True)
        dbg.run(max_cycles=100)
        assert dbg.is_paused()
        # The bound is 10; the assertion fails the cycle count hits 11,
        # and the pause lands one cycle later (the controller registers
        # monitor fail pulses to keep the pause path fast).
        assert dbg.read("count") == 12

    def test_disabled_assertions_do_not_pause(self):
        fabric, dbg, inst = program_instrumented(
            make_asserting_counter(limit=10), watch=["out"])
        fabric.sim.poke("en", 1)
        dbg.run(max_cycles=50)
        assert not dbg.is_paused()

    def test_assertion_breakpoints_compose_with_value_triggers(self):
        fabric, dbg, inst = program_instrumented(
            make_asserting_counter(limit=200), watch=["out"])
        fabric.sim.poke("en", 1)
        dbg.break_on_assertions(True)
        dbg.set_value_breakpoint({"out": 5})
        dbg.run(max_cycles=100)
        assert dbg.is_paused()
        assert dbg.read("count") == 5


class TestWatchpoints:
    """Watchpoints pause when a watched signal *changes* (paper 2.2:
    "users can insert custom breakpoints or watchpoints on the fly")."""

    @pytest.fixture()
    def dbg(self):
        fabric, debugger, _ = program_instrumented(
            make_cohort_soc(with_bug=False),
            watch=["results", "acc"])
        fabric.sim.poke("en", 1)
        return debugger

    def test_watchpoint_pauses_on_change(self, dbg):
        dbg.set_watchpoint("results")
        dbg.run(max_cycles=300)
        assert dbg.is_paused()
        # Paused right after the first result retired.
        assert dbg.read("datapath.results_count") == 1

    def test_watchpoint_on_multiple_signals(self, dbg):
        dbg.set_watchpoint("results", "acc")
        dbg.run(max_cycles=300)
        assert dbg.is_paused()

    def test_resume_clears_watchpoint_by_default(self, dbg):
        dbg.set_watchpoint("results")
        dbg.run(max_cycles=300)
        cycle = dbg.cycles()
        dbg.resume()
        dbg.run(max_cycles=30)
        assert dbg.cycles() > cycle  # no immediate re-pause

    def test_rearmed_watchpoint_fires_again(self, dbg):
        dbg.set_watchpoint("results")
        dbg.run(max_cycles=300)
        first = dbg.read("datapath.results_count")
        dbg.resume()
        dbg.set_watchpoint("results")
        dbg.run(max_cycles=300)
        assert dbg.read("datapath.results_count") == first + 1

    def test_paused_design_does_not_self_trigger(self, dbg):
        dbg.run(10)
        dbg.pause()
        dbg.set_watchpoint("acc")
        # Still paused; the frozen value must not count as a change.
        dbg.write_state({self_reg: 0 for self_reg in []})  # no-op write
        assert dbg.is_paused()

    def test_empty_watch_rejected(self, dbg):
        with pytest.raises(BreakpointError):
            dbg.set_watchpoint()

    def test_cli_watch_command(self, dbg):
        from repro.debug.cli import ZoomieCli
        cli = ZoomieCli(dbg)
        out = cli.execute("watch results")
        assert "watchpoint" in out
        assert "paused" in cli.execute("run")


class TestSampling:
    """Section 7.7: print arbitrary signals over time by stepping —
    no probe selection, no recompilation."""

    @pytest.fixture()
    def dbg(self):
        fabric, debugger, _ = program_instrumented(
            make_cohort_soc(with_bug=False), watch=["issued"])
        fabric.sim.poke("en", 1)
        debugger.run(5)
        debugger.pause()
        return debugger

    def test_samples_track_execution(self, dbg):
        rows = dbg.sample_over(["lsu.issued_count"], cycles=12, stride=3)
        assert len(rows) == 5  # initial + 4 steps
        series = [row["lsu.issued_count"] for row in rows]
        assert series == sorted(series)
        assert series[-1] > series[0]

    def test_arbitrary_registers_without_probes(self, dbg):
        # None of these were in the watch list.
        rows = dbg.sample_over(
            ["mmu.tlb_sel_r", "datapath.acc", "bus.reqs_count"],
            cycles=6, stride=2)
        assert all(
            set(row) >= {"mmu.tlb_sel_r", "datapath.acc",
                         "bus.reqs_count"}
            for row in rows)

    def test_requires_pause(self):
        fabric, debugger, _ = program_instrumented(
            make_cohort_soc(with_bug=False), watch=["issued"])
        fabric.sim.poke("en", 1)
        with pytest.raises(NotPausedError):
            debugger.sample_over(["datapath.acc"], cycles=2)

    def test_stride_larger_than_total(self, dbg):
        rows = dbg.sample_over(["datapath.acc"], cycles=3, stride=10)
        assert len(rows) == 2
