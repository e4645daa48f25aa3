"""Streaming (in-kernel) capture: equivalence, bounds, and triggers.

The contract under test: observing a design through ``StreamingTrace``
or ``BatchTrace`` records exactly what the hook-based ``Trace`` would
have recorded — while leaving the simulated state bit-identical to an
untraced run, on every engine and on the general (hooked/gated/skewed)
event path as well as the fused kernel path.
"""

import pytest

from repro.designs import make_cohort_soc, make_counter
from repro.errors import SimulationError
from repro.obs import get_flight_recorder, get_registry, get_tracer
from repro.rtl import (
    ENGINE_INTERPRETED,
    BatchSimulator,
    BatchTrace,
    Simulator,
    StreamingTrace,
    Trace,
    elaborate,
)

PROBES = ["issued", "completed", "acc", "results"]


def cohort():
    return elaborate(make_cohort_soc(with_bug=False))


def counter_sim(**kwargs):
    sim = Simulator(elaborate(make_counter(8)), **kwargs)
    sim.poke("en", 1)
    return sim


class TestStreamingEquivalence:
    def test_rows_match_hook_trace_on_cohort_soc(self):
        net = cohort()
        hooked = Simulator(net)
        hooked.poke("en", 1)
        baseline = Trace(hooked, PROBES).attach()
        hooked.step(60)
        baseline.detach()

        streamed_sim = Simulator(net)
        streamed_sim.poke("en", 1)
        streamed = StreamingTrace(streamed_sim, PROBES, depth=None)
        streamed.run(60)
        streamed.stop()

        assert list(streamed.iter_rows()) == list(baseline.iter_rows())

    def test_traced_state_equals_untraced_state(self):
        """Differential check: capture must not disturb the design."""
        net = cohort()
        plain = Simulator(net)
        plain.poke("en", 1)
        traced = Simulator(net)
        traced.poke("en", 1)
        trace = StreamingTrace(traced, PROBES, depth=64)
        plain.step(40)
        trace.run(40)
        # Chunked continuation resumes mid-stream without perturbation.
        plain.step(35)
        trace.run(35)
        trace.stop()
        assert traced.snapshot() == plain.snapshot()

    @pytest.mark.parametrize("engine", [ENGINE_INTERPRETED])
    def test_non_fused_engines_capture_identically(self, engine):
        fused = counter_sim()
        reference = StreamingTrace(fused, ["count", "out"], depth=None)
        reference.run(12)
        reference.stop()

        other = counter_sim(engine=engine)
        trace = StreamingTrace(other, ["count", "out"], depth=None)
        trace.run(12)
        trace.stop()
        assert list(trace.iter_rows()) == list(reference.iter_rows())

    def test_capture_with_hooks_present_matches_fused(self):
        """An unrelated hook forces the per-event path; samples must not
        change."""
        fused = counter_sim()
        reference = StreamingTrace(fused, ["count"], depth=None)
        reference.run(10)
        reference.stop()

        hooked = counter_sim()
        seen = []
        hooked.edge_hooks.append(lambda sim, ticked: seen.append(1))
        trace = StreamingTrace(hooked, ["count"], depth=None)
        trace.run(10)
        trace.stop()
        assert list(trace.iter_rows()) == list(reference.iter_rows())
        assert len(seen) == 10  # the other hook still observed every edge

    def test_gated_domain_records_nothing(self):
        sim = counter_sim()
        trace = StreamingTrace(sim, ["count"], depth=None)
        trace.run(3)
        sim.set_clock_gate("clk", True)
        trace.run(5)
        sim.set_clock_gate("clk", False)
        trace.run(2)
        trace.stop()
        # 3 + 2 committed cycles; the gated stretch contributes nothing.
        assert trace.cycles_recorded() == [0, 1, 2, 3, 4, 5]

    def test_per_domain_step_capture(self):
        sim = counter_sim()
        trace = StreamingTrace(sim, ["count"], depth=None)
        trace.run(4, domain="clk")
        trace.stop()
        assert trace.series("count") == [0, 1, 2, 3, 4]

    def test_wrong_domain_step_rejected(self):
        sim = Simulator(elaborate(make_counter(8)),
                        clocks={"clk": 1000, "aux": 1000})
        trace = StreamingTrace(sim, ["count"], domain="clk")
        with pytest.raises(SimulationError):
            trace.run(1, domain="aux")


class TestRingAndStride:
    def test_ring_bound_and_lifetime_count(self):
        sim = counter_sim()
        trace = StreamingTrace(sim, ["count"], depth=16)
        trace.run(100)
        trace.stop()
        assert len(trace) == 16
        assert trace.samples_seen == 101
        assert trace.cycles_recorded() == list(range(85, 101))

    def test_stride_subsamples(self):
        sim = counter_sim()
        trace = StreamingTrace(sim, ["count"], depth=None, stride=4)
        trace.run(16)
        trace.stop()
        assert trace.cycles_recorded() == [0, 4, 8, 12, 16]
        assert trace.series("count") == [0, 4, 8, 12, 16]

    def test_stride_phase_survives_chunking(self):
        sim = counter_sim()
        trace = StreamingTrace(sim, ["count"], depth=None, stride=3)
        for chunk in (1, 2, 4, 5, 3):  # 15 cycles in ragged chunks
            trace.run(chunk)
        trace.stop()
        assert trace.cycles_recorded() == [0, 3, 6, 9, 12, 15]

    def test_validation(self):
        sim = counter_sim()
        with pytest.raises(SimulationError):
            StreamingTrace(sim, ["nope"])
        with pytest.raises(SimulationError):
            StreamingTrace(sim, ["count"], depth=0)
        with pytest.raises(SimulationError):
            StreamingTrace(sim, ["count"], stride=0)
        with pytest.raises(SimulationError):
            StreamingTrace(sim, ["count"], domain="nope")
        trace = StreamingTrace(sim, ["count"])
        trace.stop()
        with pytest.raises(SimulationError):
            trace.run(1)
        with pytest.raises(SimulationError):
            trace.series("out")


class TestTriggerWindows:
    @pytest.mark.parametrize("position", [0, 1, 7])
    def test_trigger_position_matrix(self, position):
        depth = 8
        sim = counter_sim()
        trace = StreamingTrace(sim, ["count"], depth=depth)
        assert trace.capture_window({"count": 40}, position=position,
                                    chunk=16)
        assert trace.triggered_at == 40
        assert trace.value_at(trace.triggered_at, "count") == 40
        start = 40 - position
        assert trace.series("count") == list(range(start, start + depth))

    def test_trigger_never_fires(self):
        sim = counter_sim()
        trace = StreamingTrace(sim, ["count"], depth=8)
        assert not trace.capture_window({"count": 7}, max_cycles=4)
        assert trace.triggered_at is None

    def test_multi_signal_trigger(self):
        net = cohort()
        sim = Simulator(net)
        sim.poke("en", 1)
        trace = StreamingTrace(sim, PROBES, depth=32)
        assert trace.capture_window(
            {"issued": 5, "completed": 4}, position=4, max_cycles=10_000)
        at = trace.triggered_at
        assert trace.value_at(at, "issued") == 5
        assert trace.value_at(at, "completed") == 4

    def test_window_requires_bounded_ring(self):
        sim = counter_sim()
        trace = StreamingTrace(sim, ["count"], depth=None)
        with pytest.raises(SimulationError):
            trace.capture_window({"count": 3})
        bounded = StreamingTrace(counter_sim(), ["count"], depth=8)
        with pytest.raises(SimulationError):
            bounded.capture_window({"out": 3})  # uncaptured signal
        with pytest.raises(SimulationError):
            bounded.capture_window({"count": 3}, position=8)


class TestBatchTrace:
    def test_lanes_match_scalar_twins(self):
        net = cohort()
        batch = BatchSimulator(net, 4)
        batch.poke("en", 1)
        batch.poke("en", 0, lane=2)  # one diverging lane
        trace = BatchTrace(batch, PROBES, depth=None)
        trace.run(30)
        trace.stop()

        for lane, en in ((0, 1), (2, 0)):
            scalar = Simulator(net)
            scalar.poke("en", en)
            twin = StreamingTrace(scalar, PROBES, depth=None)
            twin.run(30)
            twin.stop()
            view = trace.lane_view(lane)
            assert list(view.iter_rows()) == list(twin.iter_rows())
            for probe in PROBES:
                assert trace.series(probe, lane) == twin.series(probe)
                for cycle in (0, 3, 30):
                    assert view.value_at(cycle, probe) == \
                        twin.value_at(cycle, probe)
            if lane == 0:
                # The lane-less queries read lane 0, decoded — never
                # the packed K-lane integers the ring holds.
                assert list(trace.iter_rows()) == list(twin.iter_rows())
                assert trace.cycles_recorded() == twin.cycles_recorded()
                assert len(trace) == len(twin) == 31
                for probe in PROBES:
                    assert trace.series(probe) == twin.series(probe)
                    for cycle in (0, 3, 30):
                        assert trace.value_at(cycle, probe) == \
                            twin.value_at(cycle, probe)
        with pytest.raises(SimulationError):
            trace.value_at(31, "issued")
        with pytest.raises(SimulationError):
            trace.capture_window({"issued": 5})

    def test_ring_and_validation(self):
        batch = BatchSimulator(elaborate(make_counter(8)), 3)
        batch.poke("en", 1)
        trace = BatchTrace(batch, ["count"], depth=8)
        trace.run(50)
        trace.stop()
        assert len(trace) == 8
        assert trace.series("count", 2) == list(range(43, 51))
        with pytest.raises(SimulationError):
            trace.series("count", 3)
        with pytest.raises(SimulationError):
            trace.lane_view(-1)


class TestObservabilityCounters:
    def test_sample_counter_and_ring_gauge(self):
        registry = get_registry()
        counter = registry.counter("sim.trace.samples")
        gauge = registry.gauge("sim.trace.ring_occupancy")
        before = counter.value
        sim = counter_sim()
        trace = StreamingTrace(sim, ["count"], depth=8)
        trace.run(20)
        trace.stop()
        assert counter.value - before == 21
        assert gauge.value == 8

    def test_captured_run_records_the_same_span_and_flight_note_as_step(
            self):
        """A streamed run is a simulator run like ``step``: one
        ``sim.run`` span whose modeled clock is cycles x period, and
        one ``sim``/``run`` flight note — so a traced ``trace_capture``
        charges the cycles it simulated."""
        tracer = get_tracer()
        flight = get_flight_recorder()
        was_tracing, was_recording = tracer.enabled, flight.enabled
        recorded = {}
        try:
            tracer.start()
            flight.enabled = True
            for mode in ("step", "captured"):
                sim = Simulator(elaborate(make_counter(8)),
                                clocks={"clk": 10_000})
                sim.poke("en", 1)
                tracer.clear()
                flight.clear()
                if mode == "step":
                    sim.step(10)
                else:
                    StreamingTrace(sim, ["count"]).run(10)
                spans = tracer.find("sim.run")
                notes = [(r["kind"], r["name"], r["cycles"])
                         for r in flight.records if r["kind"] == "sim"]
                recorded[mode] = (
                    [(span.attrs["cycles"], span.modeled_seconds)
                     for span in spans], notes)
        finally:
            tracer.enabled, flight.enabled = was_tracing, was_recording
            tracer.clear()
            flight.clear()
        assert recorded["step"] == ([(10, pytest.approx(1e-7))],
                                    [("sim", "run", 10)])
        assert recorded["captured"] == recorded["step"]
