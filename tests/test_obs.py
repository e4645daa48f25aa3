"""Tests for the observability layer: tracer, metrics, facade.

Unit coverage for the primitives plus the integration contracts the
instrumented stack relies on: modeled seconds roll up child-to-parent,
the disabled path allocates nothing, and a traced debug session yields
a Chrome-trace file whose events mirror the command flow.
"""

import json

import pytest

from repro.obs import (
    NOOP_SPAN,
    MetricsRegistry,
    Observability,
    Tracer,
    get_observability,
    get_registry,
    get_tracer,
)


@pytest.fixture(autouse=True)
def clean_tracer():
    """The tracer is process-global; leave it as tests expect it."""
    tracer = get_tracer()
    tracer.stop()
    tracer.clear()
    yield
    tracer.stop()
    tracer.clear()


class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        assert outer.parent_id is None and outer.depth == 0
        assert middle.parent_id == outer.span_id and middle.depth == 1
        assert inner.parent_id == middle.span_id and inner.depth == 2
        # Finish order is inner-first; all three retained.
        assert [s.name for s in tracer.spans] == \
            ["inner", "middle", "outer"]

    def test_two_clock_accounting_rolls_up(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent") as parent:
            with tracer.span("child1") as child:
                child.add_modeled(1.5)
            with tracer.span("child2") as child:
                child.add_modeled(0.5)
            parent.add_modeled(0.25)
        # Modeled clock is inclusive, like wall time.
        assert parent.modeled_seconds == pytest.approx(2.25)
        assert parent.wall_seconds > 0
        for span in tracer.spans:
            assert span.finished

    def test_attrs_and_error_marking(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("boom", phase="x") as span:
                span.set(extra=7)
                raise RuntimeError("no")
        (span,) = tracer.find("boom")
        assert span.attrs["phase"] == "x"
        assert span.attrs["extra"] == 7
        assert span.attrs["error"] == "RuntimeError"

    def test_disabled_path_is_shared_noop(self):
        tracer = Tracer()  # disabled by default
        first = tracer.span("a", k=1)
        second = tracer.span("b")
        assert first is NOOP_SPAN and second is NOOP_SPAN
        # Entering yields None so call sites can guard cheaply.
        with tracer.span("c") as span:
            assert span is None
        assert tracer.spans == [] and tracer.current() is None

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=3, enabled=True)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [s.name for s in tracer.spans] == ["s2", "s3", "s4"]
        assert tracer.dropped == 2
        assert "dropped" in tracer.tree()

    def test_chrome_export_is_valid_trace_json(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", kind="demo"):
            with tracer.span("inner") as inner:
                inner.add_modeled(0.125)
        events = json.loads(tracer.export_chrome_json())
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "ts", "dur", "pid", "tid",
                                  "args"}
            assert event["dur"] >= 0
        by_name = {e["name"]: e for e in events}
        assert by_name["inner"]["args"]["modeled_seconds"] == 0.125
        assert by_name["outer"]["args"]["kind"] == "demo"
        # Inner nests inside outer on the wall timeline.
        assert by_name["outer"]["ts"] <= by_name["inner"]["ts"]

    def test_tree_is_preorder_and_indented(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        lines = tracer.tree().split("\n")
        assert lines[0].startswith("parent")
        assert lines[1].startswith("  child")

    def test_orphaned_spans_render_under_evicted_root(self):
        # Mid-session dump: the enclosing span is still open (so not
        # retained) while its finished children are — they must render
        # under a synthetic <evicted> root, not glue themselves to
        # whatever line precedes them at their recorded depth.
        tracer = Tracer(capacity=3, enabled=True)
        with tracer.span("session"):
            for index in range(5):
                with tracer.span(f"cmd{index}"):
                    pass
            text = tracer.tree()
        lines = text.split("\n")
        assert lines[0].startswith("<evicted>")
        assert "3 orphaned span(s)" in lines[0]
        assert [l.strip().split()[0] for l in lines[1:4]] \
            == ["cmd2", "cmd3", "cmd4"]
        # Once the session span closes, the retained subtree is whole
        # again and the synthetic root disappears.
        assert "<evicted>" not in tracer.tree()


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.dec(3)
        gauge.inc()
        assert gauge.value == 8

    def test_histogram_log_buckets(self):
        hist = MetricsRegistry().histogram(
            "h", scale=1e-6, base=4.0, buckets=16)
        # Bounds are scale * base**i; bisect_right puts a value above
        # bound i into bucket i+1.
        assert hist.bucket_for(0.5e-6) == 0
        assert hist.bucket_for(2e-6) == 1      # between 1e-6 and 4e-6
        assert hist.bucket_for(1e9) == 16      # overflow bucket
        for value in (0.5e-6, 2e-6, 2e-6, 1e9):
            hist.observe(value)
        assert hist.counts[0] == 1
        assert hist.counts[1] == 2
        assert hist.counts[16] == 1
        assert hist.count == 4
        assert hist.min == 0.5e-6 and hist.max == 1e9
        assert hist.mean == pytest.approx(hist.total / 4)

    def test_get_or_create_and_type_conflicts(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")
        snapshot = registry.as_dict()
        assert snapshot["a"]["type"] == "counter"
        json.loads(registry.dump_json())  # valid JSON

    def test_global_registry_is_stable(self):
        assert get_registry() is get_registry()


class TestObservabilityHandle:
    def test_facade_bundles_the_singletons(self):
        obs = get_observability()
        assert obs is get_observability()
        assert obs.tracer is get_tracer()
        assert obs.metrics is get_registry()
        fresh = Observability()
        assert fresh.tracer is obs.tracer

    def test_start_stop_tracing(self):
        obs = get_observability()
        obs.start_tracing(capacity=128)
        assert obs.tracing and obs.tracer.capacity == 128
        obs.stop_tracing()
        assert not obs.tracing

    def test_stats_reflect_registry(self):
        obs = get_observability()
        obs.metrics.counter("test_obs.probe").inc(3)
        assert obs.stats()["test_obs.probe"]["value"] >= 3


class TestInstrumentedSession:
    """End-to-end: the stack under trace, both clocks populated."""

    @pytest.fixture(scope="class")
    def session(self):
        from repro import Zoomie, ZoomieProject
        from repro.designs import make_cohort_soc

        project = ZoomieProject(
            design=make_cohort_soc(with_bug=False), device="TEST2",
            clocks={"clk": 100.0}, watch=["issued"])
        session = Zoomie(project).launch()
        session.poke_input("en", 1)
        return session

    def test_debug_commands_become_spans(self, session):
        tracer = get_tracer()
        tracer.start()
        dbg = session.debugger
        dbg.run(max_cycles=5)
        dbg.pause()
        dbg.read_state()
        dbg.resume()
        tracer.stop()
        names = {span.name for span in tracer.spans}
        assert {"debug.run", "debug.pause", "debug.read_state",
                "debug.resume", "jtag.batch", "sim.run"} <= names
        # Two-clock contract: the pause readback charged modeled JTAG
        # seconds, rolled up from its jtag.batch children.
        (pause,) = tracer.find("debug.pause")
        batches = [s for s in tracer.find("jtag.batch")
                   if s.parent_id == pause.span_id]
        assert batches
        assert pause.modeled_seconds == pytest.approx(
            sum(s.modeled_seconds for s in batches))
        assert pause.modeled_seconds > 0
        (read,) = tracer.find("debug.read_state")
        assert read.attrs["registers"] > 0

    def test_transport_metrics_mirror_ring_stats(self, session):
        registry = get_registry()
        dbg = session.debugger
        before = registry.counter("transport.batches").value
        stats_before = session.fabric.transport.stats.batches
        dbg.pause()
        dbg.read_state()
        dbg.resume()
        delta = session.fabric.transport.stats.batches - stats_before
        assert delta > 0
        assert registry.counter("transport.batches").value \
            == before + delta

    def test_disabled_tracing_records_nothing(self, session):
        tracer = get_tracer()
        dbg = session.debugger
        dbg.pause()
        dbg.step(2)
        dbg.resume()
        assert tracer.spans == []
