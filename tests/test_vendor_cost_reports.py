"""Tests for the cost model, reports, and flow plumbing."""

import pytest
from hypothesis import given, strategies as st

from repro.designs import make_beehive_stack, make_counter
from repro.fpga import make_test_device, make_u200
from repro.vendor import VivadoFlow
from repro.vendor import cost
from repro.vendor.reports import (
    format_compile_summary,
    format_timing_summary,
    format_utilization_table,
)
from repro.vendor.resources import ResourceVector


class TestCostModel:
    def test_jitter_is_deterministic_and_bounded(self):
        a = cost.jitter("seed", "stage", 3)
        b = cost.jitter("seed", "stage", 3)
        assert a == b
        assert 1 - cost.JITTER <= a <= 1 + cost.JITTER

    def test_jitter_varies_with_context(self):
        values = {cost.jitter("seed", "stage", run) for run in range(20)}
        assert len(values) > 10

    def test_stage_costs_scale_with_work(self):
        small = cost.synth_seconds(10_000)
        large = cost.synth_seconds(1_000_000)
        assert large > small * 20

    def test_congestion_inflates_place_and_route(self):
        relaxed = cost.place_seconds(10**6, congestion=0.3, seed="x")
        packed = cost.place_seconds(10**6, congestion=0.95, seed="x")
        assert packed > relaxed
        route_relaxed = cost.route_seconds(10**6, congestion=0.3, seed="x")
        route_packed = cost.route_seconds(10**6, congestion=0.95, seed="x")
        assert route_packed > route_relaxed

    def test_full_breakdown_sums(self):
        breakdown = cost.estimate_full_compile_seconds(
            work_luts=10**6, cells=2 * 10**6, nets=10**6,
            congestion=0.9, frames=20_000, seed="t")
        stage_sum = sum(v for k, v in breakdown.items() if k != "total")
        assert abs(stage_sum - breakdown["total"]) < 1e-6

    def test_format_duration_ranges(self):
        assert cost.format_duration(45) == "45 s"
        assert "min" in cost.format_duration(600)
        assert "h" in cost.format_duration(7200)

    @given(st.integers(10 ** 3, 10 ** 7))
    def test_vendor_incremental_always_saves_a_little(self, full):
        incremental = cost.vendor_incremental_seconds(float(full), "s")
        if full > 10_000:  # the fixed analysis cost amortizes
            assert incremental < full
        assert incremental > 0.5 * full


class TestReports:
    @pytest.fixture(scope="class")
    def result(self):
        return VivadoFlow(make_u200()).compile(
            make_beehive_stack(), clocks={"clk": 250.0})

    def test_utilization_table_mentions_all_kinds(self, result):
        text = format_utilization_table(result)
        for kind in ("LUT", "LUTRAM", "FF", "BRAM"):
            assert kind in text

    def test_timing_summary_shows_status_and_paths(self, result):
        text = format_timing_summary(result)
        assert "MET" in text
        assert "ns" in text

    def test_compile_summary_lists_stages(self, result):
        text = format_compile_summary(result)
        for stage in ("synth", "place", "route", "bitgen"):
            assert stage in text


class TestResourceVector:
    def test_add_and_scale(self):
        a = ResourceVector(lut=10, ff=20, lutram=1, bram=2)
        b = ResourceVector(lut=5, ff=5)
        total = a + b
        assert (total.lut, total.ff) == (15, 25)
        scaled = a.scaled(1.3)
        assert scaled.lut == 13
        assert scaled.bram == 3  # ceil

    def test_times(self):
        assert ResourceVector(lut=2).times(100).lut == 200

    def test_fits_and_ratio(self):
        vector = ResourceVector(lut=50, ff=100)
        assert vector.fits_in({"LUT": 50, "FF": 100, "LUTRAM": 0,
                               "BRAM": 0})
        assert not vector.fits_in({"LUT": 49, "FF": 100, "LUTRAM": 0,
                                   "BRAM": 0})
        ratio = vector.max_ratio({"LUT": 100, "FF": 400, "LUTRAM": 10,
                                  "BRAM": 10})
        assert ratio == 0.5


class TestFlowPlumbing:
    def test_run_index_increments(self):
        flow = VivadoFlow(make_test_device())
        first = flow.compile(make_counter(8), clocks={"clk": 100.0})
        second = flow.compile(make_counter(8), clocks={"clk": 100.0})
        assert second.run_index == first.run_index + 1
        # Jitter differs between runs, so times differ slightly.
        assert first.total_seconds != second.total_seconds

    def test_same_seed_reproduces_times(self):
        a = VivadoFlow(make_test_device(), seed="fixed").compile(
            make_counter(8), clocks={"clk": 100.0})
        b = VivadoFlow(make_test_device(), seed="fixed").compile(
            make_counter(8), clocks={"clk": 100.0})
        assert a.total_seconds == b.total_seconds
