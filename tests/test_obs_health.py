"""Health/SLO rules, two-clock profiler, post-mortem bundles.

Unit coverage for histogram quantiles and windowed metric deltas, the
declarative rules and their evaluation (severity, skipping, windows),
the profiler's self-time attribution in both clocks, the post-mortem
bundle round-trip (current and version-1 archives), and the seeded
``doctor`` verdicts.
"""

import pytest

from repro.obs.flight import FlightRecorder
from repro.obs.health import (
    DEFAULT_RULES,
    HealthReport,
    HealthRule,
    MetricsWindow,
    evaluate,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Tracer


# --------------------------------------------------------------------------
# histogram quantiles
# --------------------------------------------------------------------------


class TestHistogramQuantile:
    def test_empty_histogram_has_no_quantile(self):
        assert Histogram("h").quantile(0.5) is None

    def test_p_outside_unit_interval_rejected(self):
        hist = Histogram("h")
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)

    def test_extremes_clamp_to_observed_min_max(self):
        hist = Histogram("h")
        for value in (0.002, 0.04, 0.7):
            hist.observe(value)
        assert hist.quantile(0.0) == pytest.approx(0.002)
        assert hist.quantile(1.0) == pytest.approx(0.7)

    def test_median_lands_in_the_covering_bucket(self):
        hist = Histogram("h")
        for value in (0.01, 0.02, 0.03, 0.8):
            hist.observe(value)
        median = hist.quantile(0.5)
        bucket = hist.bucket_for(median)
        # The p50 estimate must fall in a bucket that actually holds
        # observations around the middle of the distribution.
        assert hist.counts[bucket] > 0
        assert 0.01 <= median <= 0.8

    def test_quantiles_are_monotone_in_p(self):
        hist = Histogram("h")
        for index in range(50):
            hist.observe(0.001 * (index + 1))
        values = [hist.quantile(p) for p in (0.1, 0.5, 0.9, 0.99)]
        assert values == sorted(values)

    def test_as_dict_carries_p50_p99(self):
        hist = Histogram("h")
        hist.observe(0.25)
        snapshot = hist.as_dict()
        assert snapshot["p50"] == pytest.approx(0.25)
        assert snapshot["p99"] == pytest.approx(0.25)


# --------------------------------------------------------------------------
# windowed deltas
# --------------------------------------------------------------------------


class TestMetricsWindow:
    def test_counters_read_as_deltas_since_rebase(self):
        registry = MetricsRegistry()
        registry.counter("x").inc(10)
        window = MetricsWindow(registry, rebase=True)
        assert window.counter("x") == 0
        registry.counter("x").inc(3)
        assert window.counter("x") == 3

    def test_missing_instruments_read_zero_or_none(self):
        window = MetricsWindow(MetricsRegistry(), rebase=True)
        assert window.counter("absent") == 0
        assert window.histogram("absent") is None

    def test_report_bytes_do_not_depend_on_which_counters_exist(self):
        """A counter nothing created and one created but never bumped
        read the same, so a report is the same bytes whichever
        instruments earlier work in the process happened to create."""
        import json
        touched = MetricsRegistry()
        for name in ("flight.dumps.journal.corrupt",
                     "transport.exhausted", "supervise.deadline_hits"):
            touched.counter(name)
        reports = [json.dumps(evaluate(MetricsWindow(registry)).as_dict())
                   for registry in (MetricsRegistry(), touched)]
        assert reports[0] == reports[1]

    def test_histogram_delta_sees_only_new_samples(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        hist.observe(0.001)
        window = MetricsWindow(registry, rebase=True)
        assert window.histogram("h") is None  # nothing new yet
        hist.observe(0.5)
        delta = window.histogram("h")
        assert delta.count == 1
        assert delta.total == pytest.approx(0.5)
        assert delta.quantile(0.5) == pytest.approx(0.5, rel=0.5)


# --------------------------------------------------------------------------
# rules, reports, evaluation
# --------------------------------------------------------------------------


def _rule(name="r", kind="max", threshold=1.0, probe=None,
          severity="fail"):
    return HealthRule(name, "test rule", kind, threshold,
                      probe or (lambda window: window.counter("x")),
                      severity=severity)


class TestHealthRules:
    def test_bad_kind_and_severity_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            _rule(kind="exact")
        with pytest.raises(ValueError, match="severity"):
            _rule(severity="meh")

    def test_max_rule_violates_above_threshold(self):
        registry = MetricsRegistry()
        window = MetricsWindow(registry, rebase=True)
        rule = _rule(kind="max", threshold=2.0)
        assert rule.check(window).status == "ok"
        registry.counter("x").inc(3)
        assert rule.check(window).status == "violated"

    def test_min_rule_violates_below_threshold(self):
        registry = MetricsRegistry()
        registry.counter("x").inc(1)
        window = MetricsWindow(registry)
        assert _rule(kind="min", threshold=2.0).check(window) \
            .status == "violated"

    def test_probe_returning_none_skips(self):
        rule = _rule(probe=lambda window: None)
        result = rule.check(MetricsWindow(MetricsRegistry()))
        assert result.status == "skipped" and result.value is None

    def test_warn_severity_keeps_exit_clean(self):
        registry = MetricsRegistry()
        registry.counter("x").inc(5)
        window = MetricsWindow(registry)
        report = HealthReport(results=[
            _rule(name="w", severity="warn").check(window)])
        assert report.status == "warn"
        assert report.warnings == ["w"] and not report.failed
        assert report.exit_code == 0

    def test_fail_severity_degrades_and_exits_nonzero(self):
        registry = MetricsRegistry()
        registry.counter("x").inc(5)
        window = MetricsWindow(registry)
        report = HealthReport(results=[_rule(name="f").check(window)])
        assert report.status == "degraded"
        assert report.failed == ["f"]
        assert report.exit_code == 1
        assert "BAD" in report.describe()


class TestHealthEngine:
    """:func:`evaluate`: the default rules over one registry window."""

    def test_engine_is_registry_scoped(self):
        mine = MetricsRegistry()
        other = MetricsRegistry()
        other.counter("transport.exhausted").inc(9)
        report = evaluate(MetricsWindow(mine))
        assert report.status == "healthy"

    def test_default_rules_catch_retry_storm(self):
        registry = MetricsRegistry()
        registry.counter("transport.batches").inc(100)
        registry.counter("transport.retries").inc(40)
        report = evaluate(MetricsWindow(registry))
        assert "transport.retry_rate" in report.failed
        by_name = {r.rule.name: r for r in report.results}
        assert by_name["transport.retry_rate"].value \
            == pytest.approx(0.4)

    def test_ratio_rules_skip_under_min_samples(self):
        registry = MetricsRegistry()
        registry.counter("transport.batches").inc(3)  # < 10 floor
        registry.counter("transport.retries").inc(3)
        report = evaluate(MetricsWindow(registry))
        by_name = {r.rule.name: r for r in report.results}
        assert by_name["transport.retry_rate"].status == "skipped"

    def test_windowed_evaluation_forgives_history(self):
        registry = MetricsRegistry()
        registry.counter("transport.exhausted").inc(2)  # bad past
        assert evaluate(MetricsWindow(registry)).status == "degraded"
        window = MetricsWindow(registry, rebase=True)
        assert evaluate(window).status == "healthy"

    def test_degraded_report_lands_in_flight_ring(self):
        from repro.obs.flight import get_flight_recorder
        flight = get_flight_recorder()
        flight.clear()
        registry = MetricsRegistry()
        registry.counter("transport.exhausted").inc()
        evaluate(MetricsWindow(registry))
        names = [(r["kind"], r["name"]) for r in flight.events]
        assert ("supervise", "health_degraded") in names
        flight.clear()

    def test_persisting_degradation_notes_once(self):
        from repro.obs.flight import get_flight_recorder
        flight = get_flight_recorder()
        flight.clear()
        flight.note("chaos", "device_hang", site="fabric.run")
        registry = MetricsRegistry()
        registry.counter("transport.exhausted").inc()
        for _ in range(300):
            evaluate(MetricsWindow(registry))
        names = [(r["kind"], r["name"]) for r in flight.events]
        assert names == [("chaos", "device_hang"),
                         ("supervise", "health_degraded")]
        registry.counter("flight.dumps.journal.corrupt").inc()
        evaluate(MetricsWindow(registry))
        evaluate(MetricsWindow(registry))
        # A changed failed set notes again, once.
        rules = [r["rules"] for r in flight.events
                 if r["name"] == "health_degraded"]
        assert rules == ["transport.exhausted",
                         "transport.exhausted,journal.corrupt_dumps"]
        flight.clear()

    def test_default_rule_names_are_unique(self):
        names = [rule.name for rule in DEFAULT_RULES]
        assert len(names) == len(set(names))


# --------------------------------------------------------------------------
# two-clock profiler
# --------------------------------------------------------------------------


class TestProfiler:
    def make_trace(self):
        tracer = Tracer(enabled=True)
        with tracer.span("debug.read_state"):
            with tracer.span("jtag.batch") as batch:
                batch.add_modeled(2.0)
            with tracer.span("jtag.batch") as batch:
                batch.add_modeled(1.0)
        with tracer.span("sim.run") as run:
            run.add_modeled(0.5)
        return tracer

    def test_modeled_self_time_subtracts_children(self):
        from repro.obs.profile import ProfileReport
        report = ProfileReport.from_tracer(self.make_trace())
        commands = {row.name: row for row in report.rows("commands")}
        kernels = {row.name: row for row in report.rows("kernels")}
        read = commands["debug.read_state"]
        # Inclusive: children rolled up; self: everything was charged
        # by the two jtag batches.
        assert read.modeled_seconds == pytest.approx(3.0)
        assert read.modeled_self_seconds == pytest.approx(0.0)
        batch = kernels["jtag.batch"]
        assert batch.count == 2
        assert batch.modeled_self_seconds == pytest.approx(3.0)
        assert kernels["sim.run"].modeled_seconds == pytest.approx(0.5)

    def test_collapsed_stacks_fold_paths(self):
        from repro.obs.profile import ProfileReport
        report = ProfileReport.from_tracer(self.make_trace())
        folded = report.collapsed("modeled")
        lines = dict(line.rsplit(" ", 1) for line in folded.split("\n"))
        assert lines["debug.read_state;jtag.batch"] == "3000000"
        assert lines["sim.run"] == "500000"
        with pytest.raises(ValueError, match="unknown clock"):
            report.collapsed("cpu")

    def test_evicted_parents_fold_under_synthetic_root(self):
        from repro.obs.profile import ProfileReport
        tracer = Tracer(capacity=2, enabled=True)
        with tracer.span("debug.run"):
            with tracer.span("sim.run"):
                pass
            with tracer.span("sim.run"):
                pass
            report = ProfileReport.from_tracer(tracer)  # parent open
        assert "<evicted>;sim.run" in report.collapsed("wall")

    def test_empty_profile_reports_no_spans(self):
        from repro.obs.profile import ProfileReport
        report = ProfileReport.from_tracer(Tracer())
        assert report.span_count == 0
        assert "no spans" in report.describe()


# --------------------------------------------------------------------------
# bundles
# --------------------------------------------------------------------------


class TestBundleRoundTrip:
    def test_bundle_round_trips_with_trigger_and_health(self, tmp_path):
        from repro.obs.bundle import (
            BUNDLE_FORMAT,
            BUNDLE_VERSION,
            load_bundle,
            write_bundle,
        )
        registry = MetricsRegistry()
        registry.counter("transport.batches").inc(12)
        flight = FlightRecorder(registry=registry)
        flight.note("command", "run")
        flight.trigger("debug.timeout", site="jtag.batch")
        journal = tmp_path / "j.log"
        journal.write_text("zoomie-journal-v1\nline-a\nline-b\n")

        path = write_bundle(tmp_path / "post.zip", registry=registry,
                            flight=flight, journal_path=journal)
        bundle = load_bundle(path)

        assert bundle.manifest["format"] == BUNDLE_FORMAT
        assert bundle.manifest["version"] == BUNDLE_VERSION
        # The triggering event is in the manifest AND is the final
        # record of the archived flight dump.
        assert bundle.manifest["trigger"]["name"] == "debug.timeout"
        dump = bundle.section("flight.json")
        assert dump["records"][-1]["name"] == "debug.timeout"
        assert dump["records"][-1] == dump["trigger"]
        # Health report and metrics snapshot round-trip too.
        health = bundle.section("health.json")
        assert health["status"] in ("healthy", "warn", "degraded")
        assert any(rule["name"] == "transport.retry_rate"
                   for rule in health["rules"])
        metrics = bundle.section("metrics.json")
        assert metrics["transport.batches"]["value"] == 12
        assert bundle.section("journal_tail.txt").splitlines()[-1] \
            == "line-b"
        assert sorted(bundle.manifest["sections"]) == sorted(
            bundle.sections) == ["flight.json", "health.json",
                                 "journal_tail.txt", "metrics.json",
                                 "trace.json"]

    def test_wrong_format_and_newer_version_rejected(self, tmp_path):
        import json
        import zipfile

        from repro.obs.bundle import load_bundle
        bad = tmp_path / "bad.zip"
        with zipfile.ZipFile(bad, "w") as archive:
            archive.writestr("manifest.json",
                             json.dumps({"format": "tarball"}))
        with pytest.raises(ValueError, match="not a"):
            load_bundle(bad)
        future = tmp_path / "future.zip"
        with zipfile.ZipFile(future, "w") as archive:
            archive.writestr("manifest.json", json.dumps(
                {"format": "zoomie-obs-bundle", "version": 99}))
        with pytest.raises(ValueError, match="newer"):
            load_bundle(future)

    def test_version_1_bundle_still_loads(self, tmp_path):
        import json
        import zipfile

        from repro.obs.bundle import BUNDLE_VERSION, load_bundle
        assert BUNDLE_VERSION == 2
        old = tmp_path / "v1.zip"
        manifest = {"format": "zoomie-obs-bundle", "version": 1,
                    "trigger": None,
                    "sections": ["flight.json", "metrics.json",
                                 "prometheus.txt"]}
        with zipfile.ZipFile(old, "w") as archive:
            archive.writestr("manifest.json", json.dumps(manifest))
            archive.writestr("flight.json", json.dumps(
                {"format": "zoomie-flight", "version": 1,
                 "log_tail": [], "metric_deltas": {}}))
            archive.writestr("metrics.json", json.dumps({}))
            archive.writestr("prometheus.txt",
                             "zoomie_transport_batches_total 3\n")
        bundle = load_bundle(old)
        assert bundle.manifest["version"] == 1
        assert bundle.section("flight.json")["version"] == 1
        assert bundle.section("prometheus.txt") \
            == "zoomie_transport_batches_total 3\n"


# --------------------------------------------------------------------------
# doctor
# --------------------------------------------------------------------------


class TestDoctor:
    def test_clean_workload_is_healthy(self):
        from repro.obs.doctor import run_doctor
        result = run_doctor(seed=2024)
        assert result.exit_code == 0, result.describe()
        assert result.report.status in ("healthy", "warn")
        assert result.workload["commands"] > 0
        assert result.workload["faults_injected"] == 0
        assert "doctor: pipeline workload" in result.describe()

    def test_chaos_schedule_degrades_and_names_the_rule(self):
        from repro.obs.doctor import run_doctor
        result = run_doctor(seed=2024, chaos_seed=7)
        assert result.exit_code == 1
        assert result.report.status == "degraded"
        assert "transport.retry_rate" in result.report.failed
        # The hang *and* every channel flip are recorded injections.
        assert result.workload["faults_injected"] > 1
        payload = result.as_dict()
        assert payload["status"] == "degraded"
        assert payload["workload"]["chaos_seed"] == 7
