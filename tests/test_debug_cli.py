"""Tests for the gdb-like command interpreter."""

import json

import pytest

from repro import Zoomie, ZoomieProject
from repro.chaos import FaultSchedule, FaultSpec, install_chaos
from repro.debug import enable_crash_safety
from repro.debug.cli import ZoomieCli
from repro.designs import make_cohort_soc
from repro.errors import SessionCrashedError


def make_cli():
    project = ZoomieProject(
        design=make_cohort_soc(with_bug=False), device="TEST2",
        clocks={"clk": 100.0}, watch=["issued", "completed"])
    session = Zoomie(project).launch()
    session.poke_input("en", 1)
    return ZoomieCli(session.debugger)


@pytest.fixture()
def cli():
    return make_cli()


class TestBasicCommands:
    def test_help_lists_commands(self, cli):
        text = cli.execute("help")
        assert "break" in text and "snapshot" in text

    def test_unknown_command(self, cli):
        assert "unknown command" in cli.execute("frobnicate")

    def test_empty_line_is_noop(self, cli):
        assert cli.execute("   ") == ""

    def test_break_run_print_flow(self, cli):
        out = cli.execute("break issued=3")
        assert "issued==0x3" in out
        out = cli.execute("run")
        assert "paused" in out
        out = cli.execute("print lsu.issued_count")
        assert "= 0x3" in out

    def test_or_breakpoint_syntax(self, cli):
        out = cli.execute("break issued=200 completed=1 or")
        assert "OR" in out
        assert "paused" in cli.execute("run")

    def test_malformed_break_reports_error(self, cli):
        assert "error" in cli.execute("break issued")
        assert "error" in cli.execute("break")

    def test_step_and_continue(self, cli):
        cli.execute("run 5")
        cli.execute("pause")
        out = cli.execute("step 4")
        assert "stepped 4" in out
        assert "running" in cli.execute("continue")

    def test_set_and_print_hex(self, cli):
        cli.execute("run 5")
        cli.execute("pause")
        assert "<- 0xab" in cli.execute("set datapath.acc 0xAB")
        assert "= 0xab" in cli.execute("print datapath.acc")

    def test_state_filters_zoomie_internals(self, cli):
        cli.execute("pause")
        text = cli.execute("state")
        assert "lsu.issued_count" in text
        assert "zoomie_" not in text

    def test_errors_surface_not_raise(self, cli):
        # Not paused: state access is a user error, not a crash.
        out = cli.execute("state")
        assert out.startswith("error:")

    def test_watchlist_and_info(self, cli):
        text = cli.execute("watchlist")
        assert "issued" in text and "completed" in text
        info = cli.execute("info")
        assert "session JTAG time" in info


class TestSnapshotCommands:
    def test_snapshot_restore_diff(self, cli):
        cli.execute("run 10")
        cli.execute("pause")
        assert "snapshot 'a'" in cli.execute("snapshot a")
        cli.execute("step 6")
        diff = cli.execute("diff a")
        assert "->" in diff  # something changed
        cli.execute("restore a")
        # After restore, the design-level diff is empty.
        diff_after = cli.execute("diff a")
        assert diff_after == "(no differences)"

    def test_restore_unknown_label(self, cli):
        assert "error" in cli.execute("restore nope")


class TestJournalCommands:
    def test_journal_without_crash_safety(self, cli):
        out = cli.execute("journal")
        assert out.startswith("error:")
        assert "enable_crash_safety" in out

    def test_journal_lists_recent_records(self, cli, tmp_path):
        enable_crash_safety(cli.debugger, tmp_path)
        cli.debugger.record_input("en", 1)
        cli.execute("run 10")
        cli.execute("pause")
        out = cli.execute("journal")
        assert "#0 poke_input" in out
        assert "#2 pause" in out
        assert "(3 record(s), 3 durable)" in out

    def test_journal_tail_count(self, cli, tmp_path):
        enable_crash_safety(cli.debugger, tmp_path)
        cli.execute("run 5")
        cli.execute("pause")
        cli.execute("step 2")
        out = cli.execute("journal 1")
        assert "#2 step" in out
        assert "#0" not in out

    def test_negative_run_bound_is_an_error_not_a_record(self, cli,
                                                         tmp_path):
        enable_crash_safety(cli.debugger, tmp_path)
        assert cli.execute("run -5") == \
            "error: run bound must not be negative"
        assert cli.execute("journal") == "journal is empty"
        assert cli.execute("run 0").startswith("ran 0 cycles")

    def test_journal_usage_errors(self, cli, tmp_path):
        enable_crash_safety(cli.debugger, tmp_path)
        assert "error" in cli.execute("journal 0")
        assert "error" in cli.execute("journal 1 2")
        assert cli.execute("journal") == "journal is empty"


class TestRecoverCommand:
    def test_recover_usage_error(self, cli):
        assert "usage: recover DIR" in cli.execute("recover")

    def test_recover_missing_journal(self, cli, tmp_path):
        out = cli.execute(f"recover {tmp_path}")
        assert out.startswith("error:")
        assert "no journal" in out

    def test_recover_rebuilds_crashed_session(self, tmp_path):
        crashed = make_cli()
        enable_crash_safety(crashed.debugger, tmp_path)
        crashed.debugger.record_input("en", 1)
        crashed.debugger.run(12)
        crashed.debugger.pause()
        crashed.debugger.snapshot("mid")
        # Commands 0-3 are journaled; the next one (#4) dies.
        kill = FaultSpec(site="debug.command", kind="crash_before", at=0)
        with install_chaos(FaultSchedule(specs=[kill]).registry()), \
                pytest.raises(SessionCrashedError):
            crashed.debugger.step(3)

        fresh = make_cli()
        out = fresh.execute(f"recover {tmp_path}")
        assert "recovered from" in out
        assert "replayed:" in out
        # The journal is reattached: the session keeps journaling.
        follow_up = fresh.execute("journal")
        assert "#4 step" in follow_up


class TestRepl:
    def test_scripted_repl(self, cli):
        inputs = iter(["break issued=2", "run", "print lsu.issued_count",
                       "quit"])
        outputs = []
        cli.repl(input_fn=lambda _: next(inputs),
                 print_fn=outputs.append)
        joined = "\n".join(outputs)
        assert "breakpoint set" in joined
        assert "= 0x2" in joined

    def test_repl_eof_exits(self, cli):
        def raise_eof(_):
            raise EOFError
        cli.repl(input_fn=raise_eof, print_fn=lambda *_: None)

    def test_run_script(self, cli):
        outputs = cli.run_script(["break issued=1", "run"])
        assert len(outputs) == 2


class TestStatsAndTrace:
    def test_stats_lists_ring_and_registry(self, cli):
        cli.execute("run 5")
        out = cli.execute("stats")
        assert "transport (this session's JTAG ring):" in out
        assert "batches =" in out
        assert "sim plan cache:" in out
        assert "hits =" in out
        assert "process metrics:" in out
        assert "debug.commands:" in out

    def test_stats_json_schema(self, cli):
        cli.execute("run 5")
        import json
        data = json.loads(cli.execute("stats --json"))
        assert set(data) == {"transport", "metrics", "sim_plan_cache"}
        assert data["transport"] == \
            cli.debugger.fabric.transport.stats.as_dict()
        assert data["metrics"]["debug.commands"]["type"] == "counter"
        assert set(data["sim_plan_cache"]) == {"hits", "misses",
                                               "evictions", "size"}

    def test_stats_rejects_unknown_flags(self, cli):
        assert cli.execute("stats --wat").startswith("error:")

    def test_trace_lifecycle(self, cli, tmp_path):
        from repro.obs import get_tracer
        tracer = get_tracer()
        tracer.clear()
        try:
            assert "tracing off" in cli.execute("trace status")
            assert cli.execute("trace start") == "tracing on"
            cli.execute("run 5")
            cli.execute("pause")
            cli.execute("state")
            tree = cli.execute("trace tree")
            assert "debug.run" in tree
            assert "jtag.batch" in tree
            assert "modeled=" in tree

            path = tmp_path / "trace.json"
            out = cli.execute(f"trace export {path}")
            assert str(path) in out
            import json
            events = json.loads(path.read_text())
            assert any(e["name"] == "debug.pause" for e in events)

            assert "tracing off" in cli.execute("trace stop")
            assert "tracing off" in cli.execute("trace status")
        finally:
            tracer.stop()
            tracer.clear()

    def test_trace_bad_usage(self, cli):
        assert cli.execute("trace bogus").startswith("error:")
        assert cli.execute("trace export").startswith("error:")


class TestVtiCacheCommands:
    def test_cache_stats_text_and_json(self, cli):
        import json as _json
        from repro.vti import PartitionSpec, VtiFlow, get_default_cache
        from repro.fpga import make_test_device
        from tests.test_vti_differential import counter_farm

        cache = get_default_cache()
        cache.clear()
        # Other tests share the process-wide cache; assert on deltas.
        before = cache.stats_dict()
        flow = VtiFlow(make_test_device())
        assert flow.cache is cache
        initial = flow.compile_initial(
            counter_farm(), {"clk": 100.0},
            [PartitionSpec("c0")], debug_slr=0)
        flow.compile_incremental(initial, "c0")  # miss
        flow.compile_incremental(initial, "c0")  # hit

        text = cli.execute("vti cache stats")
        assert f"hits {before['hits'] + 1}" in text
        assert f"misses {before['misses'] + 1}" in text

        stats = _json.loads(cli.execute("vti cache stats --json"))
        assert stats["hits"] == before["hits"] + 1
        assert stats["misses"] == before["misses"] + 1
        assert stats["entries"] == 1

        out = cli.execute("vti cache clear")
        assert "cleared" in out
        stats = _json.loads(cli.execute("vti cache stats --json"))
        assert stats["entries"] == 0

    def test_cache_counters_visible_in_process_stats(self, cli):
        import json as _json
        from repro.vti import get_default_cache
        get_default_cache()  # registers the vti.cache.* metrics
        stats = _json.loads(cli.execute("stats --json"))
        metric_names = stats["metrics"]
        assert any(name.startswith("vti.cache.")
                   for name in metric_names), sorted(metric_names)[:5]

    def test_vti_usage_errors(self, cli):
        assert cli.execute("vti").startswith("error:")
        assert cli.execute("vti cache").startswith("error:")
        assert cli.execute("vti cache stats --wat").startswith("error:")
        assert cli.execute("vti cache clear extra").startswith("error:")


class TestTraceCapture:
    def test_capture_renders_timeline(self, cli):
        out = cli.execute("trace-capture 24 issued completed")
        assert "captured 25 sample(s) over 24 cycle(s)" in out
        assert "stride 1" in out
        assert "\ncycle " in out  # ASCII timeline header row
        assert "issued" in out
        assert cli.last_trace is not None
        assert len(cli.last_trace) == 25

    def test_capture_stride_depth_and_vcd(self, cli, tmp_path):
        vcd = tmp_path / "cap.vcd"
        out = cli.execute(
            f"trace-capture 32 issued stride=4 depth=4 vcd={vcd}")
        assert "stride 4, ring depth 4" in out
        assert f"wrote VCD to {vcd}" in out
        text = vcd.read_text()
        assert "$var wire" in text and "$dumpvars" in text
        assert len(cli.last_trace) == 4

    def test_capture_usage_errors(self, cli):
        assert cli.execute("trace-capture").startswith("error: usage")
        assert cli.execute("trace-capture 10").startswith("error: usage")
        assert cli.execute(
            "trace-capture 10 issued wat=1").startswith("error: usage")
        assert cli.execute(
            "trace-capture 10 no_such_sig").startswith("error:")

    def test_capture_stops_at_watchpoint(self, cli):
        cli.execute("break issued=3")
        out = cli.execute("trace-capture 500 issued")
        assert "paused" in out
        assert len(cli.last_trace) < 501


class TestObservabilityVerbs:
    def test_doctor_renders_and_serializes(self, cli):
        out = cli.execute("doctor")
        assert out.startswith("health:")
        assert "transport.retry_rate" in out
        report = json.loads(cli.execute("doctor --json"))
        assert report["status"] in ("healthy", "warn", "degraded")
        assert any(rule["name"] == "supervise.breaker_opens"
                   for rule in report["rules"])
        assert cli.execute("doctor --wat").startswith("error: usage")

    def test_profile_tables_and_flame_export(self, cli, tmp_path):
        assert "no spans" in cli.execute("profile")
        cli.execute("trace start")
        cli.execute("run 10")
        cli.execute("pause")
        cli.execute("trace stop")
        out = cli.execute("profile")
        assert "debug.run" in out and "commands:" in out
        folded = tmp_path / "stacks.folded"
        out = cli.execute(f"profile flame modeled {folded}")
        assert f"wrote folded stacks (modeled) to {folded}" in out
        lines = folded.read_text().strip().split("\n")
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)
        assert cli.execute("profile wat").startswith("error: usage")

    def test_obs_flight(self, cli, tmp_path):
        cli.execute("run 5")
        assert cli.execute("obs flight").startswith("flight recorder:")
        path = tmp_path / "flight.json"
        assert f"wrote flight dump to {path}" \
            in cli.execute(f"obs flight {path}")
        assert json.loads(path.read_text())["format"] == "zoomie-flight"
        assert cli.execute("obs").startswith("error: usage")

    def test_obs_bundle_round_trips(self, cli, tmp_path):
        from repro.obs.bundle import load_bundle
        cli.execute("run 5")
        cli.execute("pause")
        path = tmp_path / "post.zip"
        out = cli.execute(f"obs bundle {path}")
        assert "wrote bundle v2" in out
        bundle = load_bundle(path)
        assert "flight.json" in bundle.sections
        assert "health.json" in bundle.sections
        assert "metrics.json" in bundle.sections
