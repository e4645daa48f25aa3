"""Stack-wide fault injection, supervision, and the chaos campaign.

Covers the chaos subsystem end to end: seeded schedules and their
firing semantics, the circuit breaker, supervised disk I/O
(:func:`run_io`), every instrumented layer's fault + fallback behavior
(journal, snapshot store, pause network, transport), trace capture's
hook path against its streaming path, and a miniature campaign run with
all differential invariants enabled.
"""

import pytest

from repro.campaign.designs import (
    campaign_design,
    compile_design,
    launch_session,
)
from repro.chaos import (
    DOCUMENTED_FALLBACKS,
    CircuitBreaker,
    FaultSchedule,
    FaultSpec,
    chaos_active,
    get_supervisor,
    install_chaos,
    modeled_io_seconds,
    note_degradation,
    run_io,
    sites_for_kind,
)
from repro.chaos.campaign import CLOCKS_MHZ
from repro.chaos.supervise import RETRIES
from repro.debug import (
    StateSnapshot,
    diff_snapshots,
    enable_crash_safety,
    recover_session,
)
from repro.debug.journal import CommandJournal, read_journal
from repro.debug.snapshot_store import SnapshotStore
from repro.errors import (
    ChaosError,
    CircuitOpenError,
    DebugTimeoutError,
    DiskFaultError,
    JournalCorruptError,
    is_retryable,
)
from repro.rtl import StreamingTrace, Trace

from .test_run_path_differential import loop_fabric_run


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def arm(*specs, seed=0):
    """A registry armed with explicit specs."""
    return FaultSchedule(seed=seed, specs=specs).registry()


@pytest.fixture
def supervised():
    """The supervisor, with its records cleared."""
    sup = get_supervisor()
    sup.reset()
    yield sup
    sup.reset()


@pytest.fixture(scope="module")
def compiled_pipeline():
    return compile_design(campaign_design("pipeline"), CLOCKS_MHZ)


# --------------------------------------------------------------------------
# schedules
# --------------------------------------------------------------------------


class TestFaultSchedule:
    def test_generate_is_seed_deterministic(self):
        a = FaultSchedule.generate(42)
        b = FaultSchedule.generate(42)
        assert a.specs == b.specs
        assert FaultSchedule.generate(43).specs != a.specs

    def test_registry_replays_identically(self):
        schedule = FaultSchedule(
            seed=5, specs=[FaultSpec(site="journal.sync",
                                     kind="torn_write", rate=0.5,
                                     count=3)])
        def fire_pattern():
            registry = schedule.registry()
            return [registry.visit("journal.sync") is not None
                    for _ in range(20)]
        assert fire_pattern() == fire_pattern()

    def test_at_fires_exactly_once_on_the_right_visit(self):
        registry = arm(FaultSpec(site="snapstore.put", kind="torn_write",
                                 at=2))
        hits = [registry.visit("snapstore.put") for _ in range(6)]
        assert [h is not None for h in hits] == [
            False, False, True, False, False, False]
        assert hits[2].kind == "torn_write"
        assert registry.faults_fired == 1

    def test_count_bounds_rate_fires(self):
        registry = arm(FaultSpec(site="journal.sync", kind="enospc",
                                 rate=1.0, count=2))
        fired = sum(registry.visit("journal.sync") is not None
                    for _ in range(10))
        assert fired == 2

    def test_pattern_matches_site_family(self):
        registry = arm(FaultSpec(site="fabric.*", kind="pause_stuck",
                                 at=0))
        assert registry.visit("fabric.gate_ack") is None
        assert registry.visit("fabric.pause_write") is not None

    def test_disk_kinds_hit_both_durable_stores(self):
        for kind in ("torn_write", "bit_rot", "enospc"):
            assert sites_for_kind(kind) == ["journal.sync",
                                            "snapstore.put"]

    def test_spec_validation(self):
        with pytest.raises(ChaosError, match="unknown fault kind"):
            FaultSpec(site="journal.sync", kind="gremlins", at=0)
        with pytest.raises(ChaosError, match="matches no known site"):
            FaultSpec(site="nonexistent.site", kind="torn_write", at=0)
        with pytest.raises(ChaosError, match="implements fault kind"):
            # fabric.gate_ack only implements gate_ack_drop
            FaultSpec(site="fabric.gate_ack", kind="enospc", at=0)
        with pytest.raises(ChaosError, match="matches no known site"):
            FaultSpec(site="vti.worker", kind="torn_write", at=0)
        with pytest.raises(ChaosError, match="at= or a rate"):
            FaultSpec(site="journal.sync", kind="torn_write")
        with pytest.raises(ChaosError, match="never fire") as info:
            FaultSpec(site="journal.sync", kind="torn_write", at=-1)
        assert info.value.kind == "spec"
        with pytest.raises(ChaosError, match="both at=0 and rate") as info:
            FaultSpec(site="journal.sync", kind="torn_write", at=0,
                      rate=0.5)
        assert info.value.kind == "spec"
        with pytest.raises(ChaosError, match="count"):
            FaultSpec(site="journal.sync", kind="torn_write", at=0,
                      count=0)
        with pytest.raises(ChaosError, match="single visit") as info:
            # at= matches one visit: a second fire can never happen
            FaultSpec(site="journal.sync", kind="torn_write", at=2,
                      count=2)
        assert info.value.kind == "spec"

    def test_install_rejects_nesting(self):
        registry = arm(FaultSpec(site="journal.sync", kind="torn_write",
                                 at=0))
        with install_chaos(registry):
            assert chaos_active()
            with pytest.raises(ChaosError, match="do not nest"):
                with install_chaos(arm()):
                    pass
        assert not chaos_active()

    def test_describe_names_every_spec(self):
        schedule = FaultSchedule.generate(7)
        text = schedule.describe()
        for spec in schedule.specs:
            assert spec.site in text and spec.kind in text


# --------------------------------------------------------------------------
# circuit breaker
# --------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=1.0):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(lambda: clock["now"],
                                 threshold=threshold,
                                 cooldown_seconds=cooldown, name="test")
        return clock, breaker

    def test_opens_after_threshold_consecutive_failures(self):
        clock, breaker = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        breaker.allow()  # still closed
        breaker.record_failure()
        with pytest.raises(CircuitOpenError) as info:
            breaker.allow()
        assert info.value.failures == 3
        assert info.value.retryable is False

    def test_success_resets_the_failure_run(self):
        clock, breaker = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.allow()  # 1 < threshold again

    def test_half_open_after_cooldown_then_closes_on_success(self):
        clock, breaker = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure()
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        clock["now"] = 2.0
        breaker.allow()  # half-open probe admitted
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens_immediately(self):
        clock, breaker = self.make(threshold=5, cooldown=1.0)
        for _ in range(5):
            breaker.record_failure()
        clock["now"] = 2.0
        breaker.allow()
        breaker.record_failure()  # probe failed: open again, no quota
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_cooldown_measured_on_the_supplied_clock(self):
        clock, breaker = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock["now"] = 9.99
        with pytest.raises(CircuitOpenError):
            breaker.allow()


# --------------------------------------------------------------------------
# supervised I/O
# --------------------------------------------------------------------------


class TestRunIO:
    def test_clean_write_models_one_attempt(self):
        value, seconds = run_io("journal.sync", 640, lambda fault: "ok")
        assert value == "ok"
        assert seconds == pytest.approx(modeled_io_seconds(640))

    def test_supervised_retries_a_torn_write(self, supervised):
        repairs = []

        def attempt(fault):
            if fault is not None:
                raise DiskFaultError("torn (injected)", kind="torn_write")
            return "landed"

        registry = arm(FaultSpec(site="journal.sync", kind="torn_write",
                                 at=0))
        with install_chaos(registry):
            value, seconds = run_io("journal.sync", 64, attempt,
                                    repair=lambda e: repairs.append(e))
        assert value == "landed"
        assert len(repairs) == 1
        assert seconds == pytest.approx(2 * modeled_io_seconds(64))

    def test_enospc_is_not_retryable(self, supervised):
        def attempt(fault):
            if fault is not None:
                raise DiskFaultError("disk full", kind="enospc")
            return "never"

        registry = arm(FaultSpec(site="journal.sync", kind="enospc",
                                 at=0))
        with install_chaos(registry):
            with pytest.raises(DiskFaultError) as info:
                run_io("journal.sync", 64, attempt)
        assert not is_retryable(info.value)

    def test_slow_sync_past_deadline_raises_timeout(self, supervised):
        registry = arm(FaultSpec(site="journal.sync", kind="slow_sync",
                                 at=0, seconds=1.0))
        with install_chaos(registry):
            with pytest.raises(DebugTimeoutError):
                # journal deadline is 0.5 modeled seconds; the write
                # *succeeds* but outlives its budget.
                run_io("journal.sync", 64, lambda fault: "late")
        assert supervised.deadline_hits

    def test_retry_exhaustion_surfaces_the_disk_error(self, supervised):
        def attempt(fault):
            if fault is not None:
                raise DiskFaultError("torn (injected)", kind="torn_write")
            return "never"

        registry = arm(FaultSpec(site="journal.sync", kind="torn_write",
                                 rate=1.0, count=100))
        with install_chaos(registry):
            with pytest.raises(DiskFaultError):
                run_io("journal.sync", 64, attempt)


# --------------------------------------------------------------------------
# journal faults
# --------------------------------------------------------------------------


class TestJournalChaos:
    def test_torn_sync_repaired_without_duplicates(self, tmp_path,
                                                   supervised):
        journal = CommandJournal(tmp_path / "j.log")
        journal.append("pause")
        journal.append("run", {"max_cycles": 5})
        registry = arm(FaultSpec(site="journal.sync", kind="torn_write",
                                 at=1))
        with install_chaos(registry):
            journal.append("step", {"cycles": 1, "force": False})
            journal.append("resume", {"clear_triggers": True})
        assert registry.faults_fired == 1
        assert journal.durable_count == 4
        records, torn = read_journal(tmp_path / "j.log")
        assert not torn
        assert [r.command for r in records] == [
            "pause", "run", "step", "resume"]
        assert supervised.degradations and \
            supervised.degradations[0].fallback == "journal.tail_repair"

    def test_bit_rot_is_detected_on_read(self, tmp_path):
        journal = CommandJournal(tmp_path / "j.log")
        registry = arm(FaultSpec(site="journal.sync", kind="bit_rot",
                                 at=0), seed=11)
        with install_chaos(registry):
            journal.append("pause")
        journal.append("resume", {"clear_triggers": True})
        with pytest.raises(JournalCorruptError):
            read_journal(tmp_path / "j.log")

    def test_enospc_surfaces_raw(self, tmp_path):
        """ENOSPC is not retryable: the first failed sync surfaces."""
        journal = CommandJournal(tmp_path / "j.log")
        registry = arm(FaultSpec(site="journal.sync", kind="enospc",
                                 at=0))
        with install_chaos(registry):
            with pytest.raises(DiskFaultError):
                journal.append("pause")
        assert journal.durable_count == 0


# --------------------------------------------------------------------------
# snapshot-store faults
# --------------------------------------------------------------------------


def snap(**values):
    return StateSnapshot(values=values or {"core.pc": 0x10},
                         memories={"rf": [1, 2, 3]}, cycle=7, label="x")


class TestSnapshotStoreChaos:
    def test_clean_put_rewrites_a_torn_object(self, tmp_path):
        """A put that finds a torn object under its key rewrites it
        instead of deduping onto it. The tear outlasts every retry, so
        the failed put leaves the torn object behind."""
        store = SnapshotStore(tmp_path)
        original = snap()
        registry = arm(FaultSpec(site="snapstore.put", kind="torn_write",
                                 rate=1.0, count=RETRIES + 1))
        with install_chaos(registry):
            with pytest.raises(DiskFaultError):
                store.put(original)
        key = store.put(original)
        assert store.verify(key) is None
        assert store.get(key).values == original.values

    def test_clean_put_rewrites_a_rotted_object(self, tmp_path):
        """Rot keeps the object's size, so only its CRC32 shows it: a
        put that finds it under its key rewrites it too."""
        store = SnapshotStore(tmp_path)
        original = snap()
        registry = arm(FaultSpec(site="snapstore.put", kind="bit_rot",
                                 at=0), seed=3)
        with install_chaos(registry):
            key = store.put(original)
        assert store.verify(key) is not None
        assert store.put(original) == key
        assert store.verify(key) is None
        assert store.get(key).values == original.values

    def test_torn_put_is_a_detectable_defect(self, tmp_path):
        """A put torn past its retries leaves an object verify flags."""
        store = SnapshotStore(tmp_path)
        original = snap()
        registry = arm(FaultSpec(site="snapstore.put", kind="torn_write",
                                 rate=1.0, count=RETRIES + 1))
        with install_chaos(registry):
            with pytest.raises(DiskFaultError):
                store.put(original)
        defect = store.verify(original.content_key())
        assert defect is not None

    def test_supervised_put_retries_past_the_tear(self, tmp_path,
                                                  supervised):
        store = SnapshotStore(tmp_path)
        original = snap()
        registry = arm(FaultSpec(site="snapstore.put", kind="torn_write",
                                 at=0))
        with install_chaos(registry):
            key = store.put(original)
        assert key == original.content_key()
        assert store.verify(key) is None
        assert store.get(key).values == original.values

    def test_bit_rot_put_is_silent_until_verified(self, tmp_path):
        store = SnapshotStore(tmp_path)
        registry = arm(FaultSpec(site="snapstore.put", kind="bit_rot",
                                 at=0), seed=3)
        with install_chaos(registry):
            key = store.put(snap())
        assert store.verify(key) is not None  # CRC/hash catches it

    def test_enospc_put_fails_typed(self, tmp_path):
        store = SnapshotStore(tmp_path)
        registry = arm(FaultSpec(site="snapstore.put", kind="enospc",
                                 at=0))
        with install_chaos(registry):
            with pytest.raises(DiskFaultError) as info:
                store.put(snap())
        assert info.value.kind == "enospc"


# --------------------------------------------------------------------------
# trace capture: one streaming path, armed or not
# --------------------------------------------------------------------------


class TestTraceCapture:
    @staticmethod
    def _session(compiled):
        fabric, debugger = launch_session(compiled)
        debugger.record_input("in_valid", 1)
        debugger.record_input("in_data", 0x11)
        debugger.record_input("out_ready", 1)
        return fabric, debugger

    def test_armed_capture_matches_unarmed(self, compiled_pipeline):
        """Armed breakpoints that never fire change nothing a capture
        records, and ``stride`` holds either way: both captures stream
        through the capture kernel with ``pause_out`` as the stop set."""
        def capture(armed):
            fabric, debugger = self._session(compiled_pipeline)
            if armed:
                # The pipeline has no assertions: armed, never firing.
                debugger.break_on_assertions(True)
            trace = debugger.trace_capture(["v3", "d3"], cycles=30,
                                           stride=3)
            state = fabric.sim.snapshot()
            del state["registers"][debugger.inst.spec.assert_en_reg]
            return trace, debugger.cycles(), state

        armed, armed_cycles, armed_state = capture(True)
        unarmed, unarmed_cycles, unarmed_state = capture(False)
        assert isinstance(armed, StreamingTrace)
        assert armed_cycles == unarmed_cycles == 30
        assert armed.cycles_recorded() == list(range(0, 31, 3))
        assert list(armed.iter_rows()) == list(unarmed.iter_rows())
        assert armed_state == unarmed_state

    def test_breakpoint_capture_matches_hook_trace(self, compiled_pipeline):
        """A value breakpoint firing mid-capture stops the capture on
        the pause; its rows equal, row for row, what an edge-hook
        ``Trace`` records on a twin driven one event at a time."""
        signals = ["v3", "d3"]

        def armed_session():
            fabric, debugger = self._session(compiled_pipeline)
            debugger.set_value_breakpoint({"v3": 1})
            return fabric, debugger

        fabric, debugger = armed_session()
        streamed = debugger.trace_capture(signals, cycles=30)
        twin_fabric, twin = armed_session()
        hooked = Trace(twin_fabric.sim, signals,
                       domain=twin.inst.mut_domains[0]).attach()
        ran = 0
        while ran < 30 and not twin.is_paused():
            loop_fabric_run(twin_fabric, 1)
            ran += 1
        hooked.detach()

        assert debugger.is_paused() and twin.is_paused()
        assert 0 < debugger.cycles() == twin.cycles() == ran < 30
        assert list(streamed.iter_rows()) == list(hooked.iter_rows())
        assert fabric.sim.snapshot() == twin_fabric.sim.snapshot()


# --------------------------------------------------------------------------
# pause network + clock gates
# --------------------------------------------------------------------------


class TestPauseChaos:
    def test_gate_ack_drop_leaves_mask_unchanged(self,
                                                 compiled_pipeline):
        fabric, _ = launch_session(compiled_pipeline)
        registry = arm(FaultSpec(site="fabric.gate_ack",
                                 kind="gate_ack_drop", at=0))
        with install_chaos(registry):
            fabric.set_clock_gates(1, fabric.device.primary_slr)
        assert fabric.gate_mask == 0  # dropped
        fabric.set_clock_gates(1, fabric.device.primary_slr)
        assert fabric.gate_mask == 1  # no fault armed: lands

    def test_supervised_pause_retries_a_stuck_write(
            self, compiled_pipeline, supervised):
        fabric, debugger = launch_session(compiled_pipeline)
        debugger.record_input("in_valid", 1)
        debugger.run(max_cycles=5)
        registry = arm(FaultSpec(site="fabric.pause_write",
                                 kind="pause_stuck", at=0))
        with install_chaos(registry):
            debugger.pause()
        assert debugger.is_paused()
        assert not debugger.safe_paused  # ordinary retry, no escalation
        assert registry.faults_fired == 1

    def test_pause_escalates_to_emergency_gates(self, compiled_pipeline,
                                                supervised):
        fabric, debugger = launch_session(compiled_pipeline)
        debugger.record_input("in_valid", 1)
        debugger.run(max_cycles=5)
        registry = arm(FaultSpec(site="fabric.pause_write",
                                 kind="pause_stuck", rate=1.0,
                                 count=100))
        with install_chaos(registry):
            debugger.pause()
        assert any(d.fallback == "pause.emergency_gates"
                   for d in supervised.degradations)
        assert debugger.safe_paused
        assert all(fabric.is_gated(d) for d in fabric.sim.domains)


# --------------------------------------------------------------------------
# transport: hangs, power cycles, breaker integration
# --------------------------------------------------------------------------


class TestTransportChaos:
    def test_device_hang_is_retried_with_a_plan_armed(
            self, compiled_pipeline):
        """The armed schedule is the only plan: every batch, on every
        fabric, goes through the transport's retry loop."""
        fabric, debugger = launch_session(compiled_pipeline)
        before = fabric.transport.stats.stuck_detected
        registry = arm(FaultSpec(site="transport.batch",
                                 kind="device_hang", at=0))
        with install_chaos(registry):
            debugger.pause()  # first batch hangs once, retry lands
        assert debugger.is_paused()
        assert fabric.transport.stats.stuck_detected == before + 1

    def test_breaker_refuses_traffic_after_exhaustion(
            self, compiled_pipeline):
        fabric, debugger = launch_session(compiled_pipeline)
        fabric.transport.breaker = CircuitBreaker(
            lambda: fabric.jtag.total_seconds, threshold=1,
            cooldown_seconds=1e9, name="test-fabric")
        registry = arm(FaultSpec(site="transport.batch",
                                 kind="device_hang", rate=1.0,
                                 count=1000))
        from repro.errors import TransportError
        with install_chaos(registry):
            with pytest.raises(TransportError):
                debugger.pause()  # every attempt hangs -> exhausted
            batches = fabric.transport.stats.batches
            with pytest.raises(CircuitOpenError):
                debugger.pause()  # refused without touching the channel
        assert fabric.transport.stats.batches == batches

    def test_power_cycle_reboots_and_recovery_converges(
            self, compiled_pipeline, tmp_path, supervised):
        fabric, debugger = launch_session(compiled_pipeline)
        enable_crash_safety(debugger, tmp_path)
        debugger.record_input("in_valid", 1)
        debugger.record_input("in_data", 0x2A)
        debugger.record_input("out_ready", 1)
        debugger.run(max_cycles=12)
        registry = arm(FaultSpec(site="transport.batch",
                                 kind="power_cycle", at=0))
        with install_chaos(registry):
            with pytest.raises(ChaosError) as info:
                debugger.pause()
        assert info.value.kind == "power_cycle"
        assert fabric.booted  # rebooted, but at initial state
        assert fabric.sim.domains["clk"].cycles == 0

        _, recovered = launch_session(compiled_pipeline)
        recover_session(recovered, tmp_path)

        _, golden = launch_session(compiled_pipeline)
        golden.record_input("in_valid", 1)
        golden.record_input("in_data", 0x2A)
        golden.record_input("out_ready", 1)
        golden.run(max_cycles=12)
        golden.pause()

        g = golden.engine.snapshot()
        r = recovered.engine.snapshot()
        assert diff_snapshots(g, r) == {}
        assert g.content_key() == r.content_key()


# --------------------------------------------------------------------------
# degradation table
# --------------------------------------------------------------------------


class TestDegradationTable:
    def test_undocumented_fallback_is_rejected(self):
        with pytest.raises(ChaosError, match="undocumented degradation"):
            note_degradation("totally.new.shortcut", site="nowhere")

    def test_every_fallback_is_documented_with_a_reason(self):
        for name, why in DOCUMENTED_FALLBACKS.items():
            assert "." in name
            assert len(why) > 20


# --------------------------------------------------------------------------
# miniature campaign
# --------------------------------------------------------------------------


class TestCampaign:
    def test_mini_campaign_holds_all_invariants(self, tmp_path):
        from repro.chaos.campaign import CampaignConfig, run_campaign
        config = CampaignConfig(schedules=3, seed=7,
                                designs=("pipeline",))
        report = run_campaign(config, tmp_path)
        assert len(report.outcomes) == 3
        assert report.passed, report.describe()
        assert "invariants: all held" in report.describe()

    def test_unknown_design_rejected(self, tmp_path):
        """Only designs the script has inputs for run, even if the
        campaign table holds more."""
        from repro.chaos.campaign import CampaignConfig, run_campaign
        for name in ("nope", "counters"):
            with pytest.raises(ChaosError,
                               match="unknown campaign design") as info:
                run_campaign(CampaignConfig(designs=(name,)), tmp_path)
            assert "pipeline, cohort, manycore" in str(info.value)

    def test_campaign_is_seed_deterministic(self, tmp_path):
        from repro.chaos.campaign import CampaignConfig, run_campaign
        config = CampaignConfig(schedules=2, seed=31,
                                designs=("pipeline",))
        a = run_campaign(config, tmp_path / "a")
        b = run_campaign(config, tmp_path / "b")
        assert [(o.outcome, o.faults_injected, o.recoveries)
                for o in a.outcomes] \
            == [(o.outcome, o.faults_injected, o.recoveries)
                for o in b.outcomes]
