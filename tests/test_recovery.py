"""Crash-safe session tests: injected crashes, deterministic recovery,
divergence detection, and the operation watchdog.

The WAL contract under test: a record is durable *before* its command
executes, so whichever side of a boundary the process dies on, recovery
replays every durable record and lands bit-identical to a golden
uncrashed run driven through the same commands.
"""

import pytest

from repro import Zoomie, ZoomieProject
from repro.campaign.designs import (
    campaign_design,
    compile_design,
    launch_session,
)
from repro.chaos import FaultSchedule, FaultSpec, install_chaos
from repro.chaos.campaign import CLOCKS_MHZ
from repro.config import RetryPolicy
from repro.debug import diff_snapshots, enable_crash_safety, recover_session
from repro.debug.journal import frame_record, read_journal
from repro.debug.recovery import JOURNAL_NAME
from repro.designs import make_cohort_soc
from repro.errors import (
    DebugError,
    DebugTimeoutError,
    RecoveryDivergenceError,
    RecoveryError,
    SessionCrashedError,
)


def launch():
    project = ZoomieProject(
        design=make_cohort_soc(with_bug=False), device="TEST2",
        clocks={"clk": 100.0}, watch=["issued"])
    return Zoomie(project).launch()


def arm(site, kind, **when):
    """Install a one-spec fault schedule for a ``with`` block. ``at=``
    counts visits from installation, so arm before the first command
    it should count."""
    spec = FaultSpec(site=site, kind=kind, **when)
    return install_chaos(FaultSchedule(specs=[spec]).registry())


def kill_at_command(boundary, before):
    """Host death at journaled command ``boundary`` (0-based)."""
    kind = "crash_before" if before else "crash_after"
    return arm("debug.command", kind, at=boundary)


def drive(session, upto=None):
    """The canonical command script crashed and replayed below."""
    dbg = session.debugger
    commands = [
        lambda: session.poke_input("en", 1),
        lambda: dbg.run(40),
        lambda: dbg.pause(),
        lambda: dbg.snapshot("mid"),
        lambda: dbg.force("bus.held", 3),
        lambda: dbg.step(5),
        lambda: dbg.resume(),
        lambda: dbg.run(25),
        lambda: dbg.pause(),
    ]
    for index, command in enumerate(commands):
        if upto is not None and index >= upto:
            break
        command()
    return len(commands)


def capture(debugger):
    """Readback state without perturbing it (no pause, no journal)."""
    snap = debugger.engine.snapshot()
    return snap


class TestJournaledSession:
    def test_commands_are_journaled_write_ahead(self, tmp_path):
        session = launch()
        journal, _ = enable_crash_safety(session.debugger, tmp_path)
        drive(session)
        verbs = [r.command for r in journal.records()]
        assert verbs == ["poke_input", "run", "pause", "snapshot",
                         "write_state", "step", "resume", "run",
                         "pause"]
        assert journal.durable_count == len(verbs)

    def test_nested_commands_journal_once(self, tmp_path):
        session = launch()
        journal, _ = enable_crash_safety(session.debugger, tmp_path)
        session.poke_input("en", 1)
        session.debugger.run(10)
        session.debugger.pause()
        session.debugger.step(3)  # internally runs + writes registers
        verbs = [r.command for r in journal.records()]
        assert verbs.count("step") == 1
        assert verbs == ["poke_input", "run", "pause", "step"]

    def test_snapshot_label_validated_at_capture(self, tmp_path):
        session = launch()
        enable_crash_safety(session.debugger, tmp_path)
        session.debugger.pause()
        with pytest.raises(DebugError):
            session.debugger.snapshot("bad=label")
        with pytest.raises(DebugError):
            session.debugger.snapshot("two\nlines")

    def test_auto_checkpoint_cadence(self, tmp_path):
        session = launch()
        journal, store = enable_crash_safety(
            session.debugger, tmp_path, checkpoint_every=2)
        session.poke_input("en", 1)
        dbg = session.debugger
        dbg.run(10)     # 2nd command -> auto checkpoint
        dbg.pause()
        dbg.step(2)     # 2 more -> another checkpoint
        autos = [r for r in journal.records()
                 if r.command == "snapshot" and r.args.get("auto")]
        assert len(autos) == 2
        for record in autos:
            assert record.args["key"] in store


class TestKillPoints:
    def test_command_boundary_crash_kills_session(self, tmp_path):
        session = launch()
        enable_crash_safety(session.debugger, tmp_path)
        with kill_at_command(2, before=True), \
                pytest.raises(SessionCrashedError):
            drive(session)
        # a dead process answers nothing
        with pytest.raises(SessionCrashedError):
            session.debugger.pause()
        with pytest.raises(SessionCrashedError):
            session.debugger.read_state()

    def test_batch_boundary_crash_mid_command(self, tmp_path):
        session = launch()
        enable_crash_safety(session.debugger, tmp_path)
        session.poke_input("en", 1)
        session.debugger.run(10)
        with arm("transport.batch", "crash", at=1), \
                pytest.raises(SessionCrashedError):
            # pause issues capture + write batches; dies between them
            session.debugger.pause()


class TestRecovery:
    def recover_fresh(self, directory):
        fresh = launch()
        report = recover_session(fresh.debugger, directory)
        return fresh, report

    @pytest.mark.parametrize("boundary,before", [(1, True), (4, False),
                                                 (6, True)])
    def test_bit_identical_recovery(self, tmp_path, boundary, before):
        session = launch()
        enable_crash_safety(session.debugger, tmp_path)
        with kill_at_command(boundary, before), \
                pytest.raises(SessionCrashedError):
            drive(session)
        recovered, report = self.recover_fresh(tmp_path)
        # record `boundary` is durable either way -> replay applies it
        golden = launch()
        drive(golden, upto=boundary + 1)
        g, r = capture(golden.debugger), capture(recovered.debugger)
        assert diff_snapshots(g, r) == {}
        assert g.content_key() == r.content_key()
        assert g.memories == r.memories

    def test_full_replay_without_any_snapshot(self, tmp_path):
        session = launch()
        enable_crash_safety(session.debugger, tmp_path)
        with kill_at_command(2, before=False), \
                pytest.raises(SessionCrashedError):
            drive(session)
        recovered, report = self.recover_fresh(tmp_path)
        assert report.base_index is None
        golden = launch()
        drive(golden, upto=3)
        assert capture(golden.debugger).content_key() == \
            capture(recovered.debugger).content_key()

    def test_recovery_skips_corrupt_checkpoint(self, tmp_path):
        session = launch()
        journal, store = enable_crash_safety(session.debugger, tmp_path)
        with kill_at_command(6, before=False), \
                pytest.raises(SessionCrashedError):
            drive(session)
        # rot the (only) checkpoint: recovery must fall back to full
        # replay rather than trust it
        snapshot_record = next(r for r in journal.records()
                               if r.command == "snapshot")
        key = snapshot_record.args["key"]
        path = store._path(key)
        path.write_text(path.read_text()[:-15])
        recovered, report = self.recover_fresh(tmp_path)
        assert report.base_index is None
        assert key in report.skipped_bases
        golden = launch()
        drive(golden, upto=7)
        assert capture(golden.debugger).content_key() == \
            capture(recovered.debugger).content_key()

    def test_torn_journal_tail_recovers_durable_prefix(self, tmp_path):
        session = launch()
        enable_crash_safety(session.debugger, tmp_path)
        drive(session, upto=6)
        # tear the final record mid-write, as a crash would
        path = tmp_path / JOURNAL_NAME
        path.write_text(path.read_text()[:-9])
        recovered, report = self.recover_fresh(tmp_path)
        assert report.torn_tail_dropped
        golden = launch()
        drive(golden, upto=5)
        assert capture(golden.debugger).content_key() == \
            capture(recovered.debugger).content_key()

    def test_unsynced_records_lost_on_crash(self, tmp_path):
        session = launch()
        journal, _ = enable_crash_safety(session.debugger, tmp_path,
                                         sync_every=4)
        drive(session, upto=6)
        lost = journal.drop_pending()  # modeled process death
        assert lost == 2  # records 4,5 were pending past the sync point
        recovered, _ = self.recover_fresh(tmp_path)
        golden = launch()
        drive(golden, upto=4)
        assert capture(golden.debugger).content_key() == \
            capture(recovered.debugger).content_key()

    def test_divergence_detected_on_tampered_replay(self, tmp_path):
        # drive with a snapshot AFTER a write so tampering the write is
        # caught by the snapshot's divergence probe
        session = launch()
        enable_crash_safety(session.debugger, tmp_path)
        session.poke_input("en", 1)
        dbg = session.debugger
        dbg.run(30)
        dbg.pause()
        dbg.force("bus.held", 3)
        dbg.snapshot("probe")
        # rewrite the journaled force value with valid framing: replay
        # now computes different state than the snapshot record after
        # it promises
        path = tmp_path / JOURNAL_NAME
        records, _ = read_journal(path)
        lines = path.read_text().splitlines()
        for i, record in enumerate(records):
            if record.command == "write_state":
                tampered = type(record)(
                    index=record.index, command="write_state",
                    args={"updates": {"bus.held": 0x7777}})
                lines[i + 1] = frame_record(tampered)[:-1]
        path.write_text("\n".join(lines) + "\n")
        # ordinary recovery restores straight from the "probe"
        # checkpoint (it is durable truth) — the tamper is upstream of
        # it and invisible. full_replay audit re-executes the whole
        # journal and catches it at the probe.
        fresh = launch()
        with pytest.raises(RecoveryDivergenceError) as info:
            recover_session(fresh.debugger, tmp_path, full_replay=True)
        error = info.value
        assert error.record_index == records[-1].index
        assert "bus.held" in error.changed

    def test_full_replay_audit_passes_untampered(self, tmp_path):
        session = launch()
        enable_crash_safety(session.debugger, tmp_path)
        drive(session)
        fresh = launch()
        report = recover_session(fresh.debugger, tmp_path,
                                 full_replay=True)
        assert report.base_index is None
        assert report.snapshots_checked == 1

    def test_recovered_session_continues_journaling(self, tmp_path):
        session = launch()
        enable_crash_safety(session.debugger, tmp_path)
        with kill_at_command(4, before=False), \
                pytest.raises(SessionCrashedError):
            drive(session)
        recovered, _ = self.recover_fresh(tmp_path)
        dbg = recovered.debugger
        assert dbg.journal is not None
        before = dbg.journal.count
        dbg.step(2)
        assert dbg.journal.count == before + 1
        assert dbg.journal.records()[-1].command == "step"

    def test_missing_journal_raises(self, tmp_path):
        fresh = launch()
        with pytest.raises(RecoveryError):
            recover_session(fresh.debugger, tmp_path / "nowhere")

    def test_report_describes_recovery(self, tmp_path):
        session = launch()
        enable_crash_safety(session.debugger, tmp_path)
        with kill_at_command(6, before=False), \
                pytest.raises(SessionCrashedError):
            drive(session)
        _, report = self.recover_fresh(tmp_path)
        text = report.describe()
        assert "recovered from snapshot" in text
        assert "replayed" in text


def launch_split_cluster():
    """The campaign table's two-core cluster, core1 constrained onto
    SLR 1 — debug traffic to it crosses the JTAG ring to a secondary
    controller."""
    return launch_session(
        compile_design(campaign_design("manycore"), CLOCKS_MHZ))


class TestWatchdog:
    def test_deadline_bounds_stuck_secondary(self):
        fabric, dbg = launch_split_cluster()
        dbg.record_input("en", 1)
        dbg.run(20)
        dbg.pause()
        target = next(name for name
                      in fabric.db.netlist.registers
                      if name.startswith("core1."))
        # a permanently stuck secondary + an absurd retry budget:
        # without the watchdog this write would retry ~forever
        fabric.transport.policy = RetryPolicy(max_attempts=10**6,
                                              backoff_seconds=0.005)
        dbg.op_deadline_seconds = 1.5
        with arm("transport.batch", "stuck", rate=1.0, count=10**9), \
                pytest.raises(DebugTimeoutError) as info:
            dbg.force(target, 1)
        error = info.value
        assert error.operation == "write_state"
        assert error.deadline_seconds == 1.5
        # terminated within (one overshooting attempt of) the deadline,
        # not after a million retries
        assert error.spent_seconds < 3 * error.deadline_seconds
        assert fabric.transport.deadline_remaining is None
        # safe-paused through the PRIMARY controller, which is not
        # stuck: the session is parked, not lost
        assert dbg.safe_paused
        assert dbg.is_paused()

    def test_safe_paused_session_is_inspectable(self):
        fabric, dbg = launch_split_cluster()
        dbg.record_input("en", 1)
        dbg.run(20)
        fabric.transport.policy = RetryPolicy(max_attempts=10**6,
                                              backoff_seconds=0.005)
        dbg.op_deadline_seconds = 1.0
        with arm("transport.batch", "read_flip", rate=1.0, count=10**9), \
                pytest.raises(DebugTimeoutError):
            dbg.pause()
        assert dbg.safe_paused
        # the fault clears (transient channel brownout): state is
        # readable and resume un-parks the clocks
        state = dbg.read_state()
        assert state.values
        dbg.resume()
        assert not dbg.safe_paused
        assert not dbg.is_paused()

    def test_no_deadline_means_unbounded_retries(self):
        fabric, dbg = launch_split_cluster()
        dbg.record_input("en", 1)
        dbg.run(10)
        fabric.transport.policy = RetryPolicy(max_attempts=4,
                                              backoff_seconds=0.001)
        # default (no watchdog): the old TransportError behavior
        from repro.errors import TransportError
        with arm("transport.batch", "read_flip", rate=1.0, count=10**9), \
                pytest.raises(TransportError):
            dbg.pause()
        assert not dbg.safe_paused

    def test_clean_channel_unaffected_by_deadline(self):
        session = launch()
        session.debugger.op_deadline_seconds = 30.0
        drive(session)
        assert not session.debugger.safe_paused
        assert session.debugger.is_paused()


class TestRecoveryTracing:
    def test_recovery_emits_one_span_per_journal_record(self, tmp_path):
        from repro.obs import get_tracer

        session = launch()
        enable_crash_safety(session.debugger, tmp_path)
        drive(session)
        records, _ = read_journal(tmp_path / JOURNAL_NAME)
        assert records

        tracer = get_tracer()
        tracer.clear()
        tracer.start()
        try:
            fresh = launch()
            report = recover_session(fresh.debugger, tmp_path)
            record_spans = tracer.find("recover.record")
            # One audit span per journal record, in journal order —
            # including pre-base records the checkpoint lets replay skip.
            assert len(record_spans) == len(records)
            assert [span.attrs["index"] for span in record_spans] \
                == [record.index for record in records]
            (session_span,) = tracer.find("recover.session")
            assert all(span.parent_id == session_span.span_id
                       for span in record_spans)
            assert session_span.attrs["commands_replayed"] \
                == report.commands_replayed
            # The replayed commands charged modeled JTAG seconds, which
            # rolled up through recover.record into the session span.
            assert session_span.modeled_seconds > 0
        finally:
            tracer.stop()
            tracer.clear()
