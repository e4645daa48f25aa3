"""Flight-recorder trigger paths, end to end.

One test per wired trigger class — command-watchdog/deadline timeout,
circuit-breaker OPEN, unhandled debugger-command exception, journal
corruption — each asserting a dump landed with the triggering event as
the *final* record of the ring (the contract post-mortem readers rely
on). Plus a chaos-campaign run asserting every injected fault class
shows up in the flight recorder's sticky event ring.
"""

import pytest

from repro.chaos import CircuitBreaker, get_supervisor
from repro.errors import (
    DebugTimeoutError,
    JournalCorruptError,
    SimulationError,
)
from repro.obs import get_registry
from repro.obs.flight import FlightRecorder, get_flight_recorder


@pytest.fixture(autouse=True)
def clean_flight():
    """The recorder is process-global; leave it as other tests expect."""
    flight = get_flight_recorder()
    flight.enabled = True
    flight.clear()
    flight.on_dump.clear()
    flight.dump_dir = None
    yield flight
    flight.enabled = True
    flight.clear()
    flight.on_dump.clear()
    flight.dump_dir = None


def _session():
    """A compiled pipeline session, the way the doctor builds one."""
    from repro.chaos.campaign import _design_builders, _fresh_session
    compiled = _design_builders()["pipeline"]()
    return _fresh_session(compiled)


class TestTriggerDumps:
    def test_deadline_timeout_dumps_with_trigger_last(self, clean_flight):
        supervisor = get_supervisor()
        error = supervisor.deadline_hit("journal.sync", 1.25, 0.5)
        assert isinstance(error, DebugTimeoutError)
        dump = clean_flight.last_dump
        assert dump is not None and dump["trigger"]["name"] == "debug.timeout"
        assert dump["trigger"]["site"] == "journal.sync"
        assert dump["records"][-1] is dump["trigger"]
        assert clean_flight.dump_count == 1

    def test_breaker_open_transition_dumps_once(self, clean_flight):
        breaker = CircuitBreaker(lambda: 0.0, threshold=2,
                                 cooldown_seconds=10.0, name="flight-br")
        breaker.record_failure()
        assert clean_flight.last_dump is None  # still CLOSED
        breaker.record_failure()
        dump = clean_flight.last_dump
        assert dump is not None and dump["trigger"]["name"] == "breaker.open"
        assert dump["trigger"]["breaker"] == "flight-br"
        assert dump["records"][-1] is dump["trigger"]
        # Failures while already OPEN must not re-dump.
        breaker.record_failure()
        assert clean_flight.dump_count == 1
        breaker.reset()

    def test_unhandled_command_exception_dumps(self, clean_flight):
        fabric, debugger = _session()
        with pytest.raises(SimulationError):
            debugger.record_input("no_such_pin", 1)
        dump = clean_flight.last_dump
        assert dump is not None
        assert dump["trigger"]["name"] == "debug.exception"
        assert dump["trigger"]["verb"] == "poke_input"
        assert dump["trigger"]["error"] == "SimulationError"
        assert dump["records"][-1] is dump["trigger"]
        # The command note that preceded the crash is in the ring too.
        kinds = [(r["kind"], r["name"]) for r in dump["records"]]
        assert ("command", "poke_input") in kinds

    def test_journal_corruption_dumps(self, clean_flight, tmp_path):
        from repro.debug.journal import read_journal
        path = tmp_path / "j.log"
        path.write_text("not-a-journal\n")
        with pytest.raises(JournalCorruptError):
            read_journal(path)
        dump = clean_flight.last_dump
        assert dump is not None
        assert dump["trigger"]["name"] == "journal.corrupt"
        assert dump["trigger"]["line"] == 1
        assert str(path) in dump["trigger"]["path"]
        assert dump["records"][-1] is dump["trigger"]
        assert get_registry().get("flight.dumps.journal.corrupt")


class TestRecorderMechanics:
    def test_disabled_recorder_notes_and_dumps_nothing(self):
        flight = FlightRecorder()
        flight.enabled = False
        assert flight.note("command", "run") is None
        assert flight.trigger("debug.timeout") is None
        assert not flight.records and flight.last_dump is None

    def test_sticky_events_survive_batch_chatter(self):
        flight = FlightRecorder(capacity=16, events_capacity=16)
        flight.note("chaos", "device_hang", site="transport.batch")
        for _ in range(64):  # 4x the record ring
            flight.note("transport", "batch", retries=0)
        assert all(r["kind"] == "transport" for r in flight.records)
        assert [e["name"] for e in flight.events] == ["device_hang"]
        dump = flight.snapshot()
        assert dump["events"][0]["name"] == "device_hang"

    def test_dump_written_to_dump_dir(self, clean_flight, tmp_path):
        import json
        clean_flight.dump_dir = tmp_path
        clean_flight.note("command", "step")
        dump = clean_flight.trigger("debug.timeout", site="unit")
        on_disk = json.loads(open(dump["path"]).read())
        assert on_disk["format"] == "zoomie-flight"
        assert on_disk["records"][-1]["name"] == "debug.timeout"

    def test_on_dump_callbacks_collect_dumps(self, clean_flight):
        collected = []
        clean_flight.on_dump.append(collected.append)
        clean_flight.trigger("debug.timeout", site="a")
        clean_flight.trigger("breaker.open", breaker="b")
        assert [d["trigger"]["name"] for d in collected] \
            == ["debug.timeout", "breaker.open"]


class TestRunNotes:
    def test_each_debugger_run_leaves_one_sim_note(self, clean_flight):
        """A debugger run is one simulator call: one ``sim``/``run``
        note whose ``cycles`` is the events run, so a long run cannot
        flush the session's command notes out of the ring."""
        from repro import Zoomie, ZoomieProject
        from repro.designs import make_cohort_soc
        session = Zoomie(ZoomieProject(
            design=make_cohort_soc(with_bug=False), device="TEST2",
            clocks={"clk": 100.0}, watch=["issued"])).launch()
        session.poke_input("en", 1)
        dbg = session.debugger
        registry = get_registry()
        runs, ticks = (registry.counter(name).value
                       for name in ("sim.runs", "sim.ticks"))
        clean_flight.clear()
        dbg.set_value_breakpoint({"issued": 3})
        hit = dbg.run(400)
        dbg.clear_breakpoints()
        dbg.resume()
        free = dbg.run(400)
        assert 0 < hit < 400 and free == 400
        notes = [(r["kind"], r["name"], r.get("cycles"))
                 for r in clean_flight.records
                 if r["kind"] in ("command", "sim")]
        assert notes == [
            ("command", "set_value_breakpoint", None),
            ("command", "run", None), ("sim", "run", hit),
            ("command", "clear_breakpoints", None),
            ("command", "resume", None),
            ("command", "run", None), ("sim", "run", 400)]
        assert registry.counter("sim.runs").value == runs + 2
        assert registry.counter("sim.ticks").value == ticks + hit + 400


class TestCampaignFlightCoverage:
    def test_every_injected_fault_class_lands_in_flight(self, clean_flight,
                                                        tmp_path):
        from repro.chaos.campaign import CampaignConfig, run_campaign
        registry = get_registry()
        prefix = "chaos.faults_injected."

        def per_kind():
            return {name[len(prefix):]: registry.get(name).value
                    for name in registry.names()
                    if name.startswith(prefix)}

        before = per_kind()
        config = CampaignConfig(schedules=3, seed=7,
                                designs=("pipeline",))
        report = run_campaign(config, tmp_path)
        assert sum(o.faults_injected for o in report.outcomes) > 0

        injected = {kind for kind, value in per_kind().items()
                    if value > before.get(kind, 0)}
        assert injected, "campaign injected no faults to check against"
        seen = {e["name"] for e in clean_flight.events
                if e["kind"] == "chaos"}
        missing = injected - seen
        assert not missing, (
            f"fault class(es) {sorted(missing)} were injected but never "
            f"landed in the flight recorder's sticky ring")
