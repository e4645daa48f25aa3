"""The verified JTAG transport: fault injection, CRC verification
against the golden channel, and the bounded retry policy.

The differential guard the transport must honour: with no fault
schedule installed it is a bit-identical pass-through (same read words,
same modeled seconds as the raw ring); with seeded ``transport.batch``
faults armed, corrupted batches are always *detected* — never silently
consumed — and operations complete via retry with the damage visible in
the stats.
"""

import pytest

from repro import Zoomie, ZoomieProject
from repro.bitstream.assembler import BitstreamAssembler
from repro.bitstream.crc import crc32_stream
from repro.bitstream.packets import NOP, READ, Packet, encode_packet
from repro.bitstream.words import REGISTERS, SYNC
from repro.campaign.designs import (
    campaign_design,
    compile_design,
    launch_session,
)
from repro.chaos import FaultSchedule, FaultSpec, install_chaos
from repro.chaos.campaign import CLOCKS_MHZ
from repro.config import FabricDevice, RetryPolicy, TransportStats
from repro.config.microcontroller import COMMAND_LOG_DEPTH
from repro.config.transport import (
    BACKOFF_MULTIPLIER,
    HOP_PULSE_WORD,
    MAX_BACKOFF_SECONDS,
)
from repro.designs import make_cluster
from repro.fpga import make_test_device
from repro.errors import (
    CorruptReadbackError,
    TransportError,
)
from repro.obs import get_flight_recorder, get_registry

#: Fire bound for faults meant to last the whole test.
PERSISTENT = 10**6


def channel_fault(kind, rate=1.0, count=PERSISTENT):
    return FaultSpec(site="transport.batch", kind=kind, rate=rate,
                     count=count)


def arm(*specs, seed=0):
    """Install a seeded schedule for a ``with`` block (yields its
    registry)."""
    return install_chaos(FaultSchedule(seed=seed, specs=specs).registry())


@pytest.fixture()
def session():
    project = ZoomieProject(
        design=make_cluster(cores=2, imem_depth=64), device="TEST2",
        clocks={"clk": 100.0}, watch=["retired_count"])
    session = Zoomie(project).launch()
    session.poke_input("en", 1)
    session.run(30)
    session.debugger.pause()
    return session


def capture_read_program(fabric, slr, frames):
    """A capture + FDRO readback program, as read_slr assembles it."""
    asm = BitstreamAssembler(fabric.device)
    asm.preamble()
    hops = asm.hops_to(slr)
    for _ in range(hops):
        asm.write_register("BOUT", [])
    if hops:
        asm.dummy(4)
    asm.clear_mask()
    asm.capture()
    asm.read_frames(frames[0], len(frames))
    asm.command("DESYNC").dummy(2)
    return asm.words


class TestCleanChannel:
    def test_transact_is_bit_identical_to_raw_ring(self, session):
        """Differential guard: no schedule -> pass-through, zero
        overhead."""
        fabric = session.fabric
        frames = session.debugger.engine.all_frames_of_slr(0)[:8]
        direct = fabric.jtag.run(capture_read_program(fabric, 0, frames))
        routed = fabric.transact(capture_read_program(fabric, 0, frames))
        assert routed.read_words == direct.read_words
        assert routed.seconds == direct.seconds
        assert routed.read_crc == direct.read_crc

    def test_golden_channel_crc_matches_read_words(self, session):
        fabric = session.fabric
        frames = session.debugger.engine.all_frames_of_slr(0)[:4]
        result = fabric.transact(capture_read_program(fabric, 0, frames))
        assert result.read_crc == crc32_stream(result.read_words)

    def test_stats_count_clean_batches(self, session):
        fabric = session.fabric
        stats = fabric.transport.stats
        before = stats.as_dict()
        session.debugger.read_state()
        after = stats.as_dict()
        assert after["batches"] > before["batches"]
        assert after["attempts"] - before["attempts"] \
            == after["batches"] - before["batches"]
        assert after["retries"] == before["retries"]
        assert after["corrupt_detected"] == before["corrupt_detected"]
        assert after["seconds_in_retry"] == before["seconds_in_retry"]

    def test_ring_counts_batches(self, session):
        fabric = session.fabric
        before = fabric.jtag.batches
        session.debugger.read_state(allow_running=True)
        assert fabric.jtag.batches > before


    def test_long_session_keeps_command_log_at_its_bound(self, session):
        """Each controller keeps only its most recent
        ``COMMAND_LOG_DEPTH`` CMD names, however long the session."""
        dbg = session.debugger
        log = session.fabric.mcs[session.fabric.device.primary_slr] \
            .command_log
        start = len(log)
        dbg.read_state()
        one_read = list(log)[start:]
        for _ in range(COMMAND_LOG_DEPTH // len(one_read) + 1):
            dbg.read_state()
            dbg.step(1)
        dbg.read_state()
        assert len(log) == COMMAND_LOG_DEPTH
        assert list(log)[-len(one_read):] == one_read


class TestChannelFaults:
    def test_same_seed_same_faults(self, session):
        """Two registries armed from one schedule fire the same faults
        on the same batches, with the same damage."""
        fabric, dbg = session.fabric, session.debugger
        fabric.transport.policy = RetryPolicy(max_attempts=12)
        stats = fabric.transport.stats
        schedule = FaultSchedule(seed=7, specs=[
            channel_fault("read_flip", rate=0.5, count=8),
            channel_fault("truncate", rate=0.3, count=8)])

        def replay():
            before = stats.as_dict()
            with install_chaos(schedule.registry()) as registry:
                state = dbg.read_state()
            after = stats.as_dict()
            counts = {key: after[key] - before[key] for key in after
                      if key != "seconds_in_retry"}
            return registry.injections, counts, state.values

        first = replay()
        assert first[0], "the schedule never fired"
        assert replay() == first

    def test_no_pulses_nothing_to_drop(self, session):
        """``drop_hop`` on a batch with no hop pulse is a recorded no-op:
        the batch runs exactly as on a clean channel."""
        fabric = session.fabric
        primary = fabric.device.primary_slr
        frames = session.debugger.engine.all_frames_of_slr(primary)[:4]
        words = capture_read_program(fabric, primary, frames)
        assert HOP_PULSE_WORD not in words
        clean = fabric.transact(list(words))
        stats = fabric.transport.stats
        before = stats.as_dict()
        with arm(channel_fault("drop_hop", count=1)) as registry:
            faulted = fabric.transact(list(words))
        assert [i.kind for i in registry.injections] == ["drop_hop"]
        assert faulted.read_words == clean.read_words
        assert faulted.seconds == clean.seconds
        assert stats.command_faults_detected \
            == before["command_faults_detected"]
        assert stats.retries == before["retries"]

    def test_backoff_grows_and_caps(self):
        assert BACKOFF_MULTIPLIER == 2.0
        assert MAX_BACKOFF_SECONDS == 0.25
        policy = RetryPolicy(max_attempts=8, backoff_seconds=0.01)
        waits = [policy.backoff_for(n) for n in range(1, 8)]
        assert waits == [0.01, 0.02, 0.04, 0.08, 0.16, 0.25, 0.25]

    def test_every_detected_fault_has_a_recorded_cause(self, session):
        """A channel fault the CRC catches is also on record: in the
        registry's audit log, the per-kind counter, and the flight
        recorder's sticky ring."""
        fabric, engine = session.fabric, session.debugger.engine
        primary = fabric.device.primary_slr
        frames = engine.all_frames_of_slr(primary)[:4]
        stats = fabric.transport.stats
        counter = get_registry().counter("chaos.faults_injected.read_flip")
        flight = get_flight_recorder()
        flight.clear()
        corrupt_before, counted_before = \
            stats.corrupt_detected, counter.value
        with arm(channel_fault("read_flip", count=3)) as registry:
            engine.read_slr(primary, frames)
        assert stats.corrupt_detected - corrupt_before == 3
        assert [i.kind for i in registry.injections] == ["read_flip"] * 3
        assert counter.value - counted_before == 3
        assert [e["name"] for e in flight.events
                if e["kind"] == "chaos"] == ["read_flip"] * 3


class TestFaultDetectionAndRetry:
    def test_bit_flips_always_detected_never_silent(self, session):
        """Across seeds: every corrupted batch is caught by CRC and the
        retried result is exact against simulator truth."""
        fabric, dbg = session.fabric, session.debugger
        stats = fabric.transport.stats
        tripped = False
        fabric.transport.policy = RetryPolicy(max_attempts=12)
        for seed in range(40):
            before = stats.corrupt_detected
            with arm(channel_fault("read_flip", rate=0.5, count=8),
                     seed=seed):
                state = dbg.read_state()
            for name, value in state.values.items():
                assert value == fabric.sim.peek(name), (
                    f"seed={seed}: silently corrupt value for {name}")
            if stats.corrupt_detected > before:
                tripped = True
                break
        assert tripped, "no corruption triggered across 40 seeds"
        assert stats.retries > 0
        assert stats.seconds_in_retry > 0.0

    def test_persistent_corruption_raises_typed_error(self, session):
        fabric, dbg = session.fabric, session.debugger
        fabric.transport.policy = RetryPolicy(max_attempts=3)
        with arm(channel_fault("read_flip"), seed=2), \
                pytest.raises(CorruptReadbackError) as info:
            dbg.read_state()
        assert info.value.attempts == 3
        assert fabric.transport.stats.exhausted == 1

    def test_truncated_burst_detected(self, session):
        fabric, dbg = session.fabric, session.debugger
        fabric.transport.policy = RetryPolicy(max_attempts=2)
        with arm(channel_fault("truncate"), seed=4), \
                pytest.raises(CorruptReadbackError) as info:
            dbg.read_state()
        assert info.value.kind == "truncated"

    def test_dropped_hop_rejected_before_execution(self, session):
        """A batch whose hop group lost a pulse must never execute —
        it would read (or write!) the wrong SLR."""
        fabric, dbg = session.fabric, session.debugger
        engine = dbg.engine
        secondary = (fabric.device.primary_slr + 1) \
            % fabric.device.slr_count
        frames = engine.all_frames_of_slr(secondary)[:4]
        logs_before = [list(mc.command_log) for mc in fabric.mcs]
        fabric.transport.policy = RetryPolicy(max_attempts=3)
        with arm(channel_fault("drop_hop"), seed=3), \
                pytest.raises(TransportError) as info:
            engine.read_slr(secondary, frames)
        assert info.value.kind == "command"
        assert [list(mc.command_log) for mc in fabric.mcs] == logs_before
        assert fabric.transport.stats.command_faults_detected == 3

    def test_stuck_secondary_recovers_with_backoff(self, session):
        fabric, dbg = session.fabric, session.debugger
        engine = dbg.engine
        secondary = (fabric.device.primary_slr + 1) \
            % fabric.device.slr_count
        frames = engine.all_frames_of_slr(secondary)[:4]
        clean = engine.read_slr(secondary, frames)

        fabric.transport.policy = RetryPolicy(max_attempts=6)
        stats = fabric.transport.stats
        wasted_before = stats.seconds_in_retry
        with arm(channel_fault("stuck", count=2)):
            faulted = engine.read_slr(secondary, frames)

        assert stats.stuck_detected == 2
        assert stats.retries == 2
        assert faulted.values == clean.values
        wasted = stats.seconds_in_retry - wasted_before
        assert faulted.seconds == pytest.approx(clean.seconds + wasted)
        assert faulted.seconds > clean.seconds

    def test_stuck_controller_only_affects_batches_targeting_it(
            self, session):
        fabric, dbg = session.fabric, session.debugger
        engine = dbg.engine
        secondary = (fabric.device.primary_slr + 1) \
            % fabric.device.slr_count
        stats = fabric.transport.stats
        frames = engine.all_frames_of_slr(fabric.device.primary_slr)[:4]
        with arm(channel_fault("stuck", count=1)) as registry:
            engine.read_slr(fabric.device.primary_slr, frames)
        assert registry.faults_fired == 1
        assert stats.stuck_detected == 0  # primary batch sails through


class TestRetryIdempotentOperations:
    def test_write_state_exact_under_faults(self, session):
        fabric, dbg = session.fabric, session.debugger
        fabric.transport.policy = RetryPolicy(max_attempts=12)
        with arm(channel_fault("read_flip", rate=0.4), seed=5):
            dbg.write_state({"core0.acc": 3})
        assert fabric.sim.peek("core0.acc") == 3

    def test_write_memory_exact_under_faults(self, session):
        fabric, dbg = session.fabric, session.debugger
        mem = fabric.db.netlist.memories["imem"]
        words = [(index * 7 + 1) % (1 << mem.width)
                 for index in range(mem.depth)]
        fabric.transport.policy = RetryPolicy(max_attempts=12)
        with arm(channel_fault("read_flip", rate=0.4),
                 channel_fault("drop_hop", rate=0.2), seed=6):
            dbg.write_memory("imem", words)
        assert list(fabric.sim.memories["imem"]) == words

    def test_snapshot_restore_roundtrip_under_faults(self, session):
        fabric, dbg = session.fabric, session.debugger
        fabric.transport.policy = RetryPolicy(max_attempts=12)
        with arm(channel_fault("read_flip", rate=0.25),
                 channel_fault("truncate", rate=0.1), seed=8):
            snap = dbg.snapshot(label="before")
            dbg.resume()
            dbg.run(17)
            dbg.pause()
            dbg.restore(snap)
        for name, value in snap.values.items():
            if name in fabric.db.netlist.registers:
                assert fabric.sim.peek(name) == value, name
        for name, words in snap.memories.items():
            assert list(fabric.sim.memories[name]) == words, name

    def test_disable_returns_to_clean_channel(self, session):
        fabric, dbg = session.fabric, session.debugger
        fabric.transport.policy = RetryPolicy(max_attempts=2)
        with arm(channel_fault("read_flip"), seed=1), \
                pytest.raises(TransportError):
            dbg.read_state()
        retries_before = fabric.transport.stats.retries
        state = dbg.read_state()
        assert fabric.transport.stats.retries == retries_before
        assert state["core0.acc"] == fabric.sim.peek("core0.acc")


#: Every per-ring counter, each mirrored as ``transport.<key>``.
STAT_KEYS = tuple(TransportStats().as_dict())


def mirror_values():
    registry = get_registry()
    return {key: registry.counter(f"transport.{key}").value
            for key in STAT_KEYS}


def transport_notes(flight):
    return [record for record in flight.records
            if record["kind"] == "transport"]


class TestRegistryMirror:
    """Each ``TransportStats`` field and its ``transport.<key>``
    registry counter move together, batch for batch."""

    def test_mirror_deltas_equal_stats_deltas_under_faults(self, session):
        fabric, engine = session.fabric, session.debugger.engine
        transport = fabric.transport
        transport.policy = RetryPolicy(max_attempts=8)
        secondary = (fabric.device.primary_slr + 1) \
            % fabric.device.slr_count
        frames = engine.all_frames_of_slr(secondary)[:4]
        stats_before, mirror_before = transport.stats.as_dict(), \
            mirror_values()
        kinds = ("read_flip", "truncate", "drop_hop", "stuck",
                 "device_hang")
        with arm(*(channel_fault(kind, rate=0.15, count=4)
                   for kind in kinds), seed=4) as registry:
            for _ in range(12):
                engine.read_slr(secondary, frames)
        assert {i.kind for i in registry.injections} == set(kinds)
        transport.policy = RetryPolicy(max_attempts=2)
        with arm(channel_fault("device_hang")), \
                pytest.raises(TransportError):
            engine.read_slr(secondary, frames)
        stats_after, mirror_after = transport.stats.as_dict(), \
            mirror_values()
        for key in STAT_KEYS:
            stat_delta = stats_after[key] - stats_before[key]
            assert stat_delta, f"{key} never moved"
            assert mirror_after[key] - mirror_before[key] \
                == pytest.approx(stat_delta, rel=1e-12, abs=0), key

    def test_only_retried_or_failed_batches_leave_a_note(self, session):
        fabric = session.fabric
        primary = fabric.device.primary_slr
        frames = session.debugger.engine.all_frames_of_slr(primary)[:4]
        words = capture_read_program(fabric, primary, frames)
        flight = get_flight_recorder()
        flight.clear()
        fabric.transact(list(words))
        assert transport_notes(flight) == []
        with arm(channel_fault("read_flip", count=2)):
            fabric.transact(list(words))
        [note] = transport_notes(flight)
        assert (note["retries"], note["verified"]) == (2, True)
        fabric.transport.policy = RetryPolicy(max_attempts=1)
        with arm(channel_fault("read_flip")), \
                pytest.raises(CorruptReadbackError):
            fabric.transact(list(words))
        assert [(n["retries"], n["verified"])
                for n in transport_notes(flight)] \
            == [(2, True), (0, False)]

    def test_retried_batch_note_counts_corrupt_attempts(self, session):
        fabric = session.fabric
        primary = fabric.device.primary_slr
        frames = session.debugger.engine.all_frames_of_slr(primary)[:4]
        words = capture_read_program(fabric, primary, frames)
        flight = get_flight_recorder()
        flight.clear()
        with arm(channel_fault("read_flip", count=2),
                 channel_fault("device_hang", count=1), seed=5):
            fabric.transact(list(words))
        [note] = transport_notes(flight)
        # Three failed attempts, of which the two flips were corrupt
        # readbacks and the hang was not.
        assert (note["retries"], note["corrupt"], note["verified"]) \
            == (3, 2, True)


def stat_read_stream(*groups, trailing=0, nop=False):
    """A synced stream: one STAT read on the primary, then one section
    per hop group of ``groups[i]`` BOUT pulses (a NOP section with
    ``nop``, else a STAT read), then ``trailing`` pulses."""
    stat = encode_packet(Packet(opcode=READ, register=REGISTERS["STAT"],
                                read_count=1))
    body = encode_packet(Packet(opcode=NOP, register=0)) if nop else stat
    words = [SYNC, *stat]
    for pulses in groups:
        words += [HOP_PULSE_WORD] * pulses + body
    return words + [HOP_PULSE_WORD] * trailing


def spy_executed_secondaries(monkeypatch, fabric):
    """Record every ``JtagRing.run`` batch as ``(words, secondaries)``,
    where ``secondaries`` are the non-primary SLRs whose controller ran
    a packet of it."""
    primary = fabric.device.primary_slr
    executed: set[int] = set()
    batches: list[tuple[list[int], set[int]]] = []
    for controller in fabric.mcs:
        def execute(packet, _controller=controller,
                    _execute=controller.execute):
            executed.add(_controller.slr_index)
            return _execute(packet)
        monkeypatch.setattr(controller, "execute", execute)
    ring_run = fabric.jtag.run

    def run(words):
        executed.clear()
        result = ring_run(words)
        batches.append((list(words), executed - {primary}))
        return result
    monkeypatch.setattr(fabric.jtag, "run", run)
    return batches


class TestSecondaryTargets:
    """The ``stuck`` fault judges a batch by the secondary SLRs it
    addresses; that set must be the one the ring executes on."""

    def test_session_batches_match_the_ring(self, monkeypatch):
        fabric, debugger = launch_session(
            compile_design(campaign_design("manycore"), CLOCKS_MHZ))
        assert fabric.device.slr_count > 1
        batches = spy_executed_secondaries(monkeypatch, fabric)
        debugger.record_input("en", 1)
        debugger.run(20)
        debugger.pause()
        snapshot = debugger.read_state()
        debugger.restore(snapshot)
        assert any(secondaries for _, secondaries in batches)
        for words, secondaries in batches:
            assert set(fabric.transport._secondary_targets(words)) \
                == secondaries

    @pytest.mark.parametrize("slr_count", [2, 3])
    def test_hand_built_hop_groups_match_the_ring(self, monkeypatch,
                                                  slr_count):
        fabric = FabricDevice(make_test_device(slr_count))
        batches = spy_executed_secondaries(monkeypatch, fabric)
        groups = range(1, slr_count + 2)
        streams = [stat_read_stream(pulses) for pulses in groups]
        streams += [stat_read_stream(pulses, nop=True)
                    for pulses in groups]
        streams += [stat_read_stream(*groups),
                    stat_read_stream(trailing=1),
                    stat_read_stream(1, trailing=slr_count)]
        for words in streams:
            fabric.jtag.run(words)
        assert len(batches) == len(streams)
        assert any(secondaries for _, secondaries in batches)
        for words, secondaries in batches:
            assert set(fabric.transport._secondary_targets(words)) \
                == secondaries
