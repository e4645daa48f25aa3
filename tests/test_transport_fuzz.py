"""Seeded fault-injection fuzzing of the debug control plane.

Mutation testing for the configuration plane: each case drives a full
debug workload (readback, state writes, memory writes, snapshot/
restore) over a channel perturbed by a seeded
:class:`~repro.chaos.FaultSchedule` of ``transport.batch`` faults, and
cross-checks every value the transport delivers against simulator
truth. The invariant fuzzed for: *corruption is either detected (typed
TransportError) or absent — never a silently wrong value.*

Marked ``fuzz`` and wired into the tier-1 run; a failure's seed is in
the test id and every assertion message, so it reproduces with e.g.
``pytest tests/test_transport_fuzz.py -k "seed3"``.
"""

import pytest

from repro import Zoomie, ZoomieProject
from repro.chaos import FaultSchedule, FaultSpec, install_chaos
from repro.config import RetryPolicy
from repro.designs import make_cluster
from repro.errors import TransportError

SEEDS = range(6)


def launch():
    project = ZoomieProject(
        design=make_cluster(cores=2, imem_depth=64), device="TEST2",
        clocks={"clk": 100.0}, watch=["retired_count"])
    session = Zoomie(project).launch()
    session.poke_input("en", 1)
    return session


def harsh_channel(seed):
    """Install a hostile channel for a ``with`` block."""
    rates = {"read_flip": 0.3, "truncate": 0.15, "drop_hop": 0.2,
             "stuck": 0.2}
    specs = [FaultSpec(site="transport.batch", kind=kind, rate=rate,
                       count=10**6) for kind, rate in rates.items()]
    return install_chaos(FaultSchedule(seed=seed, specs=specs).registry())


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
def test_fuzzed_channel_never_yields_wrong_values(seed):
    session = launch()
    fabric, dbg = session.fabric, session.debugger
    fabric.transport.policy = RetryPolicy(max_attempts=16)
    detected = 0
    with harsh_channel(seed):
        for round_index in range(4):
            dbg.resume()
            dbg.run(11 + round_index)
            dbg.pause()
            context = f"seed={seed} round={round_index}"
            try:
                state = dbg.read_state()
            except TransportError:
                detected += 1
                continue
            for name, value in state.values.items():
                assert value == fabric.sim.peek(name), (
                    f"{context}: silently corrupt register {name}")
            for name, words in state.memories.items():
                truth = list(fabric.sim.memories[name])
                assert words == truth, (
                    f"{context}: silently corrupt memory {name}")
    stats = fabric.transport.stats
    # The harsh channel must actually have bitten somewhere: either a
    # detected-and-retried fault or an exhausted batch.
    assert stats.corrupt_detected + stats.command_faults_detected \
        + stats.stuck_detected + detected > 0, f"seed={seed}: no faults?"


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
def test_fuzzed_writes_apply_exactly_or_error(seed):
    session = launch()
    fabric, dbg = session.fabric, session.debugger
    dbg.run(20)
    dbg.pause()
    fabric.transport.policy = RetryPolicy(max_attempts=16)
    mem = fabric.db.netlist.memories["imem"]
    rng_words = [(seed * 31 + i * 7) % (1 << mem.width)
                 for i in range(mem.depth)]
    try:
        with harsh_channel(seed):
            dbg.write_state({"core0.acc": (seed + 1) & 0xF,
                             "core1.acc": (seed + 2) & 0xF})
            dbg.write_memory("imem", rng_words)
    except TransportError:
        return  # detected, surfaced, acceptable
    assert fabric.sim.peek("core0.acc") == (seed + 1) & 0xF, f"seed={seed}"
    assert fabric.sim.peek("core1.acc") == (seed + 2) & 0xF, f"seed={seed}"
    assert list(fabric.sim.memories["imem"]) == rng_words, f"seed={seed}"


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
def test_fuzzed_snapshot_restore_roundtrip(seed):
    session = launch()
    fabric, dbg = session.fabric, session.debugger
    dbg.run(25 + seed)
    dbg.pause()
    fabric.transport.policy = RetryPolicy(max_attempts=16)
    try:
        with harsh_channel(seed):
            snap = dbg.snapshot(label=f"fuzz{seed}")
            dbg.resume()
            dbg.run(13)
            dbg.pause()
            dbg.restore(snap)
    except TransportError:
        return
    for name, value in snap.values.items():
        if name in fabric.db.netlist.registers:
            assert fabric.sim.peek(name) == value, (
                f"seed={seed}: restore mismatch on {name}")
    for name, words in snap.memories.items():
        assert list(fabric.sim.memories[name]) == words, (
            f"seed={seed}: restore mismatch on memory {name}")
