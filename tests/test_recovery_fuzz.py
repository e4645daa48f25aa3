"""Seeded crash-recovery fuzzing: kill the session at *every* journaled
command boundary (both edges) across three designs — one of them
multi-SLR — and assert the recovered session is bit-identical to an
uncrashed golden run.

The WAL invariant fuzzed for: a crash at boundary ``k`` leaves records
``0..k`` durable, and replaying them on a fresh fabric reproduces
exactly the state after command ``k`` — registers, memories, and
content hash. A failure's design and boundary are in the assertion
message; the command script is seeded so it reproduces from the test id.
Designs, script and sessions are the chaos campaign's: the campaign
table's pipeline, Cohort and manycore entries at its 1:1 clock map.
"""

import pytest

from repro.campaign.designs import (
    campaign_design,
    compile_design,
    launch_session,
)
from repro.chaos import (
    FaultSchedule,
    FaultSpec,
    get_supervisor,
    install_chaos,
)
from repro.chaos.campaign import (
    CLOCKS_MHZ,
    DEFAULT_DESIGNS,
    apply_step,
    script_for,
)
from repro.chaos.supervise import RETRIES
from repro.debug import diff_snapshots, enable_crash_safety, recover_session
from repro.errors import SessionCrashedError

SEED = 2024


def _armed(*specs, seed=0):
    return FaultSchedule(seed=seed, specs=specs).registry()


@pytest.mark.fuzz
@pytest.mark.parametrize("name", sorted(DEFAULT_DESIGNS),
                         ids=lambda name: f"{name}-seed{SEED}")
def test_recovery_is_bit_identical_at_every_boundary(name, tmp_path):
    compiled = compile_design(campaign_design(name), CLOCKS_MHZ)
    script = script_for(name, compiled, SEED)
    for boundary in range(len(script)):
        # alternate which side of the boundary the process dies on;
        # the durable journal prefix — and thus recovery — is the same
        before = boundary % 2 == 0
        workdir = tmp_path / f"crash{boundary}"
        _, debugger = launch_session(compiled)
        enable_crash_safety(debugger, workdir)
        kill = FaultSpec(site="debug.command",
                         kind="crash_before" if before else "crash_after",
                         at=boundary)
        context = (f"design={name} seed={SEED} boundary={boundary} "
                   f"before_apply={before}")
        with install_chaos(_armed(kill)), \
                pytest.raises(SessionCrashedError):
            for step in script:
                apply_step(debugger, step)

        _, recovered = launch_session(compiled)
        recover_session(recovered, workdir)

        _, golden = launch_session(compiled)
        for step in script[:boundary + 1]:
            apply_step(golden, step)

        g = golden.engine.snapshot()
        r = recovered.engine.snapshot()
        assert diff_snapshots(g, r) == {}, (
            f"{context}: registers diverged "
            f"{diff_snapshots(g, r)}")
        assert g.memories == r.memories, (
            f"{context}: memory contents diverged")
        assert g.content_key() == r.content_key(), (
            f"{context}: content keys diverged")


@pytest.mark.fuzz
def test_multi_slr_memory_survives_crash_during_write(tmp_path):
    """Crash on a transport batch *inside* the secondary-SLR memory
    write — the nastiest point — then prove recovery replays it."""
    compiled = compile_design(campaign_design("manycore"), CLOCKS_MHZ)
    _, debugger = launch_session(compiled)
    enable_crash_safety(debugger, tmp_path)
    debugger.record_input("en", 1)
    debugger.run(20)
    debugger.pause()
    mem = compiled[2].database.netlist.memories["core1.rf"]
    words = [(i * 3 + 1) % (1 << mem.width) for i in range(mem.depth)]
    kill = FaultSpec(site="transport.batch", kind="crash", at=0)
    with install_chaos(_armed(kill)), pytest.raises(SessionCrashedError):
        debugger.write_memory("core1.rf", words)

    _, recovered = launch_session(compiled)
    recover_session(recovered, tmp_path)

    _, golden = launch_session(compiled)
    golden.record_input("en", 1)
    golden.run(20)
    golden.pause()
    golden.write_memory("core1.rf", words)

    g = golden.engine.snapshot()
    r = recovered.engine.snapshot()
    assert g.memories["core1.rf"] == r.memories["core1.rf"] == words
    assert g.content_key() == r.content_key()


# ---------------------------------------------------------------------------
# chaos kill points: faults *inside* the durability machinery itself
# ---------------------------------------------------------------------------
#
# The boundary fuzz above kills the process between commands. These
# tests kill it *inside* SnapshotStore.put — every fault kind the chaos
# registry documents for that site — and assert recovery still
# converges to the golden run bit-for-bit.

from repro.errors import DiskFaultError  # noqa: E402


@pytest.mark.fuzz
@pytest.mark.parametrize("kind", ["torn_write", "bit_rot", "enospc"])
def test_recovery_survives_faulted_snapshot_put(kind, tmp_path):
    """Fault SnapshotStore.put during the script's first checkpoint:
    torn and ENOSPC puts abort the command, bit-rot lands silently —
    recovery must skip the damaged base and still converge."""
    compiled = compile_design(campaign_design("pipeline"), CLOCKS_MHZ)
    script = script_for("pipeline", compiled, SEED)
    snap_index = next(i for i, s in enumerate(script)
                      if s[0] == "snapshot")

    _, debugger = launch_session(compiled)
    enable_crash_safety(debugger, tmp_path)
    for step in script[:snap_index]:
        apply_step(debugger, step)
    # One tear is retried and lands; a tear that outlasts every retry
    # aborts the put and leaves the torn object on disk.
    if kind == "torn_write":
        spec = FaultSpec(site="snapstore.put", kind=kind, rate=1.0,
                         count=RETRIES + 1)
    else:
        spec = FaultSpec(site="snapstore.put", kind=kind, at=0)
    registry = _armed(spec, seed=SEED)
    with install_chaos(registry):
        if kind == "bit_rot":
            debugger.snapshot("first")  # lands, silently damaged
        else:
            with pytest.raises(DiskFaultError):
                debugger.snapshot("first")
    assert registry.faults_fired == (RETRIES + 1
                                     if kind == "torn_write" else 1)

    # The process "dies" here. The journal already holds the snapshot
    # record (write-ahead), so replay re-executes it.
    _, recovered = launch_session(compiled)
    report = recover_session(recovered, tmp_path)
    if kind != "enospc":
        # A damaged checkpoint file exists on disk; recovery must have
        # refused to trust it rather than restoring garbage.
        assert report.base_index is None or report.skipped_bases >= 1

    _, golden = launch_session(compiled)
    for step in script[:snap_index + 1]:
        apply_step(golden, step)

    g = golden.engine.snapshot()
    r = recovered.engine.snapshot()
    assert diff_snapshots(g, r) == {}, f"kind={kind}"
    assert g.content_key() == r.content_key(), f"kind={kind}"


@pytest.mark.fuzz
def test_lockstep_faulted_run_matches_clean_twin(tmp_path):
    """Run the full script on two sessions in lockstep — one supervised
    under recoverable faults, one clean — and compare design state
    after *every* command, not just at the end. Modeled-time adversity
    (retries, repairs, hangs) must never leak into design cycles."""
    compiled = compile_design(campaign_design("pipeline"), CLOCKS_MHZ)
    script = script_for("pipeline", compiled, SEED)

    _, clean = launch_session(compiled)
    _, faulted = launch_session(compiled)
    enable_crash_safety(faulted, tmp_path)

    sup = get_supervisor()
    sup.reset()
    registry = _armed(
        FaultSpec(site="journal.sync", kind="torn_write", rate=0.4,
                  count=4),
        FaultSpec(site="snapstore.put", kind="torn_write", rate=0.5,
                  count=2),
        FaultSpec(site="fabric.pause_write", kind="pause_stuck",
                  rate=0.5, count=2),
        FaultSpec(site="transport.batch", kind="device_hang", rate=0.05,
                  count=2),
        seed=SEED)
    try:
        with install_chaos(registry):
            for index, step in enumerate(script):
                apply_step(clean, step)
                apply_step(faulted, step)
                g = clean.engine.snapshot()
                f = faulted.engine.snapshot()
                assert g.content_key() == f.content_key(), (
                    f"diverged after step {index} "
                    f"({step[0]}): {diff_snapshots(g, f)}")
        assert registry.faults_fired > 0, \
            "schedule never fired; test is vacuous"
    finally:
        sup.reset()
