"""Seeded crash-recovery fuzzing: kill the session at *every* journaled
command boundary (both edges) across three designs — one of them
multi-SLR — and assert the recovered session is bit-identical to an
uncrashed golden run.

The WAL invariant fuzzed for: a crash at boundary ``k`` leaves records
``0..k`` durable, and replaying them on a fresh fabric reproduces
exactly the state after command ``k`` — registers, memories, and
content hash. A failure's design and boundary are in the assertion
message; the command script is seeded so it reproduces from the test id.
"""

import random

import pytest

from repro.chaos import (
    FaultSchedule,
    FaultSpec,
    SuperviseConfig,
    get_supervisor,
    install_chaos,
)
from repro.config import FabricDevice
from repro.debug import (
    ZoomieDebugger,
    diff_snapshots,
    enable_crash_safety,
    instrument_netlist,
    recover_session,
)
from repro.designs import make_cluster, make_cohort_soc, make_pipeline
from repro.errors import SessionCrashedError
from repro.fpga import make_test_device
from repro.rtl import elaborate
from repro.vendor import VivadoFlow
from repro.vendor.place import whole_slr

SEED = 2024


def _armed(*specs, seed=0):
    return FaultSchedule(seed=seed, specs=specs).registry()


def compile_design(design, watch, constraints=None):
    device = make_test_device()
    netlist = elaborate(design)
    inst = instrument_netlist(netlist, watch=watch)
    flow = VivadoFlow(device)
    clocks = {domain: 100.0 for domain in netlist.clock_domains()}
    result = flow.compile_netlist(netlist, clocks,
                                  gate_signals=inst.gate_signals,
                                  constraints=constraints)
    return device, inst, result


def fresh_session(compiled):
    device, inst, result = compiled
    fabric = FabricDevice(device)
    fabric.expect(result.database)
    fabric.jtag.run(result.bitstream)
    return fabric, ZoomieDebugger(fabric, inst)


def script_for(name, compiled, seed):
    """A seeded command script exercising every journaled verb."""
    rng = random.Random(seed)
    _, _, result = compiled
    registers = sorted(r for r in result.database.netlist.registers
                       if not r.startswith("zoomie_"))
    memories = sorted(result.database.memory_map)
    target = rng.choice(registers)
    inputs = {
        "cohort": [("en", 1)],
        "pipeline": [("in_valid", 1), ("in_data", rng.randrange(256)),
                     ("out_ready", 1)],
        "cluster": [("en", 1)],
    }[name]
    script = [("poke", pin, value) for pin, value in inputs]
    script += [
        ("run", 20 + rng.randrange(20)),
        ("pause",),
        ("snapshot", "first"),
        ("force", target, rng.randrange(1 << 4)),
        ("step", 1 + rng.randrange(4)),
    ]
    if memories:
        mem_name = memories[-1]
        mem = result.database.netlist.memories[mem_name]
        words = [rng.randrange(1 << min(mem.width, 16))
                 for _ in range(mem.depth)]
        script.append(("write_memory", mem_name, words))
    script += [
        ("snapshot", "second"),
        ("resume",),
        ("run", 10 + rng.randrange(10)),
        ("pause",),
    ]
    return script


def apply_script(fabric, debugger, script, upto=None):
    for index, step in enumerate(script):
        if upto is not None and index >= upto:
            break
        verb, *args = step
        if verb == "poke":
            debugger.record_input(*args)
        elif verb == "run":
            debugger.run(max_cycles=args[0])
        elif verb == "pause":
            debugger.pause()
        elif verb == "resume":
            debugger.resume()
        elif verb == "snapshot":
            debugger.snapshot(args[0])
        elif verb == "force":
            debugger.force(*args)
        elif verb == "step":
            debugger.step(args[0])
        elif verb == "write_memory":
            debugger.write_memory(args[0], args[1])
        else:  # pragma: no cover
            raise AssertionError(f"unknown script verb {verb}")


DESIGNS = {
    "cohort": lambda: compile_design(
        make_cohort_soc(with_bug=False), watch=["issued"]),
    "pipeline": lambda: compile_design(
        make_pipeline(depth=4, width=16), watch=["v3"]),
    # core1 pinned to SLR 1: journal replay must cross the JTAG ring
    # to a secondary controller, and core1.rf content frames live there
    "cluster": lambda: compile_design(
        make_cluster(cores=2, imem_depth=64), watch=["retired_count"],
        constraints={"core1": whole_slr(make_test_device(), 1)}),
}


@pytest.mark.fuzz
@pytest.mark.parametrize("name", sorted(DESIGNS),
                         ids=[f"{n}-seed{SEED}" for n in sorted(DESIGNS)])
def test_recovery_is_bit_identical_at_every_boundary(name, tmp_path):
    compiled = DESIGNS[name]()
    script = script_for(name, compiled, SEED)
    for boundary in range(len(script)):
        # alternate which side of the boundary the process dies on;
        # the durable journal prefix — and thus recovery — is the same
        before = boundary % 2 == 0
        workdir = tmp_path / f"crash{boundary}"
        fabric, debugger = fresh_session(compiled)
        enable_crash_safety(debugger, workdir)
        kill = FaultSpec(site="debug.command",
                         kind="crash_before" if before else "crash_after",
                         at=boundary)
        context = (f"design={name} seed={SEED} boundary={boundary} "
                   f"before_apply={before}")
        with install_chaos(_armed(kill)), \
                pytest.raises(SessionCrashedError):
            apply_script(fabric, debugger, script)

        _, recovered = fresh_session(compiled)
        recover_session(recovered, workdir)

        gold_fabric, golden = fresh_session(compiled)
        apply_script(gold_fabric, golden, script, upto=boundary + 1)

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
    compiled = DESIGNS["cluster"]()
    fabric, debugger = fresh_session(compiled)
    enable_crash_safety(debugger, tmp_path)
    debugger.record_input("en", 1)
    debugger.run(20)
    debugger.pause()
    mem = compiled[2].database.netlist.memories["core1.rf"]
    words = [(i * 3 + 1) % (1 << mem.width) for i in range(mem.depth)]
    kill = FaultSpec(site="transport.batch", kind="crash", at=0)
    with install_chaos(_armed(kill)), pytest.raises(SessionCrashedError):
        debugger.write_memory("core1.rf", words)

    _, recovered = fresh_session(compiled)
    recover_session(recovered, tmp_path)

    gold_fabric, golden = fresh_session(compiled)
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
# tests kill it *inside* SnapshotStore.put and PlanDiskStore.merge —
# every fault kind the chaos registry documents for those sites — and
# assert recovery still converges to the golden run bit-for-bit.

from repro.errors import DiskFaultError  # noqa: E402
from repro.rtl.plan_store import PlanDiskStore  # noqa: E402


@pytest.mark.fuzz
@pytest.mark.parametrize("kind", ["torn_write", "bit_rot", "enospc"])
def test_recovery_survives_faulted_snapshot_put(kind, tmp_path):
    """Fault SnapshotStore.put during the script's first checkpoint:
    torn and ENOSPC puts abort the command, bit-rot lands silently —
    recovery must skip the damaged base and still converge."""
    compiled = DESIGNS["pipeline"]()
    script = script_for("pipeline", compiled, SEED)
    snap_index = next(i for i, s in enumerate(script)
                      if s[0] == "snapshot")

    fabric, debugger = fresh_session(compiled)
    enable_crash_safety(debugger, tmp_path)
    apply_script(fabric, debugger, script, upto=snap_index)
    registry = _armed(FaultSpec(site="snapstore.put", kind=kind, at=0),
                      seed=SEED)
    with install_chaos(registry):
        if kind == "bit_rot":
            debugger.snapshot("first")  # lands, silently damaged
        else:
            with pytest.raises(DiskFaultError):
                debugger.snapshot("first")
    assert registry.faults_fired == 1

    # The process "dies" here. The journal already holds the snapshot
    # record (write-ahead), so replay re-executes it.
    _, recovered = fresh_session(compiled)
    report = recover_session(recovered, tmp_path)
    if kind != "enospc":
        # A damaged checkpoint file exists on disk; recovery must have
        # refused to trust it rather than restoring garbage.
        assert report.base_index is None or report.skipped_bases >= 1

    gold_fabric, golden = fresh_session(compiled)
    apply_script(gold_fabric, golden, script, upto=snap_index + 1)

    g = golden.engine.snapshot()
    r = recovered.engine.snapshot()
    assert diff_snapshots(g, r) == {}, f"kind={kind}"
    assert g.content_key() == r.content_key(), f"kind={kind}"


@pytest.mark.fuzz
@pytest.mark.parametrize("kind", ["torn_write", "enospc"])
def test_plan_store_merge_faults_degrade_not_corrupt(kind, tmp_path):
    """A faulted merge is a skipped cache write, never a poisoned
    store: the degradation is recorded, later loads stay coherent, and
    a clean re-merge repairs the entry."""
    sup = get_supervisor()
    sup.reset()
    store = PlanDiskStore(tmp_path, limit=8)
    store.merge("fp-keep", {"settle": "def keep(): pass"})

    registry = _armed(FaultSpec(site="planstore.merge", kind=kind,
                                at=0), seed=SEED)
    with install_chaos(registry):
        store.merge("fp-hurt", {"settle": "def hurt(): pass"})
    assert registry.faults_fired == 1
    assert any(d.fallback == "cache.write_skipped"
               for d in sup.degradations)

    # Unrelated entries are untouched; the faulted one is at worst a
    # miss (torn file or absent file), never a crash or a wrong plan.
    assert store.load("fp-keep") is not None
    assert store.load("fp-hurt") is None

    store.merge("fp-hurt", {"settle": "def hurt(): pass"})
    assert set(store.load("fp-hurt")) == {"settle"}


@pytest.mark.fuzz
def test_lockstep_faulted_run_matches_clean_twin(tmp_path):
    """Run the full script on two sessions in lockstep — one supervised
    under recoverable faults, one clean — and compare design state
    after *every* command, not just at the end. Modeled-time adversity
    (retries, repairs, hangs) must never leak into design cycles."""
    compiled = DESIGNS["pipeline"]()
    script = script_for("pipeline", compiled, SEED)

    clean_fabric, clean = fresh_session(compiled)
    faulted_fabric, faulted = fresh_session(compiled)
    enable_crash_safety(faulted, tmp_path)

    sup = get_supervisor()
    sup.enable(SuperviseConfig())
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
            for index in range(len(script)):
                apply_script(clean_fabric, clean, script[index:index + 1])
                apply_script(faulted_fabric, faulted,
                             script[index:index + 1])
                g = clean.engine.snapshot()
                f = faulted.engine.snapshot()
                assert g.content_key() == f.content_key(), (
                    f"diverged after step {index} "
                    f"({script[index][0]}): {diff_snapshots(g, f)}")
        assert registry.faults_fired > 0, \
            "schedule never fired; test is vacuous"
    finally:
        sup.disable()
        sup.reset()
