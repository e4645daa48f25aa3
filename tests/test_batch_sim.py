"""Differential and lane-isolation tests for batched simulation.

The contract under test: every lane of a K-batched run is bit-identical
to a scalar run fed the same stimulus — across the paper's designs
(counter, Cohort SoC, multi-SLR cluster), randomized multi-clock
netlists, gating, per-domain stepping, force(), and snapshot/restore
mid-batch. Lane isolation is additionally fuzzed on an operator zoo
with adversarial neighbour lanes (all-ones next door, sign-bit
boundaries) to catch any carry/borrow/shift bleeding across lanes.
"""

import random

import pytest

from repro.designs import make_cluster, make_cohort_soc, make_counter
from repro.errors import SimulationError
from repro.obs import get_registry
from repro.rtl import (
    BatchSimulator,
    BinaryOp,
    Const,
    ModuleBuilder,
    Mux,
    Repl,
    Simulator,
    Slice,
    UnaryOp,
    cat,
    clear_plan_cache,
    elaborate,
    reduce_and,
    reduce_or,
    reduce_xor,
)

from tests.test_differential_fused import _rand_design


@pytest.fixture(autouse=True)
def _fresh_plan_cache():
    """Each test compiles its plans from scratch."""
    clear_plan_cache()
    yield
    clear_plan_cache()


# ---------------------------------------------------------------------------
# lockstep driving: one scalar simulator per lane
# ---------------------------------------------------------------------------

def _assert_lanes_match(batch, scalars):
    for lane, sim in enumerate(scalars):
        assert batch.extract_lane(lane) == sim.snapshot(), f"lane {lane}"


def _lane_signals(batch, lane):
    batch._settle()
    return {name: batch._get_lane(name, lane)
            for name in batch.netlist.signals}


def _lockstep(net, lanes, steps, rng, clocks=None):
    """Drive a batch and per-lane scalar twins with identical random
    stimulus (per-lane pokes/forces, shared gating and stepping),
    asserting bit-identity after every action."""
    scalars = [Simulator(net, clocks=clocks) for _ in range(lanes)]
    batch = BatchSimulator(net, lanes, clocks=clocks)
    inputs = sorted(net.inputs)
    registers = sorted(net.registers)
    domains = sorted(batch.domains)
    for _ in range(steps):
        act = rng.random()
        if act < 0.5:
            name = rng.choice(inputs)
            for lane, sim in enumerate(scalars):
                value = rng.getrandbits(net.width(name))
                sim.poke(name, value)
                batch.poke(name, value, lane=lane)
        elif act < 0.6 and registers:
            name = rng.choice(registers)
            for lane, sim in enumerate(scalars):
                value = rng.getrandbits(net.registers[name].width)
                sim.force(name, value)
                batch.force(name, value, lane=lane)
        elif act < 0.7:
            domain = rng.choice(domains)
            gate = rng.random() < 0.5
            for sim in scalars:
                sim.set_clock_gate(domain, gate)
            batch.set_clock_gate(domain, gate)
        if rng.random() < 0.3:
            domain = rng.choice(domains)
            n = rng.randrange(1, 4)
            for sim in scalars:
                sim.step(n, domain=domain)
            batch.step(n, domain=domain)
        else:
            n = rng.randrange(1, 5)
            for sim in scalars:
                sim.step(n)
            batch.step(n)
        _assert_lanes_match(batch, scalars)
    for domain in domains:
        for sim in scalars:
            sim.set_clock_gate(domain, False)
        batch.set_clock_gate(domain, False)
    return batch, scalars


# ---------------------------------------------------------------------------
# the paper's designs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("maker", [
    lambda: make_counter(8),
    lambda: make_cohort_soc(with_bug=False),
    make_cluster,
], ids=["counter", "cohort-soc", "slr-cluster"])
def test_batched_lanes_match_scalar(maker):
    net = elaborate(maker())
    rng = random.Random(2024)
    batch, scalars = _lockstep(net, 4, 30, rng)
    # Every combinational signal matches too, not just architectural state.
    for lane, sim in enumerate(scalars):
        assert _lane_signals(batch, lane) == \
            {name: sim.peek(name) for name in net.signals}


@pytest.mark.parametrize("seed", range(8))
def test_randomized_multiclock_differential(seed):
    net = _rand_design(seed)
    clocks = {"clk": 1000, "aux": 1000 if seed % 2 == 0 else 700}
    _lockstep(net, 4, 25, random.Random(seed * 37 + 5), clocks=clocks)


def test_snapshot_restore_mid_batch():
    """Batch-native snapshot taken mid-run restores all lanes exactly:
    post-restore replay stays lane-identical to scalar twins that were
    restored to the same point."""
    net = _rand_design(3)
    rng = random.Random(99)
    batch, scalars = _lockstep(net, 4, 10, rng)
    batch_snap = batch.snapshot()
    scalar_snaps = [sim.snapshot() for sim in scalars]
    _lockstep_continue = random.Random(100)
    for sim in scalars:
        sim.step(17)
    batch.step(17)
    del _lockstep_continue
    batch.restore(batch_snap)
    for sim, snap in zip(scalars, scalar_snaps):
        sim.restore(snap)
    _assert_lanes_match(batch, scalars)
    for sim in scalars:
        sim.step(9)
    batch.step(9)
    _assert_lanes_match(batch, scalars)


def test_restore_rejects_mismatched_shape():
    net = elaborate(make_counter(8))
    snap = BatchSimulator(net, 4).snapshot()
    with pytest.raises(SimulationError):
        BatchSimulator(net, 8).restore(snap)


def test_extract_lane_resumes_on_scalar_simulator():
    """A lane pulled out of a batch resumes bit-exact on a scalar
    Simulator — the debug path for zooming into one run of a campaign."""
    net = _rand_design(6)
    batch = BatchSimulator(net, 4)
    rng = random.Random(7)
    for lane in range(4):
        for name in sorted(net.inputs):
            batch.poke(name, rng.getrandbits(net.width(name)), lane=lane)
    batch.step(21)
    scalar = Simulator(net)
    scalar.restore(batch.extract_lane(2))
    assert scalar.snapshot() == batch.extract_lane(2)
    for _ in range(10):
        value = rng.getrandbits(net.width("in0"))
        scalar.poke("in0", value)
        batch.poke("in0", value, lane=2)
        scalar.step(2)
        batch.step(2)
        assert scalar.snapshot() == batch.extract_lane(2)


def test_to_batch_fans_out_a_scalar_run():
    """Simulator.to_batch broadcasts the current state (and clock
    bookkeeping) into every lane; lanes then diverge independently."""
    net = elaborate(make_counter(8))
    sim = Simulator(net)
    sim.poke("en", 1)
    sim.step(13)
    batch = sim.to_batch(4)
    for lane in range(4):
        assert batch.extract_lane(lane) == sim.snapshot()
    # Diverge: lane i counts iff i is odd.
    for lane in range(4):
        batch.poke("en", lane % 2, lane=lane)
    batch.step(5)
    for lane in range(4):
        assert batch.peek("count", lane) == (13 + 5 * (lane % 2)) % 256
    assert batch.cycles("clk") == 18


def test_inject_lane_roundtrip():
    net = _rand_design(4)
    scalar = Simulator(net)
    scalar.poke("in0", 5)
    scalar.step(11)
    snap = scalar.snapshot()
    batch = BatchSimulator(net, 3)
    batch.inject_lane(1, snap)
    out = batch.extract_lane(1)
    for section in ("registers", "memories", "inputs", "read_ports"):
        assert out[section] == snap[section]


def test_gated_domain_holds_on_every_lane():
    net = _rand_design(77)
    batch = BatchSimulator(net, 4)
    rng = random.Random(1)
    for lane in range(4):
        for name in sorted(net.inputs):
            batch.poke(name, rng.getrandbits(net.width(name)), lane=lane)
    batch.step(5)
    aux_regs = [name for name, reg in net.registers.items()
                if reg.clock == "aux"]
    before = {(name, lane): batch.peek(name, lane)
              for name in aux_regs for lane in range(4)}
    batch.set_clock_gate("aux", True)
    batch.step(20)
    for (name, lane), value in before.items():
        assert batch.peek(name, lane) == value
    assert batch.cycles("aux") == 5
    assert batch.domains["aux"].edges_seen == 25


# ---------------------------------------------------------------------------
# lane-isolation fuzz: the operator zoo
# ---------------------------------------------------------------------------

_ZOO_WIDTH = 8


def _op_zoo_module():
    """Every operator the emitter handles, as one module: any cross-lane
    carry, borrow, or shift bleed shows up as a wrong output lane."""
    b = ModuleBuilder("op_zoo")
    a = b.input("a", _ZOO_WIDTH)
    c = b.input("c", _ZOO_WIDTH)
    sh = b.input("sh", 4)
    acc = b.reg("acc", _ZOO_WIDTH, clock="clk",
                reset=a.eq(c), reset_value=0xA5, enable=c.bit(0))
    b.next("acc", acc + a)
    outs = {
        "o_add": a + c,
        "o_sub": a - c,
        "o_mul": a * c,
        "o_neg": UnaryOp("-", a),
        "o_not": ~a,
        "o_lnot": UnaryOp("!", a),
        "o_and": a & c,
        "o_or": a | c,
        "o_xor": a ^ c,
        "o_eq": a.eq(c),
        "o_ne": a.ne(c),
        "o_ltu": a.lt(c),
        "o_gtu": a.gt(c),
        "o_leu": a.le(c),
        "o_geu": a.ge(c),
        "o_lts": a.slt(c),
        "o_gts": a.sgt(c),
        "o_les": BinaryOp("<=s", a, c),
        "o_ges": BinaryOp(">=s", a, c),
        "o_shl": BinaryOp("<<", a, sh),
        "o_shr": BinaryOp(">>", a, sh),
        "o_sra": BinaryOp(">>>", a, sh),
        "o_shlc": BinaryOp("<<", a, Const(3, 3)),
        "o_shrc": BinaryOp(">>", a, Const(3, 3)),
        "o_shlc_big": BinaryOp("<<", a, Const(9, 4)),
        "o_rand": reduce_and(a),
        "o_ror": reduce_or(a),
        "o_rxor": reduce_xor(a),
        "o_mux": Mux(a.lt(c), a + c, a - c),
        "o_mux_wide_sel": Mux(a ^ c, a, c),
        "o_land": a.lt(c).logical_and(a.bit(0)),
        "o_lor": a.lt(c).logical_or(a.bit(7)),
        "o_cat": Slice(cat(a, c), 11, 4),
        "o_repl": Slice(Repl(Slice(a, 3, 0), 3), 9, 2),
    }
    for name, expr in outs.items():
        b.output_expr(name, expr)
    return elaborate(b.build()), sorted(outs)


#: Adversarial per-lane operand values: zero, all-ones, the signed
#: boundary, and its neighbours — the values carry/borrow/sign bugs love.
_BOUNDARY = [0, 1, 0xFF, 0x80, 0x7F, 0x81, 0xFE]


def test_lane_isolation_fuzz():
    """Random per-lane stimuli over the operator zoo: every output lane
    must equal its scalar twin on every op, including signed compares
    and overflow wrap, with hostile values in the neighbouring lanes."""
    net, out_names = _op_zoo_module()
    lanes = 8
    rng = random.Random(4242)
    scalars = [Simulator(net) for _ in range(lanes)]
    batch = BatchSimulator(net, lanes)

    def pick():
        return (rng.choice(_BOUNDARY) if rng.random() < 0.5
                else rng.getrandbits(_ZOO_WIDTH))

    for round_no in range(120):
        for lane, sim in enumerate(scalars):
            if round_no < len(_BOUNDARY) * 2:
                # Targeted rounds: one boundary lane, all-ones neighbours
                # (maximum carry/borrow pressure on adjacent lanes).
                a = _BOUNDARY[round_no % len(_BOUNDARY)] \
                    if lane == round_no % lanes else 0xFF
                c = 0xFF if lane != round_no % lanes else \
                    _BOUNDARY[(round_no // 2) % len(_BOUNDARY)]
            else:
                a, c = pick(), pick()
            shv = rng.randrange(16)
            for name, value in (("a", a), ("c", c), ("sh", shv)):
                sim.poke(name, value)
                batch.poke(name, value, lane=lane)
        batch.step(1)
        for sim in scalars:
            sim.step(1)
        for lane, sim in enumerate(scalars):
            for name in out_names:
                assert batch.peek(name, lane) == sim.peek(name), \
                    f"op {name} bled across lanes (lane {lane})"
            assert batch.peek("acc", lane) == sim.peek("acc")


# ---------------------------------------------------------------------------
# API edges and metrics
# ---------------------------------------------------------------------------

def test_lane_and_argument_validation():
    net = elaborate(make_counter(8))
    with pytest.raises(SimulationError):
        BatchSimulator(net, 0)
    batch = BatchSimulator(net, 2)
    with pytest.raises(SimulationError):
        batch.poke("en", 1, lane=2)
    with pytest.raises(SimulationError):
        batch.poke("count", 1)  # not an input
    with pytest.raises(SimulationError):
        batch.force("en", 1)  # not state
    with pytest.raises(SimulationError):
        batch.step(-1)


def test_batch_lanes_gauge_and_tick_counter():
    """Batch steps tally lane ticks only: the scalar ``sim.ticks`` and
    ``sim.runs`` (the end-to-end benchmark's simulated-cycle count)
    must not move."""
    net = elaborate(make_counter(8))
    registry = get_registry()
    names = ("sim.batch.lane_ticks", "sim.batch.runs", "sim.ticks",
             "sim.runs")
    before = {name: registry.counter(name).value for name in names}
    batch = BatchSimulator(net, 16)
    assert registry.gauge("sim.batch_lanes").value == 16
    batch.step(10)
    batch.step(3, domain="clk")
    after = {name: registry.counter(name).value - before[name]
             for name in names}
    assert after == {"sim.batch.lane_ticks": 208, "sim.batch.runs": 2,
                     "sim.ticks": 0, "sim.runs": 0}


def test_broadcast_poke_and_peek_all_lanes():
    net = elaborate(make_counter(8))
    batch = BatchSimulator(net, 3)
    batch.poke("en", 1)  # broadcast
    batch.step(4)
    assert batch.peek("count") == [4, 4, 4]
