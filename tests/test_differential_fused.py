"""Differential testing of the simulator's evaluation engines.

Randomized small netlists (seeded, reproducible) are executed in
lockstep on both engines — fused kernels vs the AST-walking interpreter
(the reference) — with identical stimulus: pokes, force(), clock-gating toggles, global
and per-domain stepping, and snapshot/restore mid-run. After every
action, *all* signals, every memory word, simulated time, and per-domain
clock bookkeeping must match bit-for-bit.

This is the correctness contract that lets the fused engine be the
default: any divergence between tiers is a bug by definition.
"""

import random

import pytest

from repro.designs import make_pipeline
from repro.errors import SimulationError
from repro.rtl import (
    BinaryOp,
    Concat,
    Const,
    ModuleBuilder,
    Mux,
    Simulator,
    Slice,
    StreamingTrace,
    UnaryOp,
    elaborate,
    plan_cache_stats,
)

# ---------------------------------------------------------------------------
# random design generation
# ---------------------------------------------------------------------------

_BINOPS = ["+", "-", "*", "&", "|", "^"]
_CMPOPS = ["==", "!=", "<", ">=", "<s", ">s"]
_SHIFTS = ["<<", ">>", ">>>"]


def _coerce(expr, width):
    """Zero-extend or truncate ``expr`` to exactly ``width`` bits."""
    if expr.width == width:
        return expr
    if expr.width > width:
        return Slice(expr, width - 1, 0)
    return Concat((Const(0, width - expr.width), expr))


def _rand_expr(rng, pool, width, depth):
    """A random expression tree of exactly ``width`` bits over ``pool``."""
    if depth <= 0 or rng.random() < 0.2:
        if pool and rng.random() < 0.8:
            return _coerce(rng.choice(pool), width)
        return Const(rng.getrandbits(width), width)
    kind = rng.randrange(6)
    if kind == 0:
        return BinaryOp(rng.choice(_BINOPS),
                        _rand_expr(rng, pool, width, depth - 1),
                        _rand_expr(rng, pool, width, depth - 1))
    if kind == 1:
        w = rng.randrange(1, 9)
        return _coerce(BinaryOp(rng.choice(_CMPOPS),
                                _rand_expr(rng, pool, w, depth - 1),
                                _rand_expr(rng, pool, w, depth - 1)), width)
    if kind == 2:
        return Mux(_rand_expr(rng, pool, 1, depth - 1),
                   _rand_expr(rng, pool, width, depth - 1),
                   _rand_expr(rng, pool, width, depth - 1))
    if kind == 3:
        return UnaryOp("~", _rand_expr(rng, pool, width, depth - 1))
    if kind == 4:
        shift = Const(rng.randrange(0, width + 2), 5)
        return BinaryOp(rng.choice(_SHIFTS),
                        _rand_expr(rng, pool, width, depth - 1), shift)
    return _coerce(
        _rand_expr(rng, pool, rng.randrange(1, 2 * width + 1), depth - 1),
        width)


def _rand_design(seed):
    """A random multi-clock design with registers (enable/reset mixes), a
    memory with async read + sync read + write ports, and wires.

    Memory address expressions are 4 bits over a depth-10 array, so
    out-of-range addresses (reads return 0, writes are dropped) are
    exercised constantly.
    """
    rng = random.Random(seed)
    b = ModuleBuilder(f"rand{seed}")
    pool = []
    for i in range(3):
        pool.append(b.input(f"in{i}", rng.randrange(1, 13)))
    domains = ["clk", "aux"]
    regs = []
    for i in range(rng.randrange(4, 7)):
        w = rng.randrange(1, 17)
        enable = _rand_expr(rng, pool, 1, 1) if rng.random() < 0.4 else None
        reset = _rand_expr(rng, pool, 1, 1) if rng.random() < 0.4 else None
        ref = b.reg(f"r{i}", w, init=rng.getrandbits(w),
                    clock=rng.choice(domains), reset=reset,
                    reset_value=rng.getrandbits(w), enable=enable)
        pool.append(ref)
        regs.append((f"r{i}", w))
    mem = b.memory("mem", width=8, depth=10,
                   init={a: rng.getrandbits(8) for a in range(10)})
    # Async read: address from registers/inputs only (the documented
    # supported pattern — addresses never depend on async read data).
    pool.append(b.read_port(mem, "mem_ar", _rand_expr(rng, pool, 4, 2)))
    pool.append(b.read_port(
        mem, "mem_sr", _rand_expr(rng, pool, 4, 2), sync=True,
        enable=_rand_expr(rng, pool, 1, 1) if rng.random() < 0.5 else None,
        clock=rng.choice(domains)))
    for i in range(rng.randrange(3, 6)):
        w = rng.randrange(1, 17)
        pool.append(b.wire_expr(f"w{i}", _rand_expr(rng, pool, w, 3)))
    # Write port sampled post-settle, so it may reference wires freely.
    b.write_port(mem, _rand_expr(rng, pool, 4, 2),
                 _rand_expr(rng, pool, 8, 2),
                 _rand_expr(rng, pool, 1, 2), clock=rng.choice(domains))
    for name, w in regs:
        b.next(name, _rand_expr(rng, pool, w, 3))
    b.output_expr("out", _rand_expr(rng, pool, 8, 3))
    return elaborate(b.build())


# ---------------------------------------------------------------------------
# lockstep driving
# ---------------------------------------------------------------------------

def _state(sim):
    """Complete observable state: every signal, every memory word, time,
    and per-domain clock bookkeeping."""
    sim._settle()
    out = {name: sim.peek(name) for name in sim.netlist.signals}
    for name, words in sim.memories.items():
        out[f"@{name}"] = tuple(words)
    out["@time_ps"] = sim.time_ps
    for name, dom in sim.domains.items():
        out[f"@{name}"] = (dom.cycles, dom.edges_seen,
                           dom.next_edge_ps, dom.gated)
    return out


def _drive(rng, sims, steps, stops=()):
    """Apply identical random stimulus to all sims, comparing complete
    state after every action. With ``stops``, half the steps carry one
    of those signals as their stop set, and every sim must run the same
    number of events."""
    net = sims[0].netlist
    inputs = sorted(net.inputs)
    registers = sorted(net.registers)
    domains = sorted(sims[0].domains)
    for _ in range(steps):
        until = ()
        if stops and rng.random() < 0.5:
            until = (rng.choice(stops),)
        act = rng.random()
        if act < 0.45:
            name = rng.choice(inputs)
            value = rng.getrandbits(net.width(name))
            for sim in sims:
                sim.poke(name, value)
        elif act < 0.55:
            name = rng.choice(registers)
            value = rng.getrandbits(net.registers[name].width)
            for sim in sims:
                sim.force(name, value)
        elif act < 0.65:
            domain = rng.choice(domains)
            gate = rng.random() < 0.5
            for sim in sims:
                sim.set_clock_gate(domain, gate)
        if rng.random() < 0.3:
            domain = rng.choice(domains)
            n = rng.randrange(1, 4)
            ran = {sim.step(n, domain=domain, until=until) for sim in sims}
        else:
            n = rng.randrange(1, 6)
            ran = {sim.step(n, until=until) for sim in sims}
        assert len(ran) == 1, f"stop set {until} ran {ran} events"
        reference = _state(sims[-1])
        for sim in sims[:-1]:
            assert _state(sim) == reference, \
                f"{sim.engine} diverged from {sims[-1].engine}"
    # Leave everything ungated so callers can keep driving.
    for domain in domains:
        for sim in sims:
            sim.set_clock_gate(domain, False)


SEEDS = list(range(10))


# ---------------------------------------------------------------------------
# the differential suites
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_fused_matches_interpreted(seed):
    """Fused kernels vs the AST interpreter over hundreds of cycles of
    random stimulus: pokes, force, gating, mixed global/domain stepping."""
    net = _rand_design(seed)
    clocks = {"clk": 1000, "aux": 1000 if seed % 2 == 0 else 700}
    sims = [Simulator(net, clocks=clocks, engine="fused"),
            Simulator(net, clocks=clocks, engine="interp")]
    _drive(random.Random(seed * 31 + 1), sims, 60)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_snapshot_restore_midrun_differential(seed):
    """Snapshot both engines mid-run, keep running, restore, run again —
    states must stay identical through the whole dance."""
    net = _rand_design(seed)
    rng = random.Random(seed * 31 + 3)
    sims = [Simulator(net, engine="fused"),
            Simulator(net, engine="interp")]
    _drive(rng, sims, 12)
    snaps = [sim.snapshot() for sim in sims]
    _drive(rng, sims, 12)
    for sim, snap in zip(sims, snaps):
        sim.restore(snap)
    _drive(rng, sims, 12)


def test_pre_edge_hook_forces_fallback_and_matches():
    """A pre-edge hook (poking an input between settle and sampling)
    routes the fused engine through the general tick; results must still
    match the interpreter running the same hook."""
    net = _rand_design(101)

    def make(engine):
        sim = Simulator(net, engine=engine)
        counter = {"n": 0}

        def hook(s, ticked):
            counter["n"] += 1
            s.poke("in0", counter["n"])
        sim.pre_edge_hooks.append(hook)
        return sim

    sims = [make("fused"), make("interp")]
    for _ in range(40):
        for sim in sims:
            sim.step(3)
        assert _state(sims[0]) == _state(sims[1])


def test_edge_hooks_observe_identical_sequences():
    """Post-edge hooks fire per committed edge on every engine (the fused
    tick kernel still runs them), and observe identical state."""
    net = _rand_design(55)
    seen = {"fused": [], "interp": []}

    def make(engine):
        sim = Simulator(net, engine=engine)

        def hook(s, ticked):
            seen[engine].append((tuple(sorted(ticked)), s.peek("out"),
                                 s.cycles("clk")))
        sim.edge_hooks.append(hook)
        return sim

    sims = [make("fused"), make("interp")]
    rng = random.Random(9)
    for _ in range(25):
        value = rng.getrandbits(net.width("in1"))
        for sim in sims:
            sim.poke("in1", value)
            sim.step(2)
    assert seen["fused"] == seen["interp"]
    assert len(seen["fused"]) == 25 * 2 * len(sims[0].domains) // 2


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_stop_sets_match_across_engines(seed):
    """Stop sets (``step(n, until=...)``) end a run on the same event in
    the ``:until:`` run kernel as in the interpreter's per-event check,
    under gating, skewed clocks and per-domain stepping. (Random designs
    settle into fixed points, so these stops land on the first event or
    never; the next test stops mid-run.)"""
    net = _rand_design(seed)
    clocks = {"clk": 1000, "aux": 1000 if seed % 2 == 0 else 700}
    sims = [Simulator(net, clocks=clocks, engine="fused"),
            Simulator(net, clocks=clocks, engine="interp")]
    _drive(random.Random(seed * 17 + 5), sims, 80,
           stops=sorted(net.registers))


@pytest.mark.parametrize("path", ["kernel", "domain", "capture",
                                  "hooked", "interp"])
def test_stop_set_ends_the_run_before_the_rising_event(path):
    """A valid bit reaches the pipeline's last stage after four edges,
    so ``until=("v3",)`` runs exactly four of ten events on every path:
    the run and capture kernels, per-domain stepping, the per-event
    loop a hook forces, and the interpreter."""
    sim = Simulator(elaborate(make_pipeline(depth=4, width=8)),
                    engine="interp" if path == "interp" else "fused")
    sim.poke("in_valid", 1)
    if path == "hooked":
        sim.edge_hooks.append(lambda sim, ticked: None)
    if path == "capture":
        trace = StreamingTrace(sim, ["v3"])
        assert trace.run(10, until=("v3",)) == 4
        assert trace.stop().series("v3") == [0, 0, 0, 0, 1]
    else:
        domain = "clk" if path == "domain" else None
        assert sim.step(10, domain=domain, until=("v3",)) == 4
    assert sim.cycles("clk") == sim.domains["clk"].edges_seen == 4
    assert sim.peek("v3") == 1
    assert sim.step(10, until=("v3",)) == 0


def test_gated_domains_disable_hot_loop_but_match():
    """With one domain gated, the batch hot loop must stand down and the
    gated domain's registers must hold, identically across engines."""
    net = _rand_design(77)
    sims = [Simulator(net, engine="fused"),
            Simulator(net, engine="interp")]
    for sim in sims:
        sim.set_clock_gate("aux", True)
    before = {name: sims[0].peek(name)
              for name, reg in net.registers.items() if reg.clock == "aux"}
    for sim in sims:
        sim.step(20)
    assert _state(sims[0]) == _state(sims[1])
    for name, value in before.items():
        assert sims[0].peek(name) == value  # gated domain held its state
    assert sims[0].cycles("aux") == 0
    assert sims[0].domains["aux"].edges_seen == 20


# ---------------------------------------------------------------------------
# satellite regressions
# ---------------------------------------------------------------------------

def test_snapshot_restores_clock_phase():
    """restore() must put clock-phase bookkeeping back (edges_seen,
    next_edge_ps, gating), so a restored multi-clock run replays exactly
    even when domain periods are mutually misaligned."""
    net = _rand_design(13)
    sim = Simulator(net, clocks={"clk": 1000, "aux": 300}, engine="fused")
    sim.poke("in0", 3)
    sim.run_to_time(3100)  # leaves clk/aux edges misaligned
    sim.set_clock_gate("aux", True)
    snap = sim.snapshot()
    assert snap["clocks"]["aux"]["gated"] is True
    sim.set_clock_gate("aux", False)

    first = []
    for _ in range(20):
        sim.step(1)
        first.append(_state(sim))
    sim.restore(snap)
    assert sim.is_gated("aux") is True
    sim.set_clock_gate("aux", False)
    replay = []
    for _ in range(20):
        sim.step(1)
        replay.append(_state(sim))
    assert replay == first


def test_restore_accepts_legacy_snapshots():
    """Snapshots without the clock-phase section (older captures) still
    restore architectural state and committed cycle counts."""
    net = _rand_design(13)
    sim = Simulator(net, engine="fused")
    sim.step(7)
    snap = sim.snapshot()
    del snap["clocks"]
    del snap["read_ports"]
    sim.step(5)
    sim.restore(snap)
    assert sim.cycles("clk") == 7


def test_no_clock_domains_raises_simulation_error():
    """An empty domain map must raise SimulationError, not a bare
    ValueError from min() over an empty sequence."""
    sim = Simulator(_rand_design(1))
    sim.domains.clear()
    with pytest.raises(SimulationError):
        sim.run_to_time(10_000)
    with pytest.raises(SimulationError):
        sim._advance_one_event()


def test_plan_cache_shares_compiled_plans():
    """Rebuilding simulators over the same netlist reuses one compiled
    plan (keyed by structural fingerprint) instead of recompiling."""
    net = _rand_design(42)
    fp = net.fingerprint()
    assert fp == net.fingerprint()  # deterministic
    first = Simulator(net, engine="fused")
    hits_before = plan_cache_stats()["hits"]
    second = Simulator(net, engine="fused")
    third = Simulator(net, engine="fused")
    assert first._plan is second._plan is third._plan
    assert plan_cache_stats()["hits"] >= hits_before + 2
    # A re-elaborated copy of the same module fingerprints identically.
    assert _rand_design(42).fingerprint() == fp
    # A different design does not.
    assert _rand_design(43).fingerprint() != fp


def test_single_settle_per_edge_without_pre_hooks():
    """The general tick settles once per edge when no pre-edge hooks are
    registered (it used to settle twice unconditionally)."""
    net = _rand_design(5)
    sim = Simulator(net, engine="interp")
    calls = {"n": 0}
    inner = sim._settle_fn

    def counting(env):
        calls["n"] += 1
        inner(env)
    sim._settle_fn = counting
    sim.step(10)
    assert calls["n"] <= 10  # one settle per edge (dirty-guarded)
    sim.pre_edge_hooks.append(lambda s, t: s.poke("in0", 1))
    calls["n"] = 0
    sim.step(10)
    assert calls["n"] == 20  # hook dirties the env: settle before + after
