"""Randomized whole-design fuzzing.

Hypothesis builds random small sequential designs (random combinational
DAGs feeding random registers), then checks system-level invariants that
must hold for *any* design:

- compiled and interpreted simulation agree cycle-for-cycle;
- the optimizer preserves observable behaviour;
- snapshot/restore round-trips through the simulator;
- the Verilog exporter emits structurally sane text;
- technology mapping yields consistent resource accounting.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rtl import ModuleBuilder, Simulator, elaborate
from repro.rtl.expr import BinaryOp, Const, Expr, Mux, Slice, UnaryOp
from repro.rtl.verilog import export_design
from repro.vendor.opt import optimize_netlist
from repro.vendor.synth import synthesize

WIDTH = 8

_BINOPS = ["+", "-", "&", "|", "^"]
_CMPOPS = ["==", "<", ">="]


@st.composite
def random_designs(draw):
    """A random module: inputs a/b, a few wires, registers, outputs."""
    b = ModuleBuilder("fuzz")
    pool: list[Expr] = [b.input("a", WIDTH), b.input("b", WIDTH)]

    n_regs = draw(st.integers(1, 4))
    regs = [b.reg(f"r{i}", WIDTH, init=draw(st.integers(0, 255)))
            for i in range(n_regs)]
    pool.extend(regs)

    n_wires = draw(st.integers(1, 6))
    for index in range(n_wires):
        kind = draw(st.sampled_from(["bin", "cmp", "mux", "un", "slice"]))
        x = draw(st.sampled_from(pool))
        y = draw(st.sampled_from(pool))
        if kind == "bin":
            expr = BinaryOp(draw(st.sampled_from(_BINOPS)), x, y)
        elif kind == "cmp":
            bit = BinaryOp(draw(st.sampled_from(_CMPOPS)), x, y)
            expr = Mux(bit, x, y)
        elif kind == "mux":
            sel = draw(st.sampled_from(pool))
            expr = Mux(sel.as_bool(), x, y)
        elif kind == "un":
            expr = UnaryOp(draw(st.sampled_from(["~", "-"])), x)
        else:
            high = draw(st.integers(0, WIDTH - 1))
            low = draw(st.integers(0, high))
            sliced = Slice(x, high, low)
            pad = WIDTH - sliced.width
            from repro.rtl.expr import Concat
            expr = Concat((Const(0, pad), sliced)) if pad else sliced
        pool.append(b.wire_expr(f"w{index}", expr))

    for index, reg in enumerate(regs):
        b.next(reg, draw(st.sampled_from(pool)))
    b.output_expr("out", draw(st.sampled_from(pool)))
    return b.build()


def run_trace(netlist, stimulus, engine="fused"):
    sim = Simulator(netlist, engine=engine)
    trace = []
    for a, b_val in stimulus:
        sim.poke("a", a)
        sim.poke("b", b_val)
        trace.append(sim.peek("out"))
        sim.step(1)
    trace.append(sim.peek("out"))
    return trace


STIMULUS = st.lists(
    st.tuples(st.integers(0, 255), st.integers(0, 255)),
    min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(random_designs(), STIMULUS)
def test_compiled_matches_interpreted(design, stimulus):
    netlist = elaborate(design)
    assert run_trace(netlist, stimulus, engine="fused") \
        == run_trace(netlist, stimulus, engine="interp")


@settings(max_examples=40, deadline=None)
@given(random_designs(), STIMULUS)
def test_optimizer_preserves_behaviour(design, stimulus):
    original = elaborate(design)
    optimized = elaborate(design)
    optimize_netlist(optimized)
    assert run_trace(original, stimulus) == run_trace(optimized, stimulus)


@settings(max_examples=25, deadline=None)
@given(random_designs(), STIMULUS)
def test_snapshot_restore_roundtrip(design, stimulus):
    netlist = elaborate(design)
    sim = Simulator(netlist)
    for a, b_val in stimulus:
        sim.poke("a", a)
        sim.poke("b", b_val)
        sim.step(1)
    snap = sim.snapshot()
    mid = sim.peek("out")
    sim.step(7)
    sim.restore(snap)
    assert sim.peek("out") == mid


@settings(max_examples=25, deadline=None)
@given(random_designs())
def test_verilog_export_is_sane(design):
    text = export_design(design)
    assert text.count("module ") == text.count("endmodule")
    assert "out" in text


@settings(max_examples=25, deadline=None)
@given(random_designs())
def test_synthesis_accounting_consistent(design):
    result = synthesize(design, opt="none")
    totals = result.totals
    assert totals.ff == sum(
        reg.width for reg in design.registers.values())
    assert totals.lut >= 0
    # Optimization never increases the count.
    assert synthesize(design, opt="global").totals.lut <= totals.lut
