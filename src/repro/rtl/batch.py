"""Bit-parallel batched simulation: K independent runs per kernel tick.

The fused kernels (:mod:`repro.rtl._codegen`) already evaluate a whole
design over unbounded Python integers; this module widens those integers
so that *lane* ``i`` of every value carries run ``i`` of K independent
simulations. One generated kernel tick then advances all K runs at once
— SIMD-within-a-register, with Python's big integers as the register.

Packing scheme
--------------

Every signal of width ``w`` is stored as a K-lane integer at a uniform
lane stride ``S = max(width of any signal or expression node) + 1``:
lane ``i`` of a signal occupies bits ``[i*S, i*S + w)``. The invariant
maintained by every emitted operation is that each lane's field holds a
value ``< 2**w`` and all bits between the field and the next lane base
are zero. The one spare bit per lane (the ``+1``) is the carry/borrow
guard that keeps ripple from crossing lanes:

- ``a + b``             → ``(a + b) & M(w)``
- ``a - b``             → ``((a | G(w)) - b) & M(w)``
- ``-a``                → ``(G(w) - a) & M(w)``
- per-lane nonzero      → ``((a + M(w)) >> w) & L``
- unsigned ``a >= b``   → ``(((a | G(w)) - b) >> w) & L``
- signed compares       → XOR both operands with ``repl(1 << (w-1))``
  (offset-binary), then compare unsigned
- mux                   → ``f ^ ((f ^ t) & (nz(sel) * mask(w)))``

where ``M(w)``/``G(w)``/``L`` replicate ``mask(w)``/``1 << w``/``1``
into every lane. Data-dependent shifts, multiplies, and XOR-reduces fall
back to a per-lane loop inside a generated helper — still one kernel,
just a slower op. Memory ports are inherently per-lane (addresses
differ across runs), so memories are stored lane-major (one word list
per lane) and ports loop over lanes.

When batching is sound
----------------------

Lanes are *independent runs of the same netlist under one clock
schedule*: same clock periods and phases, gating applies to all lanes,
and there are no per-lane hooks. Anything needing per-run control flow
(pause one run, hook another) belongs on a scalar
:class:`~repro.rtl.simulator.Simulator` — use :meth:`BatchSimulator
.extract_lane` to pull a run out into one. The differential suite pins
every lane of a batched run bit-identical to its scalar twin.

What this module adds
---------------------

Only the lane representation. The lane emitter supplies the value
primitives of :class:`~repro.rtl._codegen._Emitter` (expressions,
register samples, memory ports), whose skeleton fixes the statement
order for both representations; :class:`BatchPlan` is the
:class:`~repro.rtl._codegen.KernelSet` that uses it; and
:class:`BatchSimulator` is a :class:`~repro.rtl.simulator.Simulator`
running those kernels, adding only per-lane value access and the
packed snapshot format. Clock schedule, stepping, run bookkeeping and
instrumentation are the scalar simulator's.
"""

from __future__ import annotations

from typing import Optional

from .._bits import mask, truncate
from ..errors import SimulationError
from ..obs import get_registry
from ._codegen import _SIGNED_CMP, CompiledPlan, KernelSet, _Emitter
from .expr import BinaryOp, Concat, Const, Expr, Mux, Ref, Repl, Slice, UnaryOp
from .netlist import Netlist
from .simulator import Simulator


def _replicate(value: int, lanes: int, stride: int) -> int:
    """``value`` copied into every lane of a packed integer."""
    out = 0
    for i in range(lanes):
        out |= value << (i * stride)
    return out


def _plan_stride(plan: CompiledPlan) -> int:
    """Lane stride for a plan: widest signal or expression node, plus
    one guard bit. Uniform across the design so cross-signal ops line
    up lane-for-lane."""
    widest = 1
    exprs: list[Expr] = [expr for _, expr in plan.assigns]
    for width in plan.signal_widths.values():
        widest = max(widest, width)
    for reg in plan.regs.values():
        widest = max(widest, reg.width)
        exprs.extend(e for e in (reg.next, reg.enable, reg.reset) if e)
    for memory in plan.memories:
        widest = max(widest, memory.width)
        for rport in memory.read_ports:
            exprs.append(rport.addr)
            if rport.enable is not None:
                exprs.append(rport.enable)
        for wport in memory.write_ports:
            exprs.extend((wport.addr, wport.data, wport.enable))
    for expr in exprs:
        for node in expr.walk():
            widest = max(widest, node.width)
    return widest + 1


# ---------------------------------------------------------------------------
# lane-parallel code emission
# ---------------------------------------------------------------------------

class _LaneEmitter(_Emitter):
    """Emits one K-lane kernel as straight-line statements.

    Unlike the scalar emitter's expression composition (``_to_py``),
    every compound node lands in its own single-assignment temp: the mux
    blend references each arm twice, so textual composition would blow
    up exponentially on mux chains. Temps are never reassigned, so any
    ``t``/``B`` atom stays valid until the commit phase; signal locals
    (``v``) are copied before being held across commits.
    """

    def __init__(self, plan: CompiledPlan, lanes: int, stride: int):
        super().__init__(plan)
        self.lanes = lanes
        self.stride = stride
        self.lsb = self.repl(1)

    def repl(self, value: int) -> str:
        """``value`` replicated into every lane, as a hoisted constant."""
        return self.const(_replicate(value, self.lanes, self.stride))

    def rmask(self, width: int) -> str:
        return self.repl(mask(width))

    def snap(self, atom: str, lines: list[str], ind: str) -> str:
        """An atom safe to hold across the commit phase. Signal locals
        get copied into a temp (commits reassign them); temps and consts
        are immutable already."""
        if not atom.startswith("v"):
            return atom
        t = self.temp()
        lines.append(f"{ind}{t} = {atom}")
        return t

    # -- lane-parallel building blocks -------------------------------------

    def nz(self, atom: str, width: int, lines: list[str], ind: str) -> str:
        """Per-lane nonzero flag (one bit at each lane base)."""
        if width == 1:
            return atom
        t = self.temp()
        lines.append(f"{ind}{t} = (({atom} + {self.rmask(width)}) "
                     f">> {width}) & {self.lsb}")
        return t

    def smear(self, cond: str, width: int, lines: list[str],
              ind: str) -> str:
        """Widen per-lane condition bits to ``width``-wide lane masks
        (the big-int multiply trick: lane fields cannot overlap, so the
        product is a carry-free shifted sum)."""
        if width == 1:
            return cond
        t = self.temp()
        lines.append(f"{ind}{t} = {cond} * {hex(mask(width))}")
        return t

    def blend(self, cond_atom: str, cond_width: int, t_atom: str,
              f_atom: str, width: int, lines: list[str], ind: str) -> str:
        """Per-lane select: lanes where ``cond`` is nonzero take ``t``."""
        c = self.nz(cond_atom, cond_width, lines, ind)
        m = self.smear(c, width, lines, ind)
        out = self.temp()
        lines.append(
            f"{ind}{out} = {f_atom} ^ (({f_atom} ^ {t_atom}) & {m})")
        return out

    def ge(self, a: str, b: str, width: int, lines: list[str],
           ind: str) -> str:
        """Per-lane unsigned ``a >= b`` flag."""
        t = self.temp()
        lines.append(f"{ind}{t} = ((({a} | {self.repl(1 << width)}) - {b}) "
                     f">> {width}) & {self.lsb}")
        return t

    def lane_loop(self, lines: list[str], ind: str) -> str:
        """Open a ``for`` over lanes; returns the shift-amount variable."""
        lines.append(f"{ind}for _i in range({self.lanes}):")
        lines.append(f"{ind}    _s = _i * {self.stride}")
        return "_s"

    # -- per-lane helper functions (slow-path ops) -------------------------

    def _lane_helper(self, name: str, params: str, body: list[str]) -> str:
        """Register a helper whose ``body`` runs once per lane (``s`` is
        the lane's shift) and ORs that lane's result into ``r``."""
        if name not in self.helpers:
            self.helpers[name] = "\n".join([
                f"def {name}({params}):",
                "    r = 0",
                f"    for i in range({self.lanes}):",
                f"        s = i * {self.stride}",
                *(f"        {line}" for line in body),
                "    return r",
            ])
        return name

    def _mul_helper(self, width: int) -> str:
        m = hex(mask(width))
        return self._lane_helper(f"_mul{width}", "a, b", [
            f"r |= ((((a >> s) & {m}) * ((b >> s) & {m})) & {m}) << s"])

    def _shift_helper(self, op: str, width: int, b_width: int) -> str:
        kind = {"<<": "shl", ">>": "shr"}[op]
        m, mb = hex(mask(width)), hex(mask(b_width))
        apply = (f"(((av << bv) & {m}) << s)" if op == "<<"
                 else "((av >> bv) << s)")
        return self._lane_helper(f"_{kind}{width}_{b_width}", "a, b", [
            f"bv = (b >> s) & {mb}",
            f"if bv < {width}:",
            f"    av = (a >> s) & {m}",
            f"    r |= {apply}",
        ])

    def _sra_helper(self, width: int, b_width: int) -> str:
        m, mb = hex(mask(width)), hex(mask(b_width))
        return self._lane_helper(f"_sra{width}_{b_width}", "a, b", [
            f"av = (a >> s) & {m}",
            f"bv = (b >> s) & {mb}",
            f"if av & {hex(1 << (width - 1))}:",
            f"    av -= {hex(1 << width)}",
            f"r |= ((av >> (bv if bv < {width} else {width})) & {m}) << s",
        ])

    def _rxor_helper(self, width: int) -> str:
        m = hex(mask(width))
        return self._lane_helper(f"_rxor{width}", "a", [
            f"r |= (((a >> s) & {m}).bit_count() & 1) << s"])

    # -- expression emission -----------------------------------------------

    def emit(self, expr: Expr, lines: list[str], ind: str) -> str:
        """Emit statements computing ``expr`` for all lanes; returns the
        atom (temp/const/local) holding the packed result."""
        if isinstance(expr, Const):
            return self.repl(expr.value)
        if isinstance(expr, Ref):
            return self.sym(expr.name)
        if isinstance(expr, UnaryOp):
            return self._emit_unary(expr, lines, ind)
        if isinstance(expr, BinaryOp):
            return self._emit_binary(expr, lines, ind)
        if isinstance(expr, Mux):
            sel = self.emit(expr.sel, lines, ind)
            t = self.emit(expr.if_true, lines, ind)
            f = self.emit(expr.if_false, lines, ind)
            return self.blend(sel, expr.sel.width, t, f, expr.width,
                              lines, ind)
        if isinstance(expr, Slice):
            a = self.emit(expr.a, lines, ind)
            out = self.temp()
            if expr.low == 0:
                lines.append(f"{ind}{out} = {a} & {self.rmask(expr.width)}")
            else:
                lines.append(f"{ind}{out} = ({a} >> {expr.low}) "
                             f"& {self.rmask(expr.width)}")
            return out
        if isinstance(expr, Concat):
            acc = None
            for part in expr.parts:
                p = self.emit(part, lines, ind)
                piece = f"({p} & {self.rmask(part.width)})"
                t = self.temp()
                if acc is None:
                    lines.append(f"{ind}{t} = {piece}")
                else:
                    lines.append(
                        f"{ind}{t} = ({acc} << {part.width}) | {piece}")
                acc = t
            return acc or "0"
        if isinstance(expr, Repl):
            a = self.emit(expr.a, lines, ind)
            piece = f"({a} & {self.rmask(expr.a.width)})"
            acc = None
            for _ in range(expr.times):
                t = self.temp()
                if acc is None:
                    lines.append(f"{ind}{t} = {piece}")
                else:
                    lines.append(
                        f"{ind}{t} = ({acc} << {expr.a.width}) | {piece}")
                acc = t
            return acc or "0"
        raise AssertionError(
            f"unhandled expression node {type(expr).__name__}")

    def _emit_unary(self, expr: UnaryOp, lines: list[str], ind: str) -> str:
        a = self.emit(expr.a, lines, ind)
        width = expr.a.width
        op = expr.op
        if op == "~":
            out = self.temp()
            lines.append(f"{ind}{out} = {a} ^ {self.rmask(width)}")
            return out
        if op == "-":
            out = self.temp()
            lines.append(f"{ind}{out} = ({self.repl(1 << width)} - {a}) "
                         f"& {self.rmask(width)}")
            return out
        if op == "!":
            flag = self.nz(a, width, lines, ind)
            out = self.temp()
            lines.append(f"{ind}{out} = {flag} ^ {self.lsb}")
            return out
        if op == "r|":
            return self.nz(a, width, lines, ind)
        if op == "r&":
            if width == 1:
                return a
            inv = self.temp()
            lines.append(f"{ind}{inv} = {a} ^ {self.rmask(width)}")
            flag = self.nz(inv, width, lines, ind)
            out = self.temp()
            lines.append(f"{ind}{out} = {flag} ^ {self.lsb}")
            return out
        # r^
        if width == 1:
            return a
        out = self.temp()
        lines.append(f"{ind}{out} = {self._rxor_helper(width)}({a})")
        return out

    def _emit_binary(self, expr: BinaryOp, lines: list[str],
                     ind: str) -> str:
        op = expr.op
        width = expr.width
        in_width = expr.a.width
        # Constant shift amounts keep the fast carry-free path; anything
        # data-dependent goes through a per-lane helper.
        if op in ("<<", ">>") and isinstance(expr.b, Const):
            shift = expr.b.value
            a = self.emit(expr.a, lines, ind)
            if shift == 0:
                return a
            out = self.temp()
            if shift >= width:
                lines.append(f"{ind}{out} = 0")
            elif op == "<<":
                lines.append(f"{ind}{out} = ({a} "
                             f"& {self.rmask(width - shift)}) << {shift}")
            else:
                lines.append(f"{ind}{out} = ({a} >> {shift}) "
                             f"& {self.rmask(width - shift)}")
            return out
        a = self.emit(expr.a, lines, ind)
        b = self.emit(expr.b, lines, ind)
        if op in ("&", "|", "^"):
            out = self.temp()
            lines.append(f"{ind}{out} = {a} {op} {b}")
            return out
        if op == "&&":  # 1-bit operands by construction (expr.py)
            out = self.temp()
            lines.append(f"{ind}{out} = {a} & {b}")
            return out
        if op == "||":
            out = self.temp()
            lines.append(f"{ind}{out} = {a} | {b}")
            return out
        if op == "+":
            out = self.temp()
            lines.append(f"{ind}{out} = ({a} + {b}) & {self.rmask(width)}")
            return out
        if op == "-":
            out = self.temp()
            lines.append(f"{ind}{out} = (({a} | {self.repl(1 << width)}) "
                         f"- {b}) & {self.rmask(width)}")
            return out
        if op == "*":
            out = self.temp()
            lines.append(f"{ind}{out} = {self._mul_helper(width)}"
                         f"({a}, {b})")
            return out
        if op in ("<<", ">>"):
            helper = self._shift_helper(op, width, expr.b.width)
            out = self.temp()
            lines.append(f"{ind}{out} = {helper}({a}, {b})")
            return out
        if op == ">>>":
            helper = self._sra_helper(in_width, expr.b.width)
            out = self.temp()
            lines.append(f"{ind}{out} = {helper}({a}, {b})")
            return out
        if op == "==":
            diff = self.temp()
            lines.append(f"{ind}{diff} = {a} ^ {b}")
            flag = self.nz(diff, in_width, lines, ind)
            out = self.temp()
            lines.append(f"{ind}{out} = {flag} ^ {self.lsb}")
            return out
        if op == "!=":
            diff = self.temp()
            lines.append(f"{ind}{diff} = {a} ^ {b}")
            return self.nz(diff, in_width, lines, ind)
        if op in _SIGNED_CMP:
            sign = self.repl(1 << (in_width - 1))
            sa, sb = self.temp(), self.temp()
            lines.append(f"{ind}{sa} = {a} ^ {sign}")
            lines.append(f"{ind}{sb} = {b} ^ {sign}")
            a, b = sa, sb
            op = _SIGNED_CMP[op]
        if op == ">=":
            return self.ge(a, b, in_width, lines, ind)
        if op == "<=":
            return self.ge(b, a, in_width, lines, ind)
        if op == "<":
            flag = self.ge(a, b, in_width, lines, ind)
            out = self.temp()
            lines.append(f"{ind}{out} = {flag} ^ {self.lsb}")
            return out
        if op == ">":
            flag = self.ge(b, a, in_width, lines, ind)
            out = self.temp()
            lines.append(f"{ind}{out} = {flag} ^ {self.lsb}")
            return out
        raise AssertionError(f"unhandled binary op {op!r}")

    # -- value primitives --------------------------------------------------

    def assign(self, name, expr, lines, ind):
        atom = self.emit(expr, lines, ind)
        lines.append(f"{ind}{self.store(name)} = {atom}")

    def async_read(self, memory, port, lines, ind):
        """Per-lane gather: addresses differ across lanes."""
        addr = self.emit(port.addr, lines, ind)
        out = self.store(port.name)
        lines.append(f"{ind}{out} = 0")
        sh = self.lane_loop(lines, ind)
        inner = ind + "    "
        lines.append(f"{inner}_a = ({addr} >> {sh}) "
                     f"& {hex(mask(port.addr.width))}")
        lines.append(
            f"{inner}if _a < {memory.depth}:")
        lines.append(f"{inner}    {out} |= "
                     f"{self.mem(memory.name)}[_i][_a] << {sh}")

    def sample_register(self, reg, value, lines, ind):
        if reg.next is not None:
            nxt = self.emit(reg.next, lines, ind)
            if reg.next.width != reg.width:
                masked = self.temp()
                lines.append(f"{ind}{masked} = {nxt} "
                             f"& {self.rmask(reg.width)}")
                nxt = masked
        else:
            nxt = value
        if reg.reset is not None:
            rv = self.repl(truncate(reg.reset_value, reg.width))
            rst = self.emit(reg.reset, lines, ind)
            nxt = self.blend(rst, reg.reset.width, rv, nxt,
                             reg.width, lines, ind)
        if reg.enable is not None:
            en = self.emit(reg.enable, lines, ind)
            return self.blend(en, reg.enable.width, nxt, value,
                              reg.width, lines, ind)
        return self.snap(nxt, lines, ind)

    def sample_write(self, memory, port, lines, ind):
        en = self.emit(port.enable, lines, ind)
        addr = self.emit(port.addr, lines, ind)
        data = self.emit(port.data, lines, ind)
        return (self.mem(memory.name),
                self.snap(en, lines, ind), port.enable.width,
                self.snap(addr, lines, ind), port.addr.width,
                self.snap(data, lines, ind),
                memory.width, memory.depth)

    def commit_write(self, commit, lines, ind):
        mem_local, en, en_w, addr, addr_w, data, mem_w, depth = commit
        sh = self.lane_loop(lines, ind)
        inner = ind + "    "
        lines.append(f"{inner}if ({en} >> {sh}) & {hex(mask(en_w))}:")
        lines.append(f"{inner}    _a = ({addr} >> {sh}) "
                     f"& {hex(mask(addr_w))}")
        lines.append(f"{inner}    if _a < {depth}:")
        lines.append(f"{inner}        {mem_local}[_i][_a] = "
                     f"({data} >> {sh}) & {hex(mask(mem_w))}")

    def sample_sync_read(self, memory, port, out, lines, ind):
        en = (self.emit(port.enable, lines, ind)
              if port.enable is not None else None)
        addr = self.emit(port.addr, lines, ind)
        sample = self.temp()
        lines.append(f"{ind}{sample} = {out}")
        sh = self.lane_loop(lines, ind)
        inner = ind + "    "
        if en is not None:
            lines.append(f"{inner}if ({en} >> {sh}) "
                         f"& {hex(mask(port.enable.width))}:")
            inner += "    "
        lines.append(f"{inner}_a = ({addr} >> {sh}) "
                     f"& {hex(mask(port.addr.width))}")
        lines.append(
            f"{inner}_v = {self.mem(memory.name)}[_i][_a] "
            f"if _a < {memory.depth} else 0")
        lines.append(
            f"{inner}{sample} = ({sample} "
            f"& ~({hex(mask(memory.width))} << {sh})) "
            f"| (_v << {sh})")
        return sample



# ---------------------------------------------------------------------------
# batch plans
# ---------------------------------------------------------------------------

class BatchPlan(KernelSet):
    """K-lane kernels of one :class:`CompiledPlan`: its kernel set with
    the lane emitter.

    Reached through :meth:`CompiledPlan.batch_plan`, so batch kernels
    share the plan's fingerprint-keyed cache (source keys
    ``b<K>:settle``, ``b<K>:tick:<domains>``, ...).
    Capture rows hold the packed values, decoded by ``BatchTrace``.
    """

    def __init__(self, plan: CompiledPlan, lanes: int):
        if lanes < 1:
            raise SimulationError(
                f"batch lane count must be positive, got {lanes}")
        self.lanes = lanes
        self.stride = _plan_stride(plan)
        self.prefix = f"b{lanes}:"
        super().__init__(plan)

    def emitter(self) -> _LaneEmitter:
        return _LaneEmitter(self.plan, self.lanes, self.stride)


# ---------------------------------------------------------------------------
# the batched simulator
# ---------------------------------------------------------------------------

def _copy_lanes(memories: dict) -> dict:
    return {name: [list(words) for words in per_lane]
            for name, per_lane in memories.items()}


class BatchSimulator(Simulator):
    """Advances K independent runs of one netlist per kernel tick.

    A :class:`~repro.rtl.simulator.Simulator` over packed values: the
    clock schedule (periods, phases, gating) and every stepping entry
    point are the scalar simulator's and apply to all lanes at once;
    stimuli, state, and memories are per-lane. Batch always runs the
    generated K-lane kernels (also for K=1) and takes no hooks —
    anything that needs per-edge observability belongs on a scalar
    simulator. Steps tally into ``sim.batch.runs`` and
    ``sim.batch.lane_ticks`` (cycles x lanes), never the scalar
    ``sim.runs``/``sim.ticks``.

    Lanes interoperate with :class:`~repro.rtl.simulator.Simulator`
    snapshots in both directions: :meth:`extract_lane` produces a dict
    ``Simulator.restore`` accepts, and :meth:`inject_lane` loads one.
    """

    _COUNTERS = ("sim.batch.runs", "sim.batch.lane_ticks")

    def __init__(self, netlist: Netlist, lanes: int,
                 clocks: Optional[dict[str, int]] = None):
        super().__init__(netlist, clocks)
        self._kernels = self._plan.batch_plan(lanes)
        self._settle_fn = self._kernels.settle
        self.lanes = lanes
        self.stride = self._kernels.stride
        for name in netlist.registers:
            self.env[name] = _replicate(self.env[name], lanes, self.stride)
        for name, words in self.memories.items():
            self.memories[name] = [list(words) for _ in range(lanes)]
        get_registry().gauge("sim.batch_lanes").set(lanes)

    # -- lane addressing ---------------------------------------------------

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.lanes:
            raise SimulationError(
                f"lane {lane} out of range 0..{self.lanes - 1}")

    def _get_lane(self, name: str, lane: int) -> int:
        return (self.env[name] >> (lane * self.stride)) \
            & mask(self.netlist.width(name))

    def _set_lane(self, name: str, lane: int, value: int) -> None:
        width = self.netlist.width(name)
        shift = lane * self.stride
        self.env[name] = ((self.env[name] & ~(mask(width) << shift))
                          | (truncate(value, width) << shift))

    def _put(self, name: str, value: int, lane: Optional[int]) -> None:
        if lane is None:
            self.env[name] = _replicate(
                truncate(value, self.netlist.width(name)), self.lanes,
                self.stride)
        else:
            self._check_lane(lane)
            self._set_lane(name, lane, value)
        self._dirty = True

    # -- value access ------------------------------------------------------

    def poke(self, name: str, value: int,
             lane: Optional[int] = None) -> None:
        """Drive a top-level input on one lane, or on all lanes."""
        if name not in self.netlist.inputs:
            raise SimulationError(
                f"{name!r} is not a top-level input; use force() for state")
        self._put(name, value, lane)

    def peek(self, name: str, lane: Optional[int] = None):
        """A signal's settled value on one lane, or a list across all."""
        super().peek(name)  # validates the name and settles
        if lane is None:
            return [self._get_lane(name, i) for i in range(self.lanes)]
        self._check_lane(lane)
        return self._get_lane(name, lane)

    def force(self, name: str, value: int,
              lane: Optional[int] = None) -> None:
        """Overwrite a register (or sync read-port latch) value."""
        if name not in self.netlist.registers \
                and name not in self.netlist.sync_read_outputs():
            raise SimulationError(
                f"{name!r} is not a register; poke() inputs, "
                f"write_memory() memories")
        self._put(name, value, lane)

    def read_memory(self, name: str, addr: int, lane: int) -> int:
        self._check_lane(lane)
        per_lane = self._memory_words(name)
        self._check_addr(name, addr)
        return per_lane[lane][addr]

    def write_memory(self, name: str, addr: int, value: int,
                     lane: Optional[int] = None) -> None:
        per_lane = self._memory_words(name)
        self._check_addr(name, addr)
        value = truncate(value, self.netlist.memories[name].width)
        if lane is None:
            for words in per_lane:
                words[addr] = value
        else:
            self._check_lane(lane)
            per_lane[lane][addr] = value
        self._dirty = True

    # -- snapshot / lane interop -------------------------------------------

    def snapshot(self) -> dict:
        """All lanes' architectural state, packed (batch-native)."""
        snap = {"lanes": self.lanes, "stride": self.stride,
                **super().snapshot()}
        snap["memories"] = _copy_lanes(self.memories)
        return snap

    def restore(self, snapshot: dict) -> None:
        if snapshot.get("lanes") != self.lanes \
                or snapshot.get("stride") != self.stride:
            raise SimulationError(
                f"snapshot shape {snapshot.get('lanes')}x"
                f"{snapshot.get('stride')} does not match this simulator "
                f"({self.lanes}x{self.stride})")
        super().restore(
            {**snapshot, "memories": _copy_lanes(snapshot["memories"])})

    def extract_lane(self, lane: int) -> dict:
        """One lane's state as a *scalar* snapshot — the exact dict
        :meth:`Simulator.snapshot` produces, so ``Simulator.restore``
        can resume this run on a scalar simulator."""
        self._check_lane(lane)
        self._settle()
        return {
            "registers": {
                name: self._get_lane(name, lane)
                for name in self.netlist.registers},
            "memories": {
                name: list(per_lane[lane])
                for name, per_lane in self.memories.items()},
            "inputs": {
                name: self._get_lane(name, lane)
                for name in self.netlist.inputs},
            "read_ports": {
                name: self._get_lane(name, lane)
                for name in self.netlist.sync_read_outputs()},
            "time_ps": self.time_ps,
            "cycles": {name: d.cycles for name, d in self.domains.items()},
            "clocks": self._clock_state(),
        }

    def inject_lane(self, lane: int, snapshot: dict) -> None:
        """Load a scalar snapshot into one lane. Per-lane state only:
        clock bookkeeping is shared and left untouched (all lanes must
        already follow the same schedule)."""
        self._check_lane(lane)
        for name, value in snapshot["registers"].items():
            if name not in self.netlist.registers:
                raise SimulationError(
                    f"snapshot register {name!r} not in design")
            self._set_lane(name, lane, value)
        for name, words in snapshot["memories"].items():
            if name not in self.memories:
                raise SimulationError(
                    f"snapshot memory {name!r} not in design")
            self.memories[name][lane][:] = words
        for name, value in snapshot["inputs"].items():
            if name in self.netlist.inputs:
                self._set_lane(name, lane, value)
        for name, value in snapshot.get("read_ports", {}).items():
            if name in self.env:
                self._set_lane(name, lane, value)
        self._dirty = True
