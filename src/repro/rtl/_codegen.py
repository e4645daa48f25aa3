"""Compile netlists to Python code for fast simulation.

The simulator runs the code generated here: one function per *tick* of
an active clock-domain set, performing settle → register/memory-port
sampling → commit in a single pass over local variables, plus a
``run(n)`` variant that keeps the whole hot loop inside compiled code
(signals are loaded from the environment dict once before the loop and
stored back once after it), a capture variant of it that samples into
a ring, and the settle kernel every ``peek`` uses. Either loop may
carry a stop set, which ends it before the first edge at which one of
the named signals settles high.

One emitter skeleton (:class:`_Emitter`) owns the atom naming, the
settle and edge statement order and the source assembly. Two value
representations plug into it: plain ints (:class:`_ScalarEmitter`,
expressions composed by :func:`_to_py`) and K runs packed per int (the
lane emitter of :mod:`repro.rtl.batch`). One :class:`KernelSet` per
representation caches the kernels per active-domain set, so the scalar
and K-lane kernels share every ordering decision.

Kernel semantics are identical to ``Expr.eval`` and to the simulator's
interpreted tick (the differential test suite cross-checks them
register-for-register).

Compiled plans are cached in a small module-level registry keyed by a
structural :meth:`~repro.rtl.netlist.Netlist.fingerprint`, so rebuilding
a :class:`~repro.rtl.simulator.Simulator` over the same design (the ILA
flow, VTI incremental runs, the benchmark suite) reuses codegen instead
of recompiling. Plans snapshot the expressions they were built from, so
in-place netlist mutation after a simulator was constructed (the
instrumentation pass does this) cannot corrupt an already-cached plan.
The cache lives for one process and writes nothing to disk. K-lane
kernel sets are reached through :meth:`CompiledPlan.batch_plan`, so
they share it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from .._bits import mask
from .expr import BinaryOp, Concat, Const, Expr, Mux, Ref, Repl, Slice, UnaryOp

_SIGNED_CMP = {"<s": "<", ">s": ">", "<=s": "<=", ">=s": ">="}


def _to_py(expr: Expr, sym: Callable[[str], str]) -> str:
    """Translate ``expr`` to a Python expression string.

    ``sym`` maps a signal name to the Python expression that reads it
    (a kernel-local variable in generated kernels).
    """
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Ref):
        return sym(expr.name)
    if isinstance(expr, UnaryOp):
        a = _to_py(expr.a, sym)
        width = expr.a.width
        if expr.op == "~":
            return f"(({a}) ^ {mask(width)})"
        if expr.op == "!":
            return f"(0 if ({a}) else 1)"
        if expr.op == "-":
            return f"((-({a})) & {mask(width)})"
        if expr.op == "r&":
            return f"(1 if ({a}) == {mask(width)} else 0)"
        if expr.op == "r|":
            return f"(1 if ({a}) else 0)"
        # r^
        return f"(({a}).bit_count() & 1)"
    if isinstance(expr, BinaryOp):
        a = _to_py(expr.a, sym)
        b = _to_py(expr.b, sym)
        op = expr.op
        width = expr.width
        if op in ("+", "-", "*"):
            return f"((({a}) {op} ({b})) & {mask(width)})"
        if op in ("&", "|", "^"):
            return f"(({a}) {op} ({b}))"
        if op == "<<":
            return (f"(((({a}) << ({b})) & {mask(width)}) "
                    f"if ({b}) < {width} else 0)")
        if op == ">>":
            return f"((({a}) >> ({b})) if ({b}) < {width} else 0)"
        if op == ">>>":
            in_width = expr.a.width
            sign = 1 << (in_width - 1)
            return (f"((((({a}) - {1 << in_width}) if (({a}) & {sign}) "
                    f"else ({a})) >> min(({b}), {in_width})) "
                    f"& {mask(width)})")
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return f"(1 if ({a}) {op} ({b}) else 0)"
        if op == "&&":
            return f"(1 if (({a}) and ({b})) else 0)"
        if op == "||":
            return f"(1 if (({a}) or ({b})) else 0)"
        if op in _SIGNED_CMP:
            in_width = expr.a.width
            sign = 1 << (in_width - 1)
            full = 1 << in_width
            signed_a = f"((({a}) - {full}) if (({a}) & {sign}) else ({a}))"
            signed_b = f"((({b}) - {full}) if (({b}) & {sign}) else ({b}))"
            return f"(1 if {signed_a} {_SIGNED_CMP[op]} {signed_b} else 0)"
        raise AssertionError(f"unhandled binary op {op!r}")
    if isinstance(expr, Mux):
        sel = _to_py(expr.sel, sym)
        t = _to_py(expr.if_true, sym)
        f = _to_py(expr.if_false, sym)
        return f"(({t}) if ({sel}) else ({f}))"
    if isinstance(expr, Slice):
        a = _to_py(expr.a, sym)
        if expr.low == 0:
            return f"(({a}) & {mask(expr.width)})"
        return f"((({a}) >> {expr.low}) & {mask(expr.width)})"
    if isinstance(expr, Concat):
        out = None
        for part in expr.parts:
            piece = f"(({_to_py(part, sym)}) & {mask(part.width)})"
            if out is None:
                out = piece
            else:
                out = f"(({out}) << {part.width} | {piece})"
        return out or "0"
    if isinstance(expr, Repl):
        a = _to_py(expr.a, sym)
        width = expr.a.width
        out = None
        for _ in range(expr.times):
            piece = f"({a})"
            if out is None:
                out = piece
            else:
                out = f"(({out}) << {width} | {piece})"
        return out or "0"
    raise AssertionError(f"unhandled expression node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# plan snapshots
# ---------------------------------------------------------------------------
#
# A plan must not read the live netlist after construction: instrumentation
# and pause-buffer insertion mutate Register/port objects in place, and a
# cached plan may outlive the netlist state it was compiled from.

@dataclass(frozen=True)
class _RegSnap:
    name: str
    width: int
    clock: str
    next: Optional[Expr]
    enable: Optional[Expr]
    reset: Optional[Expr]
    reset_value: int


@dataclass(frozen=True)
class _ReadPortSnap:
    name: str
    addr: Expr
    sync: bool
    enable: Optional[Expr]
    clock: str


@dataclass(frozen=True)
class _WritePortSnap:
    addr: Expr
    data: Expr
    enable: Expr
    clock: str


@dataclass(frozen=True)
class _MemSnap:
    name: str
    width: int
    depth: int
    read_ports: tuple[_ReadPortSnap, ...]
    write_ports: tuple[_WritePortSnap, ...]


# ---------------------------------------------------------------------------
# kernel code generation
# ---------------------------------------------------------------------------

#: Kernel kind -> (function name, parameter list). ``run`` and ``crun``
#: keep the cycle loop inside the kernel; ``crun`` also threads the
#: capture ring and its four cursors (write head, lifetime sample
#: count, stride phase, cycle) through the loop and returns them.
#: Either loop may carry a stop set (see :meth:`_Emitter.source`).
_KERNELS = {
    "settle": ("_settle", "e, mems"),
    "tick": ("_tick", "e, mems"),
    "run": ("_run", "e, mems, n"),
    "crun": ("_crun", "e, mems, n, ring, head, total, stride, k, cyc"),
}


class _Emitter:
    """Emits one kernel.

    The base class owns what every value representation shares: atom
    naming (signal, memory, temp and hoisted-constant locals), the set
    of locals stored back to the environment when the kernel exits, the
    settle and edge statement order, and the assembly of the kernel
    source. Subclasses supply the value primitives — how an assign, an
    async read, a register sample and a memory-port sample/commit
    compute on their values (:class:`_ScalarEmitter`: plain ints; the
    lane emitter of :mod:`repro.rtl.batch`: K runs packed per int).
    """

    def __init__(self, plan: "CompiledPlan"):
        self.plan = plan
        self.locals_of: dict[str, str] = {}
        self.mem_of: dict[str, str] = {}
        self.stores: dict[str, None] = {}
        self._tmp = 0
        #: Module-level definitions emitted before the kernel function:
        #: hoisted constants (value -> name) and helper function sources
        #: (name -> source). Only the lane emitter uses them.
        self.consts: dict[int, str] = {}
        self.helpers: dict[str, str] = {}

    # -- atoms -------------------------------------------------------------

    def sym(self, name: str) -> str:
        local = self.locals_of.get(name)
        if local is None:
            local = self.locals_of[name] = f"v{len(self.locals_of)}"
        return local

    def mem(self, name: str) -> str:
        local = self.mem_of.get(name)
        if local is None:
            local = self.mem_of[name] = f"m{len(self.mem_of)}"
        return local

    def temp(self) -> str:
        self._tmp += 1
        return f"t{self._tmp}"

    def store(self, name: str) -> str:
        self.stores[name] = None
        return self.sym(name)

    def const(self, value: int) -> str:
        name = self.consts.get(value)
        if name is None:
            name = self.consts[value] = f"B{len(self.consts)}"
        return name

    # -- value primitives (per representation) -----------------------------

    def assign(self, name: str, expr: Expr, lines: list[str],
               ind: str) -> None:
        """Settle one continuous assign into ``name``'s local."""
        raise NotImplementedError

    def async_read(self, memory: _MemSnap, port: _ReadPortSnap,
                   lines: list[str], ind: str) -> None:
        """One combinational read port into its output local."""
        raise NotImplementedError

    def sample_register(self, reg: _RegSnap, value: str, lines: list[str],
                        ind: str) -> str:
        """Compute a register's next value (``value`` is its local);
        returns an atom that stays valid until the commit phase."""
        raise NotImplementedError

    def sample_write(self, memory: _MemSnap, port: _WritePortSnap,
                     lines: list[str], ind: str) -> tuple:
        """Sample a write port; returns what :meth:`commit_write` needs."""
        raise NotImplementedError

    def commit_write(self, commit: tuple, lines: list[str],
                     ind: str) -> None:
        raise NotImplementedError

    def sample_sync_read(self, memory: _MemSnap, port: _ReadPortSnap,
                         out: str, lines: list[str], ind: str) -> str:
        """Sample a synchronous read port whose output local is ``out``;
        returns the atom committed into it."""
        raise NotImplementedError

    # -- statement order ---------------------------------------------------

    def emit_settle(self, lines: list[str], ind: str) -> None:
        """Async read pre-pass, topologically ordered assigns, async read
        post-pass — the full combinational settle. Async reads apply in
        memory/port order, matching ``Simulator._apply_async_reads``:
        each port's result is visible to later ports and to the settle
        pass."""
        self._emit_async_reads(lines, ind)
        for name, expr in self.plan.assigns:
            self.assign(name, expr, lines, ind)
        self._emit_async_reads(lines, ind)

    def _emit_async_reads(self, lines: list[str], ind: str) -> None:
        for memory in self.plan.memories:
            for port in memory.read_ports:
                if not port.sync:
                    self.async_read(memory, port, lines, ind)

    def emit_edge(self, lines: list[str], ind: str,
                  active: tuple[str, ...]) -> None:
        """Sample-and-commit for one edge of the ``active`` domains.

        Ordering is identical to the interpreted tick: all register
        next-values are sampled, then all memory write ports, then all
        synchronous read ports (read-before-write); commits happen in
        the same three groups afterwards.
        """
        reg_commits: list[tuple[str, str]] = []
        for domain in active:
            for reg_name in self.plan.regs_by_domain.get(domain, ()):
                reg = self.plan.regs[reg_name]
                if reg.next is None and reg.reset is None:
                    continue
                value = self.sym(reg_name)
                sample = self.sample_register(reg, value, lines, ind)
                self.stores[reg_name] = None
                reg_commits.append((value, sample))

        write_commits: list[tuple] = []
        read_commits: list[tuple[str, str]] = []
        for domain in active:
            for kind, memory, port in self.plan.port_plans.get(domain, ()):
                if kind == "w":
                    write_commits.append(
                        self.sample_write(memory, port, lines, ind))
                else:
                    out = self.store(port.name)
                    read_commits.append((out, self.sample_sync_read(
                        memory, port, out, lines, ind)))

        for value, sample in reg_commits:
            lines.append(f"{ind}{value} = {sample}")
        for commit in write_commits:
            self.commit_write(commit, lines, ind)
        for out, sample in read_commits:
            lines.append(f"{ind}{out} = {sample}")

    def emit_capture(self, lines: list[str], ind: str,
                     signals: tuple[str, ...], bounded: bool) -> None:
        """In-loop sampling: every ``stride``-th iteration appends one
        ``(cycle, sig0, sig1, ...)`` row into the ring.

        Sampling happens between settle and edge, so a row holds the
        settled state *after* ``cyc`` committed edges — exactly what an
        edge-hook observer reading back after commit ``cyc`` sees.
        """
        atoms = ", ".join(self.sym(name) for name in signals)
        lines.append(f"{ind}if k == 0:")
        if bounded:
            lines += [
                f"{ind}    ring[head] = (cyc, {atoms})",
                f"{ind}    head += 1",
                f"{ind}    if head == _rl:",
                f"{ind}        head = 0",
            ]
        else:
            lines.append(f"{ind}    ring.append((cyc, {atoms}))")
        lines += [
            f"{ind}    total += 1",
            f"{ind}k += 1",
            f"{ind}if k == stride:",
            f"{ind}    k = 0",
        ]

    # -- source assembly ---------------------------------------------------

    def source(self, kind: str, active: tuple[str, ...] = (),
               capture: Optional[tuple[tuple[str, ...], bool]] = None,
               until: tuple[str, ...] = ()) -> str:
        """The full source of one kernel of ``kind`` (see
        :data:`_KERNELS`); ``capture`` is ``(signals, bounded)`` for
        ``crun``.

        ``until`` is the stop set of a ``run`` or ``crun`` loop: each
        iteration settles, leaves the loop if any of those signals is
        high (nonzero in any lane), and only then samples and commits
        its edge. A ``run`` kernel with a stop set returns the edges it
        committed; ``crun`` returns its cursors as always, and its
        ``cyc`` cursor counts the committed edges.

        The source is self-contained (it only needs ``min`` in its
        globals) and deterministic for a given plan structure.
        """
        name, params = _KERNELS[kind]
        loop = kind in ("run", "crun")
        ind = "        " if loop else "    "
        body: list[str] = []
        self.emit_settle(body, ind)
        if until:
            stop = " or ".join(self.sym(signal) for signal in until)
            body += [f"{ind}if {stop}:", f"{ind}    break"]
        if capture is not None:
            self.emit_capture(body, ind, *capture)
        if kind != "settle":
            self.emit_edge(body, ind, active)
        if capture is not None:
            body.append(f"{ind}cyc += 1")
        lines = [f"{const} = {hex(value)}"
                 for value, const in self.consts.items()]
        lines.extend(self.helpers.values())
        lines.append(f"def {name}({params}):")
        if capture is not None and capture[1]:
            lines.append("    _rl = len(ring)")
        for mem_name, local in self.mem_of.items():
            lines.append(f"    {local} = mems[{mem_name!r}]")
        for sig_name, local in self.locals_of.items():
            lines.append(f"    {local} = e[{sig_name!r}]")
        counted = bool(until) and capture is None
        if loop:
            lines.append(f"    for {'ran' if counted else '_'} in range(n):")
        lines.extend(body if body else [f"{ind}pass"])
        if counted:
            lines += ["    else:", "        ran = n"]
        for sig_name in self.stores:
            lines.append(f"    e[{sig_name!r}] = {self.locals_of[sig_name]}")
        if capture is not None:
            lines.append("    return head, total, k, cyc")
        elif counted:
            lines.append("    return ran")
        return "\n".join(lines)


class _ScalarEmitter(_Emitter):
    """Plain-int kernels: expressions compose textually via
    :func:`_to_py`."""

    def assign(self, name, expr, lines, ind):
        lines.append(f"{ind}{self.store(name)} = {_to_py(expr, self.sym)}")

    def async_read(self, memory, port, lines, ind):
        addr = self.temp()
        out = self.store(port.name)
        lines.append(f"{ind}{addr} = {_to_py(port.addr, self.sym)}")
        lines.append(
            f"{ind}{out} = {self.mem(memory.name)}[{addr}] "
            f"if {addr} < {memory.depth} else 0")

    def sample_register(self, reg, value, lines, ind):
        sample = self.temp()
        nxt = (f"({_to_py(reg.next, self.sym)}) & {mask(reg.width)}"
               if reg.next is not None else value)
        if reg.reset is not None:
            body = (f"{sample} = {reg.reset_value} "
                    f"if ({_to_py(reg.reset, self.sym)}) else {nxt}")
        else:
            body = f"{sample} = {nxt}"
        if reg.enable is not None:
            lines.append(f"{ind}{sample} = {value}")
            lines.append(f"{ind}if {_to_py(reg.enable, self.sym)}:")
            lines.append(f"{ind}    {body}")
        else:
            lines.append(f"{ind}{body}")
        return sample

    def sample_write(self, memory, port, lines, ind):
        addr = self.temp()
        data = self.temp()
        lines.append(f"{ind}{addr} = -1")
        lines.append(f"{ind}if {_to_py(port.enable, self.sym)}:")
        lines.append(f"{ind}    {addr} = {_to_py(port.addr, self.sym)}")
        lines.append(f"{ind}    if {addr} < {memory.depth}:")
        lines.append(
            f"{ind}        {data} = ({_to_py(port.data, self.sym)}) "
            f"& {mask(memory.width)}")
        lines.append(f"{ind}    else:")
        lines.append(f"{ind}        {addr} = -1")
        return self.mem(memory.name), addr, data

    def commit_write(self, commit, lines, ind):
        mem_local, addr, data = commit
        lines.append(f"{ind}if {addr} >= 0: {mem_local}[{addr}] = {data}")

    def sample_sync_read(self, memory, port, out, lines, ind):
        sample = self.temp()
        addr = self.temp()
        lines.append(f"{ind}{sample} = {out}")
        inner = ind
        if port.enable is not None:
            lines.append(f"{ind}if {_to_py(port.enable, self.sym)}:")
            inner = ind + "    "
        lines.append(f"{inner}{addr} = {_to_py(port.addr, self.sym)}")
        lines.append(
            f"{inner}{sample} = {self.mem(memory.name)}[{addr}] "
            f"if {addr} < {memory.depth} else 0")
        return sample


def _materialize(source: str, name: str) -> Callable:
    """Compile a kernel (or kernel module) source and pull out ``name``."""
    namespace: dict = {"min": min}
    exec(compile(source, f"<rtl-{name}>", "exec"), namespace)  # noqa: S102
    return namespace[name]


class KernelSet:
    """The settle, tick, run and capture kernels of one plan in one
    value representation, cached per active clock-domain set.

    Eagerly built: the settle kernel (used by every ``peek``). Lazily
    built: the tick/run/capture kernels. Sources are recorded in the
    plan's source table under ``prefix`` + ``settle``, ``tick:<domains>``,
    ``run:<domains>`` and ``crun:<domains>:ring:<signals>`` (or
    ``:grow:`` for an unbounded ring); a run or capture kernel with a
    stop set appends ``:until:<signals>`` to its key. This class emits
    plain-int kernels with an empty prefix;
    :class:`~repro.rtl.batch.BatchPlan` swaps in the lane emitter.
    """

    prefix = ""

    def __init__(self, plan: "CompiledPlan"):
        self.plan = plan
        self._ticks: dict[tuple[str, ...], Callable] = {}
        self._runs: dict[tuple, Callable] = {}
        self._captures: dict[tuple, Callable] = {}
        #: ``settle(env, mems)`` with async memory read ports compiled
        #: in (the interpreted engine walks them with ``Expr.eval``).
        self.settle: Callable = self._build("settle", "settle")

    def emitter(self) -> _Emitter:
        return _ScalarEmitter(self.plan)

    def _build(self, kind: str, key: str, active: tuple[str, ...] = (),
               capture: Optional[tuple[tuple[str, ...], bool]] = None,
               until: tuple[str, ...] = ()) -> Callable:
        if until:
            key += ":until:" + ",".join(until)
        return self.plan.kernel_from_source(
            self.prefix + key, _KERNELS[kind][0],
            lambda: self.emitter().source(kind, active, capture, until))

    def tick_kernel(self, active: tuple[str, ...]) -> Callable:
        """``tick(env, mems)``: one full edge of ``active`` domains."""
        kernel = self._ticks.get(active)
        if kernel is None:
            kernel = self._ticks[active] = self._build(
                "tick", "tick:" + "+".join(active), active)
        return kernel

    def run_kernel(self, active: tuple[str, ...],
                   until: tuple[str, ...] = ()) -> Callable:
        """``run(env, mems, n)``: ``n`` consecutive edges of ``active``
        domains with the loop inside compiled code — signals live in
        local variables for the whole run. With stop signals ``until``
        the loop ends before the first edge at which any of them
        settles high, and the kernel returns the edges it committed."""
        kernel = self._runs.get((active, until))
        if kernel is None:
            kernel = self._runs[active, until] = self._build(
                "run", "run:" + "+".join(active), active, until=until)
        return kernel

    def capture_run_kernel(self, active: tuple[str, ...],
                           signals: tuple[str, ...],
                           bounded: bool,
                           until: tuple[str, ...] = ()) -> Callable:
        """``crun(env, mems, n, ring, head, total, stride, k, cyc)``:
        the run loop with in-kernel trace capture.

        Each loop iteration settles, then (every ``stride``-th
        iteration) appends a ``(cycle, sig0, sig1, ...)`` tuple into
        ``ring`` — a preallocated circular list when ``bounded``, an
        append-only list otherwise — then commits the edge. Returns the
        updated ``(head, total, k, cyc)`` cursors so the caller can
        resume a later chunk exactly where this one stopped. Tracing
        therefore costs one tuple build per sample instead of dropping
        off the fast path entirely. K-lane rows hold the packed values,
        so one row samples every lane. A stop set ``until`` is checked
        after each settle and before the sample, as in
        :meth:`run_kernel`.
        """
        key = ("crun:" + "+".join(active)
               + (":ring:" if bounded else ":grow:") + ",".join(signals))
        kernel = self._captures.get((key, until))
        if kernel is None:
            kernel = self._captures[key, until] = self._build(
                "crun", key, active, (signals, bounded), until)
        return kernel


# ---------------------------------------------------------------------------
# compiled plans
# ---------------------------------------------------------------------------

class CompiledPlan:
    """Everything compiled once per netlist structure and shared by all
    simulators of that structure: a snapshot of the design, the kernel
    source table, the plain-int :attr:`kernels` and the per-lane-count
    batch plans (:meth:`batch_plan`).
    """

    def __init__(self, netlist):
        #: key -> generated module source of every materialized kernel.
        self._sources: dict[str, str] = {}
        #: name -> width of every flat signal; batch codegen sizes its
        #: lane stride from these (plans must not re-read the netlist).
        self.signal_widths: dict[str, int] = dict(netlist.signals)
        order = netlist.comb_order()
        self.assigns: list[tuple[str, Expr]] = [
            (name, netlist.assigns[name]) for name in order
            if name in netlist.assigns]
        self.regs: dict[str, _RegSnap] = {
            name: _RegSnap(
                name=name, width=reg.width, clock=reg.clock, next=reg.next,
                enable=reg.enable, reset=reg.reset,
                reset_value=reg.reset_value)
            for name, reg in netlist.registers.items()}
        self.memories: list[_MemSnap] = [
            _MemSnap(
                name=name, width=memory.width, depth=memory.depth,
                read_ports=tuple(
                    _ReadPortSnap(name=p.name, addr=p.addr, sync=p.sync,
                                  enable=p.enable, clock=p.clock)
                    for p in memory.read_ports),
                write_ports=tuple(
                    _WritePortSnap(addr=p.addr, data=p.data,
                                   enable=p.enable, clock=p.clock)
                    for p in memory.write_ports))
            for name, memory in netlist.memories.items()]

        self.regs_by_domain: dict[str, list[str]] = {}
        for name, reg in self.regs.items():
            self.regs_by_domain.setdefault(reg.clock, []).append(name)
        #: domain -> ordered ("w"/"r", _MemSnap, port snapshot) tuples;
        #: the order matches the interpreted tick's plans exactly, so
        #: commit ordering is identical across engines.
        self.port_plans: dict[str, list] = {}
        for memory in self.memories:
            for wport in memory.write_ports:
                self.port_plans.setdefault(wport.clock, []).append(
                    ("w", memory, wport))
            for rport in memory.read_ports:
                if rport.sync:
                    self.port_plans.setdefault(rport.clock, []).append(
                        ("r", memory, rport))

        #: The fused engine's kernels (settle is built eagerly).
        self.kernels = KernelSet(self)
        self._batch_plans: dict[int, KernelSet] = {}

    # -- kernel source management ------------------------------------------

    def kernel_from_source(self, key: str, name: str,
                           build: Callable[[], str]) -> Callable:
        """Generate the source of kernel ``key``, record it, and compile
        it (callers cache the compiled kernel, so each key builds once
        per plan)."""
        source = self._sources[key] = build()
        return _materialize(source, name)

    # -- batched (bit-parallel) tier ---------------------------------------

    def batch_plan(self, lanes: int) -> KernelSet:
        """The K-lane :class:`~repro.rtl.batch.BatchPlan` of this design.

        Batch plans are cached per lane count and record their kernel
        sources in this plan's table (keys are prefixed ``b<K>:``).
        """
        plan = self._batch_plans.get(lanes)
        if plan is None:
            from .batch import BatchPlan
            plan = self._batch_plans[lanes] = BatchPlan(self, lanes)
        return plan


# ---------------------------------------------------------------------------
# the plan cache
# ---------------------------------------------------------------------------

_PLAN_CACHE: "OrderedDict[str, CompiledPlan]" = OrderedDict()
_PLAN_CACHE_LIMIT = 64
_PLAN_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def compiled_plan_for(netlist) -> CompiledPlan:
    """Return the (possibly cached) :class:`CompiledPlan` for a netlist.

    The key is the structural fingerprint, so any netlist with identical
    execution semantics — including the same object re-elaborated, or
    mutated and fingerprinted again — shares one plan.
    """
    from ..obs import get_registry, get_tracer
    registry = get_registry()
    key = netlist.fingerprint()
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _PLAN_STATS["hits"] += 1
        registry.counter("sim.plan_cache.hits").inc()
        _PLAN_CACHE.move_to_end(key)
        return plan
    _PLAN_STATS["misses"] += 1
    registry.counter("sim.plan_cache.misses").inc()
    with get_tracer().span("sim.plan_compile",
                           fingerprint=key[:12]) as span:
        start = perf_counter()
        plan = CompiledPlan(netlist)
        elapsed = perf_counter() - start
        if span is not None:
            span.set(registers=len(netlist.registers),
                     signals=len(netlist.signals))
    registry.counter("sim.plan_compile_seconds").inc(elapsed)
    _PLAN_CACHE[key] = plan
    while len(_PLAN_CACHE) > _PLAN_CACHE_LIMIT:
        _PLAN_CACHE.popitem(last=False)
        _PLAN_STATS["evictions"] += 1
        registry.counter("sim.plan_cache.evictions").inc()
    return plan


def plan_cache_stats() -> dict:
    """Hit/miss/eviction counters plus the current size (for tests,
    benchmarks, and the CLI ``stats``)."""
    return {**_PLAN_STATS, "size": len(_PLAN_CACHE)}


def clear_plan_cache() -> None:
    _PLAN_CACHE.clear()
    _PLAN_STATS["hits"] = 0
    _PLAN_STATS["misses"] = 0
    _PLAN_STATS["evictions"] = 0
