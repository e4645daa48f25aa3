"""Compile netlists to Python code for fast simulation.

The simulator's fused engine runs the code generated here: one function
per *tick* of an active clock-domain set, performing settle →
register/memory-port sampling → commit in a single pass over local
variables, plus a ``run(n)`` variant that keeps the whole hot loop
inside compiled code (signals are loaded from the environment dict once
before the loop and stored back once after it).

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

The cache has two tiers. The in-memory tier above lives for one process;
beneath it, kernel *sources* persist on disk keyed by the same
fingerprint (:mod:`repro.rtl.plan_store`), so a fresh process skips the
expression-tree walks entirely and goes straight to ``compile()`` of the
stored text. Sources — not code objects — are stored because generated
text is stable across CPython versions and trivially verifiable, and any
load defect degrades to a counted miss.

A second kernel family rides on the same plans: bit-parallel *batched*
kernels (:mod:`repro.rtl.batch`) that advance K independent runs per
tick by packing one lane per run into each Python integer. Batch plans
are reached through :meth:`CompiledPlan.batch_plan` so they share both
cache tiers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from .._bits import mask
from .expr import BinaryOp, Concat, Const, Expr, Mux, Ref, Repl, Slice, UnaryOp
from .plan_store import get_plan_store

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

class _KernelBuilder:
    """Shared state while emitting one kernel: the signal-to-local map,
    the memory-to-local map, and the set of locals stored back to the
    environment when the kernel exits."""

    def __init__(self, plan: "CompiledPlan"):
        self.plan = plan
        self.locals_of: dict[str, str] = {}
        self.mem_of: dict[str, str] = {}
        self.stores: dict[str, None] = {}
        self._tmp = 0

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

    # -- body fragments ----------------------------------------------------

    def emit_async_reads(self, lines: list[str], ind: str) -> None:
        """Combinational memory read ports, applied in memory/port order
        (matches ``Simulator._apply_async_reads``: each port's result is
        visible to later ports and to the settle pass)."""
        for memory in self.plan.memories:
            for port in memory.read_ports:
                if port.sync:
                    continue
                addr = self.temp()
                out = self.store(port.name)
                lines.append(f"{ind}{addr} = {_to_py(port.addr, self.sym)}")
                lines.append(
                    f"{ind}{out} = {self.mem(memory.name)}[{addr}] "
                    f"if {addr} < {memory.depth} else 0")

    def emit_settle(self, lines: list[str], ind: str) -> None:
        """Async read pre-pass, topologically ordered assigns, async read
        post-pass — the full combinational settle."""
        self.emit_async_reads(lines, ind)
        for name, expr in self.plan.assigns:
            lines.append(f"{ind}{self.store(name)} = {_to_py(expr, self.sym)}")
        self.emit_async_reads(lines, ind)

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
                    lines.append(
                        f"{ind}if {_to_py(reg.enable, self.sym)}:")
                    lines.append(f"{ind}    {body}")
                else:
                    lines.append(f"{ind}{body}")
                self.stores[reg_name] = None
                reg_commits.append((value, sample))

        write_commits: list[tuple[str, str, str]] = []
        read_commits: list[tuple[str, str]] = []
        for domain in active:
            for kind, memory, port in self.plan.port_plans.get(domain, ()):
                if kind == "w":
                    addr = self.temp()
                    data = self.temp()
                    lines.append(f"{ind}{addr} = -1")
                    lines.append(
                        f"{ind}if {_to_py(port.enable, self.sym)}:")
                    lines.append(
                        f"{ind}    {addr} = {_to_py(port.addr, self.sym)}")
                    lines.append(f"{ind}    if {addr} < {memory.depth}:")
                    lines.append(
                        f"{ind}        {data} = "
                        f"({_to_py(port.data, self.sym)}) "
                        f"& {mask(memory.width)}")
                    lines.append(f"{ind}    else:")
                    lines.append(f"{ind}        {addr} = -1")
                    write_commits.append((self.mem(memory.name), addr, data))
                else:
                    out = self.store(port.name)
                    sample = self.temp()
                    addr = self.temp()
                    lines.append(f"{ind}{sample} = {out}")
                    inner = ind
                    if port.enable is not None:
                        lines.append(
                            f"{ind}if {_to_py(port.enable, self.sym)}:")
                        inner = ind + "    "
                    lines.append(
                        f"{inner}{addr} = {_to_py(port.addr, self.sym)}")
                    lines.append(
                        f"{inner}{sample} = "
                        f"{self.mem(memory.name)}[{addr}] "
                        f"if {addr} < {memory.depth} else 0")
                    read_commits.append((out, sample))

        for value, sample in reg_commits:
            lines.append(f"{ind}{value} = {sample}")
        for mem_local, addr, data in write_commits:
            lines.append(f"{ind}if {addr} >= 0: {mem_local}[{addr}] = {data}")
        for out, sample in read_commits:
            lines.append(f"{ind}{out} = {sample}")


def _kernel_source(name: str, kb: _KernelBuilder, params: str,
                   body: list[str], loop: bool,
                   prologue: tuple[str, ...] = (),
                   epilogue: tuple[str, ...] = ()) -> str:
    """Wrap a generated body in loads/stores; returns the full source.

    The source is self-contained (it only needs ``min`` in its globals),
    deterministic for a given plan structure, and therefore safe to
    persist on disk keyed by the netlist fingerprint. ``prologue`` lines
    run before the loads, ``epilogue`` lines after the stores (capture
    kernels use them for ring setup and state return).
    """
    lines = [f"def {name}({params}):"]
    lines.extend(prologue)
    for mem_name, local in kb.mem_of.items():
        lines.append(f"    {local} = mems[{mem_name!r}]")
    for sig_name, local in kb.locals_of.items():
        lines.append(f"    {local} = e[{sig_name!r}]")
    if loop:
        lines.append("    for _ in range(n):")
        lines.extend(body if body else ["        pass"])
    else:
        lines.extend(body if body else ["    pass"])
    for sig_name in kb.stores:
        lines.append(f"    e[{sig_name!r}] = {kb.locals_of[sig_name]}")
    lines.extend(epilogue)
    return "\n".join(lines)


def _capture_body_lines(sym: Callable[[str], str], signals: tuple[str, ...],
                        bounded: bool, ind: str) -> list[str]:
    """The in-loop sampling fragment shared by scalar and batched
    capture kernels: every ``stride``-th iteration appends one
    ``(cycle, sig0, sig1, ...)`` row into the ring.

    Sampling happens between settle and edge, so a row holds the
    settled state *after* ``cyc`` committed edges — exactly what an
    edge-hook observer reading back after commit ``cyc`` sees.
    """
    atoms = ", ".join(sym(name) for name in signals)
    lines = [f"{ind}if k == 0:"]
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
    return lines


#: Parameter list of every capture kernel (scalar and batched): the
#: ring list plus the four cursors the kernel threads through and
#: returns — write head, lifetime sample count, stride phase, cycle.
CAPTURE_PARAMS = "e, mems, n, ring, head, total, stride, k, cyc"
CAPTURE_EPILOGUE = ("    return head, total, k, cyc",)


def _materialize(source: str, name: str) -> Callable:
    """Compile a kernel (or kernel module) source and pull out ``name``."""
    namespace: dict = {"min": min}
    exec(compile(source, f"<rtl-{name}>", "exec"), namespace)  # noqa: S102
    return namespace[name]


# ---------------------------------------------------------------------------
# compiled plans
# ---------------------------------------------------------------------------

class CompiledPlan:
    """Everything compiled once per netlist structure and shared by all
    simulators of that structure.

    Eagerly built: the fused settle kernel (used by every ``peek``).
    Lazily built: the per-domain-set tick/run/capture kernels and the
    per-lane-count batch plans.

    ``sources`` seeds the kernel-source table from the disk tier: a
    kernel whose key is present is materialized by compiling the stored
    text instead of walking the expression trees. Freshly generated
    sources are merged back to disk as lazy kernels come into existence.
    """

    def __init__(self, netlist, fingerprint: Optional[str] = None,
                 sources: Optional[dict[str, str]] = None):
        self.fingerprint: str = fingerprint or netlist.fingerprint()
        self._sources: dict[str, str] = dict(sources or {})
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

        #: Fused settle kernel ``settle(env, mems)`` with async memory
        #: read ports compiled in (the interpreted engine walks them
        #: with ``Expr.eval`` instead).
        self.settle: Callable = self.kernel_from_source(
            "settle", "_settle", self._settle_source)

        self._tick_kernels: dict[tuple[str, ...], Callable] = {}
        self._run_kernels: dict[tuple[str, ...], Callable] = {}
        self._capture_kernels: dict[str, Callable] = {}
        self._batch_plans: dict[int, object] = {}

    # -- kernel source management ------------------------------------------

    def kernel_from_source(self, key: str, name: str,
                           build: Callable[[], str]) -> Callable:
        """Materialize the kernel ``key``, generating its source only if
        neither this plan nor the disk tier already holds it.

        A stored source that fails to compile (a CRC-valid file whose
        body was damaged) is discarded as a counted defect and the
        kernel is regenerated — never an error for the caller.
        """
        source = self._sources.get(key)
        if source is not None:
            try:
                return _materialize(source, name)
            except (SyntaxError, ValueError, KeyError, NameError):
                del self._sources[key]
                store = get_plan_store()
                if store is not None:
                    store.note_defect()
        source = build()
        self._sources[key] = source
        store = get_plan_store()
        if store is not None:
            store.merge(self.fingerprint, {key: source})
        return _materialize(source, name)

    def _settle_source(self) -> str:
        kb = _KernelBuilder(self)
        body: list[str] = []
        kb.emit_settle(body, "    ")
        return _kernel_source("_settle", kb, "e, mems", body, loop=False)

    # -- fused kernels (lazy, per active domain set) -----------------------

    def tick_kernel(self, active: tuple[str, ...]) -> Callable:
        """``tick(env, mems)``: one full edge of ``active`` domains."""
        kernel = self._tick_kernels.get(active)
        if kernel is None:
            def build() -> str:
                kb = _KernelBuilder(self)
                body: list[str] = []
                kb.emit_settle(body, "    ")
                kb.emit_edge(body, "    ", active)
                return _kernel_source("_tick", kb, "e, mems", body,
                                      loop=False)
            kernel = self.kernel_from_source(
                "tick:" + "+".join(active), "_tick", build)
            self._tick_kernels[active] = kernel
        return kernel

    def run_kernel(self, active: tuple[str, ...]) -> Callable:
        """``run(env, mems, n)``: ``n`` consecutive edges of ``active``
        domains with the loop inside compiled code — signals live in
        local variables for the whole run."""
        kernel = self._run_kernels.get(active)
        if kernel is None:
            def build() -> str:
                kb = _KernelBuilder(self)
                body: list[str] = []
                kb.emit_settle(body, "        ")
                kb.emit_edge(body, "        ", active)
                return _kernel_source("_run", kb, "e, mems, n", body,
                                      loop=True)
            kernel = self.kernel_from_source(
                "run:" + "+".join(active), "_run", build)
            self._run_kernels[active] = kernel
        return kernel

    def capture_run_kernel(self, active: tuple[str, ...],
                           signals: tuple[str, ...],
                           bounded: bool) -> Callable:
        """``crun(env, mems, n, ring, head, total, stride, k, cyc)``:
        the fused run loop with in-kernel trace capture.

        Each loop iteration settles, then (every ``stride``-th
        iteration) appends a ``(cycle, sig0, sig1, ...)`` tuple into
        ``ring`` — a preallocated circular list when ``bounded``, an
        append-only list otherwise — then commits the edge. Returns the
        updated ``(head, total, k, cyc)`` cursors so the caller can
        resume a later chunk exactly where this one stopped. Tracing
        therefore costs one tuple build per sample instead of dropping
        off the fused fast path entirely.
        """
        key = ("crun:" + "+".join(active)
               + (":ring:" if bounded else ":grow:") + ",".join(signals))
        kernel = self._capture_kernels.get(key)
        if kernel is None:
            def build() -> str:
                kb = _KernelBuilder(self)
                body: list[str] = []
                kb.emit_settle(body, "        ")
                body.extend(_capture_body_lines(
                    kb.sym, signals, bounded, "        "))
                kb.emit_edge(body, "        ", active)
                body.append("        cyc += 1")
                prologue = ("    _rl = len(ring)",) if bounded else ()
                return _kernel_source(
                    "_crun", kb, CAPTURE_PARAMS, body, loop=True,
                    prologue=prologue, epilogue=CAPTURE_EPILOGUE)
            kernel = self.kernel_from_source(key, "_crun", build)
            self._capture_kernels[key] = kernel
        return kernel

    # -- batched (bit-parallel) tier ---------------------------------------

    def batch_plan(self, lanes: int):
        """The K-lane :class:`~repro.rtl.batch.BatchPlan` of this design.

        Batch plans are cached per lane count and their kernel sources
        live in the same two cache tiers as the scalar kernels (keys are
        prefixed ``b<K>:``).
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
    mutated and fingerprinted again — shares one plan. A memory miss
    falls through to the on-disk source store before paying codegen.
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
    store = get_plan_store()
    sources = store.load(key) if store is not None else None
    with get_tracer().span("sim.plan_compile",
                           fingerprint=key[:12]) as span:
        start = perf_counter()
        plan = CompiledPlan(netlist, fingerprint=key, sources=sources)
        elapsed = perf_counter() - start
        if span is not None:
            span.set(registers=len(netlist.registers),
                     signals=len(netlist.signals),
                     disk=sources is not None)
    registry.counter("sim.plan_compile_seconds").inc(elapsed)
    _PLAN_CACHE[key] = plan
    while len(_PLAN_CACHE) > _PLAN_CACHE_LIMIT:
        _PLAN_CACHE.popitem(last=False)
        _PLAN_STATS["evictions"] += 1
        registry.counter("sim.plan_cache.evictions").inc()
    return plan


def plan_cache_stats() -> dict:
    """Hit/miss/eviction counters for both cache tiers plus the current
    in-memory size (for tests, benchmarks, and the CLI ``stats``)."""
    store = get_plan_store()
    return {**_PLAN_STATS, "size": len(_PLAN_CACHE),
            "disk": store.stats_dict() if store is not None
            else {"enabled": False}}


def clear_plan_cache() -> None:
    _PLAN_CACHE.clear()
    _PLAN_STATS["hits"] = 0
    _PLAN_STATS["misses"] = 0
    _PLAN_STATS["evictions"] = 0
