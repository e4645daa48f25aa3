"""Flat (elaborated) design representation.

A :class:`Netlist` is what the simulator, the vendor synthesis flow, and the
bounded model checker consume: a single namespace of signals with
combinational assigns, registers, and memories. Names are hierarchical paths
joined with ``.`` (``tile0.core.pc``), which is exactly the naming scheme the
readback/state-extraction machinery matches against.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

from ..errors import CombinationalLoopError, NameConflictError, UnknownSignalError
from .expr import Expr
from .module import Memory, Register


def copy_register(reg: Register) -> Register:
    """An independent copy of a flat register (``Expr`` trees shared)."""
    return Register(**reg.__dict__)


def copy_memory(mem: Memory) -> Memory:
    """An independent copy of a flat memory: ports and init duplicated."""
    return Memory(
        name=mem.name, width=mem.width, depth=mem.depth,
        read_ports=[dataclasses.replace(p) for p in mem.read_ports],
        write_ports=[dataclasses.replace(p) for p in mem.write_ports],
        init=dict(mem.init))


@dataclass
class Netlist:
    """An elaborated, flat design."""

    name: str
    signals: dict[str, int] = field(default_factory=dict)
    inputs: set[str] = field(default_factory=set)
    outputs: set[str] = field(default_factory=set)
    assigns: dict[str, Expr] = field(default_factory=dict)
    registers: dict[str, Register] = field(default_factory=dict)
    memories: dict[str, Memory] = field(default_factory=dict)
    # Assertion source text with the hierarchical prefix it was found under.
    assertions: list[tuple[str, str]] = field(default_factory=list)
    # name -> hierarchical instance path that owns the signal ("" = top).
    owner: dict[str, str] = field(default_factory=dict)
    # Decoupled interface declarations with their hierarchical prefix.
    interfaces: list[tuple[str, object]] = field(default_factory=list)

    # -- construction -------------------------------------------------------

    def add_signal(self, name: str, width: int, owner: str = "") -> None:
        if name in self.signals:
            raise NameConflictError(f"flat signal {name!r} already exists")
        self.signals[name] = width
        self.owner[name] = owner

    def width(self, name: str) -> int:
        try:
            return self.signals[name]
        except KeyError:
            raise UnknownSignalError(f"unknown flat signal {name!r}") from None

    # -- analysis -------------------------------------------------------------

    def clock_domains(self) -> set[str]:
        """All clock-domain names used by any state element."""
        domains = {reg.clock for reg in self.registers.values()}
        for memory in self.memories.values():
            domains.update(p.clock for p in memory.write_ports)
            domains.update(p.clock for p in memory.read_ports if p.sync)
        return domains or {"clk"}

    def comb_order(self) -> list[str]:
        """Topological evaluation order for combinational assigns.

        Registers and memory sync-read outputs are sequential boundaries and
        do not create edges. Raises :class:`CombinationalLoopError` on a
        combinational cycle, naming the signals involved.
        """
        sorter: TopologicalSorter = TopologicalSorter()
        for target, expr in self.assigns.items():
            deps = [
                source for source in expr.signals()
                if source in self.assigns  # only comb-driven signals order us
            ]
            sorter.add(target, *deps)
        try:
            return list(sorter.static_order())
        except CycleError as exc:
            raise CombinationalLoopError(
                f"combinational loop involving {exc.args[1]}") from None

    def fingerprint(self) -> str:
        """Structural hash of everything that determines execution.

        Two netlists with equal fingerprints simulate identically, so the
        compiled-plan cache can key on this: signals and widths, inputs,
        assigns (in insertion order — it fixes the topological tie-break
        of :meth:`comb_order`), registers with their full next/enable/
        reset expressions and clock domains, and memory geometry with
        every port expression. Memory/register *initial* values are
        excluded on purpose: they configure a simulator's starting state,
        not its compiled code.
        """
        h = hashlib.sha256()
        out = h.update

        def put(text: str) -> None:
            out(text.encode())

        put(f"n {self.name};")
        for name, width in self.signals.items():
            put(f"s {name} {width};")
        for name in sorted(self.inputs):
            put(f"i {name};")
        for name, expr in self.assigns.items():
            put(f"a {name}={expr!r};")
        for name, reg in self.registers.items():
            put(f"r {name} w{reg.width} c{reg.clock} n{reg.next!r} "
                f"e{reg.enable!r} t{reg.reset!r} v{reg.reset_value};")
        for name, memory in self.memories.items():
            put(f"m {name} w{memory.width} d{memory.depth};")
            for port in memory.read_ports:
                put(f"rp {port.name} a{port.addr!r} s{port.sync} "
                    f"e{port.enable!r} c{port.clock};")
            for port in memory.write_ports:
                put(f"wp a{port.addr!r} d{port.data!r} "
                    f"e{port.enable!r} c{port.clock};")
        return h.hexdigest()

    def sync_read_outputs(self) -> dict[str, int]:
        """Synchronous memory read-port outputs: name -> width.

        A ``sync=True`` read port registers its data — a BRAM/LUTRAM
        output latch. That latch is architectural state exactly like a
        flip-flop: it holds live data across a pause, so capture,
        restore, and deterministic replay must all cover it.
        """
        out: dict[str, int] = {}
        for memory in self.memories.values():
            for port in memory.read_ports:
                if port.sync:
                    out[port.name] = memory.width
        return out

    def clone(self) -> "Netlist":
        """An independent deep copy sharing only immutable ``Expr`` trees.

        Register/Memory dataclasses and every container are duplicated, so
        editing the clone (a mutation-engine variant, an instrumentation
        pass) can never alias back into the parent. That aliasing is a
        plan-cache hazard: a shallow copy whose ``Register`` objects are
        shared would let an in-place edit rewrite the parent too, leaving
        parent and "mutant" with one fingerprint — and the cached golden
        kernel would be served for the buggy variant.
        """
        out = Netlist(name=self.name)
        out.signals = dict(self.signals)
        out.inputs = set(self.inputs)
        out.outputs = set(self.outputs)
        out.assigns = dict(self.assigns)
        out.registers = {
            name: copy_register(reg)
            for name, reg in self.registers.items()}
        out.memories = {
            name: copy_memory(mem) for name, mem in self.memories.items()}
        out.assertions = list(self.assertions)
        out.owner = dict(self.owner)
        out.interfaces = list(self.interfaces)
        return out

    def validate(self) -> None:
        """Consistency check: every non-input signal must have a driver and
        every expression must reference known signals."""
        driven = set(self.assigns) | set(self.registers) | self.inputs
        for memory in self.memories.values():
            driven.update(port.name for port in memory.read_ports)
        for name in self.signals:
            if name not in driven and name not in self.memories:
                raise UnknownSignalError(
                    f"{self.name}: flat signal {name!r} has no driver")
        every_expr: list[Expr] = list(self.assigns.values())
        for reg in self.registers.values():
            if reg.next is not None:
                every_expr.append(reg.next)
            if reg.enable is not None:
                every_expr.append(reg.enable)
            if reg.reset is not None:
                every_expr.append(reg.reset)
        for memory in self.memories.values():
            for rport in memory.read_ports:
                every_expr.append(rport.addr)
                if rport.enable is not None:
                    every_expr.append(rport.enable)
            for wport in memory.write_ports:
                every_expr.extend((wport.addr, wport.data, wport.enable))
        known = set(self.signals)
        for expr in every_expr:
            missing = expr.signals() - known
            if missing:
                raise UnknownSignalError(
                    f"{self.name}: expression references unknown "
                    f"signals {sorted(missing)}")
