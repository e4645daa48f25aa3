"""Fluent construction DSL for :class:`~repro.rtl.module.Module`.

The builder keeps design code close to Verilog in shape while staying
plain Python::

    b = ModuleBuilder("counter")
    clk_en = b.input("en", 1)
    count = b.reg("count", 8)
    b.next(count, mux(clk_en, count + 1, count))
    b.output_expr("out", count)
    counter = b.build()
"""

from __future__ import annotations

from typing import Optional

from ..errors import ElaborationError
from .expr import Const, Expr, Ref
from .module import (
    INPUT,
    OUTPUT,
    Instance,
    Memory,
    MemoryReadPort,
    MemoryWritePort,
    Module,
    Register,
)


class ModuleBuilder:
    """Builds one :class:`Module`; every method returns :class:`Ref` handles
    so expressions can be composed immediately."""

    def __init__(self, name: str):
        self._module = Module(name)
        self._built = False

    # -- signals -----------------------------------------------------------

    def input(self, name: str, width: int) -> Ref:
        """Declare an input port."""
        self._module.add_port(name, width, INPUT)
        return Ref(name, width)

    def output(self, name: str, width: int) -> Ref:
        """Declare an output port (drive it later via :meth:`assign`)."""
        self._module.add_port(name, width, OUTPUT)
        return Ref(name, width)

    def output_expr(self, name: str, expr: Expr) -> Ref:
        """Declare an output port and drive it in one step."""
        self._module.add_port(name, expr.width, OUTPUT)
        self._module.add_assign(name, expr)
        return Ref(name, expr.width)

    def wire(self, name: str, width: int) -> Ref:
        """Declare an undriven wire (connect an instance output to it)."""
        self._module.add_wire(name, width)
        return Ref(name, width)

    def assign(self, target: Ref | str, expr: Expr) -> Ref:
        """Continuous assignment to a declared wire or output port."""
        name = target.name if isinstance(target, Ref) else target
        self._module.add_assign(name, expr)
        return self._module.ref(name)

    def wire_expr(self, name: str, expr: Expr) -> Ref:
        """Declare a wire and drive it in one step."""
        self._module.add_wire(name, expr.width)
        self._module.add_assign(name, expr)
        return Ref(name, expr.width)

    def reg(self, name: str, width: int, init: int = 0, clock: str = "clk",
            reset: Optional[Expr] = None, reset_value: int = 0,
            enable: Optional[Expr] = None) -> Ref:
        """Declare a register; set its D input later with :meth:`next`."""
        self._module.add_register(Register(
            name=name, width=width, init=init, clock=clock,
            reset=reset, reset_value=reset_value, enable=enable))
        return Ref(name, width)

    def next(self, reg: Ref | str, expr: Expr) -> None:
        """Set the next-state expression of a register."""
        name = reg.name if isinstance(reg, Ref) else reg
        register = self._module.registers.get(name)
        if register is None:
            raise ElaborationError(
                f"{self._module.name}: {name!r} is not a register")
        if register.next is not None:
            raise ElaborationError(
                f"{self._module.name}: register {name!r} already driven")
        if expr.width != register.width:
            raise ElaborationError(
                f"{self._module.name}: register {name!r} is "
                f"{register.width} bits, next-state is {expr.width}")
        register.next = expr

    def memory(self, name: str, width: int, depth: int,
               init: dict[int, int] | None = None) -> Memory:
        """Declare a memory array; attach ports with read/write helpers."""
        memory = Memory(name=name, width=width, depth=depth,
                        init=dict(init or {}))
        self._module.add_memory(memory)
        return memory

    def read_port(self, memory: Memory, name: str, addr: Expr,
                  sync: bool = False, enable: Optional[Expr] = None,
                  clock: str = "clk") -> Ref:
        """Attach a read port; returns the wire carrying read data."""
        self._module.add_wire(name, memory.width)
        memory.read_ports.append(MemoryReadPort(
            name=name, addr=addr, sync=sync, enable=enable, clock=clock))
        return Ref(name, memory.width)

    def write_port(self, memory: Memory, addr: Expr, data: Expr,
                   enable: Expr, clock: str = "clk") -> None:
        """Attach a write port."""
        if data.width != memory.width:
            raise ElaborationError(
                f"{self._module.name}: memory {memory.name!r} is "
                f"{memory.width} bits wide, write data is {data.width}")
        memory.write_ports.append(MemoryWritePort(
            addr=addr, data=data, enable=enable, clock=clock))

    # -- hierarchy -----------------------------------------------------------

    def instantiate(self, module: Module, name: str,
                    inputs: dict[str, Expr] | None = None,
                    outputs: dict[str, str] | None = None) -> dict[str, Ref]:
        """Instantiate ``module``; auto-creates wires for unlisted outputs.

        Returns a map of child output port name to the parent :class:`Ref`
        carrying it (named ``{inst}_{port}`` unless overridden).
        """
        inputs = dict(inputs or {})
        outputs = dict(outputs or {})
        refs: dict[str, Ref] = {}
        for port in module.output_ports():
            wire = outputs.get(port.name)
            if wire is None:
                wire = f"{name}_{port.name}"
                self._module.add_wire(wire, port.width)
                outputs[port.name] = wire
            refs[port.name] = Ref(wire, port.width)
        inst = Instance(name=name, module=module,
                        inputs=inputs, outputs=outputs)
        self._module.add_instance(inst)
        return refs

    # -- verification hooks ---------------------------------------------------

    def assertion(self, text: str) -> None:
        """Attach an SVA assertion source string to this module."""
        self._module.assertions.append(text)

    def attribute(self, key: str, value) -> None:
        """Attach a free-form attribute (constraints, hints)."""
        self._module.attributes[key] = value

    # -- misc -----------------------------------------------------------------

    def const(self, value: int, width: int) -> Const:
        return Const(value, width)

    def sig(self, name: str) -> Ref:
        """Reference an already-declared signal by name."""
        return self._module.ref(name)

    def build(self) -> Module:
        """Finalize, validate (every wire driven) and return the module."""
        if self._built:
            raise ElaborationError(
                f"{self._module.name}: build() called twice")
        for name, register in self._module.registers.items():
            if register.next is None:
                # A register with no next-state holds its value; model that
                # explicitly so downstream passes never see None.
                register.next = Ref(name, register.width)
        self._module.validate()
        self._built = True
        return self._module

    @property
    def module(self) -> Module:
        """The module being built (for advanced/direct manipulation)."""
        return self._module
