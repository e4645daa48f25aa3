"""Hierarchy elaboration: :class:`Module` tree -> flat :class:`Netlist`.

Signal names are prefixed with their instance path. Instances may carry a
``clock_map`` attribute (set via :func:`set_clock_map`) renaming the child's
clock domains — this is how the Debug Controller places the module under
test into a separate, gateable domain.

Flattening is depth-first, so one instance's subtree lands in every
ordered netlist field as one contiguous block. :func:`cut_instances`
records the items around each such block once; :func:`splice` then
rebuilds the design with a new module at that path by flattening only
the new module (:func:`flatten_instance`) — what VTI's incremental
compile needs, in partition-sized work.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ElaborationError, NameConflictError
from .expr import Expr, Ref
from .module import Instance, Memory, MemoryReadPort, MemoryWritePort, Module, Register
from .netlist import Netlist, copy_memory, copy_register

#: Instance attribute used to rename child clock domains.
CLOCK_MAP_ATTR = "_clock_map"


def set_clock_map(inst: Instance, mapping: dict[str, str]) -> None:
    """Rename the child's clock domains during elaboration.

    ``mapping`` maps child domain names to parent domain names, e.g.
    ``{"clk": "mut_clk"}``.
    """
    setattr(inst, CLOCK_MAP_ATTR, dict(mapping))


def _clock_map(inst: Instance) -> dict[str, str]:
    return getattr(inst, CLOCK_MAP_ATTR, {})


def elaborate(top: Module) -> Netlist:
    """Flatten ``top`` and everything below it into a :class:`Netlist`."""
    return _elaborate(top, None)


def _elaborate(top: Module, marks) -> Netlist:
    netlist = Netlist(name=top.name)
    _flatten_into(netlist, top, prefix="", clock_map={}, marks=marks)
    # Top-level ports become the netlist interface.
    for port in top.input_ports():
        netlist.inputs.add(port.name)
    for port in top.output_ports():
        netlist.outputs.add(port.name)
    netlist.validate()
    return netlist


#: The netlist fields flattening fills in order: dicts, then lists.
_ORDERED_FIELDS = ("signals", "owner", "assigns", "registers", "memories",
                   "assertions", "interfaces")


def _field_sizes(netlist: Netlist) -> tuple[int, ...]:
    return tuple(len(getattr(netlist, name)) for name in _ORDERED_FIELDS)


@dataclass(frozen=True)
class InstanceCut:
    """An elaborated design with one instance's subtree cut out.

    ``before`` and ``after`` hold, field by field, the design's items
    ahead of the subtree's block and behind it; ``before`` also carries
    the design's name and top-level inputs and outputs. The parent's
    input bindings to the instance (``<path>.<port>`` assigns) are the
    parent's items, so they sit in ``after``. Registers and memories
    here are never handed out: :func:`splice` copies them into each
    netlist it builds.
    """

    path: str
    #: Clock-domain renames elaboration applies at ``path``.
    clock_map: dict[str, str]
    before: Netlist
    after: Netlist


def cut_instances(top: Module, paths) -> dict[str, InstanceCut]:
    """Elaborate ``top`` and cut out the subtree at each instance path."""
    marks: dict = dict.fromkeys(paths)
    netlist = _elaborate(top, marks)
    cuts = {}
    for path, mark in marks.items():
        if mark is None:
            raise ElaborationError(f"no instance at path {path!r}")
        clock_map, start, end = mark
        before, after = Netlist(name=netlist.name), Netlist(name=netlist.name)
        before.inputs, before.outputs = netlist.inputs, netlist.outputs
        for name, lo, hi in zip(_ORDERED_FIELDS, start, end):
            value = getattr(netlist, name)
            if isinstance(value, dict):
                items = list(value.items())
                setattr(before, name, dict(items[:lo]))
                setattr(after, name, dict(items[hi:]))
            else:
                setattr(before, name, value[:lo])
                setattr(after, name, value[hi:])
        cuts[path] = InstanceCut(path=path, clock_map=clock_map,
                                 before=before, after=after)
    return cuts


def flatten_instance(module: Module, cut: InstanceCut) -> Netlist:
    """``module`` flattened alone at ``cut``'s path: the block to splice.

    Names, owners and clock domains come out exactly as elaborating the
    whole design would give them; the result is not validated (the
    block's inputs are driven by the parent).
    """
    block = Netlist(name=cut.before.name)
    _flatten_into(block, module, cut.path, cut.clock_map)
    return block


def splice(cut: InstanceCut, block: Netlist) -> Netlist:
    """The cut design with ``block`` in place of the cut subtree.

    Equal, item for item and in insertion order, to elaborating the top
    with the block's module at ``cut.path`` (so its
    :meth:`~Netlist.fingerprint` matches too), and validated the same
    way. The block's registers and memories are taken over; the cut's
    are copied, so editing the result never reaches the cut or any
    other netlist spliced from it.
    """
    before, after = cut.before, cut.after
    out = Netlist(name=before.name, inputs=set(before.inputs),
                  outputs=set(before.outputs))
    for name in ("signals", "owner", "assigns"):
        merged = dict(getattr(before, name))
        merged.update(getattr(block, name))
        merged.update(getattr(after, name))
        setattr(out, name, merged)
    if len(out.signals) != (len(before.signals) + len(block.signals)
                            + len(after.signals)):
        clash = (before.signals.keys() | after.signals.keys()) \
            & block.signals.keys()
        raise NameConflictError(
            f"flat signal {min(clash)!r} already exists")
    out.registers = {name: copy_register(reg)
                     for name, reg in before.registers.items()}
    out.registers.update(block.registers)
    out.registers.update((name, copy_register(reg))
                         for name, reg in after.registers.items())
    out.memories = {name: copy_memory(memory)
                    for name, memory in before.memories.items()}
    out.memories.update(block.memories)
    out.memories.update((name, copy_memory(memory))
                        for name, memory in after.memories.items())
    out.assertions = before.assertions + block.assertions + after.assertions
    out.interfaces = before.interfaces + block.interfaces + after.interfaces
    out.validate()
    return out


def _flat(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


def _rename_expr(expr: Expr, prefix: str) -> Expr:
    if not prefix:
        return expr
    return expr.substitute(lambda ref: Ref(_flat(prefix, ref.name), ref.width))


def _map_clock(clock: str, clock_map: dict[str, str]) -> str:
    return clock_map.get(clock, clock)


def _flatten_into(netlist: Netlist, module: Module, prefix: str,
                  clock_map: dict[str, str], marks=None) -> None:
    """Append ``module`` under ``prefix``, depth first.

    ``marks`` (instance path -> None) receives, for each path reached,
    its clock map and every ordered field's size on entry and on exit.
    """
    start = (_field_sizes(netlist)
             if marks is not None and prefix in marks else None)
    # Declare every signal of this module level.
    for port in module.ports.values():
        netlist.add_signal(_flat(prefix, port.name), port.width, prefix)
    for wire, width in module.wires.items():
        netlist.add_signal(_flat(prefix, wire), width, prefix)
    for reg in module.registers.values():
        netlist.add_signal(_flat(prefix, reg.name), reg.width, prefix)

    # Combinational assigns.
    for target, expr in module.assigns.items():
        netlist.assigns[_flat(prefix, target)] = _rename_expr(expr, prefix)

    # Registers.
    for reg in module.registers.values():
        flat_reg = Register(
            name=_flat(prefix, reg.name),
            width=reg.width,
            next=_rename_expr(reg.next, prefix) if reg.next else None,
            init=reg.init,
            clock=_map_clock(reg.clock, clock_map),
            enable=_rename_expr(reg.enable, prefix) if reg.enable else None,
            reset=_rename_expr(reg.reset, prefix) if reg.reset else None,
            reset_value=reg.reset_value,
        )
        netlist.registers[flat_reg.name] = flat_reg

    # Memories (read-port data wires get declared here too).
    for memory in module.memories.values():
        flat_ports_r = []
        for rport in memory.read_ports:
            # The read-data wire was already declared in the wire pass
            # (ModuleBuilder.read_port declares it as a module wire).
            flat_name = _flat(prefix, rport.name)
            flat_ports_r.append(MemoryReadPort(
                name=flat_name,
                addr=_rename_expr(rport.addr, prefix),
                sync=rport.sync,
                enable=(_rename_expr(rport.enable, prefix)
                        if rport.enable else None),
                clock=_map_clock(rport.clock, clock_map),
            ))
        flat_ports_w = [
            MemoryWritePort(
                addr=_rename_expr(wport.addr, prefix),
                data=_rename_expr(wport.data, prefix),
                enable=_rename_expr(wport.enable, prefix),
                clock=_map_clock(wport.clock, clock_map),
            )
            for wport in memory.write_ports
        ]
        flat_mem = Memory(
            name=_flat(prefix, memory.name),
            width=memory.width,
            depth=memory.depth,
            read_ports=flat_ports_r,
            write_ports=flat_ports_w,
            init=dict(memory.init),
        )
        netlist.memories[flat_mem.name] = flat_mem
        netlist.signals[flat_mem.name] = memory.width  # container marker
        netlist.owner[flat_mem.name] = prefix

    # Assertions keep their hierarchical context for name resolution.
    for text in module.assertions:
        netlist.assertions.append((prefix, text))
    for iface in module.interfaces:
        netlist.interfaces.append((prefix, iface))

    # Recurse into instances.
    for inst in module.instances.values():
        child_prefix = _flat(prefix, inst.name)
        child_clock_map = {
            child: _map_clock(parent, clock_map)
            for child, parent in _clock_map(inst).items()
        }
        merged_map = dict(clock_map)
        merged_map.update(child_clock_map)
        _flatten_into(netlist, inst.module, child_prefix, merged_map,
                      marks)

        # Bind child inputs: flat child port is assigned the parent expr.
        for pname, expr in inst.inputs.items():
            netlist.assigns[_flat(child_prefix, pname)] = \
                _rename_expr(expr, prefix)
        # Bind child outputs: the receiving parent wire aliases the child
        # port, unless the port is directly driven by a child register (then
        # the port itself already carries the value through its own assign).
        for pname, wire in inst.outputs.items():
            flat_wire = _flat(prefix, wire)
            flat_port = _flat(child_prefix, pname)
            if flat_wire in netlist.assigns:
                raise ElaborationError(
                    f"{flat_wire!r} driven by multiple instance outputs")
            netlist.assigns[flat_wire] = Ref(
                flat_port, inst.module.ports[pname].width)
    if start is not None:
        marks[prefix] = (clock_map, start, _field_sizes(netlist))
