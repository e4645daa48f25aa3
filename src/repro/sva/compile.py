"""Assertion Synthesis: SVA properties -> synthesizable monitor FSMs.

The generated monitor observes the referenced design signals every cycle
and raises a one-cycle ``fail`` pulse when the property is violated — the
signal the Debug Controller turns into an assertion breakpoint.

Construction (the classic checker-generator approach, cf. MBAC):

- the **antecedent** sequence runs as a one-hot NFA with a fresh attempt
  injected every enabled cycle; a combinational ``match`` fires on the
  cycle an attempt completes;
- the **consequent** sequence is determinized by subset construction over
  the minterms of its atomic conditions. Obligations (tokens) are injected
  on antecedent matches; determinism makes same-state tokens
  indistinguishable, so a one-hot register per DFA state tracks all
  outstanding obligations. A token stepping into the empty subset can
  never match — ``fail``; a token reaching an accepting subset has
  matched — it is discharged;
- ``disable iff`` clears all state and masks ``fail`` (synchronous
  abort, matching the FPGA-synthesizable subset);
- ``$past``/``$rose``/``$fell``/``$stable`` allocate history register
  chains inside the monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Callable, Union

from ..errors import UnsynthesizableError
from ..rtl.builder import ModuleBuilder
from ..rtl.expr import Const, Expr, Ref, UnaryOp, mux
from ..rtl.module import Module
from .ast import Binder, PropImplication, Property, PropSeq, SeqBool
from .nfa import Nfa, build_sequence
from .parser import parse_assertion

#: Subset construction explodes as 2^k in distinct atomic conditions; real
#: assertions use a handful. Beyond this we refuse rather than blow up.
MAX_ATOMS = 8

WidthSource = Union[dict, Callable[[str], int]]


@dataclass(frozen=True)
class ResourceReport:
    """Hardware cost of one compiled assertion (paper Figure 8 data)."""

    name: str
    flip_flops: int
    lut_estimate: int
    antecedent_states: int
    consequent_states: int
    atoms: int

    def __str__(self) -> str:
        return (f"{self.name}: {self.flip_flops} FFs, "
                f"~{self.lut_estimate} LUTs")


@dataclass
class AssertionMonitor:
    """A compiled assertion: monitor module + wiring metadata."""

    property: Property
    module: Module
    report: ResourceReport
    #: monitor input port -> design signal name it must be wired to.
    port_map: dict[str, str] = field(default_factory=dict)
    fail_output: str = "fail"
    match_output: str = "match"


def _sanitize(name: str) -> str:
    return name.replace(".", "__")


def _tree(terms: list[Expr], combine) -> Expr:
    """Balanced reduction (log LUT depth — monitors sit on the pause
    path of high-frequency designs)."""
    terms = list(terms)
    while len(terms) > 1:
        nxt = []
        for index in range(0, len(terms) - 1, 2):
            nxt.append(combine(terms[index], terms[index + 1]))
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]


def _or_all(terms: list[Expr]) -> Expr:
    if not terms:
        return Const(0, 1)
    return _tree(terms, lambda a, b: a.logical_or(b))


def _and_all(terms: list[Expr]) -> Expr:
    if not terms:
        return Const(1, 1)
    return _tree(terms, lambda a, b: a.logical_and(b))


class _MonitorBuilder:
    """Owns the ModuleBuilder plus binding state ($past chains, ports)."""

    def __init__(self, name: str, widths: WidthSource, clock: str):
        self.b = ModuleBuilder(name)
        self.clock = clock
        self.widths = widths
        self.port_map: dict[str, str] = {}
        self._ports: dict[str, Ref] = {}
        self._past_cache: dict[tuple[str, int], Ref] = {}
        self._past_counter = 0
        self.past_ff_bits = 0

    def width_of(self, signal: str) -> int:
        if callable(self.widths):
            return self.widths(signal)
        return self.widths[signal]

    def resolve(self, signal: str) -> Expr:
        port = _sanitize(signal)
        if port not in self._ports:
            self._ports[port] = self.b.input(port, self.width_of(signal))
            self.port_map[port] = signal
        return self._ports[port]

    def past(self, expr: Expr, cycles: int) -> Expr:
        if cycles <= 0:
            return expr
        key = (repr(expr), cycles)
        if key in self._past_cache:
            return self._past_cache[key]
        current = expr
        for _ in range(cycles):
            reg = self.b.reg(f"past{self._past_counter}", expr.width,
                             clock=self.clock)
            self.b.next(reg, current)
            self.past_ff_bits += expr.width
            self._past_counter += 1
            current = reg
        self._past_cache[key] = current
        return current

    def binder(self) -> Binder:
        return Binder(resolve=self.resolve, past=self.past)


def _subset_construct(nfa: Nfa) -> tuple[list[frozenset[int]], dict, list[Expr]]:
    """Determinize over condition minterms.

    Returns ``(states, delta, atoms)`` where ``states`` lists reachable
    subsets (start first), ``delta[(state_index, minterm)]`` gives the
    successor index (-1 for the dead/empty subset), and ``atoms`` are the
    distinct condition expressions (minterm bit i <=> atoms[i] is true).
    """
    atoms = nfa.conditions()
    if len(atoms) > MAX_ATOMS:
        raise UnsynthesizableError(
            f"assertion uses {len(atoms)} distinct conditions; the "
            f"compiler caps subset construction at {MAX_ATOMS}")
    atom_index = {repr(a): i for i, a in enumerate(atoms)}

    start = frozenset({nfa.start})
    states: list[frozenset[int]] = [start]
    index = {start: 0}
    delta: dict[tuple[int, tuple[int, ...]], int] = {}
    frontier = [start]
    while frontier:
        subset = frontier.pop()
        src = index[subset]
        for minterm in iter_product((0, 1), repeat=len(atoms)):
            dst: set[int] = set()
            for state in subset:
                for t in nfa.transitions_from(state):
                    if minterm[atom_index[repr(t.cond)]]:
                        dst.add(t.dst)
            dst_frozen = frozenset(dst)
            if not dst_frozen:
                delta[(src, minterm)] = -1
                continue
            if dst_frozen not in index:
                index[dst_frozen] = len(states)
                states.append(dst_frozen)
                frontier.append(dst_frozen)
            delta[(src, minterm)] = index[dst_frozen]
    return states, delta, atoms


def _minterm_expr(atoms: list[Expr], minterm: tuple[int, ...]) -> Expr:
    terms = [
        atom if bit else UnaryOp("!", atom)
        for atom, bit in zip(atoms, minterm)
    ]
    return _and_all(terms)


def compile_assertion(source: Union[str, Property],
                      widths: WidthSource,
                      name: str | None = None) -> AssertionMonitor:
    """Compile one assertion into a monitor module.

    A property with no clocking event keeps its state on ``clk``.

    Parameters
    ----------
    source:
        Assertion text or an already-parsed :class:`Property`.
    widths:
        Signal name -> width mapping (dict or callable) used to type the
        monitor's input ports.
    name:
        Module name; defaults to the assertion's label or ``sva_monitor``.
    """
    prop = (parse_assertion(source) if isinstance(source, str) else source)
    monitor_name = name or prop.name or "sva_monitor"
    clock = prop.clock or "clk"
    mb = _MonitorBuilder(monitor_name, widths, clock)
    b = mb.b
    binder = mb.binder()

    disable = (prop.disable.bind(binder).as_bool()
               if prop.disable is not None else Const(0, 1))
    enabled = b.wire_expr("enabled", UnaryOp("!", disable))

    if prop.immediate:
        expr = prop.body.seq.expr.bind(binder).as_bool()
        fail = b.wire_expr("fail_w", enabled.logical_and(UnaryOp("!", expr)))
        b.output_expr("fail", fail)
        b.output_expr("match", enabled.logical_and(expr))
        module = b.build()
        report = ResourceReport(
            name=monitor_name, flip_flops=mb.past_ff_bits,
            lut_estimate=_lut_estimate(module),
            antecedent_states=0, consequent_states=0, atoms=0)
        module.attributes["assertion"] = prop.source
        return AssertionMonitor(property=prop, module=module, report=report,
                                port_map=dict(mb.port_map))

    if isinstance(prop.body, PropImplication):
        antecedent = prop.body.antecedent
        consequent = prop.body.consequent
        overlapping = prop.body.overlapping
    else:
        assert isinstance(prop.body, PropSeq)
        # A bare sequence property must match starting every cycle:
        # equivalent to `1 |-> seq`.
        antecedent = SeqBool(_TRUE_BOOL)
        consequent = prop.body.seq
        overlapping = True

    ant_nfa = build_sequence(antecedent, binder)
    con_nfa = build_sequence(consequent, binder)

    # ------------------------------------------------------------------
    # Antecedent: one-hot NFA, new attempt injected every enabled cycle.
    # ------------------------------------------------------------------
    ant_regs: dict[int, Ref] = {}
    for state in range(ant_nfa.state_count):
        has_out = bool(ant_nfa.transitions_from(state))
        is_target = any(t.dst == state for t in ant_nfa.transitions)
        if has_out and is_target:
            ant_regs[state] = b.reg(f"ant_s{state}", 1, clock=clock)

    def ant_effective(state: int) -> Expr:
        live = ant_regs.get(state, Const(0, 1))
        if state == ant_nfa.start:
            return live.logical_or(enabled)
        return live

    match_terms = []
    ant_next: dict[int, list[Expr]] = {s: [] for s in ant_regs}
    for t in ant_nfa.transitions:
        fire = ant_effective(t.src).logical_and(t.cond)
        if t.dst in ant_nfa.accepts:
            match_terms.append(fire)
        if t.dst in ant_regs:
            ant_next[t.dst].append(fire)
    for state, reg in ant_regs.items():
        b.next(reg, mux(enabled, _or_all(ant_next[state]), Const(0, 1)))
    match = b.wire_expr("ant_match", enabled.logical_and(
        _or_all(match_terms)))

    # ------------------------------------------------------------------
    # Consequent: subset-constructed obligation tracker.
    # ------------------------------------------------------------------
    states, delta, atoms = _subset_construct(con_nfa)
    accepting = {
        i for i, subset in enumerate(states)
        if subset & con_nfa.accepts
    }
    # Registers for states that can hold a token across a cycle boundary
    # (non-accepting: accepting states discharge immediately).
    con_regs: dict[int, Ref] = {
        i: b.reg(f"con_s{i}", 1, clock=clock)
        for i in range(len(states)) if i not in accepting
    }

    inject_now = match if overlapping else Const(0, 1)

    def con_effective(i: int) -> Expr:
        live = con_regs.get(i, Const(0, 1))
        if i == 0:
            return live.logical_or(inject_now)
        return live

    minterm_wires: dict[tuple[int, ...], Ref] = {}
    for mt_index, minterm in enumerate(iter_product((0, 1),
                                                    repeat=len(atoms))):
        minterm_wires[minterm] = b.wire_expr(
            f"mt{mt_index}", _minterm_expr(atoms, minterm))

    fail_terms: list[Expr] = []
    success_terms: list[Expr] = []
    con_next: dict[int, list[Expr]] = {i: [] for i in con_regs}
    for (src, minterm), dst in delta.items():
        if src in accepting:
            continue  # accepting states never hold tokens
        fire = con_effective(src).logical_and(minterm_wires[minterm])
        if dst == -1:
            fail_terms.append(fire)
        elif dst in accepting:
            success_terms.append(fire)
        else:
            con_next[dst].append(fire)
    for i, reg in con_regs.items():
        pending = _or_all(con_next[i])
        if i == 0 and not overlapping:
            pending = pending.logical_or(match)
        b.next(reg, mux(enabled, pending, Const(0, 1)))

    fail = b.wire_expr(
        "fail_w", enabled.logical_and(_or_all(fail_terms)))
    b.output_expr("fail", fail)
    b.output_expr("match", enabled.logical_and(_or_all(success_terms)))

    module = b.build()
    module.attributes["assertion"] = prop.source
    flip_flops = len(ant_regs) + len(con_regs) + mb.past_ff_bits
    report = ResourceReport(
        name=monitor_name,
        flip_flops=flip_flops,
        lut_estimate=_lut_estimate(module),
        antecedent_states=ant_nfa.state_count,
        consequent_states=len(states),
        atoms=len(atoms))
    return AssertionMonitor(property=prop, module=module, report=report,
                            port_map=dict(mb.port_map))


def _lut_estimate(module: Module) -> int:
    """Rough LUT count: one 6-input LUT covers ~5 logic operators.

    The vendor synthesis flow produces exact mapped counts; this estimate
    exists so a :class:`ResourceReport` is available without running it.
    """
    nodes = sum(expr.node_count() for expr in module.assigns.values())
    nodes += sum(reg.next.node_count()
                 for reg in module.registers.values() if reg.next)
    return max(1, nodes // 5)


# A constant-true boolean for bare-sequence properties.
from .ast import BoolNum as _BoolNum  # noqa: E402  (tiny internal reuse)

_TRUE_BOOL = _BoolNum(value=1, width=1)
