"""Per-layer attribution for traced benchmark runs.

The traced run wraps the public functions and methods of each layer
from outside the program: a method is patched on its class, a function
at every module that binds it (``compiled_plan_for`` inside
``repro.rtl.simulator``, for example). Each call becomes a span with a
start, an end and a parent; spans are aggregated in memory as they
close, so a per-cycle call costs no memory, and the first
:data:`KEPT_SPANS` are also kept verbatim for the trace file.

A span's self time is its duration minus the time of its child spans.
The modeled clock works the same way: only the leaves that charge
modeled hardware time (a JTAG batch, a vendor or VTI compile) report
it, and every parent inherits the sum of its children. Time in the
timed body outside every root span is ``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from math import fsum

#: Spans kept verbatim (all spans are aggregated).
KEPT_SPANS = 5000

_DEBUGGER_VERBS = (
    "run", "pause", "resume", "step", "trace_capture", "set_watchpoint",
    "set_value_breakpoint", "set_cycle_breakpoint", "break_on_assertions",
    "clear_breakpoints", "read_state", "read", "write_state", "force",
    "sample_over", "snapshot", "write_memory", "restore", "record_input")

#: layer -> ``module:qualname`` targets whose calls are timed.
LAYERS = {
    "rtl.simulator": [
        "repro.rtl.simulator:Simulator.step",
        "repro.rtl.simulator:Simulator.step_captured"],
    "config.fabric.run": ["repro.config.fabric:FabricDevice.run"],
    "config.fabric.capture": [
        "repro.config.fabric:FabricDevice.capture",
        "repro.config.fabric:FabricDevice.restore",
        "repro.config.fabric:FabricDevice.apply_content_frame"],
    "config.transport": [
        "repro.config.transport:VerifiedTransport.run",
        "repro.config.jtag:JtagRing.run"],
    "debug.readback_engine": [
        "repro.debug.readback_engine:ReadbackEngine.read_registers",
        "repro.debug.readback_engine:ReadbackEngine.read_memories"],
    "debug.debugger": [f"repro.debug.debugger:ZoomieDebugger.{verb}"
                       for verb in _DEBUGGER_VERBS],
    "debug.journal": [
        "repro.debug.journal:CommandJournal.append",
        "repro.debug.journal:CommandJournal.sync"],
    "debug.snapshot_store": [
        "repro.debug.snapshot_store:SnapshotStore.put",
        "repro.debug.snapshot_store:SnapshotStore.get"],
    "debug.recovery": ["repro.debug.recovery:recover_session"],
    # kernel_from_source materializes every scalar and batch kernel;
    # the per-step kernel lookups around it are not worth a span each.
    "rtl.codegen": [
        "repro.rtl._codegen:compiled_plan_for",
        "repro.rtl._codegen:CompiledPlan.kernel_from_source",
        "repro.rtl._codegen:CompiledPlan.batch_plan"],
    "vti.flow": [
        "repro.vti.flow:VtiFlow.compile_initial",
        "repro.vti.flow:VtiFlow.compile_incremental",
        "repro.vti.flow:VtiFlow.compile_incremental_many"],
}

#: Targets that charge modeled hardware seconds: (args, result) -> s.
_MODELED = {
    "repro.config.transport:VerifiedTransport.run":
        lambda args, result: result.seconds,
    "repro.config.jtag:JtagRing.run": lambda args, result: result.seconds,
    "repro.vti.flow:VtiFlow.compile_initial":
        lambda args, result: result.total_seconds,
    "repro.vti.flow:VtiFlow.compile_incremental":
        lambda args, result: result.total_seconds,
    "repro.vti.flow:VtiFlow.compile_incremental_many":
        lambda args, result: result[1],
}

#: Targets whose calls carry a work count: (args, result) -> count.
_COUNTS = {
    "repro.config.jtag:JtagRing.run": lambda args, result: len(args[1]),
    "repro.debug.readback_engine:ReadbackEngine.read_registers":
        lambda args, result: result.frames_read,
    "repro.debug.recovery:recover_session":
        lambda args, result: result.commands_replayed,
}

#: Registry instruments read before and after the traced body.
REGISTRY_NAMES = (
    "sim.ticks", "sim.plan_cache.hits",
    "sim.plan_cache.misses", "transport.retries", "journal.syncs",
    "vti.cache.hits", "vti.cache.misses", "vti.initial_runs",
    "vti.incremental_runs")

#: (metric, unit) of every per-layer metric, in report order. Counts
#: are per iteration; shares are percent of the traced body's wall.
PER_LAYER_METRICS = [
    ("rtl.simulator.self_share", "%"),
    ("rtl.simulator.cycles", "count"),
    ("rtl.simulator.cycles_per_s", "1/s"),
    ("config.fabric.run.self_share", "%"),
    ("config.fabric.run.calls", "count"),
    ("config.fabric.capture.self_share", "%"),
    ("config.fabric.capture.calls", "count"),
    ("config.transport.self_share", "%"),
    ("config.transport.batches", "count"),
    ("config.transport.words", "count"),
    ("config.transport.retries", "count"),
    ("debug.readback_engine.self_share", "%"),
    ("debug.readback_engine.frames_read", "count"),
    ("debug.debugger.self_share", "%"),
    ("debug.debugger.calls", "count"),
    ("debug.journal.self_share", "%"),
    ("debug.journal.syncs", "count"),
    ("debug.snapshot_store.self_share", "%"),
    ("debug.snapshot_store.puts", "count"),
    ("debug.snapshot_store.gets", "count"),
    ("debug.recovery.self_share", "%"),
    ("debug.recovery.commands_replayed", "count"),
    ("rtl.codegen.self_share", "%"),
    ("rtl.codegen.plans_compiled", "count"),
    ("rtl.codegen.plan_hit_ratio", "ratio"),
    ("vti.flow.self_share", "%"),
    ("vti.flow.compiles", "count"),
    ("vti.flow.cache_hit_ratio", "ratio"),
    ("unattributed.self_share", "%"),
]


def registry_values() -> dict[str, float]:
    """Current value of each :data:`REGISTRY_NAMES` instrument."""
    from repro.obs import get_registry
    registry = get_registry()
    out = {}
    for name in REGISTRY_NAMES:
        instrument = registry.get(name)
        out[name] = 0 if instrument is None else instrument.value
    return out


class _Stats:
    __slots__ = ("layer", "calls", "total_s", "self_s", "modeled_s",
                 "modeled_self_s", "count")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.modeled_s = 0.0
        self.modeled_self_s = 0.0
        self.count = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class LayerTracer:
    """Installs the span wrappers and aggregates what they record."""

    def __init__(self):
        self.stats: dict[str, _Stats] = {}
        self.spans: list[tuple] = []
        self.spans_seen = 0
        #: Summed duration of root spans (no traced parent).
        self.root_s = 0.0
        #: Index of the benchmark iteration the spans belong to.
        self.iteration = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._t0 = time.perf_counter()

    def install(self) -> None:
        """Patch every target for the rest of the process's life."""
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    owner_name, attr = qualname.split(".")
                    owner = getattr(module, owner_name)
                    setattr(owner, attr, self._wrap(
                        target, layer, owner.__dict__[attr]))
                    continue
                original = getattr(module, qualname)
                wrapped = self._wrap(target, layer, original)
                # Every binding, the benchmark's own imports included.
                for bound in list(sys.modules.values()):
                    for attr, value in list(getattr(bound, "__dict__",
                                                    {}).items()):
                        if value is original:
                            setattr(bound, attr, wrapped)

    def _wrap(self, target: str, layer: str, fn):
        stats = self.stats[target] = _Stats(layer)
        modeled = _MODELED.get(target)
        count = _COUNTS.get(target)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # frame: child host seconds, child modeled seconds, span id
            frame = [0.0, 0.0, tracer._next_id]
            tracer._next_id += 1
            stack.append(frame)
            result = None
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spent = (modeled(args, result) if ok and modeled
                         else frame[1])
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                stats.modeled_s += spent
                stats.modeled_self_s += spent - frame[1]
                if ok and count:
                    stats.count += count(args, result)
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    parent[1] += spent
                    parent_id = parent[2]
                else:
                    tracer.root_s += duration
                    parent_id = None
                tracer.spans_seen += 1
                if len(tracer.spans) < KEPT_SPANS:
                    tracer.spans.append((
                        frame[2], parent_id, target,
                        round(start - tracer._t0, 9),
                        round(end - tracer._t0, 9), tracer.iteration))
        return traced

    # -- reporting -----------------------------------------------------------

    def layer_totals(self, body_s: float) -> dict[str, dict]:
        """Self time in both clocks, and call counts, per layer."""
        layers = {layer: {"self_s": 0.0, "modeled_self_s": 0.0,
                          "calls": 0} for layer in LAYERS}
        for stats in self.stats.values():
            totals = layers[stats.layer]
            totals["self_s"] += stats.self_s
            totals["modeled_self_s"] += stats.modeled_self_s
            totals["calls"] += stats.calls
        layers["unattributed"] = {
            "self_s": body_s - self.root_s, "modeled_self_s": 0.0,
            "calls": 0}
        for totals in layers.values():
            totals["self_share_pct"] = (100.0 * totals["self_s"] / body_s
                                        if body_s > 0 else 0.0)
        return layers

    def _calls(self, *targets: str) -> int:
        return sum(self.stats[target].calls for target in targets)

    def _count(self, target: str) -> float:
        return self.stats[target].count

    def per_layer_metrics(self, body_s: float, iterations: int,
                          before: dict, after: dict) -> dict[str, float]:
        """Values of :data:`PER_LAYER_METRICS` for one traced run."""
        layers = self.layer_totals(body_s)
        delta = {name: after[name] - before[name] for name in before}
        per = 1.0 / max(1, iterations)

        def ratio(hits: float, misses: float) -> float:
            return hits / (hits + misses) if hits + misses else 0.0

        sim_self = layers["rtl.simulator"]["self_s"]
        fabric = "repro.config.fabric:FabricDevice."
        counts = {
            "rtl.simulator.cycles": delta["sim.ticks"] * per,
            "rtl.simulator.cycles_per_s": (delta["sim.ticks"] / sim_self
                                           if sim_self > 0 else 0.0),
            "config.fabric.run.calls":
                self._calls(fabric + "run") * per,
            "config.fabric.capture.calls": self._calls(
                fabric + "capture", fabric + "restore",
                fabric + "apply_content_frame") * per,
            "config.transport.batches":
                self._calls("repro.config.jtag:JtagRing.run") * per,
            "config.transport.words":
                self._count("repro.config.jtag:JtagRing.run") * per,
            "config.transport.retries": delta["transport.retries"] * per,
            "debug.readback_engine.frames_read": self._count(
                "repro.debug.readback_engine:ReadbackEngine."
                "read_registers") * per,
            "debug.debugger.calls":
                layers["debug.debugger"]["calls"] * per,
            "debug.journal.syncs": delta["journal.syncs"] * per,
            "debug.snapshot_store.puts": self._calls(
                "repro.debug.snapshot_store:SnapshotStore.put") * per,
            "debug.snapshot_store.gets": self._calls(
                "repro.debug.snapshot_store:SnapshotStore.get") * per,
            "debug.recovery.commands_replayed":
                self._count("repro.debug.recovery:recover_session") * per,
            "rtl.codegen.plans_compiled":
                delta["sim.plan_cache.misses"] * per,
            "rtl.codegen.plan_hit_ratio": ratio(
                delta["sim.plan_cache.hits"],
                delta["sim.plan_cache.misses"]),
            "vti.flow.compiles": (delta["vti.initial_runs"]
                                  + delta["vti.incremental_runs"]) * per,
            "vti.flow.cache_hit_ratio": ratio(
                delta["vti.cache.hits"], delta["vti.cache.misses"]),
        }
        out = {}
        for name, _unit in PER_LAYER_METRICS:
            if name.endswith(".self_share"):
                layer = name[:-len(".self_share")]
                out[name] = layers[layer]["self_share_pct"]
            else:
                out[name] = counts[name]
        return out

    def trace_document(self, body_s: float, iterations: int,
                       metrics: dict[str, float]) -> dict:
        """Everything the ``TRACE_<workload>.json`` file holds."""
        layers = self.layer_totals(body_s)
        functions = {target: stats.as_dict()
                     for target, stats in sorted(self.stats.items())
                     if stats.calls}
        return {
            "body_s": body_s,
            "iterations": iterations,
            "attributed_s": self.root_s,
            "modeled_s": fsum(totals["modeled_self_s"]
                              for totals in layers.values()),
            "layers": layers,
            "functions": functions,
            "metrics": metrics,
            "spans_seen": self.spans_seen,
            "span_fields": ["id", "parent", "name", "start_s", "end_s",
                            "iteration"],
            "spans": self.spans,
        }
