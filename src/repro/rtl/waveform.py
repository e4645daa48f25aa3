"""Waveform capture and VCD export.

Two capture tiers share one read-side protocol (:class:`TraceView`):

- :class:`Trace` — the classic edge-hook recorder. Attaching it installs
  a hook, which drops the simulator off the fused ``run(n)`` fast path;
  it observes *every* committed edge, so it stays the right tool when
  another hook is in play anyway. (A breakpoint is not one: a streaming
  run takes the pause signal as its stop set.)
- :class:`StreamingTrace` / :class:`BatchTrace` — streaming, bounded-
  memory capture that rides inside the generated run kernels
  (:meth:`KernelSet.capture_run_kernel`). Samples append into a
  preallocated ring every ``stride``-th cycle, ILA-style trigger
  windows carve a view around an event, and the simulator keeps its
  fused-loop throughput while being observed. A :class:`BatchTrace` is
  a :class:`StreamingTrace` over a K-lane simulator whose rows hold
  packed values; only its queries decode lanes.

Any view serializes through :func:`write_vcd` with true cycle
timestamps and real per-signal widths (including BRAM output latches,
which live only in the simulator environment, not ``netlist.signals``).
"""

from __future__ import annotations

from collections import deque
from typing import IO, Iterable, Iterator, Optional

from .._bits import mask
from ..errors import SimulationError
from ..obs import get_registry
from .simulator import Simulator

#: Default ring depth of the streaming captures — bounded so a
#: multi-hour campaign cannot grow a trace without limit.
DEFAULT_RING_DEPTH = 4096


def signal_widths(netlist) -> dict[str, int]:
    """Widths of everything traceable: declared signals plus the
    synchronous read-port output latches that exist only in the
    simulator environment."""
    widths = dict(netlist.signals)
    widths.update(netlist.sync_read_outputs())
    return widths


class TraceView:
    """Read-side protocol shared by every capture type.

    Subclasses provide ``signals`` (ordered list), ``widths`` (name to
    bit width) and :meth:`iter_rows`; the query helpers and
    :func:`write_vcd` work on any of them.
    """

    signals: list[str]
    widths: dict[str, int]

    def iter_rows(self) -> Iterator[tuple[int, dict[str, int]]]:
        """Yield ``(cycle, {signal: value})`` rows, oldest first."""
        raise NotImplementedError

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_rows())

    def value_at(self, cycle: int, signal: str) -> int:
        """Value of ``signal`` at the recorded ``cycle``."""
        for recorded_cycle, row in self.iter_rows():
            if recorded_cycle == cycle:
                return row[signal]
        raise SimulationError(f"cycle {cycle} not in trace")

    def series(self, signal: str) -> list[int]:
        """All recorded values of one signal, oldest first."""
        return [row[signal] for _, row in self.iter_rows()]

    def cycles_recorded(self) -> list[int]:
        return [cycle for cycle, _ in self.iter_rows()]


class Trace(TraceView):
    """Records ``(cycle, {signal: value})`` rows for a set of signals.

    Parameters
    ----------
    simulator:
        The simulator to attach to.
    signals:
        Names to record. Defaults to every named signal — fine for small
        designs, expensive for big ones.
    domain:
        Record on commits of this clock domain.
    depth:
        Optional circular-buffer depth (ILA-style capture window); older
        rows are dropped once full. ``None`` keeps everything.
    """

    def __init__(self, simulator: Simulator,
                 signals: Optional[Iterable[str]] = None,
                 domain: str = "clk",
                 depth: Optional[int] = None):
        self.simulator = simulator
        if signals is None:
            signals = list(simulator.netlist.signals)
        self.signals = [str(s) for s in signals]
        for name in self.signals:
            if name not in simulator.env:
                raise SimulationError(f"cannot trace unknown signal {name!r}")
        widths = signal_widths(simulator.netlist)
        self.widths = {name: widths.get(name, 1) for name in self.signals}
        self.domain = domain
        self.depth = depth
        self.rows: deque[tuple[int, dict[str, int]]] = deque(maxlen=depth)
        self._by_cycle: dict[int, dict[str, int]] = {}
        self._attached = False

    # -- lifecycle ---------------------------------------------------------

    def attach(self) -> "Trace":
        """Start recording (records the pre-step state immediately)."""
        if self._attached:
            return self
        self._record()
        self.simulator.edge_hooks.append(self._on_edge)
        self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.simulator.edge_hooks.remove(self._on_edge)
            self._attached = False

    def _on_edge(self, sim: Simulator, ticked: frozenset[str]) -> None:
        if self.domain in ticked:
            self._record()

    def _record(self) -> None:
        row = {name: self.simulator.peek(name) for name in self.signals}
        if self.depth is not None and len(self.rows) == self.depth:
            evicted_cycle, _ = self.rows[0]
            self._by_cycle.pop(evicted_cycle, None)
        self.rows.append((self.simulator.cycles(self.domain), row))
        self._by_cycle[self.rows[-1][0]] = row

    # -- queries -----------------------------------------------------------

    def iter_rows(self) -> Iterator[tuple[int, dict[str, int]]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def value_at(self, cycle: int, signal: str) -> int:
        """Value of ``signal`` at the recorded ``cycle``."""
        row = self._by_cycle.get(cycle)
        if row is None:
            raise SimulationError(f"cycle {cycle} not in trace")
        return row[signal]

    def series(self, signal: str) -> list[int]:
        """All recorded values of one signal, oldest first."""
        return [row[signal] for _, row in self.rows]

    def cycles_recorded(self) -> list[int]:
        return [cycle for cycle, _ in self.rows]


# ---------------------------------------------------------------------------
# streaming capture (in-kernel)
# ---------------------------------------------------------------------------

class _CaptureBuffer:
    """Mutable capture state threaded through the generated kernels.

    Rows are flat tuples ``(cycle, sig0, sig1, ...)`` in ``signals``
    order — what the kernel's single tuple-build per sample produces.
    ``ring`` is a preallocated circular list when bounded (``head`` is
    the next write slot, ``total`` the lifetime sample count) or an
    append-only list otherwise. ``phase`` is the stride countdown and
    ``cycle`` the capture domain's committed-edge count at the *next*
    sample point.
    """

    __slots__ = ("signals", "domain", "stride", "bounded", "ring",
                 "head", "total", "phase", "cycle")

    def __init__(self, signals: tuple[str, ...], domain: str,
                 depth: Optional[int], stride: int, start_cycle: int):
        self.signals = signals
        self.domain = domain
        self.stride = stride
        self.bounded = depth is not None
        self.ring: list = [None] * depth if depth is not None else []
        self.head = 0
        self.total = 0
        self.phase = 0
        self.cycle = start_cycle

    def sample_scalar(self, env: dict[str, int]) -> None:
        """One Python-side capture iteration — the exact ordering the
        kernel uses (sample pre-edge, then advance phase and cycle)."""
        if self.phase == 0:
            self.push((self.cycle,) + tuple(env[s] for s in self.signals))
        self.phase += 1
        if self.phase == self.stride:
            self.phase = 0
        self.cycle += 1

    def push(self, row: tuple) -> None:
        if self.bounded:
            self.ring[self.head] = row
            self.head += 1
            if self.head == len(self.ring):
                self.head = 0
        else:
            self.ring.append(row)
        self.total += 1

    @property
    def occupancy(self) -> int:
        if not self.bounded:
            return len(self.ring)
        return min(self.total, len(self.ring))

    def rows_in_order(self) -> list[tuple]:
        """The retained rows, oldest first (unwraps the ring)."""
        if not self.bounded:
            return list(self.ring)
        if self.total < len(self.ring):
            return self.ring[:self.total]
        return self.ring[self.head:] + self.ring[:self.head]


class StreamingTrace(TraceView):
    """Bounded-memory waveform capture on the fused fast path.

    Unlike :class:`Trace`, no hook is installed: :meth:`run` advances
    the simulation through :meth:`Simulator.step_captured`, whose
    generated kernel appends one ``(cycle, values...)`` tuple into a
    preallocated ring every ``stride``-th cycle. The simulator keeps
    its compiled hot loop, so observing the design costs a tuple build
    per sample instead of the ~25x fused speedup.

    ``depth`` bounds memory ILA-style (older samples are overwritten
    once the ring wraps); ``depth=None`` keeps every sample.
    :meth:`capture_window` provides trigger-positioned windows. Call
    :meth:`stop` when done to record the closing post-run sample.
    """

    def __init__(self, simulator: Simulator,
                 signals: Optional[Iterable[str]] = None,
                 domain: str = "clk",
                 depth: Optional[int] = DEFAULT_RING_DEPTH,
                 stride: int = 1):
        self.simulator = simulator
        if signals is None:
            signals = list(simulator.netlist.signals)
        self.signals = [str(s) for s in signals]
        if not self.signals:
            raise SimulationError("a trace needs at least one signal")
        for name in self.signals:
            if name not in simulator.env:
                raise SimulationError(f"cannot trace unknown signal {name!r}")
        if depth is not None and depth < 1:
            raise SimulationError(f"ring depth must be positive, got {depth}")
        if stride < 1:
            raise SimulationError(
                f"sample stride must be positive, got {stride}")
        simulator._domain(domain)
        self.domain = domain
        self.depth = depth
        self.stride = stride
        widths = signal_widths(simulator.netlist)
        self.widths = {name: widths.get(name, 1) for name in self.signals}
        self._cap = _CaptureBuffer(
            tuple(self.signals), domain, depth, stride,
            simulator.cycles(domain))
        self._pos = {name: i + 1 for i, name in enumerate(self.signals)}
        self._stopped = False
        self._scanned = 0
        self._index: Optional[dict[int, tuple]] = None
        self._index_total = -1
        self.triggered_at: Optional[int] = None
        registry = get_registry()
        self._m_samples = registry.counter("sim.trace.samples")
        self._g_ring = registry.gauge("sim.trace.ring_occupancy")

    # -- capture -----------------------------------------------------------

    def run(self, cycles: int, domain: Optional[str] = None,
            until: tuple[str, ...] = ()) -> int:
        """Advance the simulation ``cycles`` cycles while capturing;
        returns the cycles run, fewer if a stop signal in ``until``
        settled high first (see :meth:`Simulator.step`)."""
        if self._stopped:
            raise SimulationError("streaming trace already stopped")
        before = self._cap.total
        ran = self.simulator.step_captured(cycles, self._cap, domain=domain,
                                           until=until)
        self._m_samples.inc(
            (self._cap.total - before) * self.simulator.lanes)
        self._g_ring.set(self._cap.occupancy)
        return ran

    def stop(self) -> "StreamingTrace":
        """Record the closing sample (state after the final edge) if one
        is due at the current stride phase, and freeze the capture.

        With ``stride=1`` the rows then cover exactly what an edge-hook
        :class:`Trace` attached before the run would have recorded: the
        pre-run state plus one row per committed edge.
        """
        if self._stopped:
            return self
        if self._cap.phase == 0:
            self.simulator._settle()
            env = self.simulator.env
            self._cap.push(
                (self._cap.cycle,)
                + tuple(env[s] for s in self.signals))
            self._m_samples.inc(self.simulator.lanes)
            self._g_ring.set(self._cap.occupancy)
        self._stopped = True
        return self

    def capture_window(self, trigger: dict[str, int],
                       position: Optional[int] = None,
                       max_cycles: int = 100_000,
                       chunk: int = 1024) -> bool:
        """ILA-style trigger window: run until a sampled row matches
        ``trigger`` (every named signal equals its value), then keep
        running until the ring holds ``position`` pre-trigger samples
        followed by the trigger row and the post-trigger remainder.

        Runs in ``chunk``-cycle kernel calls with a Python-side scan of
        only the new samples between calls — slower than free streaming,
        far faster than per-edge hooks. Returns ``True`` if the trigger
        fired within ``max_cycles``; ``triggered_at`` then holds the
        trigger cycle.
        """
        if not self._cap.bounded:
            raise SimulationError(
                "trigger windows need a bounded ring (pass depth=...)")
        unknown = sorted(set(trigger) - set(self.signals))
        if unknown:
            raise SimulationError(
                f"trigger refers to uncaptured signals {unknown}")
        depth = len(self._cap.ring)
        if position is None:
            position = depth // 2
        if not 0 <= position < depth:
            raise SimulationError(
                f"trigger position {position} outside window of {depth}")
        pos = {name: self._pos[name] for name in trigger}
        # A chunk must never sample past the post-trigger remainder of
        # the window, or the ring slides over the pre-trigger history
        # before the scan sees the match.
        span = min(chunk, max(
            1, (depth - position) * self.stride - (self.stride - 1)))
        ran = 0
        trigger_index: Optional[int] = None
        while trigger_index is None and ran < max_cycles:
            n = min(span, max_cycles - ran)
            self.run(n)
            ran += n
            rows = self._cap.rows_in_order()
            total = self._cap.total
            oldest = total - len(rows)
            for abs_index in range(max(self._scanned, oldest), total):
                row = rows[abs_index - oldest]
                if all(row[pos[s]] == v for s, v in trigger.items()):
                    trigger_index = abs_index
                    self.triggered_at = row[0]
                    break
            self._scanned = total
        if trigger_index is None:
            return False
        # Fill the ring so its final contents are samples
        # [trigger_index - position, trigger_index - position + depth).
        need = trigger_index - position + depth - self._cap.total
        if need > 0:
            phase = self._cap.phase
            cycles = (((self.stride - phase) % self.stride)
                      + 1 + (need - 1) * self.stride)
            self.run(min(cycles, max(0, max_cycles - ran)))
            self._scanned = self._cap.total
        return True

    # -- queries -----------------------------------------------------------

    def _rows(self) -> list[tuple]:
        return self._cap.rows_in_order()

    def _cycle_index(self) -> dict[int, tuple]:
        if self._index is None or self._index_total != self._cap.total:
            self._index = {row[0]: row for row in self._rows()}
            self._index_total = self._cap.total
        return self._index

    def iter_rows(self) -> Iterator[tuple[int, dict[str, int]]]:
        for row in self._rows():
            yield row[0], dict(zip(self.signals, row[1:]))

    def __len__(self) -> int:
        return self._cap.occupancy

    @property
    def samples_seen(self) -> int:
        """Lifetime sample count, including samples the ring dropped."""
        return self._cap.total

    def value_at(self, cycle: int, signal: str) -> int:
        row = self._cycle_index().get(cycle)
        if row is None:
            raise SimulationError(f"cycle {cycle} not in trace")
        try:
            return row[self._pos[signal]]
        except KeyError:
            raise SimulationError(
                f"signal {signal!r} not captured") from None

    def series(self, signal: str) -> list[int]:
        try:
            index = self._pos[signal]
        except KeyError:
            raise SimulationError(
                f"signal {signal!r} not captured") from None
        return [row[index] for row in self._rows()]

    def cycles_recorded(self) -> list[int]:
        return [row[0] for row in self._rows()]


# ---------------------------------------------------------------------------
# batched capture
# ---------------------------------------------------------------------------

class BatchLaneTrace(TraceView):
    """One lane of a :class:`BatchTrace`, decoded on the fly — a normal
    :class:`TraceView`, so detectors and :func:`write_vcd` apply."""

    def __init__(self, batch_trace: "BatchTrace", lane: int):
        self.signals = list(batch_trace.signals)
        self.widths = dict(batch_trace.widths)
        self.lane = lane
        self._bt = batch_trace

    def iter_rows(self) -> Iterator[tuple[int, dict[str, int]]]:
        bt = self._bt
        shift = self.lane * bt.simulator.stride
        for row in bt._rows():
            yield row[0], {
                name: (row[i + 1] >> shift) & mask(bt.widths[name])
                for i, name in enumerate(self.signals)}

    def __len__(self) -> int:
        return self._bt._cap.occupancy


class BatchTrace(StreamingTrace):
    """Streaming capture over a :class:`~repro.rtl.batch.BatchSimulator`.

    One ring row stores the *packed* K-lane integers, so a single
    in-kernel sample covers all lanes. Capture (constructor,
    :meth:`run`, :meth:`stop`) is :class:`StreamingTrace`'s; the
    queries decode lanes: :meth:`series` takes a ``lane``,
    :meth:`value_at` and :meth:`iter_rows` read lane 0, and
    :meth:`lane_view` wraps any lane as a standalone
    :class:`TraceView` (VCD export, detectors). Trigger windows are
    scalar-only.
    """

    def _lane_shift(self, lane: int) -> int:
        if not 0 <= lane < self.simulator.lanes:
            raise SimulationError(f"lane {lane} out of range")
        return lane * self.simulator.stride

    def value_at(self, cycle: int, signal: str) -> int:
        """Lane 0's value of ``signal`` at the recorded ``cycle``."""
        return super().value_at(cycle, signal) & mask(self.widths[signal])

    def series(self, signal: str, lane: int = 0) -> list[int]:
        """One lane's recorded values of ``signal``, oldest first."""
        shift = self._lane_shift(lane)
        values = super().series(signal)
        signal_mask = mask(self.widths[signal])
        return [(value >> shift) & signal_mask for value in values]

    def lane_view(self, lane: int) -> BatchLaneTrace:
        """A per-lane :class:`TraceView` over the shared ring."""
        self._lane_shift(lane)
        return BatchLaneTrace(self, lane)

    def iter_rows(self) -> Iterator[tuple[int, dict[str, int]]]:
        return self.lane_view(0).iter_rows()

    def capture_window(self, *args, **kwargs) -> bool:
        raise SimulationError("trigger windows are scalar-only")


# ---------------------------------------------------------------------------
# VCD export
# ---------------------------------------------------------------------------

def _vcd_id(index: int) -> str:
    """Compact printable VCD identifier for the ``index``-th signal."""
    chars = "".join(chr(c) for c in range(33, 127))
    out = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, len(chars))
        out = chars[rem] + out
    return out


def _vcd_value(value: int, width: int, ident: str) -> str:
    if width == 1:
        return f"{value}{ident}\n"
    return f"b{value:b} {ident}\n"


def write_vcd(trace: TraceView, stream: IO[str],
              timescale: str = "1ns", top: str = "top") -> None:
    """Serialize any :class:`TraceView` as a Value Change Dump file.

    Timestamps are the *recorded cycle numbers* — a depth-bounded ring
    that has wrapped starts at its oldest retained cycle, and a trace
    attached mid-run starts at the attach cycle, so the time axis always
    matches the simulation. The first timestamp carries the
    ``$dumpvars`` initial-value section; later timestamps emit changed
    signals only (timestamps with no changes are skipped entirely).
    """
    signals = list(trace.signals)
    ids = {name: _vcd_id(i) for i, name in enumerate(signals)}
    widths = getattr(trace, "widths", None) or {name: 1 for name in signals}
    stream.write(f"$timescale {timescale} $end\n")
    stream.write(f"$scope module {top} $end\n")
    for name in signals:
        safe = name.replace(".", "_")
        stream.write(
            f"$var wire {widths.get(name, 1)} {ids[name]} {safe} $end\n")
    stream.write("$upscope $end\n$enddefinitions $end\n")
    last: dict[str, int] = {}
    first = True
    for cycle, row in trace.iter_rows():
        if first:
            stream.write(f"#{cycle}\n$dumpvars\n")
            for name in signals:
                stream.write(
                    _vcd_value(row[name], widths.get(name, 1), ids[name]))
            stream.write("$end\n")
            last = dict(row)
            first = False
            continue
        changed = [name for name in signals if row[name] != last[name]]
        if not changed:
            continue
        stream.write(f"#{cycle}\n")
        for name in changed:
            stream.write(
                _vcd_value(row[name], widths.get(name, 1), ids[name]))
            last[name] = row[name]
