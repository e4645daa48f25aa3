"""Always-on flight recorder: the black box under the debugger.

Tracing (:mod:`.trace`) is opt-in and costs real memory; metrics
(:mod:`.metrics`) are always on but carry no ordering. The flight
recorder fills the gap between them the way an aircraft FDR does: a
bounded ring of the most recent *notes* — debug commands, transport
batches that retried or failed, simulator runs, VTI compiles, chaos
injections, supervisor events — cheap enough to leave on
unconditionally (one attribute check, one small dict, one deque append
per note; the <5% gate in ``benchmarks/bench_obs_overhead.py`` holds
it to that), even with the full tracer off.

When something goes wrong the ring is **dumped automatically**. Three
trigger classes are wired through the stack:

- ``debug.timeout`` — a :class:`~repro.errors.DebugTimeoutError` from
  the command watchdog or a supervised-I/O modeled deadline;
- ``debug.exception`` — any other exception escaping a debugger
  command verb;
- ``journal.corrupt`` — a :class:`~repro.errors.JournalCorruptError`
  surfaced while replaying the write-ahead journal.

A dump is a self-contained JSON document: the triggering event (always
the *last* record in the ring), the full note ring, the sticky
low-churn event ring (chaos/supervisor/journal notes survive batch
chatter), recent tracer spans (when tracing was on), and a metrics
snapshot. ``zoomie obs bundle`` (:mod:`.bundle`) archives the latest
dump alongside the health report.

Each instrumented site emits exactly one record here, carrying every
field a post-mortem reader needs from that site: a retried batch's
note says how many attempts were corrupt, a degradation note says
why, and a recovered session's note says what it replayed.

Two rings, not one: high-frequency notes (a command per verb, a
simulator run per step, a transport batch per retry) would evict a
once-per-campaign chaos injection long before anyone reads the dump,
so notes whose ``kind`` is in :data:`FlightRecorder.STICKY_KINDS` are
*also* kept in a separate, slower-moving ring.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Callable, Optional

from .metrics import MetricsRegistry, get_registry
from .trace import get_tracer

__all__ = ["FLIGHT_VERSION", "FlightRecorder", "get_flight_recorder"]

#: Bumped whenever the dump document shape changes; consumers (the
#: bundle loader, external tooling) gate on it.
FLIGHT_VERSION = 2


class FlightRecorder:
    """Bounded always-on ring of recent stack events, auto-dumped.

    Mirrors the tracer/registry singletons: one process-global instance
    from :func:`get_flight_recorder`, mutated in place and never
    replaced, so modules may bind it at import time. Construct private
    instances (with their own ``registry``) for scoped tests.
    """

    #: Note kinds that are also retained in the slow-moving ``events``
    #: ring so rare, important records outlive batch chatter.
    STICKY_KINDS = frozenset({"chaos", "supervise", "trigger", "journal"})

    def __init__(self, capacity: int = 512, events_capacity: int = 256,
                 span_tail: int = 128,
                 registry: Optional[MetricsRegistry] = None):
        self.enabled = True
        self.capacity = capacity
        self.span_tail = span_tail
        #: High-churn ring: every note lands here, oldest evicted first.
        self.records: deque = deque(maxlen=capacity)
        #: Low-churn ring: only STICKY_KINDS notes land here.
        self.events: deque = deque(maxlen=events_capacity)
        #: Directory auto-dumps are written into (None = memory only).
        self.dump_dir: Optional[Path] = None
        #: The most recent dump document (tests and ``obs bundle``).
        self.last_dump: Optional[dict] = None
        #: Callbacks fired with each dump document (campaign tests
        #: collect dumps here without touching the filesystem).
        self.on_dump: list[Callable[[dict], None]] = []
        self.dump_count = 0
        self._registry = registry
        self._seq = 0
        self._dumping = False

    # ------------------------------------------------------------------
    # recording (the hot path)
    # ------------------------------------------------------------------

    def note(self, kind: str, name: str, **fields) -> Optional[dict]:
        """Record one event; ``fields`` must be JSON-safe scalars.

        This is called per debug command, per retried or failed
        transport batch, and per simulator run — keep it one
        allocation and two appends. Field names must not collide with
        ``seq``/``wall``/``kind``/``name``.
        """
        if not self.enabled:
            return None
        self._seq += 1
        record = {"seq": self._seq, "wall": time.perf_counter(),
                  "kind": kind, "name": name}
        if fields:
            record.update(fields)
        self.records.append(record)
        if kind in self.STICKY_KINDS:
            self.events.append(record)
        return record

    # ------------------------------------------------------------------
    # dumping
    # ------------------------------------------------------------------

    def _resolve_registry(self,
                          registry: Optional[MetricsRegistry] = None
                          ) -> MetricsRegistry:
        if registry is not None:
            return registry
        if self._registry is not None:
            return self._registry
        return get_registry()

    def snapshot(self, trigger: Optional[dict] = None,
                 registry: Optional[MetricsRegistry] = None) -> dict:
        """The dump document for the recorder's current state."""
        registry = self._resolve_registry(registry)
        tracer = get_tracer()
        spans = [
            {"name": span.name, "span_id": span.span_id,
             "parent_id": span.parent_id,
             "wall_seconds": round(span.wall_seconds, 9),
             "modeled_seconds": round(span.modeled_seconds, 9),
             "attrs": dict(span.attrs)}
            for span in tracer.spans[-self.span_tail:]]
        return {
            "format": "zoomie-flight",
            "version": FLIGHT_VERSION,
            "trigger": trigger,
            "records": list(self.records),
            "events": list(self.events),
            "spans": spans,
            "metrics": registry.as_dict(),
        }

    def latest_dump(self,
                    registry: Optional[MetricsRegistry] = None) -> dict:
        """The last triggered dump, else a live :meth:`snapshot`."""
        if self.last_dump is not None:
            return self.last_dump
        return self.snapshot(registry=registry)

    def trigger(self, name: str,
                registry: Optional[MetricsRegistry] = None,
                **fields) -> Optional[dict]:
        """Record the triggering event and dump the recorder.

        The trigger note is appended *before* the snapshot, so it is
        always the final record of the dump — post-mortem readers scan
        backwards from it. Re-entrant triggers (an exception raised by
        a dump callback) are swallowed: one crash, one dump.
        """
        if not self.enabled or self._dumping:
            return None
        self._dumping = True
        try:
            record = self.note("trigger", name, **fields)
            dump = self.snapshot(trigger=record, registry=registry)
            self.last_dump = dump
            self.dump_count += 1
            resolved = self._resolve_registry(registry)
            resolved.counter("flight.dumps").inc()
            resolved.counter(f"flight.dumps.{name}").inc()
            if self.dump_dir is not None:
                path = (Path(self.dump_dir) /
                        f"flight-{self._seq:06d}-"
                        f"{name.replace('.', '-')}.json")
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(path, "w") as stream:
                    json.dump(dump, stream, indent=1, default=repr)
                    stream.write("\n")
                dump["path"] = str(path)
            for callback in list(self.on_dump):
                callback(dump)
            return dump
        finally:
            self._dumping = False

    # ------------------------------------------------------------------
    # maintenance / reading
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop recorded state (tests); leaves ``enabled`` untouched."""
        self.records.clear()
        self.events.clear()
        self.last_dump = None
        self.dump_count = 0

    def describe(self) -> str:
        """Human summary of the ring for the CLI."""
        lines = [f"flight recorder: {'on' if self.enabled else 'off'}, "
                 f"{len(self.records)}/{self.capacity} record(s), "
                 f"{len(self.events)} sticky event(s), "
                 f"{self.dump_count} dump(s)"]
        for record in list(self.records)[-12:]:
            extras = " ".join(
                f"{key}={value!r}" for key, value in record.items()
                if key not in ("seq", "wall", "kind", "name"))
            lines.append(f"  #{record['seq']} {record['kind']}."
                         f"{record['name']}"
                         + (f"  [{extras}]" if extras else ""))
        return "\n".join(lines)


#: The process-global recorder every instrumented layer binds at import
#: time (mutated in place, never replaced — same contract as the
#: tracer and registry singletons).
_FLIGHT = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    return _FLIGHT
