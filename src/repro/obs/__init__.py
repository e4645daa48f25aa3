"""Zoomie's observability layer: the telemetry pipeline.

The paper's pitch is making FPGA debugging observable like software
debugging; this package applies the same standard to the debugger
itself. Each instrumented site emits one event record (a flight note
or trigger); spans time it and metrics count it:

- :mod:`trace` — span tracing with *two clocks per span* (host wall
  time and modeled hardware seconds), ring-buffer retention, and
  Chrome-trace/Perfetto + tree exporters. Off by default, near-free
  when disabled.
- :mod:`metrics` — a unified registry of counters, gauges, and
  log-bucket histograms (with programmatic quantiles) that the
  transport, journal, snapshot store, simulator, and VTI flow publish
  into.
- :mod:`flight` — the always-on flight recorder: a bounded ring of
  recent commands/batches/chaos events, auto-dumped on timeouts,
  breaker opens, unhandled command exceptions, and journal corruption.
- :mod:`profile` — two-clock attribution profiler (per-command,
  per-kernel, per-VTI-stage cost tables; folded flame-graph stacks).
- :mod:`health` — declarative SLO rules evaluated over a metrics
  window (the ``doctor`` verdict).
- :mod:`bundle` — the ``zoomie obs bundle`` post-mortem archive.

:class:`Observability` bundles the process-global instances into the
handle exposed as ``ZoomieProject.observability`` /
``Zoomie.observability``; ``zoomie trace ...``, ``zoomie stats``,
``zoomie doctor``, ``zoomie profile``, and ``zoomie obs ...`` in the
debug CLI drive the same objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .flight import FlightRecorder, get_flight_recorder
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from .trace import NOOP_SPAN, Span, Tracer, get_tracer

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Observability",
    "Span",
    "Tracer",
    "get_flight_recorder",
    "get_observability",
    "get_registry",
    "get_tracer",
]


@dataclass
class Observability:
    """The one handle over tracer + metrics + flight."""

    tracer: Tracer = field(default_factory=get_tracer)
    metrics: MetricsRegistry = field(default_factory=get_registry)
    flight: FlightRecorder = field(default_factory=get_flight_recorder)

    # -- tracing ---------------------------------------------------------

    def start_tracing(self, capacity: int | None = None) -> None:
        if capacity is not None:
            self.tracer.capacity = capacity
        self.tracer.start()

    def stop_tracing(self) -> None:
        self.tracer.stop()

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def export_trace(self, path=None) -> str:
        """Chrome-trace JSON of everything recorded so far."""
        return self.tracer.export_chrome_json(path)

    def trace_tree(self) -> str:
        return self.tracer.tree()

    # -- metrics ---------------------------------------------------------

    def stats(self) -> dict[str, dict]:
        return self.metrics.as_dict()

    def dump_stats(self, path=None) -> str:
        return self.metrics.dump_json(path)

    # -- post-mortem -----------------------------------------------------

    def write_bundle(self, path, **kwargs):
        """Write a post-mortem archive (see :mod:`.bundle`)."""
        from .bundle import write_bundle
        kwargs.setdefault("registry", self.metrics)
        kwargs.setdefault("flight", self.flight)
        return write_bundle(path, **kwargs)


#: Process-global bundle (the tracer/registry/flight singletons are
#: shared, so every Observability() sees the same state; this instance
#: is what the facade properties hand out).
_OBSERVABILITY = Observability()


def get_observability() -> Observability:
    return _OBSERVABILITY
