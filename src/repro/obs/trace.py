"""Span-based tracing with two clocks per span.

Zoomie sessions live in two time bases at once: the host's wall clock
(what the Python process actually spends) and **modeled hardware
seconds** (what the emulated JTAG channel, simulated design, and
compile-time model charge — the numbers behind the paper's Table 3 and
Figure 7). A profiler that shows only one of them is lying about the
other, so every :class:`Span` here carries both:

- ``wall_seconds`` — measured with ``time.perf_counter`` around the
  span body;
- ``modeled_seconds`` — accumulated explicitly via
  :meth:`Span.add_modeled` by the instrumented layers (transport batch
  seconds, simulated picoseconds, VTI stage seconds), and rolled up
  into the parent when the span finishes, so both clocks are inclusive.

Tracing is **off by default** and must stay near-free when disabled:
hot call sites guard on :attr:`Tracer.enabled` (one attribute read) and
:meth:`Tracer.span` returns one shared no-op context manager without
allocating a span. ``benchmarks/bench_obs_overhead.py`` pins the
disabled-path overhead below 3% on the fused-simulator hot loop.

Finished spans land in a bounded ring buffer (oldest evicted first) and
export as:

- Chrome-trace / Perfetto JSON (:meth:`Tracer.export_chrome` — load the
  file at https://ui.perfetto.dev or ``chrome://tracing``);
- a human-readable indented tree (:meth:`Tracer.tree`).

The tracer is deliberately single-threaded (like the debugger it
instruments); there is one process-global instance from
:func:`get_tracer`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Span", "Tracer", "get_tracer"]


@dataclass
class Span:
    """One traced operation, carrying both clocks."""

    name: str
    span_id: int
    parent_id: Optional[int] = None
    depth: int = 0
    #: ``time.perf_counter()`` at start/end (host wall clock).
    start_wall: float = 0.0
    end_wall: Optional[float] = None
    #: Modeled hardware seconds charged to this span, inclusive of
    #: finished children (each child rolls its total into its parent).
    modeled_seconds: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        end = self.end_wall if self.end_wall is not None \
            else time.perf_counter()
        return end - self.start_wall

    @property
    def finished(self) -> bool:
        return self.end_wall is not None

    def set(self, **attrs) -> "Span":
        """Attach key/value attributes (JSON-safe values, please)."""
        self.attrs.update(attrs)
        return self

    def add_modeled(self, seconds: float) -> "Span":
        """Charge modeled hardware seconds to this span."""
        self.modeled_seconds += seconds
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._finish(self)

    # Injected by Tracer.span(); declared for clarity.
    tracer: "Tracer" = None  # type: ignore[assignment]


class _NoopSpan:
    """The shared disabled-path span: every method is a no-op.

    One instance exists per process; entering it allocates nothing, so
    ``with tracer.span(...)`` costs a method call and an identity
    ``__enter__`` when tracing is off. The hottest call sites avoid
    even that by guarding on ``tracer.enabled`` first.
    """

    __slots__ = ()

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def add_modeled(self, seconds: float) -> "_NoopSpan":
        return self

    def __enter__(self) -> None:
        # Yield None so call sites can distinguish "no span" cheaply
        # (``if sp is not None: sp.set(...)``).
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def __bool__(self) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Bounded-retention span recorder with a context-manager API.

    ``capacity`` bounds how many *finished* spans are retained; the
    active span stack is unbounded (it is as deep as the call stack).
    """

    def __init__(self, capacity: int = 4096, enabled: bool = False):
        self.enabled = enabled
        self.capacity = capacity
        #: Finished spans, oldest first (ring buffer semantics).
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1
        self._dropped = 0

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Enable tracing (keeps previously recorded spans)."""
        self.enabled = True

    def stop(self) -> None:
        """Disable tracing; open spans still finish and record."""
        self.enabled = False

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._dropped = 0

    @property
    def dropped(self) -> int:
        """Finished spans evicted by the ring buffer so far."""
        return self._dropped

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def span(self, name: str, /, **attrs):
        """Open a span as a context manager.

        Disabled: returns the shared :data:`NOOP_SPAN` — no allocation.
        ``name`` is positional-only so an attribute may also be called
        ``name`` (e.g. the poked input's signal name).
        """
        if not self.enabled:
            return NOOP_SPAN
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            start_wall=time.perf_counter(),
            attrs=attrs,
        )
        span.tracer = self
        self._next_id += 1
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end_wall = time.perf_counter()
        # Out-of-order exits (generators, re-raised frames) still
        # unwind correctly: pop through to this span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        # Inclusive modeled clock: roll this span's total into its
        # parent, mirroring how wall time nests naturally.
        if self._stack and span.parent_id == self._stack[-1].span_id:
            self._stack[-1].modeled_seconds += span.modeled_seconds
        self.spans.append(span)
        if len(self.spans) > self.capacity:
            del self.spans[: len(self.spans) - self.capacity]
            self._dropped += 1

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def export_chrome(self) -> list[dict]:
        """Finished spans as Chrome-trace "X" (complete) events.

        The returned list serializes to a JSON array that Perfetto and
        ``chrome://tracing`` load directly. Both clocks ride along:
        ``ts``/``dur`` are wall microseconds; ``args`` carries
        ``modeled_seconds`` (and every span attribute).
        """
        events = []
        for span in self.spans:
            if not span.finished:
                continue
            args = {"modeled_seconds": round(span.modeled_seconds, 9)}
            args.update(span.attrs)
            events.append({
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": span.start_wall * 1e6,
                "dur": (span.end_wall - span.start_wall) * 1e6,
                "args": args,
            })
        return events

    def export_chrome_json(self, path=None) -> str:
        """Chrome-trace JSON text; also written to ``path`` if given."""
        text = json.dumps(self.export_chrome(), indent=1)
        if path is not None:
            with open(path, "w") as stream:
                stream.write(text + "\n")
        return text

    def tree(self) -> str:
        """Human dump: one indented line per span, both clocks.

        The tree is rebuilt from parent links over the *retained* spans
        rather than trusting each span's recorded depth: after ring
        eviction a span's parent may be gone, and indenting such an
        orphan at its original depth silently glues it under whatever
        line happens to precede it. Orphans render under a synthetic
        ``<evicted>`` root instead, so long sessions with small rings
        keep every retained subtree visible and honestly labeled.
        """
        if not self.spans:
            return "(no spans recorded)"
        retained = {span.span_id for span in self.spans}
        children: dict[Optional[int], list[Span]] = {}
        orphans: list[Span] = []
        # Finish order puts children before parents; start order is the
        # pre-order walk a tree dump wants.
        for span in sorted(self.spans,
                           key=lambda s: (s.start_wall, s.span_id)):
            if span.parent_id is not None \
                    and span.parent_id not in retained:
                orphans.append(span)
            else:
                children.setdefault(span.parent_id, []).append(span)
        lines = []

        def render(span: Span, depth: int) -> None:
            attrs = " ".join(
                f"{key}={value!r}" for key, value in span.attrs.items())
            lines.append(
                f"{'  ' * depth}{span.name}  "
                f"wall={span.wall_seconds * 1e3:.3f}ms  "
                f"modeled={span.modeled_seconds:.6f}s"
                + (f"  [{attrs}]" if attrs else ""))
            for child in children.get(span.span_id, ()):
                render(child, depth + 1)

        for root in children.get(None, ()):
            render(root, 0)
        if orphans:
            lines.append(f"<evicted>  ({len(orphans)} orphaned span(s) "
                         f"whose parents left the ring buffer)")
            for orphan in orphans:
                render(orphan, 1)
        if self._dropped:
            lines.append(f"... ({self._dropped} eviction(s) — older "
                         f"spans dropped by the ring buffer)")
        return "\n".join(lines)

    def find(self, name: str) -> list[Span]:
        """Finished spans with the given name (test/assertion helper)."""
        return [span for span in self.spans if span.name == name]


#: The process-global tracer every instrumented layer guards on. The
#: object is mutated in place (never replaced) so modules may bind it
#: at import time.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER
