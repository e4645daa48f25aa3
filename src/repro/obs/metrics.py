"""A unified metrics registry: counters, gauges, log-bucket histograms.

Before this layer every subsystem kept its numbers in a private corner:
:class:`~repro.config.transport.TransportStats` counted batches with no
user-facing reader, the journal knew its sync points, the simulator's
plan cache kept a module-level dict, and the VTI flow scattered stage
seconds across result objects. The registry gives them one address
space — dotted metric names, three instrument kinds, one
``as_dict()``/JSON snapshot the CLI and benchmarks read.

Instruments are cheap enough to leave on unconditionally at batch/
command granularity (an attribute add per increment); only *tracing*
has an off switch. Histograms use fixed logarithmic buckets (powers of
``base`` starting at ``scale``), the standard shape for latency-like
quantities spanning decades — a modeled readback is microseconds, a VTI
initial compile is hours.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "quantile_from_buckets",
]


def quantile_from_buckets(bounds, counts, count, low_clamp, high_clamp,
                          p: float) -> Optional[float]:
    """Shared bucket-quantile math (histograms *and* windowed deltas).

    Linear interpolation inside the covering bucket, clamped to the
    observed ``[low_clamp, high_clamp]``; the overflow bucket (one past
    ``bounds``) interpolates up to ``high_clamp``. Returns None when
    ``count`` is zero.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"quantile wants p in [0, 1], got {p}")
    if not count:
        return None
    target = p * count
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        if not bucket_count:
            continue
        if cumulative + bucket_count >= target:
            low = bounds[index - 1] if index else 0.0
            if index < len(bounds):
                high = bounds[index]
            else:
                high = high_clamp if high_clamp is not None else bounds[-1]
            fraction = (target - cumulative) / bucket_count
            value = low + fraction * (high - low)
            if low_clamp is not None:
                value = max(value, low_clamp)
            if high_clamp is not None:
                value = min(value, high_clamp)
            return value
        cumulative += bucket_count
    return high_clamp


class Counter:
    """A monotonically increasing count (events, items, seconds)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r}: increments must be >= 0")
        self.value += amount

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (queue depth, cache size, last rate)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        self.value -= amount

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed log-bucket histogram.

    Bucket upper bounds are ``scale * base**i`` for ``i`` in
    ``range(buckets)``; observations above the last bound land in the
    overflow bucket. The default (scale=1e-6, base=4, 16 buckets)
    spans 1 µs to ~4295 s — the full range of modeled times in this
    repository, from a single JTAG word to an initial VTI compile.
    """

    __slots__ = ("name", "scale", "base", "bounds", "counts",
                 "count", "total", "min", "max")

    def __init__(self, name: str, scale: float = 1e-6,
                 base: float = 4.0, buckets: int = 16):
        if scale <= 0 or base <= 1 or buckets < 1:
            raise ValueError(
                f"histogram {name!r}: need scale > 0, base > 1, "
                f"buckets >= 1")
        self.name = name
        self.scale = scale
        self.base = base
        self.bounds = [scale * base ** i for i in range(buckets)]
        self.counts = [0] * (buckets + 1)  # + overflow
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Union[int, float]) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def bucket_for(self, value: Union[int, float]) -> int:
        """Index of the bucket ``value`` would land in."""
        return bisect_right(self.bounds, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, p: float) -> Optional[float]:
        """Estimate the ``p``-quantile (``0 <= p <= 1``) from buckets.

        Linear interpolation inside the covering log bucket, clamped to
        the observed ``[min, max]`` so estimates never stray outside the
        data. The overflow bucket interpolates up to ``max``. Returns
        None on an empty histogram — callers (the health rules) treat
        that as "not enough samples", not as zero latency.
        """
        return quantile_from_buckets(
            self.bounds, self.counts, self.count, self.min, self.max, p)

    def as_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "bounds": self.bounds,
            "counts": list(self.counts),
        }


class MetricsRegistry:
    """Get-or-create instrument store keyed by dotted names."""

    def __init__(self):
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, kind, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, **kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, **kwargs) -> Histogram:
        return self._get(name, Histogram, **kwargs)

    # ------------------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def get(self, name: str):
        return self._instruments.get(name)

    def as_dict(self) -> dict[str, dict]:
        """Every instrument's snapshot, keyed by name (sorted)."""
        return {name: self._instruments[name].as_dict()
                for name in self.names()}

    def dump_json(self, path=None) -> str:
        text = json.dumps(self.as_dict(), indent=1)
        if path is not None:
            with open(path, "w") as stream:
                stream.write(text + "\n")
        return text

    def summary(self) -> str:
        """Human one-line-per-metric dump for the CLI."""
        lines = []
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                lines.append(
                    f"{name}: n={instrument.count} "
                    f"mean={instrument.mean:.6g} "
                    f"min={instrument.min if instrument.min is not None else '-'} "
                    f"max={instrument.max if instrument.max is not None else '-'}")
            else:
                lines.append(f"{name}: {instrument.value:g}")
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def reset(self) -> None:
        """Drop every instrument (tests; never done by the CLI)."""
        self._instruments.clear()


#: Process-global registry, mutated in place so modules may bind it at
#: import time (mirrors the tracer singleton).
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY
