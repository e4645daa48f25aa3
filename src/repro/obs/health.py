"""Declarative SLO / health rules over the metrics registry.

The metrics registry says what *happened*; this module says whether
that is *okay*. A :class:`HealthRule` is one machine-checkable service
objective — "retries per verified batch stay under 10%", "no circuit
breaker opened", "journal syncs land under their modeled deadline at
p99" — checked against a :class:`MetricsWindow` (counter/histogram
*deltas* since a baseline snapshot, so a verdict can cover one
workload inside a long-lived process).

:func:`evaluate` checks :data:`DEFAULT_RULES` against one window. The
doctor (:mod:`.doctor`) rebases its window before the seeded workload
so the verdict covers that workload alone; the CLI's ``doctor`` verb
and the post-mortem bundle read the registry's full history. A failed
rule's name is the answer to "why did this run degrade".

Rules that lack data (a histogram with no samples, a denominator under
``min_samples``) report ``skipped`` rather than guessing. Severity is
two-level: ``fail`` rules make the report ``degraded`` (nonzero
``doctor`` exit); ``warn`` rules mark it ``warn`` but keep the exit
clean — cache hit rates on a cold first run are low by construction,
not broken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .flight import get_flight_recorder
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    quantile_from_buckets,
)

__all__ = [
    "DEFAULT_RULES",
    "HealthReport",
    "HealthRule",
    "MetricsWindow",
    "RuleResult",
    "evaluate",
]


@dataclass
class HistogramDelta:
    """New histogram observations since a window's baseline."""

    name: str
    bounds: list
    counts: list
    count: int
    total: float
    low: Optional[float]
    high: Optional[float]

    def quantile(self, p: float) -> Optional[float]:
        return quantile_from_buckets(
            self.bounds, self.counts, self.count, self.low, self.high, p)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsWindow:
    """A registry view since a baseline snapshot.

    Counters and histograms read as deltas (a fresh window over a
    long-lived registry sees only what happened after
    :meth:`rebase`); gauges read current — they are already
    point-in-time. Missing instruments read as zero / None, so rules
    can reference metrics a given workload never touched.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 rebase: bool = False):
        self.registry = registry if registry is not None \
            else get_registry()
        self._base_counters: dict[str, float] = {}
        self._base_hists: dict[str, tuple] = {}
        if rebase:
            self.rebase()

    def rebase(self) -> None:
        """Snapshot the baseline; reads become deltas since now."""
        self._base_counters.clear()
        self._base_hists.clear()
        for name in self.registry.names():
            instrument = self.registry.get(name)
            if isinstance(instrument, Counter):
                self._base_counters[name] = instrument.value
            elif isinstance(instrument, Histogram):
                self._base_hists[name] = (
                    instrument.count, list(instrument.counts),
                    instrument.total)

    def counter(self, name: str) -> float:
        instrument = self.registry.get(name)
        if not isinstance(instrument, Counter):
            return 0.0
        return instrument.value - self._base_counters.get(name, 0)

    def gauge(self, name: str) -> float:
        instrument = self.registry.get(name)
        if not isinstance(instrument, Gauge):
            return 0.0
        return instrument.value

    def histogram(self, name: str) -> Optional[HistogramDelta]:
        instrument = self.registry.get(name)
        if not isinstance(instrument, Histogram):
            return None
        base_count, base_counts, base_total = self._base_hists.get(
            name, (0, None, 0.0))
        count = instrument.count - base_count
        if count <= 0:
            return None
        if base_counts is None:
            counts = list(instrument.counts)
        else:
            counts = [now - then for now, then
                      in zip(instrument.counts, base_counts)]
        return HistogramDelta(
            name=name, bounds=list(instrument.bounds), counts=counts,
            count=count, total=instrument.total - base_total,
            low=instrument.min, high=instrument.max)


@dataclass(frozen=True)
class HealthRule:
    """One declarative objective: probe a window, compare a bound.

    ``kind`` is the direction of health: ``"max"`` rules violate when
    the probed value exceeds ``threshold``; ``"min"`` rules violate
    when it falls below. A probe returning None means "not enough
    data" and the rule is skipped.
    """

    name: str
    description: str
    kind: str  # "max" | "min"
    threshold: float
    probe: Callable[[MetricsWindow], Optional[float]]
    severity: str = "fail"  # "fail" | "warn"

    def __post_init__(self) -> None:
        if self.kind not in ("max", "min"):
            raise ValueError(
                f"health rule {self.name!r}: kind must be max or min, "
                f"got {self.kind!r}")
        if self.severity not in ("fail", "warn"):
            raise ValueError(
                f"health rule {self.name!r}: severity must be fail or "
                f"warn, got {self.severity!r}")

    def check(self, window: MetricsWindow) -> "RuleResult":
        value = self.probe(window)
        if value is None:
            status = "skipped"
        elif (value > self.threshold if self.kind == "max"
              else value < self.threshold):
            status = "violated"
        else:
            status = "ok"
        return RuleResult(rule=self, status=status, value=value)


@dataclass
class RuleResult:
    """Outcome of one rule against one window."""

    rule: HealthRule
    status: str  # "ok" | "violated" | "skipped"
    value: Optional[float]

    def as_dict(self) -> dict:
        return {
            "name": self.rule.name,
            "description": self.rule.description,
            "kind": self.rule.kind,
            "threshold": self.rule.threshold,
            "severity": self.rule.severity,
            "status": self.status,
            "value": self.value,
        }


@dataclass
class HealthReport:
    """Every rule's outcome plus the rolled-up verdict."""

    results: list[RuleResult] = field(default_factory=list)

    @property
    def status(self) -> str:
        worst = "healthy"
        for result in self.results:
            if result.status != "violated":
                continue
            if result.rule.severity == "fail":
                return "degraded"
            worst = "warn"
        return worst

    @property
    def failed(self) -> list[str]:
        """Names of violated fail-severity rules (degrade the exit)."""
        return [result.rule.name for result in self.results
                if result.status == "violated"
                and result.rule.severity == "fail"]

    @property
    def warnings(self) -> list[str]:
        return [result.rule.name for result in self.results
                if result.status == "violated"
                and result.rule.severity == "warn"]

    @property
    def exit_code(self) -> int:
        return 1 if self.status == "degraded" else 0

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "failed": self.failed,
            "warnings": self.warnings,
            "rules": [result.as_dict() for result in self.results],
        }

    def describe(self) -> str:
        lines = [f"health: {self.status}"
                 + (f"  (failed: {', '.join(self.failed)})"
                    if self.failed else "")]
        for result in self.results:
            value = ("-" if result.value is None
                     else f"{result.value:.6g}")
            bound = (f"<= {result.rule.threshold:g}"
                     if result.rule.kind == "max"
                     else f">= {result.rule.threshold:g}")
            marker = {"ok": "ok ", "violated": "BAD",
                      "skipped": "-- "}[result.status]
            lines.append(
                f"  [{marker}] {result.rule.name:<28} {value:>10} "
                f"(want {bound}) — {result.rule.description}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# default rule set
# --------------------------------------------------------------------------


def _ratio(numerator: str, denominator: str, min_samples: float):
    def probe(window: MetricsWindow) -> Optional[float]:
        den = window.counter(denominator)
        if den < min_samples:
            return None
        return window.counter(numerator) / den
    return probe


def _hit_rate(hits: str, misses: str, min_samples: float):
    def probe(window: MetricsWindow) -> Optional[float]:
        hit = window.counter(hits)
        total = hit + window.counter(misses)
        if total < min_samples:
            return None
        return hit / total
    return probe


def _histogram_quantile(name: str, p: float):
    def probe(window: MetricsWindow) -> Optional[float]:
        delta = window.histogram(name)
        return None if delta is None else delta.quantile(p)
    return probe


def _counter(name: str):
    return lambda window: window.counter(name)


#: The stock SLO set. Thresholds are service objectives for a healthy
#: session, not physical limits.
DEFAULT_RULES: tuple[HealthRule, ...] = (
    HealthRule(
        "transport.retry_rate",
        "verified-transport retries per batch",
        "max", 0.10,
        _ratio("transport.retries", "transport.batches", 10)),
    HealthRule(
        "transport.crc_failure_rate",
        "CRC-detected corrupt readbacks per batch",
        "max", 0.05,
        _ratio("transport.corrupt_detected", "transport.batches", 10)),
    HealthRule(
        "transport.exhausted",
        "batches that exhausted bounded retries",
        "max", 0.0, _counter("transport.exhausted")),
    HealthRule(
        "supervise.breaker_opens",
        "circuit-breaker OPEN transitions in the window",
        "max", 0.0, _counter("supervise.breaker_opens")),
    HealthRule(
        "journal.corrupt_dumps",
        "journal-corruption flight dumps in the window",
        "max", 0.0, _counter("flight.dumps.journal.corrupt")),
    HealthRule(
        "journal.sync_latency_p99",
        "modeled journal sync latency p99 (seconds)",
        "max", 0.5, _histogram_quantile("journal.sync_seconds", 0.99)),
    HealthRule(
        "chaos.recovery_mttr_p99",
        "modeled seconds to recover from an injected fault, p99",
        "max", 120.0, _histogram_quantile("chaos.mttr_seconds", 0.99)),
    HealthRule(
        "supervise.deadline_hits",
        "supervised operations that blew a modeled deadline",
        "max", 0.0, _counter("supervise.deadline_hits"),
        severity="warn"),
    HealthRule(
        "sim.plan_cache.hit_rate",
        "simulator plan-cache hit rate",
        "min", 0.5,
        _hit_rate("sim.plan_cache.hits", "sim.plan_cache.misses", 4),
        severity="warn"),
    HealthRule(
        "vti.compile_cache.hit_rate",
        "VTI incremental compile-cache hit rate",
        "min", 0.25,
        _hit_rate("vti.cache.hits", "vti.cache.misses", 4),
        severity="warn"),
)


def evaluate(window: MetricsWindow) -> HealthReport:
    """Check every default rule against ``window``.

    A degraded report notes ``supervise``/``health_degraded`` in the
    flight recorder unless the newest such note already names the same
    failed rules: a degradation persists across evaluations, and a note
    per evaluation would evict the chaos and journal notes a
    post-mortem reads from the sticky ring.
    """
    report = HealthReport(
        results=[rule.check(window) for rule in DEFAULT_RULES])
    if report.status == "degraded":
        # Degradations are flight-worthy events (not dump triggers: the
        # condition persists; the *cause* already dumped).
        flight = get_flight_recorder()
        rules = ",".join(report.failed)
        last = next((record for record in reversed(flight.events)
                     if record["kind"] == "supervise"
                     and record["name"] == "health_degraded"), None)
        if last is None or last.get("rules") != rules:
            flight.note("supervise", "health_degraded", rules=rules)
    return report
