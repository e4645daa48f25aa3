"""Supervision: modeled deadlines, bounded retries, asserted fallbacks.

The debugger's watchdog bounds *transport* time per command; nothing
bounded the rest of the stack — a journal sync or a snapshot write
could take arbitrary (modeled) time or fail without a policy for what
happens next. This module is that policy, in three pieces:

- :func:`run_io` wraps one disk operation in a modeled-seconds deadline
  and a bounded retry loop with an optional repair step between
  attempts (the journal re-truncates its torn tail before re-issuing a
  sync). Deadline violations surface as the same typed
  :class:`DebugTimeoutError` the watchdog uses — "no operation outlives
  its deadline" is one invariant with one error type.

- :class:`CircuitBreaker` guards one fabric's transport: repeated
  transaction failures open the breaker, and further batches are
  refused with :class:`CircuitOpenError` *without touching the
  channel* until a modeled cooldown elapses. This is the
  bounded-retry escalation between "retry the batch" (the transport's
  RetryPolicy) and "abandon the fabric" (session recovery).

- :func:`note_degradation` records every graceful-degradation event
  (torn journal→tail repair, stuck pause→emergency gates) and
  *asserts* the fallback is in the documented table — an undocumented
  degradation is a bug, not a save.

Everything here is disabled by default and costs one attribute check
on clean paths; :func:`get_supervisor` / :meth:`Supervisor.enable`
turn it on for chaos campaigns and hardened deployments.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import (
    ChaosError,
    CircuitOpenError,
    DebugTimeoutError,
    DiskFaultError,
    is_retryable,
)
from ..obs import get_flight_recorder, get_logger, get_registry
from .schedule import fault_point

_LOG = get_logger()
_FLIGHT = get_flight_recorder()

#: Modeled disk timing: a sync costs a fixed seek/flush overhead plus
#: streaming the payload. The numbers model commodity NVMe the way the
#: JTAG constants model the paper's 66 MHz ring — stable arithmetic,
#: not measurements.
DISK_SYNC_BASE_SECONDS = 0.0005
DISK_BYTES_PER_SECOND = 64e6


def modeled_io_seconds(nbytes: int) -> float:
    """Modeled wall seconds one durable write/read of ``nbytes`` costs."""
    return DISK_SYNC_BASE_SECONDS + nbytes / DISK_BYTES_PER_SECOND


#: Every graceful-degradation path the stack is allowed to take.
#: ``note_degradation`` rejects names outside this table, so a new
#: fallback cannot ship without being documented here (and, per the
#: campaign invariant, exercised under chaos).
DOCUMENTED_FALLBACKS: dict[str, str] = {
    "pause.emergency_gates":
        "pause network unresponsive -> park the clocks via the primary "
        "controller's global gate registers",
    "journal.tail_repair":
        "torn journal sync -> truncate to the durable prefix and "
        "re-issue the pending records",
}


@dataclass(frozen=True)
class SuperviseConfig:
    """Deadlines (modeled seconds) and retry/breaker bounds."""

    #: Per-op-class modeled-seconds deadlines (None = unbounded).
    journal_sync_deadline: Optional[float] = 0.5
    snapshot_io_deadline: Optional[float] = 2.0
    #: Bounded retries per supervised operation: disk I/O, pause-network
    #: writes and gate-ack verification.
    retries: int = 3
    #: Consecutive transport failures that open a fabric's breaker.
    breaker_threshold: int = 3
    #: Modeled seconds an open breaker refuses traffic.
    breaker_cooldown_seconds: float = 0.5

    def io_deadline_for(self, site: str) -> Optional[float]:
        if site.startswith("journal."):
            return self.journal_sync_deadline
        if site.startswith("snapstore."):
            return self.snapshot_io_deadline
        return None


@dataclass(frozen=True)
class Degradation:
    """One recorded graceful-degradation event."""

    fallback: str
    site: str
    detail: str = ""


class CircuitBreaker:
    """Three-state (closed / open / half-open) breaker on modeled time.

    ``clock`` supplies the modeled-seconds timeline the cooldown is
    measured on — for a fabric, the JTAG ring's ``total_seconds``, so
    an idle host does not silently "wait out" a sick device: only
    modeled channel activity moves the clock.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, clock: Callable[[], float],
                 threshold: int = 3, cooldown_seconds: float = 0.5,
                 name: str = "fabric"):
        if threshold < 1:
            raise ChaosError("breaker threshold must be >= 1",
                             kind="breaker")
        self.clock = clock
        self.threshold = threshold
        self.cooldown_seconds = cooldown_seconds
        self.name = name
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.opens = 0
        registry = get_registry()
        self._m_opens = registry.counter("supervise.breaker_opens")
        #: How many breakers are currently OPEN, process-wide (the
        #: health engine's circuit-breaker-state signal).
        self._g_open = registry.gauge("supervise.breakers_open")

    def allow(self) -> None:
        """Gate one operation; raises :class:`CircuitOpenError` open."""
        if self.state == self.OPEN:
            elapsed = self.clock() - self.opened_at
            if elapsed < self.cooldown_seconds:
                raise CircuitOpenError(
                    f"{self.name} circuit breaker open after "
                    f"{self.failures} consecutive failure(s); "
                    f"{self.cooldown_seconds - elapsed:.3f} modeled "
                    f"seconds of cooldown remain",
                    failures=self.failures,
                    cooldown_seconds=self.cooldown_seconds)
            self._g_open.dec()
            self.state = self.HALF_OPEN

    def record_success(self) -> None:
        self.failures = 0
        self.state = self.CLOSED

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == self.HALF_OPEN or \
                self.failures >= self.threshold:
            if self.state != self.OPEN:
                self.opens += 1
                self._m_opens.inc()
                self._g_open.inc()
                if _LOG.enabled:
                    _LOG.warn("supervise.breaker_open", name=self.name,
                              failures=self.failures)
                # An OPEN transition is a flight trigger: the channel
                # is about to go dark, so capture the lead-up now.
                _FLIGHT.trigger("breaker.open", breaker=self.name,
                                failures=self.failures)
            self.state = self.OPEN
            self.opened_at = self.clock()

    def reset(self) -> None:
        """Explicit repair acknowledgement (post-recovery)."""
        if self.state == self.OPEN:
            self._g_open.dec()
        self.failures = 0
        self.state = self.CLOSED


class Supervisor:
    """Process-wide supervision switchboard (mirrors the obs singletons:
    mutated in place, never replaced, so module-level references stay
    valid)."""

    def __init__(self) -> None:
        self.enabled = False
        self.config = SuperviseConfig()
        self.degradations: list[Degradation] = []
        self.deadline_hits: list[tuple[str, float, float]] = []
        self._lock = threading.Lock()
        registry = get_registry()
        self._m_deadline_hits = registry.counter("supervise.deadline_hits")
        self._m_retries = registry.counter("supervise.retries")
        self._m_degradations = registry.counter("supervise.degradations")

    def enable(self, config: Optional[SuperviseConfig] = None) -> None:
        if config is not None:
            self.config = config
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self.degradations.clear()
            self.deadline_hits.clear()

    # -- bookkeeping (thread-safe) ---------------------------------------

    def record_retry(self, site: str) -> None:
        self._m_retries.inc()
        get_registry().counter(f"supervise.retries.{site}").inc()
        _FLIGHT.note("supervise", "retry", site=site)

    def deadline_hit(self, site: str, spent: float,
                     deadline: float) -> "DebugTimeoutError":
        with self._lock:
            self.deadline_hits.append((site, spent, deadline))
        self._m_deadline_hits.inc()
        if _LOG.enabled:
            _LOG.warn("supervise.deadline_hit", site=site,
                      spent=round(spent, 6), deadline=deadline)
        _FLIGHT.trigger("debug.timeout", site=site,
                        spent=round(spent, 6), deadline=deadline)
        return DebugTimeoutError(
            f"{site} exceeded its modeled deadline: spent "
            f"{spent:.4f} s of a {deadline:.4f} s budget",
            operation=site, deadline_seconds=deadline,
            spent_seconds=spent)

    def note_degradation(self, fallback: str, site: str = "",
                         detail: str = "") -> None:
        if fallback not in DOCUMENTED_FALLBACKS:
            raise ChaosError(
                f"undocumented degradation path {fallback!r}; every "
                f"fallback must be registered in "
                f"chaos.supervise.DOCUMENTED_FALLBACKS",
                kind="degradation")
        with self._lock:
            self.degradations.append(
                Degradation(fallback=fallback, site=site, detail=detail))
        self._m_degradations.inc()
        get_registry().counter(f"supervise.degradations.{fallback}").inc()
        _FLIGHT.note("supervise", "degradation", fallback=fallback,
                     site=site)
        if _LOG.enabled:
            _LOG.warn("supervise.degradation", fallback=fallback,
                      site=site, detail=detail)

    def make_breaker(self, clock: Callable[[], float],
                     name: str = "fabric") -> CircuitBreaker:
        return CircuitBreaker(
            clock, threshold=self.config.breaker_threshold,
            cooldown_seconds=self.config.breaker_cooldown_seconds,
            name=name)


_SUPERVISOR = Supervisor()


def get_supervisor() -> Supervisor:
    return _SUPERVISOR


def note_degradation(fallback: str, site: str = "",
                     detail: str = "") -> None:
    """Record a graceful degradation (works supervised or not — the
    documented-fallback assertion always holds)."""
    _SUPERVISOR.note_degradation(fallback, site=site, detail=detail)


def run_io(site: str, nbytes: int, attempt,
           repair=None):
    """Execute one disk operation under supervision.

    ``attempt(fault)`` performs the operation, applying the effect of
    ``fault`` (a :class:`~repro.chaos.schedule.Fault` or None) at the
    point where the bytes are in hand; it raises
    :class:`DiskFaultError` when the injected fault makes the write
    fail. ``repair(error)`` (optional) restores on-disk consistency
    between attempts.

    Unsupervised, this degenerates to ``attempt(fault_point(site))`` —
    faults surface raw, which is exactly what the chaos campaign's
    "supervision off" baseline measures. Supervised, each attempt is
    charged :func:`modeled_io_seconds` (plus any fault-attached slow
    seconds) against the site's deadline; retries are bounded by
    ``retries``; exhaustion or a spent deadline surfaces a typed
    error. Returns ``(value, modeled_seconds)``.
    """
    sup = _SUPERVISOR
    fault = fault_point(site)
    if not sup.enabled:
        seconds = modeled_io_seconds(nbytes) + \
            (fault.seconds if fault is not None else 0.0)
        return attempt(fault), seconds
    deadline = sup.config.io_deadline_for(site)
    spent = 0.0
    failures = 0
    while True:
        spent += modeled_io_seconds(nbytes)
        if fault is not None:
            spent += fault.seconds
        try:
            value = attempt(fault)
        except DiskFaultError as error:
            failures += 1
            if deadline is not None and spent >= deadline:
                raise sup.deadline_hit(site, spent, deadline) from error
            if failures > sup.config.retries or not is_retryable(error):
                raise
            sup.record_retry(site)
            if repair is not None:
                repair(error)
            fault = fault_point(site)
            continue
        if deadline is not None and spent > deadline:
            # The write landed but blew its budget (slow-sync faults):
            # that still violates "no op outlives its deadline" — a
            # caller waiting on durability cannot tell the difference.
            raise sup.deadline_hit(site, spent, deadline)
        return value, spent
