"""Supervision: modeled deadlines, bounded retries, asserted fallbacks.

The debugger's watchdog bounds *transport* time per command; nothing
bounded the rest of the stack — a journal sync or a snapshot write
could take arbitrary (modeled) time or fail without a policy for what
happens next. This module is that policy, in two pieces:

- :func:`run_io` wraps one disk operation in a modeled-seconds deadline
  and a bounded retry loop with an optional repair step between
  attempts (the journal re-truncates its torn tail before re-issuing a
  sync). Deadline violations surface as the same typed
  :class:`DebugTimeoutError` the watchdog uses — "no operation outlives
  its deadline" is one invariant with one error type.

- :func:`note_degradation` records every graceful-degradation event
  (torn journal→tail repair, stuck pause→emergency gates) and
  *asserts* the fallback is in the documented table — an undocumented
  degradation is a bug, not a save.

Supervision is always on, and a clean path costs no extra modeled
time: :func:`run_io` charges exactly one write, and the debugger's
pause and gate-write checks read state it already holds. The bounds
are module constants.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..errors import (
    ChaosError,
    DebugTimeoutError,
    DiskFaultError,
    is_retryable,
)
from ..obs import get_flight_recorder, get_registry
from .schedule import fault_point

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


#: Bounded retries per supervised operation: disk I/O, pause-network
#: writes and gate-ack verification.
RETRIES = 3
#: Modeled-seconds deadline of one disk operation, by site prefix.
IO_DEADLINES = {"journal.": 0.5, "snapstore.": 2.0}


@dataclass(frozen=True)
class Degradation:
    """One recorded graceful-degradation event."""

    fallback: str
    site: str
    detail: str = ""


class Supervisor:
    """Process-wide supervision record (mirrors the obs singletons:
    mutated in place, never replaced, so module-level references stay
    valid)."""

    def __init__(self) -> None:
        self.degradations: list[Degradation] = []
        self.deadline_hits: list[tuple[str, float, float]] = []
        self._lock = threading.Lock()
        registry = get_registry()
        self._m_deadline_hits = registry.counter("supervise.deadline_hits")
        self._m_retries = registry.counter("supervise.retries")
        self._m_degradations = registry.counter("supervise.degradations")

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
                     site=site, detail=detail)


_SUPERVISOR = Supervisor()


def get_supervisor() -> Supervisor:
    return _SUPERVISOR


def note_degradation(fallback: str, site: str = "",
                     detail: str = "") -> None:
    """Record a graceful degradation; a name outside
    :data:`DOCUMENTED_FALLBACKS` raises."""
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

    Each attempt is charged :func:`modeled_io_seconds` (plus any
    fault-attached slow seconds) against the site's deadline in
    :data:`IO_DEADLINES`; retryable failures are retried up to
    :data:`RETRIES` times; exhaustion or a spent deadline surfaces a
    typed error. Returns ``(value, modeled_seconds)``.
    """
    sup = _SUPERVISOR
    fault = fault_point(site)
    deadline = next((seconds for prefix, seconds in IO_DEADLINES.items()
                     if site.startswith(prefix)), None)
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
            if failures > RETRIES or not is_retryable(error):
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
