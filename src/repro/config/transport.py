"""Verified JTAG transactions.

The ring model in :mod:`repro.config.jtag` is a perfect channel; the
physical ring the paper reverse-engineers (Sections 4.4-4.7) is not.
This layer sits between assembled bitstream programs and
:meth:`JtagRing.run` and makes every control operation a *verified
transaction*:

- the device-side controller CRCs the read words it sends (the golden
  channel, :attr:`JtagResult.read_crc`); the host checks the count and
  CRC of what arrived, the only CRC anything verifies;
- every batch attempt visits the ``transport.batch`` fault point, where
  an installed :class:`~repro.chaos.schedule.FaultSchedule` perturbs
  the channel — bit flips in read words, truncated FDRO bursts, dropped
  BOUT hop pulses, stuck secondary controllers — or the card (hangs,
  power cycles) or the host (a kill point);
- mismatches surface as a typed taxonomy (:class:`TransportError`,
  :class:`CorruptReadbackError`) and a bounded :class:`RetryPolicy`
  re-issues the batch with exponential backoff.

Command-path faults (dropped hops, stuck controllers) are rejected
*before* anything executes (no CRC covers outgoing words) — a batch
whose hop group lost a pulse would otherwise capture, read, or worse
*write* the wrong SLR.
Read-path faults are detected after execution; re-issuing is safe
because every debug batch is idempotent against a paused design
(GCAPTURE recaptures the same values, FDRI rewrites the same frames).

All waiting is modeled time: backoff charges seconds to the ring's
clock, never the host's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

from ..bitstream.crc import crc32_stream
from ..bitstream.disassembler import analyze_bitstream
from ..bitstream.packets import Packet, WRITE, encode_packet
from ..bitstream.words import REGISTERS
from ..chaos.schedule import Fault, fault_point
from ..errors import (
    ChaosError,
    CorruptReadbackError,
    SessionCrashedError,
    TransportError,
)
from ..obs import get_flight_recorder, get_registry, get_tracer
from .jtag import BATCH_OVERHEAD_SECONDS, JTAG_BYTES_PER_SECOND

#: Bound at import: the obs singletons are mutated in place, never
#: replaced, so module-level references stay valid.
_TRACER = get_tracer()
_FLIGHT = get_flight_recorder()

if TYPE_CHECKING:  # pragma: no cover
    from .jtag import JtagResult, JtagRing

_BOUT = REGISTERS["BOUT"]
#: The single header word an empty BOUT write (one ring-hop pulse)
#: encodes to; dropping one of these retargets the whole batch.
HOP_PULSE_WORD = encode_packet(
    Packet(opcode=WRITE, register=_BOUT, words=[]))[0]

#: Each failed attempt doubles the backoff before the next one, up to
#: :data:`MAX_BACKOFF_SECONDS` (modeled seconds).
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF_SECONDS = 0.25
#: Most bits one ``read_flip`` fault flips in a batch's read words.
MAX_FLIPS = 3


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff (modeled seconds)."""

    max_attempts: int = 6
    backoff_seconds: float = 0.01

    def backoff_for(self, failure: int) -> float:
        """Backoff after the ``failure``-th failed attempt (1-based)."""
        return min(
            self.backoff_seconds * BACKOFF_MULTIPLIER ** (failure - 1),
            MAX_BACKOFF_SECONDS)


def _shift_seconds(words: int) -> float:
    """Modeled channel time of shifting ``words`` command words."""
    return BATCH_OVERHEAD_SECONDS + words * 4 / JTAG_BYTES_PER_SECOND


def _damage_response(fault: Fault, words: list[int]) -> list[int]:
    """The read words as the host receives them under ``fault``.

    ``truncate`` cuts the FDRO burst short; ``read_flip`` flips 1 to
    :data:`MAX_FLIPS` distinct bits. Other kinds leave the words alone.
    """
    rng = fault.rng
    if fault.kind == "truncate":
        return words[:rng.randrange(len(words))]
    if fault.kind != "read_flip":
        return words
    damaged = list(words)
    for bit in rng.sample(range(len(words) * 32),
                          rng.randint(1, MAX_FLIPS)):
        damaged[bit >> 5] ^= 1 << (bit & 31)
    return damaged


@dataclass
class TransportStats:
    """Per-ring transaction counters."""

    batches: int = 0
    attempts: int = 0
    retries: int = 0
    corrupt_detected: int = 0
    command_faults_detected: int = 0
    stuck_detected: int = 0
    exhausted: int = 0
    seconds_in_retry: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


class VerifiedTransport:
    """Retrying, CRC-verified transactions over one :class:`JtagRing`.

    Every batch runs through one bounded retry loop. With no fault
    schedule installed it takes a single attempt, and the returned
    result (words *and* modeled seconds) is bit-identical to calling
    ``ring.run`` directly — verification is host-side arithmetic and
    charges no channel time.
    """

    def __init__(self, ring: "JtagRing",
                 policy: Optional[RetryPolicy] = None):
        self.ring = ring
        self.policy = policy or RetryPolicy()
        self.stats = TransportStats()
        # Process-wide mirror of the per-ring counters: every ring sums
        # into the same registry names, so `zoomie stats` and the
        # metrics JSON see global totals while self.stats stays
        # per-ring. Instruments are cached here; _count() bumps both
        # at each increment site.
        registry = get_registry()
        self._counters = {
            key: registry.counter(f"transport.{key}")
            for key in self.stats.as_dict()
        }
        self._batch_seconds = registry.histogram(
            "transport.batch_seconds")
        #: Set by :meth:`crash` (an injected kill point). A dead host
        #: answers nothing: every later batch, journaled command,
        #: readback and snapshot of this session raises
        #: :class:`SessionCrashedError`; recovery runs on a fresh fabric.
        self.crashed = False
        #: Modeled-seconds budget of the *current guarded operation*
        #: (the debugger's watchdog window); None = no deadline. All
        #: batches inside the window — including successful ones and
        #: backoff waits — draw it down, so a permanently stuck
        #: controller terminates within the deadline instead of
        #: spinning through an arbitrarily generous retry policy.
        self.deadline_remaining: Optional[float] = None

    # -- host death (injected kill points) ------------------------------

    def crash(self, where: str) -> None:
        """The host process dies at ``where``; the session stays dead."""
        self.crashed = True
        raise SessionCrashedError(
            f"host process died at {where} (injected)")

    def check_alive(self) -> None:
        if self.crashed:
            raise SessionCrashedError(
                "session is dead (the host crashed); recover on a fresh "
                "fabric")

    # -- watchdog window (driven by ZoomieDebugger) ---------------------

    def begin_deadline(self, seconds: float) -> None:
        self.deadline_remaining = seconds

    def end_deadline(self) -> None:
        self.deadline_remaining = None

    @property
    def deadline_active(self) -> bool:
        return self.deadline_remaining is not None

    def _charge_deadline(self, seconds: float) -> None:
        if self.deadline_remaining is not None:
            self.deadline_remaining -= seconds

    def _deadline_expired(self) -> bool:
        return self.deadline_remaining is not None \
            and self.deadline_remaining <= 0

    def _count(self, key: str, amount: float = 1) -> None:
        """Bump one per-ring counter and its registry mirror."""
        setattr(self.stats, key, getattr(self.stats, key) + amount)
        self._counters[key].inc(amount)

    def run(self, words: list[int]) -> "JtagResult":
        """Execute one program as a verified transaction.

        A batch that retried or failed leaves a flight note; with
        tracing enabled every batch becomes a ``jtag.batch`` span
        carrying attempt/retry/CRC attributes plus both clocks (wall
        time measured, channel seconds modeled).
        """
        if _TRACER.enabled:
            return self._run_traced(words)
        stats = self.stats
        retries, corrupt = stats.retries, stats.corrupt_detected
        try:
            result = self._run_verified(words)
        except TransportError:
            self._note(stats.retries - retries,
                       stats.corrupt_detected - corrupt, None)
            raise
        self._batch_seconds.observe(result.seconds)
        if stats.retries != retries:
            self._note(stats.retries - retries,
                       stats.corrupt_detected - corrupt, result)
        return result

    def _run_traced(self, words: list[int]) -> "JtagResult":
        stats = self.stats
        before = (stats.attempts, stats.retries, stats.corrupt_detected,
                  stats.command_faults_detected, stats.seconds_in_retry)
        with _TRACER.span("jtag.batch", words=len(words)) as span:
            try:
                result = self._run_verified(words)
            except TransportError as error:
                self._publish(before, span, None)
                span.set(outcome=error.kind)
                raise
            self._publish(before, span, result)
            return result

    @staticmethod
    def _note(retries: int, corrupt: int, result) -> None:
        """The flight note of a batch that retried or failed. Only those
        are noted: a clean one says no more than the dump's
        transport.batches counter, and would evict older commands from
        the ring."""
        if _FLIGHT.enabled:
            _FLIGHT.note("transport", "batch", retries=retries,
                         corrupt=corrupt, verified=result is not None)

    def _publish(self, before: tuple, span, result) -> None:
        """Histogram, flight note and span attributes for one traced
        batch, from the stats ``before`` it."""
        stats = self.stats
        attempts0, retries0, corrupt0, command0, retry_seconds0 = before
        retries = stats.retries - retries0
        if result is not None:
            self._batch_seconds.observe(result.seconds)
        if retries or result is None:
            self._note(retries, stats.corrupt_detected - corrupt0, result)
        span.set(
            attempts=stats.attempts - attempts0,
            retries=retries,
            crc_faults=stats.corrupt_detected - corrupt0,
            command_faults=stats.command_faults_detected - command0,
            verified=result is not None)
        # Modeled channel seconds: a successful result already carries
        # its failed attempts' time; a failed batch only has its retry
        # time.
        if result is not None:
            span.set(read_words=len(result.read_words))
            span.add_modeled(result.seconds)
        else:
            span.add_modeled(stats.seconds_in_retry - retry_seconds0)

    def _run_verified(self, words: list[int]) -> "JtagResult":
        self.check_alive()
        self._count("batches")
        if self._deadline_expired():
            raise TransportError(
                "operation deadline already exhausted before this "
                "batch", kind="deadline")
        return self._run_attempts(words)

    def _run_attempts(self, words: list[int]) -> "JtagResult":
        wasted = 0.0
        last_error: Optional[TransportError] = None
        for attempt in range(1, self.policy.max_attempts + 1):
            self._count("attempts")
            try:
                result = self._attempt(words)
            except TransportError as error:
                last_error = error
                wasted += error.seconds
                self._count("seconds_in_retry", error.seconds)
                self._charge_deadline(error.seconds)
                if not error.retryable:
                    # A permanent per-attempt fault: retrying the same
                    # batch cannot help, surface it now.
                    raise
                if self._deadline_expired():
                    break
                if attempt < self.policy.max_attempts:
                    self._count("retries")
                    pause = self.policy.backoff_for(attempt)
                    self.ring.total_seconds += pause
                    self._count("seconds_in_retry", pause)
                    wasted += pause
                    self._charge_deadline(pause)
                    if self._deadline_expired():
                        break
                continue
            # The failed attempts' channel time is real session time:
            # surface it on the result the caller accounts.
            result.seconds += wasted
            self._charge_deadline(result.seconds - wasted)
            return result
        assert last_error is not None
        if self._deadline_expired():
            raise TransportError(
                f"operation deadline exhausted after {attempt} "
                f"attempt(s) "
                f"({wasted:.3f} s of modeled channel time lost): "
                f"{last_error}", kind="deadline",
                attempts=self.policy.max_attempts,
                seconds=wasted) from last_error
        self._count("exhausted")
        raise type(last_error)(
            f"transaction failed after {self.policy.max_attempts} "
            f"attempts: {last_error}", kind=last_error.kind,
            attempts=self.policy.max_attempts,
            seconds=wasted) from last_error

    # ------------------------------------------------------------------

    def _attempt(self, words: list[int]) -> "JtagResult":
        fault = fault_point("transport.batch")
        if fault is not None:
            self._inject(fault, words)
        result = self.ring.run(words)
        received = result.read_words
        if fault is not None and received:
            received = _damage_response(fault, received)
        try:
            self._verify(received, len(result.read_words), result.read_crc)
        except CorruptReadbackError as error:
            error.seconds = result.seconds
            self._count("corrupt_detected")
            raise
        return result

    def _inject(self, fault: Fault, words: list[int]) -> None:
        """Apply the part of a ``transport.batch`` fault that strikes
        before the ring executes anything.

        ``crash`` kills the host. ``power_cycle`` reboots the card
        mid-batch — the design restarts from its init state, and the
        error is terminal for the session (recovery on the rebooted or
        a fresh fabric is the only way forward). ``device_hang`` is a
        transient non-response of the whole card. ``drop_hop`` and
        ``stuck`` are command-path faults rejected before executing:
        ``drop_hop`` whenever the batch holds a BOUT pulse to lose, and
        ``stuck`` whenever it addresses a secondary, which never acks.
        The response kinds act after execution (see
        :func:`_damage_response`).
        """
        kind = fault.kind
        if kind == "crash":
            self.crash(f"transport batch visit {fault.visit}")
        if kind == "power_cycle":
            self.ring.total_seconds += _shift_seconds(len(words))
            self.ring.fabric.power_cycle()
            raise ChaosError(
                "fabric power-cycled mid-batch (injected): design "
                "state is gone; recover the session", kind="power_cycle",
                retryable=False)
        if kind == "device_hang":
            seconds = _shift_seconds(len(words))
            self.ring.total_seconds += seconds
            self._count("stuck_detected")
            raise TransportError(
                "device hung: no TDO activity for the whole batch "
                "window (injected)", kind="hang", seconds=seconds)
        if kind == "drop_hop" and HOP_PULSE_WORD in words:
            seconds = _shift_seconds(len(words) - 1)
            self.ring.total_seconds += seconds
            self._count("command_faults_detected")
            raise TransportError(
                "command stream framing mismatch (BOUT hop pulse "
                "dropped in transit); batch rejected before execution",
                kind="command", seconds=seconds)
        if kind == "stuck":
            secondaries = self._secondary_targets(words)
            if secondaries:
                seconds = _shift_seconds(len(words))
                self.ring.total_seconds += seconds
                self._count("stuck_detected")
                raise TransportError(
                    f"SLR{fault.rng.choice(secondaries)} configuration "
                    f"controller not responding", kind="stuck",
                    seconds=seconds)

    def _verify(self, received: list[int], sent_count: int,
                golden_crc: int) -> None:
        """Check the received read words against the golden framing."""
        if len(received) != sent_count:
            raise CorruptReadbackError(
                f"truncated readback: received {len(received)} of "
                f"{sent_count} words", kind="truncated")
        if crc32_stream(received) != golden_crc:
            raise CorruptReadbackError(
                f"readback CRC mismatch over {len(received)} words "
                f"(host CRC != golden channel CRC)")

    def _secondary_targets(self, words: list[int]) -> list[int]:
        """Secondary SLRs this program sends a packet to: one per
        BOUT-hop section that holds one, routed as :meth:`JtagRing.run`
        routes it (a NOP reaches no controller)."""
        device = self.ring.fabric.device
        primary = device.primary_slr
        targets = {(primary + section.hop_count) % device.slr_count
                   for section in analyze_bitstream(words).sections
                   if section.packets}
        return sorted(targets - {primary})
