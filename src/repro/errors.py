"""Exception hierarchy for the Zoomie reproduction.

Every package-specific error derives from :class:`ReproError` so callers can
catch the whole family with one clause. Sub-families mirror the package
structure: RTL construction, elaboration, simulation, SVA synthesis, the
vendor flow, configuration/bitstream handling, and debugging.

Every error carries a ``retryable`` classification: whether re-issuing
the *same* operation against the *same* resource can plausibly succeed
(transient channel faults, torn disk writes) or cannot (corrupt durable
records, exhausted retry budgets, dead sessions). Supervisors and the
chaos harness branch on it via :func:`is_retryable` instead of matching
exception types ad hoc.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library.

    ``retryable`` is a conservative default of False; subclasses (or
    instances) that model transient faults override it.
    """

    #: Whether re-issuing the failed operation can plausibly succeed.
    retryable: bool = False


def is_retryable(error: BaseException) -> bool:
    """Whether ``error`` models a transient fault worth re-attempting.

    Errors outside this library's taxonomy (including raw ``OSError``)
    classify as non-retryable: without a model of the fault there is no
    basis to expect a retry to behave differently.
    """
    return bool(getattr(error, "retryable", False))


# --------------------------------------------------------------------------
# RTL construction and elaboration
# --------------------------------------------------------------------------

class RtlError(ReproError):
    """Base class for RTL IR errors."""


class WidthError(RtlError):
    """Operand widths are inconsistent or out of range."""


class NameConflictError(RtlError):
    """Two design objects share a name within one scope."""


class UnknownSignalError(RtlError, KeyError):
    """A referenced signal does not exist in the module or netlist."""


class ElaborationError(RtlError):
    """Hierarchy flattening failed (missing module, port mismatch, ...)."""


class CombinationalLoopError(RtlError):
    """The combinational logic contains a cycle."""


class SimulationError(ReproError):
    """The simulator was driven into an invalid state."""


class MutationError(RtlError):
    """The mutation engine could not produce a valid mutant.

    Raised when an operator has no applicable sites in a design, when a
    requested corpus size exceeds the valid (compiling, fingerprint-
    distinct) mutants the site pool can yield, or when a site index no
    longer resolves against the netlist it was enumerated from.
    """


class CampaignError(ReproError):
    """A debug campaign could not complete (unknown design, a mutant
    session that kept crashing past its recovery budget, ...)."""


# --------------------------------------------------------------------------
# SVA
# --------------------------------------------------------------------------

class SvaError(ReproError):
    """Base class for SVA handling errors."""


class SvaSyntaxError(SvaError):
    """The assertion text could not be parsed."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class UnsynthesizableError(SvaError):
    """The assertion uses a feature outside the synthesizable subset.

    Mirrors the paper's Table 4: local variables, asynchronous resets,
    ``first_match``, simulation-only system functions such as
    ``$isunknown``, and unbounded ranges are rejected with this error.
    """

    def __init__(self, message: str, feature: str = ""):
        super().__init__(message)
        self.feature = feature


# --------------------------------------------------------------------------
# FPGA device / bitstream / configuration
# --------------------------------------------------------------------------

class DeviceError(ReproError):
    """The device model was used inconsistently."""


class BitstreamError(ReproError):
    """Malformed bitstream or packet stream."""


class ConfigError(ReproError):
    """The configuration microcontroller rejected an operation."""


class JtagError(ReproError):
    """JTAG ring misuse (e.g. addressing a non-existent SLR)."""


class TransportError(JtagError):
    """A verified JTAG transaction failed.

    Raised per attempt for channel faults detected before execution
    (``kind="command"`` for framing failures such as dropped BOUT hop
    pulses, ``kind="stuck"`` for a non-responding secondary controller)
    and, with ``attempts`` set, when the retry policy is exhausted.
    ``seconds`` carries the modeled channel time lost to the failure.
    """

    def __init__(self, message: str, kind: str = "transport",
                 attempts: int = 0, seconds: float = 0.0):
        super().__init__(message)
        self.kind = kind
        self.attempts = attempts
        self.seconds = seconds
        # Per-attempt channel faults are transient; an *exhausted*
        # transaction (attempts set) or a spent deadline is final — the
        # bounded retry already happened one layer down.
        self.retryable = attempts == 0 and kind != "deadline"


class CorruptReadbackError(TransportError):
    """Read words failed verification against the golden channel.

    The per-batch CRC32 (or word count, for truncated FDRO bursts) did
    not match what the device-side controller actually sent; the batch
    must be re-issued, never consumed.
    """

    def __init__(self, message: str, kind: str = "corrupt",
                 attempts: int = 0, seconds: float = 0.0):
        super().__init__(message, kind=kind, attempts=attempts,
                         seconds=seconds)


# --------------------------------------------------------------------------
# Vendor flow / VTI
# --------------------------------------------------------------------------

class FlowError(ReproError):
    """A toolchain flow step failed."""


class PlacementError(FlowError):
    """The placer could not fit the design into the target region."""


class RoutingError(FlowError):
    """The router could not complete all nets."""


class TimingError(FlowError):
    """Static timing analysis failed to close timing."""


class PartitionError(FlowError):
    """Invalid VTI partition specification."""


# --------------------------------------------------------------------------
# Debugging
# --------------------------------------------------------------------------

class DebugError(ReproError):
    """Base class for debugger errors."""


class NotPausedError(DebugError):
    """State access was attempted while the design is running."""


class BreakpointError(DebugError):
    """Invalid breakpoint specification."""


class SnapshotFormatError(DebugError):
    """A persisted snapshot could not be parsed.

    Raised (instead of bare ``ValueError``/``KeyError``/``IndexError``)
    for truncated dumps, malformed JSON, wrong formats, bad hex values,
    and duplicate signal names. ``line`` carries the 1-based line of the
    first problem when the decoder can localize it, else ``0``.
    """

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line


class SnapshotIntegrityError(DebugError):
    """A stored snapshot failed integrity verification on load.

    Truncation (byte count below the header's), bit-rot (CRC32
    mismatch), or a content hash that no longer matches the key it is
    filed under. ``kind`` is ``"truncated"``, ``"checksum"``, ``"key"``,
    or ``"missing"``.
    """

    def __init__(self, message: str, kind: str = "checksum"):
        super().__init__(message)
        self.kind = kind


class JournalError(DebugError):
    """Base class for write-ahead journal errors."""


class JournalCorruptError(JournalError):
    """A journal record failed its CRC32/framing check.

    A *torn tail* (the final record cut mid-write by a crash) is normal
    and silently dropped; this error means an interior record — one
    followed by later durable records — is damaged, so replaying past it
    would silently diverge. ``line`` is the 1-based journal line.
    """

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line


class RecoveryError(DebugError):
    """Session recovery could not complete."""


class RecoveryDivergenceError(RecoveryError):
    """Deterministic replay reproduced different state than the journal
    recorded.

    Raised when re-executing the journal reaches a ``snapshot`` record
    whose re-taken content hash differs from the journaled one —
    the replay-and-compare oracle for debugger-state correctness.
    ``changed`` maps register names to ``(journaled, replayed)`` values
    when the journaled snapshot could be loaded for a full diff.
    """

    def __init__(self, message: str, record_index: int = -1,
                 changed=None):
        super().__init__(message)
        self.record_index = record_index
        self.changed = changed or {}


class SessionCrashedError(DebugError):
    """The (modeled) host process died mid-session.

    Injected by a :class:`~repro.config.transport.CrashPlan` at a chosen
    journaled-command or transport-batch boundary; every subsequent
    operation on the dead session raises this too.
    """


class DebugTimeoutError(DebugError):
    """A debug operation exceeded its modeled-seconds deadline.

    The watchdog aborted the operation, drove the session into a
    safe-paused state through the still-reachable primary controller's
    global clock gates, and surfaced this instead of retrying forever.
    """

    def __init__(self, message: str, operation: str = "",
                 deadline_seconds: float = 0.0,
                 spent_seconds: float = 0.0):
        super().__init__(message)
        self.operation = operation
        self.deadline_seconds = deadline_seconds
        self.spent_seconds = spent_seconds


class ChaosError(ReproError):
    """An injected chaos fault surfaced to the caller unhandled.

    Raised by :mod:`repro.chaos` fault points whose effect is not a
    more specific typed error (fabric power cycles). ``kind`` names the
    injected fault class; ``retryable`` says whether re-running the
    operation can succeed (a torn disk write) or not (a power-cycled
    fabric whose session state is gone).
    """

    def __init__(self, message: str, kind: str = "chaos",
                 retryable: bool = False):
        super().__init__(message)
        self.kind = kind
        self.retryable = retryable


class DiskFaultError(ChaosError):
    """An injected disk-I/O fault (torn write, bit-rot, ENOSPC).

    ``kind`` is ``"torn_write"``, ``"bit_rot"``, ``"enospc"``, or
    ``"slow_sync"``. Torn and slow writes are transient — the supervisor
    repairs and re-issues them; a full disk is not fixed by retrying.
    """

    RETRYABLE_KINDS = frozenset({"torn_write", "slow_sync", "bit_rot"})

    def __init__(self, message: str, kind: str = "torn_write"):
        super().__init__(message, kind=kind,
                         retryable=kind in self.RETRYABLE_KINDS)


class CircuitOpenError(ReproError):
    """A per-fabric circuit breaker is open: the operation was refused
    without touching the channel.

    Repeated transport failures tripped the breaker; callers must back
    off (modeled cooldown) or escalate to session recovery on a fresh
    fabric instead of hammering a sick one. Not retryable by
    definition — the breaker exists to stop retries.
    """

    def __init__(self, message: str, failures: int = 0,
                 cooldown_seconds: float = 0.0):
        super().__init__(message)
        self.failures = failures
        self.cooldown_seconds = cooldown_seconds


class FormalError(ReproError):
    """A bounded model check found a counterexample or was misconfigured."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace
