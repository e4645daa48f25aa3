"""Seeded, stack-wide fault schedules: the one fault-injection API.

A :class:`FaultSchedule` is a composable, seeded plan that can hit
*every* layer of the stack — disk I/O under the journal, snapshot
store, and compile caches; fabric lifecycle (clock-gate acks, the pause
network, power cycles); the JTAG channel of every transport batch; and
the host process itself (kill points at transport batches and
journaled-command boundaries) — from one seeded stream, so a failing
chaos campaign or test reproduces exactly from its seed.

The mechanism is a global registry of **fault points**: instrumented
code calls :func:`fault_point("journal.sync")` and receives either
``None`` (the overwhelmingly common case — one dict lookup and a
``None`` check, so the clean path stays within the <3% overhead gate)
or a :class:`Fault` describing what to inject. The *effect* of a fault
is implemented at the call site, where the bytes/frames being damaged
are in scope; this module only decides deterministically *when*
a fault fires.

Sites are matched by :mod:`fnmatch` pattern, so one spec can cover a
family (``"planstore.*"``). Specs fire either on an exact visit index
(``at=``, for boundary-sweep tests) or with a per-visit probability
(``rate=``, for randomized campaigns), and every spec's total fire
count is bounded by ``count`` — injected adversity is always finite, a
precondition for the campaign's bounded-retry invariant. A visit
injects at most one fault: the first spec (in schedule order) that
fires wins.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Optional

from ..errors import ChaosError
from ..obs import get_flight_recorder, get_registry

_FLIGHT = get_flight_recorder()

#: Every fault kind a spec may request, and the sites that honor it.
#: The table is documentation *and* validation: a spec naming a kind no
#: site implements would silently never fire, so construction rejects
#: unknown kinds and site/kind pairs outside this table.
#:
#: A fault that fires with nothing to act on is recorded (it counts as
#: an injection) but changes nothing: ``drop_hop`` on a batch with no
#: hop pulse, ``stuck`` on a batch that targets only the primary SLR,
#: and ``read_flip``/``truncate`` on a batch with no read words.
SITE_KINDS: dict[str, frozenset] = {
    # disk I/O
    "journal.sync": frozenset(
        {"torn_write", "bit_rot", "enospc", "slow_sync"}),
    "snapstore.put": frozenset({"torn_write", "bit_rot", "enospc"}),
    "planstore.load": frozenset({"bit_rot"}),
    "planstore.merge": frozenset({"torn_write", "enospc"}),
    "vticache.load": frozenset({"bit_rot"}),
    "vticache.store": frozenset({"torn_write", "enospc"}),
    # one visit per transport batch *attempt*: the card, the JTAG
    # channel, and host death mid-command
    "transport.batch": frozenset(
        {"device_hang", "power_cycle", "read_flip", "truncate",
         "drop_hop", "stuck", "crash"}),
    "fabric.gate_ack": frozenset({"gate_ack_drop"}),
    "fabric.pause_write": frozenset({"pause_stuck"}),
    # one visit per journaled command, right after its record is
    # durable: host death before or after the command applies
    "debug.command": frozenset({"crash_before", "crash_after"}),
}

KINDS = frozenset(kind for kinds in SITE_KINDS.values() for kind in kinds)

#: Share of generated schedules that also perturb the JTAG channel,
#: and the fire bound on each of their channel-fault rate specs.
CHANNEL_FAULT_PROBABILITY = 0.3
CHANNEL_FAULT_BOUND = 4


def sites_for_kind(kind: str) -> list[str]:
    """Every concrete site that implements ``kind``."""
    return sorted(site for site, kinds in SITE_KINDS.items()
                  if kind in kinds)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: where, what, when, and how often.

    ``site`` is an fnmatch pattern over the table above. Exactly one of
    ``at`` (fire on the N-th visit since the schedule was installed,
    0-based) or ``rate`` (per-visit probability) selects the firing
    discipline; ``count`` bounds total fires of a rate spec (an ``at``
    spec fires once); ``seconds`` attaches modeled extra latency (slow
    faults).
    """

    site: str
    kind: str
    rate: float = 0.0
    at: Optional[int] = None
    count: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ChaosError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{sorted(KINDS)}", kind="spec")
        matches = [site for site, kinds in SITE_KINDS.items()
                   if fnmatchcase(site, self.site)]
        if not matches:
            raise ChaosError(
                f"fault site pattern {self.site!r} matches no known "
                f"site; known: {sorted(SITE_KINDS)}", kind="spec")
        if not any(self.kind in SITE_KINDS[site] for site in matches):
            raise ChaosError(
                f"no site matching {self.site!r} implements fault kind "
                f"{self.kind!r} (it lives at "
                f"{sites_for_kind(self.kind)})", kind="spec")
        if self.at is None and not 0.0 < self.rate <= 1.0:
            raise ChaosError(
                f"spec needs either at= or a rate in (0, 1], got "
                f"rate={self.rate}", kind="spec")
        if self.at is not None and self.rate:
            raise ChaosError(
                f"spec sets both at={self.at} and rate={self.rate}; "
                f"choose one", kind="spec")
        if self.at is not None and self.at < 0:
            raise ChaosError(
                f"visit index at={self.at} can never fire; visits count "
                f"from 0", kind="spec")
        if self.count < 1:
            raise ChaosError("fault count must be >= 1", kind="spec")
        if self.at is not None and self.count > 1:
            raise ChaosError(
                f"at={self.at} matches a single visit, so count="
                f"{self.count} can never be reached; use a rate spec",
                kind="spec")

    def matches(self, site: str) -> bool:
        return fnmatchcase(site, self.site)


@dataclass
class Fault:
    """What an armed fault point hands back to the instrumented code."""

    site: str
    kind: str
    #: Modeled extra seconds the fault costs (slow syncs).
    seconds: float
    #: Seeded stream for the fault's *effect* (which byte tears, which
    #: bit rots) so damage reproduces along with timing.
    rng: random.Random
    #: Visit index at which this fault fired.
    visit: int


@dataclass(frozen=True)
class Injection:
    """Audit-log entry: one fault that actually fired."""

    site: str
    kind: str
    visit: int


class FaultSchedule:
    """An immutable, seeded set of :class:`FaultSpec`\\ s.

    The schedule is the shareable artifact (campaigns log its seed and
    specs); :meth:`registry` arms it into a fresh mutable
    :class:`FaultRegistry` for one run, so the same schedule replays
    identically as many times as needed.
    """

    def __init__(self, seed: int = 0, specs=()):
        self.seed = seed
        self.specs: tuple[FaultSpec, ...] = tuple(specs)

    def registry(self) -> "FaultRegistry":
        return FaultRegistry(self)

    def describe(self) -> str:
        lines = [f"fault schedule seed={self.seed} "
                 f"({len(self.specs)} spec(s))"]
        for spec in self.specs:
            when = (f"at visit {spec.at}" if spec.at is not None
                    else f"rate {spec.rate:g} x{spec.count}")
            lines.append(f"  {spec.site}: {spec.kind} {when}")
        return "\n".join(lines)

    @classmethod
    def generate(cls, seed: int, max_faults: int = 3) -> "FaultSchedule":
        """A randomized (but seed-deterministic) campaign schedule.

        Draws 1..``max_faults`` specs over the whole site table — kill
        points included — firing at small visit indices so short
        debugger workloads actually reach them, plus (with probability
        :data:`CHANNEL_FAULT_PROBABILITY`) mild channel-fault rates,
        each bounded to :data:`CHANNEL_FAULT_BOUND` fires.
        """
        rng = random.Random(seed)
        specs = []
        sites = sorted(SITE_KINDS)
        for _ in range(rng.randint(1, max_faults)):
            site = rng.choice(sites)
            kind = rng.choice(sorted(SITE_KINDS[site]))
            seconds = (round(rng.uniform(0.05, 0.4), 3)
                       if kind == "slow_sync" else 0.0)
            specs.append(FaultSpec(site=site, kind=kind,
                                   at=rng.randrange(6), seconds=seconds))
        if rng.random() < CHANNEL_FAULT_PROBABILITY:
            for kind, low, high in (("read_flip", 0.02, 0.1),
                                    ("drop_hop", 0.01, 0.05)):
                specs.append(FaultSpec(
                    site="transport.batch", kind=kind,
                    rate=round(rng.uniform(low, high), 3),
                    count=CHANNEL_FAULT_BOUND))
        return cls(seed=seed, specs=specs)


class FaultRegistry:
    """One armed run of a :class:`FaultSchedule`.

    Tracks per-site visit counters and per-spec fire counts, draws
    rate-based fires from one seeded stream, and keeps an audit log of
    every injection. Thread-safe, so instrumented code on any thread
    may hit a fault point.
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self._rng = random.Random(schedule.seed)
        self._lock = threading.Lock()
        self._visits: dict[str, int] = {}
        self._fired: dict[int, int] = {}
        self.injections: list[Injection] = []
        registry = get_registry()
        self._m_injected = registry.counter("chaos.faults_injected")

    def visit(self, site: str) -> Optional[Fault]:
        """Record one visit to ``site``; the fault to inject, if any."""
        with self._lock:
            visit = self._visits.get(site, 0)
            self._visits[site] = visit + 1
            for index, spec in enumerate(self.schedule.specs):
                if self._fired.get(index, 0) >= spec.count:
                    continue
                if not spec.matches(site):
                    continue
                if spec.at is not None:
                    if visit != spec.at:
                        continue
                elif self._rng.random() >= spec.rate:
                    continue
                self._fired[index] = self._fired.get(index, 0) + 1
                self.injections.append(
                    Injection(site=site, kind=spec.kind, visit=visit))
                self._m_injected.inc()
                get_registry().counter(
                    f"chaos.faults_injected.{spec.kind}").inc()
                # Injections land in the flight recorder's sticky ring
                # so a post-mortem dump names every fault that fired.
                _FLIGHT.note("chaos", spec.kind, site=site, visit=visit)
                return Fault(site=site, kind=spec.kind,
                             seconds=spec.seconds,
                             rng=random.Random(self._rng.randrange(1 << 30)),
                             visit=visit)
        return None

    def visits(self, site: str) -> int:
        with self._lock:
            return self._visits.get(site, 0)

    @property
    def faults_fired(self) -> int:
        with self._lock:
            return len(self.injections)


# --------------------------------------------------------------------------
# the process-global active registry
# --------------------------------------------------------------------------

#: The armed registry, or None (the permanent state outside chaos runs).
_ACTIVE: Optional[FaultRegistry] = None


def fault_point(site: str) -> Optional[Fault]:
    """The fault to inject at ``site`` right now, or None.

    This is the only chaos call on production paths; with no registry
    installed it is a module-global load and a ``None`` check.
    """
    registry = _ACTIVE
    if registry is None:
        return None
    return registry.visit(site)


def chaos_active() -> bool:
    return _ACTIVE is not None


@contextmanager
def install_chaos(registry: FaultRegistry):
    """Arm ``registry`` as the process-wide fault source for a block.

    Nesting is rejected — two overlapping schedules would make neither
    reproducible from its seed.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise ChaosError(
            "a fault registry is already installed; chaos runs do not "
            "nest", kind="install")
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = None
