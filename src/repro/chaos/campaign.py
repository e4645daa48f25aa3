"""Automated chaos campaigns: seeded schedules, differential invariants.

One campaign replays a scripted debugger workload on a set of designs
from the campaign table (:mod:`repro.campaign.designs`) — the
single-clock pipeline, the Cohort SoC, and the multi-SLR manycore
cluster, compiled at :data:`CLOCKS_MHZ` — under N randomized (but
seed-deterministic) :class:`~repro.chaos.schedule.FaultSchedule`\\ s,
with crash safety attached to every session.
After every faulted run it checks the differential invariants the
robustness work promises:

- **Convergence** — after any number of supervised recoveries, the
  faulted session's final design state is *bit-identical* (same
  :meth:`StateSnapshot.content_key`) to an unfaulted twin that ran the
  same script. Modeled seconds absorb all injected adversity; design
  cycles never do.
- **Bounded adversity handling** — recoveries per schedule are bounded,
  supervised retries are bounded per injected fault, and no operation
  outlives its modeled-seconds deadline (deadline violations surface as
  typed errors that route into recovery, never hangs).
- **Documented degradation** — every graceful fallback taken is in
  :data:`~repro.chaos.supervise.DOCUMENTED_FALLBACKS` (enforced at the
  :func:`note_degradation` choke point; the campaign aggregates them).
- **Detected, never silent, corruption** — a journal bit-rot injection
  may legitimately end a run in ``detected_corruption`` (the CRC framing
  caught it); the same error *without* an injected rot is a violation.

MTTR (modeled seconds from failure to recovered session) is observed
into the ``chaos.mttr_seconds`` histogram, per triggering fault class.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from ..campaign.designs import (
    campaign_design,
    compile_design,
    launch_session,
)
from ..errors import (
    ChaosError,
    JournalCorruptError,
    ReproError,
)
from ..obs import get_registry
from .schedule import FaultRegistry, FaultSchedule, install_chaos
from .supervise import RETRIES, get_supervisor

#: Designs a default campaign exercises, and the only ones
#: :func:`script_for` has inputs for: a plain pipeline, the Cohort SoC,
#: and the multi-SLR cluster — the spread the crash-recovery fuzz suite
#: sweeps.
DEFAULT_DESIGNS = ("pipeline", "cohort", "manycore")

#: ``zoomie_clk`` at the MUT clock's rate (1:1), which is what
#: ``ZoomieProject.clocks_with_free_domain`` gives a launched project:
#: faults and recoveries are judged on the session a user would debug.
CLOCKS_MHZ = {"clk": 100.0, "zoomie_clk": 100.0}


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one campaign (all seeded — reruns reproduce exactly)."""

    schedules: int = 50
    seed: int = 2024
    designs: tuple = DEFAULT_DESIGNS
    #: Max specs per generated schedule.
    max_faults: int = 3
    #: Recoveries allowed per schedule/design run before the campaign
    #: declares the retry loop unbounded (a violation, not an error).
    max_recoveries: int = 8


@dataclass
class ScheduleOutcome:
    """One (schedule, design) run of the campaign."""

    design: str
    seed: int
    #: ``clean`` (no fault surfaced), ``recovered`` (>= 1 supervised
    #: recovery, converged), or ``detected_corruption`` (injected
    #: journal rot caught by the CRC framing — a legitimate terminal).
    outcome: str = "clean"
    faults_injected: int = 0
    recoveries: int = 0
    degradations: tuple = ()
    deadline_hits: int = 0
    mttr_seconds: tuple = ()
    violations: tuple = ()


@dataclass
class CampaignReport:
    """Aggregate of every schedule/design run."""

    config: CampaignConfig
    outcomes: list = field(default_factory=list)

    @property
    def violations(self) -> list:
        out = []
        for outcome in self.outcomes:
            out.extend(f"[{outcome.design} seed={outcome.seed}] {v}"
                       for v in outcome.violations)
        return out

    @property
    def passed(self) -> bool:
        return not self.violations

    def count(self, outcome: str) -> int:
        return sum(1 for o in self.outcomes if o.outcome == outcome)

    def mttr_by_class(self) -> dict:
        """Modeled MTTR samples grouped by triggering fault class."""
        registry = get_registry()
        out = {}
        prefix = "chaos.mttr_seconds."
        for name, metric in registry.as_dict().items():
            if name.startswith(prefix):
                out[name[len(prefix):]] = metric
        return out

    def describe(self) -> str:
        runs = len(self.outcomes)
        faults = sum(o.faults_injected for o in self.outcomes)
        recoveries = sum(o.recoveries for o in self.outcomes)
        mttrs = [m for o in self.outcomes for m in o.mttr_seconds]
        fallbacks: dict = {}
        for o in self.outcomes:
            for d in o.degradations:
                fallbacks[d.fallback] = fallbacks.get(d.fallback, 0) + 1
        lines = [
            f"chaos campaign: {self.config.schedules} schedule(s) x "
            f"{len(self.config.designs)} design(s) = {runs} run(s), "
            f"seed {self.config.seed}",
            f"  outcomes: {self.count('clean')} clean, "
            f"{self.count('recovered')} recovered, "
            f"{self.count('detected_corruption')} detected-corruption",
            f"  faults injected: {faults}; recoveries: {recoveries}; "
            f"deadline hits: "
            f"{sum(o.deadline_hits for o in self.outcomes)}",
        ]
        if mttrs:
            lines.append(
                f"  modeled MTTR: min {min(mttrs):.3f} s / "
                f"mean {sum(mttrs) / len(mttrs):.3f} s / "
                f"max {max(mttrs):.3f} s over {len(mttrs)} recover(ies)")
        for name in sorted(fallbacks):
            lines.append(f"  degradation {name}: x{fallbacks[name]}")
        if self.passed:
            lines.append("  invariants: all held")
        else:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"    {v}" for v in self.violations)
        return "\n".join(lines)


# --------------------------------------------------------------------------
# workload
# --------------------------------------------------------------------------


def script_for(name: str, compiled, seed: int) -> list:
    """A seeded script over every journaled verb, for one of
    :data:`DEFAULT_DESIGNS` (the crash-recovery fuzz suite and the
    doctor drive the same script, so failures cross-reference)."""
    import random
    rng = random.Random(seed)
    _, _, result = compiled
    registers = sorted(r for r in result.database.netlist.registers
                       if not r.startswith("zoomie_"))
    memories = sorted(result.database.memory_map)
    target = rng.choice(registers)
    inputs = {
        "cohort": [("en", 1)],
        "pipeline": [("in_valid", 1), ("in_data", rng.randrange(256)),
                     ("out_ready", 1)],
        "manycore": [("en", 1)],
    }[name]
    script = [("poke", pin, value) for pin, value in inputs]
    script += [
        ("run", 20 + rng.randrange(20)),
        ("pause",),
        ("snapshot", "first"),
        ("force", target, rng.randrange(1 << 4)),
        ("step", 1 + rng.randrange(4)),
    ]
    if memories:
        mem_name = memories[-1]
        mem = result.database.netlist.memories[mem_name]
        words = [rng.randrange(1 << min(mem.width, 16))
                 for _ in range(mem.depth)]
        script.append(("write_memory", mem_name, words))
    script += [
        ("snapshot", "second"),
        ("resume",),
        ("run", 10 + rng.randrange(10)),
        ("pause",),
    ]
    return script


def apply_step(debugger, step) -> None:
    """Run one :func:`script_for` step on ``debugger``."""
    verb, *args = step
    if verb == "poke":
        debugger.record_input(*args)
    elif verb == "run":
        debugger.run(max_cycles=args[0])
    elif verb == "pause":
        debugger.pause()
    elif verb == "resume":
        debugger.resume()
    elif verb == "snapshot":
        debugger.snapshot(args[0])
    elif verb == "force":
        debugger.force(*args)
    elif verb == "step":
        debugger.step(args[0])
    elif verb == "write_memory":
        debugger.write_memory(args[0], args[1])
    else:  # pragma: no cover
        raise ChaosError(f"unknown script verb {verb!r}", kind="campaign")


def _clean_key(compiled, script) -> str:
    """Final content key of an unfaulted run of ``script`` — the golden
    twin every faulted run must converge to."""
    _, debugger = launch_session(compiled)
    for step in script:
        apply_step(debugger, step)
    return debugger.engine.snapshot(label="clean-twin").content_key()


# --------------------------------------------------------------------------
# one faulted run
# --------------------------------------------------------------------------


def _fault_class(error: BaseException) -> str:
    kind = getattr(error, "kind", None)
    return kind if isinstance(kind, str) and kind \
        else type(error).__name__


def _injected(registry: FaultRegistry, site: str, kind: str) -> bool:
    return any(i.site == site and i.kind == kind
               for i in registry.injections)


def _run_schedule(name: str, compiled, script, clean_key: str,
                  schedule: FaultSchedule, workdir: Path,
                  config: CampaignConfig) -> ScheduleOutcome:
    from ..debug import enable_crash_safety

    sup = get_supervisor()
    sup.reset()
    metrics = get_registry()
    retries_before = metrics.counter("supervise.retries").value

    registry = schedule.registry()
    outcome = ScheduleOutcome(design=name, seed=schedule.seed)
    violations: list[str] = []
    mttrs: list[float] = []

    _, debugger = launch_session(compiled)
    enable_crash_safety(debugger, workdir)

    recoveries = 0
    with install_chaos(registry):
        index = 0
        while index < len(script):
            try:
                apply_step(debugger, script[index])
            except (ReproError, OSError) as error:
                recoveries += 1
                if recoveries > config.max_recoveries:
                    violations.append(
                        f"recovery loop unbounded: still failing after "
                        f"{config.max_recoveries} recoveries at step "
                        f"{index} ({error})")
                    break
                fault_class = _fault_class(error)
                recovered = _recover_once(compiled, workdir)
                if isinstance(recovered, JournalCorruptError):
                    if _injected(registry, "journal.sync", "bit_rot"):
                        # The injected rot damaged a durable record and
                        # the CRC framing caught it — detected, never
                        # silent, corruption is a documented terminal.
                        outcome.outcome = "detected_corruption"
                    else:
                        violations.append(
                            f"journal corruption without injected rot: "
                            f"{recovered}")
                    break
                if isinstance(recovered, BaseException):
                    # Recovery itself tripped another (bounded) fault;
                    # charge a recovery attempt and go again.
                    continue
                debugger, report = recovered
                mttrs.append(report.modeled_seconds)
                metrics.histogram("chaos.mttr_seconds").observe(
                    report.modeled_seconds)
                metrics.histogram(
                    f"chaos.mttr_seconds.{fault_class}").observe(
                    report.modeled_seconds)
                # Re-execute vs. skip: the journal is write-ahead, so if
                # the failed step's record went durable, replay already
                # re-executed it; otherwise the step never started.
                if report.records_total >= index + 1:
                    index += 1
                continue
            index += 1
        else:
            if not debugger.is_paused():
                debugger.pause()
            final = debugger.engine.snapshot(label="faulted-final")
            if final.content_key() != clean_key:
                violations.append(
                    f"faulted run diverged from clean twin: "
                    f"{final.content_key()[:12]} != {clean_key[:12]} "
                    f"after {recoveries} recover(ies)")
            if outcome.outcome == "clean" and (
                    recoveries or registry.faults_fired):
                outcome.outcome = "recovered"

    # Bounded-retry invariant: every supervised retry is chargeable to
    # an injected fault, each bounded by the per-op budget.
    retries = metrics.counter("supervise.retries").value - retries_before
    allowed = registry.faults_fired * RETRIES \
        + recoveries * len(script) * RETRIES
    if retries > allowed:
        violations.append(
            f"supervised retries unbounded: {retries} retries for "
            f"{registry.faults_fired} injected fault(s)")

    outcome.faults_injected = registry.faults_fired
    outcome.recoveries = recoveries
    outcome.degradations = tuple(sup.degradations)
    outcome.deadline_hits = len(sup.deadline_hits)
    outcome.mttr_seconds = tuple(mttrs)
    outcome.violations = tuple(violations)
    return outcome


def _recover_once(compiled, workdir):
    """One recovery attempt on a fresh session.

    Returns ``(debugger, report)`` on success, or the exception
    (chaos may fault the recovery itself — the caller charges it
    against the bounded recovery budget).
    """
    from ..debug import recover_session
    _, debugger = launch_session(compiled)
    try:
        report = recover_session(debugger, workdir)
    except (ReproError, OSError) as error:
        return error
    return debugger, report


# --------------------------------------------------------------------------
# the campaign
# --------------------------------------------------------------------------


def run_campaign(config: CampaignConfig, workdir,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> CampaignReport:
    """Run the full campaign; deterministic given ``config``.

    ``workdir`` holds the per-run crash-safety directories (wiped per
    run to bound disk use). Designs compile once; the unfaulted twin of
    each design's script runs once and its final content key anchors
    every faulted run's convergence check.
    """
    unknown = [d for d in config.designs if d not in DEFAULT_DESIGNS]
    if unknown:
        raise ChaosError(
            f"unknown campaign design(s) {unknown}; the script drives "
            f"{', '.join(DEFAULT_DESIGNS)}", kind="campaign")

    root = Path(workdir)
    root.mkdir(parents=True, exist_ok=True)
    report = CampaignReport(config=config)

    compiled = {}
    clean = {}
    scripts = {}
    for design in config.designs:
        compiled[design] = compile_design(campaign_design(design),
                                          CLOCKS_MHZ)
        scripts[design] = script_for(design, compiled[design],
                                     config.seed)
        # The twin runs unfaulted: whatever retries, repairs and
        # fallbacks a faulted run takes, its final state must equal the
        # twin's.
        clean[design] = _clean_key(compiled[design], scripts[design])
        if progress is not None:
            progress(f"compiled {design} "
                     f"(clean key {clean[design][:12]})")

    for number in range(config.schedules):
        schedule = FaultSchedule.generate(
            config.seed + number, max_faults=config.max_faults)
        for design in config.designs:
            rundir = root / f"s{number:04d}-{design}"
            if rundir.exists():
                shutil.rmtree(rundir)
            outcome = _run_schedule(
                design, compiled[design], scripts[design],
                clean[design], schedule, rundir, config)
            report.outcomes.append(outcome)
            shutil.rmtree(rundir, ignore_errors=True)
        if progress is not None and (number + 1) % 10 == 0:
            progress(f"schedule {number + 1}/{config.schedules}: "
                     f"{report.count('clean')} clean / "
                     f"{report.count('recovered')} recovered / "
                     f"{report.count('detected_corruption')} "
                     f"detected")
    return report
