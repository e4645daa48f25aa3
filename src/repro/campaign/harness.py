"""The automated debug-campaign harness.

For every mutant in a seeded corpus the harness drives the full Zoomie
workflow end-to-end:

1. **Detect** — K-lane :class:`~repro.rtl.batch.BatchSimulator` golden
   diffing under seeded stimulus (:func:`~repro.rtl.mutate
   .differential_probe`), exact to the cycle.
2. **Classify** — undetected mutants get a longer, differently-seeded
   full-state probe; only mutants that survive *that* are called
   ``equivalent`` (no silent no-op mutants inflate detection rates).
3. **Localize** — detected mutants are instrumented, compiled, and
   debugged on the fabric: SVA breakpoints, snapshot bisection over
   cycles, and readback diffing against the golden simulator
   (:mod:`repro.campaign.localize`), with crash safety attached so a
   dead host resumes via :func:`repro.debug.recover_session`.
4. **Score** — localization accuracy as signal distance (dataflow BFS
   hops from the injected site) and cycle distance (bisected cycle vs.
   the detection divergence cycle), plus modeled debug seconds.

Reports are deliberately wall-clock-free and serialized with sorted
keys: the same config byte-reproduces the same JSON, which is what the
determinism gate (and the crash-resume bit-identity test) check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..errors import CampaignError, SessionCrashedError
from ..obs import get_registry
from ..rtl.mutate import (
    OPERATORS,
    Divergence,
    Mutant,
    default_stimulus,
    differential_probe,
    generate_mutants,
)
from .designs import (
    campaign_design,
    compile_design,
    golden_netlist,
    launch_session,
)
from .localize import (
    GoldenReplay,
    localize_attempt,
    signal_distance,
    signal_graph,
)

#: Accuracy tolerance: a localization within this many dataflow hops
#: and cycles of the injected site counts as accurate (ISSUE 10).
TOLERANCE_SIGNALS = 2
TOLERANCE_CYCLES = 16

#: Mutants compile with ``zoomie_clk`` at ten times the MUT clock
#: (10:1): every committed report was made at this map, and it keeps
#: the multi-rate run path measured (the only seeded workload on it).
CLOCKS_MHZ = {"clk": 100.0, "zoomie_clk": 1000.0}


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one campaign; every field is part of the seeded
    identity."""

    designs: tuple = ("cohort",)
    mutants: int = 25
    seed: int = 7
    operators: tuple = OPERATORS
    lanes: int = 8
    detect_cycles: int = 192
    probe_cycles: int = 512
    chunk: int = 16
    sva_budget: int = 96
    #: Retries after a mid-mutant host crash before giving up.
    max_recoveries: int = 3

    def as_dict(self) -> dict:
        return {
            "designs": list(self.designs),
            "mutants": self.mutants,
            "seed": self.seed,
            "operators": list(self.operators),
            "lanes": self.lanes,
            "detect_cycles": self.detect_cycles,
            "probe_cycles": self.probe_cycles,
            "chunk": self.chunk,
            "sva_budget": self.sva_budget,
        }


@dataclass
class MutantOutcome:
    """One mutant's run through the whole pipeline."""

    mutant_id: str
    design: str
    operator: str
    site: str
    seed: int
    anchor: str
    #: ``detected`` / ``equivalent`` / ``undetected``.
    status: str
    detect: Optional[dict] = None
    localize: Optional[dict] = None

    def as_dict(self) -> dict:
        return {
            "id": self.mutant_id,
            "design": self.design,
            "operator": self.operator,
            "site": self.site,
            "seed": self.seed,
            "anchor": self.anchor,
            "status": self.status,
            "detect": self.detect,
            "localize": self.localize,
        }


@dataclass
class CampaignReport:
    """Aggregate over every mutant of every design."""

    config: CampaignConfig
    outcomes: list = field(default_factory=list)

    def _counts(self) -> dict:
        counts = {"detected": 0, "equivalent": 0, "undetected": 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def detection_rate(self) -> float:
        """Detected fraction of non-equivalent mutants."""
        counts = self._counts()
        fallible = counts["detected"] + counts["undetected"]
        return counts["detected"] / fallible if fallible else 1.0

    @property
    def localization_accuracy(self) -> float:
        """Fraction of detected mutants localized within tolerance."""
        localized = [o for o in self.outcomes if o.status == "detected"]
        if not localized:
            return 1.0
        good = sum(1 for o in localized
                   if o.localize and o.localize["within_tolerance"])
        return good / len(localized)

    @property
    def modeled_debug_seconds(self) -> list:
        return sorted(o.localize["modeled_seconds"] for o in self.outcomes
                      if o.localize)

    @property
    def median_modeled_debug_seconds(self) -> float:
        samples = self.modeled_debug_seconds
        if not samples:
            return 0.0
        mid = len(samples) // 2
        if len(samples) % 2:
            return samples[mid]
        return round((samples[mid - 1] + samples[mid]) / 2, 6)

    def as_dict(self) -> dict:
        counts = self._counts()
        return {
            "config": self.config.as_dict(),
            "mutants": [o.as_dict() for o in self.outcomes],
            "summary": {
                "total": len(self.outcomes),
                "detected": counts["detected"],
                "equivalent": counts["equivalent"],
                "undetected": counts["undetected"],
                "detection_rate": round(self.detection_rate, 4),
                "localization_accuracy": round(
                    self.localization_accuracy, 4),
                "median_modeled_debug_seconds":
                    self.median_modeled_debug_seconds,
                "tolerance": {"signals": TOLERANCE_SIGNALS,
                              "cycles": TOLERANCE_CYCLES},
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def describe(self) -> str:
        counts = self._counts()
        lines = [
            f"debug campaign: {len(self.outcomes)} mutant(s) over "
            f"{', '.join(self.config.designs)} (seed {self.config.seed})",
            f"  detected {counts['detected']} / equivalent "
            f"{counts['equivalent']} / undetected {counts['undetected']} "
            f"-> detection rate {self.detection_rate:.0%} of "
            f"non-equivalent",
            f"  localization accuracy {self.localization_accuracy:.0%} "
            f"within {TOLERANCE_SIGNALS} signals / "
            f"{TOLERANCE_CYCLES} cycles",
        ]
        samples = self.modeled_debug_seconds
        if samples:
            lines.append(
                f"  modeled debug time per localization: median "
                f"{self.median_modeled_debug_seconds:.3f} s "
                f"(min {samples[0]:.3f} / max {samples[-1]:.3f})")
        for outcome in self.outcomes:
            if outcome.status != "detected" or not outcome.localize:
                continue
            loc = outcome.localize
            lines.append(
                f"    {outcome.mutant_id}: cycle {loc['cycle']} "
                f"{','.join(loc['signals'][:2])} "
                f"(d_sig={loc['signal_distance']}, "
                f"d_cyc={loc['cycle_distance']})")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# the harness
# --------------------------------------------------------------------------

def _poke_closure(golden, design, config):
    """A per-lane stimulus poker bound to the campaign seed."""
    widths = {name: golden.signals[name] for name in golden.inputs}

    def stimulus(lane: int, chunk_index: int) -> dict:
        return default_stimulus(widths, config.seed, lane, chunk_index,
                                design.bias)
    return stimulus


def _localize(design, config, mutant: Mutant, detect: Divergence,
              golden, workdir: Path) -> dict:
    """Compile, launch, and localize one detected mutant with crash
    safety attached; recovers and retries on modeled host death."""
    from ..debug import enable_crash_safety, recover_session

    registry = get_registry()
    stimulus = _poke_closure(golden, design, config)
    lane = detect.lane

    def poke(debugger, chunk_index: int) -> None:
        for name, value in stimulus(lane, chunk_index).items():
            debugger.record_input(name, value)

    def golden_stimulus(chunk_index: int) -> dict:
        return stimulus(lane, chunk_index)

    compiled = compile_design(design, CLOCKS_MHZ, mutant.netlist)
    session_dir = workdir / mutant.mutant_id.replace("/", "_")\
                                            .replace(":", "_")
    _, debugger = launch_session(compiled)
    enable_crash_safety(debugger, session_dir)

    replay = GoldenReplay(golden, golden_stimulus, config.chunk)
    shared: dict = {}
    attempts = 0
    while True:
        try:
            if attempts:
                # The dead session's fabric is gone; recover onto a
                # fresh one from the journal and redo the attempt from
                # cycle 0. Recovery can die too: that counts as well.
                _, debugger = launch_session(compiled)
                recover_session(debugger, session_dir)
            result = localize_attempt(debugger, replay, detect,
                                      config.chunk, config.sva_budget,
                                      poke, shared)
            break
        except SessionCrashedError:
            attempts += 1
            registry.counter("campaign.recoveries").inc()
            if attempts > config.max_recoveries:
                raise CampaignError(
                    f"mutant {mutant.mutant_id} kept crashing past "
                    f"{config.max_recoveries} recoveries")

    adjacency = signal_graph(golden)
    anchor = mutant.site.anchor
    distances = [signal_distance(adjacency, name, anchor)
                 for name in result["signals"]]
    result["signal_distance"] = min(distances) if distances else None
    result["cycle_distance"] = abs(result["cycle"] - detect.cycle)
    result["within_tolerance"] = bool(
        distances
        and result["signal_distance"] <= TOLERANCE_SIGNALS
        and result["cycle_distance"] <= TOLERANCE_CYCLES)

    registry.histogram("campaign.localize_probes").observe(
        result["probes"])
    registry.histogram("campaign.modeled_debug_seconds").observe(
        result["modeled_seconds"])
    registry.histogram("campaign.signal_distance").observe(
        result["signal_distance"])
    registry.histogram("campaign.cycle_distance").observe(
        result["cycle_distance"])
    if result["within_tolerance"]:
        registry.counter("campaign.localized_within_tolerance").inc()
    return result


def run_debug_campaign(config: CampaignConfig,
                       workdir=None) -> CampaignReport:
    """Run the full campaign described by ``config``.

    ``workdir`` roots the per-mutant crash-safety journals; omitted, a
    temporary directory is used and discarded.
    """
    if workdir is None:
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            return run_debug_campaign(config, tmp)

    registry = get_registry()
    report = CampaignReport(config=config)
    root = Path(workdir)
    for design_name in config.designs:
        design = campaign_design(design_name)
        golden = golden_netlist(design)
        mutants = generate_mutants(golden, design_name, config.mutants,
                                   config.seed, config.operators)
        for mutant in mutants:
            registry.counter("campaign.mutants").inc()
            detect = differential_probe(
                golden, mutant.netlist, seed=config.seed,
                cycles=config.detect_cycles, lanes=config.lanes,
                chunk=config.chunk, bias=design.bias, exact=True)
            outcome = MutantOutcome(
                mutant_id=mutant.mutant_id, design=design_name,
                operator=mutant.operator, site=mutant.site.key,
                seed=mutant.seed, anchor=mutant.site.anchor,
                status="detected")
            if detect is None:
                probe = differential_probe(
                    golden, mutant.netlist,
                    seed=f"equiv:{config.seed}",
                    cycles=config.probe_cycles, lanes=config.lanes,
                    chunk=config.chunk, bias=design.bias)
                outcome.status = "undetected" if probe else "equivalent"
                registry.counter(f"campaign.{outcome.status}").inc()
                report.outcomes.append(outcome)
                continue
            registry.counter("campaign.detected").inc()
            registry.histogram("campaign.detect_cycles").observe(
                detect.cycle)
            outcome.detect = {
                "cycle": detect.cycle,
                "lane": detect.lane,
                "signal": detect.signal,
            }
            outcome.localize = _localize(design, config, mutant, detect,
                                         golden, root)
            report.outcomes.append(outcome)
    return report


def verify_equivalents(config: CampaignConfig, report: CampaignReport,
                       factor: int = 4) -> list:
    """Cross-examine every ``equivalent`` verdict with a ``factor``-times
    longer, differently-seeded probe; returns misclassified mutant ids.

    CI gates on this returning an empty list — an equivalence verdict
    that a deeper probe can overturn means the corpus would silently
    under-count real bugs.
    """
    equivalents: dict = {}
    for outcome in report.outcomes:
        if outcome.status == "equivalent":
            equivalents.setdefault(outcome.design, set()).add(
                outcome.mutant_id)
    misclassified = []
    for design_name, wanted in sorted(equivalents.items()):
        design = campaign_design(design_name)
        golden = golden_netlist(design)
        mutants = generate_mutants(golden, design_name, config.mutants,
                                   config.seed, config.operators)
        for mutant in mutants:
            if mutant.mutant_id not in wanted:
                continue
            probe = differential_probe(
                golden, mutant.netlist,
                seed=f"verify:{config.seed}",
                cycles=config.probe_cycles * factor,
                lanes=config.lanes, chunk=config.chunk,
                bias=design.bias)
            if probe is not None:
                misclassified.append(mutant.mutant_id)
    return misclassified
