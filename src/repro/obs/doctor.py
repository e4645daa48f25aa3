"""``zoomie doctor``: run a seeded workload, judge it with the SLOs.

The health rules (:mod:`.health`) can judge any live registry; this
module gives CI and operators a *self-contained* verdict: compile the
campaign table's pipeline design at the chaos campaign's clock map,
drive the chaos campaign's seeded debugger script over it, then
evaluate the SLO rules over a metrics window scoped to exactly that
workload (so a long-lived process's history cannot contaminate the
verdict).

Run as a module (the ``zoomie doctor`` entry point for scripts/CI)::

    PYTHONPATH=src python -m repro.obs.doctor --json
    PYTHONPATH=src python -m repro.obs.doctor --json --chaos-seed 7

Exit status is the health verdict: 0 when the workload meets every
fail-severity SLO, 1 when degraded — with ``--chaos-seed`` a seeded
:class:`~repro.chaos.schedule.FaultSchedule` (channel bit-flips plus a
device hang) is installed for the workload, which deterministically
pushes the transport retry rate over its objective; CI asserts the
clean run exits 0 and the chaos run exits nonzero, naming the rule.
Both ``--json`` reports are deterministic, and CI diffs them against
``tests/fixtures/doctor/``. It runs each in a fresh process, because a
window's histogram quantiles clamp to the whole process's min/max.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .health import HealthReport, MetricsWindow, evaluate
from .metrics import MetricsRegistry

__all__ = ["DoctorResult", "main", "run_doctor"]

#: Channel read-flip probability the chaos run injects: high enough
#: that the ~dozens-of-batches workload reliably exceeds the 10%
#: retry-rate SLO, low enough that bounded retries still converge.
CHAOS_READ_FLIP_RATE = 0.3
#: Fire bound on those flips (the workload never reaches it).
CHAOS_READ_FLIPS = 64


class DoctorResult:
    """The health report plus what produced it."""

    def __init__(self, report: HealthReport, workload: dict):
        self.report = report
        self.workload = workload

    @property
    def exit_code(self) -> int:
        return self.report.exit_code

    def as_dict(self) -> dict:
        data = self.report.as_dict()
        data["workload"] = self.workload
        return data

    def describe(self) -> str:
        w = self.workload
        chaos = (f"chaos seed {w['chaos_seed']}, "
                 f"{w['faults_injected']} fault(s) injected"
                 if w.get("chaos_seed") is not None else "no chaos")
        return (f"doctor: {w['design']} workload, seed {w['seed']}, "
                f"{w['commands']} command(s), {w['errors']} surfaced "
                f"error(s), {chaos}\n" + self.report.describe())


def _run_workload(seed: int, chaos_seed: Optional[int]) -> dict:
    """Drive the seeded pipeline workload; returns workload facts.

    Deferred imports throughout — the debugger stack imports
    :mod:`repro.obs`, so the doctor (the only obs module that needs
    the stack) loads it lazily, mirroring the chaos campaign.
    """
    from ..campaign.designs import (
        campaign_design,
        compile_design,
        launch_session,
    )
    from ..chaos.campaign import CLOCKS_MHZ, apply_step, script_for
    from ..chaos.schedule import FaultSchedule, FaultSpec, install_chaos
    from ..errors import ReproError

    compiled = compile_design(campaign_design("pipeline"), CLOCKS_MHZ)
    script = script_for("pipeline", compiled, seed)
    _, debugger = launch_session(compiled)

    schedule = None
    if chaos_seed is not None:
        schedule = FaultSchedule(seed=chaos_seed, specs=[
            FaultSpec(site="transport.batch", kind="device_hang", at=2),
            FaultSpec(site="transport.batch", kind="read_flip",
                      rate=CHAOS_READ_FLIP_RATE, count=CHAOS_READ_FLIPS),
        ])

    commands = 0
    errors = 0

    def drive(registry=None):
        nonlocal commands, errors
        steps = list(script)
        # Extra readback rounds: enough verified batches that the
        # ratio rules clear their min-sample floors.
        extra = [("resume",), ("run", 40), ("pause",)]
        for step in steps + extra * 3:
            try:
                apply_step(debugger, step)
                if debugger.is_paused():
                    debugger.read_state()
            except ReproError:
                # Doctor keeps driving a degraded session: the verdict
                # comes from the SLO rules, not the first failure.
                errors += 1
            commands += 1

    faults_injected = 0
    if schedule is not None:
        registry = schedule.registry()
        with install_chaos(registry):
            drive()
        faults_injected = registry.faults_fired
    else:
        drive()
    return {
        "design": "pipeline",
        "seed": seed,
        "chaos_seed": chaos_seed,
        "commands": commands,
        "errors": errors,
        "faults_injected": faults_injected,
    }


def run_doctor(seed: int = 2024, chaos_seed: Optional[int] = None,
               registry: Optional[MetricsRegistry] = None
               ) -> DoctorResult:
    """Seeded workload + windowed health evaluation."""
    window = MetricsWindow(registry, rebase=True)  # scope to the run
    workload = _run_workload(seed, chaos_seed)
    return DoctorResult(evaluate(window), workload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zoomie doctor",
        description="seeded debug workload + SLO health verdict")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    parser.add_argument("--seed", type=int, default=2024,
                        help="workload script seed")
    parser.add_argument("--chaos-seed", type=int, default=None,
                        help="install a seeded FaultSchedule for the "
                             "workload (expect a degraded verdict)")
    args = parser.parse_args(argv)
    result = run_doctor(seed=args.seed, chaos_seed=args.chaos_seed)
    if args.json:
        print(json.dumps(result.as_dict(), indent=1, default=repr))
    else:
        print(result.describe())
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
