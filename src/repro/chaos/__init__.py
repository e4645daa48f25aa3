"""Stack-wide fault injection, supervision, and chaos campaigns.

Three cooperating pieces (see the module docstrings for depth):

- :mod:`.schedule` — seeded :class:`FaultSchedule` / :class:`FaultRegistry`
  and the :func:`fault_point` hook instrumented code calls. This is the
  only way to inject a fault anywhere in the stack: disk I/O, the
  fabric, the JTAG channel, and host death. Arm a schedule for a block
  with :func:`install_chaos`;
- :mod:`.supervise` — modeled-seconds deadlines and bounded retries,
  always on for every session, and the asserted graceful-degradation
  table;
- :mod:`.campaign` — the automated harness that replays one seeded
  debugger script on designs from :mod:`repro.campaign.designs` under
  randomized schedules and checks the differential invariants.

``campaign`` imports the debugger stack, which in turn imports this
package, so it is exposed lazily to keep the fault-point hook free of
import cycles.
"""

from .schedule import (
    KINDS,
    SITE_KINDS,
    Fault,
    FaultRegistry,
    FaultSchedule,
    FaultSpec,
    Injection,
    chaos_active,
    fault_point,
    install_chaos,
    sites_for_kind,
)
from .supervise import (
    DOCUMENTED_FALLBACKS,
    Degradation,
    Supervisor,
    get_supervisor,
    modeled_io_seconds,
    note_degradation,
    run_io,
)

__all__ = [
    "KINDS", "SITE_KINDS", "Fault", "FaultRegistry", "FaultSchedule",
    "FaultSpec", "Injection", "chaos_active", "fault_point",
    "install_chaos", "sites_for_kind",
    "DOCUMENTED_FALLBACKS", "Degradation", "Supervisor",
    "get_supervisor",
    "modeled_io_seconds", "note_degradation", "run_io",
    "CampaignConfig", "CampaignReport", "ScheduleOutcome",
    "run_campaign",
]

_CAMPAIGN_NAMES = {
    "CampaignConfig", "CampaignReport", "ScheduleOutcome", "run_campaign",
}


def __getattr__(name: str):
    if name in _CAMPAIGN_NAMES:
        from . import campaign
        return getattr(campaign, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
