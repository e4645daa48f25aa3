"""Automated debug campaigns over a seeded RTL mutation corpus.

A campaign takes a stock design, derives reproducible buggy variants
with :mod:`repro.rtl.mutate`, and drives the full Zoomie debugger over
each one — batched golden diffing to detect, SVA breakpoints plus
snapshot bisection plus readback diffing to localize — then scores how
accurately (and at what modeled debug-time cost) the tool pinned each
injected bug. Reports are deterministic: same seed, same bytes.

- :mod:`designs` — the one table of campaign designs (the chaos
  campaign and the doctor use it too) and how they are built,
  instrumented, compiled, and launched.
- :mod:`localize` — one mutant's localization workflow and the
  signal-distance accuracy metric.
- :mod:`harness` — corpus generation, detection/equivalence triage,
  crash-safe orchestration, and the JSON report.

Run from the CLI (``zoomie campaign run --design cohort --mutants 25
--seed 7 --json``) or as a module (``python -m repro.campaign``).
"""

from .designs import (
    DESIGN_NAMES,
    CampaignDesign,
    campaign_design,
    compile_design,
    golden_netlist,
    launch_session,
)
from .harness import (
    TOLERANCE_CYCLES,
    TOLERANCE_SIGNALS,
    CampaignConfig,
    CampaignReport,
    MutantOutcome,
    run_debug_campaign,
    verify_equivalents,
)
from .localize import (
    GoldenReplay,
    localize_attempt,
    signal_distance,
    signal_graph,
    state_diff,
)

__all__ = [
    "CampaignConfig",
    "CampaignDesign",
    "CampaignReport",
    "DESIGN_NAMES",
    "GoldenReplay",
    "MutantOutcome",
    "TOLERANCE_CYCLES",
    "TOLERANCE_SIGNALS",
    "campaign_design",
    "compile_design",
    "golden_netlist",
    "launch_session",
    "localize_attempt",
    "run_debug_campaign",
    "signal_distance",
    "signal_graph",
    "state_diff",
    "verify_equivalents",
]
