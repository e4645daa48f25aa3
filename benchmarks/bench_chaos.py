"""Chaos-campaign benchmark: every invariant held, MTTR measured.

A full campaign (``ZOOMIE_CHAOS_SCHEDULES`` randomized schedules,
default 50, across three designs) must hold every differential
invariant — zero hangs, bounded retries, bit-identical recovered state
— and its modeled mean-time-to-recovery is reported per fault class.

No clean-path timing gate lives here. Supervision is always on and a
transport batch has one path, so there is no twin to time against;
the e2e workloads time both paths under their 25% ``wall_s`` bound
instead: ``cohort_session`` every transport batch (``config.transport``
is 31.9% of its traced time) and ``cohort_crash_recover`` every journal
append and sync.

Results history lands in ``BENCH_chaos.json`` (``record_bench``
schema); CI uploads it as an artifact.

No ``benchmark`` fixture on purpose: this file must run under plain
pytest, with no plugin installed.
"""

import os

from conftest import emit, emit_table, record_bench

SCHEDULES = int(os.environ.get("ZOOMIE_CHAOS_SCHEDULES", "50"))


def test_campaign_holds_every_invariant(tmp_path):
    from repro.chaos.campaign import CampaignConfig, run_campaign

    campaign = CampaignConfig(schedules=SCHEDULES, seed=2024)
    report = run_campaign(campaign, tmp_path / "campaign",
                          progress=emit)
    mttr = report.mttr_by_class()

    emit(f"Campaign: {len(report.outcomes)} runs "
         f"({SCHEDULES} schedules x {len(campaign.designs)} designs) — "
         f"{report.count('clean')} clean, "
         f"{report.count('recovered')} recovered, "
         f"{report.count('detected_corruption')} detected-corruption, "
         f"{len(report.violations)} violations")
    if mttr:
        emit_table(
            "Modeled mean-time-to-recovery by fault class",
            ["fault class", "recoveries", "mean MTTR", "max MTTR"],
            [[name, str(h["count"]), f"{h['mean']:.3f}s",
              f"{h['max']:.3f}s"] for name, h in sorted(mttr.items())])

    record_bench("chaos", {
        "campaign": {
            "schedules": SCHEDULES,
            "designs": list(campaign.designs),
            "runs": len(report.outcomes),
            "clean": report.count("clean"),
            "recovered": report.count("recovered"),
            "detected_corruption": report.count("detected_corruption"),
            "violations": len(report.violations),
            "faults_injected": sum(o.faults_injected
                                   for o in report.outcomes),
            "recoveries": sum(o.recoveries for o in report.outcomes),
            "deadline_hits": sum(o.deadline_hits
                                 for o in report.outcomes),
            "mttr_by_class": {name: {"count": h["count"],
                                     "mean": h["mean"], "max": h["max"]}
                              for name, h in sorted(mttr.items())},
        },
    })

    assert report.passed, "\n".join(report.violations)
