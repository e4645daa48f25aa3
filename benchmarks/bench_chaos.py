"""Chaos-campaign benchmark and the clean-path breaker gate.

Two promises are pinned here, mirroring the observability bench:

- **A circuit breaker is near-free when nothing is failing.** Whether
  a fabric's transport carries a breaker is a per-fabric choice (the
  chaos campaign attaches one); with no schedule installed and no
  faults firing, a transport batch through a breaker may cost at most
  :data:`OVERHEAD_CEILING` (3%) over the same batch without one. This
  is the CI gate. Supervision itself is always on, so the journal-sync
  path has no unsupervised twin to time here; the e2e
  ``cohort_crash_recover`` workload times every journal append and
  sync under its ``wall_s`` bound.
- **Adversity is bounded and measured.** A full campaign
  (``ZOOMIE_CHAOS_SCHEDULES`` randomized schedules, default 50, across
  three designs) must hold every differential invariant — zero hangs,
  bounded retries, bit-identical recovered state — and its modeled
  mean-time-to-recovery is reported per fault class.

Results history lands in ``BENCH_chaos.json`` (``record_bench``
schema); CI uploads it as an artifact on every push.

No ``benchmark`` fixture on purpose: this file must run under plain
pytest, with no plugin installed.
"""

import os

from bench_obs_overhead import _interleaved, _median_overhead
from conftest import emit, emit_table, record_bench

#: CI gate: a breaker with *no* faults firing may slow a transport
#: batch by at most this fraction over the same batch without one.
OVERHEAD_CEILING = 0.03

SCHEDULES = int(os.environ.get("ZOOMIE_CHAOS_SCHEDULES", "50"))


def _launch():
    from repro import Zoomie, ZoomieProject
    from repro.designs import make_cohort_soc

    project = ZoomieProject(
        design=make_cohort_soc(with_bug=False), device="TEST2",
        clocks={"clk": 100.0}, watch=["issued"])
    session = Zoomie(project).launch()
    session.poke_input("en", 1)
    return session


def test_breaker_clean_path_overhead_and_campaign(tmp_path):
    from repro.chaos import get_supervisor
    from repro.chaos.campaign import CampaignConfig, run_campaign

    sup = get_supervisor()
    sup.reset()

    # -- verified-transport batch path --------------------------------
    session = _launch()
    transport = session.fabric.transport
    session.debugger.pause()

    captured = []
    body = transport._run_verified
    transport._run_verified = lambda words: (
        captured.append(list(words)) or body(words))
    session.debugger.read_state()
    transport._run_verified = body
    words = max(captured, key=len)

    fabric = session.fabric
    breaker = sup.make_breaker(lambda: fabric.jtag.total_seconds,
                               name="bench")

    def batch_without_breaker():
        transport.breaker = None
        transport.run(words)

    def batch_with_breaker():
        transport.breaker = breaker
        transport.run(words)

    (t_base, t_sup), t_samples = _interleaved(
        [batch_without_breaker, batch_with_breaker], reps=40, calls=3)
    transport.breaker = None
    transport_overhead = _median_overhead(t_samples[0], t_samples[1])

    # -- the campaign itself ------------------------------------------
    campaign = CampaignConfig(schedules=SCHEDULES, seed=2024)
    report = run_campaign(campaign, tmp_path / "campaign",
                          progress=emit)
    mttr = report.mttr_by_class()

    emit_table(
        "Clean-path breaker overhead (interleaved; times are "
        "min-of-reps, the overhead is the median paired ratio)",
        ["path", "no breaker", "breaker", "overhead"],
        [["transport batch",
          f"{t_base * 1e3:.2f}ms", f"{t_sup * 1e3:.2f}ms",
          f"{transport_overhead * 100:+.2f}%"]])
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
        # The transport keys keep their names so the history stays
        # comparable: "unsupervised" is the batch without a breaker,
        # "supervised" the batch with one.
        "overhead": {
            "transport_batch_words": len(words),
            "transport_unsupervised_seconds": t_base,
            "transport_supervised_seconds": t_sup,
            "transport_overhead": transport_overhead,
        },
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
    assert transport_overhead < OVERHEAD_CEILING, (
        f"a breaker costs {transport_overhead:.1%} on the transport "
        f"batch path with no faults firing "
        f"(ceiling {OVERHEAD_CEILING:.0%})")
