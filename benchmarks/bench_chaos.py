"""Chaos-campaign benchmark and the clean-path supervision gate.

Two promises are pinned here, mirroring the observability bench:

- **Supervision is near-free when nothing is failing.** The fault-point
  hooks and the supervisor's bookkeeping sit on the journal-sync and
  verified-transport hot paths permanently; with no schedule installed
  and no faults firing, enabling supervision may cost at most
  :data:`OVERHEAD_CEILING` (3%) over the unsupervised path. This is the
  CI gate.
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

#: CI gate: supervision with *no* faults firing may slow a hot path by
#: at most this fraction over the unsupervised path.
OVERHEAD_CEILING = 0.03

#: Journal appends per timed call — batch granularity, same reasoning
#: as the observability bench's STEP_BATCH.
APPEND_BATCH = 50

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


def test_supervision_clean_path_overhead_and_campaign(tmp_path):
    from repro.chaos import SuperviseConfig, get_supervisor
    from repro.chaos.campaign import CampaignConfig, run_campaign
    from repro.debug.journal import CommandJournal

    sup = get_supervisor()
    sup.disable()
    sup.reset()
    config = SuperviseConfig()

    # -- journal sync hot path ----------------------------------------
    journal = CommandJournal(tmp_path / "bench.log")

    def unsupervised_appends():
        sup.disable()
        for _ in range(APPEND_BATCH):
            journal.append("pause")

    def supervised_appends():
        sup.enable(config)
        for _ in range(APPEND_BATCH):
            journal.append("pause")

    (j_base, j_sup), j_samples = _interleaved(
        [unsupervised_appends, supervised_appends], reps=15, calls=3)
    sup.disable()
    journal_overhead = _median_overhead(j_samples[0], j_samples[1])

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

    def unsupervised_batch():
        transport.breaker = None
        transport.run(words)

    def supervised_batch():
        transport.breaker = breaker
        transport.run(words)

    (t_base, t_sup), t_samples = _interleaved(
        [unsupervised_batch, supervised_batch], reps=40, calls=3)
    transport.breaker = None
    transport_overhead = _median_overhead(t_samples[0], t_samples[1])

    # -- the campaign itself ------------------------------------------
    campaign = CampaignConfig(schedules=SCHEDULES, seed=2024)
    report = run_campaign(campaign, tmp_path / "campaign",
                          progress=emit)
    mttr = report.mttr_by_class()

    emit_table(
        "Clean-path supervision overhead (interleaved; times are "
        "min-of-reps, overheads are median paired ratios)",
        ["path", "unsupervised", "supervised", "overhead"],
        [["journal sync x%d" % APPEND_BATCH,
          f"{j_base * 1e3:.2f}ms", f"{j_sup * 1e3:.2f}ms",
          f"{journal_overhead * 100:+.2f}%"],
         ["transport batch",
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
        "overhead": {
            "journal_append_batch": APPEND_BATCH,
            "journal_unsupervised_seconds": j_base,
            "journal_supervised_seconds": j_sup,
            "journal_overhead": journal_overhead,
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
    assert journal_overhead < OVERHEAD_CEILING, (
        f"supervision costs {journal_overhead:.1%} on the journal-sync "
        f"path with no faults firing (ceiling {OVERHEAD_CEILING:.0%})")
    assert transport_overhead < OVERHEAD_CEILING, (
        f"supervision costs {transport_overhead:.1%} on the transport "
        f"batch path with no faults firing "
        f"(ceiling {OVERHEAD_CEILING:.0%})")
