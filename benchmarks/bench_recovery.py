"""Crash-recovery cost: journal length x checkpoint cadence.

Crash-safe sessions pay a little at runtime (write-ahead journaling,
optional auto-checkpoints) and the rest at recovery time (restore the
last verified checkpoint, replay the journal suffix). This bench
measures the recovery side: wall-clock and modeled JTAG seconds to
rebuild a killed session as the journal grows, and how checkpoint
cadence caps the replayed suffix — the knob that turns O(history)
recovery into O(cadence).
"""

import time

from conftest import emit, emit_table, record_bench


def drive(debugger, blocks):
    """A deterministic stream of 5 journaled commands per block."""
    debugger.record_input("en", 1)
    for index in range(blocks):
        debugger.run(8)
        debugger.pause()
        debugger.force("bus.held", index % 4)
        debugger.step(2)
        debugger.resume()
    debugger.pause()


def test_recovery_cost_vs_journal_and_cadence(benchmark, tmp_path):
    from repro.campaign.designs import (
        campaign_design,
        compile_design,
        launch_session,
    )
    from repro.debug import enable_crash_safety, recover_session

    # The campaign table's Cohort with zoomie_clk at 10:1, the map this
    # grid has always run at, so its recorded modeled seconds compare.
    compiled = compile_design(campaign_design("cohort"),
                              {"clk": 100.0, "zoomie_clk": 1000.0})
    grid = [(blocks, cadence)
            for blocks in (4, 16, 64)
            for cadence in (None, 10, 25)]

    rows = []
    points = []
    benchmarked = False
    for blocks, cadence in grid:
        workdir = tmp_path / f"b{blocks}-c{cadence}"
        _, victim = launch_session(compiled)
        enable_crash_safety(victim, workdir, checkpoint_every=cadence)
        drive(victim, blocks)
        # The process "dies" here: the session object is abandoned and
        # recovery works purely off the on-disk journal + store.

        def recover():
            _, debugger = launch_session(compiled)
            return recover_session(debugger, workdir)

        if not benchmarked:
            report = benchmark.pedantic(recover, rounds=1, iterations=1)
            benchmarked = True
            wall = report.wall_seconds
        else:
            start = time.monotonic()
            report = recover()
            wall = time.monotonic() - start
        base = ("full replay" if report.base_index is None
                else f"record #{report.base_index}")
        rows.append([
            f"{report.records_total}",
            "-" if cadence is None else f"{cadence}",
            base,
            f"{report.commands_replayed}",
            f"{report.modeled_seconds:.3f}s",
            f"{wall:.3f}s",
        ])
        points.append({
            "journal_records": report.records_total,
            "cadence": cadence,
            "base_index": report.base_index,
            "commands_replayed": report.commands_replayed,
            "modeled_seconds": report.modeled_seconds,
            "wall_seconds": wall,
        })

    record_bench("recovery", {"design": "cohort-soc", "grid": points})
    emit_table(
        "Recovery cost vs journal length and checkpoint cadence "
        "(cohort SoC, killed after the full command stream)",
        ["journal records", "cadence", "recovery base",
         "commands replayed", "modeled JTAG", "wall"],
        rows)
    emit("Without checkpoints recovery replays the whole history; "
         "with a cadence of N it replays at most ~N commands plus one "
         "checksummed snapshot restore, independent of session length.")
