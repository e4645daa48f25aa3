"""Real-machine measurement: bit-parallel batched simulation throughput.

The batching tentpole packs K independent runs into one set of Python
big integers, so each kernel pass advances all K lanes at once. The
payoff is *effective* throughput — ``cycles x lanes / wall`` — which
this bench measures across the K ladder on the paper's designs and
records into ``benchmarks/BENCH_simulator_batch.json`` (latest entry
per design). The acceptance bar: >= 4x effective throughput at K=16
over K=1 on the Cohort SoC.

Deliberately uses no ``benchmark`` fixture so the CI batch-bench job
runs it with plain pytest (pytest-benchmark is not installed there).
"""

import time

from conftest import emit_table, record_bench

#: The acceptance bar: effective cycles/s at K=16 over K=1, Cohort SoC.
BATCH_SPEEDUP_FLOOR = 4.0

#: Lane counts of the ladder.
LANES = (1, 4, 16, 64)


def _designs():
    from repro.designs import make_cluster, make_cohort_soc, make_counter
    from repro.rtl import elaborate
    return {
        "counter": elaborate(make_counter(8)),
        "cohort-soc": elaborate(make_cohort_soc(with_bug=False)),
        "slr-cluster": elaborate(make_cluster()),
    }


def _effective_rate(net, lanes: int) -> float:
    """cycles x lanes per wall second, time-boxed measurement."""
    from repro.rtl import BatchSimulator

    batch = BatchSimulator(net, lanes)
    batch.poke("en", 1)
    batch.step(50)  # warm up (generate + JIT the batch kernels)
    cycles = 256
    while True:
        start = time.perf_counter()
        batch.step(cycles)
        elapsed = time.perf_counter() - start
        if elapsed >= 0.12:
            return cycles * lanes / elapsed
        cycles *= 4


def test_batched_throughput_ladder():
    """K in {1, 4, 16, 64} on counter / Cohort SoC / multi-SLR cluster."""
    rows = []
    speedups = {}
    for design, net in _designs().items():
        rates = {lanes: _effective_rate(net, lanes) for lanes in LANES}
        speedups[design] = rates[16] / rates[1]
        for lanes in LANES:
            rows.append([design, f"K={lanes}",
                         f"{rates[lanes]:,.0f} lane-cycles/s",
                         f"{rates[lanes] / rates[1]:.1f}x"])
        record_bench(
            "simulator_batch",
            {"design": design,
             "rates": {str(lanes): rates[lanes] for lanes in LANES},
             "speedup_k16": speedups[design]},
            key="design")
    emit_table("Batched simulation, effective throughput",
               ["design", "lanes", "effective rate", "vs K=1"], rows)
    assert speedups["cohort-soc"] >= BATCH_SPEEDUP_FLOOR, (
        f"K=16 batching is only {speedups['cohort-soc']:.1f}x effective "
        f"throughput on the Cohort SoC; the bar is "
        f"{BATCH_SPEEDUP_FLOOR}x")

