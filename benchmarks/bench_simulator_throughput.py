"""Real-machine measurement: the RTL simulator's throughput.

Not a paper table — the substrate number everything executable rests
on. Compares the two evaluation engines (fused kernels / AST
interpreter) on the Cohort SoC, asserts the fused engine's speedup over
the interpreter, and records the measured rates into
``benchmarks/BENCH_simulator.json`` so future changes can be checked
against the previous run (a throughput regression guard).
Case study 3's replay-cost argument uses the same measurement live.
"""

import time

from conftest import emit, emit_table, record_bench

#: The fused engine must beat the AST interpreter by at least this
#: factor on the Cohort SoC.
FUSED_SPEEDUP_FLOOR = 5.0

#: Soft guard: warn when a recorded rate drops below this fraction of
#: the previous run's rate. Soft because wall-clock throughput on shared
#: machines is noisy; the JSON file is the reviewable artifact.
REGRESSION_TOLERANCE = 0.5


def make_sim(engine: str):
    from repro.designs import make_cohort_soc
    from repro.rtl import Simulator, elaborate

    sim = Simulator(elaborate(make_cohort_soc(with_bug=False)),
                    engine=engine)
    sim.poke("en", 1)
    return sim


def _rate(sim, cycles: int) -> float:
    sim.step(min(200, cycles))  # warm up (and JIT the kernels)
    start = time.perf_counter()
    sim.step(cycles)
    return cycles / (time.perf_counter() - start)


def _record(rates: dict[str, float]) -> None:
    """Record this run in BENCH_simulator.json (latest entry per design
    — no duplicate accumulation) and soft-check the previous matching
    run for regressions."""
    history = record_bench("simulator",
                           {"design": "cohort-soc", "rates": rates},
                           key="design")
    matching = [e for e in history if e.get("design") == "cohort-soc"]
    if matching:
        previous = matching[-1]["rates"]
        for engine, rate in rates.items():
            floor = previous.get(engine, 0) * REGRESSION_TOLERANCE
            if rate < floor:
                emit(f"WARNING: {engine} throughput regressed: "
                     f"{rate:,.0f} cycles/s vs previous "
                     f"{previous[engine]:,.0f} cycles/s")


def test_engine_throughput_ladder(benchmark):
    """fused vs interpreted on the Cohort SoC.

    The acceptance criterion is fused >= 5x interp with bit-identical
    results (the differential suite owns the identity half).
    """
    sim = make_sim("fused")
    benchmark(lambda: sim.step(100))

    budgets = {"fused": 30_000, "interp": 3_000}
    rates = {engine: _rate(make_sim(engine), cycles)
             for engine, cycles in budgets.items()}
    rows = [[engine, f"{rate:,.0f} cycles/s"]
            for engine, rate in rates.items()]
    rows.append(["fused / interp",
                 f"{rates['fused'] / rates['interp']:.1f}x"])
    emit_table("RTL simulator throughput (Cohort SoC)",
               ["engine", "rate"], rows)
    _record(rates)
    assert rates["fused"] >= FUSED_SPEEDUP_FLOOR * rates["interp"], (
        f"fused engine is only "
        f"{rates['fused'] / rates['interp']:.1f}x the interpreter; "
        f"the bar is {FUSED_SPEEDUP_FLOOR}x")


def test_plan_cache_removes_rebuild_cost(benchmark):
    """Rebuilding a Simulator over the same netlist (ILA flow, VTI
    incremental runs) must hit the plan cache, not recompile."""
    from repro.designs import make_cohort_soc
    from repro.rtl import Simulator, elaborate, plan_cache_stats

    net = elaborate(make_cohort_soc(with_bug=False))
    Simulator(net)  # prime the cache

    start = time.perf_counter()
    cold_stats = plan_cache_stats()
    for _ in range(10):
        Simulator(net)
    elapsed = (time.perf_counter() - start) / 10
    stats = plan_cache_stats()
    benchmark(lambda: Simulator(net))
    emit_table(
        "Simulator rebuild with a warm plan cache",
        ["metric", "value"],
        [["rebuild time", f"{elapsed * 1e3:.2f} ms"],
         ["cache hits gained", str(stats["hits"] - cold_stats["hits"])]])
    assert stats["hits"] >= cold_stats["hits"] + 10


def test_instrumentation_slowdown_is_bounded(benchmark):
    """Zoomie's inserted logic must not cripple the emulation substrate."""
    from repro.debug import instrument_netlist
    from repro.designs import make_cohort_soc
    from repro.rtl import Simulator, elaborate

    bare = Simulator(elaborate(make_cohort_soc(with_bug=False)))
    bare.poke("en", 1)
    instrumented_net = elaborate(make_cohort_soc(with_bug=False))
    instrument_netlist(instrumented_net, watch=["issued"])
    instrumented = Simulator(instrumented_net)
    instrumented.poke("en", 1)

    def rate(sim):
        sim.step(10)
        start = time.perf_counter()
        sim.step(2000)
        return 2000 / (time.perf_counter() - start)

    bare_rate = rate(bare)
    inst_rate = benchmark.pedantic(
        lambda: rate(instrumented), rounds=3, iterations=1)
    slowdown = bare_rate / inst_rate
    emit_table(
        "Simulation cost of the Zoomie insertion",
        ["configuration", "rate"],
        [["bare", f"{bare_rate:,.0f} cycles/s"],
         ["instrumented", f"{inst_rate:,.0f} cycles/s"],
         ["slowdown", f"{slowdown:.2f}x"]])
    assert slowdown < 4.0
