"""Paper Figure 7: compilation speed, Vivado incremental vs Zoomie.

Initial compile plus five incremental runs of each flow on the
5400-core SoC (MUT = one core). The published shape: initial bars are
roughly equal (~4.5 h), the vendor's incremental mode recovers ~10%,
Zoomie's VTI lands around 18x (a ~95% reduction).

A second benchmark measures the *host* wall clock of the incremental
compile cache (cold vs warm-cache) and of a two-partition
``compile_incremental_many`` batch on a database-backed design, and
records the numbers to ``benchmarks/BENCH_vti.json``. It gates no
ratio: a cold recompile splices the partition into the baseline
netlist and reuses the baseline placement, so cold and warm now differ
by partition-sized work only. The end-to-end ``vti_edit_loop``
workload (``benchmarks/e2e``) times misses and hits under its bound
and checks that every revert hits.
"""

import time

from conftest import emit, emit_table, record_bench

PAPER_INITIAL_HOURS = 4.5
PAPER_VENDOR_SPEEDUP = 1.10
PAPER_VTI_SPEEDUP = 18.0


def test_fig7_compile_series(benchmark, u200, manycore_soc,
                             soc_compile, vti_initial):
    from repro.vendor import VivadoFlow
    from repro.vendor.cost import format_duration

    vti_flow, initial = vti_initial
    vendor = VivadoFlow(u200, seed="fig7-vendor")

    # The benchmarked operation: one VTI incremental recompile
    # (real computation, not the simulated wall clock).
    benchmark.pedantic(
        lambda: vti_flow.compile_incremental(initial, "tile0.core0"),
        rounds=3, iterations=1)

    rows = [[
        "initial",
        format_duration(soc_compile.total_seconds),
        format_duration(initial.total_seconds),
        "-",
    ]]
    vendor_speedups = []
    vti_speedups = []
    for run in range(1, 6):
        vendor_incr = vendor.compile_incremental(
            manycore_soc, {"clk": 50.0}, previous=soc_compile)
        vti_incr = vti_flow.compile_incremental(initial, "tile0.core0")
        vendor_speedups.append(
            soc_compile.total_seconds / vendor_incr.total_seconds)
        vti_speedups.append(
            initial.total_seconds / vti_incr.total_seconds)
        rows.append([
            f"#{run}",
            format_duration(vendor_incr.total_seconds),
            format_duration(vti_incr.total_seconds),
            f"{vti_speedups[-1]:.1f}x",
        ])
    emit_table(
        "Figure 7: compilation speed (5400-core SoC, MUT = 1 core)",
        ["run", "Vivado incremental", "Zoomie (VTI)", "VTI speedup"],
        rows)
    mean_vti = sum(vti_speedups) / len(vti_speedups)
    mean_vendor = sum(vendor_speedups) / len(vendor_speedups)
    emit(f"mean speedups: vendor {mean_vendor:.2f}x "
         f"(paper ~{PAPER_VENDOR_SPEEDUP:.2f}x), "
         f"VTI {mean_vti:.1f}x (paper ~{PAPER_VTI_SPEEDUP:.0f}x)")

    # Shape checks.
    assert 3.5 <= soc_compile.total_seconds / 3600 <= 5.5
    assert 0.9 <= initial.total_seconds / soc_compile.total_seconds <= 1.15
    assert 1.03 <= mean_vendor <= 1.3
    assert 14 <= mean_vti <= 24
    reduction = 1 - 1 / mean_vti
    assert reduction >= 0.93  # "~95% reduction"


# --------------------------------------------------------------------------
# batch + artifact cache, host wall clock
# --------------------------------------------------------------------------

def _pipeline_farm(leaves=2, stages=400):
    """Two deep pipeline partitions plus a small static counter.

    Big partitions make the cold path (synthesis, the partition's
    flatten and splice) dominate the per-compile fixed costs, so the
    cache speedup measured here reflects the work the cache actually
    skips.
    """
    from repro.designs import make_counter
    from repro.rtl import ModuleBuilder, mux

    def leaf(name):
        b = ModuleBuilder(name)
        en = b.input("en", 1)
        count = b.reg("count", 8)
        out = count
        for index in range(stages):
            stage = b.reg(f"stage{index}", 8)
            b.next(stage, out)
            out = stage
        b.next(count, mux(en, count + 1, count))
        b.output_expr("out", out)
        return b.build()

    b = ModuleBuilder("pipeline_farm")
    en = b.input("en", 1)
    for index in range(leaves):
        refs = b.instantiate(leaf(f"leaf{index}"), f"c{index}",
                             inputs={"en": en})
        b.output_expr(f"o{index}", refs["out"])
    static = b.instantiate(make_counter(8, name="static_counter"),
                           "static", inputs={"en": en})
    b.output_expr("st", static["out"])
    return b.build()


def _best_of(action, rounds=5):
    """Minimum host wall time over ``rounds`` runs (noise floor)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - start)
    return best


def test_vti_scheduler_and_cache_host_wall(benchmark):
    from repro.fpga import make_test_device
    from repro.vti import CompileCache, PartitionSpec, VtiFlow

    # Cache design: one partition deep enough to fill the debug SLR,
    # so cold synthesis and the partition splice dominate.
    deep = _pipeline_farm(leaves=1, stages=440)
    deep_specs = [PartitionSpec("c0")]

    cold_flow = VtiFlow(make_test_device(2), cache=None)
    cold_initial = cold_flow.compile_initial(
        deep, {"clk": 100.0}, deep_specs, debug_slr=0)
    assert cold_initial.database is not None  # cold path rebuilds it

    cache = CompileCache()
    warm_flow = VtiFlow(make_test_device(2), cache=cache)
    warm_initial = warm_flow.compile_initial(
        deep, {"clk": 100.0}, deep_specs, debug_slr=0)

    # Cold: every compile redoes synthesis and the partition splice.
    cold_wall = _best_of(
        lambda: cold_flow.compile_incremental(cold_initial, "c0"))

    # Warm: first compile populates the cache, the rest are hits.
    warm_flow.compile_incremental(warm_initial, "c0")
    warm_result = benchmark.pedantic(
        lambda: warm_flow.compile_incremental(warm_initial, "c0"),
        rounds=3, iterations=1)
    assert warm_result.cache_hit
    warm_wall = _best_of(
        lambda: warm_flow.compile_incremental(warm_initial, "c0"))

    # Batch design: two partitions sharing the SLR, recompiled
    # together.
    farm = _pipeline_farm(leaves=2, stages=140)
    changes = {"c0": None, "c1": None}
    many_flow = VtiFlow(make_test_device(2), cache=None)
    many_initial = many_flow.compile_initial(
        farm, {"clk": 100.0},
        [PartitionSpec("c0"), PartitionSpec("c1")], debug_slr=0)
    serial_wall = _best_of(
        lambda: many_flow.compile_incremental_many(
            many_initial, changes), rounds=3)
    _results, modeled_wall = many_flow.compile_incremental_many(
        many_initial, changes)

    speedup = cold_wall / warm_wall
    emit_table(
        "VTI compile cache + batch (host wall clock)",
        ["path", "host ms", "vs cold"],
        [
            ["cold recompile", f"{cold_wall * 1e3:.2f}", "1.0x"],
            ["warm cache hit", f"{warm_wall * 1e3:.2f}",
             f"{speedup:.1f}x"],
            ["2-partition batch", f"{serial_wall * 1e3:.2f}", "-"],
        ])
    emit(f"cache: {cache.summary()}")
    emit(f"modeled 2-partition wall: {modeled_wall:.1f}s "
         f"(shared link, max over partitions)")

    record_bench("vti", {
        "design": "pipeline_farm(leaves=1, stages=440)",
        "cold_ms": round(cold_wall * 1e3, 3),
        "warm_ms": round(warm_wall * 1e3, 3),
        "cache_speedup": round(speedup, 2),
        "serial_many_ms": round(serial_wall * 1e3, 3),
        "modeled_many_wall_s": round(modeled_wall, 3),
        "cache": cache.stats.as_dict(),
    })
    # Every warm compile after the first was served by the cache.
    assert (cache.stats.misses, cache.stats.puts) == (1, 1)
