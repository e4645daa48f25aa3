"""Differential tests: the VTI compile cache must be *bit-identical* to
the cold flow.

Methodology per Guo et al. (PAPERS.md): run the same compile sequence
through two configurations of the tool and demand byte-equal outputs —
modeled seconds, timing reports, link reports, logic-location files,
frame images, and partial bitstreams. Three designs cover the matrix:

- **counters**: two partitionable leaf counters + a static counter on
  the single-SLR test device, with a *real* RTL edit (step change);
- **cohort**: the Cohort SoC (``mmu`` and ``datapath`` partitions) —
  multiple top-level partitions, no memories;
- **cluster**: a two-core SERV cluster on the two-SLR test device —
  per-core LUTRAM register files inside the partitions plus a static
  BRAM instruction memory (memory placement on both sides of the
  boundary, multi-SLR database).
"""

import io

import pytest

from repro.designs import make_cohort_soc, make_cluster, make_counter
from repro.fpga import make_test_device
from repro.rtl import ModuleBuilder, mux
from repro.vti import CompileCache, PartitionSpec, VtiFlow
from repro.vti.cache import module_fingerprint


# --------------------------------------------------------------------------
# designs
# --------------------------------------------------------------------------

def build_leaf(name, step=1, width=8):
    b = ModuleBuilder(name)
    en = b.input("en", 1)
    count = b.reg("count", width)
    b.next(count, mux(en, count + step, count))
    b.output_expr("out", count)
    return b.build()


def counter_farm(leaves=2):
    """``leaves`` partitionable counters plus one static counter."""
    b = ModuleBuilder("farm")
    en = b.input("en", 1)
    for i in range(leaves):
        refs = b.instantiate(build_leaf(f"leaf{i}"), f"c{i}",
                             inputs={"en": en})
        b.output_expr(f"o{i}", refs["out"])
    static = b.instantiate(make_counter(8, name="static_counter"),
                           "static", inputs={"en": en})
    b.output_expr("st", static["out"])
    return b.build()


#: label -> (top factory, device factory, partition paths, changes).
#: ``changes`` maps partition path -> replacement module factory (None
#: recompiles the existing module).
DESIGNS = {
    "counters": (
        counter_farm, make_test_device, ["c0", "c1"],
        {"c0": lambda: build_leaf("leaf0", step=3), "c1": None},
    ),
    "cohort": (
        lambda: make_cohort_soc(with_bug=False),
        lambda: make_test_device(2), ["mmu", "datapath"],
        {"mmu": None, "datapath": None},
    ),
    "cluster": (
        lambda: make_cluster(cores=2, imem_depth=64),
        lambda: make_test_device(2), ["core0", "core1"],
        {"core0": None, "core1": None},
    ),
}


def make_initial(cache, label):
    top_fn, device_fn, paths, changes = DESIGNS[label]
    flow = VtiFlow(device_fn(), cache=cache)
    initial = flow.compile_initial(
        top_fn(), {"clk": 100.0},
        [PartitionSpec(path) for path in paths], debug_slr=0)
    built = {path: (factory() if factory is not None else None)
             for path, factory in changes.items()}
    return flow, initial, built


# --------------------------------------------------------------------------
# equality down to the bit
# --------------------------------------------------------------------------

def ll_text(database):
    out = io.StringIO()
    database.ll.dump(out)
    return out.getvalue()


def assert_databases_identical(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.name == b.name
    assert ll_text(a) == ll_text(b)
    assert a.netlist.fingerprint() == b.netlist.fingerprint()
    assert a.clocks == b.clocks
    assert a.gate_signals == b.gate_signals
    assert a.domain_bits == b.domain_bits
    assert sorted(a.memory_map) == sorted(b.memory_map)
    for name in a.memory_map:
        assert a.memory_map[name] == b.memory_map[name]
    assert set(a.frame_image) == set(b.frame_image)
    for slr in a.frame_image:
        assert a.image_checksum(slr) == b.image_checksum(slr)


def assert_results_identical(a, b):
    assert a.partition_path == b.partition_path
    assert a.version == b.version
    assert a.region_mask == b.region_mask
    assert a.seconds == b.seconds  # bit-identical modeled seconds
    assert a.timing == b.timing
    assert a.link == b.link
    assert a.requirement == b.requirement
    assert module_fingerprint(a.new_top) == module_fingerprint(b.new_top)
    assert a.partial_bitstream == b.partial_bitstream
    assert_databases_identical(a.database, b.database)


# --------------------------------------------------------------------------
# cached vs cold
# --------------------------------------------------------------------------

@pytest.mark.parametrize("label", sorted(DESIGNS))
class TestCachedVsCold:
    def test_cache_hits_are_bit_identical_to_cold_compiles(self, label):
        cache = CompileCache()
        flow_c, initial_c, changes_c = make_initial(cache, label)
        flow_x, initial_x, changes_x = make_initial(None, label)
        paths = sorted(changes_c)
        # Two passes over the same edits: the cached flow misses on the
        # first pass and hits on the second; the cold flow recompiles
        # everything. Outputs must not differ anywhere.
        for round_index in range(2):
            for path in paths:
                cached = flow_c.compile_incremental(
                    initial_c, path, changes_c[path])
                cold = flow_x.compile_incremental(
                    initial_x, path, changes_x[path])
                assert_results_identical(cached, cold)
                assert cached.cache_hit == (round_index == 1)
        assert cache.stats.misses == len(paths)
        assert cache.stats.hits == len(paths)

    def test_parallel_many_with_warm_cache_matches_cold(self, label):
        cache = CompileCache()
        flow_c, initial_c, changes_c = make_initial(cache, label)
        flow_x, initial_x, changes_x = make_initial(None, label)
        # Warm the cache, then compare the second (all-hit) round.
        flow_c.compile_incremental_many(initial_c, changes_c)
        flow_x.compile_incremental_many(initial_x, changes_x)
        results_c, wall_c = flow_c.compile_incremental_many(
            initial_c, changes_c)
        results_x, wall_x = flow_x.compile_incremental_many(
            initial_x, changes_x)
        assert wall_c == wall_x
        assert all(r.cache_hit for r in results_c)
        assert not any(r.cache_hit for r in results_x)
        for a, b in zip(results_c, results_x):
            assert_results_identical(a, b)
