"""Differential tests: the VTI compile cache must be *bit-identical* to
the cold flow, and the partition splice to the whole-design rebuild.

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

The second half holds every incremental database against the
whole-design rebuild the splice replaced (elaborate the stitched top,
place the partition on the full netlist, keep the baseline's other
entries by name), on those designs plus the pipeline farm the
end-to-end VTI workload edits, for logic-only, register-adding,
memory-resizing and no-op edits.
"""

import dataclasses
import io
import math
from collections import Counter

import pytest

from repro.config.database import DesignDatabase, synthesize_frame_words
from repro.config.logic_loc import LogicLocationFile
from repro.config.program import build_partial_bitstream
from repro.designs import make_cohort_soc, make_cluster, make_counter
from repro.fpga import make_test_device
from repro.fpga.frames import BLOCK_MAIN, FrameAddress
from repro.rtl import ModuleBuilder, mux
from repro.rtl.expr import Const, Ref
from repro.rtl.flatten import elaborate, set_clock_map
from repro.rtl.module import Memory, MemoryReadPort, Module, Register
from repro.vendor import cost
from repro.vendor.place import place_partition
from repro.vendor.synth import synthesize
from repro.vti import CompileCache, PartitionSpec, VtiFlow
from repro.vti import flow as vti_flow
from repro.vti.cache import module_fingerprint
from repro.vti.estimate import estimate_requirements
from repro.vti.floorplan import region_frame_count
from repro.vti.link import replace_instance_module


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


# --------------------------------------------------------------------------
# the partition splice against the whole-design rebuild
# --------------------------------------------------------------------------

def pipeline_leaf(name, stages=16):
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


def pipeline_farm():
    """Three pipeline partitions plus a static counter; ``c2`` runs on
    its own clock, so the splice must apply the instance's clock map."""
    b = ModuleBuilder("pipeline_farm")
    en = b.input("en", 1)
    for index in range(3):
        refs = b.instantiate(pipeline_leaf(f"leaf{index}"), f"c{index}",
                             inputs={"en": en})
        b.output_expr(f"o{index}", refs["out"])
    static = b.instantiate(make_counter(8, name="static_counter"),
                           "static", inputs={"en": en})
    b.output_expr("st", static["out"])
    top = b.build()
    set_clock_map(top.instances["c2"], {"clk": "clk_b"})
    return top


#: label -> (top factory, device factory, partition paths, clocks).
SPLICE_DESIGNS = {
    "counters": (counter_farm, make_test_device, ["c0", "c1"],
                 {"clk": 100.0}),
    "cohort": (lambda: make_cohort_soc(with_bug=False),
               lambda: make_test_device(2), ["mmu", "datapath"],
               {"clk": 100.0}),
    "cluster": (lambda: make_cluster(cores=2, imem_depth=64),
                lambda: make_test_device(2), ["core0", "core1"],
                {"clk": 100.0}),
    "pipeline": (pipeline_farm, lambda: make_test_device(2),
                 ["c0", "c1", "c2"], {"clk": 100.0, "clk_b": 50.0}),
}


def module_copy(module):
    """A shallow copy of ``module`` whose containers can be edited."""
    clone = Module(module.name)
    for name in ("ports", "wires", "assigns", "registers", "memories",
                 "instances", "attributes"):
        setattr(clone, name, dict(getattr(module, name)))
    clone.assertions = list(module.assertions)
    clone.interfaces = list(module.interfaces)
    return clone


def edit_first(module, wants, edit):
    """``module`` with ``edit`` applied to a copy of the first module of
    its hierarchy (depth first) that ``wants``; None if none does."""
    if wants(module):
        return edit(module_copy(module))
    for name, inst in module.instances.items():
        edited = edit_first(inst.module, wants, edit)
        if edited is not None:
            return replace_instance_module(module, name, edited)
    return None


def logic_edit(module):
    """XOR a constant into one register's next: the layout stays."""
    def edit(clone):
        name = min(n for n, r in clone.registers.items()
                   if r.next is not None)
        reg = clone.registers[name]
        clone.registers[name] = dataclasses.replace(reg, next=reg.next ^ 1)
        return clone
    return edit_first(
        module, lambda m: any(r.next is not None
                              for r in m.registers.values()), edit)


def register_edit(module):
    """Add a free-running 5-bit register and an assertion."""
    clone = module_copy(module)
    extra = Ref("diff_extra", 5)
    clone.add_register(Register("diff_extra", 5, next=extra + 1, init=3))
    clone.assertions.append(
        "diff_live: assert property (@(posedge clk) 1);")
    return clone


def memory_edit(module):
    """Halve the first memory's depth, or add a LUTRAM one (async read)
    if there is none."""
    def resize(clone):
        name = min(clone.memories)
        memory = clone.memories[name]
        depth = max(1, memory.depth // 2)
        clone.memories[name] = dataclasses.replace(
            memory, depth=depth,
            init={a: v for a, v in memory.init.items() if a < depth})
        return clone
    if has_memory(module):
        return edit_first(module, lambda m: bool(m.memories), resize)
    clone = module_copy(module)
    clone.add_wire("diff_q", 4)
    clone.add_memory(Memory(
        name="diff_mem", width=4, depth=8,
        read_ports=[MemoryReadPort(name="diff_q", addr=Const(0, 3))],
        init={1: 9}))
    return clone


def has_memory(module):
    return bool(module.memories) or any(
        has_memory(inst.module) for inst in module.instances.values())


def edit_fits(initial, path, edit):
    """Whether ``edit`` fits the partition's region: an added memory
    needs LUTRAM columns there."""
    return (edit != "memory"
            or initial.partitions[path].capacity["LUTRAM"] > 0
            or has_memory(initial.split.partition(path).module))


EDITS = {
    "none": lambda module: None,
    "logic": logic_edit,
    "register": register_edit,
    "memory": memory_edit,
}


def whole_design_rebuild(flow, initial, path, module, version):
    """The rebuild the splice replaced: modeled seconds, database and
    partial bitstream of one incremental compile at ``version``."""
    partition = initial.split.partition(path)
    new_module = module or partition.module
    region = initial.floorplan.regions[path]
    psynth = synthesize(new_module, opt="local")
    requirement = estimate_requirements(
        path, psynth.totals, partition.spec.over_provision)
    fill = requirement.expected_fill(region.capacity(flow.device))
    seed = f"{flow.seed}:{path}"
    design_cells = initial.base.synth.totals.total_cells()
    seconds = {
        "synth": cost.synth_seconds(requirement.raw.lut, seed, version),
        "place": cost.place_seconds(
            requirement.raw.total_cells(), fill, seed, version),
        "route": cost.route_seconds(
            psynth.total_nets(), fill, seed, version),
        "link": cost.vti_link_seconds(design_cells, seed, version),
        "bitgen": (cost.VTI_PARTIAL_BITGEN_FIXED
                   + cost.BITGEN_PER_FRAME
                   * region_frame_count(flow.device, region))
        * cost.jitter(seed, "partial-bitgen", version),
    }
    seconds["total"] = math.fsum(seconds.values())

    base_db = initial.database
    new_top = (initial.top if module is None
               else replace_instance_module(initial.top, path, module))
    flat = elaborate(new_top)
    partition_ll, partition_memories = place_partition(
        flat, flow.device, path, dict(initial.floorplan.regions))

    def is_static(name):
        return not (name == path or name.startswith(path + "."))
    ll = LogicLocationFile(
        [e for e in base_db.ll.entries if is_static(e.name)]
        + list(partition_ll))
    memory_map = {name: placement
                  for name, placement in base_db.memory_map.items()
                  if is_static(name)}
    memory_map.update(partition_memories)
    columns = {c.index for c in region.columns(flow.device)}
    name = f"{base_db.name}.v{version}"
    image = {slr: dict(frames)
             for slr, frames in base_db.frame_image.items()}
    partial_frames = {}
    for region_index in range(region.region_lo, region.region_hi + 1):
        for column in sorted(columns):
            address = FrameAddress(block_type=BLOCK_MAIN,
                                   region=region_index, column=column,
                                   minor=0)
            words = synthesize_frame_words(name, address)
            image.setdefault(region.slr, {})[address] = words
            partial_frames[address] = words
    database = DesignDatabase(
        name=name, device=flow.device, netlist=flat, ll=ll,
        clocks=dict(base_db.clocks), frame_image=image,
        gate_signals=dict(base_db.gate_signals), memory_map=memory_map)
    partial = build_partial_bitstream(
        database, region.slr, partial_frames,
        initial.floorplan.region_mask(path))
    return seconds, database, partial


NETLIST_FIELDS = ("signals", "owner", "assigns", "registers", "memories",
                  "assertions", "interfaces")


def ordered_items(netlist):
    """Every field as an ordered list of ``(name, repr(value))``; Expr
    nodes compare by identity, so their reprs are what can match."""
    out = {}
    for name in NETLIST_FIELDS:
        value = getattr(netlist, name)
        pairs = value.items() if isinstance(value, dict) else value
        out[name] = [(key, repr(item)) for key, item in pairs]
    out["inputs"] = sorted(netlist.inputs)
    out["outputs"] = sorted(netlist.outputs)
    return out


def assert_matches_whole_design(flow, initial, result, module):
    seconds, database, partial = whole_design_rebuild(
        flow, initial, result.partition_path, module, result.version)
    assert result.seconds == seconds
    got = result.database
    assert got.name == database.name
    assert ordered_items(got.netlist) == ordered_items(database.netlist)
    assert got.netlist.fingerprint() == database.netlist.fingerprint()
    assert ll_text(got) == ll_text(database)
    assert list(got.memory_map.items()) == list(
        database.memory_map.items())
    assert got.clocks == database.clocks
    assert got.domain_bits == database.domain_bits
    assert set(got.frame_image) == set(database.frame_image)
    for slr in got.frame_image:
        assert got.image_checksum(slr) == database.image_checksum(slr)
    assert result.partial_bitstream == partial


def splice_initial(label, cache):
    top_fn, device_fn, paths, clocks = SPLICE_DESIGNS[label]
    flow = VtiFlow(device_fn(), cache=cache)
    initial = flow.compile_initial(
        top_fn(), clocks, [PartitionSpec(path) for path in paths],
        debug_slr=0)
    assert initial.database is not None
    return flow, initial, paths


@pytest.mark.parametrize("edit", sorted(EDITS))
@pytest.mark.parametrize("label", sorted(SPLICE_DESIGNS))
def test_splice_matches_whole_design_rebuild(label, edit):
    flow, initial, paths = splice_initial(label, CompileCache())
    for path in (p for p in paths if edit_fits(initial, p, edit)):
        module = EDITS[edit](initial.split.partition(path).module)
        # A miss, then a hit of the same edit, then the edit in a batch.
        for _ in range(2):
            result = flow.compile_incremental(initial, path, module)
            assert_matches_whole_design(flow, initial, result, module)
        results, _wall = flow.compile_incremental_many(
            initial, {path: module})
        assert results[0].cache_hit
        assert_matches_whole_design(flow, initial, results[0], module)


def test_spliced_netlists_share_no_state_with_the_baseline():
    flow, initial, _paths = splice_initial("cluster", None)
    base = initial.database.netlist
    before = base.fingerprint()
    core = initial.split.partition("core0").module
    for module in (None, logic_edit(core), memory_edit(core)):
        result = flow.compile_incremental(initial, "core0", module)
        netlist = result.database.netlist
        for name, reg in netlist.registers.items():
            assert reg is not base.registers.get(name)
        for name, memory in netlist.memories.items():
            assert memory is not base.memories.get(name)
        # In-place edits of a static and a partition register reach
        # neither the baseline nor the next splice.
        for name in ("fetch_ptr", "core0.pc"):
            reg = netlist.registers[name]
            reg.next = Const(0, reg.width)
            reg.width += 1
        netlist.memories["imem"].init[0] = 0xBEEF
        assert base.fingerprint() == before
        again = flow.compile_incremental(initial, "core0", module)
        assert_matches_whole_design(flow, initial, again, module)


def test_splice_rejects_a_name_the_static_design_holds():
    """A dotted static wire can hold a name the new block adds; the
    splice raises as elaborating the stitched top does."""
    from repro.errors import NameConflictError
    from repro.rtl.flatten import cut_instances, flatten_instance, splice

    b = ModuleBuilder("top")
    en = b.input("en", 1)
    refs = b.instantiate(build_leaf("leaf"), "c0", inputs={"en": en})
    b.output_expr("o", refs["out"])
    b.output_expr("clash", b.wire_expr("c0.extra", Const(1, 2)))
    top = b.build()
    grown = module_copy(top.instances["c0"].module)
    grown.add_register(Register("extra", 2, next=Ref("extra", 2)))
    with pytest.raises(NameConflictError, match="'c0.extra'"):
        elaborate(replace_instance_module(top, "c0", grown))
    cut = cut_instances(top, ["c0"])["c0"]
    with pytest.raises(NameConflictError, match="'c0.extra'"):
        splice(cut, flatten_instance(grown, cut))


def test_cache_hit_neither_synthesizes_flattens_nor_places(monkeypatch):
    calls = Counter()

    def spy(name):
        real = getattr(vti_flow, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(vti_flow, name, counted)

    for name in ("synthesize", "flatten_instance", "place_partition"):
        spy(name)
    flow, initial, _paths = splice_initial("counters", CompileCache())
    leaf = initial.split.partition("c0").module
    grown, relogicked = register_edit(leaf), logic_edit(leaf)

    def compile_counting(module):
        calls.clear()
        result = flow.compile_incremental(initial, "c0", module)
        return result.cache_hit, dict(calls)

    every = {"synthesize": 1, "flatten_instance": 1}
    assert compile_counting(grown) == (
        False, dict(every, place_partition=1))
    assert compile_counting(grown) == (True, {})
    # Same register layout: the baseline's placement is reused.
    assert compile_counting(relogicked) == (False, every)
    assert compile_counting(relogicked) == (True, {})

