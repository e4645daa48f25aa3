"""Tests for VTI: partitioning, estimation, floorplanning, the 18x
incremental flow (Figure 7), and partial reconfiguration on the fabric."""

import pytest

from repro.config import FabricDevice
from repro.designs import make_counter, make_manycore_soc
from repro.errors import PartitionError, PlacementError
from repro.fpga import make_test_device, make_u200
from repro.rtl import ModuleBuilder, mux
from repro.vendor import VivadoFlow, synthesize
from repro.vendor.resources import ResourceVector
from repro.vti import (
    DEFAULT_OVER_PROVISION,
    CompileCache,
    PartitionSpec,
    VtiFlow,
    estimate_requirements,
    floorplan_partitions,
)
from repro.vti.link import check_boundary_compatible, replace_instance_module
from repro.vti.partition import split_design


class TestPartitionSpec:
    def test_empty_path_rejected(self):
        with pytest.raises(PartitionError):
            PartitionSpec("")

    def test_silly_over_provision_rejected(self):
        with pytest.raises(PartitionError):
            PartitionSpec("a", over_provision=5.0)

    def test_split_resolves_paths(self):
        soc = make_manycore_soc(24, 12, imem_depth=64)
        split = split_design(soc, [PartitionSpec("tile0.core3")])
        assert split.partitions[0].module.name == "serv_core"

    def test_unknown_path_rejected(self):
        soc = make_manycore_soc(24, 12, imem_depth=64)
        with pytest.raises(PartitionError):
            split_design(soc, [PartitionSpec("tile9.core0")])

    def test_nested_partitions_rejected(self):
        soc = make_manycore_soc(24, 12, imem_depth=64)
        with pytest.raises(PartitionError):
            split_design(soc, [PartitionSpec("tile0"),
                               PartitionSpec("tile0.core1")])

    def test_duplicate_partitions_rejected(self):
        soc = make_manycore_soc(24, 12, imem_depth=64)
        with pytest.raises(PartitionError):
            split_design(soc, [PartitionSpec("tile0"),
                               PartitionSpec("tile0")])


class TestEstimation:
    def test_er_formula(self):
        """ER = resource * (1 + c), per resource kind."""
        req = estimate_requirements(
            "p", ResourceVector(lut=100, ff=200, lutram=10, bram=2),
            over_provision=0.30)
        assert req.estimated.lut == 130
        assert req.estimated.ff == 260
        assert req.estimated.lutram == 13
        assert req.estimated.bram == 3

    def test_default_coefficient_is_thirty_percent(self):
        assert DEFAULT_OVER_PROVISION == 0.30

    def test_satisfaction_requires_every_kind(self):
        req = estimate_requirements(
            "p", ResourceVector(lut=100, ff=10, lutram=0, bram=4))
        assert req.satisfied_by(
            {"LUT": 200, "FF": 50, "LUTRAM": 0, "BRAM": 6})
        assert not req.satisfied_by(
            {"LUT": 200, "FF": 50, "LUTRAM": 0, "BRAM": 4})


class TestFloorplan:
    def test_all_partitions_in_one_slr(self):
        device = make_u200()
        reqs = [
            estimate_requirements(
                f"p{i}", ResourceVector(lut=500, ff=800, lutram=16))
            for i in range(3)
        ]
        plan = floorplan_partitions(device, reqs)
        slrs = {region.slr for region in plan.regions.values()}
        assert slrs == {device.primary_slr}

    def test_regions_are_disjoint_column_spans(self):
        device = make_u200()
        reqs = [
            estimate_requirements(
                f"p{i}", ResourceVector(lut=2000, ff=3000))
            for i in range(2)
        ]
        plan = floorplan_partitions(device, reqs)
        r0, r1 = plan.regions["p0"], plan.regions["p1"]
        assert r0.col_hi < r1.col_lo

    def test_oversized_partition_rejected(self):
        device = make_test_device()
        req = estimate_requirements(
            "huge", ResourceVector(lut=10 ** 6, ff=10 ** 6))
        with pytest.raises(PlacementError):
            floorplan_partitions(device, [req])

    def test_region_mask_covers_clock_regions(self):
        device = make_u200()
        req = estimate_requirements("p", ResourceVector(lut=300, ff=500))
        plan = floorplan_partitions(device, [req])
        assert plan.region_mask("p") == 0b1  # single clock region


class TestBoundaryLinking:
    def make_leaf(self, extra_logic=False, extra_port=False):
        b = ModuleBuilder("leaf")
        en = b.input("en", 1)
        count = b.reg("count", 8)
        step = 2 if extra_logic else 1
        b.next(count, mux(en, count + step, count))
        b.output_expr("out", count)
        if extra_port:
            b.output_expr("extra", count[0])
        return b.build()

    def test_same_boundary_accepted(self):
        nets = check_boundary_compatible(
            self.make_leaf(), self.make_leaf(extra_logic=True))
        assert nets == 9  # en + out

    def test_changed_boundary_rejected(self):
        with pytest.raises(PartitionError):
            check_boundary_compatible(
                self.make_leaf(), self.make_leaf(extra_port=True))

    def test_replace_instance_module(self):
        leaf = self.make_leaf()
        b = ModuleBuilder("top")
        en = b.input("en", 1)
        refs = b.instantiate(leaf, "u0", inputs={"en": en})
        b.output_expr("o", refs["out"])
        top = b.build()
        new_leaf = self.make_leaf(extra_logic=True)
        new_top = replace_instance_module(top, "u0", new_leaf)
        assert new_top.instances["u0"].module is new_leaf
        # The original is untouched.
        assert top.instances["u0"].module is leaf


def make_oversized_clone(core):
    """Same boundary as ``core``, absurdly large internals — guaranteed
    to overflow any reserved region."""
    big = ModuleBuilder(core.name)
    for port in core.ports.values():
        if port.direction == "input":
            big.input(port.name, port.width)
    regs = [big.reg(f"r{i}", 64) for i in range(4000)]
    for reg in regs:
        big.next(reg, reg + 1)
    for port in core.ports.values():
        if port.direction == "output":
            big.output_expr(port.name, regs[0][port.width - 1:0]
                            if port.width <= 64 else None)
    return big.build()


class TestFigure7:
    """The headline result: ~18x incremental speedup over ~4.5 h."""

    @pytest.fixture(scope="class")
    def flows(self):
        soc = make_manycore_soc(5400)
        vti = VtiFlow(make_u200())
        initial = vti.compile_initial(
            soc, {"clk": 50.0}, [PartitionSpec("tile0.core0")])
        return soc, vti, initial

    def test_initial_overhead_is_negligible(self, flows):
        soc, _vti, initial = flows
        vendor = VivadoFlow(make_u200()).compile(soc, {"clk": 50.0})
        ratio = initial.total_seconds / vendor.total_seconds
        assert 0.9 <= ratio <= 1.15

    def test_incremental_speedup_around_18x(self, flows):
        _soc, vti, initial = flows
        for run in range(5):
            incr = vti.compile_incremental(initial, "tile0.core0")
            speedup = initial.total_seconds / incr.total_seconds
            assert 14 <= speedup <= 24, f"run {run}: {speedup:.1f}x"

    def test_time_reduction_about_95_percent(self, flows):
        _soc, vti, initial = flows
        incr = vti.compile_incremental(initial, "tile0.core0")
        reduction = 1 - incr.total_seconds / initial.total_seconds
        assert reduction >= 0.93

    def test_link_dominates_incremental_time(self, flows):
        """The partition itself is tiny; linking the million-cell static
        checkpoint is the floor — why speedup is 18x, not 5400x."""
        _soc, vti, initial = flows
        incr = vti.compile_incremental(initial, "tile0.core0")
        assert incr.seconds["link"] == max(
            v for k, v in incr.seconds.items() if k != "total")

    def test_partition_growth_beyond_region_rejected(self, flows):
        _soc, vti, initial = flows
        # Same boundary as serv_core but absurdly large internals.
        core = initial.split.partition("tile0.core0").module
        module = make_oversized_clone(core)
        with pytest.raises(PartitionError):
            vti.compile_incremental(initial, "tile0.core0", module)


class TestTable1:
    """Compilation-process comparison (paper Table 1), as properties of
    the implemented flows."""

    def test_vivado_optimizes_globally(self):
        soc = make_manycore_soc(24, 12, imem_depth=64)
        assert synthesize(soc, opt="global").opt_mode == "global"

    def test_vti_partitions_optimize_locally(self):
        soc = make_manycore_soc(12, 12, imem_depth=64)
        vti = VtiFlow(make_test_device())
        initial = vti.compile_initial(
            soc, {"clk": 100.0}, [PartitionSpec("tile0.core0")])
        incr = vti.compile_incremental(initial, "tile0.core0")
        # Linking happened after routing: the report exists and counts
        # the static side.
        assert incr.link.static_cells > 0
        assert incr.link.boundary_nets > 0

    def test_vti_area_cost(self):
        """Partition-local optimization forgoes cross-module shrink."""
        soc = make_manycore_soc(5400)
        local = synthesize(soc, opt="local").totals.lut
        monolithic = synthesize(soc, opt="global").totals.lut
        assert local > monolithic


class TestPartialReconfiguration:
    """Small-design end-to-end: recompile one partition, load the partial
    bitstream, and verify the static region's state survives."""

    def build_two_counter_top(self, step=1):
        leaf_b = ModuleBuilder("leaf")
        en = leaf_b.input("en", 1)
        count = leaf_b.reg("count", 8)
        leaf_b.next(count, mux(en, count + step, count))
        leaf_b.output_expr("out", count)
        leaf = leaf_b.build()

        b = ModuleBuilder("twoc")
        en = b.input("en", 1)
        iterated = b.instantiate(leaf, "iterated", inputs={"en": en})
        static = b.instantiate(make_counter(8, name="static_counter"),
                               "static", inputs={"en": en})
        b.output_expr("it_out", iterated["out"])
        b.output_expr("st_out", static["out"])
        return b.build(), leaf

    def test_partial_reload_preserves_static_state(self):
        device = make_test_device()
        top, leaf = self.build_two_counter_top()
        vti = VtiFlow(device)
        initial = vti.compile_initial(
            top, {"clk": 100.0}, [PartitionSpec("iterated")],
            debug_slr=0)
        assert initial.database is not None

        fabric = FabricDevice(device)
        fabric.expect(initial.database)
        fabric.jtag.run(initial.base.bitstream)
        fabric.sim.poke("en", 1)
        fabric.run(10)
        assert fabric.sim.peek("st_out") == 10
        assert fabric.sim.peek("it_out") == 10

        # Edit the partition: the counter now steps by 2.
        new_leaf_b = ModuleBuilder("leaf")
        en = new_leaf_b.input("en", 1)
        count = new_leaf_b.reg("count", 8)
        new_leaf_b.next(count, mux(en, count + 2, count))
        new_leaf_b.output_expr("out", count)
        incr = vti.compile_incremental(
            initial, "iterated", new_leaf_b.build())
        assert incr.partial_bitstream is not None

        fabric.expect(incr.database)
        fabric.jtag.run(incr.partial_bitstream)
        fabric.sim.poke("en", 1)
        fabric.run(5)
        # Static region kept its count across the reload...
        assert fabric.sim.peek("st_out") == 15
        # ...while the reconfigured partition restarted and steps by 2.
        assert fabric.sim.peek("it_out") == 10

    def test_reload_that_adds_a_register_reads_and_writes_it(self):
        """State verbs after a reload run on the new database's plan."""
        from tests.test_capture_plan import parked_debugger

        device = make_test_device()
        top, _leaf = self.build_two_counter_top()
        vti = VtiFlow(device)
        initial = vti.compile_initial(
            top, {"clk": 100.0}, [PartitionSpec("iterated")],
            debug_slr=0)
        fabric = FabricDevice(device)
        fabric.expect(initial.database)
        fabric.jtag.run(initial.base.bitstream)
        debugger = parked_debugger(fabric)
        assert "iterated.extra" not in debugger.read_state()

        # Edit the partition: it gains a 12-bit register.
        leaf_b = ModuleBuilder("leaf")
        en = leaf_b.input("en", 1)
        count = leaf_b.reg("count", 8)
        extra = leaf_b.reg("extra", 12, init=0x2A5)
        leaf_b.next(count, mux(en, count + 1, count))
        leaf_b.output_expr("out", count ^ extra[7:0])
        incr = vti.compile_incremental(initial, "iterated", leaf_b.build())
        fabric.expect(incr.database)
        fabric.jtag.run(incr.partial_bitstream)

        assert debugger.read_state()["iterated.extra"] == 0x2A5
        debugger.write_state({"iterated.extra": 0x13C})
        assert fabric.sim.peek("iterated.extra") == 0x13C
        assert debugger.read_state()["iterated.extra"] == 0x13C

    @staticmethod
    def memory_leaf(depth: int):
        """A partition leaf whose 8-bit memory logs a running count."""
        b = ModuleBuilder("leaf")
        en = b.input("en", 1)
        count = b.reg("count", 8)
        b.next(count, mux(en, count + 1, count))
        mem = b.memory("mem", 8, depth,
                       init={i: (i * 7 + 1) & 0xFF for i in range(depth)})
        addr = count[depth.bit_length() - 2:0]
        b.write_port(mem, addr, count, en)
        b.output_expr("out", b.read_port(mem, "q", addr))
        return b.build()

    @pytest.mark.parametrize("old_depth,new_depth", [(16, 32), (32, 16)])
    def test_reload_resizes_a_surviving_memory(self, old_depth, new_depth):
        from repro.debug import ReadbackEngine

        b = ModuleBuilder("memtop")
        en = b.input("en", 1)
        leaf = b.instantiate(self.memory_leaf(old_depth), "iterated",
                             inputs={"en": en})
        b.output_expr("out", leaf["out"])
        device = make_test_device()
        vti = VtiFlow(device)
        initial = vti.compile_initial(
            b.build(), {"clk": 100.0}, [PartitionSpec("iterated")],
            debug_slr=0)
        fabric = FabricDevice(device)
        fabric.expect(initial.database)
        fabric.jtag.run(initial.base.bitstream)
        fabric.sim.poke("en", 1)
        fabric.run(40)
        before = list(fabric.sim.memories["iterated.mem"])

        incr = vti.compile_incremental(
            initial, "iterated", self.memory_leaf(new_depth))
        fabric.expect(incr.database)
        fabric.jtag.run(incr.partial_bitstream)
        live = fabric.sim.memories["iterated.mem"]
        kept = min(old_depth, new_depth)
        assert len(live) == new_depth
        assert live[:kept] == before[:kept]
        assert live[kept:] == [(i * 7 + 1) & 0xFF
                               for i in range(kept, new_depth)]

        fabric.run(40)  # every address of the new depth is written
        read, _seconds = ReadbackEngine(fabric).read_memories()
        assert read["iterated.mem"] == fabric.sim.memories["iterated.mem"]

    def test_partial_bitstream_much_smaller_than_full(self):
        device = make_test_device()
        top, _leaf = self.build_two_counter_top()
        vti = VtiFlow(device)
        initial = vti.compile_initial(
            top, {"clk": 100.0}, [PartitionSpec("iterated")],
            debug_slr=0)
        incr = vti.compile_incremental(initial, "iterated")
        assert incr.partial_bitstream is not None
        assert initial.base.bitstream is not None


class TestVersioning:
    """Chained incrementals must version monotonically (regression: every
    recompile used to get ``initial.version + 1``, colliding on version
    and database name)."""

    def build_top(self):
        leaf_b = ModuleBuilder("leaf")
        en = leaf_b.input("en", 1)
        count = leaf_b.reg("count", 8)
        leaf_b.next(count, mux(en, count + 1, count))
        leaf_b.output_expr("out", count)
        b = ModuleBuilder("vtop")
        en = b.input("en", 1)
        refs = b.instantiate(leaf_b.build(), "iterated",
                             inputs={"en": en})
        b.output_expr("o", refs["out"])
        return b.build()

    def test_chained_incrementals_version_monotonically(self):
        vti = VtiFlow(make_test_device(), cache=None)
        initial = vti.compile_initial(
            self.build_top(), {"clk": 100.0},
            [PartitionSpec("iterated")], debug_slr=0)
        assert initial.database is not None
        versions, names = [], []
        for _ in range(3):
            incr = vti.compile_incremental(initial, "iterated")
            versions.append(incr.version)
            names.append(incr.database.name)
        assert versions == [1, 2, 3]
        assert names == [f"{initial.database.name}.v{v}"
                         for v in versions]
        assert len(set(names)) == 3

    def test_distinct_versions_get_distinct_partial_bitstreams(self):
        """Frame content derives from the database name, so colliding
        versions would silently reprogram identical frames."""
        vti = VtiFlow(make_test_device(), cache=None)
        initial = vti.compile_initial(
            self.build_top(), {"clk": 100.0},
            [PartitionSpec("iterated")], debug_slr=0)
        first = vti.compile_incremental(initial, "iterated")
        second = vti.compile_incremental(initial, "iterated")
        assert first.partial_bitstream != second.partial_bitstream

    def test_cached_recompile_still_advances_version(self):
        vti = VtiFlow(make_test_device(), cache=CompileCache())
        initial = vti.compile_initial(
            self.build_top(), {"clk": 100.0},
            [PartitionSpec("iterated")], debug_slr=0)
        first = vti.compile_incremental(initial, "iterated")
        second = vti.compile_incremental(initial, "iterated")
        assert not first.cache_hit and second.cache_hit
        assert (first.version, second.version) == (1, 2)
        assert second.database.name.endswith(".v2")


class TestParallelRecompiles:
    """Section 3.5: partition compiles run in parallel, one shared link."""

    def test_many_partitions_share_the_link(self):
        from repro.fpga import make_u200
        soc = make_manycore_soc(5400)
        vti = VtiFlow(make_u200())
        initial = vti.compile_initial(
            soc, {"clk": 50.0},
            [PartitionSpec(f"tile{i}.core0") for i in range(4)])
        results, wall = vti.compile_incremental_many(
            initial, {f"tile{i}.core0": None for i in range(4)})
        assert len(results) == 4
        serial = sum(r.total_seconds for r in results)
        # Parallel wall time is far below serial, and only slightly
        # above a single partition's recompile (the shared link).
        assert wall < serial / 2
        single = results[0].total_seconds
        assert wall < single * 1.6

    def test_empty_change_set_rejected(self):
        from repro.fpga import make_u200
        soc = make_manycore_soc(5400)
        vti = VtiFlow(make_u200())
        initial = vti.compile_initial(
            soc, {"clk": 50.0}, [PartitionSpec("tile0.core0")])
        with pytest.raises(PartitionError):
            vti.compile_incremental_many(initial, {})


class TestSchedulerCoverage:
    """compile_incremental_many: exact wall-clock math, deterministic
    ordering, and the PartitionError paths."""

    @pytest.fixture(scope="class")
    def many_initial(self):
        soc = make_manycore_soc(5400)
        vti = VtiFlow(make_u200(), cache=None)
        initial = vti.compile_initial(
            soc, {"clk": 50.0},
            [PartitionSpec(f"tile{i}.core0") for i in range(3)])
        return vti, initial

    def test_wall_is_max_partition_plus_single_link(self, many_initial):
        vti, initial = many_initial
        results, wall = vti.compile_incremental_many(
            initial, {f"tile{i}.core0": None for i in range(3)})
        expected = max(
            r.total_seconds - r.seconds["link"] for r in results
        ) + max(r.seconds["link"] for r in results)
        assert wall == expected  # exact, not approximate

    def test_results_sorted_by_partition_path(self, many_initial):
        vti, initial = many_initial
        results, _wall = vti.compile_incremental_many(
            initial, {"tile2.core0": None, "tile0.core0": None})
        assert [r.partition_path for r in results] \
            == ["tile0.core0", "tile2.core0"]

    def test_region_overflow_raises_in_parallel_and_serial(
            self, many_initial):
        vti, initial = many_initial
        core = initial.split.partition("tile0.core0").module
        big = make_oversized_clone(core)
        with pytest.raises(PartitionError):
            vti.compile_incremental_many(
                initial, {"tile0.core0": big, "tile1.core0": None})

    def test_serial_mode_shares_the_link_too(self, many_initial):
        vti, initial = many_initial
        results, wall = vti.compile_incremental_many(
            initial, {f"tile{i}.core0": None for i in range(2)})
        assert wall < sum(r.total_seconds for r in results)
        assert wall == max(
            r.total_seconds - r.seconds["link"] for r in results
        ) + max(r.seconds["link"] for r in results)
