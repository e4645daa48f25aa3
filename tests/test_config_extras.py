"""Tests for configuration-plane utilities: logic location files,
program builders, frame addressing, and the analytic cost helpers."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.config import LLEntry, LogicLocationFile
from repro.config.program import (
    build_full_bitstream,
    build_partial_bitstream,
    build_state_write,
    slr_config_order,
)
from repro.errors import DebugError, DeviceError
from repro.fpga import (
    FRAME_WORDS,
    ConfigMemory,
    FrameAddress,
    FrameSpace,
    make_test_device,
    make_u200,
    make_u250,
)
from repro.fpga.frames import BLOCK_BRAM, BLOCK_MAIN, CAPTURE_MINOR


class TestFrameAddress:
    def test_pack_unpack_roundtrip(self):
        address = FrameAddress(block_type=1, region=5, column=99, minor=14)
        assert FrameAddress.from_word(address.to_word()) == address

    @given(st.integers(0, 7), st.integers(0, 127),
           st.integers(0, 1023), st.integers(0, 127))
    def test_roundtrip_property(self, block, region, column, minor):
        address = FrameAddress(block, region, column, minor)
        assert FrameAddress.from_word(address.to_word()) == address

    def test_ordering_is_far_order(self):
        a = FrameAddress(0, 0, 0, 1)
        b = FrameAddress(0, 0, 1, 0)
        c = FrameAddress(1, 0, 0, 0)
        assert a < b < c

    def test_str_is_readable(self):
        assert "main" in str(FrameAddress(BLOCK_MAIN, 0, 3, 15))
        assert "bram" in str(FrameAddress(BLOCK_BRAM, 0, 3, 15))


class TestFrameSpace:
    def test_frame_count_matches_enumeration(self):
        space = FrameSpace(make_test_device().slr(0))
        assert space.frame_count() == len(list(space.frames()))

    def test_u200_slr_frame_count_scale(self):
        space = FrameSpace(make_u200().slr(0))
        # Main block: 103 CLB cols x 16 + 8 BRAM cols x 6, x 8 regions.
        # Content block: 8 BRAM cols x 128 + 51 SLICEM cols x 12, x 8
        # (103 logic columns alternate CLB/CLBM starting with CLB).
        expected = (103 * 16 + 8 * 6) * 8 \
            + (8 * 128 + 51 * 12) * 8
        assert space.frame_count() == expected

    def test_validate_rejects_bad_minor(self):
        space = FrameSpace(make_test_device().slr(0))
        with pytest.raises(DeviceError):
            space.validate(FrameAddress(BLOCK_MAIN, 0, 0, 99))

    def test_ff_location_is_stable_and_unique(self):
        space = FrameSpace(make_test_device().slr(0))
        seen = set()
        for row in range(10):
            for slot in range(16):
                frame, bit = space.ff_location(0, row, slot)
                assert (frame, bit) not in seen
                seen.add((frame, bit))
                assert frame.minor == CAPTURE_MINOR


class TestConfigMemory:
    def make(self):
        return ConfigMemory(FrameSpace(make_test_device().slr(0)))

    def test_unwritten_frames_read_zero(self):
        memory = self.make()
        address = FrameAddress(BLOCK_MAIN, 0, 0, 0)
        assert memory.read_frame(address) == [0] * FRAME_WORDS

    def test_write_read_roundtrip(self):
        memory = self.make()
        address = FrameAddress(BLOCK_MAIN, 0, 0, 1)
        words = list(range(FRAME_WORDS))
        memory.write_frame(address, words)
        assert memory.read_frame(address) == words

    def test_dirty_tracking(self):
        memory = self.make()
        address = FrameAddress(BLOCK_MAIN, 0, 0, 0)
        memory.write_frame(address, [0] * FRAME_WORDS)
        assert address in memory.dirty
        taken = memory.take_dirty()
        assert taken == {address}
        assert not memory.dirty


class TestLogicLocationFile:
    def make_entry(self, name="a.b.reg", bit=3, slr=1):
        return LLEntry(name=name, bit=bit, slr=slr,
                       frame=FrameAddress(BLOCK_MAIN, 2, 7, CAPTURE_MINOR),
                       offset=123)

    def test_line_roundtrip(self):
        entry = self.make_entry()
        assert LLEntry.from_line(entry.to_line()) == entry

    def test_malformed_line_rejected(self):
        with pytest.raises(DebugError):
            LLEntry.from_line("garbage line")

    def test_dump_parse_roundtrip(self):
        ll = LogicLocationFile([
            self.make_entry("x.r", bit, slr=0) for bit in range(8)
        ])
        out = io.StringIO()
        ll.dump(out)
        parsed = LogicLocationFile.parse(io.StringIO(out.getvalue()))
        assert len(parsed) == 8
        assert parsed.by_register()["x.r"][0].bit == 0

    def test_prefix_filtering(self):
        ll = LogicLocationFile([
            self.make_entry("core.lsu.q"),
            self.make_entry("core.mmu.tlb"),
            self.make_entry("corex.other"),
        ])
        names = {e.name for e in ll.entries_under("core")}
        assert names == {"core.lsu.q", "core.mmu.tlb"}

    def test_queries(self):
        ll = LogicLocationFile([self.make_entry(slr=2)])
        assert ll.slrs_used() == {2}
        assert ll.columns_used(2) == {7}
        assert ll.regions_used(2) == {2}
        assert ll.columns_used(0) == set()


def _tiny_db():
    from repro.config import DesignDatabase
    from repro.designs import make_counter
    from repro.rtl import elaborate

    device = make_test_device()
    netlist = elaborate(make_counter(8))
    ll = LogicLocationFile()
    space = FrameSpace(device.slr(0))
    for bit in range(8):
        frame, offset = space.ff_location(0, 0, bit)
        ll.add(LLEntry(name="count", bit=bit, slr=0,
                       frame=frame, offset=offset))
    return DesignDatabase(
        name="tiny", device=device, netlist=netlist, ll=ll,
        clocks={"clk": 1000},
        frame_image={0: {}, 1: {}})


class TestProgramBuilders:
    def test_config_order_starts_at_primary(self):
        db = _tiny_db()
        order = slr_config_order(db)
        assert order[0] == db.device.primary_slr
        assert sorted(order) == list(range(db.device.slr_count))

    def test_full_bitstream_structure(self):
        from repro.bitstream import analyze_bitstream
        db = _tiny_db()
        words = build_full_bitstream(db)
        analysis = analyze_bitstream(words)
        # One section per SLR plus the wrap-back for startup.
        assert len(analysis.sections) == db.device.slr_count + 1
        assert "START" in analysis.sections[-1].commands

    def test_partial_bitstream_has_shutdown_and_mask(self):
        from repro.bitstream import analyze_bitstream
        db = _tiny_db()
        frame = FrameAddress(BLOCK_MAIN, 0, 0, 0)
        words = build_partial_bitstream(
            db, 0, {frame: [0] * FRAME_WORDS}, region_mask=0b1)
        analysis = analyze_bitstream(words)
        commands = [c for s in analysis.sections for c in s.commands]
        assert "SHUTDOWN" in commands
        assert "START" in commands
        registers = [r for s in analysis.sections
                     for r in s.registers_written]
        assert "MASK" in registers

    def test_state_write_sequence(self):
        from repro.bitstream import analyze_bitstream
        db = _tiny_db()
        frame = FrameAddress(BLOCK_MAIN, 0, 0, CAPTURE_MINOR)
        words = build_state_write(db, 0, {frame: [0] * FRAME_WORDS})
        analysis = analyze_bitstream(words)
        commands = [c for s in analysis.sections for c in s.commands]
        assert "GRESTORE" in commands
        assert "WCFG" in commands


class TestDeviceCatalog:
    def test_u200_and_u250_slr_counts(self):
        assert make_u200().slr_count == 3
        assert make_u250().slr_count == 4

    def test_u200_totals_near_official(self):
        totals = make_u200().totals()
        assert abs(totals["LUT"] - 1_182_240) / 1_182_240 < 0.02
        assert abs(totals["FF"] - 2_364_480) / 2_364_480 < 0.02
        assert abs(totals["BRAM"] - 2_160) / 2_160 < 0.08

    def test_catalog_lookup(self):
        from repro.fpga import get_device
        assert get_device("U200").name == "U200"
        assert get_device("TEST3").slr_count == 3
        with pytest.raises(DeviceError):
            get_device("NOPE")

    def test_utilization_rejects_unknown_kind(self):
        with pytest.raises(DeviceError):
            make_u200().utilization({"URAM": 5})

    def test_primary_is_middle_slr(self):
        # Table 3: "SLR 1, which controls the other two SLRs".
        assert make_u200().primary_slr == 1
