"""End-to-end configuration plane tests.

These reproduce the paper's Section 4.5 hypothesis-validation experiments
as executable checks: three constant registers constrained to different
SLRs, read back through the JTAG ring — IDCODE mutation is inert, BOUT
pulse counts select SLRs, and the U250's final SLR needs three pulses.
"""

import pytest

from repro.bitstream import BitstreamAssembler
from repro.config import DesignDatabase, FabricDevice, LLEntry, LogicLocationFile
from repro.config.database import synthesize_frame_words
from repro.errors import ConfigError, DeviceError, SimulationError
from repro.fpga import FRAME_WORDS, FrameAddress, make_test_device, make_u200, make_u250
from repro.fpga.frames import CAPTURE_MINOR, BLOCK_MAIN
from repro.rtl import ModuleBuilder, elaborate

#: The constants the three registers initialize to (one per SLR).
CONSTANTS = [0xA5, 0xB6, 0xC7, 0xD8]


def make_constant_design(device):
    """Paper 4.3: registers initialized to distinct constants, one
    constrained to each chiplet, optimizations off."""
    b = ModuleBuilder("slr_probe")
    for index in range(device.slr_count):
        reg = b.reg(f"r{index}", 8, init=CONSTANTS[index])
        b.output_expr(f"out{index}", reg)
    netlist = elaborate(b.build())

    ll = LogicLocationFile()
    frame_image: dict[int, dict] = {}
    for index in range(device.slr_count):
        space_column = device.slr(index).columns_of_kind("CLB", "CLBM")[0]
        for bit in range(8):
            frame = FrameAddress(
                block_type=BLOCK_MAIN, region=0,
                column=space_column.index, minor=CAPTURE_MINOR)
            ll.add(LLEntry(name=f"r{index}", bit=bit, slr=index,
                           frame=frame, offset=bit))
        # A couple of configuration frames per SLR form the image the
        # bitstream must deliver.
        config_frame = FrameAddress(
            block_type=BLOCK_MAIN, region=0,
            column=space_column.index, minor=0)
        frame_image[index] = {
            config_frame: synthesize_frame_words("slr_probe", config_frame)
        }
    return DesignDatabase(
        name="slr_probe", device=device, netlist=netlist, ll=ll,
        clocks={"clk": 1000}, frame_image=frame_image)


def full_config_stream(db, idcode_overrides=None):
    """A complete multi-SLR configuration program."""
    device = db.device
    asm = BitstreamAssembler(device)
    asm.preamble()
    order = [(device.primary_slr + hops) % device.slr_count
             for hops in range(device.slr_count)]
    overrides = idcode_overrides or {}
    for slr_index in order:
        asm.hop_to_slr(slr_index)
        asm.write_idcode(overrides.get(slr_index))
        for address, words in sorted(db.frame_image[slr_index].items()):
            asm.write_frames(address, [words])
    asm.hop_to_slr(device.primary_slr)
    asm.startup()
    return asm.words


def program(device_factory=make_u200, idcode_overrides=None):
    device = device_factory()
    db = make_constant_design(device)
    fabric = FabricDevice(device)
    fabric.expect(db)
    fabric.jtag.run(full_config_stream(db, idcode_overrides))
    return fabric


def readback_register_frame(fabric, hops, idcode_injection=None):
    """Capture + read the constant register's capture frame, addressing
    the ring with ``hops`` BOUT pulses (0 = stay at primary)."""
    device = fabric.device
    target = (device.primary_slr + hops) % device.slr_count
    column = device.slr(target).columns_of_kind("CLB", "CLBM")[0]
    asm = BitstreamAssembler(device)
    asm.preamble()
    for _ in range(hops):
        asm.write_register("BOUT", [])
    if hops:
        asm.dummy(4)
    if idcode_injection is not None:
        asm.write_idcode(idcode_injection)
    asm.clear_mask()
    asm.capture()
    asm.read_frames(
        FrameAddress(block_type=BLOCK_MAIN, region=0,
                     column=column.index, minor=CAPTURE_MINOR), 1)
    result = fabric.jtag.run(asm.words)
    assert len(result.read_words) == FRAME_WORDS
    return result.read_words[0] & 0xFF  # register bits sit at offset 0..7


class TestProgramming:
    def test_boot_requires_matching_frames(self):
        device = make_u200()
        db = make_constant_design(device)
        fabric = FabricDevice(device)
        fabric.expect(db)
        words = full_config_stream(db)
        # Corrupt one frame-data word.
        from repro.bitstream.words import REGISTERS
        from repro.bitstream.packets import decode_stream, WRITE
        corrupted = list(words)
        # Find an FDRI payload word and flip it.
        for index, word in enumerate(corrupted):
            if word not in (0xFFFF_FFFF, 0xAA99_5566) and index > 20:
                corrupted[index] ^= 0xFFFF
                break
        with pytest.raises(ConfigError):
            fabric.jtag.run(corrupted)

    def test_boot_succeeds_with_correct_stream(self):
        fabric = program()
        assert fabric.booted
        assert fabric.sim is not None

    def test_wrong_device_rejected(self):
        db = make_constant_design(make_u200())
        fabric = FabricDevice(make_u250())
        with pytest.raises(ConfigError):
            fabric.expect(db)

    def test_primary_idcode_enforced(self):
        with pytest.raises(ConfigError):
            program(idcode_overrides={make_u200().primary_slr: 0x1234})

    def test_secondary_idcode_not_enforced(self):
        """Paper 4.5: mutating secondary SLRs' device IDs changes nothing."""
        fabric = program(idcode_overrides={0: 0xDEAD, 2: 0xBEEF})
        assert fabric.booted


class TestSlrHypotheses:
    """The experiments of paper Sections 4.3-4.5, end to end."""

    def test_readback_without_bout_returns_primary(self):
        fabric = program()
        primary = fabric.device.primary_slr
        value = readback_register_frame(fabric, hops=0)
        assert value == CONSTANTS[primary]

    def test_idcode_injection_does_not_select_slr(self):
        """Bitfiltrator's hypothesis, falsified: injecting a different
        IDCODE still reads back the primary SLR's constant."""
        fabric = program()
        primary = fabric.device.primary_slr
        for injected in (0xDEAD_BEEF, 0x1111_1111):
            # Injecting random IDCODEs at the primary would trip its
            # check; the experiment injects *other SLRs'* codes, which on
            # our model (one shared part IDCODE) is the device code.
            value = readback_register_frame(
                fabric, hops=0, idcode_injection=fabric.device.idcode)
            assert value == CONSTANTS[primary]

    def test_bout_pulses_select_each_slr(self):
        fabric = program()
        device = fabric.device
        for hops in range(device.slr_count):
            target = (device.primary_slr + hops) % device.slr_count
            value = readback_register_frame(fabric, hops=hops)
            assert value == CONSTANTS[target], f"hops={hops}"

    def test_u250_final_slr_needs_three_pulses(self):
        """Paper 4.5 'Verifying Repetition Pattern' on the 4-SLR U250."""
        fabric = program(device_factory=make_u250)
        device = fabric.device
        final = (device.primary_slr + 3) % device.slr_count
        value = readback_register_frame(fabric, hops=3)
        assert value == CONSTANTS[final]

    def test_primary_readback_is_fastest(self):
        """Table 3's footnote: the primary SLR reads back slightly faster
        because secondaries pay ring-hop latency."""
        fabric = program()
        times = {}
        for hops in range(fabric.device.slr_count):
            asm_seconds_before = fabric.jtag.total_seconds
            readback_register_frame(fabric, hops=hops)
            times[hops] = fabric.jtag.total_seconds - asm_seconds_before
        assert times[0] < times[1] < times[2]


class TestStateTraffic:
    def test_capture_reflects_current_state(self):
        fabric = program()
        primary = fabric.device.primary_slr
        # Mutate the register in the data plane, then capture + read.
        fabric.sim.force(f"r{primary}", 0x3C)
        value = readback_register_frame(fabric, hops=0)
        assert value == 0x3C

    def test_restore_writes_state_back(self):
        fabric = program()
        primary = fabric.device.primary_slr
        db = fabric.db
        # Write a new value into the capture frame, then GRESTORE.
        entry = db.ll.entries_for_slr(primary)[0]
        memory = fabric.config[primary]
        words = memory.read_frame(entry.frame)
        words[0] = (words[0] & ~0xFF) | 0x5A
        memory.write_frame(entry.frame, words)
        asm = BitstreamAssembler(fabric.device)
        asm.preamble().clear_mask().restore()
        fabric.jtag.run(asm.words)
        assert fabric.sim.peek(f"r{primary}") == 0x5A

    def test_mask_restricts_capture_regions(self):
        """Section 4.7: a stale mask makes readback miss regions; Zoomie
        clears it first."""
        fabric = program()
        primary = fabric.device.primary_slr
        fabric.sim.force(f"r{primary}", 0x77)
        device = fabric.device
        column = device.slr(primary).columns_of_kind("CLB", "CLBM")[0]
        # Set the mask to a region that does NOT contain the register
        # (region 1), then capture: the capture frame stays stale.
        asm = BitstreamAssembler(device)
        asm.preamble()
        asm.write_register("MASK", [1 << 1])
        asm.capture()
        asm.read_frames(
            FrameAddress(block_type=BLOCK_MAIN, region=0,
                         column=column.index, minor=CAPTURE_MINOR), 1)
        result = fabric.jtag.run(asm.words)
        stale = result.read_words[0] & 0xFF
        assert stale != 0x77  # mask blocked the capture
        # Now clear the mask (Zoomie's fix) and repeat.
        fresh = readback_register_frame(fabric, hops=0)
        assert fresh == 0x77

    @staticmethod
    def counter_fabric(gate_signals=None):
        """A booted free-running counter; ``gate_signals`` may name its
        ``at3`` output (high while the count is 3) or ``toggle`` (a
        register on a second, ``free`` domain that flips every edge) as
        a gate request."""
        device = make_test_device()
        b = ModuleBuilder("counter")
        count = b.reg("count", 8)
        b.next(count, count + 1)
        b.output_expr("out", count)
        b.output_expr("at3", count.eq(3))
        toggle = b.reg("toggle", 1, clock="free")
        b.next(toggle, toggle.logical_not())
        netlist = elaborate(b.build())
        ll = LogicLocationFile()
        column = device.slr(0).columns_of_kind("CLB", "CLBM")[0]
        for bit in range(8):
            ll.add(LLEntry(
                name="count", bit=bit, slr=0,
                frame=FrameAddress(BLOCK_MAIN, 0, column.index,
                                   CAPTURE_MINOR),
                offset=bit))
        db = DesignDatabase(name="counter", device=device, netlist=netlist,
                            ll=ll, clocks={"clk": 1000, "free": 1000},
                            frame_image={0: {}, 1: {}},
                            gate_signals=dict(gate_signals or {}))
        fabric = FabricDevice(device)
        fabric.expect(db)
        asm = BitstreamAssembler(device)
        asm.preamble().startup()
        fabric.jtag.run(asm.words)
        return fabric, db

    def test_clock_gate_register_freezes_design(self):
        fabric, db = self.counter_fabric()
        device = fabric.device
        fabric.run(5)
        assert fabric.sim.peek("count") == 5
        gate_bit = db.domain_bits["clk"]
        asm2 = BitstreamAssembler(device)
        asm2.preamble().write_register("CLK_GATE", [1 << gate_bit])
        fabric.jtag.run(asm2.words)
        fabric.run(5)
        assert fabric.sim.peek("count") == 5  # frozen
        asm3 = BitstreamAssembler(device)
        asm3.preamble().write_register("CLK_GATE", [0])
        fabric.jtag.run(asm3.words)
        fabric.run(2)
        assert fabric.sim.peek("count") == 7

    def test_gate_request_rising_mid_run_gates_next_edge(self):
        fabric, _ = self.counter_fabric({"clk": "at3"})
        assert fabric.run(10) == 10
        assert fabric.sim.peek("count") == 3
        assert fabric.sim.is_gated("clk")
        assert fabric.sim.domains["clk"].edges_seen == 10

    def test_gate_request_falling_mid_run_ungates_next_edge(self):
        fabric, _ = self.counter_fabric({"clk": "toggle"})
        # The request alternates low/high, so clk commits every other
        # event: the fabric must notice each fall as well as each rise.
        assert fabric.run(10) == 10
        assert fabric.sim.peek("count") == 5
        assert fabric.sim.cycles("free") == 10

    def test_fabric_run_until_stops_before_the_event(self):
        fabric, _ = self.counter_fabric()
        assert fabric.run(10, until=("at3",)) == 3
        assert fabric.sim.peek("count") == 3
        assert fabric.run(10, until=("at3",)) == 0

    @pytest.mark.parametrize("gate_signals", [{}, {"clk": "at3"}])
    def test_negative_run_count_rejected(self, gate_signals):
        fabric, _ = self.counter_fabric(gate_signals)
        with pytest.raises(SimulationError, match="negative"):
            fabric.run(-3)
        assert fabric.sim.peek("count") == 0
        assert fabric.run(0) == 0


class TestFrameAddressTuple:
    """A frame address is a tuple of its four fields: it hashes,
    compares and sorts in C, in (block, region, column, minor) order."""

    def test_hash_and_equality_are_the_fields(self):
        address = FrameAddress(block_type=1, region=2, column=3, minor=4)
        assert address == FrameAddress(1, 2, 3, 4)
        assert hash(address) == hash(FrameAddress(1, 2, 3, 4)) \
            == hash((1, 2, 3, 4))
        assert address != FrameAddress(1, 2, 3, 5)
        assert {address: "capture"}[FrameAddress(1, 2, 3, 4)] == "capture"
        with pytest.raises(AttributeError):
            address.minor = 5

    def test_sort_order_is_block_region_column_minor(self):
        addresses = [FrameAddress(1, 0, 0, 0), FrameAddress(0, 1, 0, 0),
                     FrameAddress(0, 0, 1, 0), FrameAddress(0, 0, 0, 1),
                     FrameAddress(0, 0, 0, 0)]
        assert sorted(addresses) == [
            FrameAddress(0, 0, 0, 0), FrameAddress(0, 0, 0, 1),
            FrameAddress(0, 0, 1, 0), FrameAddress(0, 1, 0, 0),
            FrameAddress(1, 0, 0, 0)]
        # FAR order is tuple order.
        space = FabricDevice(make_test_device()).spaces[0]
        assert sorted(space.frame_order) == list(space.frame_order)

    def test_repr_and_str(self):
        address = FrameAddress(BLOCK_MAIN, 1, 2, 3)
        assert repr(address) \
            == "FrameAddress(block_type=0, region=1, column=2, minor=3)"
        assert str(address) == "main/R1/C2/M3"
        assert FrameAddress.from_word(address.to_word()) == address


class TestFarDecoding:
    """A FAR write decodes through the SLR geometry's FAR-word table;
    words the table lacks take the field decode, as before."""

    @staticmethod
    def fdro_stream(device, far_word, frames=1):
        asm = BitstreamAssembler(device)
        asm.preamble().command("RCFG")
        asm.write_register("FAR", [far_word])
        asm.read_register("FDRO", frames * FRAME_WORDS)
        return asm.words

    def test_every_frame_decodes_to_itself(self):
        space = FabricDevice(make_test_device()).spaces[0]
        for address in space.frame_order:
            decoded = space.frame_at_far[address.to_word()]
            assert decoded is address
            assert FrameAddress.from_word(address.to_word()) == decoded

    def test_reads_match_the_field_decode(self):
        fabric, _db = TestStateTraffic.counter_fabric()
        space = fabric.spaces[0]
        order = space.frame_order
        memory = fabric.config[0]
        for index, address in enumerate(order[:4]):
            memory.write_frame(address, [index + 1] * FRAME_WORDS)
        start = order[1].to_word()
        stray = start | 1 << 31  # outside every FAR field
        assert stray not in space.frame_at_far
        for word in (start, stray):
            words = fabric.jtag.run(
                self.fdro_stream(fabric.device, word, 2)).read_words
            assert list(words) == [2] * FRAME_WORDS + [3] * FRAME_WORDS
            assert fabric.mcs[0].far == order[3]

    def test_an_invalid_far_keeps_raising_device_errors(self):
        fabric, _db = TestStateTraffic.counter_fabric()
        bad = FrameAddress(BLOCK_MAIN, 0, 999, 0).to_word()
        with pytest.raises(DeviceError):
            fabric.jtag.run(self.fdro_stream(fabric.device, bad))
        asm = BitstreamAssembler(fabric.device)
        asm.preamble().read_register("FDRO", FRAME_WORDS)
        with pytest.raises(DeviceError):
            fabric.jtag.run(asm.words)

