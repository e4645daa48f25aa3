"""Differential tests: the compiled capture plan against a per-bit oracle.

The oracle below is the per-bit formulation of every frame <-> state
conversion, written straight from the :class:`LLEntry` rows and
:meth:`MemoryPlacement.locate_bit`: GCAPTURE, GRESTORE, GSR,
content-frame writes, readback parsing, and memory readback and writes.
Each campaign design plus Ariane runs through both with random register
values and memory contents, and so does a purpose-built database whose
memory words straddle two content frames and whose state spans two
clock regions.
"""

import random

import pytest

from repro.bitstream import BitstreamAssembler
from repro.campaign.designs import (
    DESIGN_NAMES,
    CampaignDesign,
    campaign_design,
    compile_design,
    launch_session,
)
from repro.campaign.harness import CLOCKS_MHZ
from repro.config import DesignDatabase, FabricDevice, LLEntry, LogicLocationFile
from repro.config.capture_plan import capture_plan
from repro.debug import ZoomieDebugger, parse_capture_frames
from repro.debug.controller import DebugControllerSpec, InstrumentedDesign
from repro.designs import make_ariane_core
from repro.designs.ariane import healthy_program
from repro.errors import ConfigError
from repro.fpga.device import BRAM, CLB, CLBM, REGION_ROWS, Column, Device, Slr
from repro.fpga.frames import BLOCK_BRAM, FRAME_WORDS, FrameAddress, FrameSpace
from repro.rtl import ModuleBuilder, elaborate, mux
from repro.vendor.place import MemoryPlacement

# --------------------------------------------------------------------------
# the per-bit oracle
# --------------------------------------------------------------------------


def _bit(frame, offset: int) -> int:
    if frame is None:
        return 0
    return (frame[offset // 32] >> (offset % 32)) & 1


def _put(frame: list[int], offset: int, value: int) -> None:
    word, shift = divmod(offset, 32)
    if value:
        frame[word] |= 1 << shift
    else:
        frame[word] &= ~(1 << shift)


def _enabled(regions, region: int) -> bool:
    return regions is None or region in regions


def _widths(netlist) -> dict[str, int]:
    out = {name: reg.width for name, reg in netlist.registers.items()}
    out.update(netlist.sync_read_outputs())
    return out


_LOCATIONS: dict = {}


def _locations(db, name: str) -> list[list[tuple[FrameAddress, int]]]:
    """(frame, offset) of every bit of every word of one memory."""
    key = (id(db), name)
    if key not in _LOCATIONS:
        placement = db.memory_map[name]
        space = FrameSpace(db.device.slr(placement.slr))
        memory = db.netlist.memories[name]
        _LOCATIONS[key] = [
            [placement.locate_bit(space, index * memory.width + bit)
             for bit in range(memory.width)]
            for index in range(memory.depth)]
    return _LOCATIONS[key]


def _word(frames, locations) -> int:
    return sum(_bit(frames.get(address), offset) << bit
               for bit, (address, offset) in enumerate(locations))


def oracle_capture(db, slr, store, values, memories, regions) -> None:
    for entry in db.ll.entries:
        if entry.slr == slr and _enabled(regions, entry.frame.region):
            frame = store.setdefault(entry.frame, [0] * FRAME_WORDS)
            _put(frame, entry.offset, (values[entry.name] >> entry.bit) & 1)
    for name, placement in db.memory_map.items():
        if placement.slr != slr:
            continue
        first = _locations(db, name)[0][0][0]
        if not _enabled(regions, first.region):
            continue
        for word, locations in zip(memories[name], _locations(db, name)):
            for bit, (address, offset) in enumerate(locations):
                frame = store.setdefault(address, [0] * FRAME_WORDS)
                _put(frame, offset, (word >> bit) & 1)


def oracle_restore(db, slr, store, values, regions) -> dict[str, int]:
    out = dict(values)
    for entry in db.ll.entries:
        if entry.slr == slr and _enabled(regions, entry.frame.region):
            kept = out[entry.name] & ~(1 << entry.bit)
            out[entry.name] = kept \
                | _bit(store.get(entry.frame), entry.offset) << entry.bit
    widths = _widths(db.netlist)
    return {name: value & ((1 << widths[name]) - 1)
            for name, value in out.items()}


def oracle_gsr(db, slr, values, regions) -> dict[str, int]:
    out = dict(values)
    for entry in db.ll.entries:
        register = db.netlist.registers.get(entry.name)
        if register is not None and entry.slr == slr \
                and _enabled(regions, entry.frame.region):
            out[entry.name] = register.init & ((1 << register.width) - 1)
    return out


def oracle_content_frame(db, slr, store, memories, address):
    out = {name: list(words) for name, words in memories.items()}
    for name, placement in db.memory_map.items():
        if placement.slr != slr:
            continue
        for index, locations in enumerate(_locations(db, name)):
            if any(frame == address for frame, _ in locations):
                out[name][index] = _word(store, locations)
    return out


def oracle_parse(frames, ll, prefix="") -> dict[str, int]:
    values: dict[str, int] = {}
    have: dict[str, int] = {}
    for entry in (ll.entries_under(prefix) if prefix else ll.entries):
        frame = frames.get((entry.slr, entry.frame))
        if frame is None:
            continue
        values[entry.name] = values.get(entry.name, 0) \
            | _bit(frame, entry.offset) << entry.bit
        have[entry.name] = have.get(entry.name, 0) + 1
    total: dict[str, int] = {}
    for entry in ll.entries:
        total[entry.name] = total.get(entry.name, 0) + 1
    return {name: value for name, value in values.items()
            if have[name] == total[name]}


def oracle_write_memory(db, name, words) -> dict[FrameAddress, list[int]]:
    frames: dict[FrameAddress, list[int]] = {}
    for word, locations in zip(words, _locations(db, name)):
        for bit, (address, offset) in enumerate(locations):
            frame = frames.setdefault(address, [0] * FRAME_WORDS)
            if (word >> bit) & 1:
                _put(frame, offset, 1)
    return frames


# --------------------------------------------------------------------------
# sessions
# --------------------------------------------------------------------------


def _straddle_session():
    """A hand-placed database on a one-SLR, two-clock-region device.

    ``buf`` (20 x 201, BRAM) takes content frames 127 and 128 of its
    column, so its image crosses from region 0 into region 1, word 148
    straddles the two frames, and its last frame holds a partial word.
    ``lut`` (20 x 31, LUTRAM) lives in region 1 alone. Registers span
    frames, regions and word boundaries; ``rev`` is placed bit-reversed.
    """
    slr = Slr(index=0, rows=2 * REGION_ROWS, columns=(
        Column(0, CLB), Column(1, CLBM), Column(2, BRAM), Column(3, CLB)))
    device = Device(name="TEST1R2", part="xctest", idcode=0x0BAD_C0DE,
                    slrs=(slr,))
    b = ModuleBuilder("straddle")
    en = b.input("en", 1)
    count = b.reg("count", 8, init=3)
    b.next(count, mux(en, count + 1, count))
    widths = {"wide": 70, "split": 40, "rev": 12}
    for index in range(6):
        widths[f"bank{index}"] = 1 + 7 * index
    for name, width in widths.items():
        b.reg(name, width, init=(0x5A5A5A5A5A5A5A5A5A >> 3) % (1 << width))
    buf = b.memory("buf", 20, 201,
                   init={i: (i * 4099) & 0xFFFFF for i in range(201)})
    b.output_expr("q", b.read_port(buf, "buf_q", count, sync=True))
    lut = b.memory("lut", 20, 31)
    b.output_expr("l", b.read_port(lut, "lut_q", count[4:0]))
    netlist = elaborate(b.build())

    space = FrameSpace(slr)
    ll = LogicLocationFile()
    cursors: dict[tuple[int, int], int] = {}

    def place(name, bits, region, column):
        for bit in bits:
            slot = cursors.get((region, column), 0)
            cursors[(region, column)] = slot + 1
            frame, offset = space.ff_location(
                column, region * REGION_ROWS + slot // 16, slot % 16)
            ll.add(LLEntry(name, bit, 0, frame, offset))

    place("count", range(8), 0, 0)
    place("wide", range(35), 0, 0)
    place("wide", range(35, 70), 0, 3)
    place("split", range(20), 0, 0)
    place("split", range(20, 40), 1, 0)
    place("rev", reversed(range(12)), 1, 0)
    for index in range(6):
        place(f"bank{index}", range(widths[f"bank{index}"]),
              index % 2, 3 * (index // 3))
    place("buf_q", range(20), 1, 3)
    db = DesignDatabase(
        name="straddle", device=device, netlist=netlist, ll=ll,
        clocks={"clk": 1000}, frame_image={0: {}},
        memory_map={
            "buf": MemoryPlacement("buf", 0, 2, BRAM, 127, 20 * 201),
            "lut": MemoryPlacement("lut", 0, 1, CLBM, 12, 20 * 31)})
    fabric = FabricDevice(device)
    fabric.expect(db)
    fabric.jtag.run(BitstreamAssembler(device).preamble().startup().words)
    return fabric, parked_debugger(fabric)


def parked_debugger(fabric: FabricDevice) -> ZoomieDebugger:
    """A debugger on a design without a Debug Controller, its clocks
    parked on the global gates (the watchdog's safe pause), so the
    state verbs run."""
    debugger = ZoomieDebugger(fabric, InstrumentedDesign(
        netlist=fabric.db.netlist,
        spec=DebugControllerSpec(slots=[], assert_count=0),
        gate_signals={}, mut_domains=["clk"]))
    debugger._safe_pause()
    return debugger


_BUILDERS = {
    **{name: None for name in DESIGN_NAMES},
    "ariane": CampaignDesign(
        "ariane", lambda: make_ariane_core(healthy_program()), ("pc",)),
}
DESIGNS = [*_BUILDERS, "straddle"]
MEMORY_DESIGNS = ["serv", "manycore", "ariane", "straddle"]
PAIRS = [(name, slr) for name in DESIGNS
         for slr in ((0, 1) if name == "manycore" else (0,))]
MEMORY_PAIRS = [pair for pair in PAIRS if pair[0] in MEMORY_DESIGNS]
_SESSIONS: dict = {}


def session(name: str):
    """(fabric, paused debugger) of one design: built once, and its
    design state rewound to the first pause on every call."""
    if name not in _SESSIONS:
        if name == "straddle":
            fabric, debugger = _straddle_session()
        else:
            design = _BUILDERS[name] or campaign_design(name)
            fabric, debugger = launch_session(
                compile_design(design, CLOCKS_MHZ))
            debugger.pause()
        _SESSIONS[name] = (fabric, debugger, fabric.sim.snapshot())
    fabric, debugger, paused = _SESSIONS[name]
    fabric.sim.restore(paused)
    return fabric, debugger


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def randomize_state(fabric, rng) -> None:
    widths = _widths(fabric.db.netlist)
    for name in fabric.db.ll.by_register():
        fabric.sim.force(name, rng.getrandbits(widths[name]))
    for name, memory in fabric.db.netlist.memories.items():
        fabric.sim.memories[name][:] = [
            rng.getrandbits(memory.width) for _ in range(memory.depth)]


def state_values(fabric) -> dict[str, int]:
    return {name: fabric.sim.peek(name)
            for name in fabric.db.ll.by_register()}


def memories(fabric) -> dict[str, list[int]]:
    return {name: list(words) for name, words in fabric.sim.memories.items()}


def stored(config) -> dict[FrameAddress, list[int]]:
    return {address: config.read_frame(address)
            for address in config.written_frames()}


def plan_frames(fabric, slr) -> list[FrameAddress]:
    """Every capture and content frame the SLR's state touches."""
    db = fabric.db
    frames = {entry.frame for entry in db.ll.entries if entry.slr == slr}
    for name, placement in db.memory_map.items():
        if placement.slr == slr:
            frames.update(address for locations in _locations(db, name)
                          for address, _ in locations)
    return sorted(frames)


def scramble(fabric, slr, rng) -> None:
    """Reset the SLR's configuration to its image, then fill a random
    subset of the state frames with random words (the rest are never
    written)."""
    config = fabric.config[slr]
    config.clear()
    for address, words in fabric.db.frame_image.get(slr, {}).items():
        config.write_frame(address, words)
    for address in plan_frames(fabric, slr):
        if rng.random() < 0.6:
            config.write_frame(address, [rng.getrandbits(32)
                                         for _ in range(FRAME_WORDS)])
    config.take_dirty()


def masks(fabric, slr) -> list:
    regions = sorted({address.region for address in plan_frames(fabric, slr)})
    return [None] + [{region} for region in regions]


def awkward_words(rng, width: int, depth: int) -> list[int]:
    """Random words, some negative and some wider than the memory."""
    return [rng.choice((rng.getrandbits(width),
                        -1 - rng.getrandbits(width + 5),
                        rng.getrandbits(width + 9)))
            for _ in range(depth)]


# --------------------------------------------------------------------------
# the differential checks
# --------------------------------------------------------------------------


class TestAgainstPerBitOracle:
    @pytest.mark.parametrize("design,slr", PAIRS)
    def test_capture(self, design, slr):
        fabric, _ = session(design)
        rng = random.Random(f"capture:{design}:{slr}")
        for regions in masks(fabric, slr):
            randomize_state(fabric, rng)
            scramble(fabric, slr, rng)
            expected = stored(fabric.config[slr])
            oracle_capture(fabric.db, slr, expected, state_values(fabric),
                           memories(fabric), regions)
            fabric.capture(slr, regions)
            assert stored(fabric.config[slr]) == expected, regions

    @pytest.mark.parametrize("design,slr", PAIRS)
    def test_restore(self, design, slr):
        fabric, _ = session(design)
        rng = random.Random(f"restore:{design}:{slr}")
        for regions in masks(fabric, slr):
            randomize_state(fabric, rng)
            scramble(fabric, slr, rng)
            expected = oracle_restore(
                fabric.db, slr, stored(fabric.config[slr]),
                state_values(fabric), regions)
            fabric.restore(slr, regions)
            assert state_values(fabric) == expected, regions

    @pytest.mark.parametrize("design,slr", PAIRS)
    def test_gsr(self, design, slr):
        fabric, _ = session(design)
        rng = random.Random(f"gsr:{design}:{slr}")
        for regions in masks(fabric, slr):
            randomize_state(fabric, rng)
            expected = oracle_gsr(fabric.db, slr, state_values(fabric),
                                  regions)
            fabric.apply_gsr(slr, regions)
            assert state_values(fabric) == expected, regions

    @pytest.mark.parametrize("design,slr", MEMORY_PAIRS)
    def test_content_frames(self, design, slr):
        fabric, _ = session(design)
        rng = random.Random(f"content:{design}:{slr}")
        config = fabric.config[slr]
        randomize_state(fabric, rng)
        content = [address for address in plan_frames(fabric, slr)
                   if address.block_type == BLOCK_BRAM]
        unowned = next(address for address in config.space.frame_order
                       if address.block_type == BLOCK_BRAM
                       and address not in content)
        assert content
        for address in [*content, unowned]:
            config.write_frame(address, [rng.getrandbits(32)
                                         for _ in range(FRAME_WORDS)])
            expected = oracle_content_frame(
                fabric.db, slr, stored(config), memories(fabric), address)
            fabric.apply_content_frame(slr, address)
            assert memories(fabric) == expected, address

    @pytest.mark.parametrize("design", DESIGNS)
    def test_parse_capture_frames(self, design):
        fabric, _ = session(design)
        rng = random.Random(f"parse:{design}")
        ll = fabric.db.ll
        keys = sorted({(entry.slr, entry.frame) for entry in ll.entries})
        prefixes = ["", *sorted({name.split(".")[0]
                                 for name in ll.by_register()})]
        for keep in (1.0, 0.5):
            frames = {key: [rng.getrandbits(32) for _ in range(FRAME_WORDS)]
                      for key in keys if rng.random() < keep}
            for prefix in prefixes:
                assert parse_capture_frames(frames, ll, prefix) \
                    == oracle_parse(frames, ll, prefix), prefix

    @pytest.mark.parametrize("design", MEMORY_DESIGNS)
    def test_read_memories(self, design):
        fabric, debugger = session(design)
        assert fabric.db.memory_map
        randomize_state(fabric, random.Random(f"read:{design}"))
        live = memories(fabric)
        read, _seconds = debugger.engine.read_memories()
        assert read == {name: live[name] for name in fabric.db.memory_map}
        for name, placement in fabric.db.memory_map.items():
            frames = stored(fabric.config[placement.slr])
            assert read[name] == [_word(frames, locations)
                                  for locations in _locations(fabric.db,
                                                              name)]

    @pytest.mark.parametrize("design", MEMORY_DESIGNS)
    def test_write_memory(self, design):
        fabric, debugger = session(design)
        assert fabric.db.memory_map
        rng = random.Random(f"write:{design}")
        for name, placement in sorted(fabric.db.memory_map.items()):
            memory = fabric.db.netlist.memories[name]
            words = awkward_words(rng, memory.width, memory.depth)
            debugger.write_memory(name, words)
            config = fabric.config[placement.slr]
            expected = oracle_write_memory(fabric.db, name, words)
            assert {address: config.read_frame(address)
                    for address in expected} == expected, name
            mask = (1 << memory.width) - 1
            assert fabric.sim.memories[name] == [w & mask for w in words]

    @pytest.mark.parametrize("design", DESIGNS)
    def test_write_state_truncates_like_the_per_bit_edit(self, design):
        fabric, debugger = session(design)
        rng = random.Random(f"write_state:{design}")
        widths = _widths(fabric.db.netlist)
        names = rng.sample(sorted(fabric.db.ll.by_register()), 4)
        updates = {name: rng.choice((-1 - rng.getrandbits(widths[name]),
                                     rng.getrandbits(widths[name] + 9)))
                   for name in names}
        debugger.write_state(updates)
        located = fabric.db.ll.by_register()
        for name, value in updates.items():
            expected = sum(((value >> entry.bit) & 1) << entry.bit
                           for entry in located[name])
            assert fabric.sim.peek(name) == expected, name


# --------------------------------------------------------------------------
# build-time checks
# --------------------------------------------------------------------------


class TestPlanChecks:
    def tiny(self, entries, memory_map=None):
        device = Device(name="TEST1R1", part="xctest", idcode=0x0BAD_C0DE,
                        slrs=(Slr(index=0, rows=REGION_ROWS, columns=(
                            Column(0, CLB), Column(1, BRAM))),))
        b = ModuleBuilder("tiny")
        b.output_expr("o", b.reg("r", 8))
        b.memory("m", 8, 4)
        return DesignDatabase(
            name="tiny", device=device, netlist=elaborate(b.build()),
            ll=LogicLocationFile(entries), frame_image={0: {}},
            memory_map=memory_map or {})

    def entry(self, name="r", bit=0, offset=0, column=0):
        space = FrameSpace(Slr(index=0, rows=REGION_ROWS, columns=(
            Column(0, CLB), Column(1, BRAM))))
        frame, _ = space.ff_location(column, 0, 0)
        return LLEntry(name, bit, 0, frame, offset)

    def test_unknown_register_rejected(self):
        with pytest.raises(ConfigError, match="no register 'ghost'"):
            capture_plan(self.tiny([self.entry(name="ghost")]), 0)

    def test_shared_bit_position_rejected(self):
        db = self.tiny([self.entry(bit=0), self.entry(bit=1)])
        with pytest.raises(ConfigError, match="holds both"):
            capture_plan(db, 0)

    def test_twice_located_bit_rejected(self):
        db = self.tiny([self.entry(offset=0), self.entry(offset=1)])
        with pytest.raises(ConfigError, match="two locations"):
            capture_plan(db, 0)

    def test_frame_outside_the_space_rejected(self):
        from repro.errors import DeviceError
        with pytest.raises(DeviceError, match="no such column"):
            capture_plan(self.tiny([self.entry(column=9)]), 0)

    def test_memory_must_fill_its_placement(self):
        db = self.tiny([], {"m": MemoryPlacement("m", 0, 1, BRAM, 0,
                                                 FRAME_WORDS * 32 * 2)})
        with pytest.raises(ConfigError, match="content frames"):
            capture_plan(db, 0)


# --------------------------------------------------------------------------
# plan lifetime (partial reconfiguration: tests/test_vti.py)
# --------------------------------------------------------------------------


class TestPlanLifetime:
    def launch(self):
        return launch_session(
            compile_design(campaign_design("counters"), CLOCKS_MHZ))

    def test_captures_on_one_database_share_one_plan(self):
        fabric, _debugger = self.launch()
        fabric.capture(0, None)
        plan = capture_plan(fabric.db, 0)
        fabric.capture(0, None)
        fabric.restore(0, None)
        assert capture_plan(fabric.db, 0) is plan

    def test_an_added_entry_rebuilds_the_plan(self):
        fabric, _debugger = self.launch()
        plan = capture_plan(fabric.db, 0)
        entries = fabric.db.ll.by_register()["zoomie_dc.paused"]
        fabric.db.ll.add(LLEntry("zoomie_dc.paused", 1, 0,
                                 entries[0].frame, 1000))
        assert capture_plan(fabric.db, 0) is not plan

    def test_capture_after_power_cycle_reads_the_rebooted_design(self):
        fabric, debugger = self.launch()
        debugger.record_input("en", 1)
        debugger.run(max_cycles=30)
        debugger.pause()
        running = debugger.read_state().values
        fabric.power_cycle()
        rebooted = {name: fabric.sim.peek(name) for name in running}
        assert rebooted != running
        assert debugger.read_state(allow_running=True).values == rebooted
