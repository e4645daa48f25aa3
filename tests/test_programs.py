"""The debugger's JTAG programs (:class:`repro.config.program.SlrProgram`)
send, word for word, what the assembler sequences they replace sent.

The oracles below are those sequences, written out with
:class:`~repro.bitstream.BitstreamAssembler` as the readback engine, the
debugger's register writes and its memory writes built them. Each
program runs on two identically booted fabrics, one per side, and the
ring must charge the same modeled seconds and return the same words.
"""

import hashlib
import json
import random

import pytest

from repro.bitstream import BitstreamAssembler
from repro.config import (
    DesignDatabase,
    FabricDevice,
    LLEntry,
    LogicLocationFile,
)
from repro.config.program import (
    SlrProgram,
    build_full_bitstream,
    build_state_write,
)
from repro.designs import make_counter
from repro.errors import BitstreamError
from repro.fpga import FRAME_WORDS, FrameSpace, make_test_device
from repro.fpga.frames import BLOCK_BRAM, BLOCK_MAIN, CAPTURE_MINOR
from repro.rtl import elaborate


def oracle_capture_readback(device, slr, runs):
    asm = BitstreamAssembler(device)
    asm.preamble()
    asm.hop_to_slr(slr)
    asm.clear_mask()
    asm.capture()
    for start, count in runs:
        asm.read_frames(start, count)
    asm.command("DESYNC").dummy(2)
    return asm.words


def oracle_state_write(device, slr, frames):
    asm = BitstreamAssembler(device)
    asm.preamble()
    asm.hop_to_slr(slr)
    asm.clear_mask()
    asm.command("WCFG")
    for address in sorted(frames):
        asm.write_register("FAR", [address.to_word()])
        asm.write_register("FDRI", list(frames[address]))
    asm.restore()
    asm.command("DESYNC").dummy(2)
    return asm.words


def oracle_memory_write(device, slr, frames):
    asm = BitstreamAssembler(device)
    asm.preamble()
    asm.hop_to_slr(slr)
    asm.command("WCFG")
    for address in sorted(frames):
        asm.write_register("FAR", [address.to_word()])
        asm.write_register("FDRI", list(frames[address]))
    asm.command("DESYNC").dummy(2)
    return asm.words


def booted_fabric(device):
    """A fabric running an 8-bit counter whose register bits sit in one
    capture frame of SLR 0 (every other SLR holds no state)."""
    netlist = elaborate(make_counter(8))
    ll = LogicLocationFile()
    space = FrameSpace(device.slr(0))
    for bit in range(8):
        frame, offset = space.ff_location(0, 0, bit)
        ll.add(LLEntry(name="count", bit=bit, slr=0, frame=frame,
                       offset=offset))
    db = DesignDatabase(
        name="counter", device=device, netlist=netlist, ll=ll,
        clocks={"clk": 1000},
        frame_image={slr: {} for slr in range(device.slr_count)})
    fabric = FabricDevice(device)
    fabric.expect(db)
    fabric.jtag.run(build_full_bitstream(db))
    fabric.sim.poke("en", 1)
    fabric.run(5)
    return fabric


def capture_frames(space):
    return [address for address in space.frame_order
            if address.block_type == BLOCK_MAIN
            and address.minor == CAPTURE_MINOR]


def content_frames(space):
    return [address for address in space.frame_order
            if address.block_type == BLOCK_BRAM]


def frame_words(rng):
    return [rng.getrandbits(32) for _ in range(FRAME_WORDS)]


def cases(device, slr):
    """(name, oracle words, builder words) for every program kind."""
    rng = random.Random(f"{device.name}:{slr}")
    space = FrameSpace(device.slr(slr))
    order = space.frame_order
    captures = capture_frames(space)
    contents = content_frames(space)
    program = SlrProgram(device, slr)
    runs = {
        "one run": [(captures[0], 1)],
        "several runs": [(address, 1) for address in captures[:3]],
        "runs of count > 1": [(order[0], 3), (order[20], 2),
                              (order[40], 30)],
        "memory readback": [(contents[0], 4), (contents[10], 1)],
    }
    out = [(f"capture+FDRO, {name}", oracle_capture_readback(
                device, slr, value), program.capture_readback(value))
           for name, value in runs.items()]
    for count in (1, 2, 3):
        frames = {address: frame_words(rng)
                  for address in reversed(captures[:count])}
        assert list(frames) != sorted(frames) or count == 1
        out.append((f"state write, {count} frame(s)",
                    oracle_state_write(device, slr, frames),
                    program.state_write(frames)))
    frames = {address: tuple(frame_words(rng))
              for address in reversed(contents[:3])}
    out.append(("memory write", oracle_memory_write(device, slr, frames),
                program.memory_write(frames)))
    return out


DEVICE_SLRS = [(slr_count, slr) for slr_count in (1, 2, 3)
               for slr in range(slr_count)]


@pytest.mark.parametrize("slr_count,slr", DEVICE_SLRS)
def test_programs_match_the_assembler(slr_count, slr):
    device = make_test_device(slr_count)
    oracle_fabric = booted_fabric(device)
    built_fabric = booted_fabric(device)
    for name, oracle, built in cases(device, slr):
        assert isinstance(built, list), name
        assert built == oracle, name
        expected = oracle_fabric.jtag.run(oracle)
        got = built_fabric.jtag.run(built)
        assert got.seconds == expected.seconds, name
        assert got.read_words == expected.read_words, name
    assert oracle_fabric.sim.snapshot() == built_fabric.sim.snapshot()
    for expected, got in zip(oracle_fabric.config, built_fabric.config):
        assert {address: expected.stored(address)
                for address in expected.written_frames()} \
            == {address: got.stored(address)
                for address in got.written_frames()}


@pytest.mark.parametrize("slr_count,slr", DEVICE_SLRS)
def test_build_state_write_matches_the_assembler(slr_count, slr):
    device = make_test_device(slr_count)
    db = booted_fabric(device).db
    space = FrameSpace(device.slr(slr))
    rng = random.Random(slr_count)
    frames = {address: frame_words(rng)
              for address in reversed(capture_frames(space)[:3])}
    assert build_state_write(db, slr, frames) \
        == oracle_state_write(device, slr, frames)


def test_heads_are_built_once_per_fabric_slr():
    fabric = FabricDevice(make_test_device(3))
    assert fabric.program(2) is fabric.program(2)
    assert fabric.program(1) is not fabric.program(2)
    for slr in (-1, 3):
        with pytest.raises(BitstreamError):
            fabric.program(slr)


# --------------------------------------------------------------------------
# the pinned end-to-end drive
# --------------------------------------------------------------------------

#: sha256 over every batch one fixed drive sends (its words' sha256,
#: word count, ``repr`` of its modeled seconds and its read CRC) and
#: the final 2-SLR register and memory state. A change to the bitstream
#: codec, the debugger's programs, the ring, the microcontrollers or the
#: capture plan must leave every batch word for word as it was; a
#: change that means to move a batch updates this digest and says why.
PROGRAMS_DIGEST = (
    "5fb41f57fdd4dc858d6d000f7abc08ab5b91c91c39cbda0a6cc7abd5d2763826")


def drive_programs(monkeypatch) -> tuple[int, str]:
    """The ``cohort_session`` verb list (two rounds, seed 1) on the
    Cohort SoC, then ``read_state``/``restore``/``write_state`` on the
    2-SLR ``manycore``, whose ``core1`` sits on SLR 1 so secondary-SLR
    hop groups and content frames appear. Returns the batch count and
    the digest."""
    from repro import Zoomie, ZoomieProject
    from repro.campaign.designs import (
        campaign_design,
        compile_design,
        launch_session,
    )
    from repro.chaos.campaign import CLOCKS_MHZ
    from repro.config.jtag import JtagRing
    from repro.designs import make_cohort_soc

    def digest(value) -> str:
        return hashlib.sha256(json.dumps(value).encode()).hexdigest()

    record = []
    original = JtagRing.run

    def spy(self, words):
        result = original(self, words)
        record.append([digest(list(words)), len(words),
                       repr(result.seconds), result.read_crc])
        return result
    monkeypatch.setattr(JtagRing, "run", spy)

    session = Zoomie(ZoomieProject(
        design=make_cohort_soc(with_bug=True), device="TEST2",
        clocks={"clk": 100.0}, watch=["results", "issued"])).launch()
    dbg = session.debugger
    session.poke_input("en", 1)
    fix = {"lsu.store_pending": 0, "mmu.responding": 0, "mmu.busy": 0}
    rng = random.Random("cohort_session:1")
    for _ in range(2):
        dbg.run(rng.randint(20, 60))
        dbg.pause()
        dbg.read_state()
        dbg.read_state(prefix="mmu")
        dbg.step(rng.randint(1, 8))
        snap = dbg.snapshot()
        dbg.write_state(fix)
        dbg.step(rng.randint(1, 8))
        dbg.restore(snap)
        assert dbg.read_state().values == snap.values
        dbg.write_state(fix)
        dbg.resume()
        dbg.trace_capture(
            ("results", "issued", "lsu.store_pending", "mmu.busy"), 256)
        dbg.pause()
        issued = dbg.read("lsu.issued_count")
        dbg.write_state(fix)
        dbg.set_value_breakpoint(
            {"issued": (issued + rng.randint(1, 2)) & 0xFFFF})
        dbg.resume(clear_triggers=False)
        dbg.run(400)
        dbg.read("lsu.issued_count")
        dbg.clear_breakpoints()
        dbg.resume()

    fabric, dbg = launch_session(
        compile_design(campaign_design("manycore"), CLOCKS_MHZ))
    dbg.run(40)
    dbg.pause()
    snap = dbg.read_state()
    dbg.step(5)
    dbg.restore(snap)
    names = sorted(snap.values)
    dbg.write_state({names[0]: 1, names[-1]: 0, names[len(names) // 2]: 3})
    after = dbg.read_state()
    state = [digest(sorted(part.items()))
             for part in (after.values, after.memories)]
    return len(record), digest({"batches": record, "manycore_state": state})


def test_the_drive_sends_the_pinned_batches(monkeypatch):
    count, digest = drive_programs(monkeypatch)
    assert count == 89
    assert digest == PROGRAMS_DIGEST
