"""CRC compatibility: every CRC runs ``zlib.crc32`` over packed bytes
instead of once per word, and gives the value the per-word loop gave.

So journals and snapshot objects written by the per-word code still
verify and read back, the transport's golden-channel CRC is unchanged,
and a full bitstream keeps its CRC word. The committed files under
``fixtures/crc_compat`` were written by the per-word code: a journaled
session on an 8-bit counter (poke, run 20, pause, snapshot ``mid``,
write ``count`` = 90, step 3, snapshot ``end``).
"""

import random
import shutil
import zlib
from pathlib import Path

import pytest

from repro import Zoomie, ZoomieProject
from repro.bitstream import WRITE, BitstreamAssembler, decode_stream
from repro.bitstream.crc import crc32_stream
from repro.bitstream.words import REGISTERS
from repro.debug import SnapshotStore, read_journal, recover_session
from repro.debug.journal import payload_crc
from repro.debug.recovery import JOURNAL_NAME, SNAPSHOT_DIR
from repro.designs import make_counter
from repro.fpga.device import make_test_device
from repro.fpga.frames import FRAME_WORDS

FIXTURE = Path(__file__).parent / "fixtures" / "crc_compat"
MID_KEY = "95e4c620da194b98ad1b45123190248bba1fdc7eb5f198a09b22ea71691812f6"
END_KEY = "3829da2729a73c2b8e3b02c0dd1273a1089e7a92044f0398bdb049fea56aec43"
#: The CRC word ``preamble().startup()`` emits on the test device.
STARTUP_CRC = 0x43C8A552


def per_word_crc(words):
    """The per-word loop :func:`crc32_stream` replaced."""
    crc = 0
    for word in words:
        crc = zlib.crc32((word & 0xFFFF_FFFF).to_bytes(4, "big"), crc)
    return crc & 0xFFFF_FFFF


def per_word_payload_crc(payload):
    """The word list :func:`payload_crc` used to build, per 4 bytes."""
    data = payload.encode("utf-8")
    return per_word_crc([int.from_bytes(data[i:i + 4].ljust(4, b"\0"),
                                        "little")
                         for i in range(0, len(data), 4)])


def per_word_write_crc(packets):
    """The assembler's old streaming accumulator over write packets."""
    crc = 0
    for packet in packets:
        if packet.opcode != WRITE:
            continue
        for word in packet.words:
            chunk = packet.register.to_bytes(1, "big") \
                + word.to_bytes(4, "big")
            crc = zlib.crc32(chunk, crc) & 0xFFFF_FFFF
    return crc


def emitted_crc(words):
    """The CRC word a stream writes, and every packet before it."""
    packets = list(decode_stream(words))
    index = next(i for i, p in enumerate(packets)
                 if p.opcode == WRITE and p.register == REGISTERS["CRC"])
    return packets[index].words, packets[:index]


class TestPinnedValues:
    def test_stream_crc(self):
        assert crc32_stream([]) == 0
        assert crc32_stream([0xAA995566]) == 0x924DC87E
        assert crc32_stream(list(range(93))) == 0xF305E258

    def test_payload_crc(self):
        assert payload_crc("zoomie") == 0x351655F0
        assert payload_crc('{"args":{},"command":"pause","index":0}') \
            == 0x73F26B0D

    def test_startup_crc_word(self):
        asm = BitstreamAssembler(make_test_device()).preamble().startup()
        assert emitted_crc(asm.words)[0] == [STARTUP_CRC]


class TestAgainstPerWordLoop:
    @pytest.mark.parametrize("count", [0, 1, 93, 4082])
    def test_random_words(self, count):
        rng = random.Random(count)
        words = [rng.getrandbits(32) for _ in range(count)]
        assert crc32_stream(words) == per_word_crc(words)

    @pytest.mark.parametrize("length", range(12))
    def test_utf8_payloads_of_every_length_mod_4(self, length):
        rng = random.Random(length)
        for _ in range(20):
            payload = "".join(rng.choice("az{}\":,é€") for _ in
                              range(length + rng.randrange(4) * 4))
            assert payload_crc(payload) == per_word_payload_crc(payload)

    def test_bitstream_crc_word_over_frames(self):
        rng = random.Random(7)
        device = make_test_device()
        asm = BitstreamAssembler(device).preamble()
        asm.hop_to_slr(1)
        asm.write_idcode()
        asm.write_register("FDRI", [rng.getrandbits(32)
                                    for _ in range(3 * FRAME_WORDS)])
        asm.write_register("MASK", [rng.getrandbits(32)])
        asm.hop_to_slr(device.primary_slr)
        asm.startup()
        [word], before = emitted_crc(asm.words)
        assert word == per_word_write_crc(before)


class TestOutOfRangeWords:
    @pytest.mark.parametrize("word", [-1, 1 << 32])
    def test_stream_crc_raises(self, word):
        with pytest.raises(OverflowError):
            crc32_stream([0, word])

    @pytest.mark.parametrize("word", [-1, 1 << 32])
    def test_assembler_write_raises(self, word):
        asm = BitstreamAssembler(make_test_device())
        with pytest.raises(OverflowError):
            asm.write_register("FDRI", [0, word])


def launch_counter():
    project = ZoomieProject(design=make_counter(width=8), device="TEST2",
                            clocks={"clk": 100.0}, watch=["out"])
    return Zoomie(project).launch()


@pytest.fixture()
def written_before(tmp_path):
    """A copy of the fixture session directory (recovery may write)."""
    root = tmp_path / "session"
    shutil.copytree(FIXTURE, root)
    return root


class TestFilesWrittenByPerWordCode:
    def test_journal_verifies(self, written_before):
        records, torn = read_journal(written_before / JOURNAL_NAME)
        assert not torn
        assert [r.command for r in records] == [
            "poke_input", "run", "pause", "snapshot", "write_state",
            "step", "snapshot"]

    def test_snapshots_verify_and_read_back(self, written_before):
        store = SnapshotStore(written_before / SNAPSHOT_DIR)
        for key in (MID_KEY, END_KEY):
            assert store.verify(key) is None
            assert store.get(key).content_key() == key
        assert store.get(END_KEY).values["count"] == 93

    @pytest.mark.parametrize("full_replay", [False, True])
    def test_replay_lands_on_the_journaled_state(self, written_before,
                                                 full_replay):
        session = launch_counter()
        report = recover_session(session.debugger, written_before,
                                 reattach=False, full_replay=full_replay)
        assert report.final_key == END_KEY
        if full_replay:
            assert report.snapshots_checked == 2
        else:
            assert report.base_index == 6
