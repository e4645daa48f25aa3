"""Tests for the bitstream codec, assembler, and analyzer."""

import pytest

from repro.bitstream import (
    DUMMY,
    SYNC,
    BitstreamAssembler,
    Packet,
    analyze_bitstream,
    decode_stream,
    encode_packet,
)
from repro.bitstream.packets import NOP, READ, WRITE
from repro.bitstream.words import REGISTERS, register_name
from repro.errors import BitstreamError
from repro.fpga import FRAME_WORDS, FrameAddress, make_test_device, make_u200


class TestPacketCodec:
    def test_nop_roundtrip(self):
        words = encode_packet(Packet(opcode=NOP, register=0))
        packets = list(decode_stream(words, synced=True))
        assert len(packets) == 1
        assert packets[0].opcode == NOP

    def test_small_write_roundtrip(self):
        packet = Packet(opcode=WRITE, register=REGISTERS["FAR"],
                        words=[0x1234])
        decoded = list(decode_stream(encode_packet(packet), synced=True))[0]
        assert decoded.register == REGISTERS["FAR"]
        assert decoded.words == [0x1234]

    def test_large_write_uses_type2(self):
        payload = list(range(5000))
        packet = Packet(opcode=WRITE, register=REGISTERS["FDRI"],
                        words=payload)
        words = encode_packet(packet)
        # Type-1 header with zero count, then type-2 header, then payload.
        assert len(words) == 2 + len(payload)
        decoded = list(decode_stream(words, synced=True))[0]
        assert decoded.words == payload

    def test_read_roundtrip(self):
        packet = Packet(opcode=READ, register=REGISTERS["FDRO"],
                        read_count=186)
        decoded = list(decode_stream(encode_packet(packet), synced=True))[0]
        assert decoded.opcode == READ
        assert decoded.read_count == 186

    def test_large_read_uses_type2(self):
        packet = Packet(opcode=READ, register=REGISTERS["FDRO"],
                        read_count=100_000)
        decoded = list(decode_stream(encode_packet(packet), synced=True))[0]
        assert decoded.read_count == 100_000

    def test_unsynced_stream_skips_garbage(self):
        words = [0xDEAD_BEEF, DUMMY, SYNC,
                 *encode_packet(Packet(opcode=NOP, register=0))]
        packets = list(decode_stream(words))
        assert len(packets) == 1

    def test_truncated_payload_rejected(self):
        words = encode_packet(Packet(
            opcode=WRITE, register=REGISTERS["FAR"], words=[1, 2, 3]))[:-1]
        with pytest.raises(BitstreamError):
            list(decode_stream(words, synced=True))

    def test_type2_without_type1_rejected(self):
        with pytest.raises(BitstreamError):
            list(decode_stream([(0b010 << 29) | (2 << 27) | 4], synced=True))

    def test_register_names(self):
        assert register_name(REGISTERS["BOUT"]) == "BOUT"
        assert register_name(0x15) == "REG_0x15"


class TestPacket:
    """The packet type keeps its keywords, equality, repr and str."""

    def test_keywords_equality_repr_and_str(self):
        far = REGISTERS["FAR"]
        write = Packet(opcode=WRITE, register=far, words=[0x1234],
                       read_count=0)
        assert write == Packet(opcode=WRITE, register=far, words=[0x1234])
        assert write != Packet(opcode=WRITE, register=far, words=[0x1235])
        assert write != Packet(opcode=READ, register=far)
        assert repr(write) == (
            f"Packet(opcode=2, register={far}, words=[4660], read_count=0)")
        assert str(write) == "WRITE FAR x1"
        read = Packet(opcode=READ, register=REGISTERS["FDRO"],
                      read_count=186)
        assert str(read) == "READ FDRO x186"
        nop = Packet(opcode=NOP, register=0)
        assert str(nop) == "NOP"
        assert nop.words == [] and nop.read_count == 0
        assert not hasattr(write, "__dict__")

    def test_decoded_packets_equal_constructed_ones(self):
        packets = [
            Packet(opcode=NOP, register=0),
            Packet(opcode=WRITE, register=REGISTERS["BOUT"], words=[]),
            Packet(opcode=WRITE, register=REGISTERS["FDRI"],
                   words=list(range(3000))),
            Packet(opcode=READ, register=REGISTERS["FDRO"],
                   read_count=93),
            Packet(opcode=READ, register=REGISTERS["FDRO"],
                   read_count=100_000),
        ]
        words = [SYNC]
        for packet in packets:
            words += encode_packet(packet)
        assert list(decode_stream(words)) == packets
        assert list(decode_stream(tuple(words))) == packets


class TestAssembler:
    def test_preamble_contains_sync(self):
        asm = BitstreamAssembler(make_test_device())
        asm.preamble()
        assert SYNC in asm.words
        assert asm.words[0] == DUMMY

    def test_hop_counts_follow_ring_distance(self):
        # U200: primary is SLR1; SLR2 is 1 hop, SLR0 is 2 hops.
        asm = BitstreamAssembler(make_u200())
        assert asm.hops_to(1) == 0
        assert asm.hops_to(2) == 1
        assert asm.hops_to(0) == 2

    def test_frame_write_sequence(self):
        device = make_test_device()
        asm = BitstreamAssembler(device)
        address = FrameAddress(block_type=0, region=0, column=0, minor=0)
        asm.preamble()
        asm.write_frames(address, [[0] * FRAME_WORDS] * 2)
        packets = list(decode_stream(asm.words))
        registers = [p.register_name for p in packets if p.opcode == WRITE]
        assert registers == ["CMD", "FAR", "FDRI"]

    def test_bad_frame_size_rejected(self):
        asm = BitstreamAssembler(make_test_device())
        with pytest.raises(BitstreamError):
            asm.write_frames(
                FrameAddress(0, 0, 0, 0), [[0] * (FRAME_WORDS - 1)])


class TestAnalyzer:
    def build_multi_slr_stream(self):
        device = make_u200()
        asm = BitstreamAssembler(device)
        asm.preamble()
        for slr_index in (1, 2, 0):  # primary, then ring order
            asm.hop_to_slr(slr_index)
            asm.write_idcode()
            asm.command("WCFG")
        return asm.words

    def test_sections_split_on_bout_groups(self):
        analysis = analyze_bitstream(self.build_multi_slr_stream())
        assert len(analysis.sections) == 3

    def test_bout_repetition_pattern(self):
        """Paper Section 4.4: one BOUT before the first secondary, two
        before the second."""
        analysis = analyze_bitstream(self.build_multi_slr_stream())
        assert analysis.bout_pattern == [1, 2]

    def test_idcode_written_per_section(self):
        analysis = analyze_bitstream(self.build_multi_slr_stream())
        device = make_u200()
        assert analysis.idcode_values == [device.idcode] * 3

    def test_section_commands_visible(self):
        analysis = analyze_bitstream(self.build_multi_slr_stream())
        for section in analysis.sections:
            assert "WCFG" in section.commands
