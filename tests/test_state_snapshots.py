"""Tests for snapshot parsing, persistence, and long-run replay."""

import io
import json

import pytest

from repro import Zoomie, ZoomieProject
from repro.campaign.designs import (
    campaign_design,
    compile_design,
    launch_session,
)
from repro.chaos.campaign import CLOCKS_MHZ
from repro.debug import StateSnapshot, diff_snapshots, parse_capture_frames
from repro.designs import make_cohort_soc
from repro.errors import DebugError, SnapshotFormatError


class TestSnapshotObject:
    def test_getitem_and_contains(self):
        snap = StateSnapshot(values={"a.b": 5})
        assert snap["a.b"] == 5
        assert "a.b" in snap
        assert "nope" not in snap
        with pytest.raises(DebugError):
            snap["nope"]

    def test_subset(self):
        snap = StateSnapshot(values={"core.pc": 1, "core.acc": 2,
                                     "bus.req": 3})
        sub = snap.subset("core")
        assert set(sub.values) == {"core.pc", "core.acc"}

    def test_diff(self):
        a = StateSnapshot(values={"x": 1, "y": 2})
        b = StateSnapshot(values={"x": 1, "y": 9})
        assert diff_snapshots(a, b) == {"y": (2, 9)}

    def test_json_roundtrip(self):
        snap = StateSnapshot(
            values={"core.pc": 0xDEAD_BEEF_CAFE, "flag": 1},
            cycle=42, label="checkpoint",
            memories={"imem": [1, 2, 0xFFFF]})
        out = io.StringIO()
        snap.dump(out)
        parsed = StateSnapshot.parse(io.StringIO(out.getvalue()))
        assert parsed.values == snap.values
        assert parsed.cycle == 42
        assert parsed.label == "checkpoint"
        assert parsed.memories == snap.memories

    def test_parse_rejects_foreign_json(self):
        with pytest.raises(DebugError):
            StateSnapshot.parse(io.StringIO('{"format": "other"}'))


class TestParseHardening:
    def dumped(self, **kw):
        return StateSnapshot(values={"core.pc": 0x10, "flag": 1},
                             memories={"rf": [3, 4]}, cycle=9,
                             label="x", **kw).dumps()

    def test_truncated_dump_names_the_line(self):
        text = self.dumped()
        with pytest.raises(SnapshotFormatError) as info:
            StateSnapshot.parse(io.StringIO(text[:len(text) // 2]))
        assert info.value.line is not None
        assert "truncated" in str(info.value)

    def test_duplicate_signal_names_rejected(self):
        text = ('{"format": "zoomie-snapshot-v1", '
                '"values": {"a": "0x1", "a": "0x2"}}')
        with pytest.raises(SnapshotFormatError, match="duplicate"):
            StateSnapshot.parse(io.StringIO(text))

    def test_bad_hex_value_names_signal(self):
        data = json.loads(self.dumped())
        data["values"]["core.pc"] = "0xZZ"
        with pytest.raises(SnapshotFormatError, match="core.pc"):
            StateSnapshot.parse(io.StringIO(json.dumps(data)))

    def test_bad_memory_word_names_index(self):
        data = json.loads(self.dumped())
        data["memories"]["rf"][1] = 4  # int, not a hex string
        with pytest.raises(SnapshotFormatError, match=r"rf\[1\]"):
            StateSnapshot.parse(io.StringIO(json.dumps(data)))

    def test_missing_values_section(self):
        with pytest.raises(SnapshotFormatError, match="values"):
            StateSnapshot.parse(
                io.StringIO('{"format": "zoomie-snapshot-v1"}'))

    def test_non_object_sections_rejected(self):
        with pytest.raises(SnapshotFormatError):
            StateSnapshot.parse(io.StringIO('[1, 2, 3]'))
        with pytest.raises(SnapshotFormatError, match="cycle"):
            StateSnapshot.parse(io.StringIO(
                '{"format": "zoomie-snapshot-v1", "values": {}, '
                '"cycle": "ten"}'))

    def test_format_error_is_a_debug_error(self):
        # Callers catching the broad DebugError keep working.
        assert issubclass(SnapshotFormatError, DebugError)


class TestLabelValidation:
    @pytest.fixture()
    def debugger(self):
        project = ZoomieProject(
            design=make_cohort_soc(with_bug=False), device="TEST2",
            clocks={"clk": 100.0}, watch=["issued"])
        session = Zoomie(project).launch()
        session.debugger.pause()
        return session.debugger

    @pytest.mark.parametrize("label", ["two\nlines", "a=b", "bell\x07"])
    def test_bad_labels_rejected_before_capture(self, debugger, label):
        with pytest.raises(DebugError):
            debugger.snapshot(label)

    def test_good_label_accepted(self, debugger):
        assert debugger.snapshot("checkpoint 1 (pre-fix)").label \
            == "checkpoint 1 (pre-fix)"


class TestParseCaptureFrames:
    def test_partial_frames_yield_partial_registers(self):
        from repro.config import LLEntry, LogicLocationFile
        from repro.fpga import FrameAddress
        from repro.fpga.frames import BLOCK_MAIN, CAPTURE_MINOR, FRAME_WORDS

        frame_a = FrameAddress(BLOCK_MAIN, 0, 0, CAPTURE_MINOR)
        frame_b = FrameAddress(BLOCK_MAIN, 0, 1, CAPTURE_MINOR)
        ll = LogicLocationFile([
            LLEntry("reg_a", bit, 0, frame_a, bit) for bit in range(4)
        ] + [
            LLEntry("reg_b", bit, 0, frame_b, bit) for bit in range(4)
        ])
        words = [0] * FRAME_WORDS
        words[0] = 0b1010
        values = parse_capture_frames({(0, frame_a): words}, ll)
        # reg_a is complete; reg_b's frame was not read -> excluded.
        assert values == {"reg_a": 0b1010}


class TestFileReplay:
    def test_snapshot_survives_session_restart(self, tmp_path):
        """Save a snapshot to disk, relaunch the card from scratch, load
        the snapshot, and verify the replayed run matches the original —
        the paper's 'preserve emulation progress' workflow."""
        def launch():
            project = ZoomieProject(
                design=make_cohort_soc(with_bug=False), device="TEST2",
                clocks={"clk": 100.0}, watch=["issued"])
            session = Zoomie(project).launch()
            session.poke_input("en", 1)
            return session

        first = launch()
        first.debugger.run(30)
        first.debugger.pause()
        snap = first.debugger.snapshot("progress")
        path = tmp_path / "progress.json"
        with path.open("w") as stream:
            snap.dump(stream)
        first.debugger.step(10)
        expected = first.debugger.snapshot("golden")

        # A completely fresh card and session.
        second = launch()
        second.debugger.pause()
        with path.open() as stream:
            loaded = StateSnapshot.parse(stream)
        second.debugger.restore(loaded)
        second.debugger.step(10)
        replayed = second.debugger.snapshot("replayed")

        changed = {
            name for name in diff_snapshots(expected, replayed)
            if not name.startswith("zoomie_")
        }
        assert not changed


class TestMultiSlrRestore:
    """Regression: a restore must round-trip *every* state element of a
    design split across SLRs — including BRAM output latches (sync
    read-port data registers), which once escaped the logic-location
    file and silently diverged on the first post-restore cycle."""

    def launch(self):
        compiled = compile_design(campaign_design("manycore"), CLOCKS_MHZ)
        fabric, debugger = launch_session(compiled)
        debugger.record_input("en", 1)
        return compiled[2], fabric, debugger

    def test_restore_round_trips_across_slrs(self):
        result, fabric, debugger = self.launch()
        debugger.run(38)
        debugger.pause()
        saved = debugger.snapshot("mid-flight")

        # The snapshot must see the memory output latches.
        latches = result.database.netlist.sync_read_outputs()
        assert latches, "cluster design should have sync read ports"
        for name in latches:
            assert name in saved.values, f"latch {name} not captured"

        debugger.step(7)
        expected = debugger.engine.snapshot()

        debugger.restore(saved)
        after_restore = debugger.engine.snapshot()
        assert diff_snapshots(saved, after_restore) == {}
        assert saved.memories == after_restore.memories

        # The replay from the restored state must track the original.
        debugger.step(7)
        replayed = debugger.engine.snapshot()
        assert diff_snapshots(expected, replayed) == {}
        assert expected.memories == replayed.memories
        assert expected.content_key() == replayed.content_key()
