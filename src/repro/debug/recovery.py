"""Deterministic session recovery: snapshot base + journal replay.

A crashed debug session leaves two durable artifacts behind: the
write-ahead :class:`~repro.debug.journal.CommandJournal` of every
state-mutating command, and the content-addressed
:class:`~repro.debug.snapshot_store.SnapshotStore` of checkpoints.
Because the journal is write-ahead and every command is deterministic,
replaying it on a *fresh* fabric rebuilds the exact pre-crash state —
bit-identical, as the crash-sweep fuzz suite proves with
:func:`~repro.debug.state.diff_snapshots` against an uncrashed golden
run.

Recovery proceeds in three phases:

1. **Base selection.** Walk the journal backwards for the last
   ``snapshot`` record whose stored object still passes integrity
   verification (length, CRC32, content hash). A corrupted checkpoint
   is skipped, not trusted — recovery falls back to the previous good
   one, or to full replay from reset.
2. **Environment replay.** Top-level input pokes are *environment*,
   not readback-visible state: no snapshot contains them. Every
   ``poke_input`` record up to the base is replayed first so the input
   pins hold their pre-crash values before the base state is loaded.
3. **Command replay.** The base snapshot is restored (if any), then
   every later record re-executes through the ordinary debugger API.
   ``snapshot`` records double as divergence probes: the state is
   re-captured and its content key compared against the journaled one;
   a mismatch raises :class:`RecoveryDivergenceError` naming the
   registers that differ rather than silently resuming from a wrong
   state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..errors import (
    RecoveryDivergenceError,
    RecoveryError,
    SnapshotIntegrityError,
)
from ..obs import get_flight_recorder, get_registry, get_tracer
from .debugger import ZoomieDebugger

#: Bound at import; the singletons are mutated in place, never replaced.
_TRACER = get_tracer()
_FLIGHT = get_flight_recorder()
from .journal import CommandJournal, JournalRecord, read_journal
from .snapshot_store import SnapshotStore
from .state import diff_snapshots

#: Filenames of the crash-safety directory layout.
JOURNAL_NAME = "journal.log"
SNAPSHOT_DIR = "snapshots"


def enable_crash_safety(debugger: ZoomieDebugger, directory,
                        sync_every: int = 1,
                        checkpoint_every: Optional[int] = None):
    """Attach a journal + snapshot store rooted at ``directory``.

    Creates (or reopens) ``directory/journal.log`` and
    ``directory/snapshots/``; returns ``(journal, store)``.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    journal = CommandJournal(root / JOURNAL_NAME, sync_every=sync_every)
    store = SnapshotStore(root / SNAPSHOT_DIR)
    debugger.attach_crash_safety(journal, store,
                                 checkpoint_every=checkpoint_every)
    return journal, store


@dataclass
class RecoveryReport:
    """What :func:`recover_session` did, for auditing and the CLI."""

    records_total: int = 0
    torn_tail_dropped: bool = False
    base_index: Optional[int] = None
    base_key: Optional[str] = None
    skipped_bases: list[str] = field(default_factory=list)
    pokes_replayed: int = 0
    commands_replayed: int = 0
    snapshots_checked: int = 0
    final_key: Optional[str] = None
    modeled_seconds: float = 0.0
    wall_seconds: float = 0.0

    def describe(self) -> str:
        base = ("full replay from reset" if self.base_index is None else
                f"snapshot #{self.base_index} "
                f"({(self.base_key or '')[:12]}…)")
        lines = [
            f"recovered from {base}",
            f"journal records: {self.records_total}"
            + (" (torn tail dropped)" if self.torn_tail_dropped else ""),
            f"replayed: {self.commands_replayed} command(s), "
            f"{self.pokes_replayed} input poke(s)",
            f"divergence checks passed: {self.snapshots_checked}",
            f"modeled JTAG time: {self.modeled_seconds:.3f} s "
            f"(wall {self.wall_seconds:.3f} s)",
        ]
        if self.skipped_bases:
            lines.insert(1, f"skipped {len(self.skipped_bases)} "
                            f"corrupt/missing checkpoint(s)")
        if self.final_key:
            lines.append(f"final state key: {self.final_key[:12]}…")
        return "\n".join(lines)


def _find_base(records: list[JournalRecord], store: SnapshotStore,
               report: RecoveryReport
               ) -> tuple[Optional[int], Optional[str]]:
    for record in reversed(records):
        if record.command != "snapshot":
            continue
        key = record.args.get("key")
        if not isinstance(key, str):
            raise RecoveryError(
                f"journal record #{record.index}: snapshot record "
                f"without a content key")
        defect = store.verify(key)
        if defect is None:
            return record.index, key
        report.skipped_bases.append(key)
    return None, None


def recover_session(debugger: ZoomieDebugger, directory,
                    checkpoint_every: Optional[int] = None,
                    reattach: bool = True,
                    full_replay: bool = False) -> RecoveryReport:
    """Rebuild a crashed session's state onto a fresh debugger.

    ``debugger`` must be attached to a freshly programmed fabric (the
    dead session's fabric is gone with its process — and a crash may
    have died mid-command, so replay never trusts partially-applied
    state). With ``reattach`` the journal and store are re-attached
    afterwards, so the recovered session keeps journaling where the
    old one stopped.

    ``full_replay`` is audit mode: ignore checkpoints as bases and
    re-execute the whole journal from reset, so *every* snapshot
    record acts as a divergence probe. Slower, but it cross-checks the
    entire history instead of trusting the last checkpoint.
    """
    start = time.monotonic()
    seconds_before = debugger.session_seconds
    root = Path(directory)
    journal_path = root / JOURNAL_NAME
    if not journal_path.exists():
        raise RecoveryError(f"no journal at {journal_path}")
    records, torn = read_journal(journal_path)
    store = SnapshotStore(root / SNAPSHOT_DIR)

    report = RecoveryReport(records_total=len(records),
                            torn_tail_dropped=torn)
    if full_replay:
        base_index, base_key = None, None
    else:
        base_index, base_key = _find_base(records, store, report)
    report.base_index = base_index
    report.base_key = base_key

    debugger._replaying = True
    session_span = _TRACER.span(
        "recover.session", records=len(records), torn_tail=torn,
        full_replay=full_replay)
    session_span.__enter__()
    try:
        applying = base_index is None
        for record in records:
            # One ``recover.record`` span per journal record — the
            # audit trail a recovered session's trace must show, even
            # for records the checkpoint base lets replay skip.
            with _TRACER.span("recover.record", index=record.index,
                              command=record.command) as span:
                if not applying:
                    # Pre-base: only the environment needs replaying;
                    # the base snapshot carries all readback-visible
                    # state.
                    if record.command == "poke_input":
                        _apply(debugger, store, record)
                        report.pokes_replayed += 1
                    elif record.index == base_index:
                        debugger.pause()
                        debugger.restore(store.get(base_key))
                        applying = True
                        if span is not None:
                            span.set(applied="base-restore")
                        continue
                    if span is not None:
                        span.set(applied=record.command == "poke_input")
                    continue
                if record.command == "snapshot":
                    _check_divergence(debugger, store, record)
                    report.snapshots_checked += 1
                    if span is not None:
                        span.set(applied="divergence-check")
                    continue
                _apply(debugger, store, record)
                if span is not None:
                    span.set(applied=True)
                if record.command == "poke_input":
                    report.pokes_replayed += 1
                else:
                    report.commands_replayed += 1
    except BaseException as error:
        session_span.__exit__(type(error), error, None)
        raise
    finally:
        debugger._replaying = False

    if debugger.is_paused():
        snap = debugger.engine.snapshot(label="post-recovery")
        debugger.session_seconds += snap.acquisition_seconds
        report.final_key = snap.content_key()
    report.modeled_seconds = debugger.session_seconds - seconds_before
    report.wall_seconds = time.monotonic() - start
    # Modeled seconds roll up from the jtag.batch spans every replayed
    # command (and divergence probe) issued — no direct charge needed.
    session_span.set(
        commands_replayed=report.commands_replayed,
        pokes_replayed=report.pokes_replayed,
        snapshots_checked=report.snapshots_checked)
    session_span.__exit__(None, None, None)

    registry = get_registry()
    registry.counter("recovery.sessions").inc()
    registry.counter("recovery.records_replayed").inc(
        report.commands_replayed + report.pokes_replayed)
    registry.histogram("recovery.modeled_seconds").observe(
        report.modeled_seconds)
    _FLIGHT.note("journal", "recovered", base_index=report.base_index,
                 commands_replayed=report.commands_replayed,
                 modeled_seconds=report.modeled_seconds)

    if reattach:
        journal = CommandJournal(journal_path)
        debugger.attach_crash_safety(journal, store,
                                     checkpoint_every=checkpoint_every)
    return report


def _apply(debugger: ZoomieDebugger, store: SnapshotStore,
           record: JournalRecord) -> None:
    """Re-execute one journaled command through the public API."""
    args = record.args
    command = record.command
    try:
        if command == "poke_input":
            debugger.record_input(args["name"], args["value"])
        elif command == "run":
            debugger.run(max_cycles=args["max_cycles"])
        elif command == "pause":
            debugger.pause()
        elif command == "resume":
            debugger.resume(clear_triggers=args["clear_triggers"])
        elif command == "step":
            debugger.step(cycles=args["cycles"], force=args["force"])
        elif command == "set_watchpoint":
            debugger.set_watchpoint(*args["signals"])
        elif command == "set_value_breakpoint":
            debugger.set_value_breakpoint(dict(args["conditions"]),
                                          mode=args["mode"])
        elif command == "set_cycle_breakpoint":
            debugger.set_cycle_breakpoint(args["cycles"])
        elif command == "break_on_assertions":
            debugger.break_on_assertions(args["enable"])
        elif command == "clear_breakpoints":
            debugger.clear_breakpoints()
        elif command == "trace_capture":
            debugger.trace_capture(list(args["signals"]),
                                   cycles=args["cycles"],
                                   stride=args["stride"],
                                   depth=args["depth"])
        elif command == "write_state":
            debugger.write_state(dict(args["updates"]))
        elif command == "write_memory":
            debugger.write_memory(args["name"], list(args["words"]))
        elif command == "restore":
            key = args.get("key")
            if not isinstance(key, str):
                raise RecoveryError(
                    f"journal record #{record.index}: restore record "
                    f"without a content key")
            debugger.restore(store.get(key))
        else:
            raise RecoveryError(
                f"journal record #{record.index}: unknown command "
                f"{command!r}")
    except KeyError as exc:
        raise RecoveryError(
            f"journal record #{record.index}: {command} record is "
            f"missing argument {exc}") from None


def _check_divergence(debugger: ZoomieDebugger, store: SnapshotStore,
                      record: JournalRecord) -> None:
    """Re-capture state at a journaled snapshot point and compare."""
    key = record.args.get("key")
    if not isinstance(key, str):
        raise RecoveryError(
            f"journal record #{record.index}: snapshot record without "
            f"a content key")
    snap = debugger.engine.snapshot(label="divergence-check")
    debugger.session_seconds += snap.acquisition_seconds
    if snap.content_key() == key:
        return
    changed: dict[str, tuple[int, int]] = {}
    try:
        golden = store.get(key)
    except SnapshotIntegrityError:
        golden = None  # the journaled key itself is the arbiter
    if golden is not None:
        changed = diff_snapshots(golden, snap)
    raise RecoveryDivergenceError(
        f"replay diverged at journal record #{record.index}: "
        f"re-captured state hashes to {snap.content_key()[:12]}…, "
        f"journal says {key[:12]}… "
        f"({len(changed)} register(s) differ)",
        record_index=record.index, changed=changed)
