"""The workloads of the end-to-end debug-session benchmark.

A workload is built from the benchmark seed, does its set-up (everything
a user waits for before the first timed operation), and then runs
fixed-work *iterations* through the public ``repro`` API. Every public
call the user would wait on is timed one by one into the command
latency samples, and every output the benchmark can check is checked:
a failed check is counted, never raised.

Every iteration of a run issues the same calls with the same arguments
(the seed draws them once), so the i-th call of one iteration repeats
the i-th call of every other. The benchmark keeps each call's fastest
repeat; see ``bench_e2e.py``. Calls are kept to a few milliseconds
where the workload allows it, because on a shared host only short calls
are ever timed without interference.

Each iteration returns its deterministic outputs (modeled hardware
seconds). They depend only on the seed, never on host speed.

This module imports ``repro`` at import time; only benchmark worker
processes import it, after putting the checkout's ``src`` on the path.
"""

from __future__ import annotations

import math
import random
import time
from pathlib import Path

from repro import Zoomie, ZoomieProject
from repro.config import FabricDevice
from repro.debug import (
    ZoomieDebugger,
    enable_crash_safety,
    instrument_netlist,
    recover_session,
)
from repro.designs import make_ariane_core, make_cohort_soc, make_counter
from repro.designs.ariane import IMEM_WORDS, healthy_program
from repro.fpga import make_test_device
from repro.rtl import ModuleBuilder, elaborate, mux
from repro.vendor import VivadoFlow
from repro.vti import PartitionSpec, VtiFlow, get_default_cache


class Recorder:
    """Command latencies, output checks and side samples of one run."""

    #: Failure messages kept for the report (all are counted).
    KEPT_FAILURES = 20

    def __init__(self):
        self.cmd_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Named samples beside the command latencies (``recover_s``,
        #: ``cycles``, ...).
        self.samples: dict[str, list[float]] = {}

    def call(self, fn, *args, **kwargs):
        """Run one public call the user waits on, timing it."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.cmd_s.append(time.perf_counter() - start)
        return result

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failure is kept, never raised."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.KEPT_FAILURES:
                self.failures.append(what)


class Workload:
    """Base class: seed, scratch directory and scale of one run."""

    name = ""
    #: Tail percentile of the command latencies, fixed per workload from
    #: its full-scale sample count so run length never changes it.
    tail_pct = 95
    #: Whether every iteration repeats identical work from identical
    #: state, so its deterministic outputs must equal iteration 0's.
    repeatable = False

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.smoke = smoke

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}")

    def setup(self) -> None:
        raise NotImplementedError

    def iteration(self, index: int, rec: Recorder) -> dict:
        raise NotImplementedError

    def finish(self, rec: Recorder) -> None:
        """Checks that need the whole run, after the last iteration."""


def _step(rec: Recorder, debugger, cycles: int) -> None:
    ran = rec.call(debugger.step, cycles)
    rec.check(ran == cycles, f"step({cycles}) advanced {ran} cycles")


# --------------------------------------------------------------------------
# cohort_session: interactive verb latency (paper case study 1)
# --------------------------------------------------------------------------

class CohortSession(Workload):
    """Rounds of short interactive verbs on the hung Cohort SoC.

    The design has no memories and no journal, so transport, readback
    and capture-modify-restore register writes dominate.
    """

    name = "cohort_session"
    tail_pct = 99
    #: Rounds per iteration; each round is 22 verbs of a few ms.
    ROUNDS = 2
    #: The case-study-1 fix, written in place to un-hang the SoC.
    FIX = {"lsu.store_pending": 0, "mmu.responding": 0, "mmu.busy": 0}
    TRACED = ("results", "issued", "lsu.store_pending", "mmu.busy")
    TRACE_CYCLES = 256

    def setup(self) -> None:
        project = ZoomieProject(
            design=make_cohort_soc(with_bug=True), device="TEST2",
            clocks={"clk": 100.0}, watch=["results", "issued"])
        self.session = Zoomie(project).launch()
        self.debugger = self.session.debugger
        self.session.poke_input("en", 1)
        self.rounds = 1 if self.smoke else self.ROUNDS

    def iteration(self, index: int, rec: Recorder) -> dict:
        dbg = self.debugger
        rng = self.rng()
        before = dbg.session_seconds
        for _ in range(self.rounds):
            rec.call(dbg.run, rng.randint(20, 60))
            rec.call(dbg.pause)
            rec.call(dbg.read_state)
            rec.call(dbg.read_state, prefix="mmu")
            _step(rec, dbg, rng.randint(1, 8))
            snap = rec.call(dbg.snapshot)
            rec.call(dbg.write_state, self.FIX)
            _step(rec, dbg, rng.randint(1, 8))
            rec.call(dbg.restore, snap)
            after = rec.call(dbg.read_state)
            rec.check(after.values == snap.values,
                      "registers after restore differ from the snapshot")
            rec.call(dbg.write_state, self.FIX)
            rec.call(dbg.resume)
            trace = rec.call(dbg.trace_capture, self.TRACED,
                             self.TRACE_CYCLES)
            # One row per captured edge plus the closing sample.
            rec.check(len(trace) == self.TRACE_CYCLES + 1,
                      f"trace_capture returned {len(trace)} rows")
            rec.call(dbg.pause)
            issued = rec.call(dbg.read, "lsu.issued_count")
            target = (issued + rng.randint(1, 2)) & 0xFFFF
            rec.call(dbg.write_state, self.FIX)
            rec.call(dbg.set_value_breakpoint, {"issued": target})
            rec.call(dbg.resume, clear_triggers=False)
            rec.call(dbg.run, 400)
            paused = dbg.is_paused()
            hit = rec.call(dbg.read, "lsu.issued_count")
            rec.check(paused and hit == target,
                      f"breakpoint issued=={target}: paused={paused}, "
                      f"issued={hit}")
            rec.call(dbg.clear_breakpoints)
            rec.call(dbg.resume)
        return {
            "modeled_debug_s": dbg.session_seconds - before,
            "modeled_compile_s": self.session.compile_result.total_seconds,
        }


# --------------------------------------------------------------------------
# ariane_run_to_break: simulation throughput under SVA monitors
# --------------------------------------------------------------------------

class ArianeRunToBreak(Workload):
    """The healthy Ariane program running with all seven synthesizable
    SVA monitors armed as breakpoints, driven in bounded ``run(n)``
    slices as a host polling loop would.

    A slice that stops short is an assertion pause, which must not
    happen on the healthy program. The slice lengths are a fixed
    multiset; the seed orders them. The design is paused and its ``pc``
    read once, after the last iteration: every pause, resume and
    readback re-encodes both memories (GCAPTURE, tens of ms), which
    would otherwise outweigh the simulation this workload is for.
    """

    name = "ariane_run_to_break"
    tail_pct = 99
    #: Slice lengths in cycles: 1-3 ms each at ~45 us per cycle.
    SLICES = (20, 30, 40, 50, 60) * 6

    def setup(self) -> None:
        project = ZoomieProject(
            design=make_ariane_core(healthy_program()), device="TEST2",
            clocks={"clk": 100.0})
        self.session = Zoomie(project).launch()
        self.debugger = self.session.debugger
        self.session.poke_input("resetn", 1)
        self.debugger.pause()
        self.debugger.break_on_assertions(True)
        self.debugger.resume()
        self.slices = [20, 40] if self.smoke else list(self.SLICES)
        self.rng().shuffle(self.slices)

    def iteration(self, index: int, rec: Recorder) -> dict:
        dbg = self.debugger
        cycles = dbg.cycles()
        for length in self.slices:
            ran = rec.call(dbg.run, length)
            rec.check(ran == length,
                      f"run({length}) stopped after {ran} cycles")
        rec.sample("cycles", dbg.cycles() - cycles)
        return {
            "modeled_compile_s": self.session.compile_result.total_seconds,
        }

    def finish(self, rec: Recorder) -> None:
        self.debugger.pause()
        pc = self.debugger.read_state(prefix="pc")["pc"]
        rec.check(0 <= pc < IMEM_WORDS, f"pc {pc:#x} left the program")


# --------------------------------------------------------------------------
# cohort_crash_recover: journal, snapshot store, recovery
# --------------------------------------------------------------------------

class CohortCrashRecover(Workload):
    """Journaled sessions on the Cohort SoC, abandoned mid-run and
    recovered onto a fresh fabric.

    Each iteration is one short session: launch, verb groups with a
    snapshot/restore pair, then the process "dies" (the session object
    is dropped; no fault API is involved) and ``recover_session``
    rebuilds it from the journal. The verbs are ``cohort_session``'s,
    so the two workloads differ by the journal, the snapshot store and
    recovery. Recovery is one call of tens of ms, timed on its own as
    ``recover_s``.
    """

    name = "cohort_crash_recover"
    tail_pct = 99
    repeatable = True
    GROUPS = 3
    CHECKPOINT_EVERY = 25

    def setup(self) -> None:
        self.device = make_test_device()
        netlist = elaborate(make_cohort_soc(with_bug=True))
        self.instrumented = instrument_netlist(
            netlist, watch=["results", "issued"])
        self.compiled = VivadoFlow(self.device).compile_netlist(
            netlist, {"clk": 100.0, "zoomie_clk": 100.0},
            gate_signals=self.instrumented.gate_signals)
        self.groups = 1 if self.smoke else self.GROUPS

    def _launch(self) -> ZoomieDebugger:
        fabric = FabricDevice(self.device)
        fabric.expect(self.compiled.database)
        fabric.jtag.run(self.compiled.bitstream)
        return ZoomieDebugger(fabric, self.instrumented)

    def iteration(self, index: int, rec: Recorder) -> dict:
        rng = self.rng()
        directory = self.workdir / f"session-{index}"
        dbg = self._launch()
        enable_crash_safety(dbg, directory,
                            checkpoint_every=self.CHECKPOINT_EVERY)
        rec.call(dbg.record_input, "en", 1)
        for group in range(self.groups):
            rec.call(dbg.run, rng.randint(8, 24))
            rec.call(dbg.pause)
            _step(rec, dbg, rng.randint(1, 6))
            snap = rec.call(dbg.snapshot, f"g{group}")
            _step(rec, dbg, rng.randint(1, 6))
            rec.call(dbg.restore, snap)
            after = rec.call(dbg.read_state)
            rec.check(after.content_key() == snap.content_key(),
                      "state after restore differs from the snapshot")
            rec.call(dbg.resume)
        rec.call(dbg.run, rng.randint(8, 24))
        rec.call(dbg.pause)
        victim = rec.call(dbg.read_state)
        modeled = dbg.session_seconds
        # The process dies here: nothing but the journal directory
        # survives into the recovery.
        del dbg

        survivor = self._launch()
        start = time.perf_counter()
        report = recover_session(survivor, directory)
        rec.sample("recover_s", time.perf_counter() - start)
        rec.check(report.final_key == victim.content_key(),
                  "recovered state differs from the abandoned session's")
        return {
            "modeled_debug_s": modeled + report.modeled_seconds,
            "modeled_compile_s": self.compiled.total_seconds,
        }


# --------------------------------------------------------------------------
# vti_edit_loop: incremental compiles and the artifact cache
# --------------------------------------------------------------------------

PARTITIONS = ("c0", "c1", "c2")


def _leaf(name: str, stages: int, variant: int = 0):
    """A pipeline leaf; ``variant`` XORs a constant into the first
    stage, a small RTL edit that keeps the partition's interface."""
    b = ModuleBuilder(name)
    en = b.input("en", 1)
    count = b.reg("count", 8)
    out = count
    for index in range(stages):
        stage = b.reg(f"stage{index}", 8)
        b.next(stage, out ^ variant if index == 0 and variant else out)
        out = stage
    b.next(count, mux(en, count + 1, count))
    b.output_expr("out", out)
    return b.build()


def _pipeline_farm(stages: int):
    """Three pipeline partitions plus a small static counter."""
    b = ModuleBuilder("pipeline_farm")
    en = b.input("en", 1)
    for index, path in enumerate(PARTITIONS):
        refs = b.instantiate(_leaf(f"leaf{index}", stages), path,
                             inputs={"en": en})
        b.output_expr(f"o{index}", refs["out"])
    static = b.instantiate(make_counter(8, name="static_counter"),
                           "static", inputs={"en": en})
    b.output_expr("st", static["out"])
    return b.build()


def _partition_entries(result, path: str) -> list:
    dotted = path + "."
    return [entry for entry in result.database.ll.entries
            if entry.name.startswith(dotted)]


class VtiEditLoop(Workload):
    """Incremental recompiles of a three-partition pipeline farm.

    Single-partition edits alternate between a new leaf variant (a
    cache miss) and a revert to a variant compiled earlier in the
    iteration (a hit); every fifth step recompiles two partitions at
    once through ``compile_incremental_many`` with default arguments.
    The process-wide compile cache is emptied at the start of every
    iteration.
    """

    name = "vti_edit_loop"
    tail_pct = 99
    #: Pipeline stages per leaf: a new variant compiles in 2-3 ms.
    STAGES = 16
    EDITS = 30

    def setup(self) -> None:
        rng = self.rng()
        steps = 10 if self.smoke else self.EDITS
        variants = {path: 0 for path in PARTITIONS}
        compiled: dict[str, list[int]] = {path: [] for path in PARTITIONS}
        self.plan = []
        for index in range(steps):
            if index % 5 == 4:
                changes = {}
                for path in sorted(rng.sample(PARTITIONS, 2)):
                    variants[path] += 1
                    changes[path] = variants[path]
                    compiled[path].append(variants[path])
                self.plan.append(("many", changes))
            elif index % 2 == 1 and any(compiled.values()):
                path = rng.choice([p for p in PARTITIONS if compiled[p]])
                self.plan.append(
                    ("one", {path: rng.choice(compiled[path])}))
            else:
                path = rng.choice(PARTITIONS)
                variants[path] += 1
                compiled[path].append(variants[path])
                self.plan.append(("one", {path: variants[path]}))
        self.modules = {
            (path, variant): _leaf(f"leaf{PARTITIONS.index(path)}",
                                   self.STAGES, variant)
            for path in PARTITIONS for variant in compiled[path]}
        self.flow = VtiFlow(make_test_device(2))
        self.initial = self.flow.compile_initial(
            _pipeline_farm(self.STAGES), {"clk": 100.0},
            [PartitionSpec(path) for path in PARTITIONS], debug_slr=0)

    def iteration(self, index: int, rec: Recorder) -> dict:
        get_default_cache().clear()
        first: dict = {}
        modeled = [self.initial.total_seconds]
        for kind, edit in self.plan:
            changes = {path: self.modules[(path, variant)]
                       for path, variant in edit.items()}
            if kind == "many":
                results, wall = rec.call(
                    self.flow.compile_incremental_many, self.initial,
                    changes)
                rec.check(len(results) == len(changes)
                          and not any(r.cache_hit for r in results),
                          "compile_incremental_many hit the cache on new "
                          "variants")
                for result in results:
                    first[(result.partition_path,
                           edit[result.partition_path])] = result
                modeled.append(wall)
                continue
            (path, variant), = edit.items()
            result = rec.call(self.flow.compile_incremental, self.initial,
                              path, changes[path])
            modeled.append(result.total_seconds)
            earlier = first.get((path, variant))
            if earlier is None:
                rec.check(not result.cache_hit,
                          f"new variant {path}/{variant} hit the cache")
                first[(path, variant)] = result
                continue
            # Partial-bitstream bytes embed the database version, so a
            # hit is checked against the artifacts the cache vouches
            # for: requirement, timing, placement and bitstream size.
            rec.check(
                result.cache_hit
                and result.requirement == earlier.requirement
                and result.timing == earlier.timing
                and len(result.partial_bitstream)
                == len(earlier.partial_bitstream)
                and _partition_entries(result, path)
                == _partition_entries(earlier, path),
                f"reverted variant {path}/{variant} did not reproduce "
                f"its first compile from the cache")
        return {"modeled_compile_s": math.fsum(modeled)}


WORKLOADS = {
    workload.name: workload
    for workload in (CohortSession, CohortCrashRecover, ArianeRunToBreak,
                     VtiEditLoop)
}
