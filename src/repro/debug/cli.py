"""A gdb-like command interpreter over :class:`ZoomieDebugger`.

The paper pitches Zoomie as "the same abstraction as modern software
debuggers"; this module makes that literal — a textual command loop with
the familiar verbs::

    (zoomie) break issued=5
    (zoomie) run
    paused at cycle 17
    (zoomie) print lsu.issued_count
    lsu.issued_count = 0x5
    (zoomie) set datapath.acc 0xabcd
    (zoomie) step 3
    (zoomie) snapshot before-fix
    (zoomie) continue

Every command returns its output as a string (:meth:`ZoomieCli.execute`),
so sessions are scriptable and testable; :meth:`repl` wraps it in an
interactive ``input()`` loop.
"""

from __future__ import annotations

import json
import shlex
from typing import Callable

from ..errors import ReproError
from ..obs import get_observability
from .debugger import ZoomieDebugger
from .state import StateSnapshot, diff_snapshots

_HELP = """\
Commands:
  break SIG=VAL [SIG=VAL ...] [or]  value breakpoint (AND of all
                                    conditions; append 'or' for any-match)
  watch SIG [SIG ...]               watchpoint: pause when a value changes
  bassert on|off                    assertion breakpoints
  cycle N                           pause after N more cycles
  run [MAX]                         run until a breakpoint (bound MAX)
  step [N]                          execute exactly N cycles (default 1)
  pause                             host-initiated pause
  continue                          resume execution (clears triggers)
  print NAME                        read one register (alias: p)
  state [PREFIX]                    read back all registers under PREFIX
  set NAME VALUE                    force a register value
  snapshot [LABEL]                  capture full state under LABEL
  restore LABEL                     restore a captured snapshot
  diff LABEL                        compare current state to a snapshot
  watchlist                         show value-trigger slots
  info                              session status
  clear                             clear all breakpoints
  journal [N]                       show the last N write-ahead journal
                                    records (default 10)
  recover DIR                       rebuild this session from the crash-
                                    safety directory DIR (journal +
                                    snapshot store)
  stats [--json]                    this ring's transport counters, the
                                    simulator plan-cache counters, and
                                    the process metrics registry
  vti cache stats [--json]          VTI compile-cache hit/miss counters
  vti cache clear                   drop every cached compile artifact
  chaos run [schedules=N] [seed=S]  run a seeded fault-injection campaign
      [designs=a,b] [workdir=DIR]   over pipeline, cohort and manycore
                                    from the campaign design table;
                                    prints the invariant report
  chaos sites                       list fault-injection sites and kinds
  chaos fallbacks                   list documented degradation paths
  campaign run [--design D[,E|all]] seeded mutation debug campaign: inject
      [--mutants N] [--seed S]      bugs, detect via batched golden diff,
      [--json] [--out FILE]         localize with breakpoints + snapshot
                                    bisection; prints the accuracy report
  campaign designs                  list campaign designs
  campaign operators                list mutation operators
  trace-capture N SIG [SIG ...]     stream-capture signals while running N
      [stride=K] [depth=D]          cycles (in-kernel ring capture; prints
      [vcd=FILE]                    an ASCII timeline, optional VCD export)
  trace start|stop|status           control span tracing (off by default)
  trace export FILE                 write Chrome-trace JSON for Perfetto
  trace tree                        recorded spans, indented, both clocks
  doctor [--json]                   judge this process's metrics against
                                    the SLO health rules (run
                                    `python -m repro.obs.doctor` for the
                                    standalone seeded-workload verdict)
  profile [--json]                  two-clock cost tables (per command /
                                    kernel / VTI stage) from recorded
                                    spans
  profile flame [wall|modeled]      folded flame-graph stacks (self time
      [FILE]                        in microseconds of either clock)
  obs bundle FILE                   write the post-mortem archive (flight
                                    dump, metrics, health, journal tail)
  obs flight [FILE]                 flight-recorder summary (or dump the
                                    full JSON document to FILE)
  help                              this text
  quit                              leave the repl"""


def _parse_value(text: str) -> int:
    return int(text, 0)


class ZoomieCli:
    """Command interpreter bound to one debugger."""

    def __init__(self, debugger: ZoomieDebugger):
        self.debugger = debugger
        self.snapshots: dict[str, StateSnapshot] = {}
        self._commands: dict[str, Callable[[list[str]], str]] = {
            "break": self._cmd_break,
            "b": self._cmd_break,
            "bassert": self._cmd_bassert,
            "watch": self._cmd_watch,
            "cycle": self._cmd_cycle,
            "run": self._cmd_run,
            "r": self._cmd_run,
            "step": self._cmd_step,
            "s": self._cmd_step,
            "pause": self._cmd_pause,
            "continue": self._cmd_continue,
            "c": self._cmd_continue,
            "print": self._cmd_print,
            "p": self._cmd_print,
            "state": self._cmd_state,
            "set": self._cmd_set,
            "snapshot": self._cmd_snapshot,
            "restore": self._cmd_restore,
            "diff": self._cmd_diff,
            "watchlist": self._cmd_watchlist,
            "info": self._cmd_info,
            "clear": self._cmd_clear,
            "journal": self._cmd_journal,
            "recover": self._cmd_recover,
            "stats": self._cmd_stats,
            "vti": self._cmd_vti,
            "chaos": self._cmd_chaos,
            "campaign": self._cmd_campaign,
            "trace": self._cmd_trace,
            "trace-capture": self._cmd_trace_capture,
            "doctor": self._cmd_doctor,
            "profile": self._cmd_profile,
            "obs": self._cmd_obs,
            "help": lambda args: _HELP,
        }
        #: The most recent trace-capture result, kept for inspection.
        self.last_trace = None

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command line; returns its output (never raises for
        user errors — they come back as ``error: ...`` text)."""
        parts = shlex.split(line)
        if not parts:
            return ""
        verb, *args = parts
        handler = self._commands.get(verb)
        if handler is None:
            return f"error: unknown command {verb!r} (try 'help')"
        try:
            return handler(args)
        except (ReproError, ValueError) as exc:
            return f"error: {exc}"

    def run_script(self, lines: list[str]) -> list[str]:
        """Execute a list of commands; returns their outputs."""
        return [self.execute(line) for line in lines]

    def repl(self, input_fn=input, print_fn=print) -> None:
        """Interactive loop (exits on ``quit`` or EOF)."""
        print_fn("Zoomie debugger. 'help' lists commands.")
        while True:
            try:
                line = input_fn("(zoomie) ")
            except EOFError:
                break
            if line.strip() in ("quit", "exit", "q"):
                break
            output = self.execute(line)
            if output:
                print_fn(output)

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------

    def _status_line(self) -> str:
        dbg = self.debugger
        state = "paused" if dbg.is_paused() else "running"
        return f"{state} at cycle {dbg.cycles()}"

    def _cmd_break(self, args: list[str]) -> str:
        mode = "and"
        if args and args[-1] in ("or", "and"):
            mode = args[-1]
            args = args[:-1]
        if not args:
            raise ValueError("usage: break SIG=VAL [SIG=VAL ...] [or]")
        conditions: dict[str, int] = {}
        for arg in args:
            name, _, value = arg.partition("=")
            if not value:
                raise ValueError(f"malformed condition {arg!r}")
            conditions[name] = _parse_value(value)
        self.debugger.set_value_breakpoint(conditions, mode=mode)
        joined = f" {mode.upper()} ".join(
            f"{k}=={v:#x}" for k, v in conditions.items())
        return f"breakpoint set: {joined}"

    def _cmd_watch(self, args: list[str]) -> str:
        if not args:
            raise ValueError("usage: watch SIG [SIG ...]")
        self.debugger.set_watchpoint(*args)
        return f"watchpoint on {', '.join(args)} (pause on change)"

    def _cmd_bassert(self, args: list[str]) -> str:
        if args != ["on"] and args != ["off"]:
            raise ValueError("usage: bassert on|off")
        enable = args == ["on"]
        self.debugger.break_on_assertions(enable)
        return f"assertion breakpoints {'enabled' if enable else 'disabled'}"

    def _cmd_cycle(self, args: list[str]) -> str:
        if len(args) != 1:
            raise ValueError("usage: cycle N")
        count = _parse_value(args[0])
        self.debugger.set_cycle_breakpoint(count)
        return f"cycle breakpoint: pause after {count} cycles"

    def _cmd_run(self, args: list[str]) -> str:
        bound = _parse_value(args[0]) if args else 100_000
        ran = self.debugger.run(max_cycles=bound)
        if self.debugger.is_paused():
            return f"ran {ran} cycles; {self._status_line()}"
        return f"ran {ran} cycles without hitting a breakpoint"

    def _cmd_step(self, args: list[str]) -> str:
        count = _parse_value(args[0]) if args else 1
        advanced = self.debugger.step(count)
        return f"stepped {advanced} cycle(s); {self._status_line()}"

    def _cmd_pause(self, args: list[str]) -> str:
        self.debugger.pause()
        return self._status_line()

    def _cmd_continue(self, args: list[str]) -> str:
        self.debugger.resume()
        return "running"

    def _cmd_print(self, args: list[str]) -> str:
        if len(args) != 1:
            raise ValueError("usage: print NAME")
        value = self.debugger.read(args[0])
        return f"{args[0]} = {value:#x} ({value})"

    def _cmd_state(self, args: list[str]) -> str:
        prefix = args[0] if args else ""
        snapshot = self.debugger.read_state(prefix=prefix)
        lines = [
            f"{name} = {value:#x}"
            for name, value in sorted(snapshot.values.items())
            if not name.startswith("zoomie_")
        ]
        lines.append(f"({len(lines)} registers, "
                     f"{snapshot.acquisition_seconds * 1000:.0f} ms "
                     f"readback)")
        return "\n".join(lines)

    def _cmd_set(self, args: list[str]) -> str:
        if len(args) != 2:
            raise ValueError("usage: set NAME VALUE")
        name, value = args[0], _parse_value(args[1])
        self.debugger.force(name, value)
        return f"{name} <- {value:#x}"

    def _cmd_snapshot(self, args: list[str]) -> str:
        label = args[0] if args else f"snap{len(self.snapshots)}"
        self.snapshots[label] = self.debugger.snapshot(label)
        return (f"snapshot {label!r}: "
                f"{len(self.snapshots[label])} registers")

    def _cmd_restore(self, args: list[str]) -> str:
        if len(args) != 1 or args[0] not in self.snapshots:
            known = ", ".join(self.snapshots) or "none"
            raise ValueError(f"usage: restore LABEL (known: {known})")
        self.debugger.restore(self.snapshots[args[0]])
        return f"restored {args[0]!r}"

    def _cmd_diff(self, args: list[str]) -> str:
        if len(args) != 1 or args[0] not in self.snapshots:
            raise ValueError("usage: diff LABEL")
        current = self.debugger.snapshot("current")
        changes = diff_snapshots(self.snapshots[args[0]], current)
        lines = [
            f"{name}: {old:#x} -> {new:#x}"
            for name, (old, new) in sorted(changes.items())
            if not name.startswith("zoomie_")
        ]
        return "\n".join(lines) if lines else "(no differences)"

    def _cmd_watchlist(self, args: list[str]) -> str:
        slots = self.debugger.inst.spec.slots
        if not slots:
            return "(no trigger slots)"
        return "\n".join(
            f"slot {slot.index}: {slot.alias or slot.signal} "
            f"({slot.width} bits)"
            for slot in slots)

    def _cmd_info(self, args: list[str]) -> str:
        dbg = self.debugger
        return "\n".join([
            self._status_line(),
            f"monitors: {len(dbg.inst.monitors)} "
            f"(+{len(dbg.inst.skipped_assertions)} unsynthesizable)",
            f"pause buffers: {len(dbg.inst.pause_buffers)}",
            f"snapshots: {sorted(self.snapshots) or '[]'}",
            f"session JTAG time: {dbg.session_seconds:.2f} s",
        ])

    def _cmd_clear(self, args: list[str]) -> str:
        self.debugger.clear_breakpoints()
        return "all breakpoints cleared"

    def _cmd_journal(self, args: list[str]) -> str:
        journal = self.debugger.journal
        if journal is None:
            raise ValueError(
                "no journal attached (enable_crash_safety first)")
        if len(args) > 1:
            raise ValueError("usage: journal [N]")
        count = _parse_value(args[0]) if args else 10
        if count <= 0:
            raise ValueError("usage: journal [N] with N > 0")
        if journal.count == 0:
            return "journal is empty"
        lines = [record.describe() for record in journal.tail(count)]
        lines.append(f"({journal.count} record(s), "
                     f"{journal.durable_count} durable)")
        return "\n".join(lines)

    def _cmd_recover(self, args: list[str]) -> str:
        if len(args) != 1:
            raise ValueError("usage: recover DIR")
        from .recovery import recover_session
        report = recover_session(self.debugger, args[0])
        return report.describe()

    def _cmd_stats(self, args: list[str]) -> str:
        if args not in ([], ["--json"]):
            raise ValueError("usage: stats [--json]")
        from ..rtl import plan_cache_stats
        obs = get_observability()
        transport = self.debugger.fabric.transport.stats.as_dict()
        plan_cache = plan_cache_stats()
        if args:
            return json.dumps(
                {"transport": transport, "metrics": obs.stats(),
                 "sim_plan_cache": plan_cache},
                indent=1, sort_keys=True)
        lines = ["transport (this session's JTAG ring):"]
        lines += [f"  {key} = {value:g}"
                  for key, value in sorted(transport.items())]
        lines.append("sim plan cache:")
        lines += [f"  {key} = {value}"
                  for key, value in sorted(plan_cache.items())]
        lines.append("process metrics:")
        lines += ["  " + line
                  for line in obs.metrics.summary().split("\n")]
        return "\n".join(lines)

    def _cmd_vti(self, args: list[str]) -> str:
        from ..vti.cache import get_default_cache
        usage = "usage: vti cache stats [--json] | vti cache clear"
        if not args or args[0] != "cache" or len(args) < 2:
            raise ValueError(usage)
        cache = get_default_cache()
        verb, rest = args[1], args[2:]
        if verb == "stats":
            if rest not in ([], ["--json"]):
                raise ValueError(usage)
            if rest:
                return json.dumps(cache.stats_dict(),
                                  indent=1, sort_keys=True)
            return cache.summary()
        if verb == "clear" and not rest:
            dropped = cache.clear()
            return f"compile cache cleared ({dropped} entry(ies))"
        raise ValueError(usage)

    def _cmd_chaos(self, args: list[str]) -> str:
        usage = ("usage: chaos run [schedules=N] [seed=S] "
                 "[designs=a,b] [workdir=DIR] | chaos sites | "
                 "chaos fallbacks")
        if not args:
            raise ValueError(usage)
        verb, rest = args[0], args[1:]
        if verb == "sites" and not rest:
            from ..chaos.schedule import SITE_KINDS
            return "\n".join(
                f"{site}: {', '.join(sorted(kinds))}"
                for site, kinds in sorted(SITE_KINDS.items()))
        if verb == "fallbacks" and not rest:
            from ..chaos.supervise import DOCUMENTED_FALLBACKS
            return "\n".join(
                f"{name}: {why}"
                for name, why in sorted(DOCUMENTED_FALLBACKS.items()))
        if verb != "run":
            raise ValueError(usage)
        from ..chaos.campaign import CampaignConfig, run_campaign
        schedules, seed = 10, 2024
        designs = CampaignConfig.designs
        workdir = None
        for arg in rest:
            key, sep, value = arg.partition("=")
            if not sep:
                raise ValueError(usage)
            if key == "schedules":
                schedules = _parse_value(value)
            elif key == "seed":
                seed = _parse_value(value)
            elif key == "designs":
                designs = tuple(value.split(","))
            elif key == "workdir":
                workdir = value
            else:
                raise ValueError(usage)
        config = CampaignConfig(schedules=schedules, seed=seed,
                                designs=designs)
        if workdir is None:
            import tempfile
            with tempfile.TemporaryDirectory() as tmp:
                report = run_campaign(config, tmp)
        else:
            report = run_campaign(config, workdir)
        return report.describe()

    def _cmd_campaign(self, args: list[str]) -> str:
        usage = ("usage: campaign run [--design D[,E|all]] [--mutants N] "
                 "[--seed S] [--json] [--out FILE] | campaign designs | "
                 "campaign operators")
        if not args:
            raise ValueError(usage)
        verb, rest = args[0], args[1:]
        if verb == "designs" and not rest:
            from ..campaign import DESIGN_NAMES
            return "\n".join(DESIGN_NAMES)
        if verb == "operators" and not rest:
            from ..rtl.mutate import OPERATORS
            return "\n".join(OPERATORS)
        if verb != "run":
            raise ValueError(usage)
        from ..campaign import (
            DESIGN_NAMES,
            CampaignConfig,
            run_debug_campaign,
        )
        designs, mutants, seed = ("cohort",), 25, 7
        as_json, out_path = False, None
        it = iter(rest)
        for arg in it:
            if arg == "--design":
                value = next(it, None)
                if value is None:
                    raise ValueError(usage)
                designs = (DESIGN_NAMES if value == "all"
                           else tuple(value.split(",")))
            elif arg == "--mutants":
                value = next(it, None)
                if value is None:
                    raise ValueError(usage)
                mutants = _parse_value(value)
            elif arg == "--seed":
                value = next(it, None)
                if value is None:
                    raise ValueError(usage)
                seed = _parse_value(value)
            elif arg == "--json":
                as_json = True
            elif arg == "--out":
                out_path = next(it, None)
                if out_path is None:
                    raise ValueError(usage)
            else:
                raise ValueError(usage)
        config = CampaignConfig(designs=designs, mutants=mutants,
                                seed=seed)
        report = run_debug_campaign(config)
        if out_path is not None:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
        if as_json:
            return report.to_json().rstrip("\n")
        return report.describe()

    def _cmd_trace_capture(self, args: list[str]) -> str:
        usage = ("usage: trace-capture CYCLES SIG [SIG ...] "
                 "[stride=K] [depth=D] [vcd=FILE]")
        if len(args) < 2:
            raise ValueError(usage)
        cycles = _parse_value(args[0])
        signals: list[str] = []
        stride, depth, vcd_path = 1, 4096, None
        for arg in args[1:]:
            key, sep, value = arg.partition("=")
            if not sep:
                signals.append(arg)
            elif key == "stride":
                stride = _parse_value(value)
            elif key == "depth":
                depth = _parse_value(value)
            elif key == "vcd":
                vcd_path = value
            else:
                raise ValueError(usage)
        if not signals:
            raise ValueError(usage)
        trace = self.debugger.trace_capture(
            signals, cycles, stride=stride, depth=depth)
        self.last_trace = trace
        lines = [f"captured {len(trace)} sample(s) over {cycles} "
                 f"cycle(s) (stride {stride}, ring depth {depth}); "
                 f"{self._status_line()}"]
        if vcd_path is not None:
            from ..rtl.waveform import write_vcd
            with open(vcd_path, "w") as stream:
                write_vcd(trace, stream)
            lines.append(f"wrote VCD to {vcd_path}")
        if len(trace):
            from ..rtl.detectors import render_timeline
            lines.append(render_timeline(trace, max_samples=48))
        return "\n".join(lines)

    def _cmd_doctor(self, args: list[str]) -> str:
        if args not in ([], ["--json"]):
            raise ValueError("usage: doctor [--json]")
        from ..obs.health import MetricsWindow, evaluate
        report = evaluate(MetricsWindow())
        if args:
            return json.dumps(report.as_dict(), indent=1)
        return report.describe()

    def _cmd_profile(self, args: list[str]) -> str:
        usage = ("usage: profile [--json] | "
                 "profile flame [wall|modeled] [FILE]")
        from ..obs.profile import ProfileReport
        report = ProfileReport.from_tracer(get_observability().tracer)
        if not args:
            return report.describe()
        if args == ["--json"]:
            return json.dumps(report.as_dict(), indent=1)
        if args[0] == "flame":
            clock, rest = "wall", args[1:]
            if rest and rest[0] in ("wall", "modeled"):
                clock, rest = rest[0], rest[1:]
            text = report.collapsed(clock)
            if rest:
                if len(rest) != 1:
                    raise ValueError(usage)
                with open(rest[0], "w") as stream:
                    stream.write(text + "\n")
                return f"wrote folded stacks ({clock}) to {rest[0]}"
            return text if text else "(no stacks recorded)"
        raise ValueError(usage)

    def _cmd_obs(self, args: list[str]) -> str:
        usage = "usage: obs bundle FILE | obs flight [FILE]"
        obs = get_observability()
        if not args:
            raise ValueError(usage)
        verb, rest = args[0], args[1:]
        if verb == "bundle":
            if len(rest) != 1:
                raise ValueError(usage)
            from ..obs.bundle import BUNDLE_VERSION
            journal = self.debugger.journal
            path = obs.write_bundle(
                rest[0],
                journal_path=None if journal is None else journal.path)
            return f"wrote bundle v{BUNDLE_VERSION} to {path}"
        if verb == "flight":
            if len(rest) > 1:
                raise ValueError(usage)
            if rest:
                with open(rest[0], "w") as stream:
                    json.dump(obs.flight.latest_dump(obs.metrics),
                              stream, indent=1, default=repr)
                    stream.write("\n")
                return f"wrote flight dump to {rest[0]}"
            return obs.flight.describe()
        raise ValueError(usage)

    def _cmd_trace(self, args: list[str]) -> str:
        obs = get_observability()
        tracer = obs.tracer
        verb = args[0] if args else "status"
        if verb == "start" and len(args) == 1:
            obs.start_tracing()
            return "tracing on"
        if verb == "stop" and len(args) == 1:
            obs.stop_tracing()
            return (f"tracing off "
                    f"({len(tracer.spans)} span(s) retained)")
        if verb == "status" and len(args) == 1:
            state = "on" if tracer.enabled else "off"
            return (f"tracing {state}: {len(tracer.spans)} span(s) "
                    f"recorded, {tracer.dropped} eviction(s), "
                    f"capacity {tracer.capacity}")
        if verb == "export":
            if len(args) != 2:
                raise ValueError("usage: trace export FILE")
            obs.export_trace(args[1])
            return (f"wrote {len(tracer.spans)} span(s) to {args[1]} "
                    f"(load at https://ui.perfetto.dev)")
        if verb == "tree" and len(args) == 1:
            return obs.trace_tree()
        raise ValueError(
            "usage: trace start|stop|status|export FILE|tree")
