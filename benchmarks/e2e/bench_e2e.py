"""End-to-end debug-session benchmark: four workloads, two clocks, layers.

One run of one workload, the command ``BENCHMARK.json`` names::

    python3 benchmarks/e2e/bench_e2e.py --workload cohort_session \\
        --seed 1 --seconds 25 --trace 0

measures set-up several times, then repeats the workload's fixed-work
iteration for ``--seconds``, prints every metric by name with its unit,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
the end-to-end ``metrics`` (``--trace 0``) or the per-layer ``metrics``
(``--trace 1``, which also writes ``TRACE_<workload>.json`` here).

A set (warm-up, then ``REPEATS`` runs of every workload round-robin,
then one traced run each), and the comparison of two sets::

    python3 benchmarks/e2e/bench_e2e.py --set --out set.json
    python3 benchmarks/e2e/bench_e2e.py --compare base.json new.json

Every run happens in fresh single-threaded worker processes with their
own empty plan cache; this process only orchestrates them and never
imports ``repro``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Bytecode of every module the workers import; kept across runs.
PYCACHE = HERE / ".scratch" / "pycache"

WORKLOADS = ("cohort_session", "cohort_crash_recover",
             "ariane_run_to_break", "vti_edit_loop")

#: name -> (unit, better, regression bound as a share of the base
#: median; 0 means any change counts). Host timings get 0.25, the
#: largest a gate allows: on a shared 2-vCPU VM the speed of the same
#: code shifts by 15-20% between quiet and busy minutes, and ten-run
#: spreads of these metrics measured 3-16% (README.md, "Noise").
#: Deterministic metrics (modeled seconds, error rate) must repeat
#: exactly.
METRICS = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "cmd_p50_ms": ("ms", "lower", 0.25),
    "cmd_tail_ms": ("ms", "lower", 0.25),
    "cycles_per_s": ("1/s", "higher", 0.25),
    "recover_s": ("s", "lower", 0.25),
    "modeled_debug_s": ("s", "lower", 0.0),
    "modeled_compile_s": ("s", "lower", 0.0),
    "peak_rss_mb": ("MB", "lower", 0.20),
    "error_rate": ("fraction", "lower", 0.0),
}

#: Metrics every workload reports in its final JSON line (BENCHMARK.json
#: ``end_to_end``). The rest appear in the ``detail:`` line: they are
#: workload-specific, deterministic (never worth a noise bound), or a
#: tail percentile, which samples exactly the calls that other tenants
#: disturbed.
END_TO_END = ("setup_s", "wall_s", "cmd_p50_ms", "peak_rss_mb")
DETERMINISTIC = tuple(name for name, (_, _, bound) in METRICS.items()
                      if bound == 0)

#: Set-up measurements per run: set-up-only processes plus the timed one.
SETUP_SAMPLES = 7
#: Untraced runs of every workload in a ``--set``.
REPEATS = 5
#: A run must finish (or give up) within this many seconds.
RUN_DEADLINE_S = 170
HELD_OUT_SEED = 2


class BenchError(Exception):
    """A run could not produce a result."""


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile, linearly interpolated between ranks."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(values) -> dict:
    q1, q3 = quartiles(values)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "values": list(values)}


def verdict(base, new, better: str, bound: float) -> str:
    """Judge one (metric, workload) pair of NEW runs against BASE runs.

    ``regressed``: the new median is worse than the base median by more
    than ``bound``. ``improved``: better by more than ``bound``, with
    the new run winning at least nine tenths of the index-paired runs
    and the medians apart by more than the base's quartile spread.
    ``unresolved``: the base's own spread exceeds ``bound`` (unless
    every new run beats every base run), or a gain too noisy to claim.
    ``unchanged`` otherwise.

    Bound 0 marks an exact metric (error rate, modeled seconds), judged
    by its worst run instead: one new run worse than every base run is a
    regression.
    """
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0:
        worst = max if better == "lower" else min
        change = sign * (worst(new) - worst(base))
        return ("regressed" if change > 0 else
                "improved" if change < 0 else "unchanged")

    def beats(a: float, b: float) -> bool:
        return sign * (a - b) < 0

    base_median = statistics.median(base)
    new_median = statistics.median(new)
    q1, q3 = quartiles(list(base))
    worse = sign * (new_median - base_median) / abs(base_median)
    spread = (q3 - q1) / abs(base_median)
    if spread > bound and not all(beats(n, b) for n in new for b in base):
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        pairs = list(zip(new, base))
        wins = sum(1 for n, b in pairs if beats(n, b))
        if wins >= 0.9 * len(pairs) \
                and abs(new_median - base_median) > q3 - q1:
            return "improved"
        return "unresolved"
    return "unchanged"


# --------------------------------------------------------------------------
# the worker: one process, one workload
# --------------------------------------------------------------------------

def _import_repro():
    sys.path.insert(0, str(SRC))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported repro from {repro.__file__}, not "
                         f"from {SRC}")


def worker(args) -> int:
    """Set up one workload, then time iterations for ``--seconds``
    (always at least one).

    Prints one JSON line with the raw results; the orchestrating
    process turns it into metrics.
    """
    _import_repro()
    from e2e_workloads import WORKLOADS as CLASSES, Recorder

    workload = CLASSES[args.worker](args.seed, Path(args.workdir),
                                    smoke=args.scale == "smoke")
    workload.setup()
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from e2e_trace import LayerTracer, registry_values
        before = registry_values()
        tracer = LayerTracer()
        tracer.install()
    rec = Recorder()
    iteration_s: list[float] = []
    # The call latencies of every iteration that completed, in order.
    latencies: list[list[float]] = []
    outputs = None
    # Iterations take turns on the CPUs this process may use. Another
    # tenant can keep one CPU's hardware sibling busy for a whole run;
    # taking turns gives every call repeats on a CPU that is free of it.
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + args.seconds
    while True:
        index = len(iteration_s)
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        if tracer is not None:
            tracer.iteration = index
        first_cmd = len(rec.cmd_s)
        start = time.perf_counter()
        try:
            out = workload.iteration(index, rec)
        except Exception:  # noqa: BLE001 - counted, and the run goes on
            rec.check(False, traceback.format_exc(limit=4))
            out = None
            workload.setup()
        iteration_s.append(time.perf_counter() - start)
        if out is not None:
            calls = rec.cmd_s[first_cmd:]
            if latencies and len(calls) != len(latencies[0]):
                rec.check(False, f"iteration {index} made {len(calls)} "
                                 f"calls, iteration 0 {len(latencies[0])}")
            else:
                latencies.append(calls)
        if index == 0:
            outputs = out
        elif workload.repeatable and out is not None:
            rec.check(out == outputs,
                      f"iteration {index} outputs {out} differ from "
                      f"iteration 0's {outputs}")
        # Start no iteration that would likely end past the deadline.
        if time.perf_counter() + statistics.median(iteration_s) > deadline:
            break
    workload.finish(rec)
    if not latencies:
        print("no iteration completed:\n" + "\n".join(rec.failures),
              file=sys.stderr)
        return 1

    # Other tenants of the host slow this process down in bursts of a
    # few ms to seconds, and never speed it up. A call of a few ms
    # repeated a hundred times is timed in a quiet moment at least
    # once, so each call's fastest repeat estimates its undisturbed
    # cost; the sum over an iteration's calls is the iteration's.
    best = [min(repeats) for repeats in zip(*latencies)]
    metrics = {
        "wall_s": math.fsum(best),
        "cmd_p50_ms": statistics.median(best) * 1e3,
        "cmd_tail_ms": percentile(rec.cmd_s, workload.tail_pct) * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": rec.failed / max(1, rec.attempted),
    }
    if "cycles" in rec.samples:
        metrics["cycles_per_s"] = (statistics.median(rec.samples["cycles"])
                                   / metrics["wall_s"])
    if "recover_s" in rec.samples:
        metrics["recover_s"] = min(rec.samples["recover_s"])
    metrics.update(outputs or {})
    result = {
        "setup_s": setup_s,
        "iterations": len(iteration_s),
        "iteration_s": iteration_s,
        "calls": len(best),
        "repeats": len(latencies),
        "cmd_n": len(rec.cmd_s),
        "tail_pct": workload.tail_pct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "metrics": metrics,
    }
    if tracer is not None:
        body_s = math.fsum(iteration_s)
        layers = tracer.per_layer_metrics(
            body_s, len(iteration_s), before, registry_values())
        document = tracer.trace_document(body_s, len(iteration_s), layers)
        document.update(workload=args.worker, seed=args.seed,
                        scale=args.scale)
        (HERE / f"TRACE_{args.worker}.json").write_text(
            json.dumps(document, indent=1) + "\n")
        result["layers"] = layers
        result["layer_totals"] = document["layers"]
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# one run: the command BENCHMARK.json names
# --------------------------------------------------------------------------

def _spawn(argv: list[str], env: dict, timeout: float) -> dict:
    """Run one worker to completion and parse its JSON line."""
    if timeout <= 0:
        raise BenchError("out of time before the next worker")
    try:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"worker timed out after {timeout:.0f} s") \
            from error
    if done.returncode != 0:
        raise BenchError(f"worker {' '.join(argv[:2])} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             scale: str = "full") -> dict:
    """Run one workload as BENCHMARK.json's command does; returns the
    run record."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    scratch = HERE / ".scratch" / f"{workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        def launch(tag: str, extra: list[str]) -> dict:
            workdir = scratch / tag
            workdir.mkdir(parents=True)
            # Modules load from cached bytecode, as an installed
            # package's do, whatever the caller's environment says.
            env = dict(os.environ, PYTHONPYCACHEPREFIX=str(PYCACHE),
                       ZOOMIE_PLAN_CACHE=str(workdir / "plans"))
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            argv = ["--worker", workload, "--seed", str(seed),
                    "--scale", scale, "--workdir", str(workdir),
                    "--t0", repr(time.time()), *extra]
            return _spawn(argv, env, deadline - time.monotonic())

        def set_up(indices) -> list[float]:
            return [launch(f"setup{index}", ["--setup-only"])["setup_s"]
                    for index in indices]

        # Half the set-ups come before the measuring worker and half
        # after it, so a slow phase of the host a few seconds long
        # cannot take in the majority that decides the median.
        setup_runs = 0 if trace or scale == "smoke" else SETUP_SAMPLES - 1
        samples = set_up(range(setup_runs // 2))
        body = launch("body", ["--seconds", str(seconds),
                               "--trace", str(int(trace))])
        samples += set_up(range(setup_runs // 2, setup_runs))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    samples.append(body["setup_s"])
    metrics = dict(body["metrics"], setup_s=statistics.median(samples))
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "scale": scale, "trace": trace,
        "iterations": body["iterations"],
        "iteration_s": body["iteration_s"],
        "calls": body["calls"], "repeats": body["repeats"],
        "setup_samples": samples,
        "cmd_n": body["cmd_n"], "tail_pct": body["tail_pct"],
        "attempted": body["attempted"], "failed": body["failed"],
        "failures": body["failures"],
        "metrics": metrics,
        "layers": body.get("layers"),
        "layer_totals": body.get("layer_totals"),
    }


def _format(value: float) -> str:
    return f"{value:.6g}"


def print_run(record: dict) -> None:
    workload = record["workload"]
    print(f"{workload}  seed {record['seed']}  {record['iterations']} "
          f"iteration(s) in {math.fsum(record['iteration_s']):.2f} s"
          + ("  [traced]" if record["trace"] else ""))
    counts = {
        "setup_s": f"n={len(record['setup_samples'])} set-ups",
        "wall_s": f"{record['calls']} calls, each the fastest of "
                  f"{record['repeats']} repeats",
        "cmd_p50_ms": f"n={record['calls']} calls, the same",
        "cmd_tail_ms": f"p{record['tail_pct']}, n={record['cmd_n']}",
    }
    for name, value in record["metrics"].items():
        unit = METRICS[name][0]
        print(f"  {name:<22} {_format(value):>14} {unit:<9}"
              f"{counts.get(name, '')}")
    for failure in record["failures"]:
        print(f"  FAILED CHECK: {failure.strip()}")
    if record["layers"]:
        from e2e_trace import PER_LAYER_METRICS
        for name, unit in PER_LAYER_METRICS:
            print(f"  {name:<36} {_format(record['layers'][name]):>14} "
                  f"{unit}")


def result_line(record: dict) -> dict:
    """The last line of a run: correctness counts and the metrics."""
    if record["trace"]:
        from e2e_trace import PER_LAYER_METRICS
        metrics = {name: {"value": record["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER_METRICS}
    else:
        metrics = {name: {"value": record["metrics"][name],
                          "unit": METRICS[name][0]}
                   for name in END_TO_END}
    return {"correct": record["failed"] == 0,
            "attempted": max(1, record["attempted"]),
            "failed": record["failed"], "metrics": metrics}


# --------------------------------------------------------------------------
# a set of runs, and the comparison of two sets
# --------------------------------------------------------------------------

def run_set(seed: int, seconds: float, scale: str) -> dict:
    """Warm-up, :data:`REPEATS` interleaved runs per workload, then one
    traced run per workload; returns the set document."""
    print(f"warm-up run of {WORKLOADS[0]} (discarded)", flush=True)
    run_once(WORKLOADS[0], seed, min(seconds, 3), False, scale)
    runs: dict[str, list] = {name: [] for name in WORKLOADS}
    for repeat in range(REPEATS):
        for name in WORKLOADS:
            record = run_once(name, seed, seconds, False, scale)
            runs[name].append(record)
            print(f"[{repeat + 1}/{REPEATS}] {name}: "
                  f"wall_s {record['metrics']['wall_s']:.4f}, "
                  f"{record['failed']} failed check(s)", flush=True)
    traced = {}
    for name in WORKLOADS:
        traced[name] = run_once(name, seed, seconds, True, scale)
        print(f"[traced] {name}: "
              f"wall_s {traced[name]['metrics']['wall_s']:.4f}", flush=True)
    summary = {}
    mismatches = []
    for name, records in runs.items():
        summary[name] = {}
        for metric in METRICS:
            values = [r["metrics"][metric] for r in records
                      if metric in r["metrics"]]
            if values:
                summary[name][metric] = summarize(values)
            if metric in DETERMINISTIC and len(set(values)) > 1:
                mismatches.append(f"{name} {metric}: {values}")
    return {"seed": seed, "seconds": seconds, "repeats": REPEATS,
            "scale": scale, "runs": runs, "traced": traced,
            "summary": summary, "determinism_mismatches": mismatches}


def print_set(document: dict) -> None:
    for name, metrics in document["summary"].items():
        tail = document["runs"][name][0]["tail_pct"]
        print(f"\n{name} (seed {document['seed']}, "
              f"{document['seconds']} s per run)")
        print(f"  {'metric':<22} {'unit':<9} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12}")
        for metric, stats in metrics.items():
            label = metric + (f" (p{tail})" if metric == "cmd_tail_ms"
                              else "")
            print(f"  {label:<22} {METRICS[metric][0]:<9} "
                  f"{stats['n']:>3} {_format(stats['median']):>12} "
                  f"{_format(stats['q1']):>12} {_format(stats['q3']):>12}")
    for mismatch in document["determinism_mismatches"]:
        print(f"NOT DETERMINISTIC: {mismatch}")
    if document["traced"]:
        print("\nper-layer host self time, % of traced wall_s")
        print(breakdown_table(document))


def breakdown_table(document: dict) -> str:
    """Markdown table: layer self share per workload (traced runs)."""
    traced = document["traced"]
    names = list(traced)
    layers = list(next(iter(traced.values()))["layer_totals"])
    lines = ["| layer | " + " | ".join(names) + " |",
             "|---|" + "---:|" * len(names)]
    for layer in layers:
        cells = [f"{traced[n]['layer_totals'][layer]['self_share_pct']:.1f}"
                 for n in names]
        lines.append(f"| `{layer}` | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def compare(base: dict, new: dict) -> int:
    """Print verdicts for every shared (metric, workload) pair; return
    the exit status: 1 on a regression (a higher error rate in any new
    run included) or when the new set failed its determinism check."""
    status = 0
    for mismatch in new["determinism_mismatches"]:
        print(f"NOT DETERMINISTIC (new set): {mismatch}")
        status = 1
    print(f"{'workload':<22} {'metric':<22} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34}  verdict")
    for name in base["summary"]:
        if name not in new["summary"]:
            continue
        for metric, (unit, better, bound) in METRICS.items():
            b = base["summary"][name].get(metric)
            n = new["summary"][name].get(metric)
            if b is None or n is None:
                continue
            result = verdict(b["values"], n["values"], better, bound)
            if result == "regressed":
                status = 1
            print(f"{name:<22} {metric:<22} "
                  f"{_format(b['median']):>12} [{_format(b['q1'])}, "
                  f"{_format(b['q3'])}] {unit:<4}"
                  f"{_format(n['median']):>12} [{_format(n['q1'])}, "
                  f"{_format(n['q3'])}]  {result}")
    print("\ntracing overhead (traced wall_s / untraced median - 1):")
    for label, document in (("base", base), ("new", new)):
        for name, record in document["traced"].items():
            untraced = document["summary"][name]["wall_s"]["median"]
            overhead = record["metrics"]["wall_s"] / untraced - 1
            print(f"  {label:<5} {name:<22} {overhead:+.1%}")
    return status


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (the BENCHMARK.json form)")
    parser.add_argument("--seed", type=int, default=1,
                        help=f"input seed (default 1; seed "
                             f"{HELD_OUT_SEED} is held out for perf "
                             f"claims)")
    parser.add_argument("--seconds", type=float, default=25,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer traced run")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full",
                        help="smoke: tiny iterations, for tests")
    parser.add_argument("--set", action="store_true",
                        help=f"warm-up, {REPEATS} runs of every workload "
                             f"and one traced run each")
    parser.add_argument("--out", help="write the --set document here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two --set documents")
    # Worker protocol (internal).
    parser.add_argument("--worker", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.worker:
        return worker(args)
    # A terminated run still stops and reaps its worker: SystemExit
    # unwinds through subprocess.run, which kills the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.compare:
            base, new = (json.loads(Path(p).read_text())
                         for p in args.compare)
            return compare(base, new)
        if args.set:
            document = run_set(args.seed, args.seconds, args.scale)
            print_set(document)
            if args.out:
                Path(args.out).write_text(
                    json.dumps(document, indent=1) + "\n")
            return 1 if document["determinism_mismatches"] else 0
        if not args.workload:
            raise BenchError("give --workload, --set or --compare")
        record = run_once(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.scale)
    except BenchError as error:
        print(f"bench_e2e: {error}", file=sys.stderr)
        return 2
    print_run(record)
    print("detail: " + json.dumps(
        {k: v for k, v in record.items() if k != "layer_totals"}))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
