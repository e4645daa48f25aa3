"""Tests of the end-to-end benchmark itself (``pytest benchmarks/e2e``).

Kept out of the tier-1 suite: they start benchmark worker processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_e2e
from bench_e2e import END_TO_END, METRICS, WORKLOADS, verdict
from e2e_trace import PER_LAYER_METRICS

ROOT = bench_e2e.ROOT
SCRIPT = Path(bench_e2e.__file__).resolve()


def _run(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run the benchmark the way BENCHMARK.json's command does."""
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", *argv], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def _result(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    *_, detail, last = done.stdout.strip().splitlines()
    assert detail.startswith("detail: ")
    return json.loads(last), json.loads(detail[len("detail: "):])


def test_every_workload_reports_every_metric_at_smoke_scale():
    for workload in WORKLOADS:
        result, detail = _result(_run(
            "--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", "0", "--scale", "smoke"))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == list(END_TO_END)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == METRICS[name][0]
            assert metric["value"] > 0, (workload, name)
        assert result["correct"] and result["failed"] == 0, \
            detail["failures"]
        assert result["attempted"] >= 1
        assert detail["metrics"]["error_rate"] == 0


def test_traced_run_reports_per_layer_metrics():
    result, detail = _result(_run(
        "--workload", "cohort_crash_recover", "--seed", "1",
        "--seconds", "0", "--trace", "1", "--scale", "smoke"))
    assert [(name, metric["unit"])
            for name, metric in result["metrics"].items()] \
        == PER_LAYER_METRICS
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["config.fabric.capture.self_share"] > 0
    assert metrics["debug.recovery.self_share"] > 0
    assert metrics["vti.flow.self_share"] == 0
    assert metrics["unattributed.self_share"] < 10
    assert result["correct"]
    trace = json.loads(
        (SCRIPT.parent / "TRACE_cohort_crash_recover.json").read_text())
    assert trace["spans"] and trace["layers"]["debug.journal"]["self_s"] > 0


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] \
        == [(name, *METRICS[name]) for name in END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == PER_LAYER_METRICS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SCRIPT.parent, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("TRACE_*", "__pycache__",
                                                  ".scratch"))
    done = _run("--workload", "vti_edit_loop", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("base, new, better, bound, expected", [
    # Same distribution: unchanged.
    ([10.0, 10.1, 9.9, 10.0, 10.05], [10.02, 9.95, 10.1, 10.0, 9.98],
     "lower", 0.10, "unchanged"),
    # 30% faster on every pair: improved.
    ([10.0, 10.1, 9.9, 10.0, 10.05], [7.0, 7.1, 6.9, 7.0, 7.05],
     "lower", 0.10, "improved"),
    # 30% slower: regressed.
    ([10.0, 10.1, 9.9, 10.0, 10.05], [13.0, 13.1, 12.9, 13.0, 13.05],
     "lower", 0.10, "regressed"),
    # A higher-is-better metric that dropped: regressed.
    ([100.0, 101.0, 99.0], [80.0, 81.0, 79.0], "higher", 0.10,
     "regressed"),
    # The base's own quartile spread (~40%) exceeds the bound.
    ([6.0, 14.0, 8.0, 12.0, 10.0], [9.0, 11.0, 10.5, 9.5, 10.0],
     "lower", 0.10, "unresolved"),
    # ... unless every new run beats every base run.
    ([6.0, 14.0, 8.0, 12.0, 10.0], [2.0, 2.1, 1.9, 2.0, 2.05],
     "lower", 0.10, "improved"),
    # A gain past the bound that loses too many paired runs.
    ([10.0, 10.0, 10.0, 10.0, 10.0], [8.0, 8.0, 8.0, 8.0, 10.5],
     "lower", 0.10, "unresolved"),
    # Exact metrics are judged by their worst run: one failing new run
    # is a regression, from a zero base too.
    ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "lower", 0.0, "unchanged"),
    ([0.0, 0.0, 0.0], [0.1, 0.0, 0.0], "lower", 0.0, "regressed"),
    ([0.0, 0.0, 0.0], [0.1, 0.1, 0.0], "lower", 0.0, "regressed"),
    ([41.5, 41.5], [41.5000001, 41.5000001], "lower", 0.0, "regressed"),
    ([0.94, 0.94, 0.94], [0.94, 0.9, 0.94], "higher", 0.0, "regressed"),
    ([0.94, 0.94, 0.94], [1.0, 1.0, 1.0], "higher", 0.0, "improved"),
])
def test_compare_verdicts(base, new, better, bound, expected):
    assert verdict(base, new, better, bound) == expected


def _set_document(error_rates, mismatches=()):
    runs = [{"metrics": {"wall_s": 1.0, "error_rate": rate}}
            for rate in error_rates]
    return {
        "summary": {"cohort_session": {
            name: bench_e2e.summarize([r["metrics"][name] for r in runs])
            for name in ("wall_s", "error_rate")}},
        "traced": {}, "determinism_mismatches": list(mismatches)}


@pytest.mark.parametrize("new, status", [
    (_set_document([0.0, 0.0, 0.0]), 0),
    # One failing run in five keeps the median at 0, and still fails.
    (_set_document([0.0, 0.0, 0.01, 0.0, 0.0]), 1),
    # A new set that failed its own determinism check.
    (_set_document([0.0, 0.0, 0.0], ["cohort_session modeled_debug_s"]), 1),
])
def test_compare_exit_status(new, status):
    assert bench_e2e.compare(_set_document([0.0, 0.0, 0.0]), new) == status
