"""Tests for the automated debug-campaign harness.

The contract: a campaign over a seeded mutation corpus is byte-
deterministic (same config, same JSON report); killing the host
mid-mutant and recovering yields a report bit-identical to an
uninterrupted run; the CLI verb and ``python -m repro.campaign`` both
speak the same report; and ``campaign.*`` metrics record the work.
"""

import json

import pytest

from repro import Zoomie, ZoomieProject
from repro.campaign import (
    DESIGN_NAMES,
    CampaignConfig,
    campaign_design,
    compile_design,
    run_debug_campaign,
    verify_equivalents,
)
from repro.campaign.__main__ import main as campaign_main
from repro.campaign.harness import CLOCKS_MHZ as MUTATION_CLOCKS
from repro.chaos import FaultSchedule, FaultSpec, install_chaos
from repro.chaos.campaign import CLOCKS_MHZ as CHAOS_CLOCKS
from repro.chaos.campaign import DEFAULT_DESIGNS as CHAOS_DESIGNS
from repro.debug.cli import ZoomieCli
from repro.designs import make_counter
from repro.errors import CampaignError
from repro.obs import get_registry


SMALL = CampaignConfig(designs=("counters",), mutants=3, seed=7)


@pytest.fixture(scope="module")
def small_report():
    return run_debug_campaign(SMALL)


class TestReportShape:
    def test_every_mutant_reported(self, small_report):
        assert len(small_report.outcomes) == 3
        for outcome in small_report.outcomes:
            assert outcome.status in ("detected", "equivalent",
                                      "undetected")
            assert outcome.mutant_id.startswith("counters:")

    def test_summary_aggregates(self, small_report):
        doc = small_report.as_dict()
        summary = doc["summary"]
        assert summary["total"] == 3
        assert summary["detected"] + summary["equivalent"] + \
            summary["undetected"] == 3
        assert summary["tolerance"] == {"signals": 2, "cycles": 16}
        assert 0.0 <= summary["detection_rate"] <= 1.0
        assert 0.0 <= summary["localization_accuracy"] <= 1.0

    def test_detected_mutants_carry_localization(self, small_report):
        detected = [o for o in small_report.outcomes
                    if o.status == "detected"]
        assert detected, "seeded counters corpus must detect something"
        for outcome in detected:
            loc = outcome.localize
            assert loc["method"] in ("bisect", "output-diff")
            assert loc["signals"]
            assert loc["modeled_seconds"] > 0
            assert loc["cycle"] >= outcome.detect["cycle"] or \
                loc["method"] == "output-diff"

    def test_describe_is_human_readable(self, small_report):
        text = small_report.describe()
        assert "detection rate" in text
        assert "localization accuracy" in text

    def test_unknown_design_raises(self):
        with pytest.raises(CampaignError):
            run_debug_campaign(CampaignConfig(designs=("nope",),
                                              mutants=1, seed=7))


@pytest.mark.parametrize("name", CHAOS_DESIGNS)
@pytest.mark.parametrize("clocks, periods_ps", [
    (CHAOS_CLOCKS, {"clk": 10000, "zoomie_clk": 10000}),
    (MUTATION_CLOCKS, {"clk": 10000, "zoomie_clk": 1000}),
], ids=["chaos-1to1", "mutation-10to1"])
def test_each_campaign_compiles_at_its_clock_map(name, clocks, periods_ps):
    """``step`` scales its run bound by the ``zoomie_clk``:MUT ratio, so
    each campaign's map decides what its seeded steps do: the chaos
    campaign runs 1:1, the mutation campaign 10:1."""
    _, _, result = compile_design(campaign_design(name), clocks)
    assert result.database.clocks == periods_ps


class TestDeterminism:
    def test_reports_are_byte_identical(self, small_report):
        again = run_debug_campaign(SMALL)
        assert again.to_json() == small_report.to_json()

    def test_json_has_no_wall_clock_fields(self, small_report):
        doc = json.loads(small_report.to_json())
        flat = json.dumps(doc)
        for forbidden in ("timestamp", "wall", "recover"):
            assert forbidden not in flat

    def test_cohort_gates(self):
        """The acceptance config in miniature: high detection, accurate
        localization, no misclassified equivalents."""
        config = CampaignConfig(designs=("cohort",), mutants=10, seed=7)
        report = run_debug_campaign(config)
        assert report.detection_rate >= 0.9
        assert report.localization_accuracy >= 0.8
        assert verify_equivalents(config, report) == []


def kill(site, kind, **when):
    """Install a one-spec kill-point schedule for a ``with`` block."""
    schedule = FaultSchedule(specs=[FaultSpec(site=site, kind=kind,
                                              **when)])
    return install_chaos(schedule.registry())


class TestCrashRecovery:
    def test_crash_mid_mutant_resumes_bit_identical(self, tmp_path,
                                                    small_report):
        """Kill the host mid-localization on one mutant; the recovered
        campaign must report exactly what the uninterrupted one did."""
        config = CampaignConfig(designs=("counters",), mutants=3, seed=7)
        recoveries = get_registry().counter("campaign.recoveries")
        before = recoveries.value
        with kill("debug.command", "crash_before", at=9) as registry:
            report = run_debug_campaign(config, tmp_path)
        assert registry.faults_fired == 1, "the kill point never fired"
        assert recoveries.value > before
        assert report.to_json() == small_report.to_json()

    def test_mid_command_crash_also_recovers(self, tmp_path,
                                             small_report):
        config = CampaignConfig(designs=("counters",), mutants=3, seed=7)
        recoveries = get_registry().counter("campaign.recoveries")
        before = recoveries.value
        with kill("transport.batch", "crash", at=5) as registry:
            report = run_debug_campaign(config, tmp_path)
        assert registry.faults_fired == 1
        assert recoveries.value > before
        assert report.to_json() == small_report.to_json()

    def test_unrecoverable_mutant_raises(self, tmp_path):
        """A host that dies on every batch: the first death is
        mid-localization, the second hits ``recover_session`` itself.
        Both count against ``max_recoveries``, so the campaign raises
        its typed error rather than a raw SessionCrashedError."""
        config = CampaignConfig(designs=("counters",), mutants=1, seed=7,
                                max_recoveries=1)
        with kill("transport.batch", "crash", rate=1.0,
                  count=100) as registry, pytest.raises(CampaignError):
            run_debug_campaign(config, tmp_path)
        assert registry.faults_fired == 2


class TestMetrics:
    def test_campaign_counters_advance(self):
        registry = get_registry()
        mutants = registry.counter("campaign.mutants")
        detected = registry.counter("campaign.detected")
        before = (mutants.value, detected.value)
        report = run_debug_campaign(SMALL)
        assert mutants.value - before[0] == 3
        n_detected = sum(1 for o in report.outcomes
                         if o.status == "detected")
        assert detected.value - before[1] == n_detected


class TestFrontends:
    @pytest.fixture()
    def cli(self):
        project = ZoomieProject(design=make_counter(width=4),
                                device="TEST2", clocks={"clk": 100.0},
                                watch=["out"])
        return ZoomieCli(Zoomie(project).launch().debugger)

    def test_cli_lists_designs_and_operators(self, cli):
        assert cli.execute("campaign designs").splitlines() == \
            list(DESIGN_NAMES)
        assert "cond_invert" in cli.execute("campaign operators")

    def test_cli_run_matches_harness(self, cli, small_report):
        out = cli.execute(
            "campaign run --design counters --mutants 3 --seed 7 --json")
        assert json.loads(out) == small_report.as_dict()

    def test_cli_run_summary_text(self, cli):
        out = cli.execute(
            "campaign run --design counters --mutants 2 --seed 3")
        assert "detection rate" in out

    def test_cli_usage_errors(self, cli):
        assert "error" in cli.execute("campaign")
        assert "error" in cli.execute("campaign run --mutants")
        assert "error" in cli.execute("campaign run --bogus 3")

    def test_main_module_writes_report(self, tmp_path, small_report,
                                       capsys):
        out_path = tmp_path / "report.json"
        code = campaign_main(["run", "--design", "counters",
                              "--mutants", "3", "--seed", "7",
                              "--out", str(out_path), "--json"])
        assert code == 0
        assert out_path.read_text() == small_report.to_json()
        printed = capsys.readouterr().out
        assert json.loads(printed) == small_report.as_dict()
