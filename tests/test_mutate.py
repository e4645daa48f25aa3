"""Tests for the seeded RTL mutation engine.

The contract: every operator applied to every stock design yields a
netlist that still compiles and runs through the fused-codegen
simulator; the same ``(design, operator, site, seed)`` always rebuilds
the structurally identical mutant; a mutant never collides with its
parent in the plan cache (each operator must move
``Netlist.fingerprint()``, and the parent must not move at all); and
the seeded equivalence probe tells behavior-preserving mutants apart
from real bugs.
"""

import pytest

from repro.campaign.designs import DESIGN_NAMES, campaign_design
from repro.errors import MutationError
from repro.rtl import (
    OPERATORS,
    ModuleBuilder,
    Simulator,
    apply_mutation,
    clear_plan_cache,
    default_stimulus,
    differential_probe,
    elaborate,
    enumerate_sites,
    generate_mutants,
    mux,
)
from repro.rtl import _codegen

DESIGN_BUILDERS = {name: campaign_design(name).build
                   for name in DESIGN_NAMES}


@pytest.fixture(scope="module")
def goldens():
    return {name: elaborate(build())
            for name, build in DESIGN_BUILDERS.items()}


def _exercise(netlist, cycles=8):
    """Build through fused codegen and run a few cycles with live
    inputs — the validity bar every mutant must clear."""
    sim = Simulator(netlist)
    widths = {name: netlist.signals[name] for name in netlist.inputs}
    for name, value in default_stimulus(widths, 1, 0, 0).items():
        sim.poke(name, value)
    sim.step(cycles)
    return sim


class TestOperatorValidity:
    @pytest.mark.parametrize("design", sorted(DESIGN_BUILDERS))
    def test_every_operator_compiles_on_every_design(self, goldens,
                                                     design):
        golden = goldens[design]
        sites = enumerate_sites(golden)
        assert any(sites.values()), f"no mutation sites on {design}"
        for operator in OPERATORS:
            pool = sites[operator]
            if not pool:
                continue  # inapplicable (e.g. mem_addr on counters)
            # First and last site bound the slot enumeration order.
            for site in {pool[0], pool[-1]}:
                mutant = apply_mutation(golden, site, seed=3)
                assert mutant is not golden
                _exercise(mutant)

    def test_memoryless_design_has_no_memory_sites(self, goldens):
        sites = enumerate_sites(goldens["counters"])
        assert sites["mem_addr"] == []
        with pytest.raises(MutationError):
            generate_mutants(goldens["counters"], "counters", 1, 7,
                             operators=("mem_addr",))

    def test_unknown_operator_rejected(self, goldens):
        with pytest.raises(MutationError):
            enumerate_sites(goldens["counters"], operators=("typo",))


class TestDeterminism:
    def test_corpus_is_reproducible(self, goldens):
        golden = goldens["cohort"]
        first = generate_mutants(golden, "cohort", 10, 7)
        second = generate_mutants(golden, "cohort", 10, 7)
        assert [m.mutant_id for m in first] == \
            [m.mutant_id for m in second]
        assert [m.netlist.fingerprint() for m in first] == \
            [m.netlist.fingerprint() for m in second]

    def test_mutant_id_encodes_identity(self, goldens):
        mutant = generate_mutants(goldens["cohort"], "cohort", 1, 7)[0]
        assert mutant.mutant_id == (
            f"cohort:{mutant.operator}:{mutant.site.key}:{mutant.seed}")
        rebuilt = apply_mutation(goldens["cohort"], mutant.site,
                                 mutant.seed)
        assert rebuilt.fingerprint() == mutant.netlist.fingerprint()

    def test_different_seeds_differ(self, goldens):
        a = generate_mutants(goldens["cohort"], "cohort", 5, 7)
        b = generate_mutants(goldens["cohort"], "cohort", 5, 8)
        assert [m.mutant_id for m in a] != [m.mutant_id for m in b]


class TestFingerprintSeparation:
    """Satellite: mutants must not collide with their parent in the
    plan cache — every operator moves the fingerprint, the parent's
    own fingerprint never moves."""

    def test_every_operator_moves_the_fingerprint(self, goldens):
        parents = {name: net.fingerprint()
                   for name, net in goldens.items()}
        for operator in OPERATORS:
            applied = False
            for name in sorted(goldens):
                golden = goldens[name]
                pool = enumerate_sites(golden, (operator,))[operator]
                if not pool:
                    continue
                applied = True
                mutant = apply_mutation(golden, pool[0], seed=3)
                assert mutant.fingerprint() != parents[name], \
                    f"{operator} collided with parent on {name}"
            assert applied, f"{operator} applies to no stock design"
        # ... and no parent was touched by any of them.
        for name, golden in goldens.items():
            assert golden.fingerprint() == parents[name]

    def test_clone_isolates_mutable_state(self, goldens):
        """The historical hazard: Register/Memory dataclasses shared
        between parent and derived netlists alias mutations back."""
        golden = goldens["cohort"]
        parent_fp = golden.fingerprint()
        clone = golden.clone()
        name, reg = next(iter(clone.registers.items()))
        reg.reset_value = (reg.reset_value or 0) ^ 1
        assert golden.registers[name].reset_value != reg.reset_value
        assert golden.fingerprint() == parent_fp
        assert clone.fingerprint() != parent_fp

    def test_parent_and_mutant_get_distinct_plan_entries(self, goldens):
        clear_plan_cache()
        try:
            golden = goldens["counters"]
            mutant = generate_mutants(golden, "counters", 1, 7)[0]
            parent_sim = _exercise(golden)
            mutant_sim = _exercise(mutant.netlist)
            assert set(_codegen._PLAN_CACHE) == {
                golden.fingerprint(), mutant.netlist.fingerprint()}
            assert parent_sim._plan is not mutant_sim._plan
        finally:
            clear_plan_cache()


class TestEquivalenceProbe:
    def _dead_arm_module(self):
        b = ModuleBuilder("deadarm")
        en = b.input("en", 1)
        count = b.reg("count", 8)
        # The false arm of the outer mux is unreachable: its constant
        # can be corrupted without changing behavior.
        b.next(count, mux(b.const(1, 1),
                          mux(en, count + 1, count),
                          count + 0x55))
        b.output_expr("out", count)
        return b.build()

    def test_probe_separates_equivalent_from_buggy(self):
        golden = elaborate(self._dead_arm_module())
        sites = enumerate_sites(golden)["const_replace"]
        verdicts = []
        for site in sites:
            mutant = apply_mutation(golden, site, seed=3)
            probe = differential_probe(golden, mutant, seed=7,
                                       cycles=128, lanes=4)
            verdicts.append(probe is not None)
        assert any(verdicts), "no site produced an observable bug"
        assert not all(verdicts), \
            "dead-arm mutation was wrongly flagged as divergent"

    def test_probe_reports_first_divergence(self, goldens):
        golden = goldens["counters"]
        mutant = generate_mutants(golden, "counters", 1, 7)[0]
        probe = differential_probe(golden, mutant.netlist, seed=7,
                                   cycles=64, lanes=4, exact=True)
        assert probe is not None
        assert probe.cycle >= 1
        assert probe.golden != probe.mutant
        again = differential_probe(golden, mutant.netlist, seed=7,
                                   cycles=64, lanes=4, exact=True)
        assert (probe.cycle, probe.lane, probe.signal) == \
            (again.cycle, again.lane, again.signal)
