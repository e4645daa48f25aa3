"""Mutation/fuzz tests for the VTI compile cache and scheduler.

Seeded random sequences of partition edits — grow, shrink, rename
internal state, boundary-preserving rewrites, exact repeats — run
through a cached flow and a cold flow in lockstep (mutation-based
methodology per Zhang et al., PAPERS.md). Invariants:

- the cache never serves a stale artifact: after every edit, the cached
  flow's full output (seconds, timing, databases, partial bitstreams)
  is bit-identical to the cold flow's;
- boundary-incompatible mutants always raise, never link — from both
  flows, hit or miss;
- the hit/miss ledger matches an exact replay of the sequence.
"""

import random

import pytest

from repro.designs import make_cluster
from repro.errors import PartitionError
from repro.vti import CompileCache, PartitionSpec, VtiFlow
from repro.vti.cache import module_fingerprint
from tests.test_vti_differential import (
    assert_results_identical,
    counter_farm,
    make_test_device,
)
from repro.rtl import ModuleBuilder, mux

PARTITION = "c0"
OPS_PER_SEQUENCE = 24


def build_mutant(step=1, extra_regs=0, reg_name="count", init=0):
    """A boundary-compatible rewrite of ``leaf0``.

    ``step`` rewrites the update logic, ``extra_regs`` grows the
    partition (pipeline stages), ``reg_name`` renames internal state,
    ``init`` changes only the power-on value — all behind the same
    en/out port contract.
    """
    b = ModuleBuilder("leaf0")
    en = b.input("en", 1)
    count = b.reg(reg_name, 8, init=init)
    out = count
    for index in range(extra_regs):
        stage = b.reg(f"stage{index}", 8)
        b.next(stage, out)
        out = stage
    b.next(count, mux(en, count + step, count))
    b.output_expr("out", out)
    return b.build()


def build_boundary_break(step=1):
    """Same logic, one extra output port — must never link."""
    b = ModuleBuilder("leaf0")
    en = b.input("en", 1)
    count = b.reg("count", 8)
    b.next(count, mux(en, count + step, count))
    b.output_expr("out", count)
    b.output_expr("dbg", count[0])
    return b.build()


def make_flows():
    cache = CompileCache()
    cached = VtiFlow(make_test_device(), cache=cache)
    cold = VtiFlow(make_test_device(), cache=None)
    initial_cached = cached.compile_initial(
        counter_farm(), {"clk": 100.0},
        [PartitionSpec("c0"), PartitionSpec("c1")], debug_slr=0)
    initial_cold = cold.compile_initial(
        counter_farm(), {"clk": 100.0},
        [PartitionSpec("c0"), PartitionSpec("c1")], debug_slr=0)
    return cache, cached, cold, initial_cached, initial_cold


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", [1, 7, 23])
def test_random_edit_sequences_never_serve_stale_artifacts(seed):
    rng = random.Random(seed)
    cache, cached, cold, initial_c, initial_x = make_flows()
    seen: set[tuple] = set()
    history: list[tuple] = []
    expected_hits = expected_misses = break_count = 0

    for _op in range(OPS_PER_SEQUENCE):
        roll = rng.random()
        if roll < 0.2:
            # Boundary break: both flows must refuse to link.
            module_c = build_boundary_break(step=rng.randint(1, 5))
            with pytest.raises(PartitionError):
                cached.compile_incremental(initial_c, PARTITION,
                                           module_c)
            with pytest.raises(PartitionError):
                cold.compile_incremental(initial_x, PARTITION, module_c)
            expected_misses += 1  # probed, raised, never stored
            break_count += 1
            continue
        if roll < 0.4 and history:
            key = history[rng.randrange(len(history))]
        else:
            key = (rng.randint(1, 5), rng.randint(0, 3),
                   rng.choice(["count", "tally", "acc"]),
                   rng.choice([0, 0, 1, 255]))
        step, extra_regs, reg_name, init = key
        # Fresh, content-equal module objects each time: a hit must
        # come from content addressing, never object identity.
        module_for_cached = build_mutant(step, extra_regs, reg_name,
                                         init)
        module_for_cold = build_mutant(step, extra_regs, reg_name, init)
        assert module_fingerprint(module_for_cached) \
            == module_fingerprint(module_for_cold)
        result_c = cached.compile_incremental(
            initial_c, PARTITION, module_for_cached)
        result_x = cold.compile_incremental(
            initial_x, PARTITION, module_for_cold)
        assert_results_identical(result_c, result_x)
        if key in seen:
            assert result_c.cache_hit
            expected_hits += 1
        else:
            assert not result_c.cache_hit
            expected_misses += 1
            seen.add(key)
        history.append(key)

    assert cache.stats.hits == expected_hits
    assert cache.stats.misses == expected_misses
    assert cache.stats.puts == len(seen)
    assert break_count == 0 or cache.stats.misses > len(seen)


@pytest.mark.fuzz
def test_boundary_break_never_hits_even_after_compatible_twin():
    """A compatible module and its boundary-broken twin share internals;
    the broken one must not ride the compatible one's cache entry."""
    _cache, cached, _cold, initial_c, _initial_x = make_flows()
    good = build_mutant(step=2)
    cached.compile_incremental(initial_c, PARTITION, good)
    for _attempt in range(2):
        with pytest.raises(PartitionError):
            cached.compile_incremental(
                initial_c, PARTITION, build_boundary_break(step=2))


@pytest.mark.fuzz
def test_fingerprint_distinguishes_init_values():
    """Netlist.fingerprint() ignores init values by design; the compile
    cache must not — inits land in configuration frames."""
    base = build_mutant(init=0)
    same = build_mutant(init=0)
    hot = build_mutant(init=255)
    assert module_fingerprint(base) == module_fingerprint(same)
    assert module_fingerprint(base) != module_fingerprint(hot)
    # A module attribute is content too.
    same.attributes["real_change"] = 1
    assert module_fingerprint(base) != module_fingerprint(same)


def _module_attributes(top):
    """A copy of every module definition's attributes, by identity."""
    out = {}
    stack = [top]
    while stack:
        module = stack.pop()
        if id(module) not in out:
            out[id(module)] = dict(module.attributes)
            stack.extend(inst.module for inst in module.instances.values())
    return out


@pytest.mark.fuzz
def test_compile_initial_leaves_module_attributes_unchanged():
    """The split writes nothing into the user's modules. The cluster
    puts one ``serv_core`` definition under both cores, so a
    per-partition mark would end up naming whichever core was split
    last; both partition orders must leave every module as it was."""
    top = make_cluster(cores=2, imem_depth=64)
    before = _module_attributes(top)
    for paths in (("core0", "core1"), ("core1", "core0")):
        initial = VtiFlow(make_test_device(2)).compile_initial(
            top, {"clk": 100.0}, [PartitionSpec(p) for p in paths],
            debug_slr=0)
        split = initial.split
        assert split.partition("core0").module \
            is split.partition("core1").module
        assert _module_attributes(top) == before, paths
