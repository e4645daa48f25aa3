"""Tests for the compiled-plan store: the per-process cache of
:class:`~repro.rtl._codegen.CompiledPlan` objects keyed by
``Netlist.fingerprint()``.

The contract: scalar and K-lane kernels of one design accumulate in one
plan entry, the store is bounded (least recently used plans go first),
``plan_cache_stats()`` reports hits, misses, evictions and size, and
nothing — neither the plan store nor the VTI compile cache — writes
outside the process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.designs import make_counter
from repro.rtl import (
    BatchSimulator,
    Simulator,
    _codegen,
    clear_plan_cache,
    elaborate,
    plan_cache_stats,
)

_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _fresh_plan_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _counter_net(width=8):
    return elaborate(make_counter(width))


def _run(net):
    sim = Simulator(net)
    sim.poke("en", 1)
    sim.step(20)
    return sim.peek("count")


def test_batch_kernels_accumulate_in_same_entry():
    net = _counter_net()
    batch = BatchSimulator(net, 4)
    batch.poke("en", 1)
    batch.step(10)
    stored = _codegen.compiled_plan_for(net)._sources
    assert "settle" in stored
    assert "b4:settle" in stored
    assert any(key.startswith("b4:run:") for key in stored)

    hits_before = plan_cache_stats()["hits"]
    again = BatchSimulator(net, 4)
    again.poke("en", 1)
    again.step(10)
    assert again.peek("count") == batch.peek("count")
    assert again._plan is batch._plan
    assert plan_cache_stats()["hits"] > hits_before


def test_eviction_caps_entry_count(monkeypatch):
    monkeypatch.setattr(_codegen, "_PLAN_CACHE_LIMIT", 3)
    nets = [_counter_net(width) for width in range(4, 10)]
    for net in nets:
        _run(net)
    stats = plan_cache_stats()
    assert stats["size"] == 3
    assert stats["evictions"] == 3
    # The newest plans survive; the oldest were evicted first.
    assert list(_codegen._PLAN_CACHE) == [
        net.fingerprint() for net in nets[3:]]


def test_stats_dict_shape_and_plan_cache_stats():
    net = _counter_net()
    assert _run(net) == 20
    assert _run(net) == 20
    assert plan_cache_stats() == {"hits": 1, "misses": 1,
                                  "evictions": 0, "size": 1}


_CHILD = """\
from repro.designs import make_counter
from repro.rtl import Simulator, elaborate
from repro.vti import CompileCache
from tests.test_vti_differential import make_initial

sim = Simulator(elaborate(make_counter(8)))
sim.poke("en", 1)
sim.step(20)
assert sim.peek("count") == 20
flow, initial, changes = make_initial(CompileCache(), "counters")
for path in sorted(changes):
    flow.compile_incremental(initial, path, changes[path])
"""


def test_simulation_and_vti_compiles_write_nothing_under_home(tmp_path):
    """A fresh process that steps a simulator and runs a VTI incremental
    compile leaves its home and cache directories untouched."""
    home = tmp_path / "home"
    home.mkdir()
    env = dict(os.environ, HOME=str(home), XDG_CACHE_HOME=str(home),
               PYTHONPATH=os.pathsep.join([str(_ROOT / "src"), str(_ROOT)]))
    env.pop("ZOOMIE_PLAN_CACHE", None)
    subprocess.run([sys.executable, "-c", _CHILD], env=env, cwd=_ROOT,
                   check=True, capture_output=True, text=True)
    assert sorted(home.rglob("*")) == []
