"""Content-addressed artifact cache for VTI incremental compiles.

An incremental recompile of an unchanged partition module repeats the
*version-independent* work: boundary check, partition-local synthesis,
requirement estimation, region timing, flattening the partition and
splicing it into the baseline netlist, and the partition's BEL
placement (the baseline's, reused when the edit keeps the register
layout). All of that is a pure function of (device, flow seed, baseline
checkpoint, partition spec, region, old module netlist, new module
netlist) — so it is keyed by a SHA-256 fingerprint over exactly those
inputs and memoized here. The baseline module's half of the key is
computed once, by the initial compile.

What is *never* cached: modeled stage seconds (their jitter is keyed by
the compile's version so single, batched, and cached compiles stay
bit-identical — they are recomputed arithmetically each call) and every
version-dependent artifact (the ``{base}.v{version}`` database name, the
frame words synthesized from it, and the partial bitstream).

Entries live in memory for one process; nothing is written to disk.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..config.logic_loc import LLEntry
from ..obs import get_registry
from ..rtl.module import Module
from ..rtl.netlist import Netlist
from ..vendor.place import MemoryPlacement
from ..vendor.timing import TimingResult
from .estimate import RegionRequirement
from .link import boundary_signature

#: Salt of every compile fingerprint.
CACHE_MAGIC = "zoomie-vticache-v1"
#: Entries kept before LRU eviction.
DEFAULT_CAPACITY = 256


# --------------------------------------------------------------------------
# fingerprinting
# --------------------------------------------------------------------------

def module_fingerprint(module: Module) -> str:
    """Structural SHA-256 of a module hierarchy, init values included.

    ``Netlist.fingerprint()`` deliberately excludes register and memory
    init values (two designs differing only in initial contents share a
    plan). A compile cache cannot: inits land in configuration frames,
    so they are part of this key, as are reset values, port interfaces,
    every expression (their ``repr``s are deterministic), and instance
    wiring. Shared child definitions hash once (memo by identity).
    """
    memo: dict[int, str] = {}

    def digest(m: Module) -> str:
        known = memo.get(id(m))
        if known is not None:
            return known
        sha = hashlib.sha256()

        def put(text: str) -> None:
            sha.update(text.encode("utf-8"))
            sha.update(b"\x00")

        put(f"module {m.name}")
        for name in sorted(m.ports):
            port = m.ports[name]
            put(f"port {port.name} {port.width} {port.direction}")
        for name in sorted(m.wires):
            put(f"wire {name} {m.wires[name]}")
        for name in sorted(m.assigns):
            put(f"assign {name} = {m.assigns[name]!r}")
        for name in sorted(m.registers):
            reg = m.registers[name]
            put(f"reg {name} w{reg.width} init{reg.init} clk{reg.clock} "
                f"next({reg.next!r}) en({reg.enable!r}) "
                f"rst({reg.reset!r}) rv{reg.reset_value}")
        for name in sorted(m.memories):
            memory = m.memories[name]
            put(f"mem {name} w{memory.width} d{memory.depth}")
            for addr in sorted(memory.init):
                put(f"mem-init {addr} {memory.init[addr]}")
            for port in memory.read_ports:
                put(f"rd {port.name} a({port.addr!r}) s{port.sync} "
                    f"en({port.enable!r}) clk{port.clock}")
            for port in memory.write_ports:
                put(f"wr a({port.addr!r}) d({port.data!r}) "
                    f"en({port.enable!r}) clk{port.clock}")
        for text in m.assertions:
            put(f"assert {text}")
        for key in sorted(m.attributes):
            put(f"attr {key} = {m.attributes[key]!r}")
        for name in sorted(m.instances):
            inst = m.instances[name]
            put(f"inst {name} of {digest(inst.module)}")
            for pname in sorted(inst.inputs):
                put(f"in {pname} = {inst.inputs[pname]!r}")
            for pname in sorted(inst.outputs):
                put(f"out {pname} -> {inst.outputs[pname]}")
        memo[id(m)] = sha.hexdigest()
        return memo[id(m)]

    return digest(module)


def compile_fingerprint(*, part: str, seed: str, base_name: str,
                        partition_path: str, over_provision: float,
                        region: str, baseline_boundary: str,
                        baseline_digest: str, module: Module) -> str:
    """Content address of one incremental compile's cacheable work.

    The baseline (the partition module the initial compile split out)
    is part of the key, as its :func:`boundary_signature` and
    :func:`module_fingerprint`, because a hit also vouches for the
    boundary check — which was proven against exactly this baseline.
    """
    material = "\x00".join([
        CACHE_MAGIC, part, seed, base_name, partition_path,
        f"{over_provision:.6f}", region,
        baseline_boundary, boundary_signature(module),
        baseline_digest, module_fingerprint(module),
    ])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# entries
# --------------------------------------------------------------------------

@dataclass
class CacheEntry:
    """The version-independent artifacts of one incremental compile.

    ``new_top`` is the stitched top of a real edit. ``flat`` (the
    spliced netlist), ``partition_ll`` and ``partition_memories`` are
    filled by the database rebuild (designs without a fabric database
    never compute them); the last two are the baseline's own, shared,
    when the edit kept the partition's register layout. A hit serves
    all of them, so it neither flattens nor places.
    """

    fingerprint: str
    boundary_nets: int
    requirement: RegionRequirement
    timing: TimingResult
    partition_nets: int
    partition_ll: Optional[Sequence[LLEntry]] = None
    partition_memories: Optional[Mapping[str, MemoryPlacement]] = None
    flat: Optional[Netlist] = None
    new_top: Optional[Module] = None


# --------------------------------------------------------------------------
# the cache
# --------------------------------------------------------------------------

@dataclass
class CacheStats:
    """Per-instance counters (the registry aggregates across instances)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "evictions": self.evictions}

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CompileCache:
    """LRU, content-addressed store of :class:`CacheEntry` objects.

    Thread-safe: the process-wide default cache is shared by every
    flow, whichever thread runs it.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        registry = get_registry()
        self._m_hits = registry.counter("vti.cache.hits")
        self._m_misses = registry.counter("vti.cache.misses")
        self._m_puts = registry.counter("vti.cache.puts")
        self._m_evictions = registry.counter("vti.cache.evictions")
        self._m_entries = registry.gauge("vti.cache.entries")

    # -- lookup ------------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[CacheEntry]:
        """The entry filed under ``fingerprint``, or None (a miss)."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                self.stats.hits += 1
                self._m_hits.inc()
                return entry
            self.stats.misses += 1
            self._m_misses.inc()
            return None

    def put(self, entry: CacheEntry) -> None:
        """File a freshly compiled entry under its fingerprint."""
        with self._lock:
            self.stats.puts += 1
            self._m_puts.inc()
            self._insert(entry.fingerprint, entry)

    def _insert(self, fingerprint: str, entry: CacheEntry) -> None:
        self._entries[fingerprint] = entry
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._m_evictions.inc()
        self._m_entries.set(len(self._entries))

    def clear(self) -> int:
        """Drop every entry; returns how many."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._m_entries.set(0)
            return dropped

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    # -- reporting ---------------------------------------------------------

    def stats_dict(self) -> dict:
        with self._lock:
            out = self.stats.as_dict()
            out["entries"] = len(self._entries)
            out["capacity"] = self.capacity
            out["hit_rate"] = round(self.stats.hit_rate(), 4)
            return out

    def summary(self) -> str:
        stats = self.stats_dict()
        lines = [
            f"vti compile cache: {stats['entries']}/{stats['capacity']} "
            f"entries",
            f"  hits {stats['hits']}  misses {stats['misses']}  "
            f"hit-rate {stats['hit_rate'] * 100:.1f}%",
            f"  puts {stats['puts']}  evictions {stats['evictions']}",
        ]
        return "\n".join(lines)


# --------------------------------------------------------------------------
# process-wide default
# --------------------------------------------------------------------------

_DEFAULT_CACHE: Optional[CompileCache] = None
_DEFAULT_LOCK = threading.Lock()


def get_default_cache() -> CompileCache:
    """The process-wide cache every :class:`VtiFlow` shares by default."""
    global _DEFAULT_CACHE
    with _DEFAULT_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = CompileCache()
        return _DEFAULT_CACHE
