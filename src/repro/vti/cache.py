"""Content-addressed artifact cache for VTI incremental compiles.

An incremental recompile of an unchanged partition module repeats the
expensive, *version-independent* work: boundary check, partition-local
synthesis, requirement estimation, region timing, elaboration of the
stitched top, and the partition's BEL re-placement. All of that is a
pure function of (device, flow seed, baseline checkpoint, partition
spec, region, old module netlist, new module netlist) — so it is keyed
by a SHA-256 fingerprint over exactly those inputs and memoized here.

What is *never* cached: modeled stage seconds (their jitter is keyed by
the compile's version so single, batched, and cached compiles stay
bit-identical — they are recomputed arithmetically each call) and every
version-dependent artifact (the ``{base}.v{version}`` database name, the
frame words synthesized from it, and the partial bitstream).

Entries optionally persist to a directory following the
``SnapshotStore`` pattern (PR 3): a ``magic length crc32`` header over a
JSON body, temp-file + rename writes, and any integrity failure on load
is treated as a miss — the cache self-heals by recompiling.
"""

from __future__ import annotations

import hashlib
import json
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..chaos.schedule import fault_point
from ..chaos.supervise import note_degradation
from ..config.logic_loc import LLEntry
from ..errors import DiskFaultError
from ..obs import get_registry
from ..rtl.module import Module
from ..rtl.netlist import Netlist
from ..vendor.place import MemoryPlacement
from ..vendor.resources import ResourceVector
from ..vendor.timing import PathReport, TimingResult
from .estimate import RegionRequirement
from .link import boundary_signature

#: Header magic of every stored cache entry file.
CACHE_MAGIC = "zoomie-vticache-v1"
#: Filename suffix of stored entries.
SUFFIX = ".vtic"
#: In-memory entries kept before LRU eviction.
DEFAULT_CAPACITY = 256

#: Module attributes stamped by ``split_design`` (reset insertion); they
#: mark bookkeeping, not netlist content, so fingerprints skip them —
#: the pristine user module and its partition-prepared twin must hash
#: identically.
_SPLIT_MARKERS = ("vti_partition", "vti_reset_inserted")


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
            if key in _SPLIT_MARKERS:
                continue
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
                        region: str, baseline: Module,
                        module: Module) -> str:
    """Content address of one incremental compile's cacheable work.

    ``baseline`` (the partition module the initial compile split out) is
    part of the key because a hit also vouches for the boundary check —
    which was proven against exactly this baseline.
    """
    material = "\x00".join([
        CACHE_MAGIC, part, seed, base_name, partition_path,
        f"{over_provision:.6f}", region,
        boundary_signature(baseline), boundary_signature(module),
        module_fingerprint(baseline), module_fingerprint(module),
    ])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# entries
# --------------------------------------------------------------------------

@dataclass
class CacheEntry:
    """The version-independent artifacts of one incremental compile.

    ``flat``, ``new_top``, ``partition_ll``, and ``partition_memories``
    are filled lazily by the database rebuild (designs without a fabric
    database never compute them); ``flat`` and ``new_top`` live only in
    memory — a disk round-trip recomputes them from the netlist on first
    use, which is still O(partition) stitching, not O(design) placement.
    """

    fingerprint: str
    partition_path: str
    boundary_nets: int
    requirement: RegionRequirement
    timing: TimingResult
    partition_nets: int
    partition_ll: Optional[list[LLEntry]] = None
    partition_memories: Optional[dict[str, MemoryPlacement]] = None
    flat: Optional[Netlist] = None
    new_top: Optional[Module] = None
    hits: int = 0


def _entry_to_record(entry: CacheEntry) -> dict:
    record = {
        "fingerprint": entry.fingerprint,
        "partition_path": entry.partition_path,
        "boundary_nets": entry.boundary_nets,
        "requirement": {
            "partition_path": entry.requirement.partition_path,
            "raw": entry.requirement.raw.as_dict(),
            "over_provision": entry.requirement.over_provision,
            "estimated": entry.requirement.estimated.as_dict(),
        },
        "timing": {
            "fmax_mhz": entry.timing.fmax_mhz,
            "slack_ns": entry.timing.slack_ns,
            "met": entry.timing.met,
            "paths": [[p.module, p.delay_ns] for p in entry.timing.paths],
        },
        "partition_nets": entry.partition_nets,
    }
    if entry.partition_ll is not None:
        record["partition_ll"] = [e.to_line() for e in entry.partition_ll]
    if entry.partition_memories is not None:
        record["partition_memories"] = {
            name: [p.name, p.slr, p.column, p.column_kind,
                   p.start_frame, p.bits]
            for name, p in entry.partition_memories.items()
        }
    return record


def _entry_from_record(record: dict) -> CacheEntry:
    req = record["requirement"]
    timing = record["timing"]
    partition_ll = None
    if "partition_ll" in record:
        partition_ll = [LLEntry.from_line(line)
                        for line in record["partition_ll"]]
    partition_memories = None
    if "partition_memories" in record:
        partition_memories = {
            name: MemoryPlacement(
                name=row[0], slr=row[1], column=row[2],
                column_kind=row[3], start_frame=row[4], bits=row[5])
            for name, row in record["partition_memories"].items()
        }
    return CacheEntry(
        fingerprint=record["fingerprint"],
        partition_path=record["partition_path"],
        boundary_nets=record["boundary_nets"],
        requirement=RegionRequirement(
            partition_path=req["partition_path"],
            raw=ResourceVector.from_dict(req["raw"]),
            over_provision=req["over_provision"],
            estimated=ResourceVector.from_dict(req["estimated"])),
        timing=TimingResult(
            fmax_mhz=dict(timing["fmax_mhz"]),
            slack_ns=dict(timing["slack_ns"]),
            met=timing["met"],
            paths=[PathReport(module=module, delay_ns=delay)
                   for module, delay in timing["paths"]]),
        partition_nets=record["partition_nets"],
        partition_ll=partition_ll,
        partition_memories=partition_memories,
    )


# --------------------------------------------------------------------------
# the cache
# --------------------------------------------------------------------------

@dataclass
class CacheStats:
    """Per-instance counters (the registry aggregates across instances)."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    puts: int = 0
    evictions: int = 0
    integrity_failures: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits, "misses": self.misses,
            "disk_hits": self.disk_hits, "puts": self.puts,
            "evictions": self.evictions,
            "integrity_failures": self.integrity_failures,
        }

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CompileCache:
    """LRU, content-addressed store of :class:`CacheEntry` objects.

    Thread-safe: the process-wide default cache is shared by every
    flow, whichever thread runs it. With ``root`` set, entries also
    persist on disk and survive the process — a cold process
    warm-starts from the store.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 root=None):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.root: Optional[Path] = None
        if root is not None:
            self.root = Path(root)
            self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        registry = get_registry()
        self._m_hits = registry.counter("vti.cache.hits")
        self._m_misses = registry.counter("vti.cache.misses")
        self._m_disk_hits = registry.counter("vti.cache.disk_hits")
        self._m_puts = registry.counter("vti.cache.puts")
        self._m_evictions = registry.counter("vti.cache.evictions")
        self._m_bad = registry.counter("vti.cache.integrity_failures")
        self._m_entries = registry.gauge("vti.cache.entries")

    # -- lookup ------------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[CacheEntry]:
        """The entry filed under ``fingerprint``, or None (a miss)."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                entry.hits += 1
                self.stats.hits += 1
                self._m_hits.inc()
                return entry
            entry = self._load_disk(fingerprint)
            if entry is not None:
                entry.hits += 1
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._m_hits.inc()
                self._m_disk_hits.inc()
                self._insert(fingerprint, entry)
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
            if self.root is not None:
                self._store_disk(entry)

    def _insert(self, fingerprint: str, entry: CacheEntry) -> None:
        self._entries[fingerprint] = entry
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._m_evictions.inc()
        self._m_entries.set(len(self._entries))

    def clear(self) -> int:
        """Drop every entry (memory and disk); returns how many."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            if self.root is not None:
                for path in self.root.glob(f"*{SUFFIX}"):
                    try:
                        path.unlink()
                    except FileNotFoundError:
                        continue  # concurrent clear/evict got it first
                    dropped += 1
            self._m_entries.set(0)
            return dropped

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._entries:
                return True
        return self.root is not None \
            and self._disk_path(fingerprint).exists()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[str]:
        with self._lock:
            keys = set(self._entries)
        if self.root is not None:
            keys.update(p.name[:-len(SUFFIX)]
                        for p in self.root.glob(f"*{SUFFIX}"))
        return sorted(keys)

    # -- disk store (SnapshotStore pattern) --------------------------------

    def _disk_path(self, fingerprint: str) -> Path:
        assert self.root is not None
        return self.root / f"{fingerprint}{SUFFIX}"

    def _store_disk(self, entry: CacheEntry) -> None:
        body = json.dumps(_entry_to_record(entry), sort_keys=True)
        data = body.encode("utf-8")
        header = (f"{CACHE_MAGIC} {len(data):08x} "
                  f"{zlib.crc32(data) & 0xFFFFFFFF:08x}\n")
        path = self._disk_path(entry.fingerprint)
        fault = fault_point("vticache.store")
        if fault is not None:
            # Failed persistence degrades to memory-only: the in-memory
            # entry is already filed, so correctness is untouched. A
            # torn write leaves a partial object the next load counts
            # as an integrity failure and overwrites.
            if fault.kind == "torn_write":
                text = header + body
                path.write_text(text[:fault.rng.randrange(
                    len(CACHE_MAGIC), len(text))])
            note_degradation("cache.write_skipped", site="vticache.store",
                             detail=fault.kind)
            return
        try:
            tmp = path.with_suffix(".tmp")
            tmp.write_text(header + body)
            tmp.rename(path)
        except OSError:
            note_degradation("cache.write_skipped", site="vticache.store")

    def _load_disk(self, fingerprint: str) -> Optional[CacheEntry]:
        """Load one entry from disk; any defect is a miss, not an error.

        A corrupt cache must never block a compile — the flow simply
        recompiles and overwrites the bad object — but each defect is
        counted so rot is visible in ``stats``.
        """
        if self.root is None:
            return None
        path = self._disk_path(fingerprint)
        fault = fault_point("vticache.load")
        if fault is not None and fault.kind == "bit_rot" and path.exists():
            from ..rtl.plan_store import _flip_byte
            _flip_byte(path, fault.rng)
        if not path.exists():
            return None
        try:
            text = path.read_text()
        except FileNotFoundError:
            # Concurrent deletion (another process clearing or evicting
            # the shared store) between the existence check and the
            # read: a plain miss, never an error or a counted defect.
            return None
        except OSError:
            self.stats.integrity_failures += 1
            self._m_bad.inc()
            return None
        try:
            newline = text.index("\n")
            magic, length_hex, crc_hex = text[:newline].split(" ")
            if magic != CACHE_MAGIC:
                raise ValueError(f"bad magic {magic!r}")
            body = text[newline + 1:]
            data = body.encode("utf-8")
            if len(data) != int(length_hex, 16):
                raise ValueError(
                    f"{len(data)} bytes where the header promises "
                    f"{int(length_hex, 16)}")
            if zlib.crc32(data) & 0xFFFFFFFF != int(crc_hex, 16):
                raise ValueError("CRC32 mismatch (bit-rot or tampering)")
            record = json.loads(body)
            if record.get("fingerprint") != fingerprint:
                raise ValueError("entry mis-filed under foreign key")
            return _entry_from_record(record)
        except (ValueError, KeyError, IndexError, TypeError, OSError):
            self.stats.integrity_failures += 1
            self._m_bad.inc()
            note_degradation("cache.cold_recompile", site="vticache.load",
                             detail=fingerprint[:12])
            return None

    # -- reporting ---------------------------------------------------------

    def stats_dict(self) -> dict:
        with self._lock:
            out = self.stats.as_dict()
            out["entries"] = len(self._entries)
            out["capacity"] = self.capacity
            out["hit_rate"] = round(self.stats.hit_rate(), 4)
            out["disk"] = str(self.root) if self.root is not None else None
            return out

    def summary(self) -> str:
        stats = self.stats_dict()
        lines = [
            f"vti compile cache: {stats['entries']}/{stats['capacity']} "
            f"entries",
            f"  hits {stats['hits']}  misses {stats['misses']}  "
            f"hit-rate {stats['hit_rate'] * 100:.1f}%",
            f"  puts {stats['puts']}  evictions {stats['evictions']}  "
            f"disk-hits {stats['disk_hits']}  "
            f"integrity-failures {stats['integrity_failures']}",
        ]
        if stats["disk"]:
            lines.append(f"  disk store: {stats['disk']}")
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
