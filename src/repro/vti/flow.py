"""The VTI compilation flow (Figure 4).

``compile_initial`` runs the full design once: design split + reset
insertion, per-partition synthesis (partition-local optimization),
floorplanning every partition into reserved, over-provisioned regions of
the debug SLR, then the usual place/route/timing/bitgen — at a small,
one-time overhead over the plain vendor flow.

``compile_incremental`` is the payoff: an RTL change confined to a
partition re-synthesizes and re-places/routes *only that partition*
inside its reserved region, links the fragment against the untouched
static checkpoint, and emits a partial bitstream for just the region —
minutes instead of hours (paper Figure 7: ~18x).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..config.database import DesignDatabase, synthesize_frame_words
from ..config.logic_loc import LLEntry, LogicLocationFile
from ..config.program import build_partial_bitstream
from ..errors import PartitionError
from ..fpga.device import Device
from ..obs import get_flight_recorder, get_registry, get_tracer

#: Bound at import; the singletons are mutated in place, never replaced.
_TRACER = get_tracer()
_FLIGHT = get_flight_recorder()
from ..fpga.frames import BLOCK_MAIN, FrameAddress
from ..rtl.flatten import InstanceCut, cut_instances, flatten_instance, \
    splice
from ..rtl.module import Module
from ..vendor import cost
from ..vendor.flow import CompileResult, VivadoFlow
from ..vendor.place import MemoryPlacement, place_partition, state_layout
from ..vendor.synth import SynthesisResult, synthesize
from ..vendor.timing import (
    FF_OVERHEAD_NS,
    LUT_NS,
    PathReport,
    TimingResult,
    congestion_penalty_ns,
)
from .cache import CacheEntry, CompileCache, compile_fingerprint, \
    get_default_cache, module_fingerprint
from .estimate import RegionRequirement, estimate_requirements
from .floorplan import Floorplan, floorplan_partitions, region_frame_count
from .link import LinkReport, boundary_signature, \
    check_boundary_compatible, replace_instance_module
from .partition import DesignSplit, PartitionSpec, split_design


def _within(name: str, path: str) -> bool:
    """Whether flat ``name`` lies in the instance subtree at ``path``."""
    return name == path or name.startswith(path + ".")


@dataclass(frozen=True)
class PartitionBaseline:
    """Everything the initial compile fixes for one partition.

    Derived from the baseline alone, once, by
    :meth:`VtiFlow.compile_initial`; incremental compiles and cache
    entries only read it, so nothing an edit produces outlives a cache
    clear here.
    """

    #: The baseline module's half of every compile fingerprint.
    boundary: str
    digest: str
    #: The reserved region's capacity and configuration frame count.
    capacity: dict[str, int]
    region_frames: int
    #: The baseline netlist around the partition's block (None without
    #: a fabric database; so is everything below).
    cut: Optional[InstanceCut] = None
    #: The region's logic frames, rewritten by every partial bitstream.
    frames: tuple[FrameAddress, ...] = ()
    #: The baseline partition's :func:`state_layout` and its placement.
    layout: tuple = ()
    ll: tuple[LLEntry, ...] = ()
    memories: Mapping[str, MemoryPlacement] = field(default_factory=dict)
    #: Every other entry and memory placement of the baseline database.
    static_ll: tuple[LLEntry, ...] = ()
    static_memories: Mapping[str, MemoryPlacement] = field(
        default_factory=dict)


@dataclass
class VtiCompileResult:
    """Initial VTI compile: everything the incremental runs build on."""

    base: CompileResult
    split: DesignSplit
    floorplan: Floorplan
    requirements: dict[str, RegionRequirement]
    clocks: dict[str, float]
    top: Module
    #: Partition path -> what the baseline fixes for it.
    partitions: dict[str, PartitionBaseline]
    version: int = 0
    #: Incremental versions claimed against this baseline so far; the
    #: flow advances it under a lock so chained recompiles, and flows
    #: sharing one baseline across threads, each get a distinct,
    #: monotonic version (and database name) instead of all colliding
    #: on ``version + 1``.
    issued_increments: int = 0

    @property
    def total_seconds(self) -> float:
        return self.base.total_seconds

    @property
    def database(self) -> Optional[DesignDatabase]:
        return self.base.database


@dataclass
class VtiIncrementalResult:
    """One incremental recompile of a single partition."""

    partition_path: str
    seconds: dict[str, float]
    timing: TimingResult
    link: LinkReport
    requirement: RegionRequirement
    new_top: Module
    version: int
    database: Optional[DesignDatabase] = None
    partial_bitstream: Optional[list[int]] = None
    region_mask: int = 0
    #: Whether the expensive artifacts came from the compile cache.
    cache_hit: bool = False

    @property
    def total_seconds(self) -> float:
        return self.seconds["total"]


#: Sentinel: "use the process-wide default cache" (pass ``cache=None``
#: to disable caching entirely).
_DEFAULT = object()


class VtiFlow:
    """Zoomie's incremental compiler, wrapping the vendor tool."""

    def __init__(self, device: Device, seed: str = "vti",
                 cache=_DEFAULT):
        self.device = device
        self.vendor = VivadoFlow(device, seed=f"{seed}-vendor")
        self.seed = seed
        self.cache: Optional[CompileCache] = (
            get_default_cache() if cache is _DEFAULT else cache)
        self._version_lock = threading.Lock()

    def _claim_version(self, initial: VtiCompileResult) -> int:
        """Next monotonic version against ``initial`` (thread-safe)."""
        with self._version_lock:
            initial.issued_increments += 1
            return initial.version + initial.issued_increments

    # ------------------------------------------------------------------
    # initial compile
    # ------------------------------------------------------------------

    def compile_initial(self, top: Module, clocks: dict[str, float],
                        partitions: list[PartitionSpec],
                        debug_slr: Optional[int] = None,
                        **vendor_kwargs) -> VtiCompileResult:
        with _TRACER.span("vti.initial",
                          partitions=len(partitions)) as span:
            result = self._compile_initial(
                top, clocks, partitions, debug_slr, **vendor_kwargs)
            self._publish_stages("vti.initial", result.base.seconds,
                                 span)
            get_registry().histogram(
                "vti.initial_seconds",
                scale=1.0, base=4.0, buckets=12).observe(
                    result.total_seconds)
            get_registry().counter("vti.initial_runs").inc()
            if _FLIGHT.enabled:
                _FLIGHT.note("vti", "initial",
                             partitions=len(partitions),
                             seconds=round(result.total_seconds, 3))
        return result

    def _publish_stages(self, what: str, seconds: dict[str, float],
                        span) -> None:
        """Per-stage child spans, modeled-clock only.

        The compile-time model charges stage seconds arithmetically —
        no wall time passes — which is exactly what the two-clock trace
        makes visible: a ``vti.route`` span that is microseconds of
        wall and hours of modeled hardware time.
        """
        for stage, stage_seconds in seconds.items():
            if stage == "total":
                continue
            with _TRACER.span(f"vti.{stage}") as stage_span:
                if stage_span is not None:
                    stage_span.add_modeled(stage_seconds)
        if span is not None:
            span.set(total_modeled_seconds=round(seconds["total"], 3))
            # Stages sum to the total; any residual (rounding in the
            # model) is charged here so parent == total holds.
            residual = seconds["total"] - math.fsum(
                value for key, value in seconds.items() if key != "total")
            span.add_modeled(residual)

    def _compile_initial(self, top: Module, clocks: dict[str, float],
                         partitions: list[PartitionSpec],
                         debug_slr: Optional[int] = None,
                         **vendor_kwargs) -> VtiCompileResult:
        split = split_design(top, partitions)

        requirements: dict[str, RegionRequirement] = {}
        for partition in split.partitions:
            psynth = synthesize(partition.module, opt="local")
            requirements[partition.path] = estimate_requirements(
                partition.path, psynth.totals,
                partition.spec.over_provision)

        plan = floorplan_partitions(
            self.device, list(requirements.values()), debug_slr)
        constraints = dict(plan.regions)

        base = self.vendor.compile(
            top, clocks, constraints=constraints, **vendor_kwargs)
        # VTI's own bookkeeping: partition setup on top of the vendor run
        # (Figure 7: "VTI requires additional steps when compiling from
        # scratch ... this overhead is negligible").
        seconds = dict(base.seconds)
        seconds["partition_setup"] = (
            cost.VTI_PARTITION_SETUP * len(split.partitions))
        seconds["total"] = seconds["total"] + seconds["partition_setup"]
        base.seconds = seconds
        base.flow = "vti-initial"

        return VtiCompileResult(
            base=base, split=split, floorplan=plan,
            requirements=requirements, clocks=dict(clocks), top=top,
            partitions=self._partition_baselines(
                top, split, plan, base.database))

    def _partition_baselines(self, top: Module, split: DesignSplit,
                             plan: Floorplan,
                             database: Optional[DesignDatabase]
                             ) -> dict[str, PartitionBaseline]:
        """One :class:`PartitionBaseline` per partition, from the
        baseline design and (when there is one) its database."""
        out = {}
        if database is not None:
            cuts = cut_instances(top, split.partition_paths())
        for partition in split.partitions:
            path, module = partition.path, partition.module
            region = plan.regions[path]
            keys = (boundary_signature(module), module_fingerprint(module),
                    region.capacity(self.device),
                    region_frame_count(self.device, region))
            if database is None:
                out[path] = PartitionBaseline(*keys)
                continue
            # Regions are exclusive, so the baseline's full placement
            # gave each partition exactly what place_partition gives it:
            # its entries and memory placements split off by name.
            entries = database.ll.entries
            memories = database.memory_map
            columns = sorted({c.index for c in region.columns(self.device)})
            out[path] = PartitionBaseline(
                *keys, cut=cuts[path],
                frames=tuple(
                    FrameAddress(block_type=BLOCK_MAIN, region=index,
                                 column=column, minor=0)
                    for index in range(region.region_lo,
                                       region.region_hi + 1)
                    for column in columns),
                layout=state_layout(flatten_instance(module, cuts[path])),
                ll=tuple(e for e in entries if _within(e.name, path)),
                memories={name: placement
                          for name, placement in memories.items()
                          if _within(name, path)},
                static_ll=tuple(e for e in entries
                                if not _within(e.name, path)),
                static_memories={name: placement
                                 for name, placement in memories.items()
                                 if not _within(name, path)})
        return out

    # ------------------------------------------------------------------
    # incremental recompile
    # ------------------------------------------------------------------

    def compile_incremental(self, initial: VtiCompileResult,
                            partition_path: str,
                            modified_module: Optional[Module] = None
                            ) -> VtiIncrementalResult:
        """Recompile one partition after an RTL change.

        ``modified_module`` is the partition's new definition (``None``
        re-runs the existing one, e.g. after a constraint-only change).
        """
        with _TRACER.span("vti.incremental",
                          partition=partition_path) as span:
            result = self._compile_incremental(
                initial, partition_path, modified_module)
            self._publish_incremental(result, span)
        return result

    def _publish_incremental(self, result: VtiIncrementalResult,
                             span) -> None:
        """Spans and metrics for one finished incremental compile.

        Kept apart from the compile itself so
        :meth:`compile_incremental_many` can publish each partition
        under its own child span.
        """
        self._publish_stages("vti.incremental", result.seconds, span)
        if span is not None:
            span.set(version=result.version,
                     timing_met=result.timing.met,
                     cache_hit=result.cache_hit)
        registry = get_registry()
        registry.histogram(
            "vti.incremental_seconds",
            scale=1.0, base=4.0, buckets=12).observe(
                result.total_seconds)
        registry.counter("vti.incremental_runs").inc()
        if _FLIGHT.enabled:
            _FLIGHT.note("vti", "incremental", version=result.version,
                         cache_hit=result.cache_hit,
                         seconds=round(result.total_seconds, 3))

    def _compile_incremental(self, initial: VtiCompileResult,
                             partition_path: str,
                             modified_module: Optional[Module] = None,
                             version: Optional[int] = None
                             ) -> VtiIncrementalResult:
        if version is None:
            version = self._claim_version(initial)
        # The jitter on modeled stage seconds is keyed by the compile's
        # version, never by execution order — so single, batched, and
        # cache-hit recompiles of the same change stay bit-identical.
        run = version
        partition = initial.split.partition(partition_path)
        baseline = initial.partitions[partition_path]
        new_module = modified_module or partition.module
        region = initial.floorplan.regions[partition_path]
        capacity = baseline.capacity

        entry = None
        if self.cache is not None:
            fingerprint = compile_fingerprint(
                part=self.device.part, seed=self.seed,
                base_name=initial.base.name,
                partition_path=partition_path,
                over_provision=partition.spec.over_provision,
                region=str(region), baseline_boundary=baseline.boundary,
                baseline_digest=baseline.digest, module=new_module)
            entry = self.cache.get(fingerprint)
        else:
            fingerprint = ""

        if entry is None:
            # Cold path: boundary check + partition-local synthesis.
            boundary_nets = check_boundary_compatible(
                partition.module, new_module)
            psynth = synthesize(new_module, opt="local")
            requirement = estimate_requirements(
                partition_path, psynth.totals,
                partition.spec.over_provision)
            if not requirement.satisfied_by(capacity):
                raise PartitionError(
                    f"partition {partition_path!r} grew beyond its "
                    f"reserved region "
                    f"({requirement.estimated.as_dict()} vs {capacity}); "
                    f"re-run the initial VTI compile")
            # Region-local timing: the partition's logic depth plus the
            # congestion of its own (over-provisioned) region only.
            fill = requirement.expected_fill(capacity)
            timing = self._partition_timing(psynth, fill, initial.clocks)
            entry = CacheEntry(
                fingerprint=fingerprint,
                boundary_nets=boundary_nets,
                requirement=requirement, timing=timing,
                partition_nets=psynth.total_nets())
            fresh = True
        else:
            # Hit: the fingerprint vouches for the boundary check, but
            # the fit check stays — it guards the region, not the
            # netlist, and costs nothing.
            requirement = entry.requirement
            if not requirement.satisfied_by(capacity):
                raise PartitionError(
                    f"partition {partition_path!r} grew beyond its "
                    f"reserved region "
                    f"({requirement.estimated.as_dict()} vs {capacity}); "
                    f"re-run the initial VTI compile")
            fill = requirement.expected_fill(capacity)
            timing = entry.timing
            fresh = False

        # Cost: tiny partition compile + whole-design link + partial
        # bitstream for the region. Always recomputed — modeled seconds
        # are what the real tool *would* spend, so a cache hit saves
        # host wall-clock, never modeled hardware time.
        seed = f"{self.seed}:{partition_path}"
        design_cells = initial.base.synth.totals.total_cells()
        region_frames = baseline.region_frames
        seconds = {
            "synth": cost.synth_seconds(requirement.raw.lut, seed, run),
            "place": cost.place_seconds(
                requirement.raw.total_cells(), fill, seed, run),
            "route": cost.route_seconds(
                entry.partition_nets, fill, seed, run),
            "link": cost.vti_link_seconds(design_cells, seed, run),
            "bitgen": (cost.VTI_PARTIAL_BITGEN_FIXED
                       + cost.BITGEN_PER_FRAME * region_frames)
            * cost.jitter(seed, "partial-bitgen", run),
        }
        seconds["total"] = math.fsum(seconds.values())

        link = LinkReport(
            partition_path=partition_path,
            boundary_nets=entry.boundary_nets,
            static_cells=design_cells - requirement.raw.total_cells())

        if modified_module is None:
            new_top = initial.top
        elif entry.new_top is not None:
            new_top = entry.new_top
        else:
            new_top = replace_instance_module(
                initial.top, partition_path, new_module)
            entry.new_top = new_top

        database = None
        partial = None
        region_mask = initial.floorplan.region_mask(partition_path)
        if initial.base.database is not None:
            database, partial = self._rebuild_database(
                initial, new_module, partition_path, region_mask, version,
                entry)
        if fresh and self.cache is not None:
            self.cache.put(entry)

        return VtiIncrementalResult(
            partition_path=partition_path, seconds=seconds,
            timing=timing, link=link, requirement=requirement,
            new_top=new_top, version=version, database=database,
            partial_bitstream=partial, region_mask=region_mask,
            cache_hit=not fresh)

    def compile_incremental_many(
            self, initial: VtiCompileResult,
            changes: dict[str, Optional[Module]]
            ) -> tuple[list[VtiIncrementalResult], float]:
        """Recompile several partitions at once.

        "Subsequent compilations are done in parallel within each
        partition, and the linking happens in the end for all
        partitions together" (Section 3.5): the modeled wall-clock time
        is the slowest partition's synth+place+route+bitgen plus **one**
        link of the static checkpoint.

        The host compiles the partitions one after another in sorted
        path order. Every version is claimed up front in that order, so
        versions, and the modeled seconds whose jitter is keyed by
        version, never depend on how far the batch got. A failing
        partition raises at once, so the earliest failing path in sorted
        order is the one that surfaces.

        Returns the per-partition results (sorted by partition path)
        and the combined modeled wall-clock seconds.
        """
        if not changes:
            raise PartitionError("no partitions to recompile")
        paths = sorted(changes)
        versions = {path: self._claim_version(initial)
                    for path in paths}
        wall_histogram = get_registry().histogram(
            "vti.partition_compile_wall_seconds",
            scale=1e-6, base=4.0, buckets=16)

        with _TRACER.span("vti.incremental_many",
                          partitions=len(paths)) as span:
            results = []
            for path in paths:
                start = time.perf_counter()
                result = self._compile_incremental(
                    initial, path, changes[path], version=versions[path])
                wall_histogram.observe(time.perf_counter() - start)
                with _TRACER.span("vti.incremental",
                                  partition=path) as child:
                    self._publish_incremental(result, child)
                results.append(result)

            per_partition = [
                result.total_seconds - result.seconds["link"]
                for result in results
            ]
            shared_link = max(
                result.seconds["link"] for result in results)
            wall_seconds = max(per_partition) + shared_link
            if span is not None:
                span.set(wall_modeled_seconds=round(wall_seconds, 3),
                         cache_hits=sum(
                             1 for r in results if r.cache_hit))
        return results, wall_seconds

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _partition_timing(self, psynth: SynthesisResult, fill: float,
                          clocks: dict[str, float]) -> TimingResult:
        penalty = congestion_penalty_ns(fill)
        paths = [
            PathReport(module=m.name,
                       delay_ns=(m.logic_levels * LUT_NS
                                 + FF_OVERHEAD_NS + penalty))
            for m in psynth.per_module.values()
        ]
        paths.sort(key=lambda p: p.delay_ns, reverse=True)
        critical = paths[0].delay_ns if paths else FF_OVERHEAD_NS
        fmax = {d: 1000.0 / critical for d in clocks}
        slack = {d: 1000.0 / mhz - critical for d, mhz in clocks.items()}
        return TimingResult(
            fmax_mhz=fmax, slack_ns=slack,
            met=all(s >= 0 for s in slack.values()), paths=paths)

    def _rebuild_database(self, initial: VtiCompileResult,
                          new_module: Module, partition_path: str,
                          region_mask: int, version: int,
                          entry: Optional[CacheEntry] = None):
        """Fabric-executable path: updated database + partial bitstream.

        Partition-sized work on top of the partition's
        :class:`PartitionBaseline`: the new module is flattened alone
        and spliced between the baseline netlist's items around the
        partition (:func:`~repro.rtl.flatten.splice`; the static items
        are copied, never re-flattened). When the edit keeps the
        partition's :func:`state_layout`, the baseline's own
        logic-location entries and memory placements are reused;
        otherwise :func:`place_partition` places it afresh. The static
        region's entries and placements come from the baseline as they
        stand (regions are exclusive, so a full re-place would reproduce
        them bit-for-bit). A cache hit reuses the spliced netlist and
        the placement, so it neither flattens nor places. Frame content
        and the partial bitstream depend on the database *name* (hence
        version), so they are synthesized fresh every call.
        """
        base_db = initial.base.database
        assert base_db is not None
        baseline = initial.partitions[partition_path]

        if entry is not None and entry.flat is not None:
            flat = entry.flat
            partition_ll = entry.partition_ll
            partition_memories = entry.partition_memories
        else:
            block = flatten_instance(new_module, baseline.cut)
            flat = splice(baseline.cut, block)
            if state_layout(block) == baseline.layout:
                partition_ll = baseline.ll
                partition_memories = baseline.memories
            else:
                partition_ll, partition_memories = place_partition(
                    flat, self.device, partition_path,
                    dict(initial.floorplan.regions))
            if entry is not None:
                entry.flat = flat
                entry.partition_ll = partition_ll
                entry.partition_memories = partition_memories

        ll = LogicLocationFile([*baseline.static_ll, *partition_ll])
        memory_map = dict(baseline.static_memories)
        memory_map.update(partition_memories)

        slr = initial.floorplan.regions[partition_path].slr
        name = f"{base_db.name}.v{version}"
        new_image = {
            index: dict(frames)
            for index, frames in base_db.frame_image.items()
        }
        partial_frames = {
            address: synthesize_frame_words(name, address)
            for address in baseline.frames}
        new_image.setdefault(slr, {}).update(partial_frames)

        database = DesignDatabase(
            name=name, device=self.device, netlist=flat,
            ll=ll, clocks=dict(base_db.clocks),
            frame_image=new_image,
            gate_signals=dict(base_db.gate_signals),
            memory_map=memory_map)
        partial = build_partial_bitstream(
            database, slr, partial_frames, region_mask)
        return database, partial
