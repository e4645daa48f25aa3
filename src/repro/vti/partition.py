"""Partition specification and design splitting.

The user partitioning "takes the form of a list of modules" (paper
Section 3.5): each :class:`PartitionSpec` names one instance path the
designer intends to iterate on. :class:`DesignSplit` validates the paths
against the hierarchy and resolves each partition's module definition.
It leaves the user's modules untouched: a module may sit under several
paths (one definition per core), so nothing per-partition is stamped on
it. Figure 4's "Reset Insertion" step is the region ``MASK`` of the
partial bitstream (:func:`repro.config.program.build_partial_bitstream`),
which lets the vendor GSR bring the fresh logic up while the static
region keeps running.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ..errors import PartitionError
from ..rtl.module import Module
from .estimate import DEFAULT_OVER_PROVISION


@dataclass(frozen=True)
class PartitionSpec:
    """One iterated partition."""

    #: Hierarchical instance path (e.g. ``"tile0.core3"``).
    path: str
    #: Over-provision coefficient c trading area for timing headroom.
    over_provision: float = DEFAULT_OVER_PROVISION

    def __post_init__(self):
        if not self.path:
            raise PartitionError("partition path must be non-empty")
        if not 0.0 <= self.over_provision <= 2.0:
            raise PartitionError(
                f"over-provision coefficient {self.over_provision} "
                f"outside the sane range [0, 2]")


@dataclass
class Partition:
    """A resolved partition: spec + the module definition at its path."""

    spec: PartitionSpec
    module: Module

    @property
    def path(self) -> str:
        return self.spec.path


@dataclass
class DesignSplit:
    """The design split into static logic plus iterated partitions."""

    top: Module
    partitions: list[Partition] = field(default_factory=list)

    def partition(self, path: str) -> Partition:
        for partition in self.partitions:
            if partition.path == path:
                return partition
        raise PartitionError(f"no partition at path {path!r}")

    def partition_paths(self) -> list[str]:
        return [p.path for p in self.partitions]


def _resolve_instance(top: Module, path: str) -> Module:
    module = top
    for segment in path.split("."):
        inst = module.instances.get(segment)
        if inst is None:
            raise PartitionError(
                f"no instance {segment!r} under {module.name!r} "
                f"(resolving partition path {path!r})")
        module = inst.module
    return module


def split_design(top: Module,
                 specs: list[PartitionSpec]) -> DesignSplit:
    """Resolve and validate partition specs against the hierarchy."""
    if not specs:
        raise PartitionError("VTI needs at least one partition")
    seen: set[str] = set()
    split = DesignSplit(top=top)
    for spec in specs:
        if spec.path in seen:
            raise PartitionError(f"duplicate partition {spec.path!r}")
        for existing in seen:
            if spec.path.startswith(existing + ".") \
                    or existing.startswith(spec.path + "."):
                raise PartitionError(
                    f"partitions {existing!r} and {spec.path!r} nest; "
                    f"partitions must be disjoint subtrees")
        seen.add(spec.path)
        split.partitions.append(
            Partition(spec=spec, module=_resolve_instance(top, spec.path)))
    return split
