"""Project configuration for a Zoomie debugging workflow."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ReproError
from ..fpga.device import Device, get_device
from ..rtl.module import Module
from ..vti.partition import PartitionSpec


@dataclass
class ZoomieProject:
    """Everything Zoomie needs to know about one design.

    Parameters
    ----------
    design:
        The top-level module.
    device:
        Target card, by catalog name (``"U200"``, ``"U250"``, ``"TESTn"``)
        or as a :class:`~repro.fpga.device.Device`.
    clocks:
        Clock domain -> target frequency in MHz (the reserved
        ``zoomie_clk`` domain is added automatically).
    watch:
        Signals (flat names in the elaborated design) to give
        value-breakpoint trigger slots.
    partitions:
        VTI partition declarations — the modules the designer intends to
        iterate on.
    debug_slr:
        SLR hosting the debugged partitions (defaults to the primary).
    """

    design: Module
    device: Device | str = "U200"
    clocks: dict[str, float] = field(default_factory=lambda: {"clk": 100.0})
    watch: list[str] = field(default_factory=list)
    partitions: list[PartitionSpec] = field(default_factory=list)
    debug_slr: Optional[int] = None
    insert_monitors: bool = True
    insert_pause_buffers: bool = True

    def __post_init__(self):
        if isinstance(self.device, str):
            self.device = get_device(self.device)
        if not self.clocks:
            raise ReproError("a project needs at least one clock")

    def clocks_with_free_domain(self) -> dict[str, float]:
        """User clocks plus the controller's free-running domain."""
        out = dict(self.clocks)
        fastest = max(out.values())
        out.setdefault("zoomie_clk", fastest)
        return out

    @property
    def observability(self):
        """The process-wide tracer/metrics/flight bundle.

        One handle per process, not per project: the instrumented
        layers publish into shared singletons, so every project (and
        the CLI's ``stats``/``trace`` commands) sees the same state.
        """
        from ..obs import get_observability
        return get_observability()
