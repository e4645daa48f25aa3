"""The one table of campaign designs, and how they compile and launch.

The mutation campaign, the chaos campaign and ``zoomie doctor`` all
build from this table. Each entry names a stock design, how to build
it, which signals get value-breakpoint watch slots when it is
instrumented, and any placement constraints (the manycore entry pins
``core1`` to SLR 1 so campaigns exercise cross-SLR readback paths too).
The clock map is the caller's: each campaign names its ``CLOCKS_MHZ``,
because ``step`` scales its run bound by the ``zoomie_clk``:MUT ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import CampaignError

#: Campaign designs, in the order ``--design all`` runs them.
DESIGN_NAMES = ("counters", "cohort", "serv", "beehive", "manycore",
                "pipeline")


@dataclass(frozen=True)
class CampaignDesign:
    """One mutable-under-test design."""

    name: str
    build: Callable  # () -> Module
    watch: tuple
    #: device -> {instance: PBlock} placement constraints, or None.
    constraints: Optional[Callable] = None
    #: 1-bit input bias for seeded stimulus (progress vs. idle mix).
    bias: float = 0.75


def _registry() -> dict[str, CampaignDesign]:
    from ..designs import (
        make_beehive_stack,
        make_cluster,
        make_cohort_soc,
        make_counter,
        make_pipeline,
        make_serv_core,
    )
    from ..vendor.place import whole_slr

    return {
        "counters": CampaignDesign(
            "counters", lambda: make_counter(width=8), ("out",)),
        "cohort": CampaignDesign(
            "cohort", lambda: make_cohort_soc(with_bug=False), ("issued",)),
        "serv": CampaignDesign("serv", make_serv_core, ("busy",)),
        "beehive": CampaignDesign(
            "beehive", make_beehive_stack, ("frames",)),
        "manycore": CampaignDesign(
            "manycore", lambda: make_cluster(cores=2, imem_depth=64),
            ("retired_count",),
            constraints=lambda device: {"core1": whole_slr(device, 1)}),
        "pipeline": CampaignDesign(
            "pipeline", lambda: make_pipeline(depth=4, width=16), ("v3",)),
    }


def campaign_design(name: str) -> CampaignDesign:
    registry = _registry()
    try:
        return registry[name]
    except KeyError:
        raise CampaignError(
            f"unknown campaign design {name!r}; "
            f"choose from {', '.join(DESIGN_NAMES)}") from None


def golden_netlist(design: CampaignDesign):
    """A fresh, uninstrumented elaboration of the design."""
    from ..rtl import elaborate
    return elaborate(design.build())


def compile_design(design: CampaignDesign, clocks: dict, netlist=None):
    """Instrument and compile ``netlist`` (default: a fresh golden
    elaboration; a mutant passes its private clone, changed in place)
    at ``clocks`` (domain -> MHz, passed to the vendor flow as given).

    Returns ``(device, instrumented, compile_result)`` — the triple a
    debugger session launches from.
    """
    from ..debug import instrument_netlist
    from ..fpga import make_test_device
    from ..vendor import VivadoFlow

    netlist = golden_netlist(design) if netlist is None else netlist
    device = make_test_device()
    instrumented = instrument_netlist(netlist, watch=list(design.watch))
    constraints = design.constraints(device) if design.constraints else None
    result = VivadoFlow(device).compile_netlist(
        netlist, clocks, gate_signals=instrumented.gate_signals,
        constraints=constraints)
    return device, instrumented, result


def launch_session(compiled):
    """Program a fresh fabric with a compiled design; returns
    ``(fabric, debugger)``."""
    from ..config import FabricDevice
    from ..debug import ZoomieDebugger

    device, instrumented, result = compiled
    fabric = FabricDevice(device)
    fabric.expect(result.database)
    fabric.jtag.run(result.bitstream)
    return fabric, ZoomieDebugger(fabric, instrumented)
