"""The Zoomie facade.

Glues the whole stack into the workflow of the paper's Figure 2::

    project = ZoomieProject(design=my_soc, device="TEST2",
                            clocks={"clk": 100.0}, watch=["issued"])
    zoomie = Zoomie(project)
    session = zoomie.launch()              # compile + program + attach
    session.debugger.set_value_breakpoint({"issued": 2})
    session.debugger.run()
    state = session.debugger.read_state()

For designs too large to execute (the 5400-core SoC), :meth:`Zoomie.
compile` still produces compile reports and VTI incremental results; only
:meth:`launch` requires a fabric-executable (flattenable) design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..config.fabric import FabricDevice
from ..debug.controller import InstrumentedDesign, instrument_netlist
from ..debug.debugger import ZoomieDebugger
from ..errors import FlowError
from ..obs import Observability, get_observability
from ..rtl.flatten import elaborate
from ..rtl.module import Module
from ..vendor.flow import CompileResult, VivadoFlow
from ..vti.flow import VtiCompileResult, VtiFlow, VtiIncrementalResult
from .project import ZoomieProject


@dataclass
class ZoomieSession:
    """A live debugging session on the emulated card."""

    project: ZoomieProject
    compile_result: CompileResult
    instrumented: InstrumentedDesign
    fabric: FabricDevice
    debugger: ZoomieDebugger

    def poke_input(self, name: str, value: int) -> None:
        """Drive a top-level input of the design under test.

        Routed through the debugger so sessions with a write-ahead
        journal attached record the poke: inputs are environment, not
        readback-visible state, so recovery must replay them.
        """
        self.debugger.record_input(name, value)

    def run(self, cycles: int = 1) -> None:
        """Advance the fabric (breakpoints may pause earlier)."""
        self.debugger.run(max_cycles=cycles)

    @property
    def observability(self) -> Observability:
        """The process-wide tracer/metrics/flight bundle."""
        return get_observability()


@dataclass
class Zoomie:
    """Entry point: compile, program, and debug one project."""

    project: ZoomieProject
    _vti: Optional[VtiFlow] = field(default=None, repr=False)
    _initial: Optional[VtiCompileResult] = field(default=None, repr=False)

    @property
    def observability(self) -> Observability:
        """The process-wide tracer/metrics/flight bundle."""
        return get_observability()

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------

    def compile(self) -> CompileResult | VtiCompileResult:
        """Compile the (uninstrumented) design.

        With partitions declared this is the VTI initial compile;
        otherwise the plain vendor flow.
        """
        if self.project.partitions:
            self._vti = VtiFlow(self.project.device)
            self._initial = self._vti.compile_initial(
                self.project.design, self.project.clocks,
                self.project.partitions,
                debug_slr=self.project.debug_slr)
            return self._initial
        flow = VivadoFlow(self.project.device)
        return flow.compile(self.project.design, self.project.clocks)

    def recompile_partition(self, path: str,
                            modified: Optional[Module] = None
                            ) -> VtiIncrementalResult:
        """VTI incremental recompile of one declared partition."""
        if self._vti is None or self._initial is None:
            raise FlowError(
                "run compile() (with partitions declared) before "
                "incremental recompiles")
        result = self._vti.compile_incremental(self._initial, path,
                                               modified)
        return result

    # ------------------------------------------------------------------
    # launch: instrument + compile + program + attach
    # ------------------------------------------------------------------

    def launch(self) -> ZoomieSession:
        """Bring the design up on the emulated card with Zoomie inside."""
        netlist = elaborate(self.project.design)
        instrumented = instrument_netlist(
            netlist,
            watch=list(self.project.watch),
            insert_monitors=self.project.insert_monitors,
            insert_pause_buffers=self.project.insert_pause_buffers)

        flow = VivadoFlow(self.project.device)
        result = flow.compile_netlist(
            netlist,
            self.project.clocks_with_free_domain(),
            gate_signals=instrumented.gate_signals)
        if result.database is None or result.bitstream is None:
            raise FlowError(
                "the design is too large for the emulated fabric; use "
                "compile() for report-only flows")

        fabric = FabricDevice(self.project.device)
        fabric.expect(result.database)
        fabric.jtag.run(result.bitstream)
        debugger = ZoomieDebugger(fabric, instrumented)
        return ZoomieSession(
            project=self.project, compile_result=result,
            instrumented=instrumented, fabric=fabric, debugger=debugger)
