"""repro — a Python reproduction of "Zoomie: A Software-like Debugging
Tool for FPGAs" (Wei et al., ASPLOS 2024).

Public entry points:

- :class:`repro.core.Zoomie` / :class:`repro.core.ZoomieProject` — the
  facade: compile a design (monolithic or VTI-incremental), program the
  emulated multi-SLR FPGA, attach the software-like debugger;
- :mod:`repro.rtl` — the RTL IR and simulator designs are built on;
- :mod:`repro.sva` — SystemVerilog Assertion parsing, synthesis to
  monitor FSMs, and software checking;
- :mod:`repro.vti` — partition-based incremental compilation;
- :mod:`repro.debug` — the Debug Controller, readback, and debugger;
- :mod:`repro.obs` — span tracing (wall + modeled clocks), the metrics
  registry, and the flight recorder over all of the above;
- :mod:`repro.designs` — the paper's evaluation designs.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results.
"""

from .core import Zoomie, ZoomieProject, ZoomieSession
from .obs import Observability, get_observability

__version__ = "1.0.0"

__all__ = [
    "Observability",
    "Zoomie",
    "ZoomieProject",
    "ZoomieSession",
    "__version__",
    "get_observability",
]
