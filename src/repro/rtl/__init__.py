"""RTL intermediate representation and cycle-accurate simulator.

This package is the hardware-description substrate for the Zoomie
reproduction. Designs are built as :class:`~repro.rtl.module.Module`
hierarchies using :class:`~repro.rtl.builder.ModuleBuilder`, elaborated to a
flat :class:`~repro.rtl.netlist.Netlist`, and executed by
:class:`~repro.rtl.simulator.Simulator` — a multi-clock-domain, gateable
cycle simulator (clock gating is what lets the Debug Controller pause a
module under test).
"""

from .expr import (
    BinaryOp,
    Concat,
    Const,
    Expr,
    Mux,
    Ref,
    Repl,
    Slice,
    UnaryOp,
    cat,
    mux,
    reduce_and,
    reduce_or,
    reduce_xor,
)
from .module import Instance, Memory, Module, Port, Register
from .builder import ModuleBuilder
from .flatten import elaborate
from .netlist import Netlist
from ._codegen import clear_plan_cache, plan_cache_stats
from .mutate import (
    OPERATORS,
    Divergence,
    Mutant,
    MutationSite,
    apply_mutation,
    default_stimulus,
    differential_probe,
    enumerate_sites,
    generate_mutants,
)
from .batch import BatchSimulator
from .simulator import (
    ENGINE_FUSED,
    ENGINE_INTERPRETED,
    ENGINES,
    Simulator,
)
from .waveform import (
    BatchTrace,
    StreamingTrace,
    Trace,
    TraceView,
    write_vcd,
)
from .detectors import (
    Detector,
    Finding,
    PatternDetector,
    StuckSignalDetector,
    render_timeline,
    run_detectors,
    write_during_stall,
)

__all__ = [
    "ENGINE_FUSED",
    "ENGINE_INTERPRETED",
    "ENGINES",
    "BatchSimulator",
    "BatchTrace",
    "BinaryOp",
    "Concat",
    "Const",
    "Detector",
    "Divergence",
    "Expr",
    "Finding",
    "Instance",
    "Memory",
    "Module",
    "ModuleBuilder",
    "Mutant",
    "MutationSite",
    "Mux",
    "Netlist",
    "OPERATORS",
    "PatternDetector",
    "Port",
    "Ref",
    "Register",
    "Repl",
    "Simulator",
    "Slice",
    "StreamingTrace",
    "StuckSignalDetector",
    "Trace",
    "TraceView",
    "UnaryOp",
    "apply_mutation",
    "cat",
    "clear_plan_cache",
    "default_stimulus",
    "differential_probe",
    "elaborate",
    "enumerate_sites",
    "generate_mutants",
    "mux",
    "plan_cache_stats",
    "reduce_and",
    "reduce_or",
    "reduce_xor",
    "render_timeline",
    "run_detectors",
    "write_during_stall",
    "write_vcd",
]
