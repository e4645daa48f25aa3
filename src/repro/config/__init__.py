"""Configuration plane: microcontrollers, JTAG ring, and the fabric.

Models the control plane of Figure 5 and the multi-SLR architecture of
Section 4: every SLR is a complete FPGA with its own configuration
microcontroller; an external JTAG master talks to the primary SLR's
controller and reaches the secondaries through a ring, switched by empty
writes to the undocumented BOUT register. :class:`FabricDevice` is the
emulated card: configuration memory per SLR plus the functional model of
whatever design is currently programmed.
"""

from .database import DesignDatabase
from .fabric import FabricDevice
from .jtag import JtagRing, JtagResult
from .logic_loc import LLEntry, LogicLocationFile
from .microcontroller import Microcontroller
from .transport import RetryPolicy, TransportStats, VerifiedTransport

__all__ = [
    "DesignDatabase",
    "FabricDevice",
    "JtagResult",
    "JtagRing",
    "LLEntry",
    "LogicLocationFile",
    "Microcontroller",
    "RetryPolicy",
    "TransportStats",
    "VerifiedTransport",
]
