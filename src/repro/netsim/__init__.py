"""Discrete-event network simulation substrate.

Modules:

* :mod:`repro.netsim.simulator` — the event loop.
* :mod:`repro.netsim.packet`, :mod:`repro.netsim.link`,
  :mod:`repro.netsim.node` — the data plane.
* :mod:`repro.netsim.topology` — annotated topologies and builders.
* :mod:`repro.netsim.tcp` — rounds-based TCP transfer models.
* :mod:`repro.netsim.flows` — page-load and ABR-video models.
* :mod:`repro.netsim.fluid` — hybrid fluid/packet population engine
  over :class:`SoaTable` vectorized flow state.
"""

from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.netsim.tcp import PathCharacteristics

__all__ = [
    "Host",
    "Link",
    "Packet",
    "PathCharacteristics",
    "Simulator",
]
