"""Deterministic fault injection for PVN chaos experiments.

Everything here is reproducible from a seed: fault plans are ordered
event lists, the injector applies them on the simulator clock, and the
applied-fault trace digests identically across runs with the same
seed.  See DESIGN.md §"Fault injection & robustness".
"""

from repro.faults.events import FaultKind, make_event, normalise_ids
from repro.faults.injector import FaultInjector

__all__ = [
    "FaultInjector",
    "FaultKind",
    "make_event",
    "normalise_ids",
]
