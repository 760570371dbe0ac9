"""NFV substrate: middleboxes, containers, sandboxes, chains, hosts."""

from repro.nfv.chain import ChainHop, ServiceChain
from repro.nfv.container import Container
from repro.nfv.hypervisor import NfvHost
from repro.nfv.middlebox import ProcessingContext
from repro.nfv.sandbox import Capability, Sandbox

__all__ = [
    "Capability",
    "ChainHop",
    "Container",
    "NfvHost",
    "ProcessingContext",
    "Sandbox",
    "ServiceChain",
]
