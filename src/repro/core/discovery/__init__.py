"""PVN discovery & deployment protocol (§3.1) with negotiation (§3.3)."""

from repro.core.discovery.messages import DeploymentAck
from repro.core.discovery.negotiation import (
    ALL_STRATEGIES,
    negotiate,
    negotiate_over_time,
)
from repro.core.discovery.pricing import PricingPolicy
from repro.core.discovery.protocol import DiscoveryClient, DiscoveryService

__all__ = [
    "ALL_STRATEGIES",
    "DeploymentAck",
    "DiscoveryClient",
    "DiscoveryService",
    "PricingPolicy",
    "negotiate",
    "negotiate_over_time",
]
