"""Tunneling: full-VPN baseline, selective redirection, endpoint selection."""

from repro.core.tunneling.selection import EndpointCandidate, select_endpoint
from repro.core.tunneling.selective import (
    RedirectRule,
    SelectiveRedirector,
    needs_tls_interception,
)
from repro.core.tunneling.vpn import ENCAP_VARIANTS, FullTunnel, direct_path

__all__ = [
    "ENCAP_VARIANTS",
    "EndpointCandidate",
    "FullTunnel",
    "RedirectRule",
    "SelectiveRedirector",
    "direct_path",
    "needs_tls_interception",
    "select_endpoint",
]
