"""The paper's contribution: PVNC, discovery, deployment, auditing,
tunneling, the PVN Store, and device/provider/session orchestration."""

from repro.core.provider import AccessProvider, DishonestyProfile
from repro.core.session import PvnSession, default_pvnc

__all__ = [
    "AccessProvider",
    "DishonestyProfile",
    "PvnSession",
    "default_pvnc",
]
