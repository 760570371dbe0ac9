"""Adversary scenario kit.

Bundles the attack machinery scattered through the substrates into the
named adversaries the experiments run against:

* :func:`mitm_scenario` — a network-position attacker intercepting TLS;
* :func:`dns_forgery_scenario` — a resolver forging targeted mappings;
* :func:`shaping_isp` / :func:`injecting_isp` / :func:`lazy_isp` /
  :func:`inflating_isp` — dishonest-provider profiles for E9;
* :class:`Eavesdropper` — a passive on-path observer recording payload
  bytes (ground truth for what actually leaked).
"""

from __future__ import annotations

import dataclasses

from repro.core.provider import DishonestyProfile
from repro.netproto.dns import ForgingResolver, Zone
from repro.netproto.tls import CertificateAuthority, MitmInterceptor
from repro.netsim.packet import Packet


@dataclasses.dataclass
class MitmScenario:
    """An interceptor that forges with its own rogue CA."""

    interceptor: MitmInterceptor


def mitm_scenario(now: float) -> MitmScenario:
    """A §2.1-style unauthorized TLS interceptor."""
    rogue_ca = CertificateAuthority("RogueCA", key=b"rogue:mitm-box")
    return MitmScenario(
        interceptor=MitmInterceptor("mitm-box", rogue_ca, now=now))


def dns_forgery_scenario(
    zones: list[Zone],
    targets: dict[str, str],
    name: str = "evil-resolver",
) -> ForgingResolver:
    """An ISP resolver forging mappings for ``targets``."""
    return ForgingResolver(name, zones, forged=dict(targets))


# -- dishonest-provider profiles (E9) ----------------------------------------

def shaping_isp(video_bps: float = 1.5e6) -> DishonestyProfile:
    """Covert Binge On: throttles video without disclosure."""
    return DishonestyProfile(shape_video_to_bps=video_bps)


def injecting_isp() -> DishonestyProfile:
    """Injects content into HTTP bodies (ad injection, tracking headers)."""
    return DishonestyProfile(modify_content=True)


def lazy_isp(skipped: frozenset[str] = frozenset({"pii_detector"})
             ) -> DishonestyProfile:
    """Charges for middleboxes it never actually runs."""
    return DishonestyProfile(skip_services=skipped)


def inflating_isp(extra_rtt: float = 0.120) -> DishonestyProfile:
    """Routes PVN traffic on a grossly inflated path."""
    return DishonestyProfile(inflate_path_by=extra_rtt)


def config_tampering_isp() -> DishonestyProfile:
    """Installs a different configuration than requested (cannot attest)."""
    return DishonestyProfile(tamper_config=True)


ALL_DISHONEST_PROFILES: tuple[tuple[str, DishonestyProfile], ...] = (
    ("shaping", shaping_isp()),
    ("injecting", injecting_isp()),
    ("lazy", lazy_isp()),
    ("inflating", inflating_isp()),
    ("tampering", config_tampering_isp()),
)


class Eavesdropper:
    """A passive observer on some network segment.

    Records every payload byte it sees; experiments ask it whether a
    given secret ever crossed its vantage point.
    """

    def __init__(self, name: str = "eavesdropper") -> None:
        self.name = name
        self.observed: list[bytes] = []

    def observe(self, packet: Packet) -> None:
        payload = packet.payload
        if payload is None:
            return
        if isinstance(payload, bytes):
            self.observed.append(payload)
            return
        body = getattr(payload, "body", None)
        if isinstance(body, bytes):
            self.observed.append(body)
        path = getattr(payload, "path", None)
        if isinstance(path, str):
            self.observed.append(path.encode())

    def saw(self, secret: bytes) -> bool:
        return any(secret in blob for blob in self.observed)
