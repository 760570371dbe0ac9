"""Synthetic traffic generation.

Produces labelled packet streams in the mixes the paper's motivation
describes: mobile traffic where browsers are a minority (§2.2 cites
"as little as 10%"), video dominates bytes, and a long tail of app,
DNS, and IoT traffic fills out the flow count.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from repro.netproto.http import (
    CONTENT_IMAGE,
    CONTENT_TEXT,
    CONTENT_VIDEO,
    HttpRequest,
    HttpResponse,
)
from repro.netsim.packet import Packet

#: Default traffic mix by flow count (Xu et al. [43]-flavoured).
DEFAULT_MIX = (
    ("web", 0.25),
    ("video", 0.15),
    ("app_api", 0.35),
    ("dns", 0.15),
    ("iot", 0.10),
)

_flow_ids = itertools.count(1)


@dataclasses.dataclass(frozen=True)
class FlowSpec:
    """One generated flow."""

    flow_id: int
    kind: str
    size_bytes: int
    dst: str
    dst_port: int
    https: bool


def synth_flows(
    rng: np.random.Generator,
    n_flows: int = 100,
    mix: tuple[tuple[str, float], ...] = DEFAULT_MIX,
) -> list[FlowSpec]:
    """Draw flows from the mix with kind-appropriate size distributions."""
    kinds = [kind for kind, _ in mix]
    weights = np.array([w for _, w in mix], dtype=float)
    weights /= weights.sum()
    flows: list[FlowSpec] = []
    for _ in range(n_flows):
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        flows.append(_flow_of_kind(kind, rng))
    return flows


def _flow_of_kind(kind: str, rng: np.random.Generator) -> FlowSpec:
    flow_id = next(_flow_ids)
    if kind == "web":
        size = int(rng.lognormal(np.log(400_000), 0.8))
        return FlowSpec(flow_id, kind, size, "198.51.100.20", 80,
                        https=bool(rng.random() < 0.6))
    if kind == "video":
        size = int(rng.lognormal(np.log(20_000_000), 0.5))
        return FlowSpec(flow_id, kind, size, "198.51.100.30", 443,
                        https=True)
    if kind == "app_api":
        size = int(rng.lognormal(np.log(8_000), 1.0))
        return FlowSpec(flow_id, kind, size, "198.51.100.40", 443,
                        https=bool(rng.random() < 0.8))
    if kind == "dns":
        return FlowSpec(flow_id, kind, 120, "198.51.100.53", 53, https=False)
    # iot
    size = int(rng.lognormal(np.log(2_000), 0.7))
    return FlowSpec(flow_id, kind, size, "198.51.100.60", 8883,
                    https=False)


def flow_to_packet(flow: FlowSpec, owner: str = "alice",
                   src: str = "10.10.0.2") -> Packet:
    """A representative packet for datapath-level experiments."""
    payload = None
    if flow.kind == "web":
        payload = HttpRequest("GET", "news.example.com", "/story",
                              https=flow.https)
    elif flow.kind == "video":
        payload = HttpRequest("GET", "video.example.com", "/clip.mp4",
                              https=flow.https)
    elif flow.kind == "app_api":
        payload = HttpRequest("POST", "api.example.com", "/sync",
                              body=b"state=ok", https=flow.https)
    return Packet(
        src=src, dst=flow.dst, protocol="udp" if flow.kind == "dns" else "tcp",
        src_port=40_000 + flow.flow_id % 20_000, dst_port=flow.dst_port,
        size=min(1500, flow.size_bytes), payload=payload,
        flow_id=flow.flow_id, owner=owner,
    )
