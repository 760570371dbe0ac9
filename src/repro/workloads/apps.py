"""App behaviour models.

The paper's security motivation (§2.1) is that *apps themselves* are
part of the problem: "many apps and browsers do not properly check
certificate validity, if at all".  These models generate the
client-side behaviour the PVN protects:

* :class:`BrowserApp` — fetches pages, validates certificates properly.
* :class:`CarelessApp` — skips certificate validation (the [23] case).
* :class:`LeakyApp` — posts telemetry embedding user PII.
* :class:`IotSensor` — periodically uploads sensor readings without
  any transport security.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.netproto.http import HttpRequest
from repro.netproto.tls import TlsHandshake, TlsServer, TrustStore
from repro.netsim.packet import Packet
from repro.workloads.pii import UserProfile


@dataclasses.dataclass
class AppVerdict:
    """What the app itself decided about a connection."""

    proceeded: bool
    reason: str = ""


class BrowserApp:
    """Validates chains against the device trust store before use."""

    def __init__(self, trust_store: TrustStore) -> None:
        self.trust_store = trust_store
        self.owner = "alice"

    def connect(self, handshake: TlsHandshake, now: float) -> AppVerdict:
        result = self.trust_store.validate_chain(
            list(handshake.presented_chain), handshake.sni, now=now
        )
        if not result.valid:
            return AppVerdict(False, f"app refused: {result.failures}")
        return AppVerdict(True, "validated")


class CarelessApp:
    """Accepts any certificate (the widespread [23] failure mode)."""

    def __init__(self) -> None:
        self.owner = "alice"

    def connect(self, handshake: TlsHandshake, now: float) -> AppVerdict:
        return AppVerdict(True, "app skipped validation")


class LeakyApp:
    """Posts analytics bodies embedding the user's PII."""

    def __init__(self, user: UserProfile) -> None:
        self.user = user
        self.analytics_host = "analytics.example"

    def telemetry_packet(self, rng: np.random.Generator) -> Packet:
        pii = self.user.pii_values()
        leak_type = sorted(pii)[int(rng.integers(len(pii)))]
        body = b"event=open&" + pii[leak_type]
        request = HttpRequest("POST", self.analytics_host, "/collect",
                              body=body)
        packet = Packet(
            src="10.10.0.2", dst="203.0.113.80", dst_port=80,
            owner=self.user.user_id, payload=request,
            size=request.size_bytes,
        )
        packet.metadata["ground_truth_leak"] = leak_type
        return packet


class IotSensor:
    """A camera/sensor uploading readings in the clear (§2.3)."""

    def __init__(self, sensor_id: str, owner: str) -> None:
        self.sensor_id = sensor_id
        self.owner = owner
        self.uploads = 0

    def reading_packet(self, rng: np.random.Generator) -> Packet:
        self.uploads += 1
        reading = (f"sensor={self.sensor_id}&frame={self.uploads}"
                   f"&lat={rng.uniform(-90, 90):.4f}"
                   f"&lon={rng.uniform(-180, 180):.4f}").encode()
        request = HttpRequest("POST", "iot-hub.example", "/ingest",
                              body=reading)
        return Packet(
            src="10.10.0.9", dst="203.0.113.90", dst_port=80, owner=self.owner,
            payload=request, size=request.size_bytes,
        )


def handshake_for(server: TlsServer) -> TlsHandshake:
    """Convenience wrapper: the handshake a client sees from ``server``."""
    return server.respond(server.hostname)
