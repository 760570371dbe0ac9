"""Privacy controls for other people's sensors (§2.3, §4).

"Users could specify privacy policies that apply not only to their own
network traffic, but also to traffic generated by sensors connected to
the same network (e.g., blurring their face in a video recording)."

A protected subject registers identifiers (their device MACs, user
ids) and protected zones (lat/lon boxes their home falls in).  The
middlebox inspects IoT uploads on the shared network: frames or
readings that reference a protected subject or were captured inside a
protected zone get their sensitive fields blurred before leaving the
network.

Note the trust model twist: this module is installed by the *network*
on behalf of registered subjects (with the sensor owner's traffic
visible to it under the provider's own policy), not inside a single
user's isolated PVN — the paper flags exactly this cross-user case as
an extension of the abstraction.
"""

from __future__ import annotations

import dataclasses
import re

from repro.netproto.http import HttpRequest
from repro.netsim.packet import Packet
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict

_LAT_RE = re.compile(rb"lat=(-?\d{1,3}\.\d+)")
_LON_RE = re.compile(rb"lon=(-?\d{1,3}\.\d+)")
_SUBJECT_RE = re.compile(rb"subject=([A-Za-z0-9_.-]+)")

BLUR_MARKER = b"[BLURRED]"


@dataclasses.dataclass(frozen=True)
class ProtectedZone:
    """A lat/lon bounding box a subject wants redacted."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def contains(self, lat: float, lon: float) -> bool:
        return (self.lat_min <= lat <= self.lat_max
                and self.lon_min <= lon <= self.lon_max)


@dataclasses.dataclass
class SubjectPolicy:
    """One registered subject's privacy policy."""

    subject_id: str
    identifiers: tuple[bytes, ...] = ()
    zones: tuple[ProtectedZone, ...] = ()


#: Constant verdicts, built once instead of per packet.
_NOT_AN_UPLOAD = Verdict.passed("not an HTTP upload")
_NO_PROTECTED_SUBJECT = Verdict.passed("no protected subject captured")


class SensorPrivacyGuard(Middlebox):
    """Blurs IoT uploads that capture registered subjects."""

    service = "sensor_privacy"

    def __init__(self) -> None:
        super().__init__("sensor_privacy")
        self.policies: list[SubjectPolicy] = []
        self.uploads_blurred = 0

    def register(self, policy: SubjectPolicy) -> None:
        self.policies.append(policy)

    # -- matching -------------------------------------------------------------

    def _captured_location(self, body: bytes) -> tuple[float, float] | None:
        lat_match = _LAT_RE.search(body)
        lon_match = _LON_RE.search(body)
        if not lat_match or not lon_match:
            return None
        return float(lat_match.group(1)), float(lon_match.group(1))

    def _matching_policy(self, body: bytes) -> SubjectPolicy | None:
        subject_match = _SUBJECT_RE.search(body)
        subject = subject_match.group(1) if subject_match else None
        location = self._captured_location(body)
        for policy in self.policies:
            if subject is not None and subject.decode() == policy.subject_id:
                return policy
            if any(identifier in body for identifier in policy.identifiers):
                return policy
            if location is not None and any(
                zone.contains(*location) for zone in policy.zones
            ):
                return policy
        return None

    @staticmethod
    def _blur(body: bytes) -> bytes:
        body = _SUBJECT_RE.sub(b"subject=" + BLUR_MARKER, body)
        body = _LAT_RE.sub(b"lat=" + BLUR_MARKER, body)
        body = _LON_RE.sub(b"lon=" + BLUR_MARKER, body)
        if b"frame=" in body:
            body = re.sub(rb"frame=\d+", b"frame=" + BLUR_MARKER, body)
        return body

    # -- middlebox hook ----------------------------------------------------------

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        request = packet.payload
        if not isinstance(request, HttpRequest):
            return _NOT_AN_UPLOAD
        policy = self._matching_policy(request.body)
        if policy is None:
            return _NO_PROTECTED_SUBJECT
        request.body = self._blur(request.body)
        self.uploads_blurred += 1
        return Verdict.rewritten("protected subject blurred",
                                 subject=policy.subject_id)
