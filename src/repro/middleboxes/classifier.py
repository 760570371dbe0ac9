"""The traffic classifier of Fig. 1(a).

The example PVNC in the paper routes "Web (text)" one way,
"Video/image" through a transcoder + TCP proxy, and "HTTPS" over
IPSec.  The classifier is the chain head that makes that decision: it
annotates each packet with a ``traffic_class`` the compiler's
per-class sub-chains key on.
"""

from __future__ import annotations

from repro.netproto.http import (
    CONTENT_IMAGE,
    CONTENT_VIDEO,
    HttpRequest,
    HttpResponse,
)
from repro.netproto.tls import TlsHandshake
from repro.netsim.packet import Packet
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict

#: The classes the Fig. 1(a) PVNC distinguishes.
CLASS_WEB_TEXT = "web_text"
CLASS_VIDEO_IMAGE = "video_image"
CLASS_HTTPS = "https"
CLASS_DNS = "dns"
CLASS_OTHER = "other"

ALL_CLASSES = (CLASS_WEB_TEXT, CLASS_VIDEO_IMAGE, CLASS_HTTPS,
               CLASS_DNS, CLASS_OTHER)

#: Metadata key the classifier writes and downstream rules read.
CLASS_KEY = "traffic_class"


def classify(packet: Packet) -> str:
    """Pure classification function (the middlebox wraps this)."""
    payload = packet.payload
    if isinstance(payload, TlsHandshake) or packet.dst_port == 443:
        return CLASS_HTTPS
    if packet.dst_port == 53 or packet.protocol == "udp" and packet.src_port == 53:
        return CLASS_DNS
    if isinstance(payload, HttpResponse):
        if payload.header("content-type") in (CONTENT_VIDEO, CONTENT_IMAGE):
            return CLASS_VIDEO_IMAGE
        return CLASS_WEB_TEXT
    if isinstance(payload, HttpRequest):
        path = payload.path.lower()
        if path.endswith((".mp4", ".webm", ".jpg", ".jpeg", ".png", ".gif")):
            return CLASS_VIDEO_IMAGE
        return CLASS_WEB_TEXT
    if packet.dst_port == 80:
        return CLASS_WEB_TEXT
    return CLASS_OTHER


#: One verdict per class, built once: the verdict is a function of the
#: class alone.
_VERDICTS = {
    cls: Verdict.rewritten("classified", traffic_class=cls)
    for cls in ALL_CLASSES
}


class TrafficClassifier(Middlebox):
    """Annotates packets with their Fig. 1(a) traffic class."""

    service = "classifier"

    def __init__(self, name: str = "classifier") -> None:
        super().__init__(name)
        self.class_counts: dict[str, int] = {cls: 0 for cls in ALL_CLASSES}

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        traffic_class = classify(packet)
        packet.metadata[CLASS_KEY] = traffic_class
        self.class_counts[traffic_class] += 1
        return _VERDICTS[traffic_class]

    def export_state(self) -> dict:
        state = super().export_state()
        state["class_counts"] = dict(self.class_counts)
        return state

    def import_state(self, state: dict) -> None:
        super().import_state(state)
        self.class_counts.update(state.get("class_counts", {}))
