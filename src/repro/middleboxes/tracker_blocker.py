"""Tracker-blocking middlebox.

The paper's PVN Store discussion names "tracker-blocking modules" as a
canonical third-party PVNC component (§3.1).  This one drops HTTP(S)
requests whose host matches a blocklist of tracking/analytics domains,
with suffix matching ("ads.example" blocks "x.ads.example").
"""

from __future__ import annotations

from repro.netproto.http import HttpRequest
from repro.netsim.packet import Packet
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict

#: A compact default blocklist; deployments install fuller lists from
#: the PVN Store.
DEFAULT_BLOCKLIST = (
    "tracker.example",
    "analytics.example",
    "ads.example",
    "telemetry.example",
)


#: Constant verdicts, built once instead of per packet.
_NOT_A_REQUEST = Verdict.passed("not an HTTP request")
_NOT_A_TRACKER = Verdict.passed("not a tracker")


class TrackerBlocker(Middlebox):
    """Domain-blocklist request filtering."""

    service = "tracker_blocker"

    def __init__(
        self,
        blocklist: tuple[str, ...] = DEFAULT_BLOCKLIST,
        name: str = "tracker_blocker",
    ) -> None:
        super().__init__(name)
        self.blocklist = tuple(domain.lower() for domain in blocklist)
        self.blocked_requests = 0
        self.blocked_bytes = 0

    def is_tracker(self, host: str) -> bool:
        host = host.lower()
        for domain in self.blocklist:
            if host == domain or host.endswith("." + domain):
                return True
        return False

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        request = packet.payload
        if not isinstance(request, HttpRequest):
            return _NOT_A_REQUEST
        if not self.is_tracker(request.host):
            return _NOT_A_TRACKER
        self.blocked_requests += 1
        self.blocked_bytes += packet.size
        return Verdict.dropped(f"tracker domain {request.host}")

    def export_state(self) -> dict:
        state = super().export_state()
        state.update(blocked_requests=self.blocked_requests,
                     blocked_bytes=self.blocked_bytes)
        return state

    def import_state(self, state: dict) -> None:
        super().import_state(state)
        self.blocked_requests = state.get("blocked_requests", 0)
        self.blocked_bytes = state.get("blocked_bytes", 0)
