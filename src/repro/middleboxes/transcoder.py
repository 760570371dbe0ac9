"""Bitrate/quality transcoder middlebox (Fig. 1(a), §4).

Rewrites video/image HTTP responses down to a target quality, reducing
the bytes that cross the constrained wireless last mile.  This is the
user-controlled alternative to blanket carrier throttling: the *user's*
PVNC decides which flows get transcoded and to what level, instead of a
one-size-fits-all 1.5 Mbps shaper.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.netproto.http import CONTENT_IMAGE, CONTENT_VIDEO, HttpResponse
from repro.netsim.packet import Packet
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict

#: Quality levels -> body size retention ratio.
QUALITY_RATIOS = {
    "low": 0.25,
    "medium": 0.50,
    "high": 0.75,
    "original": 1.00,
}


#: Constant verdicts, built once instead of per packet.
_NOT_A_RESPONSE = Verdict.passed("not an HTTP response")
_NOT_TRANSCODABLE = Verdict.passed("not transcodable media")
_NO_TRANSCODING_REQUESTED = Verdict.passed("no transcoding requested")


class Transcoder(Middlebox):
    """Shrinks video/image response bodies to a target quality."""

    service = "transcoder"

    def __init__(self, quality: str = "medium") -> None:
        super().__init__("transcoder")
        if quality not in QUALITY_RATIOS:
            raise ConfigurationError(
                f"unknown quality {quality!r}; options: {sorted(QUALITY_RATIOS)}"
            )
        self.quality = quality
        self.bytes_in = 0
        self.bytes_out = 0

    @property
    def ratio(self) -> float:
        return QUALITY_RATIOS[self.quality]

    @property
    def bytes_saved(self) -> int:
        return self.bytes_in - self.bytes_out

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        response = packet.payload
        if not isinstance(response, HttpResponse):
            return _NOT_A_RESPONSE
        if response.header("content-type") not in (CONTENT_VIDEO, CONTENT_IMAGE):
            return _NOT_TRANSCODABLE
        if self.quality == "original" or not response.body:
            return _NO_TRANSCODING_REQUESTED

        original_size = len(response.body)
        target_size = max(1, int(original_size * self.ratio))
        transcoded = response.body[:target_size]
        packet.payload = response.with_body(
            transcoded, content_type=response.header("content-type")
        )
        packet.size = max(40, packet.size - (original_size - target_size))
        self.bytes_in += original_size
        self.bytes_out += target_size
        return Verdict.rewritten(
            f"transcoded to {self.quality}",
            original=original_size, transcoded=target_size,
        )
