"""Compression-proxy middlebox (the Chrome Data Compression Proxy
reference [1]).

Compresses compressible HTTP response bodies with real zlib before the
constrained last mile, trading middlebox CPU for device bytes — the
same trade every data-saver proxy makes.  Already-compressed media
(video/images) is left alone.
"""

from __future__ import annotations

import zlib

from repro.netproto.http import (
    CONTENT_IMAGE,
    CONTENT_JSON,
    CONTENT_TEXT,
    CONTENT_VIDEO,
    HttpResponse,
)
from repro.netsim.packet import Packet
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict

COMPRESSIBLE_TYPES = (CONTENT_TEXT, CONTENT_JSON)


#: Constant verdicts, built once instead of per packet.
_NOT_A_RESPONSE = Verdict.passed("not an HTTP response")
_MEDIA_COMPRESSED = Verdict.passed("media already compressed")
_UNCOMPRESSIBLE_TYPE = Verdict.passed("uncompressible content type")
_BODY_TOO_SMALL = Verdict.passed("body too small to bother")
_ALREADY_ENCODED = Verdict.passed("already encoded")
_INCOMPRESSIBLE_BODY = Verdict.passed("incompressible body")


class CompressionProxy(Middlebox):
    """zlib compression of text/JSON response bodies."""

    service = "compressor"

    def __init__(self, level: int = 6, min_body_bytes: int = 256,
                 name: str = "compressor") -> None:
        super().__init__(name)
        if not 1 <= level <= 9:
            raise ValueError(f"zlib level must be 1..9, got {level}")
        self.level = level
        self.min_body_bytes = min_body_bytes
        self.bytes_in = 0
        self.bytes_out = 0

    @property
    def bytes_saved(self) -> int:
        return self.bytes_in - self.bytes_out

    @staticmethod
    def decompress(body: bytes) -> bytes:
        """Inverse transform, used by the device side and by tests."""
        return zlib.decompress(body)

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        response = packet.payload
        if not isinstance(response, HttpResponse):
            return _NOT_A_RESPONSE
        content_type = response.header("content-type")
        if content_type in (CONTENT_VIDEO, CONTENT_IMAGE):
            return _MEDIA_COMPRESSED
        if content_type not in COMPRESSIBLE_TYPES:
            return _UNCOMPRESSIBLE_TYPE
        if len(response.body) < self.min_body_bytes:
            return _BODY_TOO_SMALL
        if response.header("content-encoding"):
            return _ALREADY_ENCODED

        compressed = zlib.compress(response.body, self.level)
        if len(compressed) >= len(response.body):
            return _INCOMPRESSIBLE_BODY
        original = len(response.body)
        new_response = response.with_body(compressed, content_type=content_type)
        new_response.headers["content-encoding"] = "deflate"
        packet.payload = new_response
        packet.size = max(40, packet.size - (original - len(compressed)))
        self.bytes_in += original
        self.bytes_out += len(compressed)
        return Verdict.rewritten("compressed",
                                 original=original, compressed=len(compressed))
