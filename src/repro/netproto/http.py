"""HTTP message models.

Messages are structured objects (not raw bytes) so middleboxes —
classifier, PII detector, transcoder, prefetcher, compressor — can
inspect and rewrite them.  ``body`` is ``bytes``; header names are
case-insensitive on read.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ProtocolError

CONTENT_TEXT = "text/html"
CONTENT_JSON = "application/json"
CONTENT_IMAGE = "image/jpeg"
CONTENT_VIDEO = "video/mp4"
CONTENT_BINARY = "application/octet-stream"


def _normalise_headers(headers: dict[str, str]) -> dict[str, str]:
    return {name.lower(): value for name, value in headers.items()}


@dataclasses.dataclass(slots=True)
class HttpRequest:
    """An HTTP/1.1 request."""

    method: str
    host: str
    path: str = "/"
    headers: dict[str, str] = dataclasses.field(default_factory=dict)
    body: bytes = b""
    https: bool = False

    def __post_init__(self) -> None:
        if self.method not in ("GET", "POST", "PUT", "DELETE", "HEAD"):
            raise ProtocolError(f"unsupported HTTP method {self.method!r}")
        self.headers = _normalise_headers(self.headers)

    @property
    def url(self) -> str:
        scheme = "https" if self.https else "http"
        return f"{scheme}://{self.host}{self.path}"

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    @property
    def size_bytes(self) -> int:
        line = len(f"{self.method} {self.path} HTTP/1.1\r\n")
        hdrs = sum(len(k) + len(v) + 4 for k, v in self.headers.items())
        return line + hdrs + 2 + len(self.body)


@dataclasses.dataclass(slots=True)
class HttpResponse:
    """An HTTP/1.1 response."""

    status: int = 200
    headers: dict[str, str] = dataclasses.field(default_factory=dict)
    body: bytes = b""
    content_type: str = CONTENT_TEXT

    def __post_init__(self) -> None:
        if not 100 <= self.status <= 599:
            raise ProtocolError(f"invalid HTTP status {self.status}")
        self.headers = _normalise_headers(self.headers)
        self.headers.setdefault("content-type", self.content_type)

    def header(self, name: str) -> str:
        return self.headers.get(name.lower(), "")

    @property
    def size_bytes(self) -> int:
        line = len(f"HTTP/1.1 {self.status} X\r\n")
        hdrs = sum(len(k) + len(v) + 4 for k, v in self.headers.items())
        return line + hdrs + 2 + len(self.body)

    def with_body(self, body: bytes, content_type: str | None = None
                  ) -> "HttpResponse":
        """A copy with a replaced body (transcoders/compressors use this)."""
        headers = dict(self.headers)
        ctype = content_type or self.content_type
        headers["content-type"] = ctype
        headers["content-length"] = str(len(body))
        return HttpResponse(
            status=self.status, headers=headers, body=body, content_type=ctype
        )


def body_digest(message: HttpRequest | HttpResponse) -> bytes:
    """A stable digest of the body — content-modification audits use it."""
    import hashlib

    return hashlib.sha256(message.body).digest()
