"""Cloud-stored PVNCs addressed by URI (§3.1).

"The PVNC can be stored on the device or provided to an access network
as a URI to a globally accessible PVNC object (e.g., in cloud
storage).  In addition, PVNC components can be provided as independent
entities and shared among users."

A :class:`PvncRepository` is that globally accessible store.  URIs
embed a digest prefix, so a fetched object that was tampered with in
storage (or swapped by a malicious mirror) fails verification.  The
same URI can back any number of the user's devices — the paper's
"same PVNC for multiple devices".
"""

from __future__ import annotations

from repro.core.pvnc.dsl import parse_pvnc, render_pvnc
from repro.core.pvnc.model import Pvnc
from repro.errors import ConfigurationError

URI_SCHEME = "pvnc://"
_DIGEST_PREFIX_LEN = 16  # hex chars of the digest embedded in the URI


def pvnc_uri(pvnc: Pvnc) -> str:
    """The canonical URI for a configuration."""
    return (f"{URI_SCHEME}{pvnc.user}/{pvnc.name}"
            f"@{pvnc.digest().hex()[:_DIGEST_PREFIX_LEN]}")


def parse_uri(uri: str) -> tuple[str, str, str]:
    """``pvnc://user/name@digest16`` -> ``(user, name, digest_prefix)``."""
    if not uri.startswith(URI_SCHEME):
        raise ConfigurationError(f"not a PVNC URI: {uri!r}")
    rest = uri[len(URI_SCHEME):]
    path, _, digest = rest.partition("@")
    user, _, name = path.partition("/")
    if not user or not name or len(digest) != _DIGEST_PREFIX_LEN:
        raise ConfigurationError(f"malformed PVNC URI: {uri!r}")
    return user, name, digest


class PvncRepository:
    """A globally accessible PVNC object store (cloud-storage stand-in).

    Objects are stored as rendered DSL text — the repository never
    holds live Python objects, mirroring real blob storage.
    """

    def __init__(self) -> None:
        self._objects: dict[tuple[str, str], str] = {}

    def publish(self, pvnc: Pvnc) -> str:
        """Store a configuration; returns its URI."""
        self._objects[(pvnc.user, pvnc.name)] = render_pvnc(pvnc)
        return pvnc_uri(pvnc)

    def fetch(self, uri: str) -> Pvnc:
        """Retrieve and verify the object behind ``uri``.

        Raises :class:`ConfigurationError` if the object is missing or
        its content digest no longer matches the URI (tampering).
        """
        user, name, digest_prefix = parse_uri(uri)
        text = self._objects.get((user, name))
        if text is None:
            raise ConfigurationError(f"no PVNC stored for {uri!r}")
        pvnc = parse_pvnc(text)
        if pvnc.digest().hex()[:_DIGEST_PREFIX_LEN] != digest_prefix:
            raise ConfigurationError(
                f"PVNC behind {uri!r} does not match its digest "
                "(tampered in storage?)"
            )
        return pvnc

    def tamper(self, user: str, name: str, new_text: str) -> None:
        """Testing hook: overwrite the stored object in place."""
        if (user, name) not in self._objects:
            raise ConfigurationError(f"nothing stored for {user}/{name}")
        self._objects[(user, name)] = new_text

    def __len__(self) -> int:
        return len(self._objects)
