"""The PVN Store: signed middlebox module marketplace (§3.1)."""

from repro.core.store.catalog import PvnStore
from repro.core.store.signing import SigningKey

__all__ = [
    "PvnStore",
    "SigningKey",
]
